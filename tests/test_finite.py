import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from clonelab import finite
from clonelab.finite import (
    Carrier,
    OpTable,
    RelationTable,
    ResourceLimitError,
    all_op_tables,
    clone_closure,
    closure_covers_slice,
    closure_slice,
    closure_slice_is_full,
    compose,
    conjugate,
    format_ops,
    format_relations,
    make_projection,
    parse_ops,
    parse_relations,
    pol,
    reduce_generators,
    respects,
)
from clonelab.finite import (
    _closure,
    _CodeEngine,
    _Invariant,
    _maximal_relations,
    _normalized_generators,
    _subuniverse_bound,
)
from closure_reference import reference_slice
from preservation_reference import reference_pol, reference_respects

C2 = Carrier(2)
C3 = Carrier(3)


def brute_table(carrier, arity, fn):
    return tuple(fn(*t) for t in itertools.product(range(carrier.size), repeat=arity))


class TestProjections:
    def test_identity(self):
        assert make_projection(1, 1, C2).table == (0, 1)

    def test_second_coordinate(self):
        assert make_projection(2, 2, C2).table == (0, 1, 0, 1)

    def test_ternary_first_by_enumeration(self):
        # oracle: walk all 27 tuples and read off the first component
        expected = brute_table(C3, 3, lambda a, b, c: a)
        assert make_projection(3, 1, C3).table == expected

    def test_coordinate_out_of_range(self):
        with pytest.raises(ValueError):
            make_projection(2, 3, C2)
        with pytest.raises(ValueError):
            make_projection(2, 0, C2)


AND = OpTable(C2, 2, (0, 0, 0, 1))
OR = OpTable(C2, 2, (0, 1, 1, 1))
XOR = OpTable(C2, 2, (0, 1, 1, 0))
NAND = OpTable(C2, 2, (1, 1, 1, 0))
NOT = OpTable(C2, 1, (1, 0))


def _op(k, arity, fn, perm=None):
    op = OpTable.from_fn(Carrier(k), arity, fn)
    return conjugate(op, perm) if perm else op


def _agreement_cases():
    """(carrier size, slice arity, generators, known slice size or None).

    Random generators where the whole table space is small, then small
    clones, conjugated by seeded permutations, on slices that reach every
    dedup path: bitmap (up to 2^20 tables), int64 keys and byte keys.
    """
    rng = random.Random(7)

    def rand_op(k, ar):
        return OpTable(Carrier(k), ar, tuple(rng.randrange(k) for _ in range(k**ar)))

    def lattice(k, perm):
        return [_op(k, 2, min, perm), _op(k, 2, max, perm)]

    def affine(k, perm):
        return [_op(k, 2, lambda x, y: (x + y) % k, perm), _op(k, 1, lambda x: 1, perm)]

    def minority(k, perm):
        return [_op(k, 3, lambda x, y, z: (x - y + z) % k, perm)]

    cases = []
    for _ in range(25):
        k = rng.choice([2, 2, 3])
        arities = [rng.choice([1, 2]) for _ in range(rng.randrange(0, 4))]
        cases.append((k, rng.choice([1, 2]) if k == 2 else 1, [rand_op(k, a) for a in arities], None))
    for _ in range(6):
        cases.append((4, 1, [rand_op(4, rng.choice([1, 2])) for _ in range(rng.randrange(1, 3))], None))
    for k in (3, 4):
        for _ in range(2):
            perm = tuple(rng.sample(range(k), k))
            cases += [
                (k, 2, [rand_op(k, 1), rand_op(k, 1)], None),
                (k, 2, lattice(k, perm), None),
                (k, 2, minority(k, perm), None),
                (k, 2, affine(k, perm), None),
                (k, 2, lattice(k, perm) + [_op(k, 1, lambda x: c) for c in (0, k - 1)], None),
            ]
    perm2, perm3, perm4 = (1, 0), tuple(rng.sample(range(3), 3)), tuple(rng.sample(range(4), 4))
    dedekind = (2, 3, 6, 20, 168)  # monotone Boolean functions, OEIS A000372
    cases += [
        # bitmap: <AND, OR> gives the free distributive lattice, D(n) - 2
        (2, 4, [AND, OR], dedekind[4] - 2),
        # int64 keys; conjunctions of nonempty variable sets, odd parities
        (2, 5, [_op(2, 2, lambda x, y: x & y, perm2)], 2**5 - 1),
        (2, 5, [_op(2, 3, lambda x, y, z: x ^ y ^ z)], 2 ** (5 - 1)),
        (2, 5, [_op(2, 2, lambda x, y: x ^ y), _op(2, 1, lambda x: 1 - x)], None),
        (3, 3, lattice(3, None), dedekind[3] - 2),
        (3, 3, lattice(3, perm3), None),
        (3, 3, affine(3, perm3), None),
        (3, 3, [rand_op(3, 1), rand_op(3, 1)], None),
        # byte keys; x - y + z gives every sum a.x with sum a = 1, <x + y, 1>
        # every a.x + c
        (3, 4, minority(3, None), 3 ** (4 - 1)),
        (3, 4, affine(3, None), 3 ** (4 + 1)),
        (4, 3, lattice(4, perm4), None),
        (4, 3, minority(4, perm4), None),
        (4, 3, [rand_op(4, 1)], None),
        # a generator of arity 3 activated after a unary one has grown the
        # pool: the self-dual clone, 2^(2^3 / 2) tables, and every a.x + b.y + c
        # with a + b = 1
        (2, 3, [NOT, _op(2, 3, lambda x, y, z: int(x + y + z >= 2))], 2 ** 4),
        (3, 2, [_op(3, 1, lambda x: (x + 1) % 3)] + minority(3, None), 3**2),
    ]
    return cases


class TestCompose:
    def test_projection_absorbs(self):
        f1 = OpTable(C2, 2, (1, 0, 0, 1))
        f2 = OpTable(C2, 2, (0, 1, 1, 1))
        assert compose(make_projection(2, 1, C2), [f1, f2]).table == f1.table

    def test_and_of_not_first(self):
        not_first = OpTable(C2, 2, (1, 1, 0, 0))
        got = compose(AND, [not_first, make_projection(2, 2, C2)])
        expected = brute_table(C2, 2, lambda x, y: int((1 - x) and y))
        assert got.table == expected == (0, 1, 0, 0)

    def test_median_formula_matches_pointwise_median(self):
        mx = OpTable.from_fn(C3, 2, max)
        mn = OpTable.from_fn(C3, 2, min)
        p1, p2, p3 = (make_projection(3, k, C3) for k in (1, 2, 3))
        pair_min = lambda a, b: compose(mn, [a, b])
        formula = compose(mx, [compose(mx, [pair_min(p1, p2), pair_min(p2, p3)]),
                               pair_min(p1, p3)])
        oracle = brute_table(C3, 3, lambda a, b, c: sorted((a, b, c))[1])
        assert formula.table == oracle

    def test_mismatch_errors(self):
        with pytest.raises(ValueError):
            compose(AND, [make_projection(2, 1, C2)])
        with pytest.raises(ValueError):
            compose(AND, [make_projection(2, 1, C2), make_projection(1, 1, C2)])
        with pytest.raises(ValueError):
            compose(AND, [make_projection(2, 1, C2), make_projection(2, 1, C3)])


class TestRespects:
    def test_full_relation_accepts_everything(self):
        full = RelationTable.full(C2, 2)
        for f in all_op_tables(C2, 2):
            assert respects(f, full)

    def test_and_respects_order(self):
        order = RelationTable(C2, 2, frozenset({(0, 0), (0, 1), (1, 1)}))
        assert respects(AND, order)
        assert not respects(NOT, RelationTable.unary(C2, {0}))

    def test_xor_breaks_order(self):
        order = RelationTable(C2, 2, frozenset({(0, 0), (0, 1), (1, 1)}))
        assert not respects(XOR, order)


class TestPol:
    def test_full_relation_gives_everything(self):
        got = pol(RelationTable.full(C2, 2), 2)
        assert got.counts() == {1: 4, 2: 16}

    def test_unary_relation_carrier3(self):
        # oracle: f(0), f(1) in {0,1} (4 ways) x f(2) free (3 ways) = 12
        got = pol(RelationTable.unary(C3, {0, 1}), 1)
        assert len(got) == 12

    def test_zero_fixing_binaries(self):
        got = pol(RelationTable.unary(C2, {0}), 2)
        oracle = [f for f in all_op_tables(C2, 2) if f(0, 0) == 0]
        assert set(got.slice(2)) == set(oracle)
        assert len(oracle) == 8

    def test_budget(self, monkeypatch):
        assert finite._MAX_CANDIDATES == 1 << 21
        monkeypatch.setattr(finite, "_MAX_CANDIDATES", 10)
        with pytest.raises(ResourceLimitError):
            pol(RelationTable.unary(C3, {0}), 2)

    def test_empty_relation_is_preserved_by_everything(self):
        for width in (1, 2, 4):
            empty = RelationTable(C3, width, frozenset())
            assert pol(empty, 2).counts() == {1: 27, 2: 19683}
            assert respects(OpTable(C3, 3, (0,) * 27), empty)

    def test_width_zero_relations_are_preserved_by_everything(self):
        # parse_relations reads a width-0 header with no rows as the empty
        # relation; the one other width-0 relation holds the empty tuple
        (_, parsed), = parse_relations("rel z carrier=2 width=0\n")
        assert parsed == RelationTable(C2, 0, frozenset())
        for rel in (parsed, RelationTable(C2, 0, frozenset({()}))):
            assert pol(rel, 3).counts() == {1: 4, 2: 16, 3: 256}
            assert respects(XOR, rel) and reference_respects(XOR, rel)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_pol_matches_the_reference(self, data):
        k = data.draw(st.sampled_from([2, 3]))
        cap = data.draw(st.integers(1, 3 if k == 2 else 2))
        width = data.draw(st.integers(0, 4))
        space = list(itertools.product(range(k), repeat=width))
        tuples = data.draw(st.one_of(st.just(frozenset()), st.just(frozenset(space)),
                                     st.frozensets(st.sampled_from(space), max_size=4)))
        # the reference tries up to |rows|^n choices for each of the k^(k^n) tables
        assume(sum(k ** k**n * len(tuples) ** n for n in range(1, cap + 1)) * max(width, 1) <= 1 << 19)
        rel = RelationTable(Carrier(k), width, tuples)
        assert pol(rel, cap).ops == reference_pol(rel, cap)


class TestClosure:
    def test_empty_generators_projections_only(self):
        assert clone_closure([], C2, 2).counts() == {1: 1, 2: 2}

    def test_nand_generates_everything(self):
        assert clone_closure([NAND], C2, 2).counts() == {1: 4, 2: 16}

    def test_all_unary_gives_essentially_unary_binaries(self):
        closed = clone_closure([], C2, 2, include_all_unary=True)
        # oracle: tables of u(x) and u(y) for the four unary u, deduplicated
        essentially_unary = {brute_table(C2, 2, lambda x, y, u=u: u(x)) for u in
                             [lambda v: v, lambda v: 1 - v, lambda v: 0, lambda v: 1]}
        essentially_unary |= {brute_table(C2, 2, lambda x, y, u=u: u(y)) for u in
                              [lambda v: v, lambda v: 1 - v, lambda v: 0, lambda v: 1]}
        assert {op.table for op in closed.slice(2)} == essentially_unary
        assert len(essentially_unary) == 6

    def test_cap_below_generator_arity(self):
        with pytest.raises(ValueError):
            clone_closure([AND], C2, 1)

    def test_engines_agree_on_random_generators(self):
        # every case against the plain fixpoint of closure_reference.py;
        # the known counts are the formulas cited in clonebench/oracles.py
        for k, arity, gens, known in _agreement_cases():
            carrier = Carrier(k)
            tables, full = closure_slice(gens, carrier, arity, stop_if_full=False)
            reference = reference_slice(gens, k, arity)
            assert len(tables) == len(set(tables)) == len(reference), (k, arity, gens)
            assert set(tables) == reference
            # stopping at the subuniverse bound changes neither the tables nor their order
            assert closure_slice(gens, carrier, arity) == (tables, full)
            assert full == (len(reference) == k ** (k**arity))
            if known is not None:
                assert len(reference) == known

    def test_complete_ops_stop_a_wide_slice(self):
        # NAND generates every Boolean operation (Sheffer): it escapes each of
        # Post's five maximal clones, so the slice of 2^32 tables is full
        # without a pool, and complete_ops is accepted but unused
        start = time.perf_counter()
        assert closure_covers_slice([NAND], C2, 5, complete_ops=[NAND])
        assert time.perf_counter() - start < 5

    def test_complete_op_above_slice_arity_is_rejected(self):
        for arity in (2, 5):  # one slice below 2^20 tables, one above
            too_wide = OpTable(C2, arity + 1, (1,) * 2 ** (arity + 1))
            with pytest.raises(ValueError):
                closure_covers_slice([NAND], C2, arity, complete_ops=[too_wide])

    def test_max_tables_budget(self, monkeypatch):
        # <AND, OR> has D(4) - 2 = 166 tables at arity 4 and 7579 at arity 5
        monkeypatch.setattr(finite, "_MAX_TABLES", 166)
        assert len(closure_slice([AND, OR], C2, 4)[0]) == 166
        monkeypatch.setattr(finite, "_MAX_TABLES", 100)
        for arity in (4, 5):
            with pytest.raises(ResourceLimitError):
                closure_slice([AND, OR], C2, arity)

    def test_default_budget_stops_every_entry(self, monkeypatch):
        # NAND is Sheffer: its arity-3 slice has all 256 tables, no bound stops short
        assert finite._MAX_TABLES >= 1 << 16  # the largest slice tests and suites build
        monkeypatch.setattr(finite, "_MAX_TABLES", 100)
        for entry in (closure_slice, reduce_generators, clone_closure):
            with pytest.raises(ResourceLimitError):
                entry([NAND], C2, 3)
        # fullness on carriers 2 and 3 reads the maximal clones and fills no
        # slice; on carrier 4 the engine fills, and the shifted max preserves
        # no proper subset, so no bound stops short of 4^16 tables
        webb4 = _op(4, 2, lambda x, y: (max(x, y) + 1) % 4)
        for entry in (closure_slice_is_full, closure_covers_slice):
            with pytest.raises(ResourceLimitError):
                entry([webb4], Carrier(4), 2)
        assert closure_slice_is_full([NAND], C2, 3)
        monkeypatch.setattr(finite, "_MAX_TABLES", 256)
        assert len(closure_slice([NAND], C2, 3)[0]) == 256

    def test_bound_refutes_fullness_without_a_fill(self, monkeypatch):
        # <AND, OR> preserves {0} and {1}; <AND, XOR> preserves {0}
        applied = _count_operand_tuples(monkeypatch)
        assert not closure_slice_is_full([AND, OR], C2, 5)
        assert not closure_covers_slice([AND, XOR], C2, 3)
        assert not closure_covers_slice([AND, XOR], C2, 3, complete_ops=[NAND])
        assert applied == [0]
        assert closure_slice_is_full([NAND], C2, 3)

    def test_bound_stop_keeps_the_tables_and_their_order(self, monkeypatch):
        # <AND, XOR> is Pol{0}: every table with t[0] == 0, 2^(2^n - 1) of them
        applied = _count_operand_tuples(monkeypatch)
        for arity, count in ((2, 8), (3, 128)):
            saturated = closure_slice([AND, XOR], C2, arity)
            assert saturated == closure_slice([AND, XOR], C2, arity, stop_if_full=False)
            assert len(saturated[0]) == count and not saturated[1]
        # the arity-4 sweep applies 2 * 32768^2 operand tuples, too many for a
        # unit test, so the stopped run is checked against the Pol{0} oracle
        applied[0] = 0
        tables, full = closure_slice([AND, XOR], C2, 4)
        assert len(tables) == len(set(tables)) == 32768 and not full
        assert all(t[0] == 0 for t in tables)
        assert applied[0] <= 2 * 32768**2 // 4

    def test_reduce_generators_stops_at_the_bound(self):
        # every operation of arity <= 2 fixing 0 generates Pol{0} on C2
        offered = [f for n in (1, 2) for f in all_op_tables(C2, n) if f.table[0] == 0]
        for cap in (2, 3):
            swept = _closure(_normalized_generators(offered, C2, False), C2, cap,
                             stop_if_full=False)[2]
            assert reduce_generators(offered, C2, cap) == swept

    def test_reduce_generators_preserves_closure(self):
        gens = [AND, OR, XOR, NOT, NAND]
        core = reduce_generators(gens, C2, 2)
        assert len(core) <= len(gens)
        assert clone_closure(core, C2, 2).signature() == clone_closure(gens, C2, 2).signature()


def _count_operand_tuples(monkeypatch) -> list[int]:
    """A counter of the operand tuples unary and binary generators apply."""
    applied = [0]
    limbwise = _CodeEngine._limbwise

    def counted(self, payload, operands):
        applied[0] += math.prod(len(o) for o in operands)
        return limbwise(self, payload, operands)

    monkeypatch.setattr(_CodeEngine, "_limbwise", counted)
    return applied


def _inside(k, arity, excluded):
    """Every table that keeps tuples avoiding excluded away from excluded."""
    small = [x for x in range(k) if x != excluded]
    positions = [i for i, t in enumerate(itertools.product(range(k), repeat=arity))
                 if set(t) <= set(small)]
    return [OpTable(Carrier(k), arity, t) for t in itertools.product(range(k), repeat=k**arity)
            if all(t[i] != excluded for i in positions)]


@pytest.fixture(scope="module")
def ideal_core():
    """The reduced generators of the carrier-3 ideal clone Pol{0, 1} (e = 2)."""
    offered = _inside(3, 1, 2) + _inside(3, 2, 2)
    assert len(offered) == 12 + 3888
    return reduce_generators(offered, C3, 2)


# the generators the full introduction sweep (stop_if_full=False) keeps
IDEAL_CORE_TABLES = [
    (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 2),
    (0, 0, 0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0, 0, 0, 2), (0, 0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 2), (0, 0, 0, 0, 0, 0, 0, 2, 0), (0, 0, 0, 0, 0, 1, 0, 1, 0),
    (0, 0, 0, 0, 0, 1, 0, 1, 2), (0, 0, 0, 0, 0, 1, 0, 2, 0), (0, 0, 0, 0, 0, 1, 1, 2, 0),
    (0, 0, 0, 0, 0, 2, 0, 2, 0), (0, 0, 0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0, 0, 2),
    (0, 0, 0, 0, 1, 0, 0, 2, 0),
]


class TestSubuniverseBound:
    def test_ideal_core_saturates_at_the_bound(self, ideal_core, monkeypatch):
        assert [g.table for g in ideal_core] == IDEAL_CORE_TABLES
        inside_op = OpTable(C3, 2, (0, 1, 1, 0, 1, 2, 2, 2, 2))
        gens = ideal_core + [inside_op]
        assert _subuniverse_bound(gens, 3, 2) == 2**4 * 3**5 == 3888
        applied = _count_operand_tuples(monkeypatch)
        saturated = closure_slice(gens, C3, 2)
        stopped_work, applied[0] = applied[0], 0
        swept = closure_slice(gens, C3, 2, stop_if_full=False)
        assert saturated == swept
        assert len(saturated[0]) == 3888 and not saturated[1]
        assert stopped_work <= applied[0] // 4

    def test_trivial_subuniverses_bound_the_full_space(self):
        assert _subuniverse_bound([NAND], 2, 3) == 2**8
        webb = OpTable.from_fn(C3, 2, lambda x, y: (max(x, y) + 1) % 3)
        assert _subuniverse_bound([webb], 3, 2) == 3**9
        assert _subuniverse_bound([NOT], 2, 5) == 2**32  # no proper subuniverse at all
        # no generators: every subset is a subuniverse, so the bound counts
        # the conservative operations
        assert _subuniverse_bound([], 3, 2) == 1**3 * 2**6

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_bound_equals_brute_force_pol_count(self, data):
        k, arity = data.draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]))
        # generators drawn to preserve a chosen subset, so nontrivial
        # invariants are common; the oracle finds every invariant itself
        chosen = data.draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=k - 1))
        gens = []
        for _ in range(data.draw(st.integers(0, 3))):
            m = data.draw(st.integers(1, 3 if k == 2 else 2))
            table = data.draw(st.lists(st.integers(0, k - 1), min_size=k**m, max_size=k**m))
            for i, t in enumerate(itertools.product(range(k), repeat=m)):
                if set(t) <= chosen and table[i] not in chosen:
                    table[i] = min(chosen)
            gens.append(OpTable(Carrier(k), m, tuple(table)))
        assert _subuniverse_bound(gens, k, arity) == _brute_force_pol_count(gens, k, arity)


def _brute_force_pol_count(gens, k, arity):
    """Operations of the arity preserving every subset all of gens preserve."""
    invariant = [
        set(s) for r in range(1, k + 1) for s in itertools.combinations(range(k), r)
        if all(g.table[i] in s
               for g in gens
               for i, t in enumerate(itertools.product(range(k), repeat=g.arity))
               if set(t) <= set(s))
    ]
    points = list(itertools.product(range(k), repeat=arity))
    constraints = [(i, s) for s in invariant for i, p in enumerate(points) if set(p) <= s]
    return sum(1 for table in itertools.product(range(k), repeat=len(points))
               if all(table[i] in s for i, s in constraints))


# Pol_2 sizes of the maximal-clone relations, in list order: for k = 2
# {0}, {1}, <=, the graph of negation, affine; for k = 3 the six subsets
# (singletons first), the three chains, the 3-cycle, three equivalences,
# three binary central relations, affine, 3-regular
POL2_SIZES = {
    2: [8, 8, 6, 4, 8],
    3: [6561] * 3 + [3888] * 3 + [175] * 3 + [27] + [1275] * 3 + [1361] * 3 + [27, 1545],
}


def _all_tables(k, arity):
    return np.array(list(itertools.product(range(k), repeat=k**arity)), dtype=np.uint8)


def _pol_slice(inv, arity):
    """Pol_arity of the relation in reverse table order."""
    return list(pol(inv.relation, arity).slice(arity)[::-1])


def _outside_witness(inv):
    """One operation outside Pol of the relation.

    The first unary one in table order; for the graph of a permutation the
    first permutation outside, since with a constant the carrier-3 fill takes
    four times as long; max when every unary operation preserves the relation.
    """
    carrier, rel = inv.relation.carrier, inv.relation
    outside = [f for f in all_op_tables(carrier, 1) if not respects(f, rel)]
    if rel.width == 2 and len(rel.tuples) == carrier.size:
        outside.sort(key=lambda f: len(set(f.table)) < carrier.size)
    return (outside or [OpTable.from_fn(carrier, 2, max)])[0]


class TestMaximalClones:
    def test_one_relation_per_maximal_clone(self):
        # Post (1941) for k = 2, Jablonskij (1958) for k = 3
        assert len(_maximal_relations(2)) == 5
        assert len(_maximal_relations(3)) == 18
        assert _maximal_relations(3) is _maximal_relations(3)  # built once

    def test_kernel_agrees_with_the_reference(self, monkeypatch):
        rng = random.Random(11)
        cases = []
        for i in range(190):
            k = rng.choice([2, 3])
            if i >= 150:
                # above 2^20 possible tuples: the sorted-row lookup, with the
                # constant tuples in half the relations so constants pass
                width = rng.choice([21, 22, 23, 24] if k == 2 else [13, 14])
                tuples = {tuple(rng.randrange(k) for _ in range(width)) for _ in range(rng.randint(1, 8))}
                if i % 2:
                    tuples |= {(c,) * width for c in range(k)}
                rel = RelationTable(Carrier(k), width, frozenset(tuples))
            elif rng.random() < 0.3:
                rel = rng.choice(_maximal_relations(k)).relation
            else:
                width = rng.randint(0, 4)
                space = list(itertools.product(range(k), repeat=width))
                tuples = rng.sample(space, rng.randint(0, min(len(space), 12)))
                rel = RelationTable(Carrier(k), width, frozenset(tuples))
            m = rng.randint(1, 3)
            ops = [OpTable(Carrier(k), m, tuple(rng.randrange(k) for _ in range(k**m)))
                   for _ in range(3)]
            ops += [make_projection(m, rng.randint(1, m), Carrier(k)),
                    OpTable(Carrier(k), m, (rng.randrange(k),) * k**m)]
            cases.append((rel, m, ops, [reference_respects(f, rel) for f in ops]))
        assert _Invariant(cases[-1][0]).member is None
        verdicts = [v for *_, expected in cases[150:] for v in expected]
        assert 0.1 < sum(verdicts) / len(verdicts) < 0.9
        for rel, m, ops, expected in cases:
            assert [respects(f, rel) for f in ops] == expected, (rel, m, ops)
        # a tiny step budget runs the looped leading operands and the chunked tables too
        for budget in (finite._PRESERVE_ROWS, 5):
            monkeypatch.setattr(finite, "_PRESERVE_ROWS", budget)
            for rel, m, ops, expected in cases:
                tables = np.array([f.table for f in ops], dtype=np.uint8)
                got = _Invariant(rel).preserved_by(tables, m)
                assert got.tolist() == expected, (rel, m, ops)

    def test_pol2_slices_are_pinned_proper_and_distinct(self):
        for k, sizes in POL2_SIZES.items():
            pols = [frozenset(f.table for f in _pol_slice(inv, 2)) for inv in _maximal_relations(k)]
            assert [len(p) for p in pols] == sizes
            assert all(len(p) < k ** (k * k) for p in pols)
            assert len(set(pols)) == len(pols)
        for inv, size in zip(_maximal_relations(2), POL2_SIZES[2]):
            assert sum(f.arity == 2 for f in reference_pol(inv.relation, 2)) == size

    def test_each_relation_is_maximal_in_the_engine(self):
        # Pol_n(rho) plus one operation outside it generates every binary
        # operation.  n = 3 on carrier 2, whose self-dual clone has only
        # essentially unary binary members; reverse table order activates the
        # operations that grow the pool fastest first
        for k, n in ((2, 3), (3, 2)):
            for inv in _maximal_relations(k):
                witness = _outside_witness(inv)
                assert not respects(witness, inv.relation)
                assert closure_slice([witness] + _pol_slice(inv, n), Carrier(k), 2)[1], (
                    inv.relation, witness)

    def test_list_agrees_with_the_engine(self):
        rng = random.Random(5)

        def rand_op(k, m):
            return OpTable(Carrier(k), m, tuple(rng.randrange(k) for _ in range(k**m)))

        cases = [(2, n, [rand_op(2, rng.choice([1, 2, 3])) for _ in range(rng.randrange(4))])
                 for n in (2, 3) for _ in range(60)]
        # carrier-3 fills take the engine up to a few seconds each
        cases += [(3, 2, [rand_op(3, 2) for _ in range(rng.randrange(1, 3))]) for _ in range(3)]
        # inside one maximal clone, with and without one operation outside it
        for k, n, count in ((2, 3, 30), (3, 2, 2)):
            tables = _all_tables(k, 2)
            for _ in range(count):
                kept = rng.choice(_maximal_relations(k)).preserved_by(tables, 2)
                inside, outside = ([OpTable(Carrier(k), 2, tuple(t)) for t in tables[mask].tolist()]
                                   for mask in (kept, ~kept))
                gens = rng.sample(inside, 2)
                cases += [(k, n, gens), (k, n, gens + [rng.choice(outside)])]
        verdicts = []
        for k, n, gens in cases:
            full = closure_slice_is_full(gens, Carrier(k), n)
            assert full == closure_slice(gens, Carrier(k), n)[1], (k, n, gens)
            verdicts.append(full)
        assert 0.1 < sum(verdicts) / len(verdicts) < 0.9

    def test_one_maximal_clone_holds_every_unary_operation(self):
        # the finite side of the paper's closing theorem (exactly 2 on a
        # weakly compact cardinal): exactly one here, the affine clone L for
        # k = 2 and Slupecki's clone (the 3-regular relation) for k = 3
        for k, expected in ((2, 4), (3, 17)):
            unary = _all_tables(k, 1)
            holding = [i for i, inv in enumerate(_maximal_relations(k))
                       if inv.preserved_by(unary, 1).all()]
            assert holding == [expected]
        affine2 = _maximal_relations(2)[4].relation
        assert affine2.tuples == {t for t in itertools.product((0, 1), repeat=4) if sum(t) % 2 == 0}
        regular3 = _maximal_relations(3)[17].relation
        assert regular3.tuples == {t for t in itertools.product(range(3), repeat=3) if len(set(t)) < 3}
        # the engine's check: all unary operations plus one binary operation
        # outside that clone fill the binary slice
        assert closure_slice([AND], C2, 2, include_all_unary=True)[1]
        assert closure_slice([_op(3, 2, lambda x, y: (x + y) % 3)], C3, 2,
                             include_all_unary=True)[1]


binary_ops = st.builds(
    lambda t: OpTable(C2, 2, t),
    st.tuples(*[st.integers(0, 1)] * 4),
)


class TestClosureProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(binary_ops, max_size=3))
    def test_idempotent(self, gens):
        once = clone_closure(gens, C2, 2)
        twice = clone_closure(sorted(once.ops, key=OpTable.sort_key), C2, 2)
        assert once.signature() == twice.signature()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(binary_ops, max_size=2), st.lists(binary_ops, max_size=2))
    def test_monotone(self, gens, extra):
        small = clone_closure(gens, C2, 2)
        big = clone_closure(gens + extra, C2, 2)
        assert small.ops <= big.ops

    @settings(max_examples=20, deadline=None)
    @given(st.lists(binary_ops, max_size=3))
    def test_projections_always_present(self, gens):
        closed = clone_closure(gens, C2, 2)
        assert make_projection(1, 1, C2) in closed
        assert make_projection(2, 1, C2) in closed
        assert make_projection(2, 2, C2) in closed


class TestGaloisSanity:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(binary_ops, max_size=2))
    def test_members_respect_own_slice_encoding(self, gens):
        closed = clone_closure(gens, C2, 2)
        encoded = RelationTable.from_op_tables(closed.slice(2))
        for op in closed.ops:
            assert respects(op, encoded)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(binary_ops, max_size=2))
    def test_pol_of_slice_recovers_slice(self, gens):
        closed = clone_closure(gens, C2, 2)
        encoded = RelationTable.from_op_tables(closed.slice(2))
        recovered = pol(encoded, 2)
        assert set(recovered.slice(2)) == set(closed.slice(2))


class TestFormats:
    def test_op_round_trip(self):
        named = [("and", AND), ("neg", NOT), ("med3", OpTable.from_fn(C3, 3, lambda a, b, c: sorted((a, b, c))[1]))]
        text = format_ops(named)
        assert parse_ops(text) == named
        assert format_ops(parse_ops(text)) == text

    def test_rel_round_trip(self):
        named = [
            ("ord", RelationTable(C2, 2, frozenset({(0, 0), (0, 1), (1, 1)}))),
            ("zero", RelationTable.unary(C3, {0})),
        ]
        text = format_relations(named)
        assert parse_relations(text) == named
        assert format_relations(parse_relations(text)) == text

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_ops("op broken carrier=x arity=1\n0 1\n")
        with pytest.raises(ValueError):
            parse_ops("op short carrier=2 arity=2\n0 1 0\n")


class TestConjugation:
    def test_conjugate_is_involution_under_inverse(self):
        swap = (1, 0)
        assert conjugate(conjugate(AND, swap), swap).table == AND.table

    def test_conjugate_of_and_is_or(self):
        assert conjugate(AND, (1, 0)).table == OR.table

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_fullness_is_conjugation_invariant(self, data):
        # closure commutes with carrier permutations, so conjugate generator
        # sets have conjugate slices and the same fullness verdict; unary
        # slices keep the fills cheap, generators of arity up to 3 act on them
        gens = [
            OpTable(C3, m, tuple(data.draw(st.lists(st.integers(0, 2), min_size=3**m,
                                                    max_size=3**m))))
            for m in data.draw(st.lists(st.integers(1, 3), max_size=3))
        ]
        perm = data.draw(st.permutations(range(3)))
        mirrored = [conjugate(g, perm) for g in gens]
        tables = closure_slice(gens, C3, 1, stop_if_full=False)[0]
        expected = {conjugate(OpTable(C3, 1, t), perm).table for t in tables}
        assert set(closure_slice(mirrored, C3, 1, stop_if_full=False)[0]) == expected
        assert closure_slice_is_full(mirrored, C3, 1) == closure_slice_is_full(gens, C3, 1)
