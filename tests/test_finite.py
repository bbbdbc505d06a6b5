import functools
import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import clonelab
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
    op_space_size,
    parse_ops,
    parse_relations,
    pol,
    reduce_generators,
    respects,
)
from clonelab.finite import (
    OpSet,
    _closure,
    _CodeEngine,
    _Invariant,
    _kept_maximal_relations,
    _maximal_relations,
    _normalized_generators,
    _slice_rows,
    _subuniverse_bound,
    _subuniverses,
)
from closure_reference import reference_slice
from preservation_reference import reference_pol, reference_respects
from subuniverse_reference import reference_pair_subuniverse

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


class TestOpTable:
    def test_entries_outside_the_carrier_are_rejected(self):
        # a negative entry and an entry equal to the carrier size, anywhere in the table
        for table in ((-1, 0, 1), (0, 1, 3), (0, 3, 1), (-5, 2, 2)):
            with pytest.raises(ValueError, match="table entry outside carrier"):
                OpTable(C3, 1, table)
        assert OpTable(C3, 1, (0, 2, 1)).table == (0, 2, 1)


AND = OpTable(C2, 2, (0, 0, 0, 1))
OR = OpTable(C2, 2, (0, 1, 1, 1))
XOR = OpTable(C2, 2, (0, 1, 1, 0))
NAND = OpTable(C2, 2, (1, 1, 1, 0))
NOT = OpTable(C2, 1, (1, 0))


def _op(k, arity, fn, perm=None):
    op = OpTable.from_fn(Carrier(k), arity, fn)
    return conjugate(op, perm) if perm else op


def _stacks(gens, k):
    """The generators as the private kernels take them: (arity, uint8 stack
    of table rows) per arity, staged by _normalized_generators."""
    return _normalized_generators(gens, Carrier(k), 1, False)


def _engine_full(gens, carrier, arity, include_all_unary=False):
    """The engine's fullness flag: a fill, never the maximal-clone lists."""
    gens = _normalized_generators(gens, carrier, arity, include_all_unary)
    return _closure(gens, carrier, arity, _subuniverse_bound(gens, carrier.size, arity))[1]


def _agreement_cases():
    """(carrier size, slice arity, generators, known slice size or None).

    Random generators where the whole table space is small, then small
    clones, conjugated by seeded permutations, on slices that reach both of
    the engine's stores: the 2^16-entry bitmap (two limbs, the spaces of at
    most 2^16 tables) and the set of limb bytes (more limbs).  Random unary
    sets on carriers 5 to 7 sit at the boundary: two limbs on 5 and 6, four
    on 7.
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
        # set, 4 to 17 limbs; conjunctions of nonempty variable sets, odd
        # parities
        (2, 5, [_op(2, 2, lambda x, y: x & y, perm2)], 2**5 - 1),
        (2, 5, [_op(2, 3, lambda x, y, z: x ^ y ^ z)], 2 ** (5 - 1)),
        (2, 5, [_op(2, 2, lambda x, y: x ^ y), _op(2, 1, lambda x: 1 - x)], None),
        (3, 3, lattice(3, None), dedekind[3] - 2),
        (3, 3, lattice(3, perm3), None),
        (3, 3, affine(3, perm3), None),
        (3, 3, [rand_op(3, 1), rand_op(3, 1)], None),
        # x - y + z gives every sum a.x with sum a = 1, <x + y, 1> every
        # a.x + c
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
        # a 7-cycle and a transposition generate the symmetric group S_7
        (7, 1, [_op(7, 1, lambda x: (x + 1) % 7), _op(7, 1, lambda x: {0: 1, 1: 0}.get(x, x))],
         math.factorial(7)),
    ]
    for k in (5, 6, 7):
        for _ in range(4):
            cases.append((k, 1, [rand_op(k, 1) for _ in range(rng.randrange(1, 4))], None))
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
        full = RelationTable(C2, 2, frozenset(C2.tuples(2)))
        for f in all_op_tables(C2, 2):
            assert respects(f, full)

    def test_and_respects_order(self):
        order = RelationTable(C2, 2, frozenset({(0, 0), (0, 1), (1, 1)}))
        assert respects(AND, order)
        assert not respects(NOT, RelationTable.unary(C2, {0}))

    def test_xor_breaks_order(self):
        order = RelationTable(C2, 2, frozenset({(0, 0), (0, 1), (1, 1)}))
        assert not respects(XOR, order)

    def test_carrier_above_a_byte_is_rejected(self):
        # table entries are held as bytes; 300 values used to overflow them
        c300 = Carrier(300)
        shift = OpTable(c300, 1, tuple((x + 1) % 300 for x in range(300)))
        with pytest.raises(ValueError, match="carrier size 300 above 256"):
            respects(shift, RelationTable.unary(c300, {0}))


class TestPol:
    def test_full_relation_gives_everything(self):
        got = pol(RelationTable(C2, 2, frozenset(C2.tuples(2))), 2)
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
        assert frozenset(pol(rel, cap)) == reference_pol(rel, cap)


    def test_zero_fixing_operations_up_to_arity_4(self):
        # f(0, .., 0) = 0 fixes one of the 2^n entries: 2^(2^n - 1) tables
        assert pol(RelationTable.unary(C2, {0}), 4).counts() == {1: 2, 2: 8, 3: 128, 4: 32768}


class TestOpSetRows:
    """OpSet holds each arity as one digit-row array in table order."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ops_and_rows_agree(self, data):
        k = data.draw(st.sampled_from([2, 3]))
        cap = data.draw(st.integers(1, 3 if k == 2 else 2))
        carrier = Carrier(k)
        tables = {n: data.draw(st.lists(st.tuples(*[st.integers(0, k - 1)] * k**n), max_size=12))
                  for n in range(1, cap + 1)}
        ops = [OpTable(carrier, n, t) for n, ts in tables.items() for t in ts]
        # the public constructor takes ops in any order, with repeats
        from_ops = OpSet(carrier, cap, data.draw(st.permutations(ops + ops[:3])))
        from_rows = OpSet._from_rows(carrier, cap, {
            n: np.array(sorted(set(ts)), dtype=np.uint8).reshape(-1, k**n) for n, ts in tables.items()})
        in_order = sorted(set(ops), key=OpTable.sort_key)
        for got in (from_ops, from_rows):
            assert list(got) == in_order
            assert frozenset(got) == frozenset(ops)
            assert len(got) == len(in_order)
            assert got.counts() == {n: len(set(ts)) for n, ts in tables.items()}
            for n in range(1, cap + 2):
                assert got.slice(n) == tuple(op for op in in_order if op.arity == n)
            others = [OpTable(carrier, n, t) for n in range(1, cap + 1)
                      for t in itertools.islice(itertools.product(range(k), repeat=k**n), 40)]
            for op in ops + others:
                assert (op in got) == (op in set(ops))
            assert OpTable(carrier, cap + 1, (0,) * k ** (cap + 1)) not in got
            assert OpTable(Carrier(k + 1), 1, (0,) * (k + 1)) not in got
        assert from_ops == from_rows
        assert hash(from_ops) == hash(from_rows)
        assert from_ops.signature() == from_rows.signature()
        assert from_ops <= from_rows <= from_ops
        if ops:
            fewer = OpSet(carrier, cap, ops[1:])
            assert fewer <= from_ops
            assert (fewer == from_ops) == (ops[0] in fewer)
            assert (from_ops <= fewer) == (ops[0] in fewer)
        assert from_ops != OpSet(carrier, cap + 1, ops)

    def test_rows_are_read_only_and_in_table_order(self):
        got = pol(RelationTable.unary(C3, {0, 1}), 2)
        rows = got.rows(2)
        assert rows.dtype == np.uint8 and rows.shape == (3888, 9)
        assert [tuple(r) for r in rows.tolist()] == sorted(tuple(r) for r in rows.tolist())
        with pytest.raises(ValueError):
            rows[0, 0] = 1

    def test_rows_outside_the_carrier_or_of_the_wrong_width_are_rejected(self):
        good = np.array([[0, 1]], dtype=np.uint8)
        assert OpSet._from_rows(C2, 2, {1: good}).counts() == {1: 1, 2: 0}
        for rows, match in ((np.array([[0, 2]], dtype=np.uint8), "table entry outside carrier"),
                            (np.zeros((1, 3), dtype=np.uint8), "rows of 2\\^1 entries"),
                            (np.zeros(2, dtype=np.uint8), "rows of 2\\^1 entries"),
                            (np.zeros((1, 2), dtype=np.int64), "uint8 rows")):
            with pytest.raises(ValueError, match=match):
                OpSet._from_rows(C2, 2, {1: rows})
        with pytest.raises(ValueError, match="arity above the cap"):
            OpSet._from_rows(C2, 1, {2: np.zeros((1, 4), dtype=np.uint8)})
        with pytest.raises(ValueError, match="arity above the cap"):
            OpSet(C2, 1, [AND])
        with pytest.raises(ValueError, match="different carrier"):
            OpSet(C3, 2, [AND])

    def test_counting_builds_no_optable(self, monkeypatch):
        built = []
        post_init = OpTable.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(OpTable, "__post_init__", counting)
        assert pol(RelationTable.unary(C2, {0}), 4).counts()[4] == 32768
        assert pol(_maximal_relations(3)[6].relation, 2).counts() == {1: 10, 2: 175}
        assert clone_closure([NAND], C2, 3).counts() == {1: 4, 2: 16, 3: 256}  # listed
        assert clone_closure([AND], C2, 3).counts() == {1: 1, 2: 3, 3: 7}  # engine
        # Baker-Pixley: the monotone maps that fix both constants, D(4) - 2
        assert clone_closure([AND, OR], C2, 4).counts()[4] == 166
        assert built == []
        assert len(list(clone_closure([AND], C2, 2))) == 4
        assert len(built) == 4


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
            tables, full = _engine_slice(gens, carrier, arity, sweep=True)
            reference = reference_slice(gens, k, arity)
            assert len(tables) == len(set(tables)) == len(reference), (k, arity, gens)
            assert set(tables) == reference
            # stopping at the subuniverse bound changes neither the tables nor
            # their order, the table order all_op_tables lists them in
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
        engines = _count_operand_tuples(monkeypatch)
        assert not closure_slice_is_full([AND, OR], C2, 5)
        assert not closure_covers_slice([AND, XOR], C2, 3)
        assert not closure_covers_slice([AND, XOR], C2, 3, complete_ops=[NAND])
        assert _applied(engines) == 0
        assert closure_slice_is_full([NAND], C2, 3)

    def test_bound_stop_keeps_the_tables_and_their_order(self, monkeypatch):
        # <AND, XOR> is Pol{0}: every table with t[0] == 0, 2^(2^n - 1) of them
        engines = _count_operand_tuples(monkeypatch)
        for arity, count in ((2, 8), (3, 128)):
            saturated = closure_slice([AND, XOR], C2, arity)
            assert saturated == _engine_slice([AND, XOR], C2, arity, sweep=True)
            assert len(saturated[0]) == count and not saturated[1]
        # the arity-4 sweep applies 2 * 32768^2 operand tuples, too many for a
        # unit test, so the stopped run is checked against the Pol{0} oracle
        engines.clear()
        tables, full = closure_slice([AND, XOR], C2, 4)
        assert len(tables) == len(set(tables)) == 32768 and not full
        assert all(t[0] == 0 for t in tables)
        assert _applied(engines) <= 2 * 32768**2 // 4

    def test_reduce_generators_stops_at_the_bound(self):
        # every operation of arity <= 2 fixing 0 generates Pol{0} on C2
        offered = [f for n in (1, 2) for f in all_op_tables(C2, n) if f.table[0] == 0]
        for cap in (2, 3):
            swept = _closure(_stacks(offered, 2), C2, cap, None)[2]
            kept = [OpTable(C2, m, tuple(row.tolist())) for m, row in swept]
            assert reduce_generators(offered, C2, cap) == kept

    def test_reduce_generators_preserves_closure(self):
        gens = [AND, OR, XOR, NOT, NAND]
        core = reduce_generators(gens, C2, 2)
        assert len(core) <= len(gens)
        assert clone_closure(core, C2, 2).signature() == clone_closure(gens, C2, 2).signature()


class TestClosureInputs:
    def test_arity_below_one_is_rejected(self):
        # arity 0 used to raise IndexError in closure_slice and answer False
        # in closure_slice_is_full; arity -1 raised TypeError
        for arity in (0, -1):
            for entry in (closure_slice, closure_slice_is_full, closure_covers_slice,
                          reduce_generators, clone_closure):
                with pytest.raises(ValueError, match=f"slice arity must be >= 1, got {arity}"):
                    entry([NOT], C2, arity)

    def test_carrier_above_a_byte_is_rejected(self):
        c300 = Carrier(300)
        shift = OpTable(c300, 1, tuple((x + 1) % 300 for x in range(300)))
        for entry in (closure_slice, closure_slice_is_full, closure_covers_slice,
                      reduce_generators, clone_closure):
            with pytest.raises(ValueError, match="carrier size 300 above 256"):
                entry([shift], c300, 1)
        # the largest carrier the bytes hold is served
        c256 = Carrier(256)
        shift = OpTable(c256, 1, tuple((x + 1) % 256 for x in range(256)))
        tables, full = closure_slice([shift], c256, 1)
        assert len(tables) == 256 and not full


class TestNormalizedGenerators:
    def test_one_stack_per_arity_in_increasing_arity(self):
        maj = _median(2)
        stacks = _normalized_generators([OR, maj, NOT, AND, OR, NOT, XOR], C2, 2, False)
        assert [m for m, _ in stacks] == [1, 2, 3]
        assert all(stack.dtype == np.uint8 and stack.ndim == 2 and stack.shape[1] == 2**m
                   for m, stack in stacks)
        # duplicates dropped, the first kept, the caller's order within an arity
        assert [[tuple(row) for row in stack.tolist()] for _, stack in stacks] == [
            [NOT.table], [OR.table, AND.table, XOR.table], [maj.table]]
        assert _normalized_generators([], C3, 2, False) == []

    def test_every_unary_table_is_added_once(self):
        (m, stack), (n, binary) = _normalized_generators([AND, NOT, AND], C2, 2, True)
        assert (m, n) == (1, 2) and binary.tolist() == [list(AND.table)]
        # the caller's NOT first, then the unary tables in table order
        assert [tuple(row) for row in stack.tolist()] == [(1, 0), (0, 0), (0, 1), (1, 1)]

    def test_a_generator_on_another_carrier_raises(self):
        with pytest.raises(ValueError, match="generator on a different carrier"):
            _normalized_generators([AND, _op(3, 1, lambda x: x)], C2, 2, False)

    def test_reduce_generators_returns_the_kept_inputs(self):
        # NOT is unary and comes first; with it OR gives AND by de Morgan,
        # and the second OR is a duplicate
        kept = reduce_generators([OR, AND, OR, NOT], C2, 2)
        assert kept == [NOT, OR] and all(isinstance(g, OpTable) for g in kept)
        # without NOT both are kept, in the caller's order
        assert reduce_generators([OR, AND, OR], C2, 2) == [OR, AND]


class TestFullSlicesFromTheMaximalClones:
    SHEFFER = [
        (2, 3, [NAND]),
        (2, 3, [OpTable(C2, 2, (1, 0, 0, 0))]),  # NOR
        (3, 2, [_op(3, 2, lambda x, y: (max(x, y) + 1) % 3)]),  # Webb
    ]

    def test_full_slices_are_listed_without_the_engine(self, monkeypatch):
        engines = _count_operand_tuples(monkeypatch)
        for k, n, gens in self.SHEFFER:
            tables, full = closure_slice(gens, Carrier(k), n)
            assert tables == list(itertools.product(range(k), repeat=k**n)) and full, (k, n)
        assert _applied(engines) == 0
        assert closure_slice([NAND], C2, 3) == _engine_slice([NAND], C2, 3, sweep=True)
        assert _applied(engines) > 0

    def test_a_full_slice_past_the_budget_raises_at_once(self):
        # 2^32 tables at arity 5: the error comes before any table is listed
        code = (
            "from clonelab.finite import Carrier, OpTable, ResourceLimitError, clone_closure, closure_slice\n"
            "nand = OpTable(Carrier(2), 2, (1, 1, 1, 0))\n"
            "for entry in (closure_slice, clone_closure):\n"
            "    try:\n"
            "        entry([nand], Carrier(2), 5)\n"
            "    except ResourceLimitError as exc:\n"
            "        print(exc)\n"
        )
        src = str(Path(clonelab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=20, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [f"slice exceeded {finite._MAX_TABLES} tables at arity 5"] * 2


def _median(k, perm=None):
    return _op(k, 3, lambda a, b, c: sorted((a, b, c))[1], perm)


def _engine_slice(gens, carrier, arity, *, sweep=False, include_all_unary=False):
    """The slice as the engine fills it, (tables in table order, full): _closure
    called directly, stopped at the subuniverse bound or, with sweep, not."""
    gens = _normalized_generators(gens, carrier, arity, include_all_unary)
    bound = None if sweep else _subuniverse_bound(gens, carrier.size, arity)
    rows, full, _ = _closure(gens, carrier, arity, bound)
    return list(map(tuple, rows.tolist())), full


def _closure_arities(monkeypatch) -> list[int]:
    """The slice arity of every _closure call, in call order."""
    arities = []
    closure = finite._closure

    def recorded(gens, carrier, arity, bound):
        arities.append(arity)
        return closure(gens, carrier, arity, bound)

    monkeypatch.setattr(finite, "_closure", recorded)
    return arities


class TestBakerPixleyRoute:
    # Literature counts the route now reaches, with their sources
    LITERATURE = [
        # the free distributive lattice on five generators: Dedekind D(5) - 2
        # (OEIS A000372)
        (C2, [AND, OR], 5, 7579),
        # median terms on a chain: the self-dual monotone Boolean functions
        # (OEIS A001206), on the 3-chain at arity 5 and on {0, 1} at arity 6
        (C3, [_median(3)], 5, 81),
        (C2, [_median(2)], 6, 2646),
        # the self-dual clone D = <maj, not>: all 2^(2^5 / 2) self-dual functions
        (C2, [_median(2), NOT], 5, 2**16),
    ]

    def test_literature_counts(self, monkeypatch):
        arities = _closure_arities(monkeypatch)
        for carrier, gens, n, count in self.LITERATURE:
            tables, full = closure_slice(gens, carrier, n)
            assert len(tables) == len(set(tables)) == count and not full, (gens, n)
            assert tables == sorted(tables)
        # no engine fill at the slice arity; <AND, OR> finds its majority term
        # in the ternary slice
        assert arities == [3]

    def test_tables_meet_their_defining_properties(self):
        # independent of the counts: the <AND, OR> tables are monotone and
        # nonconstant, the <maj, not> tables self-dual, so with the counts
        # above each slice is all of its class
        lattice = np.array(closure_slice([AND, OR], C2, 5)[0])
        points = np.arange(32)
        for bit in (1, 2, 4, 8, 16):
            low = points[points & bit == 0]
            assert (lattice[:, low] <= lattice[:, low + bit]).all()
        assert (lattice.min(axis=1) == 0).all() and (lattice.max(axis=1) == 1).all()
        self_dual = np.array(closure_slice([_median(2), NOT], C2, 5)[0])
        assert (self_dual == 1 - self_dual[:, ::-1]).all()

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_route_matches_the_engine(self, data):
        k = data.draw(st.sampled_from([2, 3]))
        carrier = Carrier(k)
        if k == 2 or data.draw(st.booleans()):
            majority = _median(k, data.draw(st.permutations(range(k))))
        else:
            # the majority identities fix every entry but the six at points
            # with three distinct coordinates
            table = [sorted(t)[1] for t in itertools.product(range(3), repeat=3)]
            for i, t in enumerate(itertools.product(range(3), repeat=3)):
                if len(set(t)) == 3:
                    table[i] = data.draw(st.integers(0, 2))
            majority = OpTable(C3, 3, tuple(table))
        # the other operations preserve one or all of the maximal-clone
        # relations the majority preserves, so that many slices stay small
        kept = [inv for inv in _maximal_relations(k)
                if inv.preserved_by(np.array([majority.table], dtype=np.uint8), 3)[0]]
        kept = data.draw(st.sampled_from([kept] + [[inv] for inv in kept]))
        extras = []
        for m in data.draw(st.lists(st.integers(1, 3 if k == 2 else 2), max_size=2)):
            tables = _all_tables(k, m)
            inside = tables[np.logical_and.reduce([inv.preserved_by(tables, m) for inv in kept])]
            extras.append(OpTable(carrier, m, tuple(data.draw(st.sampled_from(inside.tolist())))))
        gens = [majority] + extras
        assert finite._has_majority_term(_stacks(gens, k), carrier)
        # the engine's fills cost about |slice|^3 operand tuples, so the budget
        # is small; past it both must raise
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(finite, "_MAX_TABLES", 200)
            try:
                route = list(map(tuple, finite._majority_slice(_stacks(gens, k), k, 4).tolist()))
            except ResourceLimitError:
                route = None
            try:
                engine = _engine_slice(gens, carrier, 4)[0]
            except ResourceLimitError:
                engine = None
        assert route == engine
        if engine is not None and len(engine) <= 20:
            assert set(route) == reference_slice(gens, k, 4)

    def test_detection(self, monkeypatch):
        minority3 = _op(3, 3, lambda x, y, z: (x - y + z) % 3)
        plus3, one3 = _op(3, 2, lambda x, y: (x + y) % 3), _op(3, 1, lambda x: 1)
        xor3 = _op(2, 3, lambda x, y, z: x ^ y ^ z)
        arities = _closure_arities(monkeypatch)
        # a generator is one; the lattice operations reach one in the ternary slice
        for carrier, gens in ((C3, [_median(3)]), (C2, [AND, OR]),
                              (C3, [_op(3, 2, min), _op(3, 2, max)])):
            assert finite._has_majority_term(_stacks(gens, carrier.size), carrier), gens
        assert arities == [3, 3]
        # affine generators answer at once; <AND> holds only conjunctions
        for carrier, gens in ((C3, [minority3]), (C3, [plus3, one3]), (C2, [xor3]), (C2, [AND])):
            assert not finite._has_majority_term(_stacks(gens, carrier.size), carrier), gens
        assert arities == [3, 3, 3]

    def test_no_affine_operation_is_a_majority(self):
        # brute force behind the affine shortcut: every a.x + b.y + c.z + d
        # over Z_k preserves x + y = z + u, and none is a majority
        for k in (2, 3):
            affine = next(inv for inv in _maximal_relations(k) if inv.relation.width == 4)
            tables = np.array([[(a * x + b * y + c * z + d) % k
                                for x, y, z in itertools.product(range(k), repeat=3)]
                               for a, b, c, d in itertools.product(range(k), repeat=4)],
                              dtype=np.uint8)
            assert affine.preserved_by(tables, 3).all()
            assert not finite._is_majority(tables, k).any()
        # the identities themselves: majority is the one Boolean majority operation
        every = _all_tables(2, 3)
        assert every[finite._is_majority(every, 2)].tolist() == [list(_median(2).table)]
        # and the affine Pol_3 on Z_2 holds nothing else
        assert pol(_maximal_relations(2)[4].relation, 3).counts()[3] == 16

    def test_route_budget(self, monkeypatch):
        # each level of partial tables is a projection of the slice, so the
        # run stops at the first level past the budget: the self-dual slice at
        # arity 6 has 2^32 tables, far too many to list before raising
        monkeypatch.setattr(finite, "_MAX_TABLES", 1000)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="exceeded 1000 tables at arity 6"):
            closure_slice([_median(2), NOT], C2, 6)
        assert time.perf_counter() - start < 5


def _count_operand_tuples(monkeypatch) -> list[_CodeEngine]:
    """Every engine built from here on; _applied sums their counters of the
    operand tuples their generators applied.  Clear the list to restart."""
    engines = []
    init = _CodeEngine.__init__

    def recorded(self, *args):
        init(self, *args)
        engines.append(self)

    monkeypatch.setattr(_CodeEngine, "__init__", recorded)
    return engines


def _applied(engines) -> int:
    return sum(eng.applied for eng in engines)


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


# the generators the full introduction sweep (_closure with no bound) keeps
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
        assert _subuniverse_bound(_stacks(gens, 3), 3, 2) == 2**4 * 3**5 == 3888
        engines = _count_operand_tuples(monkeypatch)
        saturated = closure_slice(gens, C3, 2)
        stopped_work = _applied(engines)
        engines.clear()
        # a faster kernel makes each operand tuple cheaper; it applies the same
        # ones.  Orbit representatives in the first slot took this from
        # 24,511,210 to 13,374,374 under S_2, and the swap (1, 0, 2) among the
        # unary generators widens the orbits to U^2 ⋊ S_2, |U| = 2
        assert stopped_work == 4_909_806
        swept = _engine_slice(gens, C3, 2, sweep=True)
        assert saturated == swept
        assert len(saturated[0]) == 3888 and not saturated[1]
        assert stopped_work <= _applied(engines) // 4

    def test_a_carrier_4_fill_computes_the_bound_once(self, monkeypatch):
        # the bound of the whole space, 4^4, lets closure_slice_is_full fall
        # through to a fill, which takes the bound from it
        calls = []
        bound = finite._subuniverse_bound

        def counted(gens, k, arity):
            calls.append((k, arity))
            return bound(gens, k, arity)

        monkeypatch.setattr(finite, "_subuniverse_bound", counted)
        c4 = Carrier(4)
        cycle = OpTable(c4, 1, (1, 2, 3, 0))
        swap, merge = OpTable(c4, 1, (1, 0, 2, 3)), OpTable(c4, 1, (0, 0, 2, 3))
        assert closure_slice_is_full([cycle, swap, merge], c4, 1)
        assert calls == [(4, 1)]

    def test_trivial_subuniverses_bound_the_full_space(self):
        assert _subuniverse_bound(_stacks([NAND], 2), 2, 3) == 2**8
        webb = OpTable.from_fn(C3, 2, lambda x, y: (max(x, y) + 1) % 3)
        assert _subuniverse_bound(_stacks([webb], 3), 3, 2) == 3**9
        assert _subuniverse_bound(_stacks([NOT], 2), 2, 5) == 2**32  # no proper subuniverse at all
        # no generators: every subset is a subuniverse, so the bound counts
        # the conservative operations
        assert _subuniverse_bound(_stacks([], 3), 3, 2) == 1**3 * 2**6

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_bound_equals_brute_force_pol_count(self, data):
        k, arity = data.draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]))
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
        assert _subuniverse_bound(_stacks(gens, k), k, arity) == _brute_force_pol_count(gens, k, arity)

    def test_bounds_stay_exact_past_64_points(self):
        # a subset of 65 points needs more than 64 bits
        c65 = Carrier(65)
        constant = OpTable(c65, 1, (0,) * 65)  # Sg{x} = {x, 0}
        assert _subuniverse_bound(_stacks([constant], 65), 65, 1) == 2**64
        cycle = OpTable(c65, 1, tuple((x + 1) % 65 for x in range(65)))
        assert _subuniverse_bound(_stacks([cycle], 65), 65, 1) == 65**65 == op_space_size(c65, 1)

    def test_pair_tables_match_the_reference(self):
        # half the generator sets lie inside the Pol of one maximal-clone
        # relation of width <= 2, so proper pair subuniverses are common
        rng = random.Random(3)
        proper = checked = 0
        for _ in range(60):
            k, arity = rng.choice([2, 3]), rng.choice([1, 2])
            kept = [inv for inv in _maximal_relations(k) if inv.relation.width <= 2]
            inv = rng.choice(kept) if rng.random() < 0.5 else None
            gens = []
            for _ in range(rng.randint(0, 2)):
                m = rng.randint(1, 3 if k == 2 else 2)
                tables = _all_tables(k, m)
                if inv is not None:
                    tables = tables[inv.preserved_by(tables, m)]
                gens.append(OpTable(Carrier(k), m, tuple(rng.choice(tables.tolist()))))
            sets, where = _subuniverses(_stacks(gens, k), k, arity, 2)
            points = list(itertools.product(range(k), repeat=arity))
            for i, p in enumerate(points):
                for j, q in enumerate(points):
                    got = {divmod(int(c), k) for c in np.flatnonzero(sets[where[i, j]])}
                    assert got == reference_pair_subuniverse(gens, k, p, q), (k, arity, gens, p, q)
                    proper += len(got) < k * k
                    checked += 1
        assert 0.1 < proper / checked < 0.9


def _scalar_limbs(table, k):
    """The limb values of a digit table, each limb read by Horner's rule."""
    limbs, start = [], 0
    for w in finite._limb_widths(k, len(table)):
        value = 0
        for digit in table[start : start + w]:
            value = value * k + digit
        limbs.append(value)
        start += w
    return limbs


def _scalar_key(table, k):
    """The engine's key of a digit table: a uint16 on two limbs, the limb bytes on more."""
    limbs = _scalar_limbs(table, k)
    return limbs[0] | limbs[1] << 8 if len(limbs) == 2 else bytes(limbs)


def _allocated_peak(f, *args):
    """f(*args), and the peak of the memory it allocates, as tracemalloc
    sees it."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestEngineKernel:
    # (carrier, slice arity): two limbs for the first two, more for the rest;
    # (3, 2), (3, 3) and (3, 4) have two runs of equal-width limbs ((3, 4): 13
    # limbs of five digits and 4 of four), the others one ((4, 4): 64 limbs)
    KERNEL_SLICES = [(3, 2), (2, 4), (2, 5), (3, 3), (4, 2), (3, 4), (4, 4)]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_limbwise_keys_match_a_scalar_composition(self, data):
        k, n = data.draw(st.sampled_from(self.KERNEL_SLICES))
        m = data.draw(st.integers(1, 2))
        carrier, width = Carrier(k), k**n
        digits = st.integers(0, k - 1)
        g = OpTable(carrier, m, tuple(data.draw(st.lists(digits, min_size=k**m, max_size=k**m))))
        operands = [
            [OpTable(carrier, n, tuple(t))
             for t in data.draw(st.lists(st.lists(digits, min_size=width, max_size=width),
                                         min_size=1, max_size=6))]
            for _ in range(m)
        ]
        eng = _CodeEngine(k, n, None)
        eng.activate(m, np.array(g.table, dtype=np.uint8))
        limb_rows = [np.array([_scalar_limbs(f.table, k) for f in fs], dtype=np.uint8)
                     for fs in operands]
        keys = eng._limbwise(eng.appliers[0][1], limb_rows).tolist()
        # row-major over the operand tuples: the left operand varies slowest
        expected = [_scalar_key(compose(g, list(fs)).table, k) for fs in itertools.product(*operands)]
        assert keys == expected

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), members=st.integers(0, 1 << 15),
           batch=st.integers(0, 1 << 15), space=st.sampled_from([1 << 8, 1 << 16]),
           covered=st.booleans())
    def test_bitmap_unseen_matches_a_set(self, seed, members, batch, space, covered):
        # keys drawn from 2^8 values repeat, from 2^16 mostly not; a covered
        # batch holds members only, so nothing is marked
        rng = np.random.default_rng(seed)
        eng = _CodeEngine(2, 4, None)  # two limbs: the bitmap path
        keys = rng.integers(0, space, batch).astype(eng.key_dtype)
        eng.bitmap[rng.integers(0, 1 << 16, members)] = True
        if covered:
            eng.bitmap[keys] = True
        before = eng.bitmap.copy()
        fresh = eng._unseen(keys)
        assert fresh.dtype == eng.key_dtype
        member = set(np.flatnonzero(before).tolist())
        assert fresh.tolist() == sorted(set(keys.tolist()) - member)
        assert (eng.bitmap == before).all() and not eng.hit.any()  # nothing inserted

    # (carrier, slice arity, generators): two limbs, binary and unary, then
    # more limbs, binary on two runs and on one run of 64 limbs, and unary;
    # the unary ones grow blocks past the tile: all 6^6 maps of 6 points, and
    # S_7
    TILE_CASES = [
        (2, 4, [AND, OR]),
        (6, 1, [_op(6, 1, lambda x: (x + 1) % 6), _op(6, 1, lambda x: {0: 1, 1: 0}.get(x, x)),
                _op(6, 1, lambda x: max(x, 1))]),
        (3, 3, [_op(3, 2, min), _op(3, 2, max)]),
        (4, 4, [_op(4, 2, min), _op(4, 2, max)]),
        (7, 1, [_op(7, 1, lambda x: (x + 1) % 7), _op(7, 1, lambda x: {0: 1, 1: 0}.get(x, x))]),
    ]

    def test_unary_and_binary_applications_stay_inside_the_tile(self, monkeypatch):
        tile = 1 << 11
        limbwise, unseen = _CodeEngine._limbwise, _CodeEngine._unseen
        for k, n, gens in self.TILE_CASES:
            limbs = len(finite._limb_widths(k, k**n))
            # the key rows; on the bitmap path also the negated member flags
            # and the kept keys, on the set path the keys as bytes objects,
            # which add builds
            per_candidate = limbs + (3 if limbs == 2 else limbs + sys.getsizeof(b""))
            calls, dedups = [], []

            def measured(self, payload, operands):
                candidates = math.prod(len(o) for o in operands)
                # the bytes per left operand that the tile counts (a binary
                # generator's stacked rows), and arrays of one row per left
                # operand or per right operand: the intp copy of the left
                # operands' limbs, and the intp flat index of the right ones
                # with numpy's copy of it, at most 8192 entries, which adding
                # the broadcast offsets in place makes
                stacked = next(s for _, p, s in self.appliers if p is payload)
                flat = limbs * len(operands[-1])
                rows = len(operands[0]) * (stacked + 8 * limbs) + 8 * flat + 8 * min(flat, 8192)
                keys, peak = _allocated_peak(limbwise, self, payload, operands)
                calls.append((len(operands[0]), candidates, peak, stacked, rows))
                return keys

            def measured_unseen(self, keys):
                fresh, peak = _allocated_peak(unseen, self, keys)
                dedups.append((len(keys), len(fresh), peak))
                return fresh

            monkeypatch.setattr(_CodeEngine, "_limbwise", measured)
            if limbs == 2:
                monkeypatch.setattr(_CodeEngine, "_unseen", measured_unseen)
            expected = _engine_slice(gens, Carrier(k), n, sweep=True)
            untiled = calls[:]
            calls.clear()
            monkeypatch.setattr(finite, "_TILE_BYTES", tile)
            assert _engine_slice(gens, Carrier(k), n, sweep=True) == expected
            monkeypatch.undo()
            assert len(calls) > len(untiled), (k, n)  # the tile splits some applications
            for left, candidates, peak, stacked, rows in calls:
                # a tile of candidates and stacked rows, or one left operand
                # when a row alone is more
                assert left == 1 or candidates * per_candidate + left * stacked <= tile, (k, n, left)
            for left, candidates, peak, stacked, rows in untiled + calls:
                # the kernel builds no array per candidate beyond the key rows;
                # numpy's array headers and iterators take about 4 kB
                assert peak <= limbs * candidates + rows + 8192, (k, n, candidates, peak)
            assert bool(dedups) == (limbs == 2)
            for candidates, fresh, peak in dedups:
                # per candidate the negated flags and the kept keys, the keys
                # as intp indices in numpy's buffer of 8192 entries, and per
                # fresh key the scan's position of it and the key; 8 kB for
                # headers and iterators as above
                allowed = (per_candidate - limbs) * candidates + 8 * min(candidates, 8192) + 10 * fresh
                assert peak <= allowed + 8192, (k, n, candidates, fresh, peak)


@functools.cache
def _scalar_permutations(k, n, units=None):
    """For each map x ↦ (σ_1 x_π(1), .., σ_n x_π(n)) of U^n ⋊ S_n, π in
    itertools.permutations order and the σ in itertools.product order over
    units (U = {id} by default), the index of its image at each point x of
    X^n, read off the points one at a time."""
    units = units or (tuple(range(k)),)
    points = list(itertools.product(range(k), repeat=n))
    index = {p: i for i, p in enumerate(points)}
    return [[index[tuple(s[p[j]] for j, s in zip(pi, sigmas))] for p in points]
            for pi in itertools.permutations(range(n))
            for sigmas in itertools.product(units, repeat=n)]


@functools.cache
def _scalar_orbit(table, k, n, units=None):
    """The tables t(σ_1 x_π(1), .., σ_n x_π(n)) over the whole group."""
    return frozenset(tuple(table[i] for i in perm) for perm in _scalar_permutations(k, n, units))


def _check_orbits(eng):
    """The pool is closed under the engine's group and flags one table per orbit."""
    tables = list(map(tuple, finite._unpack(eng.limbs[: eng.count], eng.k, eng.widths).tolist()))
    orbits = [_scalar_orbit(t, eng.k, eng.arity, eng.units) for t in tables]
    assert all(orbit <= set(tables) for orbit in orbits)
    reps = [orbit for orbit, rep in zip(orbits, eng.rep[: eng.count]) if rep]
    assert len(reps) == len(set(reps)) == len(set(orbits))


def _scalar_units(unary, k):
    """The bijections among the maps that the unary tables generate under
    composition, with the identity: a breadth-first search over the whole
    monoid."""
    identity = tuple(range(k))
    monoid, frontier = {identity}, [identity]
    while frontier:
        frontier = [p for p in {tuple(g.table[x] for x in a) for a in frontier for g in unary}
                    if p not in monoid]
        monoid.update(frontier)
    return tuple(sorted(m for m in monoid if len(set(m)) == k))


class TestOrbits:
    # (carrier, slice arity, generators): both stores, unary to ternary
    # generators, and a unary slice, where every table is its own orbit
    CASES = [
        (2, 3, [AND]),
        (2, 4, [AND, OR]),
        (2, 4, [_median(2)]),
        (2, 5, [_op(2, 3, lambda x, y, z: x ^ y ^ z)]),
        (3, 2, [_op(3, 2, min), _op(3, 2, max)]),
        (3, 3, [_op(3, 3, lambda x, y, z: (x - y + z) % 3)]),
        (4, 2, [_op(4, 2, min), _op(4, 2, max), _op(4, 1, lambda x: 3 - x)]),
        (3, 1, [_op(3, 1, lambda x: (x + 1) % 3), _op(3, 1, lambda x: min(x, 1))]),
        # unary permutations widen the orbits: the self-dual monotone and the
        # affine clones, U = S_2, Z_3, {1, 2} and Z_4
        (2, 3, [NOT, _median(2)]),
        (2, 4, [NOT, XOR]),
        (3, 3, [_op(3, 1, lambda x: (x + 1) % 3), _op(3, 3, lambda x, y, z: (x - y + z) % 3)]),
        (3, 2, [_op(3, 1, lambda x: 2 * x % 3), _op(3, 2, lambda x, y: (x + y) % 3)]),
        (4, 2, [_op(4, 1, lambda x: (x + 1) % 4), _op(4, 2, lambda x, y: (x + y) % 4)]),
    ]

    def test_permutation_table(self):
        # row (π, σ_1..σ_n) gathers t(σ_1 x_π(1), .., σ_n x_π(n)), π in
        # itertools.permutations order and the σ in itertools.product order
        cycle3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        for k, n, units in ((2, 3, None), (3, 2, None), (4, 3, None), (2, 3, ((0, 1), (1, 0))),
                            (3, 2, cycle3), (3, 3, cycle3)):
            index = finite._variable_permutations(k, n, units or (tuple(range(k)),))
            assert index.tolist() == _scalar_permutations(k, n, units)
            assert len(index) == math.factorial(n) * len(units or [0]) ** n
            assert index[0].tolist() == list(range(k**n))  # identity first
            assert finite._variable_permutations(k, n, units or (tuple(range(k)),)) is index
        # a unary slice has one permutation; past _ORBIT_CELLS (carrier 2 at
        # arity 8) the engine keeps no table, and every table represents itself
        assert [_CodeEngine(2, n, None).perms is None for n in (1, 7, 8)] == [True, False, True]
        # built on the first engine call, not at import, and the cache is bounded
        assert finite._variable_permutations.cache_info().maxsize is not None
        code = "from clonelab import finite; print(finite._variable_permutations.cache_info().currsize)"
        src = str(Path(clonelab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=env)
        assert proc.stdout.split() == ["0"], proc.stderr

    def test_every_add_leaves_the_pool_closed_with_one_representative_per_orbit(self, monkeypatch):
        add, widen = _CodeEngine.add, _CodeEngine.widen
        checked, widened = [], []

        def checked_add(self, keys):
            add(self, keys)
            _check_orbits(self)
            if self.perms is None:
                assert self.rep[: self.count].all()
            checked.append(self.arity)

        def checked_widen(self, unary):
            count, cursors = self.count, self.cursors[:]
            widen(self, unary)
            # nothing is added and no cursor moves
            assert (self.count, self.cursors) == (count, cursors)
            _check_orbits(self)
            widened.append(len(self.units))

        monkeypatch.setattr(_CodeEngine, "add", checked_add)
        monkeypatch.setattr(_CodeEngine, "widen", checked_widen)
        for k, n, gens in self.CASES:
            for sweep in (False, True):
                checked.clear()
                widened.clear()
                tables, _ = _engine_slice(gens, Carrier(k), n, sweep=sweep)
                assert set(tables) == reference_slice(gens, k, n), (k, n, sweep)
                assert len(checked) > 1
                units = _scalar_units([g for g in gens if g.arity == 1], k)
                if n > 1 and len(units) > 1:
                    assert widened == [len(units)], (k, n, sweep)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_engine_matches_the_reference(self, data):
        k, n = data.draw(st.sampled_from([(k, n) for k in (2, 3, 4) for n in (1, 2, 3, 4)]))
        carrier = Carrier(k)
        gens = []
        for m in data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
            # the first projection with a few entries redrawn: many such
            # clones stay small, and the rest pass the budget below
            table = [t[0] for t in itertools.product(range(k), repeat=m)]
            for i in data.draw(st.lists(st.integers(0, k**m - 1), max_size=3)):
                table[i] = data.draw(st.integers(0, k - 1))
            gens.append(OpTable(carrier, m, tuple(table)))
        # the reference's work grows as |slice|^m, so the budget is small; a
        # slice past it raises on both runs
        budget = 24 if any(g.arity == 3 for g in gens) else 48
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(finite, "_MAX_TABLES", budget)
            runs = []
            for sweep in (False, True):
                try:
                    runs.append(_engine_slice(gens, carrier, n, sweep=sweep))
                except ResourceLimitError:
                    runs.append(None)
        assert runs[0] == runs[1]
        if runs[0] is not None:
            reference = reference_slice(gens, k, n)
            assert runs[0] == (sorted(reference), len(reference) == k ** (k**n))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_engine_matches_the_reference_under_unary_permutations(self, data):
        k, n = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 3))
        carrier = Carrier(k)
        all_unary = data.draw(st.booleans())
        gens = [OpTable(carrier, 1, tuple(data.draw(st.permutations(range(k)))))
                for _ in range(data.draw(st.integers(0 if all_unary else 1, 2)))]
        # near-projections beside them, as above; with every unary operation
        # at most binary ones, and none on carrier 4, where the unary
        # operations alone give 508 tables at arity 2
        widest = (1 if k == 4 else 2) if all_unary else 3
        for m in data.draw(st.lists(st.integers(1, widest), max_size=2)):
            table = [t[0] for t in itertools.product(range(k), repeat=m)]
            for i in data.draw(st.lists(st.integers(0, k**m - 1), max_size=3)):
                table[i] = data.draw(st.integers(0, k - 1))
            gens.append(OpTable(carrier, m, tuple(table)))
        budget = 24 if any(g.arity == 3 for g in gens) else 48
        reference_gens = gens
        if all_unary:
            # the reference gets a cycle, a transposition and a merge of two
            # points, which generate every unary operation
            reference_gens = gens + [_op(k, 1, lambda x: (x + 1) % k),
                                     _op(k, 1, lambda x: {0: 1, 1: 0}.get(x, x)),
                                     _op(k, 1, lambda x: 0 if x == 1 else x)]
            budget += k + n * (k**k - k)  # the tables u(x_i)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(finite, "_MAX_TABLES", budget)
            runs = []
            for sweep in (False, True):
                try:
                    runs.append(_engine_slice(gens, carrier, n, sweep=sweep,
                                              include_all_unary=all_unary))
                except ResourceLimitError:
                    runs.append(None)
        assert runs[0] == runs[1]
        if runs[0] is not None:
            reference = reference_slice(reference_gens, k, n)
            assert runs[0] == (sorted(reference), len(reference) == k ** (k**n))

    def test_set_path_orbits_come_in_byte_order(self):
        # up to 8 limbs the images are deduped as big-endian integers: the
        # keys and flags are np.unique's over the limb bytes (4, 8 and 6 limbs)
        for k, n in ((2, 5), (2, 6), (3, 3)):
            eng = _CodeEngine(k, n, None)
            rows = np.random.default_rng(k * 10 + n).integers(0, k, size=(50, k**n), dtype=np.uint8)
            fresh = eng.keys_of(finite._pack(rows, k, eng.widths))
            keys, rep = eng._orbits(fresh)
            images = eng._images(fresh.view(np.uint8).reshape(len(fresh), len(eng.widths)))
            want, first = np.unique(images, return_index=True)
            assert keys.tobytes() == want.tobytes()
            assert np.array_equal(rep, first % len(eng.perms) == 0)

    def test_the_units_are_the_bijections_of_the_unary_monoid(self, monkeypatch):
        # unary generators, permutations or not, then a binary projection:
        # it is skipped, and the engine widens its group just before
        engines = _count_operand_tuples(monkeypatch)
        rng = random.Random(5)
        sizes = set()
        for _ in range(60):
            k = rng.choice([2, 3, 4])
            unary = [OpTable(Carrier(k), 1, tuple(rng.sample(range(k), k)) if rng.random() < 0.7
                             else tuple(rng.randrange(k) for _ in range(k)))
                     for _ in range(rng.randint(1, 3))]
            engines.clear()
            _engine_slice(unary + [_op(k, 2, lambda x, y: x)], Carrier(k), 2, sweep=True)
            (eng,) = engines
            assert eng.units == _scalar_units(unary, k), unary
            assert len(eng.perms) == 2 * len(eng.units) ** 2
            sizes.add(len(eng.units))
        assert {1, 2, 3, 4, 6, 24} <= sizes

    def test_the_group_falls_back_to_the_variable_permutations_past_orbit_cells(self, monkeypatch):
        # <NOT, XOR> is every a.x + c, and U = S_2: 5! 2^5 2^5 = 122,880 cells
        # at arity 5, and 6! 2^6 2^6 = 2,949,120 at arity 6, past 2^20
        engines = _count_operand_tuples(monkeypatch)
        for n, rows in ((4, 24 * 2**4), (5, 120 * 2**5), (6, 720)):
            engines.clear()
            tables, _ = _engine_slice([NOT, XOR], C2, n)
            assert len(tables) == 2 ** (n + 1)
            assert len(engines[0].perms) == rows, n
        expected = _engine_slice([NOT, XOR], C2, 4)
        assert set(expected[0]) == reference_slice([NOT, XOR], 2, 4)
        # one cell fewer sends arity 4 back to S_4, with the same tables
        monkeypatch.setattr(finite, "_ORBIT_CELLS", 24 * 2**4 * 2**4 - 1)
        engines.clear()
        assert _engine_slice([NOT, XOR], C2, 4) == expected
        assert len(engines[0].perms) == 24 and engines[0].units == ((0, 1),)
        _check_orbits(engines[0])

    def test_slupecki_slice(self, monkeypatch):
        # every unary operation and a non-surjective, essentially binary one
        # generate Słupecki's clone; at arity 2 it holds the 3 2^9 - 3 tables
        # with at most two values and the 12 surjective essentially unary ones
        engines = _count_operand_tuples(monkeypatch)
        gens = _normalized_generators([_op(3, 2, lambda x, y: int(x != y))], C3, 2, True)
        rows, full = _slice_rows(gens, C3, 2)
        tables = [tuple(row) for row in rows.tolist()]
        assert len(tables) == 3 * 2**9 - 3 + 12 == 1545 and not full
        # U = S_3: 1,347,318 operand tuples under S_2 alone
        assert [(eng.arity, eng.applied) for eng in engines] == [(2, 118_257)]
        unary_in = [lambda t, a, b: t[3 * a], lambda t, a, b: t[b]]
        assert tables == [t for t in itertools.product(range(3), repeat=9)
                          if len(set(t)) < 3 or any(all(t[3 * a + b] == u(t, a, b)
                                                        for a in range(3) for b in range(3))
                                                    for u in unary_in)]

    def test_a_sweep_applies_representatives_times_pool(self, monkeypatch):
        # a binary generator meets each pair (representative, pool table)
        # once: <AND> at arity 3 holds the seven conjunctions of nonempty
        # variable sets, in three orbits (one, two or three variables)
        engines = _count_operand_tuples(monkeypatch)
        assert len(_engine_slice([AND], C2, 3, sweep=True)[0]) == 7
        assert _applied(engines) == 3 * 7
        for k, n, g in [(2, 4, AND), (2, 3, XOR), (3, 3, _op(3, 2, max)),
                        (3, 2, _op(3, 2, lambda x, y: (x + 2 * y) % 3)),
                        (4, 2, _op(4, 2, lambda x, y: max(x, y) if x != y else 0))]:
            engines.clear()
            tables, _ = _engine_slice([g], Carrier(k), n, sweep=True)
            orbits = {_scalar_orbit(t, k, n) for t in tables}
            assert _applied(engines) == len(orbits) * len(tables), (k, n, g)

    def test_orbit_images_stay_inside_the_tile(self, monkeypatch):
        # <AND, OR> at arity 5, filled by the engine: the 7579 nonconstant
        # monotone functions, in 210 - 2 orbits of S_5 (OEIS A003182, less the
        # constants); the untiled run adds up to 1644 fresh tables at once
        engines = _count_operand_tuples(monkeypatch)
        tile = 1 << 16
        orbits = _CodeEngine._orbits
        calls = []

        def measured(self, fresh):
            out, peak = _allocated_peak(orbits, self, fresh)
            # arrays of one row per fresh table: its digits, unpacked through
            # an index per limb
            rows = len(fresh) * (2 * self.width + 8 * len(self.widths))
            calls.append((len(fresh), len(fresh) * len(self.perms), peak, rows, self.image_bytes))
            return out

        monkeypatch.setattr(_CodeEngine, "_orbits", measured)
        expected = _engine_slice([AND, OR], C2, 5)
        untiled = calls[:]
        calls.clear()
        monkeypatch.setattr(finite, "_TILE_BYTES", tile)
        assert _engine_slice([AND, OR], C2, 5) == expected
        monkeypatch.undo()
        assert len(expected[0]) == 7579
        assert [eng.rep[: eng.count].sum() for eng in engines] == [208, 208]
        assert len(calls) > len(untiled)  # the tile splits some additions
        for fresh, images, peak, rows, image_bytes in calls:
            assert fresh == 1 or images * image_bytes <= tile, (fresh, images)
        for fresh, images, peak, rows, image_bytes in untiled + calls:
            # numpy's array headers and iterators take about 4 kB
            assert peak <= image_bytes * images + rows + 8192, (fresh, images, peak)

    def test_the_pool_never_grows_past_the_budget(self, monkeypatch):
        # one addition can bring n! tables per fresh one, so the budget is
        # checked before the pool grows, and what the pool holds stays closed
        engines = _count_operand_tuples(monkeypatch)
        for budget in (100, 1000):
            monkeypatch.setattr(finite, "_MAX_TABLES", budget)
            engines.clear()
            with pytest.raises(ResourceLimitError, match=f"exceeded {budget} tables at arity 5"):
                _engine_slice([AND, OR], C2, 5)
            (eng,) = engines
            assert eng.count <= budget and len(eng.limbs) <= max(64, 2 * budget)
            _check_orbits(eng)


class TestWorkLedger:
    """The operand tuples the engine applies, per engine run, for one
    unconjugated input of each fill kind of the wide-slices benchmark, and
    for the saturating fill of the carrier-3 ideal core.  A change of engine
    work shows here as a diff, not as benchmark noise.  Full slices (NAND,
    NOR, Webb's function) run no engine; the median kinds and <AND, OR> at
    arity 5 take the Baker-Pixley route, and the last fills only the ternary
    slice that finds its majority term."""

    @staticmethod
    def _kinds():
        def lattice(k):
            return [_op(k, 2, min), _op(k, 2, max)]

        def minority(k):
            return [_op(k, 3, lambda x, y, z: (x - y + z) % k)]

        return {
            "and-or": (2, 5, [AND, OR], [(3, 288)]),
            "median-c3": (3, 5, [_median(3)], []),
            "median-c2": (2, 5, [_median(2)], []),
            "nand": (2, 4, [NAND], []),
            "nor": (2, 4, [_op(2, 2, lambda x, y: 1 - (x | y))], []),
            "webb": (3, 2, [_op(3, 2, lambda x, y: (max(x, y) + 1) % 3)], []),
            "minmax-c3-3": (3, 3, lattice(3), [(3, 288)]),
            "minmax-c3-4": (3, 4, lattice(3), [(3, 288)]),
            "minmax-c4-3": (4, 3, lattice(4), [(3, 288)]),
            "minmax-c4-4": (4, 4, lattice(4), [(4, 9296)]),
            "affine-idem-c3-4": (3, 4, minority(3), [(4, 3645)]),
            "affine-idem-c4-3": (4, 3, minority(4), [(3, 1280)]),
            "affine-c3-4": (3, 4, [_op(3, 2, lambda x, y: (x + y) % 3), _op(3, 1, lambda x: 1)],
                            [(4, 10980)]),
            "and-c2-5": (2, 5, [AND], [(3, 21), (5, 155)]),
            "xor3-c2-5": (2, 5, [_op(2, 3, lambda x, y, z: x ^ y ^ z)], [(5, 768)]),
            "bool-affine-c2-5": (2, 5, [XOR, _op(2, 1, lambda x: 1)], [(5, 780)]),
        }

    def test_wide_slices_fills(self, monkeypatch):
        engines = _count_operand_tuples(monkeypatch)
        kinds, ledger = self._kinds(), {}
        for kind, (k, n, gens, _) in kinds.items():
            engines.clear()
            closure_slice(gens, Carrier(k), n)
            ledger[kind] = [(eng.arity, eng.applied) for eng in engines]
        assert ledger == {kind: want for kind, (_, _, _, want) in kinds.items()}

    def test_ideal_core_fill(self, ideal_core, monkeypatch):
        engines = _count_operand_tuples(monkeypatch)
        closure_slice(ideal_core + [OpTable(C3, 2, (0, 1, 1, 0, 1, 2, 2, 2, 2))], C3, 2)
        assert [(eng.arity, eng.applied) for eng in engines] == [(2, 4_909_806)]


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
    def test_stacked_kept_relations_equal_a_per_generator_loop(self):
        rng = random.Random(21)
        cases = []
        for k in (2, 3):
            tables = {m: _all_tables(k, m) for m in (1, 2)}
            for _ in range(40):
                gens = [OpTable(Carrier(k), m, tuple(rng.randrange(k) for _ in range(k**m)))
                        for m in (rng.choice([1, 2, 3]) for _ in range(rng.randrange(5)))]
                # generators inside one maximal clone keep at least that relation
                inside = rng.choice(_maximal_relations(k))
                for m in (1, 2):
                    kept = tables[m][inside.preserved_by(tables[m], m)]
                    gens += [OpTable(Carrier(k), m, tuple(kept[i].tolist()))
                             for i in rng.sample(range(len(kept)), min(len(kept), rng.randrange(4)))]
                cases.append((k, rng.sample(gens, len(gens))))
            cases.append((k, []))
        sizes = []
        for k, gens in cases:
            loop = [inv for inv in _maximal_relations(k) if all(respects(g, inv.relation) for g in gens)]
            assert list(_kept_maximal_relations(_stacks(gens, k), k)) == loop, (k, gens)
            sizes.append(len(loop))
        assert min(sizes) == 0 and max(sizes) == len(_maximal_relations(3))

    def test_one_relation_per_maximal_clone(self):
        # Post (1941) for k = 2, Jablonskij (1958) for k = 3
        assert len(_maximal_relations(2)) == 5
        assert len(_maximal_relations(3)) == 18
        assert _maximal_relations(3) is _maximal_relations(3)  # built once

    def test_kernel_agrees_with_the_reference(self, monkeypatch):
        contains = _Invariant._contains

        def bounded(inv, images):  # images: (tables, choices, h)
            assert images.shape[0] * images.shape[1] <= finite._PRESERVE_ROWS, images.shape
            return contains(inv, images)

        monkeypatch.setattr(_Invariant, "_contains", bounded)
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
        default = finite._PRESERVE_ROWS
        for budget in (default, 5):
            monkeypatch.setattr(finite, "_PRESERVE_ROWS", budget)
            for rel, m, ops, expected in cases:
                tables = np.array([f.table for f in ops], dtype=np.uint8)
                got = _Invariant(rel).preserved_by(tables, m)
                assert got.tolist() == expected, (rel, m, ops)
        # full stacks, where most tables fail within a few choices and leave:
        # every ternary carrier-2 table against reference_pol, every binary
        # carrier-3 table against the pinned Pol_2 sizes (reference_pol takes
        # about 12 s over the eighteen relations).  The small budget is 97 on
        # carrier 3, where 5 takes about 5 s; 97 still loops the leading
        # operand of the affine and 3-regular relations
        ternary2 = _all_tables(2, 3)
        stacks = [(inv, ternary2, 3, 5, {f.table for f in reference_pol(inv.relation, 3) if f.arity == 3})
                  for inv in _maximal_relations(2)]
        stacks += [(inv, _all_tables(3, 2), 2, 97, size)
                   for inv, size in zip(_maximal_relations(3), POL2_SIZES[3])]
        for small in (False, True):
            for inv, tables, m, budget, expected in stacks:
                monkeypatch.setattr(finite, "_PRESERVE_ROWS", budget if small else default)
                kept = tables[inv.preserved_by(tables, m)]
                if isinstance(expected, set):
                    assert set(map(tuple, kept.tolist())) == expected, (budget, inv.relation)
                else:
                    assert len(kept) == expected, (budget, inv.relation)

    def test_mask_tables_are_pinned_and_read_only(self):
        for k, sizes in POL2_SIZES.items():
            masks = finite._maximal_masks(k, 2)
            assert masks.dtype == np.uint32 and len(masks) == k ** (k * k)
            assert [int((masks >> i & 1).sum()) for i in range(len(sizes))] == sizes
            assert not (masks >> len(sizes)).any()
            assert not masks.flags.writeable
            with pytest.raises(ValueError):
                masks[0] = 0
            assert finite._maximal_masks(k, 2) is masks  # built once
        # arities past the table: precompleteness_evidence's candidate budget
        # raises before it reaches them
        for k, m in ((2, 5), (3, 3)):
            with pytest.raises(ValueError, match="no mask table"):
                finite._maximal_masks(k, m)
            with pytest.raises(ResourceLimitError):
                finite._check_candidate_budget(Carrier(k), m)

    def test_mask_bits_equal_the_reference(self):
        for k, m in ((2, 1), (2, 2), (2, 3), (3, 1)):
            masks = finite._maximal_masks(k, m)
            for code, f in enumerate(all_op_tables(Carrier(k), m)):
                bits = [reference_respects(f, inv.relation) for inv in _maximal_relations(k)]
                assert int(masks[code]) == sum(b << i for i, b in enumerate(bits)), (k, f)

    def test_kept_relations_stay_lazy_past_the_mask_tables(self, monkeypatch):
        # x - y + z over Z3 is ternary, past the carrier-3 mask tables; it
        # keeps relation 0, the subset {0}, so one kernel call finds it
        calls = []
        preserved_by = _Invariant.preserved_by

        def counted(inv, tables, arity):
            calls.append(inv)
            return preserved_by(inv, tables, arity)

        rels = _maximal_relations(3)
        monkeypatch.setattr(_Invariant, "preserved_by", counted)
        kept = _kept_maximal_relations(_stacks([_op(3, 3, lambda x, y, z: (x - y + z) % 3)], 3), 3)
        assert next(kept) is rels[0]
        assert calls == [rels[0]]

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
                assert _engine_full([witness] + _pol_slice(inv, n), Carrier(k), 2), (
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
            assert full == _engine_full(gens, Carrier(k), n), (k, n, gens)
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
        assert _engine_full([AND], C2, 2, include_all_unary=True)
        assert _engine_full([_op(3, 2, lambda x, y: (x + y) % 3)], C3, 2,
                            include_all_unary=True)


binary_ops = st.builds(
    lambda t: OpTable(C2, 2, t),
    st.tuples(*[st.integers(0, 1)] * 4),
)


class TestClosureProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(binary_ops, max_size=3))
    def test_idempotent(self, gens):
        once = clone_closure(gens, C2, 2)
        twice = clone_closure(list(once), C2, 2)
        assert once.signature() == twice.signature()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(binary_ops, max_size=2), st.lists(binary_ops, max_size=2))
    def test_monotone(self, gens, extra):
        small = clone_closure(gens, C2, 2)
        big = clone_closure(gens + extra, C2, 2)
        assert frozenset(small) <= frozenset(big)

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
        encoded = RelationTable(C2, 4, frozenset(op.table for op in closed.slice(2)))
        for op in closed:
            assert respects(op, encoded)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(binary_ops, max_size=2))
    def test_pol_of_slice_recovers_slice(self, gens):
        closed = clone_closure(gens, C2, 2)
        encoded = RelationTable(C2, 4, frozenset(op.table for op in closed.slice(2)))
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
        tables = _engine_slice(gens, C3, 1, sweep=True)[0]
        expected = {conjugate(OpTable(C3, 1, t), perm).table for t in tables}
        assert set(_engine_slice(mirrored, C3, 1, sweep=True)[0]) == expected
        assert closure_slice_is_full(mirrored, C3, 1) == closure_slice_is_full(gens, C3, 1)
