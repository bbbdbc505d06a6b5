import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import clonelab
import pairing_reference
import thinning_reference as ref
from clonelab.combinatorics import constant_coloring, sum_coloring
from clonelab.pairings import color_gated_pairing
from clonelab.symbolic import Box, SymbolicFn, cantor_pairing
from clonelab.terms import (
    CONST,
    UNARY_X,
    UNARY_Y,
    UNDEFINED,
    BinaryApp,
    Const,
    InconclusiveError,
    RegistryError,
    SearchStats,
    SubsetSpec,
    UnaryApp,
    VarX,
    VarY,
    bounded_term_search,
    classify_on,
    default_registry,
    eval_term,
    find_agreement,
    format_term,
    _thin_unary,
    parse_term,
    partial_eval,
    thin_disjoint_images,
    thin_for,
)

PR = cantor_pairing()


def gated_registry(coloring, a_colors={0, 1}, b_colors={2, 3}):
    registry = default_registry()
    registry.register(color_gated_pairing(a_colors, coloring, PR, name="gateA"))
    registry.register(color_gated_pairing(b_colors, coloring, PR, name="gateB"))
    return registry


class TestGrammar:
    @pytest.mark.parametrize(
        "text",
        ["x", "y", "7", "(u:succ x)", "(b:max (u:succ x) (b:min y 3))"],
    )
    def test_round_trip(self, text):
        assert format_term(parse_term(text)) == text

    def test_arity_misuse_rejected(self):
        with pytest.raises(ValueError):
            parse_term("(u:succ x y)")
        with pytest.raises(ValueError):
            parse_term("(b:max x)")
        with pytest.raises(ValueError):
            parse_term("(max x y)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_term("x y")

    def test_eval(self):
        registry = default_registry()
        term = parse_term("(b:max (u:succ x) (b:min y 3))")
        assert eval_term(term, 4, 9, registry) == 5
        assert eval_term(parse_term("x"), 5, 9, registry) == 5
        assert eval_term(parse_term("(u:succ 3)"), 0, 0, registry) == 4

    def test_unknown_symbol(self):
        with pytest.raises(RegistryError):
            eval_term(parse_term("(u:nope x)"), 0, 0, default_registry())


class TestSubsets:
    def test_builtin_enumerations(self):
        assert SubsetSpec.naturals().first(4) == [0, 1, 2, 3]
        assert SubsetSpec.evens().first(4) == [0, 2, 4, 6]
        assert SubsetSpec.odds().first(3) == [1, 3, 5]

    def test_enumeration_predicate_mismatch_detected(self):
        import itertools

        broken = SubsetSpec(lambda v: v % 2 == 0, lambda: itertools.count(1), "broken")
        with pytest.raises(ValueError):
            broken.first(3)

    def test_classify_injective_constant_neither(self):
        naturals = SubsetSpec.naturals()
        assert classify_on(lambda v: 2 * v, naturals, 32)[0] == "injective"
        assert classify_on(lambda v: 9, naturals, 32) == ("constant", 9)
        verdict, witness = classify_on(lambda v: min(v, 3), naturals, 32)
        assert verdict == "neither"
        collision, distinct = witness
        assert min(collision[0], 3) == min(collision[1], 3)

    def test_classification_matches_brute_force(self):
        evens = SubsetSpec.evens()
        rng = random.Random(7)
        seen = set()
        for _ in range(300):
            n = rng.randrange(2, 24)
            kind = rng.choice(("injective", "constant", "small range"))
            if kind == "injective":
                values = rng.sample(range(1000), n)
            elif kind == "constant":
                values = [rng.randrange(5)] * n
            else:
                values = [rng.randrange(rng.randrange(1, 6)) for _ in range(n)]
            xs = evens.first(n)
            got = classify_on(dict(zip(xs, values)).__getitem__, evens, n)
            seen.add(got[0])
            clashes = [(xs[i], xs[j]) for j in range(n) for i in range(j) if values[i] == values[j]]
            if not clashes:
                assert got == ("injective", None)
            elif len(set(values)) == 1:
                assert got == ("constant", values[0])
            else:
                low = sorted(set(values))[:2]
                firsts = tuple(next(x for x, v in zip(xs, values) if v == u) for u in low)
                assert got == ("neither", (clashes[0], firsts))
        assert seen == {"injective", "constant", "neither"}

    def test_classification_needs_two_probes(self):
        singleton = SubsetSpec(lambda v: v == 5, lambda: iter([5]), "one")
        with pytest.raises(InconclusiveError):
            classify_on(lambda v: v, singleton, 8)


class TestPartialEval:
    def test_variable_is_identity(self):
        res = partial_eval(parse_term("x"), SubsetSpec.naturals(), default_registry())
        assert res.kind == UNARY_X
        assert res.map(17) == 17

    def test_unary_of_constant(self):
        res = partial_eval(parse_term("(u:succ 3)"), SubsetSpec.naturals(), default_registry())
        assert res.kind == CONST and res.value == 4

    def test_cross_case_is_zero(self):
        registry = gated_registry(sum_coloring(4))
        term = parse_term("(b:gateB (u:succ x) (u:double y))")
        res = partial_eval(term, SubsetSpec.naturals(), registry)
        assert res.kind == CONST and res.value == 0

    def test_cross_case_mirrored(self):
        registry = gated_registry(sum_coloring(4))
        term = parse_term("(b:gateB (u:succ y) (u:double x))")
        res = partial_eval(term, SubsetSpec.naturals(), registry)
        assert res.kind == CONST and res.value == 0

    def test_same_side_composition(self):
        res = partial_eval(
            parse_term("(b:max (u:succ x) (u:double x))"), SubsetSpec.naturals(), default_registry()
        )
        assert res.kind == UNARY_X
        assert res.map(4) == 8

    def test_undefined_carries_path(self):
        res = partial_eval(parse_term("(b:min x 3)"), SubsetSpec.naturals(), default_registry())
        assert res.kind == UNDEFINED
        assert res.path == ()
        res = partial_eval(
            parse_term("(u:succ (b:min x 3))"), SubsetSpec.naturals(), default_registry()
        )
        assert res.kind == UNDEFINED
        assert res.path == (0,)

    @pytest.mark.parametrize("text", ["x", "(u:succ x)"])
    def test_a_negative_budget_is_rejected_before_any_work(self, text):
        started = []
        subset = SubsetSpec(lambda v: True, lambda: started.append(1) or itertools.count(), "watched")
        with pytest.raises(ValueError, match=r"^probe_budget must be >= 0, got -5$"):
            partial_eval(parse_term(text), subset, default_registry(), probe_budget=-5)
        assert started == []

    def test_symbol_is_looked_up_after_its_subterm_reduces(self):
        res = partial_eval(
            parse_term("(u:nosuch (b:min x 3))"), SubsetSpec.naturals(), default_registry()
        )
        assert res.kind == UNDEFINED
        assert res.path == (0,)

    def test_soundness_probes_on_defined_results(self):
        rng = random.Random(11)
        registry = gated_registry(sum_coloring(4))
        corpus = [
            "(u:double (u:succ x))",
            "(b:max (u:succ y) (u:double y))",
            "(b:gateA (u:succ x) (u:double y))",
            "(b:gateA x 0)",
            "(u:succ (b:gateB (u:succ x) (u:double y)))",
        ]
        naturals = SubsetSpec.naturals()
        for text in corpus:
            term = parse_term(text)
            res = partial_eval(term, naturals, registry)
            if not res.defined or res.kind == CONST:
                continue
            # claimed 1-1 maps stay 1-1 on fresh sample points
            points = sorted(rng.sample(range(500), 40))
            values = [res.map(p) for p in points]
            assert len(set(values)) == len(values)


class TestThinning:
    def test_nothing_to_thin(self):
        naturals = SubsetSpec.naturals()
        out = thin_for([parse_term("x")], naturals, default_registry())
        assert out.first(5) == [0, 1, 2, 3, 4]

    def test_constant_symbol_needs_no_thinning(self):
        out = thin_for([parse_term("(u:zero x)")], SubsetSpec.naturals(), default_registry())
        assert out.first(5) == [0, 1, 2, 3, 4]

    def test_halving_thins_to_evens(self):
        out = thin_for([parse_term("(u:half x)")], SubsetSpec.naturals(), default_registry())
        assert out.first(5) == [0, 2, 4, 6, 8]

    def test_saturating_min_becomes_constant(self):
        term = parse_term("(b:min x 7)")
        out = thin_for([term], SubsetSpec.naturals(), default_registry())
        res = partial_eval(term, out, default_registry())
        assert res.kind == CONST and res.value == 7

    def test_definedness_is_preserved_for_earlier_terms(self):
        registry = default_registry()
        terms = [parse_term("(u:double x)"), parse_term("(u:half x)"), parse_term("(b:min x 3)")]
        out = thin_for(terms, SubsetSpec.naturals(), registry)
        for term in terms:
            assert partial_eval(term, out, registry).defined

    def test_disjoint_images(self):
        fns = [lambda a: a // 3, lambda a: a // 3 + 100]
        out = thin_disjoint_images(SubsetSpec.naturals(), fns)
        chosen = out.first(6)
        images = [{f(a) for f in fns} for a in chosen]
        for i, left in enumerate(images):
            for right in images[i + 1:]:
                assert not (left & right)


# One thinning layer: (kind, params).  Every map grows without bound and
# each kept point rejects boundedly many later points, so every stack stays
# infinite and dense enough to fill the reference prefix.
affine_fns = st.lists(
    st.tuples(st.integers(2, 4), st.integers(0, 8)), min_size=1, max_size=3,
    unique_by=lambda mr: mr[1],
).map(lambda ps: [lambda a, _m=ps[0][0], _r=r: _m * a + _r for _, r in ps])
thin_layers = st.one_of(
    st.tuples(st.just("inj"), st.tuples(st.integers(1, 3), st.integers(0, 5))),
    st.tuples(st.just("disjoint"), affine_fns),
    st.tuples(st.just("pairfree"), st.one_of(
        affine_fns,
        st.integers(1, 3).map(lambda c: [lambda a, _c=c: PR(a, a + _c)]),
    )),
    st.tuples(st.just("constfree"), st.frozensets(st.integers(0, 300), max_size=12)),
)


def thinned_pair(spec, elements, layer):
    """One layer applied to a spec and, by the reference, to its prefix list."""
    kind, params = layer
    if kind == "inj":
        d, b = params
        h = lambda a, _d=d, _b=b: (a + _b) // _d  # noqa: E731
        out = _thin_unary(h, spec, 64)
        assert out.label.endswith("|inj")
        return out, ref.thin(elements, ref.injective(h))
    if kind == "disjoint":
        return thin_disjoint_images(spec, params), ref.thin(elements, ref.disjoint_images(params))
    if kind == "pairfree":
        accept = ref.avoid_pairing_collisions(params, PR)
    else:
        accept = ref.avoid_constants(params, PR)
    return SubsetSpec.greedy(spec, accept, f"{spec.label}|{kind}"), ref.thin(elements, accept)


class TestGreedyThinning:
    BELOW = 240

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["naturals", "evens", "odds"]),
        st.lists(thin_layers, min_size=1, max_size=3),
        st.integers(1, 40),
    )
    def test_stacked_thinners_match_the_reference(self, root, layers, n):
        spec = getattr(SubsetSpec, root)()
        elements = [v for v in range(self.BELOW) if spec.contains(v)]
        for layer in layers:
            spec, elements = thinned_pair(spec, elements, layer)
        assert spec.depth == len(layers)
        m = min(n, len(elements))
        assert spec.first(m) == elements[:m]
        kept = set(elements)
        assert [v for v in range(200) if spec.contains(v)] == [v for v in range(200) if v in kept]

    def test_stacked_cost_is_linear_in_depth(self):
        ops = {"contains": 0, "steps": 0}

        def contains(v):
            ops["contains"] += 1
            return v >= 0

        def enumerate_from():
            for v in itertools.count(0):
                ops["steps"] += 1
                yield v

        spec = SubsetSpec(contains, enumerate_from, "counted")
        for depth in range(8):
            m = 3 + depth % 3  # the residues differ mod m, so no point is rejected
            spec = thin_disjoint_images(spec, [lambda a, _m=m: _m * a, lambda a, _m=m: _m * a + 1])
        assert spec.first(64) == list(range(64))
        assert spec.depth == 8 and spec.scanned == 8 * 64
        assert ops["contains"] + ops["steps"] <= 2 * 8 * 64

    def test_a_failure_is_raised_again_not_taken_for_the_end(self):
        broken = SubsetSpec(lambda v: v % 2 == 0, lambda: itertools.count(1), "broken")
        thinned = thin_disjoint_images(broken, [lambda a: a])
        for _ in range(2):
            with pytest.raises(ValueError, match="fails the predicate"):
                thinned.first(3)
        with pytest.raises(ValueError, match="fails the predicate"):
            thinned.contains(4)

        def fragile(a):
            if a == 3:
                raise ArithmeticError("no image for 3")
            return a

        thinned = thin_disjoint_images(SubsetSpec.naturals(), [fragile])
        assert thinned.first(3) == [0, 1, 2]
        for _ in range(2):
            with pytest.raises(ArithmeticError):
                thinned.first(4)
        with pytest.raises(ArithmeticError):
            thinned.contains(1)

    def test_finitely_valued_map_thins_to_constant(self):
        # runs in a child process so that a regression fails instead of hanging
        code = (
            "from clonelab.terms import *\n"
            "reg = default_registry()\n"
            "term = parse_term('(b:min x 8)')\n"
            "out = thin_for([term], SubsetSpec.naturals(), reg)\n"
            "res = partial_eval(term, out, reg)\n"
            "print(out.label, out.first(3), res.kind, res.value)\n"
        )
        src = str(Path(clonelab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "naturals|const8 [8, 9, 10] constant 8"

    def test_finite_subset_keeps_the_injective_branch(self):
        ten = SubsetSpec(lambda v: 0 <= v < 10, lambda: iter(range(10)), "ten")
        out = _thin_unary(lambda v: v // 2, ten, 64)
        assert out.label == "ten|inj"
        assert out.first(64) == [0, 2, 4, 6, 8]


class TestAgreement:
    def test_found_pair_satisfies_both_conjuncts(self):
        coloring = constant_coloring(4, 0)
        registry = gated_registry(coloring, b_colors={2, 3})
        term = parse_term("(b:gateB (u:succ x) (u:double y))")
        naturals = SubsetSpec.naturals()
        pair = find_agreement(term, naturals, coloring, 0, registry)
        assert pair is not None
        a, b = pair
        res = partial_eval(term, naturals, registry)
        assert coloring(a, b) == 0
        assert eval_term(term, a, b, registry) == res.evaluate(a, b) == 0

    def test_wrong_target_color_finds_nothing(self):
        coloring = constant_coloring(4, 1)
        registry = gated_registry(coloring)
        term = parse_term("(b:gateB (u:succ x) (u:double y))")
        assert find_agreement(term, SubsetSpec.naturals(), coloring, 0, registry, 24) is None

    def test_constant_term_agrees_at_first_eligible_pair(self):
        coloring = constant_coloring(4, 0)
        registry = gated_registry(coloring)
        assert find_agreement(parse_term("5"), SubsetSpec.naturals(), coloring, 0, registry) == (0, 1)

    def test_undefined_reduction_rejected(self):
        coloring = constant_coloring(4, 0)
        with pytest.raises(ValueError):
            find_agreement(
                parse_term("(b:min x 3)"), SubsetSpec.naturals(), coloring, 0,
                gated_registry(coloring),
            )


class TestBoundedSearch:
    def test_projection_found_at_depth_zero(self):
        target = SymbolicFn("p1", 2, lambda x, y: x)
        registry = gated_registry(sum_coloring(4))
        res = bounded_term_search(target, {"gateB": registry.get_binary("gateB")}, {}, 1, Box(1, 16, "full"))
        assert isinstance(res.term, VarX)

    def test_recovered_pairing_found_at_depth_two(self):
        from clonelab.pairings import recovered_pairing

        coloring = sum_coloring(4)
        registry = gated_registry(coloring)
        gate_a = registry.get_binary("gateA")
        gate_b = registry.get_binary("gateB")
        target = recovered_pairing({0, 1}, {2, 3}, coloring, PR)
        box = Box(1, 24, "full")
        res = bounded_term_search(
            target, {"gateA": gate_a, "gateB": gate_b},
            {"id": registry.get_unary("id")}, 2, box,
        )
        assert res.term is not None
        assert all(eval_term(res.term, x, y, registry) == target(x, y) for x, y in box.pairs())

    def test_found_term_matches_bit_exactly(self):
        registry = default_registry()
        target = SymbolicFn("succmax", 2, lambda x, y: max(x, y) + 1)
        box = Box(0, 12, "full")
        res = bounded_term_search(
            target, {"max": registry.get_binary("max")},
            {"succ": registry.get_unary("succ")}, 2, box,
        )
        assert res.term is not None
        assert all(eval_term(res.term, x, y, registry) == target(x, y) for x, y in box.pairs())

    def test_unreachable_target_returns_none(self):
        registry = default_registry()
        target = SymbolicFn("plus", 2, lambda x, y: x + y)
        res = bounded_term_search(
            target, {"min": registry.get_binary("min")},
            {"id": registry.get_unary("id")}, 2, Box(0, 10, "full"),
        )
        assert res.term is None
        assert res.stats.candidates_checked > 0

    @pytest.mark.parametrize("target,term,per_depth,checked", [
        (lambda x, y: x, "x", (1,), 1),
        (lambda x, y: y, "y", (2,), 2),
        (max, "(b:max x y)", (2, 1), 6),
    ])
    def test_exact_stats(self, target, term, per_depth, checked):
        registry = default_registry()
        res = bounded_term_search(
            SymbolicFn("target", 2, target), {"max": registry.get_binary("max")},
            {"id": registry.get_unary("id")}, 1, Box(0, 5, "full"),
        )
        assert format_term(res.term) == term
        assert res.stats.per_depth == per_depth
        assert res.stats.candidates_checked == checked


    def test_negative_depth_is_rejected_before_any_work(self):
        calls = []
        target = SymbolicFn("t", 2, lambda x, y: calls.append((x, y)) or x)
        with pytest.raises(ValueError, match="max_depth"):
            bounded_term_search(target, {}, {}, -1, Box(0, 4, "full"))
        assert calls == []

    @pytest.mark.parametrize("binary,unary", [
        ({"succ": SymbolicFn("succ", 1, lambda x: x + 1)}, {}),
        ({}, {"max": SymbolicFn("max", 2, max)}),
    ])
    def test_misplaced_symbol_is_rejected_before_any_work(self, binary, unary):
        calls = []
        target = SymbolicFn("t", 2, lambda x, y: calls.append((x, y)) or x + y)
        with pytest.raises(ValueError, match="expected . args, got ."):
            bounded_term_search(target, binary, unary, 2, Box(0, 4, "full"))
        assert calls == []

    @pytest.mark.parametrize("box", [Box(0, 5, "full"), Box(2, 9, "offdiag")])
    def test_a_binary_symbol_is_evaluated_once_per_operand_pair_of_a_left_operand(self, box):
        calls = []

        def gate(x, y):
            calls.append((x, y))
            return PR(x, y) if (x + y) % 3 else max(x, y)

        succ = default_registry().get_unary("succ")
        target = SymbolicFn("plus", 2, lambda x, y: x + y)
        res = bounded_term_search(target, {"g": SymbolicFn("g", 2, gate)}, {"succ": succ}, 2, box)
        assert res.term is None

        levels = []
        pairing_reference.term_search(
            target.fn, {"g": gate}, {"succ": succ.fn}, 2, (box.lo, box.hi, box.region), levels)
        memoised = naive = 0
        for depth in (1, 2):
            prev, earlier = levels[depth - 1], [e for lv in levels[: depth - 1] for e in lv]
            for lefts, rights in ((prev, earlier), (earlier, prev), (prev, prev)):
                for lsig, _ in lefts:
                    memoised += len({p for rsig, _ in rights for p in zip(lsig, rsig)})
                    naive += len(rights) * len(lsig)
        searched = len(calls) - naive  # the reference made the naive number of calls
        assert 0 < searched <= memoised < naive

    def test_the_last_level_computes_no_vector_in_full(self):
        # the target differs from every candidate at the first point, and the
        # last level's eight vectors part from each other and from the six
        # below within the first rows: it evaluates a small share of the
        # 8 * 10,000 points a stored level would
        calls = []

        def counted(f):
            return lambda v: calls.append(v) or f(v)

        unary = {"succ": lambda v: v + 1, "double": lambda v: 2 * v}
        box = Box(0, 100, "full")
        res = bounded_term_search(
            SymbolicFn("t", 2, lambda x, y: -1), {},
            {n: SymbolicFn(n, 1, counted(f)) for n, f in unary.items()}, 2, box,
        )
        term, per_depth, checked = pairing_reference.term_search(
            lambda x, y: -1, {}, unary, 2, (box.lo, box.hi, box.region))
        assert (res.term, term) == (None, None)
        assert (res.stats.per_depth, res.stats.candidates_checked) == (per_depth, checked)
        assert per_depth == (2, 4, 8)
        stored = 4 * 100 * 100  # level 1 is below the last level: four full vectors
        assert len(calls) - stored < 100 * 100

    def test_a_level_over_the_budget_raises_before_it_is_evaluated(self, monkeypatch):
        calls = []

        def succ(x):
            calls.append(x)
            return x + 1

        def g(x, y):
            calls.append((x, y))
            return 7 * x + y

        # level 1 has 1 * 2 + 1 * (2 * 2 * 0 + 2 * 2) = 6 candidates and six
        # distinct vectors, level 2 has 1 * 6 + 1 * (2 * 6 * 2 + 6 * 6) = 66
        monkeypatch.setattr(clonelab.terms, "_MAX_LEVEL_CANDIDATES", 10)
        with pytest.raises(InconclusiveError, match="level 2 has 66 candidates"):
            bounded_term_search(
                SymbolicFn("t", 2, lambda x, y: x * y), {"g": SymbolicFn("g", 2, g)},
                {"succ": SymbolicFn("succ", 1, succ)}, 2, Box(0, 6, "full"),
            )
        # level 1 only: succ at the 36 points of x and of y, and g at the 36
        # distinct operand pairs of each left operand (x, y)
        assert len(calls) == 2 * 36 + 2 * 36

    def test_bench_scale_stats(self):
        from clonelab.pairings import recovered_pairing

        coloring = sum_coloring(4)
        registry = gated_registry(coloring)
        gate_a, gate_b = registry.get_binary("gateA"), registry.get_binary("gateB")
        box = Box(1, 24, "full")
        negative = bounded_term_search(
            gate_a, {"gateB": gate_b},
            {"id": registry.get_unary("id"), "succ": registry.get_unary("succ")}, 3, box,
        )
        assert negative.term is None
        assert negative.stats == SearchStats((2, 4, 32, 1377), 1522)
        target = recovered_pairing({0, 1}, {2, 3}, coloring, PR)
        positive = bounded_term_search(
            target, {"gateA": gate_a, "gateB": gate_b}, {"id": registry.get_unary("id")}, 2, box,
        )
        assert positive.stats == SearchStats((2, 4, 18), 35)
        assert positive.term is not None
        assert all(eval_term(positive.term, x, y, registry) == target(x, y) for x, y in box.pairs())


_SMALL_FNS = {
    1: {"id": lambda x: x, "succ": lambda x: x + 1, "double": lambda x: 2 * x,
        "half": lambda x: x // 2, "zero": lambda x: 0},
    2: {"max": max, "min": min, "pair": lambda x, y: PR(x, y),
        "plus-mod": lambda x, y: (x + y) % 5,
        "gate": lambda x, y: PR(x, y) if (x + y) % 4 < 2 else 0,
        "first": lambda x, y: x},
}


def small_fns(arity):
    names = _SMALL_FNS[arity]
    return st.sets(st.sampled_from(sorted(names)), max_size=3).map(
        lambda chosen: {n: names[n] for n in chosen})


def _compare_with_reference(binary, unary, target, depth, box):
    """The search and the scalar reference on the same inputs; returns the
    reference's (term, per_depth, checked)."""
    res = bounded_term_search(
        SymbolicFn("t", 2, target),
        {n: SymbolicFn(n, 2, f) for n, f in binary.items()},
        {n: SymbolicFn(n, 1, f) for n, f in unary.items()},
        depth, box,
    )
    want = pairing_reference.term_search(target, binary, unary, depth, (box.lo, box.hi, box.region))
    assert ((format_term(res.term) if res.term else None),
            res.stats.per_depth, res.stats.candidates_checked) == want
    return want


class TestSearchAgainstTheScalarReference:
    @settings(max_examples=80, deadline=None)
    @given(
        small_fns(2).filter(bool),
        small_fns(1),
        st.sampled_from(["max", "plus", "pair", "gate-of-succ", "first"]),
        st.integers(0, 2),
        st.integers(0, 4), st.integers(1, 5), st.sampled_from(["delta", "nabla", "offdiag", "full"]),
    )
    def test_term_and_stats_match(self, binary, unary, target, depth, lo, w, region):
        target = {
            "max": max, "plus": lambda x, y: x + y, "pair": lambda x, y: PR(x, y),
            "gate-of-succ": lambda x, y: PR(x + 1, y) if (x + 1 + y) % 4 < 2 else 0,
            "first": lambda x, y: x,
        }[target]
        _compare_with_reference(binary, unary, target, depth, Box(lo, lo + w, region))


_gate = _SMALL_FNS[2]["gate"]
_DEEP_TARGETS = {
    "x": lambda x, y: x,
    "max": max,
    "plus": lambda x, y: x + y,
    "succ3": lambda x, y: x + 3,
    "pair3": lambda x, y: PR(PR(PR(x, y), x), y),
    "gate3": lambda x, y: _gate(_gate(x, y), _gate(y, x)) + 1,
}


class TestDeepSearchAgainstTheScalarReference:
    """Depth 0, and depth 3 with its last level over three stored levels.
    One binary symbol and at most one unary one keep a depth-3 level under
    about 5,500 candidates."""

    @settings(max_examples=60, deadline=None)
    @given(
        small_fns(2).filter(lambda chosen: len(chosen) == 1),
        small_fns(1).filter(lambda chosen: len(chosen) <= 1),
        st.sampled_from(sorted(_DEEP_TARGETS)),
        st.sampled_from([0, 3]),
        st.integers(0, 4), st.integers(1, 4), st.sampled_from(["delta", "nabla", "offdiag", "full"]),
    )
    def test_term_and_stats_match(self, binary, unary, target, depth, lo, w, region):
        _compare_with_reference(binary, unary, _DEEP_TARGETS[target], depth, Box(lo, lo + w, region))

    @pytest.mark.parametrize("binary,unary,target,hit_depth", [
        ("pair", "succ", "pair3", 3),
        ("pair", "id", "pair3", 3),
        ("gate", "succ", "gate3", 3),
        ("first", "succ", "succ3", 3),
        ("max", "succ", "max", 1),
        ("pair", "zero", "x", 0),
        ("max", "double", "plus", None),
        ("pair", "succ", "plus", None),
    ])
    def test_each_outcome_at_depth_three(self, binary, unary, target, hit_depth):
        term, per_depth, checked = _compare_with_reference(
            {binary: _SMALL_FNS[2][binary]}, {unary: _SMALL_FNS[1][unary]}, _DEEP_TARGETS[target], 3, Box(1, 5, "full"))
        assert (term is None) == (hit_depth is None)
        assert len(per_depth) == (4 if hit_depth is None else hit_depth + 1)


terms_strategy = st.deferred(
    lambda: st.one_of(
        st.just(VarX()),
        st.just(VarY()),
        st.builds(Const, st.integers(0, 9)),
        st.builds(UnaryApp, st.sampled_from(["id", "succ", "double"]), terms_strategy),
        st.builds(
            BinaryApp, st.sampled_from(["max", "min", "pair"]), terms_strategy, terms_strategy
        ),
    )
)


class TestReductionShapeProperty:
    @settings(max_examples=60, deadline=None)
    @given(terms_strategy)
    def test_every_reduction_matches_the_trichotomy(self, term):
        registry = default_registry()
        res = partial_eval(term, SubsetSpec.naturals(), registry, probe_budget=24)
        assert res.kind in (CONST, UNARY_X, UNARY_Y, UNDEFINED)
        if res.kind == CONST:
            assert isinstance(res.value, int)
        elif res.kind in (UNARY_X, UNARY_Y):
            probes = SubsetSpec.naturals().first(24)
            values = [res.map(p) for p in probes]
            assert len(set(values)) == len(values)
