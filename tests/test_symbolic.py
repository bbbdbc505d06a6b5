import inspect
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

import pairing_reference
from clonelab import symbolic
from clonelab.symbolic import (
    Box,
    ConstructionRefuted,
    SquareTable,
    SymbolicFn,
    cantor_pairing,
    check_injective_on,
    compose_fn,
    delta_pairing,
    max_fn,
    median_fn,
    min_fn,
    pairing_bijection,
    standard_merge,
)


class TestBox:
    def test_round_trip(self):
        for spec in ("0..64:offdiag", "1..40:full", "3..9:delta", "2..5:nabla"):
            assert Box.parse(spec).spec() == spec

    def test_bad_specs(self):
        for bad in ("5..5:full", "1..2:weird", "x..2:full", "3..1:delta"):
            with pytest.raises(ValueError):
                Box.parse(bad)

    def test_regions(self):
        box = Box(0, 3, "delta")
        assert list(box.pairs()) == [(1, 0), (2, 0), (2, 1)]
        assert list(box.with_region("nabla").pairs()) == [(0, 1), (0, 2), (1, 2)]
        assert len(list(box.with_region("offdiag").pairs())) == 6
        assert len(list(box.with_region("full").pairs())) == 9

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 60), max_size=12, unique=True),
           st.sampled_from(["delta", "nabla", "offdiag", "full"]))
    def test_the_region_rule_over_a_sparse_sample(self, sample, region):
        sample = sorted(sample)
        inside = {"delta": lambda a, b: a > b, "nabla": lambda a, b: a < b,
                  "offdiag": lambda a, b: a != b, "full": lambda a, b: True}[region]
        assert [(sample[i], b) for i, j, k in symbolic._row_parts(len(sample), region)
                for b in sample[j:k]] == [(a, b) for a in sample for b in sample if inside(a, b)]


class TestPairing:
    def test_base_value(self):
        assert cantor_pairing()(0, 0) == 2

    def test_range_avoids_zero_and_odds(self):
        pr = cantor_pairing()
        values = {pr(x, y) for x in range(24) for y in range(24)}
        assert 0 not in values
        assert all(v % 2 == 0 and v >= 2 for v in values)

    def test_globally_injective_on_square(self):
        pr = cantor_pairing()
        seen = {pr(x, y) for x in range(256) for y in range(256)}
        assert len(seen) == 256 * 256

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 300), st.integers(0, 300), st.integers(0, 300), st.integers(0, 300))
    def test_injective_property(self, a, b, c, d):
        pr = cantor_pairing()
        if (a, b) != (c, d):
            assert pr(a, b) != pr(c, d)


def hits_each_value_once(parts, targets):
    """Whether the bijection's composite hits every value below targets
    exactly once.

    The scan grows a square of arguments.  The rank of a code is monotone in
    the code, and every pair outside a square of side s has a code of at
    least (2s + 1)(2s + 2) + 4, so once that code's rank reaches targets the
    square holds every preimage below targets.
    """
    side = 8
    while side <= 1 << 12:
        hits = {}
        for x in range(side):
            for y in range(side):
                v = parts.composite(x, y)
                hits[v] = hits.get(v, 0) + 1
        if any(c > 1 for v, c in hits.items() if v < targets):
            return False
        outside_done = parts.outer((2 * side + 1) * (2 * side + 2) + 4) >= targets
        if outside_done and all(hits.get(v, 0) == 1 for v in range(targets)):
            return True
        side *= 2
    return False


class TestBijection:
    def test_injections_have_disjoint_parity_ranges(self):
        parts = pairing_bijection()
        assert all(parts.left(x) % 2 == 0 for x in range(20))
        assert all(parts.right(y) % 2 == 1 for y in range(20))

    def test_every_small_value_hit_exactly_once(self):
        assert hits_each_value_once(pairing_bijection(), 100)

    def test_composite_injective(self):
        parts = pairing_bijection()
        assert check_injective_on(parts.composite, Box(0, 128, "offdiag")) is None

    def test_refuted_for_non_injective_base(self):
        broken = SymbolicFn("broken", 2, lambda x, y: x + y)
        with pytest.raises(ConstructionRefuted):
            pairing_bijection(broken)


class TestBasicFunctions:
    def test_delta_pairing_cases(self):
        pd = delta_pairing()
        pr = cantor_pairing()
        assert pd(3, 3) == 0
        assert pd(2, 5) == 0
        assert pd(5, 2) == pr(5, 2)

    def test_median(self):
        med = median_fn()
        assert med(1, 2, 3) == 2
        assert med(9, 0, 4) == 4

    def test_merge_markers(self):
        h = standard_merge()
        assert h(0, 7) == 7
        assert h(7, 1) == 7
        assert h(0, 1) == 1
        assert h(5, 9) == 0

    def test_compose_fn(self):
        doubled_min = compose_fn(SymbolicFn("d", 1, lambda v: 2 * v), [min_fn()])
        assert doubled_min(3, 8) == 6
        with pytest.raises(ValueError, match="inner count must match outer arity"):
            compose_fn(max_fn(), [min_fn()])
        with pytest.raises(ValueError, match="inner operations must share an arity"):
            compose_fn(max_fn(), [min_fn(), median_fn()])


def _random_map(seed, arity):
    """A plain integer map of the given arity, fixed by the seed."""
    def fn(*args):
        assert len(args) == arity
        return hash((seed,) + args) % 11
    return fn


class TestComposeFn:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10**6), st.integers(0, 6))
    def test_the_composite_is_the_pointwise_composition(self, m, n, seed, lo):
        outer = SymbolicFn("o", m, _random_map(seed, m))
        inner = [SymbolicFn(f"g{j}", n, _random_map(seed + j + 1, n)) for j in range(m)]
        composite = compose_fn(outer, inner)
        assert composite.name == f"o({', '.join(f'g{j}' for j in range(m))})"
        assert composite.arity == n and composite.witness is None
        for args in itertools.product(Box(lo, lo + 3).points(), repeat=n):
            want = outer.fn(*(g.fn(*args) for g in inner))
            assert composite(*args) == composite.evaluator(n)(*args) == want
        for wrong in (n - 1, n + 1):
            message = f"{composite.name}: expected {n} args, got {wrong}"
            with pytest.raises(ValueError, match=re.escape(message)):
                composite(*range(wrong))
            with pytest.raises(ValueError, match=re.escape(message)):
                composite.evaluator(wrong)

    def test_one_evaluator_code_per_pair_of_arities(self):
        a = compose_fn(median_fn(), [max_fn(), min_fn(), cantor_pairing()])
        b = compose_fn(median_fn(), [min_fn(), min_fn(), max_fn()])
        c = compose_fn(max_fn(), [min_fn(), max_fn()])
        assert a.fn.__code__ is b.fn.__code__
        assert c.fn.__code__ is not a.fn.__code__
        assert a.fn.__code__.co_argcount == 2 and not a.fn.__code__.co_flags & inspect.CO_VARARGS


class TestInjectivityChecker:
    def test_pairing_clean(self):
        assert check_injective_on(cantor_pairing(), Box(0, 32, "full")) is None

    def test_max_collides_off_diagonal(self):
        witness = check_injective_on(max_fn(), Box(0, 4, "offdiag"))
        assert witness is not None
        (a, b), (c, d) = witness
        assert (a, b) != (c, d)
        assert max(a, b) == max(c, d)

    def test_deterministic_first_collision(self):
        first = check_injective_on(max_fn(), Box(0, 8, "offdiag"))
        second = check_injective_on(max_fn(), Box(0, 8, "offdiag"))
        assert first == second == ((0, 1), (1, 0))

    def test_empty_region_vacuous(self):
        assert check_injective_on(max_fn(), Box(0, 1, "offdiag")) is None

    def test_an_untabled_scan_stops_after_the_chunk_of_its_first_collision(self):
        # max collides at the 400th of 159,600 points: (0, 1) and (1, 0)
        calls = []
        fn = max_fn().fn
        counted = SymbolicFn("max", 2, lambda x, y: calls.append((x, y)) or fn(x, y))
        box = Box(0, 400, "offdiag")
        witness = check_injective_on(counted, box)
        assert witness == pairing_reference.collision(max, (0, 400, "offdiag"))
        assert witness == ((0, 1), (1, 0))
        assert 400 <= len(calls) <= symbolic._CHUNK

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5), st.integers(1, 60), st.integers(1, 4000), st.integers(0, 99),
           st.sampled_from(["delta", "nabla", "offdiag", "full"]))
    def test_chunked_scan_matches_the_reference(self, lo, w, r, salt, region):
        def fn(x, y):
            return (x * 31 + y * 17 + salt) * 2654435761 % 2**32 % r

        assert check_injective_on(SymbolicFn("f", 2, fn), Box(lo, lo + w, region)) == (
            pairing_reference.collision(fn, (lo, lo + w, region)))


def _tabled(fn, lo, hi):
    """fn with its values on the square [lo, hi)² kept."""
    table = SquareTable.of(fn, Box(lo, hi))
    return SymbolicFn("tabled", 2, table.reader(fn), table=table)


class TestSquareTable:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10), st.integers(1, 8), st.integers(1, 30), st.integers(0, 99),
           st.sampled_from(["delta", "nabla", "offdiag", "full"]))
    def test_same_verdict_as_calling(self, lo, w, r, salt, region):
        def fn(x, y):
            return (x * 31 + y * 17 + salt) * 2654435761 % 2**32 % r

        tabled = _tabled(fn, lo, lo + w)
        for box in (Box(lo, lo + w, region), Box(max(0, lo - 1), lo + w + 2, region)):
            assert check_injective_on(tabled, box) == check_injective_on(
                SymbolicFn("f", 2, fn), box)
        grid = range(max(0, lo - 2), lo + w + 2)
        assert all(tabled(x, y) == fn(x, y) for x in grid for y in grid)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10), st.integers(1, 8), st.integers(1, 30), st.integers(0, 99),
           st.booleans())
    def test_region_scans_match_the_reference(self, lo, w, r, salt, symmetric):
        def fn(x, y):
            if symmetric:
                x, y = min(x, y), max(x, y)
            return (x * 31 + y * 17 + salt) * 2654435761 % 2**32 % r

        table = SquareTable.of(fn, Box(lo, lo + w))
        for region in ("delta", "nabla", "offdiag", "full"):
            box = (lo, lo + w, region)
            assert table.values_on(region) == [fn(*p) for p in pairing_reference.pairs(box)]
            assert table.collision(region) == pairing_reference.collision(fn, box)
        assert table.asymmetry() == next(
            ((x, y) for x, y in pairing_reference.pairs((lo, lo + w, "full"))
             if fn(x, y) != fn(y, x)), None)

    def test_a_collision_check_lists_the_values_only_on_a_collision(self, monkeypatch):
        listed = []
        values_on = SquareTable.values_on

        def recorded(self, region):
            listed.append(region)
            return values_on(self, region)

        monkeypatch.setattr(SquareTable, "values_on", recorded)
        injective = SquareTable.of(lambda x, y: 100 * x + y, Box(2, 40))
        clashing = SquareTable.of(lambda x, y: (x * y) % 7, Box(2, 40))
        for region in ("delta", "nabla", "offdiag", "full"):
            assert injective.collision(region) is None
            assert listed == []
            assert clashing.collision(region) == pairing_reference.collision(
                lambda x, y: (x * y) % 7, (2, 40, region))
            assert listed == [region]
            listed.clear()

    def test_check_on_its_box_calls_nothing(self):
        calls = []

        def fn(x, y):
            calls.append((x, y))
            return (x + y) % 5

        tabled = _tabled(fn, 3, 12)
        assert len(calls) == 81
        calls.clear()
        for region in ("delta", "nabla", "offdiag", "full"):
            assert check_injective_on(tabled, Box(3, 12, region)) == check_injective_on(
                SymbolicFn("f", 2, lambda x, y: (x + y) % 5), Box(3, 12, region))
        assert calls == []
