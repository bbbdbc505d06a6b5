import pytest
from hypothesis import given, settings, strategies as st

from clonelab.symbolic import (
    Box,
    ConstructionRefuted,
    OffdiagTable,
    SymbolicFn,
    cantor_pairing,
    check_injective_on,
    compose_fn,
    delta_pairing,
    injective_on,
    max_fn,
    median_fn,
    min_fn,
    pairing_bijection,
    standard_merge,
    verify_bijection_on,
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


class TestBijection:
    def test_injections_have_disjoint_parity_ranges(self):
        parts = pairing_bijection()
        assert all(parts.left(x) % 2 == 0 for x in range(20))
        assert all(parts.right(y) % 2 == 1 for y in range(20))

    def test_every_small_value_hit_exactly_once(self):
        assert verify_bijection_on(pairing_bijection(), 100)

    def test_composite_injective(self):
        parts = pairing_bijection()
        assert injective_on(parts.composite, Box(0, 128, "offdiag"))

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
        with pytest.raises(ValueError):
            compose_fn(max_fn(), [min_fn()])


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


def _tabled(fn, lo, hi):
    """fn with its values at the off-diagonal points of [lo, hi)² kept."""
    values = [fn(*p) for p in Box(lo, hi, "offdiag").pairs()]
    table = OffdiagTable(lo, hi, values)
    return SymbolicFn("tabled", 2, table.reader(fn), table=table)


class TestOffdiagTable:
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

    def test_check_on_its_box_calls_nothing(self):
        calls = []

        def fn(x, y):
            calls.append((x, y))
            return (x + y) % 5

        tabled = _tabled(fn, 3, 12)
        calls.clear()
        for region in ("delta", "nabla", "offdiag"):
            assert check_injective_on(tabled, Box(3, 12, region)) == check_injective_on(
                SymbolicFn("f", 2, lambda x, y: (x + y) % 5), Box(3, 12, region))
        assert calls == []
        check_injective_on(tabled, Box(3, 12, "full"))
        assert calls == [(x, x) for x in range(3, 12)]
