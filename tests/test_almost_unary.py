import itertools
import random
from collections import Counter

import pytest

from clonelab.almost_unary import (
    almost_unary_check,
    depends_heavily,
    median_witness,
    spread_supports,
    witnessed_spread_check,
)
from clonelab.symbolic import (
    AlmostUnaryWitness,
    Box,
    SpreadWitness,
    SymbolicFn,
    cantor_pairing,
    compose_fn,
    delta_pairing,
    max_fn,
    median_fn,
    min_fn,
)

PR = cantor_pairing()
PD = delta_pairing(PR)
BOX = Box(0, 32, "full")


def witnessed_random_binary(rng):
    coord = rng.choice((1, 2))
    scale = rng.randrange(1, 4)
    wobble = rng.randrange(0, 5)

    def fn(x, y, _c=coord, _s=scale, _w=wobble):
        t = (x, y)[_c - 1]
        other = (x, y)[2 - _c]
        return _s * t + (other % (_w + 1))

    witness = AlmostUnaryWitness(coord, lambda t, _s=scale, _w=wobble: range(0, _s * t + _w + 1))
    return SymbolicFn(f"au{coord}", 2, fn, witness=witness)


class TestWitnessedChecks:
    def test_min_verified(self):
        assert almost_unary_check(min_fn(), BOX).kind == "witness-verified"

    def test_lower_pairing_verified(self):
        assert almost_unary_check(PD, BOX).kind == "witness-verified"

    def test_refutation_carries_the_tuple(self):
        lying = AlmostUnaryWitness(1, lambda x: {0})
        report = almost_unary_check(max_fn(), BOX, witness=lying)
        assert report.kind == "witness-refuted"
        assert report.violation is not None
        x, y = report.violation
        assert max(x, y) != 0


class TestCensus:
    def test_max_is_not_almost_unary(self):
        report = almost_unary_check(max_fn(), BOX)
        assert report.kind == "not-almost-unary-on-box"
        # the first-coordinate fiber at 0 is the whole box
        assert report.profiles[1][0] == BOX.width

    def test_min_census_accepts(self):
        bare_min = SymbolicFn("m", 2, min)
        assert almost_unary_check(bare_min, BOX).kind == "almost-unary-on-box"

    def test_pairing_is_not(self):
        assert almost_unary_check(PR, Box(0, 16, "full")).kind == "not-almost-unary-on-box"

    def test_census_bound_is_a_plus_one(self):
        # a fiber of a + 1 values at a passes; one more value fails
        box = Box(0, 4, "full")
        tight = almost_unary_check(SymbolicFn("m", 2, min), box)
        assert tight.kind == "almost-unary-on-box"
        assert tight.profiles[1] == {a: a + 1 for a in box.points()}
        marked = SymbolicFn("m+", 2, lambda x, y: 10 + x if x == y else min(x, y))
        loose = almost_unary_check(marked, box)
        assert loose.kind == "not-almost-unary-on-box"
        assert loose.profiles[1] == {0: 2, 1: 3, 2: 4, 3: 4}


class TestDependsHeavily:
    def test_max_depends_on_both(self):
        assert depends_heavily(max_fn(), 1, BOX)
        assert depends_heavily(max_fn(), 2, BOX)

    def test_lower_pairing_first_only(self):
        assert depends_heavily(PD, 1, BOX)
        assert not depends_heavily(PD, 2, BOX)

    def test_constant_nowhere(self):
        const = SymbolicFn("c", 2, lambda x, y: 5)
        assert not depends_heavily(const, 1, BOX)
        assert not depends_heavily(const, 2, BOX)

    def test_coordinate_validation(self):
        with pytest.raises(ValueError):
            depends_heavily(max_fn(), 3, BOX)


class TestSpreadSupports:
    def test_min_needs_both_coordinates(self):
        box = Box(0, 64, "full")
        report = spread_supports(min_fn(), box, box.width)
        assert report.supports == frozenset({frozenset({1, 2})})
        assert report.pairwise_intersecting

    def test_pairing_spreads_on_each_coordinate(self):
        box = Box(0, 64, "full")
        report = spread_supports(PR, box, box.width)
        assert {frozenset({1}), frozenset({2})} <= set(report.supports)
        assert not report.pairwise_intersecting

    def test_constant_has_empty_support(self):
        report = spread_supports(SymbolicFn("c", 2, lambda x, y: 3), Box(0, 16, "full"), 8)
        assert report.supports == frozenset()

    def test_non_intersecting_supports_come_with_heavy_binarity(self):
        # contrapositive instance of the support lemma: a function whose
        # supports fail to pairwise intersect generates something beyond
        # almost-unary, and indeed the pairing itself already is
        box = Box(0, 32, "full")
        report = spread_supports(PR, box, box.width)
        assert not report.pairwise_intersecting
        assert almost_unary_check(PR, box).kind == "not-almost-unary-on-box"
        assert depends_heavily(PR, 1, box) and depends_heavily(PR, 2, box)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            spread_supports(min_fn(), Box(0, 8, "full"), 9)
        for box, threshold in ((Box(0, 8, "full"), 0), (Box(0, 8, "full"), -1),
                               (Box(0, 1, "full"), 0)):
            with pytest.raises(ValueError, match="below 1"):
                spread_supports(min_fn(), box, threshold)


class TestWitnessedSpread:
    def test_max_is_conservative(self):
        verdict = witnessed_spread_check(max_fn(), SpreadWitness(lambda x: {x}), BOX)
        assert verdict.kind == "verified"

    def test_sum_refuted_at_one_one(self):
        add = SymbolicFn("add", 2, lambda x, y: x + y)
        verdict = witnessed_spread_check(add, SpreadWitness(lambda x: {x}), BOX)
        assert verdict.kind == "refuted"
        assert verdict.witness_tuple == (1, 1)

    def test_uniform_bound_refuted(self):
        wide = SpreadWitness(lambda x: {x, x + 1}, uniform_bound=2)
        verdict = witnessed_spread_check(max_fn(), wide, BOX)
        assert verdict.kind == "bound-refuted"


class TestConfinementScan:
    def test_first_escapes_match_brute_force(self):
        rng = random.Random(5)
        outcomes = set()
        for _ in range(300):
            lo = rng.randrange(4)
            box = Box(lo, lo + rng.randrange(1, 6), "full")
            arity, r = rng.choice((1, 2, 3)), rng.randrange(1, 6)
            tuples = list(itertools.product(box.points(), repeat=arity))
            table = {args: rng.randrange(r) for args in tuples}
            sets = {x: set(rng.sample(range(r), rng.randrange(r + 1))) for x in box.points()}
            f = SymbolicFn("t", arity, lambda *args: table[args])
            built = Counter()

            def allowed(x):
                built[x] += 1
                return sets[x]

            coord = rng.randrange(1, arity + 1)
            report = almost_unary_check(f, box, AlmostUnaryWitness(coord, allowed))
            escape = next((a for a in tuples if table[a] not in sets[a[coord - 1]]), None)
            assert report.violation == escape
            assert report.kind == ("witness-verified" if escape is None else "witness-refuted")
            assert max(built.values()) == 1
            if escape is None:
                assert set(built) == set(box.points())
            outcomes.add(("witness", escape is None))

            built.clear()
            verdict = witnessed_spread_check(f, SpreadWitness(allowed), box)
            escape = next((a for a in tuples if not any(table[a] in sets[x] for x in a)), None)
            assert verdict.witness_tuple == escape
            assert verdict.kind == ("verified" if escape is None else "refuted")
            assert max(built.values()) == 1
            outcomes.add(("spread", escape is None))
        assert outcomes == {(check, ok) for check in ("witness", "spread") for ok in (True, False)}

    LO, HI = 2, 8

    @pytest.mark.parametrize("arity,coord,planted", [
        # the first row, under the fixed coordinate and under the varying one
        (2, 1, [(2, 5), (3, 2)]),
        (2, 2, [(2, 4), (2, 6)]),
        # the last column, before an escape further along
        (2, 1, [(4, 7), (5, 2)]),
        (2, 2, [(3, 7), (6, 3)]),
        # the last point of the box
        (2, 1, [(7, 7)]),
        (2, 2, [(7, 7)]),
        # ternary, under coordinate 2: fixed per row, not the last coordinate
        (3, 2, [(3, 5, 4), (3, 6, 2)]),
        (3, 2, [(2, 2, 7)]),
        (3, 2, [(7, 7, 7)]),
        (3, 3, [(2, 3, 7), (4, 2, 2)]),
        (3, 1, [(5, 2, 2)]),
    ])
    def test_planted_escapes(self, arity, coord, planted):
        """A map confined to {0} everywhere except at the planted tuples
        escapes first at the least of them, for the witness scan and for
        the per-point cover alike, and builds each allowed set once."""
        box = Box(self.LO, self.HI, "full")
        bad = set(planted)
        f = SymbolicFn("planted", arity, lambda *args: 10**6 if args in bad else 0)
        built = Counter()

        def allowed(x):
            built[x] += 1
            return range(0, x + 1)

        report = almost_unary_check(f, box, AlmostUnaryWitness(coord, allowed))
        assert (report.kind, report.violation) == ("witness-refuted", min(planted))
        assert max(built.values()) == 1
        built.clear()
        assert witnessed_spread_check(f, SpreadWitness(allowed), box).witness_tuple == min(planted)
        assert max(built.values()) == 1
        built.clear()
        clean = SymbolicFn("clean", arity, lambda *args: 0)
        report = almost_unary_check(clean, box, AlmostUnaryWitness(coord, allowed))
        assert report.kind == "witness-verified"
        assert built == Counter(box.points())

    def test_only_the_witness_coordinate_confines(self):
        """A value allowed by another coordinate's entry is still an escape."""
        box = Box(0, 6, "full")
        f = SymbolicFn("third", 3, lambda a, b, c: c)
        report = almost_unary_check(
            f, box, AlmostUnaryWitness(2, lambda x: range(0, x + 1)))
        assert report.violation == (0, 0, 1)
        report = almost_unary_check(
            f, box, AlmostUnaryWitness(3, lambda x: range(0, x + 1)))
        assert report.kind == "witness-verified"
        verdict = witnessed_spread_check(f, SpreadWitness(lambda x: {x}), box)
        assert verdict.kind == "verified"


class TestWitnessPropagation:
    def test_median_of_witnessed_parts(self):
        rng = random.Random(99)
        med = median_fn()
        for _ in range(25):
            parts = [witnessed_random_binary(rng) for _ in range(3)]
            composite = compose_fn(med, parts)
            witness = median_witness([p.witness for p in parts])
            report = almost_unary_check(composite, Box(0, 24, "full"), witness=witness)
            assert report.kind == "witness-verified"

    def test_unary_outer_composition(self):
        double = SymbolicFn("double", 1, lambda v: 2 * v)
        composite = compose_fn(double, [min_fn()])
        inner = min_fn().witness
        witness = AlmostUnaryWitness(
            inner.coordinate, lambda x: frozenset(double(v) for v in inner.allowed(x)))
        report = almost_unary_check(composite, Box(0, 24, "full"), witness=witness)
        assert report.kind == "witness-verified"

    def test_median_witness_needs_three(self):
        with pytest.raises(ValueError):
            median_witness([min_fn().witness])
