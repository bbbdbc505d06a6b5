import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import canonical_reference
import pairing_reference

from clonelab.canonical import (
    CONSTANT,
    DISJOINT_RANGES,
    FIRST_COORDINATE,
    INJECTIVE,
    NEITHER_PRECONDITION,
    OVERLAP,
    SECOND_COORDINATE,
    SYMMETRIC,
    NotCanonicalError,
    canonical_subset,
    classify_on_region,
    is_canonical,
    minimal_heavy_subterm,
    region_interaction,
    similar,
    tuple_pattern,
    unary_on_region,
)
from clonelab.pairings import nested_pairing
from clonelab.symbolic import Box, SymbolicFn, cantor_pairing, delta_pairing, max_fn, min_fn
from clonelab.terms import default_registry, parse_term

PR = cantor_pairing()
PD = delta_pairing(PR)
PARITY = SymbolicFn("par", 2, lambda x, y: (x + y) % 2)
PR_MOD_7 = SymbolicFn("pair_mod_7", 2, lambda x, y: PR(x, y) % 7)
SPARSE = [3**i for i in range(8)]  # geometric gaps keep the pair code order-driven


class TestPatterns:
    def test_count_matches_brute_force_oracle(self):
        def patterns(values):
            return {
                tuple_pattern(q)
                for q in itertools.product(values, repeat=4)
                if q[0] != q[1] and q[2] != q[3]
            }

        # four values realize every pattern that six do
        assert patterns(range(4)) == patterns(range(6))
        assert len(patterns(range(4))) == 52  # frozen regression constant

    def test_similarity_examples(self):
        assert similar((1, 3, 2, 4), (0, 5, 1, 9))
        assert similar((1, 2, 3, 4), (1, 2, 3, 4))
        assert not similar((1, 2, 3, 4), (4, 3, 2, 1))

    def test_a_pattern_is_six_signs(self):
        assert tuple_pattern((1, 3, 2, 4)) == (-1, -1, -1, 1, -1, -1)
        assert tuple_pattern((5, 0, 5, 9)) == (1, 0, -1, -1, -1, -1)

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            tuple_pattern((1, 1, 2, 3))
        with pytest.raises(ValueError):
            tuple_pattern((0, 1, 2, 2))


class TestIsCanonical:
    def test_max_is_canonical(self):
        assert is_canonical(max_fn(), range(10)) is None

    def test_parity_violation_is_a_similar_pair(self):
        witness = is_canonical(PARITY, range(10))
        assert witness is not None
        first, second = witness
        assert similar(first, second)
        lhs = (PARITY(*first[:2]) > PARITY(*first[2:])) - (PARITY(*first[:2]) < PARITY(*first[2:]))
        rhs = (PARITY(*second[:2]) > PARITY(*second[2:])) - (PARITY(*second[:2]) < PARITY(*second[2:]))
        assert lhs != rhs

    def test_constant_is_canonical(self):
        assert is_canonical(SymbolicFn("c", 2, lambda x, y: 7), range(8)) is None

    def test_pair_code_not_canonical_on_initial_segment(self):
        # the anti-diagonal weave of the code breaks pattern-determinedness
        assert is_canonical(PR, range(8)) is not None

    def test_pair_code_canonical_on_sparse_sample(self):
        assert is_canonical(PR, SPARSE) is None
        assert is_canonical(PD, SPARSE) is None

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.integers(0, 11), min_size=1, max_size=6))
    def test_monotone_under_subsets(self, subset):
        # max is canonical on the whole range, so on every subset too
        assert is_canonical(max_fn(), sorted(subset)) is None


class TestCanonicalSubset:
    def test_max_keeps_the_whole_box(self):
        report = canonical_subset(max_fn(), Box(0, 12, "full"))
        assert report.selected == tuple(range(12))
        assert report.ratio == 1.0

    def test_selection_always_passes_is_canonical(self):
        for fn in (PARITY, PR, max_fn()):
            report = canonical_subset(fn, Box(0, 14, "full"))
            assert report.selected
            assert is_canonical(fn, report.selected) is None

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 20), st.integers(1, 8),
        st.sampled_from([PARITY, PR, PR_MOD_7, max_fn()]),
    )
    def test_selection_equals_the_greedy_reference(self, lo, width, fn):
        # keep p exactly when the selection stays canonical with it
        box = Box(lo, lo + width, "full")
        selected: list[int] = []
        for p in box.points():
            if is_canonical(fn, selected + [p]) is None:
                selected.append(p)
        assert canonical_subset(fn, box).selected == tuple(selected)

    def test_singleton_box(self):
        report = canonical_subset(PARITY, Box(5, 6, "full"))
        assert report.selected == (5,)


class TestClassification:
    @pytest.mark.parametrize(
        "fn,region,expected",
        [
            (max_fn(), "delta", FIRST_COORDINATE),
            (max_fn(), "nabla", SECOND_COORDINATE),
            (min_fn(), "delta", SECOND_COORDINATE),
            (min_fn(), "nabla", FIRST_COORDINATE),
            (PR, "delta", INJECTIVE),
            (PD, "delta", INJECTIVE),
            (PD, "nabla", CONSTANT),
            (SymbolicFn("p1", 2, lambda x, y: x), "delta", FIRST_COORDINATE),
            (SymbolicFn("p2", 2, lambda x, y: y), "delta", SECOND_COORDINATE),
            (SymbolicFn("c", 2, lambda x, y: 3), "delta", CONSTANT),
        ],
    )
    def test_table(self, fn, region, expected):
        got = classify_on_region(fn, region, SPARSE)
        assert got.kind == expected

    def test_predictions_match_the_function(self):
        got = classify_on_region(max_fn(), "delta", SPARSE)
        assert got.kind == FIRST_COORDINATE
        lookup = dict(got.witness_map)
        assert all(lookup[a] == max_fn()(a, b) for a in SPARSE for b in SPARSE if a > b)

    def test_non_canonical_input_rejected(self):
        with pytest.raises(NotCanonicalError):
            classify_on_region(PARITY, "delta", range(8))

    def test_degenerate_sample_flagged(self):
        got = classify_on_region(max_fn(), "delta", [1, 5])
        assert got.kind == CONSTANT
        assert got.degenerate

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 200), min_size=3, max_size=9, unique=True),
           st.sampled_from(["delta", "nabla"]), st.sampled_from([max, min]))
    def test_witness_maps_over_a_sparse_sample_match_brute_force(self, sample, region, fn):
        pairs = [(a, b) for a in sample for b in sample if (a > b if region == "delta" else a < b)]
        got = classify_on_region(SymbolicFn("f", 2, fn), region, sample)
        index = {FIRST_COORDINATE: 0, SECOND_COORDINATE: 1}[got.kind]
        assert got.witness_map == tuple(sorted({p[index]: fn(*p) for p in pairs}.items()))

    @pytest.mark.parametrize("region", ["offdiag", "full"])
    def test_only_the_triangles_classify(self, region):
        with pytest.raises(ValueError, match="region must be delta or nabla"):
            classify_on_region(max_fn(), region, SPARSE)

    def test_a_bad_region_is_rejected_before_the_canonicity_scan(self):
        calls = []

        def parity(x, y):
            calls.append((x, y))
            return (x + y) % 2

        with pytest.raises(ValueError, match="region must be delta or nabla"):
            classify_on_region(SymbolicFn("par", 2, parity), "full", range(30))
        assert calls == []


_INTERACTION_KINDS = ("pair", "below", "max", "symmetric-pair", "pair-mod", "noise",
                      "symmetric-noise", "noise-below")
_NOISE_RANGES = (2, 6, 40, 1000)


def _interaction_fn(kind, seed, r):
    """A small binary function of the given kind; seed and r shape the noise
    and the modulus."""
    if kind == "pair":
        return PR.fn
    if kind == "below":
        return PD.fn
    if kind == "max":
        return max
    if kind == "symmetric-pair":
        return lambda x, y: PR(min(x, y), max(x, y))
    if kind == "pair-mod":
        return lambda x, y: PR(x, y) % r

    def noise(x, y):
        if kind == "symmetric-noise":
            x, y = min(x, y), max(x, y)
        rng = random.Random(seed * 1_000_003 + 7919 * x + y)
        if kind == "noise-below":
            # injective above the diagonal, and below it drawn from the
            # values above it, so the ranges mostly overlap
            return y * y + x if x < y else x * x + rng.randrange(x + 1)
        return rng.randrange(r)

    return noise


@st.composite
def small_fns(draw):
    return _interaction_fn(draw(st.sampled_from(_INTERACTION_KINDS)),
                           draw(st.integers(0, 999)), draw(st.sampled_from(_NOISE_RANGES)))


_CANON_KINDS = ("max", "min", "first", "second", "const", "pair", "below", "big-pair",
                "big-max", "pair-mod", "noise")


def _canon_fn(kind, seed, r):
    """A binary function of the given kind; seed and r shape the noise and
    the modulus.  big-pair and big-max take values beyond int64."""
    simple = {"max": max, "min": min, "first": lambda x, y: x, "second": lambda x, y: y,
              "const": lambda x, y: r, "pair": PR.fn, "below": PD.fn,
              "big-pair": lambda x, y: PR(x, y) << 70,
              "big-max": lambda x, y: max(x, y) ** 3 + 2**64,
              "pair-mod": lambda x, y: PR(x, y) % r}
    if kind in simple:
        return simple[kind]
    return lambda x, y: random.Random(seed * 1_000_003 + 7919 * x + y).randrange(r)


@st.composite
def canon_fns(draw):
    return _canon_fn(draw(st.sampled_from(_CANON_KINDS)), draw(st.integers(0, 999)),
                     draw(st.sampled_from((2, 3, 7, 1000))))


# dense samples, and sparse ones whose pair codes pass int64 from about 3^20 on
samples = st.one_of(st.sets(st.integers(0, 12), max_size=7),
                    st.sets(st.integers(0, 60), max_size=7).map(lambda es: [3**e for e in es]))


def _classification(classify, *args):
    """The fields of a classification, or the text of the error it raises."""
    try:
        got = classify(*args)
    except ValueError as exc:
        return ("raises", str(exc))
    if isinstance(got, tuple):
        return got
    return (got.kind, got.witness_map, got.value, got.degenerate)


class TestAgainstTheReference:
    @settings(max_examples=200, deadline=None)
    @given(canon_fns(), samples)
    def test_witnesses_and_classifications_match_the_reference(self, fn, sample):
        f = SymbolicFn("f", 2, fn)
        assert is_canonical(f, sample) == canonical_reference.is_canonical(fn, sample)
        for region in ("delta", "nabla"):
            assert (_classification(classify_on_region, f, region, sample)
                    == _classification(canonical_reference.classify_on_region, fn, region, sample))

    @pytest.mark.parametrize("kind", _CANON_KINDS)
    def test_each_kind_matches_the_reference_on_fixed_samples(self, kind):
        for seed, r in ((0, 2), (1, 3), (2, 1000)):
            fn = _canon_fn(kind, seed, r)
            for sample in (range(6), [3**e for e in (0, 2, 5, 41, 60)]):
                assert is_canonical(SymbolicFn("f", 2, fn), sample) == \
                    canonical_reference.is_canonical(fn, sample)

    @settings(max_examples=100, deadline=None)
    @given(canon_fns(), st.integers(0, 30), st.integers(1, 9))
    def test_selections_match_the_reference(self, fn, lo, width):
        got = canonical_subset(SymbolicFn("f", 2, fn), Box(lo, lo + width, "full"))
        assert got.selected == canonical_reference.canonical_subset(fn, lo, lo + width)

    def test_every_outcome_is_drawn(self):
        """The strategy's functions and samples reach a clash and each
        classification."""
        rng = random.Random(5)
        seen = set()
        for _ in range(300):
            fn = _canon_fn(rng.choice(_CANON_KINDS), rng.randrange(1000), rng.choice((2, 3, 7, 1000)))
            points = rng.sample(range(13), rng.randrange(8))
            sample = rng.choice((points, [3**e for e in points]))
            seen.add(canonical_reference.is_canonical(fn, sample) is None)
            seen.update(_classification(canonical_reference.classify_on_region, fn, region, sample)[0]
                        for region in ("delta", "nabla"))
        assert seen >= {True, False, "raises", CONSTANT, FIRST_COORDINATE, SECOND_COORDINATE,
                        INJECTIVE}


class TestRegionInteraction:
    def test_symmetric_construction(self):
        sym = SymbolicFn("symp", 2, lambda x, y: PR(min(x, y), max(x, y)))
        assert region_interaction(sym, Box(0, 16, "full")).verdict == SYMMETRIC

    def test_injective_pairing_has_disjoint_ranges(self):
        assert region_interaction(PR, Box(0, 16, "full")).verdict == DISJOINT_RANGES

    def test_max_fails_the_precondition(self):
        assert region_interaction(max_fn(), Box(0, 16, "full")).verdict == NEITHER_PRECONDITION

    def test_lower_pairing_disjoint(self):
        assert region_interaction(PD, Box(0, 16, "full")).verdict == DISJOINT_RANGES

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(0, 10), st.integers(1, 7))
    def test_verdict_and_witness_match_the_reference(self, data, lo, w):
        fn = data.draw(small_fns())
        got = region_interaction(SymbolicFn("f", 2, fn), Box(lo, lo + w, "full"))
        assert (got.verdict, got.witness) == pairing_reference.region_interaction(
            fn, (lo, lo + w, "full"))

    def test_every_verdict_is_drawn(self):
        """The strategy's functions reach each verdict."""
        rng = random.Random(11)
        seen = set()
        for _ in range(300):
            fn = _interaction_fn(rng.choice(_INTERACTION_KINDS), rng.randrange(1000),
                                 rng.choice(_NOISE_RANGES))
            lo = rng.randrange(0, 11)
            seen.add(pairing_reference.region_interaction(
                fn, (lo, lo + rng.randrange(1, 8), "full"))[0])
        assert seen == {NEITHER_PRECONDITION, SYMMETRIC, DISJOINT_RANGES, OVERLAP}

    @pytest.mark.parametrize("kind", _INTERACTION_KINDS)
    def test_evaluates_f_at_most_once_per_point_of_the_square(self, kind):
        fn = _interaction_fn(kind, 7, 40)
        for lo, w in ((0, 1), (2, 9), (5, 24)):
            calls = []
            counted = SymbolicFn("f", 2, lambda x, y: calls.append((x, y)) or fn(x, y))
            region_interaction(counted, Box(lo, lo + w, "full"))
            assert len(calls) <= w * w

    def test_a_composite_on_its_own_square_is_read_not_called(self):
        calls = []
        sym = lambda x, y: PR(min(x, y), max(x, y))  # noqa: E731
        box = Box(3, 15, "offdiag")
        out = nested_pairing(SymbolicFn("f", 2, lambda x, y: calls.append((x, y)) or sym(x, y)), box)
        calls.clear()
        got = region_interaction(out, box.with_region("full"))
        assert calls == []
        assert (got.verdict, got.witness) == pairing_reference.region_interaction(
            out, (3, 15, "full"))


class TestTermRegionAnalysis:
    def test_violations_are_the_first_clashes_of_the_scan(self):
        report = unary_on_region(parse_term("(b:pair x y)"), Box(0, 12, "full"), "delta", default_registry())
        assert report.x_violation == ((2, 0), (2, 1))
        assert report.y_violation == ((1, 0), (2, 0))

    def test_unary_application_factors_through_x(self):
        report = unary_on_region(parse_term("(u:succ x)"), Box(0, 12, "full"), "delta", default_registry())
        assert report.factors and report.side == "x"

    def test_max_on_delta_is_first_coordinate(self):
        report = unary_on_region(parse_term("(b:max x y)"), Box(0, 12, "full"), "delta", default_registry())
        assert report.factors and report.side == "x"

    def test_pairing_fails_both_sides(self):
        report = unary_on_region(parse_term("(b:pair x y)"), Box(0, 12, "full"), "delta", default_registry())
        assert not report.factors
        (p1, p2) = report.x_violation
        assert p1[0] == p2[0] and p1 != p2

    def test_minimal_heavy_subterm_is_the_pair_node(self):
        registry = default_registry()
        box = Box(0, 12, "full")
        report = minimal_heavy_subterm(parse_term("(b:pair x y)"), box, registry)
        assert report is not None and report.path == ()
        assert minimal_heavy_subterm(parse_term("(u:succ (u:double x))"), box, registry) is None
        report = minimal_heavy_subterm(parse_term("(u:succ (b:pair x y))"), box, registry)
        assert report is not None and report.path == (0,)
