import random

import pytest
from hypothesis import given, settings, strategies as st

import pairing_reference as ref

from clonelab.combinatorics import (
    constant_coloring,
    hausdorff_family,
    product_coloring,
    sum_coloring,
)
from clonelab.pairings import (
    InvalidMergeError,
    color_gated_pairing,
    family_generators,
    marked_merge,
    nested_pairing,
    recovered_pairing,
    split_merge_pairing,
    two_sided_pairing,
)
from clonelab.symbolic import (
    Box,
    ConstructionRefuted,
    SymbolicFn,
    cantor_pairing,
    check_injective_on,
    delta_pairing,
    injective_on,
    max_fn,
    standard_merge,
)

PR = cantor_pairing()
PD = delta_pairing(PR)


class TestGatedPairing:
    def test_degenerate_cases_force_max(self):
        gate = color_gated_pairing({0}, sum_coloring(2), PR)
        for b in range(12):
            assert gate(0, b) == b
            assert gate(b, 0) == b
            assert gate(b, b) == b

    def test_gate_passes_matching_color(self):
        gate = color_gated_pairing({0}, sum_coloring(2), PR)
        assert gate(1, 3) == PR(1, 3)  # color (1+3) % 2 = 0
        assert gate(1, 2) == 0        # color 1 is outside the gate

    def test_rejects_colors_outside_the_space(self):
        with pytest.raises(ValueError):
            color_gated_pairing({5}, sum_coloring(2), PR)


class TestRecoveredPairing:
    def test_matches_base_pairing_for_any_admissible_cover(self):
        rng = random.Random(5)
        mu = 8
        box = Box(1, 64, "offdiag")
        for coloring in (sum_coloring(mu), product_coloring(mu)):
            for _ in range(10):
                a = frozenset(c for c in range(mu) if rng.random() < 0.5)
                b = (frozenset(range(mu)) - a) | frozenset(
                    c for c in range(mu) if rng.random() < 0.3
                )
                recovered = recovered_pairing(a, b, coloring, PR)
                assert all(recovered(x, y) == PR(x, y) for x, y in box.pairs())

    def test_zero_argument_passthrough(self):
        recovered = recovered_pairing({0}, {1}, sum_coloring(2), PR)
        for b in range(16):
            assert recovered(0, b) == b

    def test_cover_violation_rejected(self):
        with pytest.raises(ValueError):
            recovered_pairing({0}, {1}, sum_coloring(3), PR)


class TestTwoSidedPairing:
    def test_injective_off_diagonal(self):
        fn = two_sided_pairing(marked_merge(), PR, check_box=Box(0, 32, "offdiag"))
        assert injective_on(fn, Box(0, 200, "offdiag"))

    def test_constant_on_diagonal(self):
        fn = two_sided_pairing(marked_merge(), PR)
        assert len({fn(x, x) for x in range(20)}) == 1

    def test_lower_triangle_branch_is_marked_identity(self):
        fn = two_sided_pairing(marked_merge(), PR)
        for x in range(12):
            for y in range(x):
                assert fn(x, y) == 4 * PD(x, y) + 1

    def test_merge_violating_identities_rejected(self):
        bad = SymbolicFn("bad", 2, lambda a, b: 0)
        with pytest.raises(InvalidMergeError):
            two_sided_pairing(bad, PR, check_box=Box(0, 8, "offdiag"))


class TestNestedPairing:
    def test_dominating_fixture(self):
        bump = SymbolicFn("bump", 2, lambda x, y: max(x, y) + 1 + PR(min(x, y), max(x, y)))
        box = Box(0, 48, "offdiag")
        assert injective_on(nested_pairing(bump, box), box)

    def test_lifts_a_non_dominating_argument(self):
        flat = SymbolicFn("flat", 2, lambda x, y: PR(min(x, y), max(x, y)) // 2)
        box = Box(0, 24, "offdiag")
        assert injective_on(nested_pairing(flat, box), box)

    def test_max_is_refuted(self):
        with pytest.raises(ConstructionRefuted):
            nested_pairing(max_fn(), Box(0, 16, "offdiag"))

    def test_asymmetric_argument_refuted(self):
        with pytest.raises(ConstructionRefuted):
            nested_pairing(PR, Box(0, 16, "offdiag"))

    def test_degenerate_box_is_vacuous(self):
        bump = SymbolicFn("bump", 2, lambda x, y: max(x, y) + 1 + PR(min(x, y), max(x, y)))
        fn = nested_pairing(bump, Box(0, 1, "offdiag"))
        assert fn(0, 0) >= 0  # nothing to collide on; the construction stands


class TestSplitMergePairing:
    def test_transposed_lower_pairing(self):
        below_t = SymbolicFn("below_t", 2, lambda x, y: PD(y, x))
        box = Box(0, 40, "offdiag")
        assert injective_on(split_merge_pairing(below_t, standard_merge(), box), box)

    def test_branch_parities_split(self):
        below_t = SymbolicFn("below_t", 2, lambda x, y: PD(y, x))
        box = Box(0, 24, "offdiag")
        fn = split_merge_pairing(below_t, standard_merge(), box)
        for x, y in box.pairs():
            assert fn(x, y) % 2 == (1 if x > y else 0)

    def test_symmetric_argument_refuted(self):
        sym = SymbolicFn("sym", 2, lambda x, y: PR(min(x, y), max(x, y)))
        with pytest.raises(ConstructionRefuted):
            split_merge_pairing(sym, standard_merge(), Box(0, 16, "offdiag"))


class TestFamilyGenerators:
    def test_one_generator_per_index(self):
        fam = hausdorff_family(3, 4)
        coloring = constant_coloring(len(fam.base), 0)
        gens = family_generators(fam, {0, 2}, coloring, PR)
        assert len(gens) == 3
        assert [g.name for g in gens] == ["gate+0", "gate-1", "gate+2"]

    def test_included_and_complement_recombine_to_the_pairing(self):
        fam = hausdorff_family(2, 3)
        mu = len(fam.base)
        coloring = sum_coloring(mu)
        # index 0 included in one family of clones, complemented in another:
        # the two gates cover the color space, so recovery applies
        recovered = recovered_pairing(
            fam.sets[0], frozenset(range(mu)) - fam.sets[0], coloring, PR
        )
        assert all(recovered(x, y) == PR(x, y) for x, y in Box(1, 24, "offdiag").pairs())

    def test_full_inclusion_has_no_complements(self):
        fam = hausdorff_family(3, 4)
        coloring = constant_coloring(len(fam.base), 0)
        gens = family_generators(fam, {0, 1, 2}, coloring, PR)
        assert all(g.name.startswith("gate+") for g in gens)


def counting(name, fn):
    """A SymbolicFn that records each argument pair it is evaluated at."""
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return fn(x, y)

    return SymbolicFn(name, 2, counted), calls


class TestEvaluatedOncePerPoint:
    @pytest.mark.parametrize("lo,w", [(1, 12), (5, 33), (40, 64)])
    def test_nested_build_evaluates_the_square_and_one_outer_call_per_point(self, lo, w):
        bump, calls = counting(
            "bump", lambda x, y: max(x, y) + 1 + PR(min(x, y), max(x, y)))
        box = Box(lo, lo + w, "offdiag")
        out = nested_pairing(bump, box)
        assert len(calls) <= w * w + w * (w - 1)
        assert len(set(calls)) == len(calls)
        built = len(calls)
        assert check_injective_on(out, box) is None
        assert len(calls) - built <= w * (w - 1)
        assert len(calls) == built  # the check reads the verified table
        top = lo + w - 1
        out(top, top)  # the composite's diagonal is not in the table
        assert len(calls) == built + 1
        out(lo + w, lo)
        assert len(calls) > built + 1

    @pytest.mark.parametrize("lo,w", [(0, 8), (3, 40)])
    def test_split_merge_build_evaluates_the_square_once(self, lo, w):
        below_t, calls = counting("below_t", lambda x, y: PD(y, x))
        box = Box(lo, lo + w, "offdiag")
        out = split_merge_pairing(below_t, standard_merge(), box)
        assert len(calls) == w * w
        for region in ("delta", "nabla", "offdiag"):
            assert check_injective_on(out, box.with_region(region)) is None
        for x, y in box.with_region("full").pairs():
            out(x, y)
        assert len(calls) == w * w
        out(lo + w, lo)  # outside the square the argument is evaluated again
        assert len(calls) == w * w + 2


def _noise(seed, r):
    def fn(x, y):
        return random.Random(seed * 1_000_003 + 7919 * x + y).randrange(r)
    return fn


_BASES = {
    "pair": lambda x, y: PR(x, y),
    "symmetric-pair": lambda x, y: PR(min(x, y), max(x, y)),
    "triangular": lambda x, y: max(x, y) * (max(x, y) + 1) // 2 + min(x, y),
    "below": lambda x, y: PD(y, x),
    "coarse-above": lambda x, y: y // 2 + 1 if x < y else 0,
    "max": max,
    "min": min,
    "sum": lambda x, y: x + y,
    "product-mod": lambda x, y: (x * y) % 7,
    # symmetric and injective on every drawn box, whose hi is below 24, and
    # 0 wherever the nested composite's outer call lands
    "box-capped": lambda x, y: PR(min(x, y), max(x, y)) + 24 if max(x, y) < 24 else 0,
}


@st.composite
def binary_fns(draw):
    """Plain binary callables: symmetric or not, injective on a triangle or
    not, dominating max or not, and arbitrary noise."""
    kind = draw(st.sampled_from(sorted(_BASES) + ["noise", "symmetric-noise"]))
    if kind == "noise":
        base = _noise(draw(st.integers(0, 999)), draw(st.integers(2, 400)))
    elif kind == "symmetric-noise":
        noise = _noise(draw(st.integers(0, 999)), draw(st.integers(2, 400)))
        base = lambda x, y: noise(min(x, y), max(x, y))  # noqa: E731
    else:
        base = _BASES[kind]
    scale, offset = draw(st.integers(1, 3)), draw(st.integers(-6, 6))
    modulus = draw(st.sampled_from([None, None, 5, 97]))

    def fn(x, y):
        v = scale * base(x, y) + offset
        return v % modulus if modulus else v

    return fn


_MERGES = {
    "standard": standard_merge().fn,
    "max": max,
    "sum": lambda a, b: a + b,
    "first-even": lambda a, b: b if a == 0 else (a if b == 1 or a % 4 else 0),
}

boxes = st.builds(lambda lo, w: Box(lo, lo + w, "offdiag"), st.integers(0, 12), st.integers(1, 9))


def outcome(build, *args):
    """('built', composite), ('refuted', message, witness) or ('merge', message),
    for clonelab and the reference alike."""
    try:
        return ("built", build(*args))
    except (ConstructionRefuted, ref.Refuted) as exc:
        return ("refuted", str(exc), exc.witness)
    except (InvalidMergeError, ref.InvalidMerge) as exc:
        return ("merge", str(exc))


def assert_same_outcome(got, want, box):
    assert got[0] == want[0]
    if got[0] != "built":
        assert got[1:] == want[1:]
        return
    grid = range(max(0, box.lo - 3), box.hi + 4)
    for x in grid:
        for y in grid:
            assert got[1](x, y) == want[1](x, y), (x, y)
    # the verified table on the box, and the reader on a wider window
    for lo, hi in ((box.lo, box.hi), (max(0, box.lo - 1), box.hi + 1)):
        for region in ("delta", "nabla", "offdiag", "full"):
            assert check_injective_on(got[1], Box(lo, hi, region)) == ref.collision(
                want[1], (lo, hi, region)), (lo, hi, region)


class TestAgainstTheScalarReference:
    @settings(max_examples=150, deadline=None)
    @given(binary_fns(), boxes)
    def test_nested_pairing(self, fn, box):
        got = outcome(nested_pairing, SymbolicFn("f", 2, fn), box)
        want = outcome(ref.nested, fn, (box.lo, box.hi, box.region))
        assert_same_outcome(got, want, box)

    @settings(max_examples=150, deadline=None)
    @given(binary_fns(), st.sampled_from(sorted(_MERGES)), boxes)
    def test_split_merge_pairing(self, fn, merge, box):
        got = outcome(split_merge_pairing, SymbolicFn("f", 2, fn),
                      SymbolicFn("merge", 2, _MERGES[merge]), box)
        want = outcome(ref.split_merge, fn, _MERGES[merge], (box.lo, box.hi, box.region))
        assert_same_outcome(got, want, box)

    @settings(max_examples=100, deadline=None)
    @given(binary_fns(), boxes, st.sampled_from(["delta", "nabla", "offdiag", "full"]))
    def test_check_injective_on(self, fn, box, region):
        box = box.with_region(region)
        assert check_injective_on(SymbolicFn("f", 2, fn), box) == ref.collision(
            fn, (box.lo, box.hi, region))

    @settings(max_examples=40, deadline=None)
    @given(boxes.filter(lambda b: b.width >= 2))
    def test_a_composite_collision_has_the_reference_witness(self, box):
        fn = _BASES["box-capped"]
        got = outcome(nested_pairing, SymbolicFn("f", 2, fn), box)
        assert got[:2] == ("refuted", "composite not injective off the diagonal")
        assert got == outcome(ref.nested, fn, (box.lo, box.hi, box.region))

    def test_every_outcome_is_drawn(self):
        """The strategies reach each refutation and both builds."""
        seen = set()
        rng = random.Random(5)
        for _ in range(400):
            lo = rng.randrange(0, 12)
            box = (lo, lo + rng.randrange(2, 9), "offdiag")
            fn = _BASES[rng.choice(sorted(_BASES))]
            merge = _MERGES[rng.choice(sorted(_MERGES))]
            for build, got in (("nested", outcome(ref.nested, fn, box)),
                               ("split", outcome(ref.split_merge, fn, merge, box))):
                seen.add((build, got[1] if got[0] != "built" else "built"))
        assert {
            ("nested", "built"),
            ("nested", "argument not symmetric"),
            ("nested", "argument not injective below the diagonal"),
            ("nested", "composite not injective off the diagonal"),
            ("split", "built"),
            ("split", "triangle images are not disjoint"),
            ("split", "argument not injective above the diagonal"),
            ("split", "merge(2, 1) != 2"),
        } <= seen
