"""The named experiment batteries behind `clonelab suite` and the tests.

Each criterion function performs one self-contained verification and
returns a CriterionResult; nothing here tolerates a failed check by
loosening it, so a red criterion stays red until the underlying facts
change.  Anything randomized derives from the seed and is echoed in the
details for reproducibility.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from . import almost_unary as au
from . import canonical as canon
from .combinatorics import (
    IndependentFamily,
    constant_coloring,
    hausdorff_family,
    partition_check,
    product_coloring,
    sum_coloring,
    verify_independent,
)
from .finite import (
    Carrier,
    OpTable,
    all_op_tables,
    clone_closure,
    op_space_size,
    pol,
    reduce_generators,
)
from .ideals import PrincipalIdeal, decompose_with, preserves_ideal
from .lattice import precompleteness_evidence, unary_interval_chain
from .pairings import (
    color_gated_pairing,
    marked_merge,
    nested_pairing,
    recovered_pairing,
    split_merge_pairing,
    two_sided_pairing,
)
from .symbolic import (
    AlmostUnaryWitness,
    Box,
    SymbolicFn,
    cantor_pairing,
    check_injective_on,
    compose_fn,
    delta_pairing,
    max_fn,
    median_fn,
    min_fn,
    standard_merge,
)
from .terms import (
    SubsetSpec,
    agreement_holds,
    bounded_term_search,
    default_registry,
    eval_term,
    find_agreement,
    parse_term,
    partial_eval,
)

DEFAULT_SEED = 917


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0


def _result(cid: int, name: str):
    def wrap(fn):
        def run(seed: int = DEFAULT_SEED) -> CriterionResult:
            t0 = time.perf_counter()
            passed, details = fn(seed)
            return CriterionResult(cid, name, passed, details, time.perf_counter() - t0)

        run.cid = cid
        run.criterion_name = name
        return run

    return wrap


@_result(1, "unary-interval-chain")
def criterion_unary_chain(seed):
    report = unary_interval_chain(Carrier(2), 2, 3)
    passed = report.count == 3 and report.is_chain
    return passed, {
        "clone_count": report.count,
        "is_chain": report.is_chain,
        "sizes": [len(c) for c in report.clones],
    }


@_result(2, "ideal-clone-regeneration")
def criterion_regeneration(seed):
    # with the ideal clone, every operation outside it regenerates every
    # operation: exhaustive on carrier 2 up to arity 3, and on carrier 3 up
    # to arity 2 against the reduced core, which an engine fill shows to
    # generate the whole binary slice of the ideal clone
    c2 = Carrier(2)
    gens2 = list(pol(PrincipalIdeal(c2, 1).relation(), 2))
    regenerate2 = precompleteness_evidence(gens2, c2, 3, 4).kind == "precomplete-evidence"
    clone2 = clone_closure(gens2, c2, 3)

    c3 = Carrier(3)
    ideal_clone3 = pol(PrincipalIdeal(c3, 2).relation(), 2)
    core = reduce_generators(list(ideal_clone3), c3, 2)
    regenerate3 = precompleteness_evidence(core, c3, 2, 3).kind == "precomplete-evidence"
    clone3 = clone_closure(core, c3, 2)
    core_fills = clone3 == ideal_clone3

    def outside(clone):
        return sum(op_space_size(clone.carrier, n) - size for n, size in clone.counts().items())

    return regenerate2 and regenerate3 and core_fills, {
        "carrier2_outside_ops": outside(clone2),
        "carrier2_all_regenerate": regenerate2,
        "carrier3_outside_ops": outside(clone3),
        "carrier3_all_regenerate": regenerate3,
        "reduced_core_size": len(core),
        "reduced_core_slice": clone3.counts(),
        "reduced_core_fills_slice": core_fills,
    }


@_result(3, "decomposition-identity")
def criterion_decomposition(seed):
    c2 = Carrier(2)
    ideal2 = PrincipalIdeal(c2, 1)
    negation = OpTable(c2, 1, (1, 0))
    ok2 = all(
        decompose_with(g, negation, ideal2).verified for g in all_op_tables(c2, 2)
    )

    c3 = Carrier(3)
    ideal3 = PrincipalIdeal(c3, 2)
    rng = random.Random(seed)
    checked = 0
    ok3 = True
    while checked < 100:
        fa = rng.choice((1, 2))
        f = OpTable(c3, fa, tuple(rng.randrange(3) for _ in range(3**fa)))
        if preserves_ideal(f, ideal3):
            continue
        witness = ideal3.largest_member()
        image = {f(*args) for args in itertools.product(witness, repeat=f.arity)}
        if len(image) < 2:
            continue  # degenerate witness: excluded by the criterion
        ga = rng.choice((1, 2))
        g = OpTable(c3, ga, tuple(rng.randrange(3) for _ in range(3**ga)))
        cert = decompose_with(g, f, ideal3)
        if not cert.verified:
            ok3 = False
            break
        checked += 1
    return ok2 and ok3, {
        "carrier2_pairs": 16,
        "carrier2_ok": ok2,
        "carrier3_pairs": checked,
        "carrier3_ok": ok3,
        "seed": seed,
    }


@_result(4, "ideal-reconstruction")
def criterion_reconstruction(seed):
    from .ideals import reconstructs_ideal

    verdicts = {}
    for k in (2, 3):
        carrier = Carrier(k)
        for e in range(k):
            verdicts[f"carrier{k}-excl{e}"] = reconstructs_ideal(PrincipalIdeal(carrier, e))
    return all(verdicts.values()), verdicts


@_result(5, "recovered-pairing-identity")
def criterion_recovered_pairing(seed):
    pr = cantor_pairing()
    rng = random.Random(seed)
    mu = 8
    box = Box(1, 64, "offdiag")
    covers = 0
    for coloring in (sum_coloring(mu), product_coloring(mu)):
        for _ in range(10):
            a = frozenset(c for c in range(mu) if rng.random() < 0.5)
            b = frozenset(range(mu)) - a
            b |= frozenset(c for c in range(mu) if rng.random() < 0.3)
            pp = recovered_pairing(a, b, coloring, pr)
            for x, y in box.pairs():
                if pp(x, y) != pr(x, y):
                    return False, {"cover": (sorted(a), sorted(b)), "at": (x, y)}
            covers += 1
    return True, {"covers": covers, "box": box.spec(), "seed": seed}


@_result(6, "pairing-constructions-injective")
def criterion_pairings(seed):
    pr = cantor_pairing()
    code, below = pr.evaluator(2), delta_pairing(pr).evaluator(2)
    box = Box(0, 128, "offdiag")
    results = {}

    two_sided = two_sided_pairing(marked_merge(), pr, check_box=Box(0, 32, "offdiag"))
    results["two_sided"] = check_injective_on(two_sided, box) is None

    bump = SymbolicFn(
        "bump", 2, lambda x, y: max(x, y) + 1 + code(min(x, y), max(x, y))
    )
    nested = nested_pairing(bump, box)
    results["nested"] = check_injective_on(nested, box) is None

    transposed = SymbolicFn("below_t", 2, lambda x, y: below(y, x))
    split = split_merge_pairing(transposed, standard_merge(), box)
    results["split_merge"] = check_injective_on(split, box) is None

    return all(results.values()), {**results, "box": box.spec()}


def _term_corpus() -> list:
    """Fixed corpus of 54 terms over gates, max, min and the unary library."""
    unary = ["id", "succ", "double"]
    binary = ["gateA", "gateB", "max", "min"]
    terms = []
    for u in unary:
        terms.append(parse_term(f"(u:{u} x)"))
        terms.append(parse_term(f"(u:{u} (u:succ y))"))
        terms.append(parse_term(f"(u:{u} 5)"))
    for b in binary:
        terms.append(parse_term(f"(b:{b} (u:succ x) (u:double y))"))
        terms.append(parse_term(f"(b:{b} (u:double x) (u:succ x))"))
        terms.append(parse_term(f"(b:{b} x 7)"))
        terms.append(parse_term(f"(b:{b} 3 (u:succ y))"))
        terms.append(parse_term(f"(b:{b} 2 6)"))
        terms.append(parse_term(f"(b:{b} (u:succ y) (u:double x))"))
        terms.append(parse_term(f"(b:{b} y (u:double y))"))
    for b in ("gateA", "gateB"):
        terms.append(parse_term(f"(u:succ (b:{b} (u:succ x) (u:double y)))"))
        terms.append(parse_term(f"(b:{b} (b:{b} (u:succ x) y) 4)"))
        terms.append(parse_term(f"(b:max (b:{b} (u:succ x) (u:double y)) 1)"))
        terms.append(parse_term(f"(b:{b} (u:double y) (u:succ x))"))
        terms.append(parse_term(f"(b:min (b:{b} x (u:succ y)) (b:{b} x (u:succ y)))"))
        terms.append(parse_term(f"(u:double (b:{b} (u:succ x) 9))"))
    for t in ("(b:max x y)", "(b:min (u:succ x) (u:succ y))",
              "(b:max (u:double x) y)", "(b:min y x)",
              "(u:succ (u:succ (u:double x)))"):
        terms.append(parse_term(t))
    return terms


@_result(7, "partial-evaluator-conformance")
def criterion_partial_eval(seed):
    from .terms import CONST, UNARY_X, UNARY_Y, thin_for

    pr = cantor_pairing()
    mu = 4
    coloring = constant_coloring(mu, 0)
    registry = default_registry()
    registry.register(color_gated_pairing({0, 1}, coloring, pr, name="gateA"))
    registry.register(color_gated_pairing({2, 3}, coloring, pr, name="gateB"))
    corpus = _term_corpus()
    naturals = SubsetSpec.naturals()

    shapes = {CONST: 0, UNARY_X: 0, UNARY_Y: 0}
    rng = random.Random(seed)
    thinned: list[SubsetSpec] = []
    found_pairs = 0
    for t in corpus:
        subset = naturals
        res = partial_eval(t, subset, registry)
        if not res.defined:
            subset = thin_for([t], naturals, registry)
            thinned.append(subset)
            res = partial_eval(t, subset, registry)
        if not res.defined:
            return False, {"term": t, "reason": "undefined even after thinning"}
        shapes[res.kind] += 1
        if res.kind in (UNARY_X, UNARY_Y):
            probes = subset.first(24)
            values = [res.map(p) for p in probes]
            if len(set(values)) != len(values):
                return False, {"term": t, "reason": "claimed 1-1 map collides"}
        pair = find_agreement(t, subset, coloring, 0, registry, search_bound=24)
        if pair is None:
            continue
        found_pairs += 1
        if not agreement_holds(t, res, coloring, 0, registry, pair):
            return False, {"term": t, "pair": pair, "reason": "post-hoc conjunct failed"}
    passed = len(corpus) >= 50 and found_pairs > 0
    return passed, {
        "corpus": len(corpus),
        "shapes": shapes,
        "thinned_terms": len(thinned),
        "agreement_pairs": found_pairs,
        "thin_depth_max": max((s.depth for s in thinned), default=0),
        "thin_scanned": sum(s.scanned for s in thinned),
    }


@_result(8, "bounded-term-search-evidence")
def criterion_term_search(seed):
    pr = cantor_pairing()
    mu = 4
    coloring = sum_coloring(mu)
    gate_a = color_gated_pairing({0, 1}, coloring, pr, name="gateA")
    gate_b = color_gated_pairing({2, 3}, coloring, pr, name="gateB")
    registry = default_registry()
    registry.register(gate_a)
    registry.register(gate_b)
    box = Box(1, 40, "full")
    unary_lib = {"id": registry.get_unary("id"), "succ": registry.get_unary("succ")}

    negative = bounded_term_search(gate_a, {"gateB": gate_b}, unary_lib, 3, box)
    positive = bounded_term_search(
        recovered_pairing({0, 1}, {2, 3}, coloring, pr),
        {"gateA": gate_a, "gateB": gate_b},
        {"id": registry.get_unary("id")},
        2,
        box,
    )
    positive_ok = positive.term is not None
    if positive_ok:
        positive_ok = all(
            eval_term(positive.term, x, y, registry)
            == recovered_pairing({0, 1}, {2, 3}, coloring, pr)(x, y)
            for x, y in box.pairs()
        )
    return (negative.term is None) and positive_ok, {
        "negative_found": negative.term is not None,
        "negative_stats": negative.stats.per_depth,
        "positive_depth_sizes": positive.stats.per_depth,
        "positive_found": positive.term is not None,
    }


@_result(9, "canonical-classification-table")
def criterion_canonical(seed):
    pr = cantor_pairing()
    pd = delta_pairing(pr)
    sample = [3**i for i in range(8)]  # geometric gap keeps the pair code order-driven
    proj1 = SymbolicFn("p1", 2, lambda x, y: x)
    proj2 = SymbolicFn("p2", 2, lambda x, y: y)
    const = SymbolicFn("c5", 2, lambda x, y: 5)
    expected = {
        ("max", "delta"): canon.FIRST_COORDINATE,
        ("max", "nabla"): canon.SECOND_COORDINATE,
        ("min", "delta"): canon.SECOND_COORDINATE,
        ("min", "nabla"): canon.FIRST_COORDINATE,
        ("pair", "delta"): canon.INJECTIVE,
        ("pair", "nabla"): canon.INJECTIVE,
        ("pair_below_diag", "delta"): canon.INJECTIVE,
        ("pair_below_diag", "nabla"): canon.CONSTANT,
        ("c5", "delta"): canon.CONSTANT,
        ("p1", "delta"): canon.FIRST_COORDINATE,
        ("p2", "delta"): canon.SECOND_COORDINATE,
    }
    fns = {f.name: f for f in (max_fn(), min_fn(), pr, pd, const, proj1, proj2)}
    table = {}
    for (name, region), want in expected.items():
        got = canon.classify_on_region(fns[name], region, sample)
        table[f"{name}@{region}"] = got.kind
        if got.kind != want:
            return False, {"mismatch": f"{name}@{region}", "got": got.kind, "want": want}

    box = Box(0, 24, "full")
    interactions = {}
    code = pr.evaluator(2)
    symmetric_pair = SymbolicFn("symp", 2, lambda x, y: code(min(x, y), max(x, y)))
    for f in (pr, pd, symmetric_pair):
        verdict = canon.region_interaction(f, box).verdict
        interactions[f.name] = verdict
        if verdict not in (canon.SYMMETRIC, canon.DISJOINT_RANGES):
            return False, {"interaction": f.name, "got": verdict}
    return True, {"table": table, "interactions": interactions}


@_result(10, "finite-partition-instances")
def criterion_partition(seed):
    six = partition_check(6, 3, 2, 2)
    five = partition_check(5, 3, 2, 2)
    return six is True and five is False, {"n6": six, "n5": five}


@_result(11, "almost-unary-calculus")
def criterion_almost_unary(seed):
    pr = cantor_pairing()
    pd = delta_pairing(pr)
    box = Box(0, 64, "full")
    checks = {}
    checks["pd_witness"] = au.almost_unary_check(pd, Box(0, 48, "full")).kind == "witness-verified"
    checks["max_census"] = au.almost_unary_check(max_fn(), box).kind == "not-almost-unary-on-box"

    rng = random.Random(seed)

    def witnessed_binary() -> SymbolicFn:
        coord = rng.choice((1, 2))
        scale = rng.randrange(1, 4)
        wobble = rng.randrange(0, 5)
        def fn(x, y, _c=coord, _s=scale, _w=wobble):
            t = (x, y)[_c - 1]
            o = (x, y)[2 - _c]
            return _s * t + (o % (_w + 1))
        witness = AlmostUnaryWitness(
            coord, lambda t, _s=scale, _w=wobble: range(0, _s * t + _w + 1)
        )
        return SymbolicFn(f"au{coord}", 2, fn, witness=witness)

    med = median_fn()
    med_ok = True
    for _ in range(50):
        parts = [witnessed_binary() for _ in range(3)]
        composite = compose_fn(med, parts)
        witness = au.median_witness([p.witness for p in parts])
        if au.almost_unary_check(composite, box, witness=witness).kind != "witness-verified":
            med_ok = False
            break
    checks["median_composites"] = med_ok

    min_rep = au.spread_supports(min_fn(), box, box.width)
    checks["min_supports"] = (
        min_rep.supports == frozenset({frozenset({1, 2})}) and min_rep.pairwise_intersecting
    )
    pr_rep = au.spread_supports(pr, box, box.width)
    checks["pr_supports"] = (
        {frozenset({1}), frozenset({2})} <= set(pr_rep.supports)
        and not pr_rep.pairwise_intersecting
    )
    return all(checks.values()), {**checks, "seed": seed}


@_result(12, "independent-families")
def criterion_independence(seed):
    fam = hausdorff_family(3, 4)
    good = verify_independent(fam, 3)
    universe = frozenset(range(len(fam.base)))
    half = frozenset(range(len(fam.base) // 2))
    complementary = IndependentFamily(fam.base, (half, universe - half))
    bad = verify_independent(complementary, 2)
    return good and not bad, {
        "hausdorff_base": len(fam.base),
        "hausdorff_ok": good,
        "complementary_rejected": not bad,
    }


ACCEPTANCE = [
    criterion_unary_chain,
    criterion_regeneration,
    criterion_decomposition,
    criterion_reconstruction,
    criterion_recovered_pairing,
    criterion_pairings,
    criterion_partial_eval,
    criterion_term_search,
    criterion_canonical,
    criterion_partition,
    criterion_almost_unary,
    criterion_independence,
]

FAST = [
    criterion_unary_chain,
    criterion_reconstruction,
    criterion_recovered_pairing,
    criterion_pairings,
    criterion_canonical,
    criterion_partition,
    criterion_independence,
]


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    if name == "acceptance":
        battery = ACCEPTANCE
    elif name == "fast":
        battery = FAST
    else:
        raise ValueError(f"unknown suite {name!r}; choose acceptance or fast")
    return [criterion(seed) for criterion in battery]
