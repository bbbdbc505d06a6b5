"""Seeded job lists for the three workloads.

A job is a closed-loop unit of work: `run` makes only calls into clonelab
(through the tracer) and returns the verdict; `check` compares it with the
known answer from `oracles` outside the timer.  The seed chooses the inputs
(random operations, the excluded point, boxes, witnessed functions and
carrier-permutation conjugates) but never the length of a list or its known
answers.  Inputs are built here from plain tables, so they do not depend on
the code under test.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from clonelab import almost_unary, canonical, combinatorics, finite, ideals, lattice
from clonelab import pairings, symbolic, terms
from clonelab.finite import Carrier, OpTable, RelationTable

import oracles

WORKLOADS = ("regen", "wide-slices", "box-terms")

# k^(k^n) at or below this is a narrow table space; it is a property of the
# input, so the split survives any change of closure engine.
NARROW_SPACE = 1 << 20

# Recorded, not run: <maj, not> (the self-dual clone D) at carrier 2, arity 5
# has 2^16 tables, but the row engine asks numpy for a 10260 x 10260 x 32
# int32 block (12.5 GiB) after about 20 s.  Under a 3 GiB address-space
# limit it raised MemoryError at 476 MB peak; a larger machine would try to
# allocate it.  <maj> at arity 6 ran past 120 s.
KNOWN_FAILING = [
    {
        "job": "thin_for([(b:min x 8)], naturals)",
        "known_answer": "a subset on which min(x, 8) is constant",
        "observed": "never returns: 9 sampled values, 9^2 > 64 probes, so _thin_unary "
                    "takes the injective branch and waits forever for a 10th value",
        "status": "not run",
    },
    {
        "job": "slice <maj, not> carrier 2 arity 5",
        "known_answer": 2**16,
        "observed": "MemoryError after about 20 s: 12.5 GiB int32 block "
                    "requested by the row engine; 476 MB peak under a 3 GiB RLIMIT_AS",
        "status": "not run",
    },
    {
        "job": "slice <maj> carrier 2 arity 6",
        "known_answer": oracles.SELF_DUAL_MONOTONE[6],
        "observed": "still running after 120 s",
        "status": "not run",
    },
]


@dataclass
class Job:
    jid: str
    kind: str
    inputs: str
    expected: Any
    run: Callable[[Any, dict], Any]
    check: Callable[[Any, dict, Counter], bool]


def digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def job_list_digest(jobs: list[Job]) -> str:
    return digest((j.jid, j.inputs) for j in jobs)


def answers_digest(jobs: list[Job]) -> str:
    """Digest of the known answers by job id, independent of the seeded order."""
    return digest(sorted((j.jid, j.kind, repr(j.expected)) for j in jobs))


# -- plain tables ---------------------------------------------------------------

def table_of(k: int, n: int, fn) -> tuple[int, ...]:
    return tuple(fn(*t) for t in itertools.product(range(k), repeat=n))


def conj_table(k: int, n: int, table, perm) -> tuple[int, ...]:
    """Table of x -> perm(f(perm^-1 x)), read in lexicographic order."""
    inv = [0] * k
    for i, p in enumerate(perm):
        inv[p] = i
    out = []
    for t in itertools.product(range(k), repeat=n):
        idx = 0
        for a in t:
            idx = idx * k + inv[a]
        out.append(perm[table[idx]])
    return tuple(out)


def op(k: int, n: int, fn, perm=None) -> OpTable:
    table = table_of(k, n, fn)
    if perm is not None:
        table = conj_table(k, n, table, perm)
    return OpTable(Carrier(k), n, table)


def closure_group(k: int, n: int) -> str:
    narrow = k ** (k**n) <= NARROW_SPACE
    return "finite.closure.narrow" if narrow else "finite.closure.wide"


def _slice_check(expected_count: int, full_space: int, group: str):
    def check(verdict, ctx, counts):
        tables, full = verdict
        counts[f"{group}.tables"] += len(tables)
        counts["finite.closure.full"] += bool(full)
        return len(tables) == expected_count and full == (expected_count == full_space)
    return check


def _bool_check(expected: bool, full_counter: bool = False):
    def check(verdict, ctx, counts):
        if full_counter:
            counts["finite.closure.full"] += bool(verdict)
        return verdict is expected
    return check


# -- regen ------------------------------------------------------------------------

# The list's shape puts the p50 inside the covers and the p90 inside the
# carrier-3 Pol group (24 jobs of one cost), away from group edges, so both
# percentiles are steady across seeds.
REGEN_COVERS = 250
REGEN_SATURATING = 12
REGEN_POL_C3 = 24
REGEN_DECOMPOSE = 10
# The carrier-3 excluded point is fixed: reduce_generators keeps 7, 11 or 20
# generators for e = 0, 1, 2, and the kept core sets the cost of every cover,
# so a seeded e would swing the pass time by more than the bounds.  e = 2 is
# the costliest (3900 -> 20).  The seed moves the carrier-2 excluded point.
REGEN_EXCLUDED = 2


def regen(seed: int, tr) -> list[Job]:
    """Ideal-clone regeneration and Pol verdicts on narrow table spaces."""
    rng = random.Random(seed)
    c2, c3 = Carrier(2), Carrier(3)
    e = REGEN_EXCLUDED
    ideal = ideals.PrincipalIdeal(c3, e)
    small = [x for x in range(3) if x != e]
    small_args = {n: list(itertools.product(small, repeat=n)) for n in (1, 2)}

    def inside(f: OpTable) -> bool:
        return all(f(*a) != e for a in small_args[f.arity])

    offered = [
        f for n in (1, 2) for f in finite.all_op_tables(c3, n)
        if tr.call("ideals.preserves", ideals.preserves_ideal, f, ideal)
    ]
    jobs: list[Job] = []

    def reduce_check(kept, ctx, counts):
        counts["finite.reduce.kept"] += len(kept)
        counts["finite.reduce.offered"] += len(offered)
        ctx["core"] = kept
        want = oracles.ideal_clone_slice(3, 1) + oracles.ideal_clone_slice(3, 2)
        offered_set = set(offered)
        return len(offered) == want and 0 < len(kept) < want and all(
            g in offered_set and inside(g) for g in kept
        )

    jobs.append(Job(
        "regen/reduce", "reduce", f"e={e} offered={len(offered)}", len(offered),
        lambda tr, ctx: tr.call("finite.reduce", finite.reduce_generators, offered, c3, 2),
        reduce_check,
    ))

    webb = lambda x, y: (max(x, y) + 1) % 3  # noqa: E731
    perms = list(itertools.permutations(range(3)))
    rng.shuffle(perms)
    for i, perm in enumerate(perms):
        cert = op(3, 2, webb, perm)

        def cert_check(verdict, ctx, counts, _op=cert):
            counts["finite.closure.full"] += bool(verdict)
            if verdict is True:
                ctx.setdefault("certificates", []).append(_op)
            return verdict is oracles.WEBB_SHEFFER

        jobs.append(Job(
            f"regen/certificate/{i}", "certificate", str(cert.table), True,
            lambda tr, ctx, _op=cert: tr.call(
                "finite.closure.narrow", finite.closure_slice_is_full, [_op], c3, 2),
            cert_check,
        ))

    def random_inside() -> OpTable:
        while True:
            f = OpTable(c3, 2, tuple(rng.randrange(3) for _ in range(9)))
            if inside(f):
                return f

    # Covers are a stratified sample of the 15795 outside binary operations:
    # one from each run of consecutive tables.  Every seed sees the whole
    # range, which keeps the covers' median cost steady from seed to seed.
    outside = [t for t in itertools.product(range(3), repeat=9)
               if any(t[a * 3 + b] == e for a, b in small_args[2])]
    stride = len(outside) // REGEN_COVERS
    for i in range(REGEN_COVERS):
        f = OpTable(c3, 2, outside[i * stride + rng.randrange(stride)])
        jobs.append(Job(
            f"regen/cover/{i}", "cover", str(f.table), oracles.IDEAL_CLONE_MAXIMAL,
            lambda tr, ctx, _f=f: tr.call(
                "finite.closure.narrow", finite.closure_covers_slice,
                [_f] + ctx["core"], c3, 2, complete_ops=ctx["certificates"]),
            _bool_check(oracles.IDEAL_CLONE_MAXIMAL, full_counter=True),
        ))

    want_sat = oracles.ideal_clone_slice(3, 2)
    for i in range(REGEN_SATURATING):
        f = random_inside()

        def sat_check(verdict, ctx, counts):
            tables, full = verdict
            counts["finite.closure.narrow.tables"] += len(tables)
            counts["finite.closure.full"] += bool(full)
            pos = [a * 3 + b for a, b in small_args[2]]
            return (len(tables) == want_sat and not full
                    and all(all(t[p] != e for p in pos) for t in tables))

        jobs.append(Job(
            f"regen/saturate/{i}", "saturate", str(f.table), want_sat,
            lambda tr, ctx, _f=f: tr.call(
                "finite.closure.narrow", finite.closure_slice, ctx["core"] + [_f], c3, 2),
            sat_check,
        ))

    def pol_job(name: str, rel: RelationTable, cap: int, want: dict[int, int]) -> Job:
        def check(opset, ctx, counts):
            k = rel.carrier.size
            counts["finite.pol.candidates"] += sum(oracles.full_slice(k, n) for n in range(1, cap + 1))
            counts["finite.pol.kept"] += len(opset)
            return opset.counts() == want

        return Job(
            f"regen/pol/{name}", "pol", repr(sorted(rel.tuples)), want,
            lambda tr, ctx: tr.call("finite.pol", finite.pol, rel, cap),
            check,
        )

    for i in range(REGEN_POL_C3):
        members = sorted(rng.sample(range(3), 2))
        rel = RelationTable.unary(c3, members)
        want = {n: oracles.pol_unary_count(3, 2, n) for n in (1, 2)}
        jobs.append(pol_job(f"c3-unary/{i}", rel, 2, want))
    for i in range(4):
        members = [rng.randrange(2)]
        rel = RelationTable.unary(c2, members)
        want = {n: oracles.pol_unary_count(2, 1, n) for n in (1, 2, 3)}
        jobs.append(pol_job(f"c2-unary/{i}", rel, 3, want))
    for i in range(2):
        order = rng.sample(range(3), 3)  # a linear order: order[0] < order[1] < order[2]
        rank = {v: r for r, v in enumerate(order)}
        rel = RelationTable(c3, 2, frozenset(
            (a, b) for a in range(3) for b in range(3) if rank[a] <= rank[b]))
        want = {n: oracles.chain3_order_preserving(n) for n in (1, 2)}
        jobs.append(pol_job(f"chain3/{i}", rel, 2, want))

    # carrier 2: the ideal clone plus each outside operation regenerates
    # every slice up to arity 3
    e2 = rng.randrange(2)
    ideal2 = ideals.PrincipalIdeal(c2, e2)
    gens2 = [
        f for n in (1, 2) for f in finite.all_op_tables(c2, n)
        if tr.call("ideals.preserves", ideals.preserves_ideal, f, ideal2)
    ]
    keep2 = 1 - e2
    outside2 = [
        OpTable(c2, n, t) for n in (1, 2)
        for t in itertools.product(range(2), repeat=2**n) if t[keep2 * (len(t) - 1)] == e2
    ]
    want_counts = {n: oracles.full_slice(2, n) for n in (1, 2, 3)}
    for i, f in enumerate(outside2):
        def c2_check(opset, ctx, counts):
            counts["finite.closure.narrow.tables"] += len(opset)
            counts["finite.closure.full"] += opset.counts() == want_counts
            return opset.counts() == want_counts

        jobs.append(Job(
            f"regen/carrier2/{i}", "carrier2", f"e={e2} {f.table}", want_counts,
            lambda tr, ctx, _f=f: tr.call(
                "finite.closure.narrow", finite.clone_closure, gens2 + [_f], c2, 3),
            c2_check,
        ))

    swap = rng.choice([(0, 1), (1, 0)])
    AND = lambda x, y: x & y  # noqa: E731
    OR = lambda x, y: x | y  # noqa: E731
    post = {
        "T0": [op(2, 2, AND, swap), op(2, 2, lambda x, y: x ^ y, swap)],
        "T1": [op(2, 2, OR, swap), op(2, 2, lambda x, y: 1 - (x ^ y), swap)],
        "M": [op(2, 2, AND, swap), op(2, 2, OR, swap),
              op(2, 1, lambda x: 0, swap), op(2, 1, lambda x: 1, swap)],
    }
    for name in oracles.POST_MAXIMAL:
        gens = post[name]
        jobs.append(Job(
            f"regen/post/{name}", "precomplete", repr([g.table for g in gens]),
            "precomplete-evidence",
            lambda tr, ctx, _g=gens: tr.call(
                "lattice.precomplete", lattice.precompleteness_evidence, _g, c2, 2, 3),
            lambda verdict, ctx, counts: verdict.kind == "precomplete-evidence",
        ))

    for i in range(REGEN_DECOMPOSE):
        while True:
            fa = rng.choice((1, 2))
            f = OpTable(c3, fa, tuple(rng.randrange(3) for _ in range(3**fa)))
            image = {f(*a) for a in small_args[fa]}
            if not inside(f) and len(image) >= 2:
                break
        ga = rng.choice((1, 2))
        g = OpTable(c3, ga, tuple(rng.randrange(3) for _ in range(3**ga)))
        jobs.append(Job(
            f"regen/decompose/{i}", "decompose", f"{g.table} {f.table}", True,
            lambda tr, ctx, _g=g, _f=f: tr.call(
                "ideals.decompose", ideals.decompose_with, _g, _f, ideal),
            lambda cert, ctx, counts: cert.verified is True,
        ))
    return jobs


# -- wide-slices --------------------------------------------------------------------

def wide_slices(seed: int, tr) -> list[Job]:
    """Full fills of slices whose sizes are known from Post's lattice and
    free-algebra counts; the small conjugates cover both dedup paths of the
    wide engine (int64 codes below 2^62 and byte keys above)."""
    rng = random.Random(seed)
    jobs: list[Job] = []

    def slice_job(name: str, kind: str, k: int, n: int, gens: list[OpTable], want: int) -> Job:
        group = closure_group(k, n)
        return Job(
            f"wide-slices/{name}", kind, repr([g.table for g in gens]), want,
            lambda tr, ctx: tr.call(group, finite.closure_slice, gens, Carrier(k), n),
            _slice_check(want, oracles.full_slice(k, n), group),
        )

    def perm_of(k: int):
        return tuple(rng.sample(range(k), k))

    AND = lambda x, y: x & y  # noqa: E731
    OR = lambda x, y: x | y  # noqa: E731
    med = lambda a, b, c: sorted((a, b, c))[1]  # noqa: E731

    # The large fills are not conjugated: a conjugate can cost twice as much
    # (NOR takes about 2x NAND in the narrow engine), which would let the seed
    # swing the pass time.  NAND and NOR both run, so that asymmetry is measured.
    jobs.append(slice_job("and-or/5", "and-or", 2, 5, [op(2, 2, AND), op(2, 2, OR)],
                          oracles.lattice_terms(5)))
    jobs.append(slice_job("med/c3/5", "median", 3, 5, [op(3, 3, med)], oracles.median_terms(5)))
    jobs.append(slice_job("maj/5", "median", 2, 5, [op(2, 3, med)], oracles.median_terms(5)))
    jobs.append(slice_job("nand/4", "nand", 2, 4, [op(2, 2, lambda x, y: 1 - (x & y))],
                          oracles.full_slice(2, 4)))
    jobs.append(slice_job("nor/4", "nor", 2, 4, [op(2, 2, lambda x, y: 1 - (x | y))],
                          oracles.full_slice(2, 4)))
    jobs.append(slice_job("webb/c3/2", "webb", 3, 2,
                          [op(3, 2, lambda x, y: (max(x, y) + 1) % 3)], oracles.full_slice(3, 2)))

    # Seeded conjugates of small slices.  The group sizes put the p50 inside
    # x-y+z on Z3 at arity 4 and the p90 inside <min, max> on the 4-chain at
    # arity 4, each a group of equal cost, away from group edges.
    small = [
        # (kind, carrier, arity, generator builder, known count, jobs)
        ("minmax", 3, 3, lambda: _lattice_ops(3, perm_of(3)), oracles.lattice_terms(3), 8),
        ("minmax", 3, 4, lambda: _lattice_ops(3, perm_of(3)), oracles.lattice_terms(4), 10),
        ("minmax", 4, 3, lambda: _lattice_ops(4, perm_of(4)), oracles.lattice_terms(3), 8),
        ("minmax", 4, 4, lambda: _lattice_ops(4, perm_of(4)), oracles.lattice_terms(4), 20),
        ("affine-idem", 3, 4, lambda: [op(3, 3, lambda x, y, z: (x - y + z) % 3, perm_of(3))],
         oracles.idempotent_affine_terms(3, 4), 40),
        ("affine-idem", 4, 3, lambda: [op(4, 3, lambda x, y, z: (x - y + z) % 4, perm_of(4))],
         oracles.idempotent_affine_terms(4, 3), 8),
        ("affine", 3, 4, lambda: _affine_ops(perm_of(3)), oracles.affine_terms(3, 4), 10),
        ("and", 2, 5, lambda: [op(2, 2, AND, perm_of(2))], oracles.conjunction_terms(5), 8),
        ("xor3", 2, 5, lambda: [op(2, 3, lambda x, y, z: x ^ y ^ z, perm_of(2))],
         oracles.odd_parity_terms(5), 8),
        ("bool-affine", 2, 5, lambda: _bool_affine_ops(perm_of(2)), oracles.boolean_affine_terms(5),
         8),
    ]
    for kind, k, n, build, want, count in small:
        for i in range(count):
            jobs.append(slice_job(f"{kind}/c{k}/{n}/{i}", f"{kind}-c{k}-{n}", k, n, build(), want))
    return jobs


def _lattice_ops(k: int, perm) -> list[OpTable]:
    return [op(k, 2, min, perm), op(k, 2, max, perm)]


def _affine_ops(perm) -> list[OpTable]:
    return [op(3, 2, lambda x, y: (x + y) % 3, perm), op(3, 1, lambda x: 1, perm)]


def _bool_affine_ops(perm) -> list[OpTable]:
    return [op(2, 2, lambda x, y: x ^ y, perm), op(2, 1, lambda x: 1, perm)]


# -- box-terms ----------------------------------------------------------------------

# The list's shape puts the p50 inside the median composites (one cost) and
# the p90 inside the nested-pairing checks at one width, away from group
# edges, so both percentiles are steady across seeds.
BOX_WIDTHS = (64, 128, 256)
P90_NESTED_WIDTH = 160
P90_NESTED_JOBS = 12
MEDIAN_COMPOSITES = 55
TERM_SEARCHES = 6
CORPUS_TERMS_PER_JOB = 6
THIN_DEPTHS = (1, 2, 3, 4)


def _corpus() -> list[str]:
    """The 54-term partial-evaluation corpus over gates, max, min and the
    unary library.  Its constants are fixed: with a constant c >= 8,
    (b:min x c) makes thin_for hang (see KNOWN_FAILING)."""
    out = []
    for u in ("id", "succ", "double"):
        out += [f"(u:{u} x)", f"(u:{u} (u:succ y))", f"(u:{u} 5)"]
    for b in ("gateA", "gateB", "max", "min"):
        out += [f"(b:{b} (u:succ x) (u:double y))", f"(b:{b} (u:double x) (u:succ x))",
                f"(b:{b} x 7)", f"(b:{b} 3 (u:succ y))", f"(b:{b} 2 6)",
                f"(b:{b} (u:succ y) (u:double x))", f"(b:{b} y (u:double y))"]
    for b in ("gateA", "gateB"):
        out += [f"(u:succ (b:{b} (u:succ x) (u:double y)))", f"(b:{b} (b:{b} (u:succ x) y) 4)",
                f"(b:max (b:{b} (u:succ x) (u:double y)) 1)", f"(b:{b} (u:double y) (u:succ x))",
                f"(b:min (b:{b} x (u:succ y)) (b:{b} x (u:succ y)))",
                f"(u:double (b:{b} (u:succ x) 9))"]
    return out + ["(b:max x y)", "(b:min (u:succ x) (u:succ y))", "(b:max (u:double x) y)",
                  "(b:min y x)", "(u:succ (u:succ (u:double x)))"]


def _counting_affine(a: int, b: int, cell: list[int]):
    def fn(x: int) -> int:
        cell[0] += 1
        return a * x + b
    return fn


def box_terms(seed: int, tr) -> list[Job]:
    """Verdicts on the naturals over explicit boxes; no `finite` calls."""
    rng = random.Random(seed)
    jobs: list[Job] = []
    Box, SymbolicFn = symbolic.Box, symbolic.SymbolicFn
    pr = symbolic.cantor_pairing()
    pd = symbolic.delta_pairing(pr)

    def injective_check(box):
        def check(collision, ctx, counts):
            counts["symbolic.points"] += sum(1 for _ in box.pairs())
            return collision is None
        return check

    # four pairing constructions, each known injective off the diagonal
    merge, std_merge = pairings.marked_merge(), symbolic.standard_merge()
    bump = SymbolicFn("bump", 2, lambda x, y: max(x, y) + 1 + pr(min(x, y), max(x, y)))
    transposed = SymbolicFn("below_t", 2, lambda x, y: pd(y, x))
    coloring = combinatorics.sum_coloring(4)
    specs = [(c, w) for c in range(4) for w in BOX_WIDTHS]
    specs += [(1, P90_NESTED_WIDTH)] * P90_NESTED_JOBS
    for i, (construction, width) in enumerate(specs):
        lo = rng.randrange(1, 65)
        box = Box(lo, lo + width, "offdiag")
        if construction == 0:
            check_box = Box(lo, lo + 32, "offdiag")
            build = lambda tr, _b=check_box: tr.call(  # noqa: E731
                "pairings.build", pairings.two_sided_pairing, merge, pr, check_box=_b)
            name = "two-sided"
        elif construction == 1:
            build = lambda tr, _b=box: tr.call(  # noqa: E731
                "pairings.build", pairings.nested_pairing, bump, _b)
            name = "nested"
        elif construction == 2:
            build = lambda tr, _b=box: tr.call(  # noqa: E731
                "pairings.build", pairings.split_merge_pairing, transposed, std_merge, _b)
            name = "split-merge"
        else:
            gate_a = frozenset(rng.sample(range(4), 2))
            gate_b = frozenset(range(4)) - gate_a | {rng.randrange(4)}
            build = lambda tr, _a=gate_a, _g=gate_b: tr.call(  # noqa: E731
                "pairings.build", pairings.recovered_pairing, _a, _g, coloring, pr)
            name = f"recovered{sorted(gate_a)}{sorted(gate_b)}"
        jobs.append(Job(
            f"box-terms/injective/{i}", "injective", f"{name} {box.spec()}", None,
            lambda tr, ctx, _build=build, _box=box: tr.call(
                "symbolic.injective", symbolic.check_injective_on, _build(tr), _box),
            injective_check(box),
        ))

    # construction premises known to fail on the box
    asym = SymbolicFn("pair_asym", 2, lambda x, y: pr(x, y))
    refuters = [
        ("nested-asymmetric", lambda b: (pairings.nested_pairing, asym, b)),
        ("nested-max", lambda b: (pairings.nested_pairing, symbolic.max_fn(), b)),
        ("split-merge-max", lambda b: (pairings.split_merge_pairing, symbolic.max_fn(), std_merge, b)),
        ("bijection-max", lambda b: (symbolic.pairing_bijection, symbolic.max_fn())),
    ]

    def refute(tr, fn, *args, **kwargs):
        try:
            tr.call("pairings.build", fn, *args, **kwargs)
        except symbolic.ConstructionRefuted:
            return "refuted"
        return "built"

    def refuted_check(verdict, ctx, counts):
        counts["pairings.refuted"] += verdict == "refuted"
        return verdict == "refuted"

    for i in range(8):
        name, make = refuters[i % 4]
        lo = rng.randrange(0, 9)
        box = Box(lo, lo + rng.randrange(24, 49), "offdiag")
        call = make(box)
        if name == "bijection-max":
            job_run = lambda tr, ctx, _c=call, _b=box: refute(tr, *_c, check_box=_b)  # noqa: E731
        else:
            job_run = lambda tr, ctx, _c=call: refute(tr, *_c)  # noqa: E731
        jobs.append(Job(f"box-terms/refuted/{i}", "refuted", f"{name} {box.spec()}",
                        "refuted", job_run, refuted_check))

    # almost-unary witnesses and census
    def au_job(name: str, f, box, want: str, witness=None) -> Job:
        def check(report, ctx, counts):
            counts["almost_unary.tuples"] += box.width ** f.arity
            return report.kind == want
        return Job(
            f"box-terms/almost-unary/{name}", "almost-unary", f"{f.name} {box.spec()}", want,
            lambda tr, ctx: tr.call("almost_unary", almost_unary.almost_unary_check,
                                    f, box, witness=witness),
            check,
        )

    for i in range(2):
        w = rng.randrange(40, 57)
        jobs.append(au_job(f"pd/{i}", pd, Box(0, w, "full"), "witness-verified"))
        jobs.append(au_job(f"min/{i}", symbolic.min_fn(), Box(0, w, "full"), "witness-verified"))
        jobs.append(au_job(f"max/{i}", symbolic.max_fn(), Box(0, w, "full"),
                           "not-almost-unary-on-box"))

    def witnessed_binary():
        coord, scale, wobble = rng.choice((1, 2)), rng.randrange(1, 4), rng.randrange(0, 5)

        def fn(x, y, _c=coord, _s=scale, _w=wobble):
            t, o = ((x, y)[_c - 1], (x, y)[2 - _c])
            return _s * t + (o % (_w + 1))

        witness = symbolic.AlmostUnaryWitness(
            coord, lambda t, _s=scale, _w=wobble: range(0, _s * t + _w + 1))
        return SymbolicFn(f"au{coord}.{scale}.{wobble}", 2, fn, witness=witness), witness

    med = symbolic.median_fn()
    for i in range(MEDIAN_COMPOSITES):
        parts = [witnessed_binary() for _ in range(3)]
        composite = symbolic.compose_fn(med, [p for p, _ in parts])
        witness = almost_unary.median_witness([w for _, w in parts])
        jobs.append(au_job(f"median/{i}", composite, Box(0, 64, "full"),
                           "witness-verified", witness))

    # canonical classification on a seeded geometric sample
    ratio, scale = rng.choice((3, 4, 5)), rng.choice((1, 2, 3))
    sample = [scale * ratio**i for i in range(8)]
    const = rng.randrange(1, 10)
    fns = {
        "max": symbolic.max_fn(), "min": symbolic.min_fn(), "pair": pr, "pair_below_diag": pd,
        "const": SymbolicFn("const", 2, lambda x, y: const),
        "p1": SymbolicFn("p1", 2, lambda x, y: x), "p2": SymbolicFn("p2", 2, lambda x, y: y),
    }
    table = {
        ("max", "delta"): canonical.FIRST_COORDINATE, ("max", "nabla"): canonical.SECOND_COORDINATE,
        ("min", "delta"): canonical.SECOND_COORDINATE, ("min", "nabla"): canonical.FIRST_COORDINATE,
        ("pair", "delta"): canonical.INJECTIVE, ("pair", "nabla"): canonical.INJECTIVE,
        ("pair_below_diag", "delta"): canonical.INJECTIVE,
        ("pair_below_diag", "nabla"): canonical.CONSTANT,
        ("const", "delta"): canonical.CONSTANT, ("p1", "delta"): canonical.FIRST_COORDINATE,
        ("p2", "delta"): canonical.SECOND_COORDINATE,
    }
    for (name, region), want in table.items():
        jobs.append(Job(
            f"box-terms/canonical/{name}@{region}", "canonical", f"{sample}", want,
            lambda tr, ctx, _f=fns[name], _r=region: tr.call(
                "canonical", canonical.classify_on_region, _f, _r, sample),
            lambda verdict, ctx, counts, _w=want: verdict.kind == _w,
        ))
    symmetric_pair = SymbolicFn("symp", 2, lambda x, y: pr(min(x, y), max(x, y)))
    lo = rng.randrange(0, 9)
    square = Box(lo, lo + 24, "full")
    for f, want in ((pr, canonical.DISJOINT_RANGES), (pd, canonical.DISJOINT_RANGES),
                    (symmetric_pair, canonical.SYMMETRIC)):
        jobs.append(Job(
            f"box-terms/interaction/{f.name}", "canonical", square.spec(), want,
            lambda tr, ctx, _f=f: tr.call("canonical", canonical.region_interaction, _f, square),
            lambda verdict, ctx, counts, _w=want: verdict.verdict == _w,
        ))

    # bounded term search: gate A is not a depth-3 term over gate B and
    # succ; the recovered pairing is the depth-2 term gateA(gateA, gateB)
    sum4 = combinatorics.sum_coloring(4)
    gate_a = pairings.color_gated_pairing({0, 1}, sum4, pr, name="gateA")
    gate_b = pairings.color_gated_pairing({2, 3}, sum4, pr, name="gateB")
    registry = terms.default_registry()
    registry.register(gate_a)
    registry.register(gate_b)
    ident, succ = registry.get_unary("id"), registry.get_unary("succ")
    recovered = pairings.recovered_pairing({0, 1}, {2, 3}, sum4, pr)

    def search_check(box, target, want_found):
        def check(result, ctx, counts):
            counts["terms.search.candidates"] += result.stats.candidates_checked
            counts["terms.search.distinct"] += sum(result.stats.per_depth)
            if not want_found:
                return result.term is None
            return result.term is not None and all(
                terms.eval_term(result.term, x, y, registry) == target(x, y)
                for x, y in box.pairs())
        return check

    # one box per stratum of 1..24 to 1..39 and one 1..40, so every seed has
    # the same spread of costs and the same largest signature table (the
    # peak RSS of this workload)
    strata = [24 + (16 * i) // (TERM_SEARCHES - 1) for i in range(TERM_SEARCHES)] + [41]
    for i in range(TERM_SEARCHES):
        box = Box(1, rng.randrange(strata[i], strata[i + 1]) if i < TERM_SEARCHES - 1 else 40,
                  "full")
        jobs.append(Job(
            f"box-terms/search-negative/{i}", "search", box.spec(), None,
            lambda tr, ctx, _b=box: tr.call(
                "terms.search", terms.bounded_term_search, gate_a, {"gateB": gate_b},
                {"id": ident, "succ": succ}, 3, _b),
            search_check(box, gate_a, False),
        ))
        box = Box(1, rng.randrange(strata[i], strata[i + 1]), "full")
        jobs.append(Job(
            f"box-terms/search-positive/{i}", "search", box.spec(), "found",
            lambda tr, ctx, _b=box: tr.call(
                "terms.search", terms.bounded_term_search, recovered,
                {"gateA": gate_a, "gateB": gate_b}, {"id": ident}, 2, _b),
            search_check(box, recovered, True),
        ))

    # partial evaluation over the corpus, thinning where a reduction is undefined
    flat = combinatorics.constant_coloring(4, 0)
    corpus_registry = terms.default_registry()
    corpus_registry.register(pairings.color_gated_pairing({0, 1}, flat, pr, name="gateA"))
    corpus_registry.register(pairings.color_gated_pairing({2, 3}, flat, pr, name="gateB"))
    naturals = terms.SubsetSpec.naturals()

    def reduce_terms(tr, group):
        out = []
        for term in group:
            res = tr.call("terms.partial_eval", terms.partial_eval, term, naturals,
                          corpus_registry)
            subset = naturals
            if not res.defined:
                subset = tr.call("terms.thin", terms.thin_for, [term], naturals, corpus_registry)
                res = tr.call("terms.partial_eval", terms.partial_eval, term, subset,
                              corpus_registry)
            out.append((res, subset))
        return tuple(out)

    def reduce_check(verdict, ctx, counts):
        for res, subset in verdict:
            if not res.defined:
                return False
            if res.kind != terms.CONST:
                values = [res.map(p) for p in subset.first(24)]
                if len(set(values)) != len(values):
                    return False
        return True

    corpus = _corpus()
    for i in range(0, len(corpus), CORPUS_TERMS_PER_JOB):
        texts = corpus[i : i + CORPUS_TERMS_PER_JOB]
        group = [terms.parse_term(t) for t in texts]
        jobs.append(Job(f"box-terms/reduce/{i // CORPUS_TERMS_PER_JOB}", "reduce-terms",
                        " ".join(texts), "defined",
                        lambda tr, ctx, _g=group: reduce_terms(tr, _g), reduce_check))

    # stacked thinning: kept images stay pairwise disjoint at every layer.
    # Each layer's two maps share a slope m and differ in residue mod m, so
    # no point is ever rejected: the cost is the stacking alone, the same for
    # every seed.  (Maps that reject points make depth 4 cost 6-8 s instead
    # of 2 s, varying with the seed.)
    for depth in THIN_DEPTHS:
        cell = [0]
        params = []
        for _ in range(depth):
            m = rng.choice((3, 4, 5))
            r1, r2 = rng.sample(range(m), 2)
            params.append([(m, r1 + m * rng.randrange(4)), (m, r2 + m * rng.randrange(4))])
        layers = [[_counting_affine(a, b, cell) for a, b in maps] for maps in params]

        def stacked(tr, _layers=layers, _cell=cell):
            _cell[0] = 0
            spec = naturals
            for fns_ in _layers:
                spec = tr.call("terms.thin", terms.thin_disjoint_images, spec, fns_)
            return tr.call("terms.thin", spec.first, 64), _cell[0]

        def thin_check(verdict, ctx, counts, _layers=layers, _depth=depth):
            kept, fn_calls = verdict
            counts["terms.thin.fn_calls"] += fn_calls
            counts["terms.thin.layers_max"] = max(counts["terms.thin.layers_max"], _depth)
            if len(kept) != 64:
                return False
            for fns_ in _layers:
                images = [f(x) for x in kept for f in fns_]
                if len(set(images)) != len(images):
                    return False
            return True

        jobs.append(Job(f"box-terms/thin/{depth}", "thin", repr(params), "disjoint",
                        lambda tr, ctx, _s=stacked: _s(tr), thin_check))

    # finite partition and independence instances
    hausdorff = lambda tr: tr.call("combinatorics", combinatorics.hausdorff_family, 3, 4)  # noqa: E731
    combos = [
        ("partition-6", True, lambda tr: tr.call(
            "combinatorics", combinatorics.partition_check, oracles.RAMSEY_3_3, 3, 2, 2)),
        ("partition-5", False, lambda tr: tr.call(
            "combinatorics", combinatorics.partition_check, oracles.RAMSEY_3_3 - 1, 3, 2, 2)),
        ("hausdorff", True, lambda tr: tr.call(
            "combinatorics", combinatorics.verify_independent, hausdorff(tr), 3)),
        ("complementary", False, lambda tr: _complementary(tr, hausdorff(tr))),
    ]
    for name, want, fn in combos:
        jobs.append(Job(f"box-terms/combinatorics/{name}", "combinatorics", name, want,
                        lambda tr, ctx, _fn=fn: _fn(tr), _bool_check(want)))
    return jobs


def _complementary(tr, family):
    """A family holding a set and its complement is never 2-independent."""
    universe = frozenset(range(len(family.base)))
    half = frozenset(range(len(family.base) // 2))
    pair = combinatorics.IndependentFamily(family.base, (half, universe - half))
    return tr.call("combinatorics", combinatorics.verify_independent, pair, 2)


def summarize(verdict) -> Any:
    """A stable, hashable summary of a verdict for the verdict digest."""
    if isinstance(verdict, (bool, int, str, type(None))):
        return verdict
    if isinstance(verdict, tuple):
        return tuple(summarize(v) for v in verdict)
    if isinstance(verdict, list):
        return ("list", len(verdict))
    if isinstance(verdict, finite.OpSet):
        return ("opset", tuple(sorted(verdict.counts().items())))
    if isinstance(verdict, terms.SearchResult):
        term = None if verdict.term is None else terms.format_term(verdict.term)
        return ("search", term, verdict.stats.per_depth, verdict.stats.candidates_checked)
    if isinstance(verdict, terms.PartialResult):
        return ("partial", verdict.kind, verdict.value)
    if isinstance(verdict, terms.SubsetSpec):
        return ("subset", verdict.label)
    for attr in ("kind", "verdict", "verified"):
        if hasattr(verdict, attr):
            return (type(verdict).__name__, getattr(verdict, attr))
    return type(verdict).__name__


BUILDERS = {"regen": regen, "wide-slices": wide_slices, "box-terms": box_terms}


def build(workload: str, seed: int, tr) -> list[Job]:
    """The workload's job list in a seeded order.

    Jobs whose verdicts later jobs use (the reduced core and the
    certificates) stay in front, and so does <AND, OR> at arity 5, whose
    allocations set the peak RSS of wide-slices.  The rest are shuffled, so
    each group of equal-cost jobs is spread over the whole pass and its
    percentiles do not hang on a single second of machine load.
    """
    jobs = BUILDERS[workload](seed, tr)
    lead = [j for j in jobs if j.kind in ("reduce", "certificate", "and-or")]
    rest = [j for j in jobs if j not in lead]
    random.Random(f"{workload}:{seed}").shuffle(rest)
    return lead + rest
