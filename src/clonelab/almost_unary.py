"""Box-scale almost-unary analysis.

Almost-unary means the values are confined to a small set determined by a
single coordinate.  On a box the notion is necessarily three-valued: a
witness can be verified or refuted on the box, and without a witness only
a fiber census against the identity ordinal bound (at most a + 1 values
at a fixed value a) is possible, so the verdicts are labeled box-relative
throughout.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Collection, Sequence

from .symbolic import AlmostUnaryWitness, Box, SpreadWitness, SymbolicFn


@dataclass(frozen=True)
class AlmostUnaryReport:
    kind: str  # witness-verified | witness-refuted | almost-unary-on-box | not-almost-unary-on-box
    coordinate: int | None = None
    violation: tuple[int, ...] | None = None
    profiles: dict[int, dict[int, int]] | None = None  # coordinate -> fixed value -> fiber size


def _box_tuples(box: Box, arity: int):
    return itertools.product(box.points(), repeat=arity)


def _first_escape(f: SymbolicFn, box: Box, allowed: Callable[[int], Collection[int]],
                  coordinates: Sequence[int]) -> tuple[int, ...] | None:
    """The first box tuple, in lexicographic order, whose value lies outside
    allowed(x) for the entry x at each of the coordinates (0-based), or
    None.  Each point's allowed set is built at most once.

    The box is walked row by row: the leading entries are fixed per row and
    the last one varies innermost.  A row's values are taken with one call
    per point through one `functools.partial` of the fixed entries, whose
    allowed sets are fetched once per row.  A row whose values all lie in
    one of those sets, or each in the allowed set of its last entry,
    passes without a per-point loop."""
    fn = f.evaluator(f.arity)
    sets: dict[int, frozenset[int]] = {}

    def allowed_at(x: int) -> frozenset[int]:
        if x not in sets:
            sets[x] = frozenset(allowed(x))
        return sets[x]

    pts, last = box.points(), f.arity - 1
    lead = [k for k in coordinates if k != last]
    empty = frozenset()
    ends = [allowed_at(y) if last in coordinates else empty for y in pts]
    for head in itertools.product(pts, repeat=last):
        lead_sets = [allowed_at(head[k]) for k in lead]
        row = list(map(functools.partial(fn, *head), pts))
        if (any(s.issuperset(row) for s in lead_sets)
                or all(map(frozenset.__contains__, ends, row))):
            continue
        for y, v, end in zip(pts, row, ends):
            if v not in end and not any(v in s for s in lead_sets):
                return (*head, y)
    return None


def almost_unary_check(
    f: SymbolicFn,
    box: Box,
    witness: AlmostUnaryWitness | None = None,
) -> AlmostUnaryReport:
    """Check confinement of f's values to one coordinate's allowed sets.

    With a witness, every box tuple is tested against the witness's allowed
    set; the first violating tuple refutes it.  Without one, the census
    computes each coordinate's fiber sizes and accepts when some
    coordinate's fiber at every fixed value a has at most a + 1 values, the
    identity ordinal bound.
    """
    witness = witness if witness is not None else f.witness
    if witness is not None:
        escape = _first_escape(f, box, witness.allowed, [witness.coordinate - 1])
        if escape is not None:
            return AlmostUnaryReport("witness-refuted", witness.coordinate, escape)
        return AlmostUnaryReport("witness-verified", witness.coordinate)

    fibers: dict[int, dict[int, set[int]]] = {
        k: {a: set() for a in box.points()} for k in range(1, f.arity + 1)
    }
    fn = f.evaluator(f.arity)
    for args in _box_tuples(box, f.arity):
        v = fn(*args)
        for k in range(1, f.arity + 1):
            fibers[k][args[k - 1]].add(v)
    profiles = {
        k: {a: len(vals) for a, vals in per.items()} for k, per in fibers.items()
    }
    for k in range(1, f.arity + 1):
        if all(size <= a + 1 for a, size in profiles[k].items()):
            return AlmostUnaryReport("almost-unary-on-box", k, profiles=profiles)
    return AlmostUnaryReport("not-almost-unary-on-box", profiles=profiles)


def depends_heavily(f: SymbolicFn, coordinate: int, box: Box) -> bool:
    """Some fixing of the other coordinates gives a full-width value fiber.

    Full width is the box surrogate for a fiber as large as the whole
    space, and the fixed values range over the lower half of the box only:
    a coordinate pinned near the box top can fill a fiber by window
    accident even when its true fibers are small.
    """
    if not 1 <= coordinate <= f.arity:
        raise ValueError(f"coordinate {coordinate} out of range 1..{f.arity}")
    return _spreads(f, [coordinate - 1], box, box.width)


def _spreads(f: SymbolicFn, varying: Sequence[int], box: Box, threshold: int) -> bool:
    """Some assignment of the other coordinates, from the lower half of the
    box, makes f take >= threshold distinct values as the varying
    coordinates (0-based) range over the whole box."""
    fixed = [k for k in range(f.arity) if k not in varying]
    interior = range(box.lo, box.lo + box.width // 2)
    fn, args = f.evaluator(f.arity), [0] * f.arity
    for rest in itertools.product(interior, repeat=len(fixed)):
        for pos, val in zip(fixed, rest):
            args[pos] = val
        values = set()
        for xs in itertools.product(box.points(), repeat=len(varying)):
            for pos, val in zip(varying, xs):
                args[pos] = val
            values.add(fn(*args))
        if len(values) >= threshold:
            return True
    return False


@dataclass(frozen=True)
class SpreadSupportReport:
    supports: frozenset[frozenset[int]]
    pairwise_intersecting: bool
    threshold: int


def spread_supports(g: SymbolicFn, box: Box, threshold: int) -> SpreadSupportReport:
    """Coordinate subsets able to spread g over at least `threshold` values.

    A subset s qualifies when some assignment of the complementary
    coordinates makes g take >= threshold distinct values as the s-part
    ranges over the box.  Complement assignments range over the lower half
    of the box only: a fixed value near the box top can drag a fiber to
    full width by accident of the window, which is exactly the boundary
    artifact the half rule suppresses.  The threshold lies in 1..box width.
    """
    if threshold < 1:
        raise ValueError("threshold below 1")
    if threshold > box.width:
        raise ValueError("threshold above the box width")
    n = g.arity
    supports = {
        frozenset(subset)
        for r in range(n + 1)
        for subset in itertools.combinations(range(1, n + 1), r)
        if _spreads(g, [k - 1 for k in subset], box, threshold)
    }
    intersecting = all(a & b for a in supports for b in supports)
    return SpreadSupportReport(frozenset(supports), intersecting, threshold)


@dataclass(frozen=True)
class SpreadVerdict:
    kind: str  # verified | refuted | bound-refuted
    witness_tuple: tuple[int, ...] | None = None
    witness_point: int | None = None


def witnessed_spread_check(f: SymbolicFn, w: SpreadWitness, box: Box) -> SpreadVerdict:
    """Check the per-point cover f(x̄) ∈ map(x_1) ∪ ... ∪ map(x_n) on the box.

    A uniformly bounded witness additionally requires every per-point set
    to stay strictly below the bound.
    """
    if w.uniform_bound is not None:
        for x in box.points():
            if len(set(w.per_point(x))) >= w.uniform_bound:
                return SpreadVerdict("bound-refuted", witness_point=x)
    escape = _first_escape(f, box, w.per_point, range(f.arity))
    if escape is not None:
        return SpreadVerdict("refuted", witness_tuple=escape)
    return SpreadVerdict("verified")


def median_witness(parts: Sequence[AlmostUnaryWitness]) -> AlmostUnaryWitness:
    """Witness for the median of three witnessed binary operations.

    The median of three values is one of them and, once two of the three
    are trapped under bounds driven by the same coordinate, it never
    exceeds the larger of those bounds; the pigeonhole coordinate shared by
    at least two witnesses therefore confines the composite.
    """
    if len(parts) != 3:
        raise ValueError("median takes exactly three argument witnesses")
    coords = [w.coordinate for w in parts]
    shared = min(c for c in coords if coords.count(c) >= 2)
    trapped = [w for w in parts if w.coordinate == shared]

    def allowed(x: int) -> range:
        bound = max(max(w.allowed(x), default=0) for w in trapped)
        return range(0, bound + 1)

    return AlmostUnaryWitness(shared, allowed)
