"""Order patterns of quadruples and canonicity analysis of binary maps.

A binary map is canonical on a sample when the comparison of its values on
two argument pairs depends only on the order pattern of the combined
quadruple.  The large canonical subsets that exist in principle are far
beyond finite reach, so canonical_subset performs a greedy scan with no
largeness guarantee and reports the selection ratio instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .symbolic import Box, SquareTable, SymbolicFn, _first_clash, _row_parts
from .terms import Registry, Term, eval_term, subterms


_PAIRS = tuple(itertools.combinations(range(4), 2))


def tuple_pattern(quad: Sequence[int]) -> tuple[int, ...]:
    """Signs of a_i - a_j over the six index pairs of an admissible
    quadruple: one whose two halves are off-diagonal argument pairs."""
    if len(quad) != 4:
        raise ValueError("need exactly four entries")
    if quad[0] == quad[1] or quad[2] == quad[3]:
        raise ValueError(f"inadmissible quadruple {tuple(quad)}")
    return tuple((quad[i] > quad[j]) - (quad[i] < quad[j]) for i, j in _PAIRS)


def similar(a: Sequence[int], b: Sequence[int]) -> bool:
    return tuple_pattern(a) == tuple_pattern(b)


def _table(f: SymbolicFn, points: Sequence[int]) -> list[list[int]]:
    """f on every ordered pair of the points, row by row: w² evaluations."""
    fn = f.evaluator(2)
    return [[fn(x, y) for y in points] for x in points]


def _outcomes(points: Sequence[int], rows: list[list[int]]):
    """(pattern code, outcome, quad) of each admissible quadruple of the
    increasing points in lexicographic order, read off their _table rows:
    the pattern is that of the indices, coded in base 3 from one table of
    index comparisons, and the outcome compares two entries of rows."""
    w = len(points)
    cmp = [[(i > j) - (i < j) + 1 for j in range(w)] for i in range(w)]
    for a, pa in enumerate(points):
        ca, va = cmp[a], rows[a]
        for b, pb in enumerate(points):
            if b == a:
                continue
            cb, v = cmp[b], va[b]
            for c, pc in enumerate(points):
                cc, vc = cmp[c], rows[c]
                head = 243 * ca[b] + 81 * ca[c] + 9 * cb[c]
                for d, pd in enumerate(points):
                    if d != c:
                        yield (head + 27 * ca[d] + 3 * cb[d] + cc[d],
                               (v > vc[d]) - (v < vc[d]), (pa, pb, pc, pd))


def is_canonical(f: SymbolicFn, sample: Sequence[int]):
    """None when f is canonical on the sample; otherwise the first pair of
    similar quadruples with differently ordered values."""
    points = sorted(set(sample))
    return _first_clash(_outcomes(points, _table(f, points)))


@dataclass(frozen=True)
class CanonicalSubsetReport:
    selected: tuple[int, ...]
    box: Box
    ratio: float


def canonical_subset(f: SymbolicFn, box: Box) -> CanonicalSubsetReport:
    """Greedy increasing scan keeping points that cause no pattern clash.

    The result always passes is_canonical and is never empty; no claim is
    made about its size, which is why the ratio is reported.
    """
    points = box.points()
    rows = _table(f, points)
    kept: list[int] = []
    for i in range(len(points)):
        idx = kept + [i]
        sub = [[rows[a][b] for b in idx] for a in idx]
        if _first_clash(_outcomes([points[a] for a in idx], sub)) is None:
            kept.append(i)
    return CanonicalSubsetReport(tuple(points[i] for i in kept), box, len(kept) / box.width)


class NotCanonicalError(ValueError):
    def __init__(self, witness):
        super().__init__(f"map is not canonical on the sample: {witness}")
        self.witness = witness


INJECTIVE = "injective"
FIRST_COORDINATE = "first-coordinate"
SECOND_COORDINATE = "second-coordinate"
CONSTANT = "constant"


@dataclass(frozen=True)
class RegionClassification:
    kind: str
    region: str
    witness_map: tuple[tuple[int, int], ...] | None = None  # 1-1 coordinate map
    value: int | None = None                                # constant value
    degenerate: bool = False


def classify_on_region(f: SymbolicFn, region: str, sample: Sequence[int]) -> RegionClassification:
    """Sort a canonical map's restriction into exactly one of four shapes.

    Requires canonicity on the sample (checked; a violation raises).  The
    region is checked first, so a bad one raises before f is evaluated.
    With fewer than three region pairs the sample cannot separate the shapes
    and the verdict is a degenerate constant.
    """
    if region not in ("delta", "nabla"):
        raise ValueError("region must be delta or nabla")
    points = sorted(set(sample))
    rows = _table(f, points)
    violation = _first_clash(_outcomes(points, rows))
    if violation is not None:
        raise NotCanonicalError(violation)
    values = {(points[i], points[j]): rows[i][j]
              for i, lo, hi in _row_parts(len(points), region) for j in range(lo, hi)}
    if len(values) < 3:
        value = next(iter(values.values()), None)
        return RegionClassification(CONSTANT, region, value=value, degenerate=True)

    if len(set(values.values())) == 1:
        return RegionClassification(
            CONSTANT, region, value=next(iter(values.values()))
        )

    for kind, index in ((FIRST_COORDINATE, 0), (SECOND_COORDINATE, 1)):
        factor: dict[int, tuple[int, tuple[int, int]]] = {}
        if _first_clash(((p[index], v, p) for p, v in values.items()), factor) is None:
            mapping = {a: v for a, (v, _) in factor.items()}
            if len(set(mapping.values())) == len(mapping):
                return RegionClassification(kind, region, witness_map=tuple(sorted(mapping.items())))
    if len(set(values.values())) == len(values):
        return RegionClassification(INJECTIVE, region)
    raise ValueError(
        "canonical on the sample but matching no shape; enlarge the sample"
    )


SYMMETRIC = "symmetric"
DISJOINT_RANGES = "disjoint-ranges"
NEITHER_PRECONDITION = "neither-precondition"
OVERLAP = "overlap"


@dataclass(frozen=True)
class RegionInteraction:
    verdict: str
    witness: tuple | None = None


def region_interaction(f: SymbolicFn, box: Box) -> RegionInteraction:
    """How the two triangle restrictions relate on the box's square.

    Requires one of them injective (else neither-precondition).  For a
    canonical map the remaining outcomes are symmetry or disjoint value
    ranges; the overlap verdict can only appear on non-canonical input and
    carries a witness value.  Every scan reads one table of f on the
    square, so f is evaluated at most w² times.
    """
    square = SquareTable.of(f.evaluator(2), box)
    if square.collision("delta") is not None and square.collision("nabla") is not None:
        return RegionInteraction(NEITHER_PRECONDITION)
    asym = square.asymmetry()
    if asym is None:
        return RegionInteraction(SYMMETRIC)
    shared = set(square.values_on("delta")) & set(square.values_on("nabla"))
    if not shared:
        return RegionInteraction(DISJOINT_RANGES, witness=asym)
    return RegionInteraction(OVERLAP, witness=(min(shared),))


@dataclass(frozen=True)
class RegionFactorReport:
    factors: bool
    side: str | None = None  # "x" | "y"
    x_violation: tuple | None = None  # two region pairs sharing the first coord
    y_violation: tuple | None = None


def unary_on_region(
    t: Term, box: Box, region: str, registry: Registry
) -> RegionFactorReport:
    """Whether the term's restriction to a triangle factors through one
    coordinate; ties prefer the x side."""
    pairs = list(box.with_region(region).pairs())
    values = {p: eval_term(t, p[0], p[1], registry) for p in pairs}

    x_bad = _first_clash((p[0], v, p) for p, v in values.items())
    if x_bad is None:
        return RegionFactorReport(True, side="x")
    y_bad = _first_clash((p[1], v, p) for p, v in values.items())
    if y_bad is None:
        return RegionFactorReport(True, side="y")
    return RegionFactorReport(False, x_violation=x_bad, y_violation=y_bad)


@dataclass(frozen=True)
class HeavySubtermReport:
    path: tuple[int, ...]
    term: Term
    failed_regions: tuple[str, ...]


def minimal_heavy_subterm(
    t: Term, box: Box, registry: Registry
) -> HeavySubtermReport | None:
    """Smallest subterm not factoring through a coordinate on both triangles.

    Subterms are visited by increasing size with post-order ties; None means
    every subterm is one-sided on both regions.
    """
    ordered = sorted(
        ((s.size(), i, path, s) for i, (path, s) in enumerate(subterms(t))),
        key=lambda item: (item[0], item[1]),
    )
    for _, _, path, s in ordered:
        failed = tuple(
            region
            for region in ("delta", "nabla")
            if not unary_on_region(s, box, region, registry).factors
        )
        if failed:
            return HeavySubtermReport(path, s, failed)
    return None

