"""Finite partition checks, anti-Ramsey search and independent families.

Colorings are pluggable assumptions: the anti-Ramsey property cannot hold
for any computable coloring of the naturals, so the tester only searches
and every report built on top states "assumed, not certified".
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .finite import ResourceLimitError


class InvalidColoringError(ValueError):
    """Symmetry or range audit failed on a checked pair."""


_AUDIT_SEED = 0x5EED
_AUDIT_PAIRS = 128
_MAX_COLORINGS = 1 << 22  # partition_check's exhaustive budget
_MAX_CELL = 3  # largest cell s in hausdorff_family's base


@dataclass(frozen=True, eq=False)
class Coloring:
    """A symmetric pair coloring with values in 0..mu-1.

    Construction audits symmetry and the value range on a fixed
    pseudorandom pair sample; any violation aborts immediately.  A bounded
    coloring states its domain so the audit stays inside it.
    """

    mu: int
    fn: Callable[[int, int], int]
    name: str = "coloring"
    domain: int | None = None  # exclusive upper bound; None means unbounded

    def __post_init__(self):
        if self.mu < 1:
            raise InvalidColoringError("need at least one color")
        limit = self.domain if self.domain is not None else 2048
        rng = random.Random(_AUDIT_SEED)
        for _ in range(_AUDIT_PAIRS):
            a, b = rng.randrange(limit), rng.randrange(limit)
            va, vb = self.fn(a, b), self.fn(b, a)
            if va != vb:
                raise InvalidColoringError(f"{self.name}: c({a},{b})={va} != c({b},{a})={vb}")
            if not 0 <= va < self.mu:
                raise InvalidColoringError(f"{self.name}: value {va} outside 0..{self.mu - 1}")

    def __call__(self, a: int, b: int) -> int:
        return self.fn(a, b)


def constant_coloring(mu: int, value: int = 0) -> Coloring:
    if not 0 <= value < mu:
        raise InvalidColoringError("constant value outside the color range")
    return Coloring(mu, lambda a, b: value, name=f"constant{value}")


def sum_coloring(mu: int) -> Coloring:
    return Coloring(mu, lambda a, b: (a + b) % mu, name=f"sum{mu}")


def product_coloring(mu: int) -> Coloring:
    return Coloring(mu, lambda a, b: (a * b) % mu, name=f"product{mu}")


def _interleave_bits(lo: int, hi: int) -> int:
    out, shift = 0, 0
    while lo or hi:
        out |= (lo & 1) << shift
        out |= (hi & 1) << (shift + 1)
        lo >>= 1
        hi >>= 1
        shift += 2
    return out


def interleave_coloring(mu: int) -> Coloring:
    def fn(a: int, b: int) -> int:
        lo, hi = (a, b) if a <= b else (b, a)
        return _interleave_bits(lo, hi) % mu

    return Coloring(mu, fn, name=f"interleave{mu}")


_BUILTINS = {
    "constant": constant_coloring,
    "sum": sum_coloring,
    "product": product_coloring,
    "interleave": interleave_coloring,
}


def builtin_coloring(name: str, mu: int) -> Coloring:
    if name not in _BUILTINS:
        raise ValueError(f"unknown coloring {name!r}; builtins: {sorted(_BUILTINS)}")
    return _BUILTINS[name](mu)


_COLORING_HEADER = re.compile(r"^coloring\s+(\S+)\s+mu=(\d+)\s+size=(\d+)\s*$")


def format_coloring_table(name: str, mu: int, table: Sequence[Sequence[int]]) -> str:
    lines = [f"coloring {name} mu={mu} size={len(table)}"]
    for row in table:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_coloring_table(text: str) -> Coloring:
    """A coloring given explicitly on a bounded domain 0..size-1."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    m = _COLORING_HEADER.match(lines[0])
    if not m:
        raise ValueError(f"bad coloring header: {lines[0]!r}")
    name, mu, size = m.group(1), int(m.group(2)), int(m.group(3))
    rows = [[int(tok) for tok in ln.split()] for ln in lines[1 : size + 1]]
    if len(rows) != size or any(len(r) != size for r in rows):
        raise ValueError("coloring table has the wrong shape")

    def fn(a: int, b: int) -> int:
        if a >= size or b >= size:
            raise ValueError(f"pair ({a},{b}) outside the bounded domain 0..{size - 1}")
        return rows[a][b]

    return Coloring(mu, fn, name=name, domain=size)


@dataclass(frozen=True)
class BlockSequence:
    """Pairwise disjoint finite blocks of one common size."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("need at least one block")
        size = len(self.blocks[0])
        if size < 1:
            raise ValueError("blocks must be nonempty")
        seen: set[int] = set()
        for b in self.blocks:
            if len(b) != size:
                raise ValueError("blocks must share one size")
            if b & seen:
                raise ValueError(f"blocks are not pairwise disjoint at {sorted(b & seen)}")
            seen |= b

    @classmethod
    def of(cls, *blocks) -> "BlockSequence":
        return cls(tuple(frozenset(b) for b in blocks))


def anti_ramsey_search(
    coloring: Coloring, blocks: BlockSequence, c0: int
) -> tuple[int, int] | None:
    """First block pair (i, j), i < j, whose rectangle is constantly c0."""
    if not 0 <= c0 < coloring.mu:
        raise ValueError(f"target color {c0} outside 0..{coloring.mu - 1}")
    for i in range(len(blocks.blocks)):
        for j in range(i + 1, len(blocks.blocks)):
            if all(
                coloring(a, b) == c0
                for a in sorted(blocks.blocks[i])
                for b in sorted(blocks.blocks[j])
            ):
                return (i, j)
    return None


def partition_check(n: int, m: int, r: int, c: int) -> bool:
    """Finite partition instance: every c-coloring of the r-subsets of an
    n-set admits an m-subset all of whose r-subsets share one color.

    Exhaustive over all colorings, iterated as base-c counters with an early
    exit per coloring on the first homogeneous subset found; the 2-color
    case runs vectorized over coloring bitmasks.
    """
    if min(n, m, r, c) < 1:
        raise ValueError("all parameters must be >= 1")
    if m > n:
        return False
    edges = list(itertools.combinations(range(n), r))
    index = {e: i for i, e in enumerate(edges)}
    total = c ** len(edges)
    if total > _MAX_COLORINGS:
        raise ResourceLimitError(f"{total} colorings exceed the budget {_MAX_COLORINGS}")
    candidate_masks = []
    for subset in itertools.combinations(range(n), m):
        ids = [index[e] for e in itertools.combinations(subset, r)]
        candidate_masks.append(ids)

    if not edges:
        return True  # no r-subsets to color: any m-subset is trivially homogeneous

    if c == 2:
        masks = np.array(
            [sum(1 << i for i in ids) for ids in candidate_masks], dtype=np.uint64
        )
        chunk = 1 << 18
        for start in range(0, total, chunk):
            block = np.arange(start, min(start + chunk, total), dtype=np.uint64)
            ok = np.zeros(len(block), dtype=bool)
            for mask in masks:
                hit = block & mask
                ok |= (hit == 0) | (hit == mask)
                if ok.all():
                    break
            if not ok.all():
                return False
        return True

    for assignment in itertools.product(range(c), repeat=len(edges)):
        if not any(
            len({assignment[i] for i in ids}) == 1 for ids in candidate_masks
        ):
            return False
    return True


@dataclass(frozen=True)
class IndependentFamily:
    """Indexed subsets of a finite base, addressed by base position.

    base carries the (arbitrary, hashable) base elements in a fixed order;
    each family set is a frozenset of positions, so the sets double as
    subsets of the color space 0..len(base)-1.
    """

    base: tuple
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        size = len(self.base)
        for s in self.sets:
            if any(p < 0 or p >= size for p in s):
                raise ValueError("set member outside the base")

    def universe(self) -> frozenset[int]:
        return frozenset(range(len(self.base)))


def verify_independent(family: IndependentFamily, width: int) -> bool:
    """All signed intersections of up to `width` distinct sets are nonempty."""
    if width > len(family.sets):
        raise ValueError("width above the index count")
    universe = family.universe()
    indices = range(len(family.sets))
    for t in range(1, width + 1):
        for chosen in itertools.combinations(indices, t):
            for signs in itertools.product((True, False), repeat=t):
                acc = set(universe)
                for i, positive in zip(chosen, signs):
                    acc &= family.sets[i] if positive else (universe - family.sets[i])
                    if not acc:
                        break
                if not acc:
                    return False
    return True


def hausdorff_family(m: int, q: int, *, width: int = 3) -> IndependentFamily:
    """Independent family via the pairs-of-(set, family-of-subsets) base.

    The base consists of all pairs (s, A) with s a subset of the ground
    order 0..q-1 of size <= _MAX_CELL and A a set of subsets of s.  Index i
    is realized by the threshold cut {0..i}: its set holds the pairs with
    s ∩ cut ∈ A.  Distinct cuts trace distinct intersections on a suitable
    s, which is what makes all signed combinations nonempty; the
    construction is re-verified at the declared width and a failure is a
    fatal construction bug, not a data error.
    """
    if m > q:
        raise ValueError("need at least as many ground points as indices")
    base: list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]] = []
    ground = range(q)
    cells = [
        combo
        for size in range(0, _MAX_CELL + 1)
        for combo in itertools.combinations(ground, size)
    ]
    for s in cells:
        subsets = [
            sub for size in range(len(s) + 1) for sub in itertools.combinations(s, size)
        ]
        for count in range(len(subsets) + 1):
            for chosen in itertools.combinations(subsets, count):
                base.append((s, chosen))
    cuts = [frozenset(range(i + 1)) for i in range(m)]
    sets = []
    for cut in cuts:
        positions = frozenset(
            pos
            for pos, (s, chosen) in enumerate(base)
            if tuple(x for x in s if x in cut) in chosen
        )
        sets.append(positions)
    family = IndependentFamily(tuple(base), tuple(sets))
    if not verify_independent(family, min(width, m)):
        raise RuntimeError("construction bug: family failed its independence check")
    return family
