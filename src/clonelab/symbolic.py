"""Computable operations on the naturals with box-based verification.

A SymbolicFn wraps a total evaluator together with optional metadata: an
almost-unary witness.  All verification is relative to an explicit Box; no
verdict here claims anything about all of the naturals.

An evaluator is a function of its arguments: equal arguments give equal
values, and a call has no effect that a later call could see.  The box
scans rely on this.  Value-vector dedup in term search, the box-built
normalizing maps of the pairings, the square table a pairing build keeps
and the operand memo of term search all evaluate each symbol once per
distinct argument and reuse the value.  A pairing composite also keeps the
table it was verified on, its values at the off-diagonal points of the
box (an `OffdiagTable`): its calls there read the table, and an
injectivity check on that box reads the values and calls nothing.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator

REGIONS = ("delta", "nabla", "offdiag", "full")


@dataclass(frozen=True)
class Box:
    """A window [lo, hi) with a pair region.

    delta:   pairs with first > second
    nabla:   pairs with first < second
    offdiag: all pairs with distinct coordinates
    full:    every pair
    """

    lo: int
    hi: int
    region: str = "offdiag"

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError(f"empty box [{self.lo}, {self.hi})")
        if self.region not in REGIONS:
            raise ValueError(f"unknown region {self.region!r}")

    @property
    def width(self) -> int:
        return self.hi - self.lo

    def points(self) -> range:
        return range(self.lo, self.hi)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Region pairs in lexicographic order."""
        lo, hi, pts = self.lo, self.hi, self.points()
        if self.region == "full":
            return itertools.product(pts, pts)
        if self.region == "delta":
            return ((a, b) for a in pts for b in range(lo, a))
        if self.region == "nabla":
            return ((a, b) for a in pts for b in range(a + 1, hi))
        return ((a, b) for a in pts for b in pts if a != b)

    def with_region(self, region: str) -> "Box":
        return Box(self.lo, self.hi, region)

    def spec(self) -> str:
        return f"{self.lo}..{self.hi}:{self.region}"

    _SPEC = re.compile(r"^(\d+)\.\.(\d+):(delta|nabla|offdiag|full)$")

    @classmethod
    def parse(cls, text: str) -> "Box":
        m = cls._SPEC.match(text.strip())
        if not m:
            raise ValueError(f"bad box spec {text!r}, expected lo..hi:region")
        return cls(int(m.group(1)), int(m.group(2)), m.group(3))


@dataclass(frozen=True)
class AlmostUnaryWitness:
    """Claim that values are confined to a set determined by one coordinate.

    coordinate is 1-based; allowed(x) returns the permitted value set when
    that coordinate equals x.
    """

    coordinate: int
    allowed: Callable[[int], Collection[int]]


@dataclass(frozen=True)
class SpreadWitness:
    """Per-point value cover: f(x̄) always lies in the union of map(x_i).

    uniform_bound set means the claim additionally bounds |map(x)| strictly
    below that number at every point.
    """

    per_point: Callable[[int], Collection[int]]
    uniform_bound: int | None = None


@dataclass(frozen=True, eq=False)
class OffdiagTable:
    """Values of a binary function at the off-diagonal points of the
    square [lo, hi)², in the lexicographic order of the offdiag region:
    row x holds its y < x entries, then its y > x entries."""

    lo: int
    hi: int
    values: list[int]

    def region_values(self, box: Box) -> list[int] | None:
        """The values on the box's region in its scan order; None unless the
        box has this window and a region without the diagonal."""
        if (box.lo, box.hi) != (self.lo, self.hi) or box.region == "full":
            return None
        if box.region == "offdiag":
            return self.values
        w1, vals = box.width - 1, self.values
        if box.region == "delta":
            return [v for i in range(box.width) for v in vals[i * w1:i * w1 + i]]
        return [v for i in range(box.width) for v in vals[i * w1 + i:(i + 1) * w1]]

    def reader(self, fn: Callable[[int, int], int]) -> Callable[[int, int], int]:
        """fn itself, reading the table at in-window off-diagonal arguments."""
        lo, hi, w1, vals = self.lo, self.hi, self.hi - self.lo - 1, self.values

        def at(x: int, y: int) -> int:
            if lo <= x < hi and lo <= y < hi and x != y:
                return vals[(x - lo) * w1 + y - lo - (y > x)]
            return fn(x, y)

        return at


@dataclass(frozen=True, eq=False)
class SymbolicFn:
    name: str
    arity: int
    fn: Callable[..., int]
    witness: AlmostUnaryWitness | None = None
    table: OffdiagTable | None = None  # values of fn on a box, read instead of calling fn

    def __call__(self, *args: int) -> int:
        if len(args) != self.arity:
            raise self._arity_error(len(args))
        return self.fn(*args)

    def evaluator(self, nargs: int) -> Callable[..., int]:
        """The bare evaluator, for a hot loop that passes `nargs` arguments:
        the arity check a call makes, made once."""
        if nargs != self.arity:
            raise self._arity_error(nargs)
        return self.fn

    def _arity_error(self, nargs: int) -> ValueError:
        return ValueError(f"{self.name}: expected {self.arity} args, got {nargs}")

    def __repr__(self):
        return f"SymbolicFn({self.name}, arity={self.arity})"


def _triangle(s: int) -> int:
    return s * (s + 1) // 2


def cantor_pairing() -> SymbolicFn:
    """Shifted, doubled Cantor code: injective on all pairs, range in the
    even numbers >= 2, so 0 is avoided and the complement is infinite."""

    def pair(x: int, y: int) -> int:
        s = x + y
        return s * (s + 1) + 2 * y + 2  # 2 * (_triangle(s) + y) + 2

    return SymbolicFn("pair", 2, pair)


def delta_pairing(pr: SymbolicFn | None = None) -> SymbolicFn:
    """Pairs strictly decreasing arguments, zero elsewhere.

    Almost unary in the first coordinate: with x fixed there are only x
    pairing values plus 0 to hit, and the attached witness says so.
    """
    pr = pr or cantor_pairing()
    code = pr.evaluator(2)

    def fn(x: int, y: int) -> int:
        return code(x, y) if x > y else 0

    witness = AlmostUnaryWitness(
        coordinate=1,
        allowed=lambda x: frozenset({0} | {pr(x, y) for y in range(x)}),
    )
    return SymbolicFn("pair_below_diag", 2, fn, witness=witness)


def max_fn() -> SymbolicFn:
    return SymbolicFn("max", 2, lambda x, y: max(x, y))


def min_fn() -> SymbolicFn:
    return SymbolicFn(
        "min", 2, lambda x, y: min(x, y),
        witness=AlmostUnaryWitness(1, lambda x: range(0, x + 1)),
    )


def median_fn() -> SymbolicFn:
    return SymbolicFn("med", 3, lambda a, b, c: sorted((a, b, c))[1])


def standard_merge() -> SymbolicFn:
    """Binary merge with marker identities: value b when a == 0, value a when
    b == 1 (a > 0), and 0 elsewhere."""

    def fn(a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 1:
            return a
        return 0

    return SymbolicFn("merge", 2, fn)


def compose_fn(outer: SymbolicFn, inner: list[SymbolicFn], name: str | None = None) -> SymbolicFn:
    if len(inner) != outer.arity:
        raise ValueError("inner count must match outer arity")
    arity = inner[0].arity
    if any(g.arity != arity for g in inner):
        raise ValueError("inner operations must share an arity")
    fns = [g.fn for g in inner]
    out = outer.fn

    def fn(*args: int) -> int:
        return out(*(g(*args) for g in fns))

    label = name or f"{outer.name}({', '.join(g.name for g in inner)})"
    return SymbolicFn(label, arity, fn)


def first_collision(pairs: Iterable[tuple[int, int]], values: list[int]):
    """The first two of the pairs whose values (listed in the same order)
    are equal, as (earlier pair, later pair); None when the values are
    distinct.  The pairs are walked only when a collision is certain."""
    if len(set(values)) == len(values):
        return None
    seen: dict[int, tuple[int, int]] = {}
    for p, v in zip(pairs, values):
        q = seen.setdefault(v, p)
        if q != p:
            return (q, p)
    return None


def check_injective_on(f: SymbolicFn, box: Box):
    """None when f is injective on the box region; otherwise the first
    colliding pair of pairs in the lexicographic scan.  A table f keeps
    for the box is read instead of calling f."""
    values = f.table.region_values(box) if f.table is not None else None
    if values is None:
        fn = f.evaluator(2)
        values = [fn(*p) for p in box.pairs()]
    return first_collision(box.pairs(), values)


def injective_on(f: SymbolicFn, box: Box) -> bool:
    return check_injective_on(f, box) is None


@dataclass(frozen=True)
class BijectionParts:
    composite: SymbolicFn
    outer: SymbolicFn       # rank of a code inside the restricted image
    left: SymbolicFn        # first-argument injection (even numbers)
    right: SymbolicFn       # second-argument injection (odd numbers)


class ConstructionRefuted(RuntimeError):
    """A box check exposed a counterexample to a construction premise."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def pairing_bijection(pr: SymbolicFn | None = None, *, check_box: Box | None = None) -> BijectionParts:
    """Turn an off-diagonal-injective pairing into a bijection of pairs.

    Arguments are routed through disjoint-range injections (evens left,
    odds right) so the pairing never sees a diagonal pair, and the outer
    map enumerates the restricted image in increasing order.
    """
    pr = pr or cantor_pairing()
    check_box = check_box or Box(0, 48, "offdiag")
    collision = check_injective_on(pr, check_box)
    if collision is not None:
        raise ConstructionRefuted("pairing not injective off the diagonal", collision)

    left = SymbolicFn("even_inject", 1, lambda x: 2 * x)
    right = SymbolicFn("odd_inject", 1, lambda y: 2 * y + 1)

    def in_image(z: int) -> bool:
        # z = pr(2x, 2y+1) = 2*(triangle(s) + b) + 2 with s = 2x+2y+1 odd, b = 2y+1
        if z < 2 or z % 2:
            return False
        s = 1
        while 2 * _triangle(s) + 4 <= z:
            b = (z - 2) // 2 - _triangle(s)
            if 1 <= b <= s and b % 2 == 1 and (s - b) % 2 == 0:
                return True
            s += 2
        return False

    def rank(z: int) -> int:
        if not in_image(z):
            return 0
        count = 0
        s = 1
        while 2 * _triangle(s) + 2 + 2 < z + 1:
            # pairs (a, b) with a+b = s, a even, b odd exist only for odd s
            hi = (z - 2 - 2 * _triangle(s) - 1) // 2  # strict: value < z
            hi = min(hi, s)
            if hi >= 1:
                count += (hi + 1) // 2  # odd b in [1, hi]
            s += 2
        return count

    outer = SymbolicFn("image_rank", 1, rank)

    def composite(x: int, y: int) -> int:
        return rank(pr(left(x), right(y)))

    return BijectionParts(
        composite=SymbolicFn("pair_bijection", 2, composite),
        outer=outer, left=left, right=right,
    )


_MAX_SIDE = 1 << 12  # verify_bijection_on scans squares up to this side


def verify_bijection_on(parts: BijectionParts, targets: int) -> bool:
    """Adaptive scan oracle: every value below `targets` is hit exactly once.

    The rank of a code counts image elements below it, so it is monotone in
    the code; once every pair outside the scanned square provably has a code
    whose rank already reaches `targets`, the scan is complete.
    """
    side = 8
    while side <= _MAX_SIDE:
        hits: dict[int, int] = {}
        for x in range(side):
            for y in range(side):
                v = parts.composite(x, y)
                hits[v] = hits.get(v, 0) + 1
        if any(c > 1 for v, c in hits.items() if v < targets):
            return False
        min_outside_code = 2 * _triangle(2 * side + 1) + 4
        outside_done = parts.outer(min_outside_code) >= targets
        if outside_done and all(hits.get(v, 0) == 1 for v in range(targets)):
            return True
        side *= 2
    return False
