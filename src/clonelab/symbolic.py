"""Computable operations on the naturals with box-based verification.

A SymbolicFn wraps a total evaluator together with optional metadata: an
almost-unary witness and trait flags.  All verification is relative to an
explicit Box; no verdict here claims anything about all of the naturals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Collection, Iterator

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
        for a in self.points():
            for b in self.points():
                if self.region == "delta" and not a > b:
                    continue
                if self.region == "nabla" and not a < b:
                    continue
                if self.region == "offdiag" and a == b:
                    continue
                yield (a, b)

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
class SymbolicFn:
    name: str
    arity: int
    fn: Callable[..., int]
    witness: AlmostUnaryWitness | None = None

    def __call__(self, *args: int) -> int:
        if len(args) != self.arity:
            raise ValueError(f"{self.name}: expected {self.arity} args, got {len(args)}")
        return self.fn(*args)

    def __repr__(self):
        return f"SymbolicFn({self.name}, arity={self.arity})"


def _triangle(s: int) -> int:
    return s * (s + 1) // 2


def cantor_pairing() -> SymbolicFn:
    """Shifted, doubled Cantor code: injective on all pairs, range in the
    even numbers >= 2, so 0 is avoided and the complement is infinite."""

    def pair(x: int, y: int) -> int:
        return 2 * (_triangle(x + y) + y) + 2

    return SymbolicFn("pair", 2, pair)


def delta_pairing(pr: SymbolicFn | None = None) -> SymbolicFn:
    """Pairs strictly decreasing arguments, zero elsewhere.

    Almost unary in the first coordinate: with x fixed there are only x
    pairing values plus 0 to hit, and the attached witness says so.
    """
    pr = pr or cantor_pairing()

    def fn(x: int, y: int) -> int:
        return pr(x, y) if x > y else 0

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


def check_injective_on(f: SymbolicFn, box: Box):
    """None when f is injective on the box region; otherwise the first
    colliding pair of pairs in the lexicographic scan."""
    seen: dict[int, tuple[int, int]] = {}
    for p in box.pairs():
        v = f(*p)
        if v in seen and seen[v] != p:
            return (seen[v], p)
        seen.setdefault(v, p)
    return None


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
