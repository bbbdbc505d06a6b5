"""Computable operations on the naturals with box-based verification.

A SymbolicFn wraps a total evaluator together with optional metadata: an
almost-unary witness.  All verification is relative to an explicit Box; no
verdict here claims anything about all of the naturals.

An evaluator is a function of its arguments: equal arguments give equal
values, and a call has no effect that a later call could see.  The box
scans rely on this.  Value-vector dedup in term search, the box-built
normalizing maps of the pairings, the square table (a `SquareTable`) that
a pairing build and `canonical.region_interaction` read, and the operand
memo of term search all evaluate each symbol once per distinct argument
and reuse the value.  A pairing composite also keeps the table it was
verified on, its own values on the box's square: its calls there read the
table, and an injectivity check on that box, in any region, reads the
values and calls nothing.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, MutableMapping

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
        lo, pts = self.lo, self.points()
        if self.region == "full":
            return itertools.product(pts, pts)
        return ((lo + i, b) for i, j, k in _row_parts(self.width, self.region)
                for b in range(lo + j, lo + k))

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


def _row_parts(w: int, region: str) -> Iterator[tuple[int, int, int]]:
    """The parts of each row i of a w-by-w square that lie in the region, as
    (i, start, stop) column spans in lexicographic order: the part before
    the diagonal for delta, after it for nabla, both for offdiag, and the
    whole row for full."""
    for i in range(w):
        if region == "full":
            yield i, 0, w
            continue
        if region != "nabla":
            yield i, 0, i
        if region != "delta":
            yield i, i + 1, w


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
class SquareTable:
    """Values of a binary function on the square [lo, hi)², row-major:
    f(x, y) sits at (x - lo) * w + y - lo, w the width."""

    lo: int
    hi: int
    values: list[int]

    @classmethod
    def of(cls, fn: Callable[[int, int], int], box: Box) -> "SquareTable":
        """fn evaluated once per point of the box's square."""
        pts = box.points()
        return cls(box.lo, box.hi, [fn(x, y) for x in pts for y in pts])

    def _runs(self, region: str) -> Iterator[list[int]]:
        """The values on a region of the square as runs of one row each
        (two per row off the diagonal), in its lexicographic order."""
        t, w = self.values, self.hi - self.lo
        for i, j, k in _row_parts(w, region):
            yield t[i * w + j:i * w + k]

    def values_on(self, region: str) -> list[int]:
        """The values on a region of the square, in its lexicographic order."""
        if region == "full":
            return self.values
        out: list[int] = []
        for run in self._runs(region):
            out += run
        return out

    def collision(self, region: str):
        """first_collision over the region's points.  Distinctness is tested
        on a set fed run by run; the region's values are listed only once a
        collision is certain."""
        seen: set[int] = set()
        count = 0
        for run in self._runs(region):
            seen.update(run)
            count += len(run)
            if len(seen) < count:
                return first_collision(Box(self.lo, self.hi, region).pairs(), self.values_on(region))
        return None

    def asymmetry(self) -> tuple[int, int] | None:
        """The first point (x, y) in lexicographic order with
        f(x, y) != f(y, x), or None.  It has x < y: a mismatch at (x, y)
        with y < x shows first at (y, x), in an earlier row."""
        t, w = self.values, self.hi - self.lo
        for i in range(w):
            row = t[i * w:(i + 1) * w]
            if row != t[i::w]:
                j = next(j for j in range(i + 1, w) if row[j] != t[j * w + i])
                return (self.lo + i, self.lo + j)
        return None

    def reader(self, fn: Callable[[int, int], int]) -> Callable[[int, int], int]:
        """fn itself, reading the table on the square."""
        lo, hi, w, vals = self.lo, self.hi, self.hi - self.lo, self.values

        def at(x: int, y: int) -> int:
            if lo <= x < hi and lo <= y < hi:
                return vals[(x - lo) * w + y - lo]
            return fn(x, y)

        return at


@dataclass(frozen=True, eq=False)
class SymbolicFn:
    name: str
    arity: int
    fn: Callable[..., int]
    witness: AlmostUnaryWitness | None = None
    table: SquareTable | None = None  # values of fn on a square, read instead of calling fn

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


def compose_fn(outer: SymbolicFn, inner: list[SymbolicFn]) -> SymbolicFn:
    """outer(g_1(x̄), ..., g_m(x̄)) for inner operations g_i of one arity n.

    The composite's evaluator takes exactly n positional arguments and
    calls each inner evaluator and the outer one positionally, so a call
    builds no tuple, list or generator; see `_composer`."""
    if len(inner) != outer.arity:
        raise ValueError("inner count must match outer arity")
    arity = inner[0].arity
    if any(g.arity != arity for g in inner):
        raise ValueError("inner operations must share an arity")
    fn = _composer(outer.arity, arity)(outer.fn, *(g.fn for g in inner))
    label = f"{outer.name}({', '.join(g.name for g in inner)})"
    return SymbolicFn(label, arity, fn)


@functools.cache
def _composer(m: int, n: int) -> Callable[..., Callable[..., int]]:
    """A factory (out, g_1, ..., g_m) -> the n-ary evaluator
    x̄ -> out(g_1(x̄), ..., g_m(x̄)), its source written out for these
    arities, as `collections.namedtuple` does, and compiled once per pair."""
    xs = ", ".join(f"x{i}" for i in range(n))
    gs = [f"g{j}" for j in range(m)]
    calls = ", ".join(f"{g}({xs})" for g in gs)
    source = (f"def make(out, {', '.join(gs)}):\n"
              f"    def fn({xs}):\n"
              f"        return out({calls})\n"
              f"    return fn\n")
    namespace: dict[str, Callable] = {}
    exec(source, namespace)
    return namespace["make"]


def _first_clash(items: Iterable[tuple], buckets: MutableMapping | None = None):
    """Whether the value is a function of the key, over (key, value, witness)
    triples in order: the first triple whose key sits in buckets with
    another value, as (that key's first witness, this witness), or None.
    Each new key is left in buckets as (value, witness)."""
    if buckets is None:
        buckets = {}
    for key, value, witness in items:
        prior_value, prior_witness = buckets.setdefault(key, (value, witness))
        if prior_value != value:
            return (prior_witness, witness)
    return None


def first_collision(points: Iterable, values: list[int]):
    """The first two of the points whose values (listed in the same order)
    are equal, as (earlier point, later point); None when the values are
    distinct.  The points are walked only when a collision is certain."""
    if len(set(values)) == len(values):
        return None
    return _first_clash((v, p, p) for p, v in zip(points, values))


_CHUNK = 1024  # points check_injective_on evaluates between collision tests


def check_injective_on(f: SymbolicFn, box: Box):
    """None when f is injective on the box region; otherwise the first
    colliding pair of pairs in the lexicographic scan.  A table f keeps
    for the box is read instead of calling f.  Otherwise the region is
    walked row by row (`_row_parts`), calling f as fn(x, y), and its
    values are tested in chunks of _CHUNK points, which may end mid-row:
    the scan stops after the first chunk whose values are not all new."""
    if f.table is not None and (f.table.lo, f.table.hi) == (box.lo, box.hi):
        return f.table.collision(box.region)
    fn, lo = f.evaluator(2), box.lo
    values: list[int] = []
    seen: set[int] = set()
    for i, j, k in _row_parts(box.width, box.region):
        x, ys = lo + i, range(lo + j, lo + k)
        while ys:
            cut = _CHUNK - len(values) % _CHUNK
            piece = [fn(x, y) for y in ys[:cut]]
            values += piece
            seen.update(piece)
            ys = ys[cut:]
            if len(values) % _CHUNK == 0 and len(seen) < len(values):
                return first_collision(box.pairs(), values)
    if len(seen) < len(values):
        return first_collision(box.pairs(), values)
    return None


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

