"""Two-variable terms over a symbol registry, and their unary reductions.

A term is built from the variables x and y, natural constants, unary
applications and binary applications; symbols resolve by name in a
Registry.  The partial evaluator reduces a term, relative to an infinite
subset S of the naturals, to a constant or to a unary map of one variable
that is injective on S.  Classifying a map as injective-or-constant on an
infinite set is undecidable, so classification samples a prefix of S: the
"neither" outcome is certified by explicit witnesses (a collision plus two
distinct values), while the positive outcomes carry their probe budget.

Case map of the reduction (the mirrored variants are spelled out):

  leaves        x -> (id, x)   y -> (id, y)   c -> c
  unary app     f(c) -> f(c)
                f((g, v)) -> classify f∘g: (f∘g, v) | constant | undefined
  binary app    B(c1, c2) -> B(c1, c2)
                B((f, v), c) and B(c, (f, v))   -> classify one-sided map
                B((f1, v), (f2, v))             -> classify t -> B(f1 t, f2 t)
                B((f1, x), (f2, y)) and mirror  -> the constant 0 (cross case)

The cross case is what makes reductions useful: on pairs where every
binary symbol vanishes on the cross values, the reduced form agrees with
the term, which is exactly what find_agreement searches for.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .combinatorics import Coloring
from .symbolic import Box, SymbolicFn, first_collision


class RegistryError(KeyError):
    """A term symbol does not resolve in the registry."""


class InconclusiveError(RuntimeError):
    """The probe budget ran out before a classification was possible."""


# -- grammar ----------------------------------------------------------------

class Term:
    __slots__ = ()

    def size(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class VarX(Term):
    __slots__ = ()

    def size(self) -> int:
        return 1


@dataclass(frozen=True)
class VarY(Term):
    __slots__ = ()

    def size(self) -> int:
        return 1


@dataclass(frozen=True)
class Const(Term):
    value: int

    def size(self) -> int:
        return 1


@dataclass(frozen=True)
class UnaryApp(Term):
    symbol: str
    arg: Term

    def size(self) -> int:
        return 1 + self.arg.size()


@dataclass(frozen=True)
class BinaryApp(Term):
    symbol: str
    left: Term
    right: Term

    def size(self) -> int:
        return 1 + self.left.size() + self.right.size()


def subterms(t: Term) -> Iterator[tuple[tuple[int, ...], Term]]:
    """All subterms with their child-index paths, post-order."""
    if isinstance(t, UnaryApp):
        for path, s in subterms(t.arg):
            yield (0,) + path, s
    elif isinstance(t, BinaryApp):
        for path, s in subterms(t.left):
            yield (0,) + path, s
        for path, s in subterms(t.right):
            yield (1,) + path, s
    yield (), t


def binary_symbols(t: Term) -> frozenset[str]:
    return frozenset(
        s.symbol for _, s in subterms(t) if isinstance(s, BinaryApp)
    )


# -- registry and s-expression format ---------------------------------------

class Registry:
    """Named unary and binary symbols shared by terms, tests and the CLI."""

    def __init__(self):
        self.unary: dict[str, SymbolicFn] = {}
        self.binary: dict[str, SymbolicFn] = {}

    def register(self, fn: SymbolicFn) -> "Registry":
        if fn.arity == 1:
            self.unary[fn.name] = fn
        elif fn.arity == 2:
            self.binary[fn.name] = fn
        else:
            raise ValueError("terms only use unary and binary symbols")
        return self

    def get_unary(self, name: str) -> SymbolicFn:
        try:
            return self.unary[name]
        except KeyError:
            raise RegistryError(f"unknown unary symbol {name!r}") from None

    def get_binary(self, name: str) -> SymbolicFn:
        try:
            return self.binary[name]
        except KeyError:
            raise RegistryError(f"unknown binary symbol {name!r}") from None


def default_registry() -> Registry:
    from .symbolic import cantor_pairing, delta_pairing, max_fn, min_fn, standard_merge

    reg = Registry()
    reg.register(SymbolicFn("id", 1, lambda x: x))
    reg.register(SymbolicFn("succ", 1, lambda x: x + 1))
    reg.register(SymbolicFn("double", 1, lambda x: 2 * x))
    reg.register(SymbolicFn("half", 1, lambda x: x // 2))
    reg.register(SymbolicFn("zero", 1, lambda x: 0))
    reg.register(max_fn())
    reg.register(min_fn())
    reg.register(cantor_pairing())
    reg.register(delta_pairing())
    reg.register(standard_merge())
    return reg


_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def parse_term(text: str) -> Term:
    """S-expression term syntax: x, y, <nat>, (u:<name> t), (b:<name> t t)."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of term")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse() -> Term:
        tok = take()
        if tok == "(":
            head = take()
            if head.startswith("u:"):
                arg = parse()
                if take() != ")":
                    raise ValueError("unary application takes exactly one subterm")
                return UnaryApp(head[2:], arg)
            if head.startswith("b:"):
                left = parse()
                right = parse()
                if take() != ")":
                    raise ValueError("binary application takes exactly two subterms")
                return BinaryApp(head[2:], left, right)
            raise ValueError(f"application head must be u:<name> or b:<name>, got {head!r}")
        if tok == ")":
            raise ValueError("unexpected ')'")
        if tok == "x":
            return VarX()
        if tok == "y":
            return VarY()
        if tok.isdigit():
            return Const(int(tok))
        raise ValueError(f"unknown token {tok!r}")

    out = parse()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens after term: {tokens[pos:]}")
    return out


def format_term(t: Term) -> str:
    if isinstance(t, VarX):
        return "x"
    if isinstance(t, VarY):
        return "y"
    if isinstance(t, Const):
        return str(t.value)
    if isinstance(t, UnaryApp):
        return f"(u:{t.symbol} {format_term(t.arg)})"
    if isinstance(t, BinaryApp):
        return f"(b:{t.symbol} {format_term(t.left)} {format_term(t.right)})"
    raise TypeError(f"not a term: {t!r}")


def eval_term(t: Term, x: int, y: int, registry: Registry) -> int:
    if isinstance(t, VarX):
        return x
    if isinstance(t, VarY):
        return y
    if isinstance(t, Const):
        return t.value
    if isinstance(t, UnaryApp):
        return registry.get_unary(t.symbol)(eval_term(t.arg, x, y, registry))
    if isinstance(t, BinaryApp):
        return registry.get_binary(t.symbol)(
            eval_term(t.left, x, y, registry), eval_term(t.right, x, y, registry)
        )
    raise TypeError(f"not a term: {t!r}")


# -- subsets of the naturals --------------------------------------------------

@dataclass(frozen=True, eq=False)
class SubsetSpec:
    """A decidable subset of the naturals with an increasing enumeration.

    Enumerated elements are spot-checked against the membership predicate,
    so a spec whose two halves disagree fails loudly on first use.

    A thinning layer keeps the spec it thins as `base`, and `depth` counts
    the layers above the root.  Greedy layers share one lazy prefix between
    membership and enumeration (see `greedy`), so `first(n)` through stacked
    layers costs time linear in their number, not exponential.  `scanned`
    counts the base elements that the spec's greedy layers examined.
    """

    contains: Callable[[int], bool]
    enumerate_from: Callable[[], Iterator[int]]
    label: str = "subset"
    base: "SubsetSpec | None" = None
    _greedy: "_GreedyPrefix | None" = field(default=None, repr=False)

    @property
    def depth(self) -> int:
        return 0 if self.base is None else self.base.depth + 1

    @property
    def scanned(self) -> int:
        own = 0 if self._greedy is None else self._greedy.scanned
        return own + (0 if self.base is None else self.base.scanned)

    def elements(self) -> Iterator[int]:
        last = None
        for v in self.enumerate_from():
            if last is not None and v <= last:
                raise ValueError(f"{self.label}: enumeration not increasing at {v}")
            if not self.contains(v):
                raise ValueError(f"{self.label}: enumerated {v} fails the predicate")
            last = v
            yield v

    def first(self, n: int) -> list[int]:
        return list(itertools.islice(self.elements(), n))

    @classmethod
    def naturals(cls) -> "SubsetSpec":
        return cls(lambda v: v >= 0, lambda: itertools.count(0), "naturals")

    @classmethod
    def evens(cls) -> "SubsetSpec":
        return cls(lambda v: v >= 0 and v % 2 == 0, lambda: itertools.count(0, 2), "evens")

    @classmethod
    def odds(cls) -> "SubsetSpec":
        return cls(lambda v: v >= 1 and v % 2 == 1, lambda: itertools.count(1, 2), "odds")

    @classmethod
    def filtered(cls, base: "SubsetSpec", keep: Callable[[int], bool], label: str) -> "SubsetSpec":
        return cls(
            lambda v: base.contains(v) and keep(v),
            lambda: (v for v in base.elements() if keep(v)),
            label,
            base,
        )

    @classmethod
    def greedy(
        cls, base: "SubsetSpec", accept: Callable[[int, list[int]], bool], label: str
    ) -> "SubsetSpec":
        """The elements of base kept by accept, decided greedily.

        accept(x, kept) is called once per base element, in increasing
        order, with the elements kept so far.  Membership grows the shared
        prefix past the asked point and bisects the kept list; enumeration
        walks it.  Once the base or accept has raised, every later call
        raises the same error, so a failure never passes for a finite set.
        """
        prefix = _GreedyPrefix(base, accept)
        return cls(prefix.contains, prefix.walk, label, base, prefix)


class _GreedyPrefix:
    """One greedy layer's state: a single pass over the base enumeration,
    the append-only list of kept elements, and the first error raised."""

    def __init__(self, base: SubsetSpec, accept: Callable[[int, list[int]], bool]):
        self.base, self.accept = base, accept
        self.source = base.elements()
        self.kept: list[int] = []
        self.last = -1  # the last base element examined
        self.scanned = 0
        self.error: BaseException | None = None

    def _advance(self) -> bool:
        """Examine the next base element; False once the base is exhausted."""
        if self.error is not None:
            raise self.error
        try:
            x = next(self.source, None)
            if x is None:
                return False
            self.scanned += 1
            self.last = x
            if self.accept(x, self.kept):
                self.kept.append(x)
            return True
        except BaseException as exc:
            self.error = exc
            raise

    def contains(self, x: int) -> bool:
        if self.error is not None:
            raise self.error
        if not self.base.contains(x):
            return False
        while self.last < x and self._advance():
            pass
        i = bisect.bisect_left(self.kept, x)
        return i < len(self.kept) and self.kept[i] == x

    def walk(self) -> Iterator[int]:
        # after a failure, elements() raises at its membership check
        i = 0
        while i < len(self.kept) or self._advance():
            if i < len(self.kept):
                yield self.kept[i]
                i += 1


_BUILTIN_SUBSETS = {
    "all": SubsetSpec.naturals,
    "evens": SubsetSpec.evens,
    "odds": SubsetSpec.odds,
}


def builtin_subset(name: str) -> SubsetSpec:
    if name not in _BUILTIN_SUBSETS:
        raise ValueError(f"unknown subset {name!r}; builtins: {sorted(_BUILTIN_SUBSETS)}")
    return _BUILTIN_SUBSETS[name]()


# -- classification and partial evaluation -----------------------------------

CONST = "constant"
UNARY_X = "unary-x"
UNARY_Y = "unary-y"
UNDEFINED = "undefined"


@dataclass(frozen=True, eq=False)
class PartialResult:
    """Outcome of reducing a term relative to a subset.

    Defined results are a constant or a one-variable map claimed injective
    on the sampled prefix; maps records every such map a subterm reduced
    to, which is what the agreement search needs.
    """

    kind: str
    value: int | None = None
    map: Callable[[int], int] | None = None
    reason: str | None = None
    path: tuple[int, ...] | None = None
    offending_map: Callable[[int], int] | None = None
    maps: tuple[Callable[[int], int], ...] = ()
    probes: int = 0

    @property
    def defined(self) -> bool:
        return self.kind != UNDEFINED

    def evaluate(self, x: int, y: int) -> int:
        if self.kind == CONST:
            assert self.value is not None
            return self.value
        if self.kind == UNARY_X:
            assert self.map is not None
            return self.map(x)
        if self.kind == UNARY_Y:
            assert self.map is not None
            return self.map(y)
        raise ValueError("undefined reduction has no value")


class _Undefined(Exception):
    """Carries an undefined reduction from the subterm that failed to the top."""

    def __init__(self, result: PartialResult):
        super().__init__(result.reason)
        self.result = result


def classify_on(
    h: Callable[[int], int], subset: SubsetSpec, probe_budget: int
):
    """Sampled injective-or-constant classification on a subset prefix.

    Returns ("injective", None), ("constant", value) or
    ("neither", (collision pair, distinct pair)); raises InconclusiveError
    when fewer than two probes are available.
    """
    xs = subset.first(probe_budget)
    if len(xs) < 2:
        raise InconclusiveError("need at least two probe points to classify")
    values = [h(x) for x in xs]
    collision = first_collision(xs, values)
    if collision is None:
        return ("injective", None)
    distinct = sorted(set(values))
    if len(distinct) == 1:
        return ("constant", values[0])
    return ("neither", (collision, tuple(xs[values.index(v)] for v in distinct[:2])))


def partial_eval(
    t: Term, subset: SubsetSpec, registry: Registry, probe_budget: int = 64
) -> PartialResult:
    """Reduce the term to a constant or a one-variable map relative to subset.

    Raises ValueError, before any work, for a negative probe budget."""
    if probe_budget < 0:
        raise ValueError(f"probe_budget must be >= 0, got {probe_budget}")
    maps: list[Callable[[int], int]] = []

    def classified(h, path, side):
        verdict, detail = classify_on(h, subset, probe_budget)
        if verdict == "injective":
            maps.append(h)
            return side, h
        if verdict == "constant":
            return CONST, detail
        raise _Undefined(PartialResult(
            UNDEFINED, reason="neither injective nor constant on the subset",
            path=path, offending_map=h, probes=probe_budget,
        ))

    def go(node: Term, path: tuple[int, ...]):
        """(CONST, value) or (side, map); raises _Undefined."""
        if isinstance(node, (VarX, VarY)):
            ident = lambda v: v  # noqa: E731
            maps.append(ident)
            return (UNARY_X if isinstance(node, VarX) else UNARY_Y), ident
        if isinstance(node, Const):
            return CONST, node.value
        if isinstance(node, UnaryApp):
            kind, g = go(node.arg, path + (0,))
            f = registry.get_unary(node.symbol)
            if kind == CONST:
                return CONST, f(g)
            return classified(lambda v: f(g(v)), path, kind)
        if isinstance(node, BinaryApp):
            lkind, left = go(node.left, path + (0,))
            rkind, right = go(node.right, path + (1,))
            b = registry.get_binary(node.symbol)
            if lkind == CONST and rkind == CONST:
                return CONST, b(left, right)
            if lkind == CONST:
                return classified(lambda v: b(left, right(v)), path, rkind)
            if rkind == CONST:
                return classified(lambda v: b(left(v), right), path, lkind)
            if lkind == rkind:
                return classified(lambda v: b(left(v), right(v)), path, lkind)
            # cross case: one side rides x, the other rides y
            return CONST, 0
        raise TypeError(f"not a term: {node!r}")

    try:
        kind, reduced = go(t, ())
    except _Undefined as undefined:
        return undefined.result
    if kind == CONST:
        return PartialResult(CONST, value=reduced, maps=tuple(maps), probes=probe_budget)
    return PartialResult(kind, map=reduced, maps=tuple(maps), probes=probe_budget)


# -- thinning ----------------------------------------------------------------

_LOOKAHEAD = 16  # _thin_unary's look-ahead, in multiples of the probe budget
_MAX_ROUNDS = 32  # thin_for gives up after this many thinning rounds


def _thin_unary(h: Callable[[int], int], subset: SubsetSpec, probe_budget: int) -> SubsetSpec:
    """Shrink the subset until h is injective or constant on it.

    When the sampled range is tiny, restrict to the most frequent value's
    preimage (aiming at constant); otherwise keep greedily the first
    element of each h-fiber (aiming at injective).  The injective branch
    needs probe_budget distinct values, so a look-ahead over up to
    _LOOKAHEAD * probe_budget elements must find that many first; if it
    does not, the constant branch runs on the look-ahead sample.  Whether
    a map takes finitely many values on an infinite set stays undecidable:
    a map with finitely many values, probe_budget or more of them inside
    the look-ahead, still takes the injective branch, and enumerating that
    subset past the map's last new value never returns.
    """
    sample = subset.elements()
    values = [h(x) for x in itertools.islice(sample, probe_budget)]
    distinct = len(set(values))
    if distinct * distinct > len(values):
        seen = set(values)
        ahead = itertools.islice(sample, (_LOOKAHEAD - 1) * probe_budget)
        while len(seen) < probe_budget and (x := next(ahead, None)) is not None:
            values.append(h(x))
            seen.add(values[-1])
        # a finite subset ends the greedy pass, so it may take the branch too
        if len(seen) >= probe_budget or len(values) < _LOOKAHEAD * probe_budget:
            first_of_fiber: dict[int, int] = {}

            def accept(x: int, kept: list[int]) -> bool:
                return first_of_fiber.setdefault(h(x), x) == x

            return SubsetSpec.greedy(subset, accept, f"{subset.label}|inj")

    target = max(sorted(set(values)), key=values.count)
    return SubsetSpec.filtered(
        subset, lambda x: h(x) == target, f"{subset.label}|const{target}"
    )


def thin_for(
    terms: Sequence[Term],
    subset: SubsetSpec,
    registry: Registry,
) -> SubsetSpec:
    """Shrink the subset until every term's reduction is defined.

    Each round reduces all terms with partial_eval's probe budget and thins
    at the first offending unary map; definedness is monotone under
    subsets, so earlier successes are never spoiled.  A map is thinned to
    one point per fiber only when a look-ahead of 16 probe budgets finds
    as many distinct values as the budget, and to its most frequent
    value's preimage otherwise.
    """
    current = subset
    for _ in range(_MAX_ROUNDS):
        offender = None
        for t in terms:
            res = partial_eval(t, current, registry)
            if not res.defined:
                offender = res
                break
        if offender is None:
            return current
        current = _thin_unary(offender.offending_map, current, offender.probes)
    raise InconclusiveError(f"still undefined after {_MAX_ROUNDS} thinning rounds")


def thin_disjoint_images(
    subset: SubsetSpec, fns: Sequence[Callable[[int], int]]
) -> SubsetSpec:
    """Keep points whose images under all fns avoid previously kept images."""
    used: set[int] = set()

    def accept(x: int, kept: list[int]) -> bool:
        image = {f(x) for f in fns}
        if len(image) != len(fns) or image & used:
            return False
        used.update(image)
        return True

    return SubsetSpec.greedy(subset, accept, f"{subset.label}|disjoint")


# -- agreement search ----------------------------------------------------------

def cross_values_vanish(
    t: Term,
    maps: Sequence[Callable[[int], int]],
    registry: Registry,
    a: int,
    b: int,
) -> bool:
    """Every binary symbol of the term sends every cross pair of collected
    map values (both orientations) to 0."""
    symbols = [registry.get_binary(name) for name in sorted(binary_symbols(t))]
    for f, g in itertools.product(maps, repeat=2):
        fa, gb = f(a), g(b)
        fb, ga = f(b), g(a)
        for sym in symbols:
            if sym(fa, gb) != 0 or sym(fb, ga) != 0:
                return False
    return True


def find_agreement(
    t: Term,
    subset: SubsetSpec,
    coloring: Coloring,
    c0: int,
    registry: Registry,
    search_bound: int = 64,
) -> tuple[int, int] | None:
    """First pair a < b from the subset on which the term provably agrees
    with its reduction: the pair has the target color, every binary symbol
    vanishes on all cross values, and the evaluations match.
    """
    res = partial_eval(t, subset, registry)
    if not res.defined:
        raise ValueError("term reduction is undefined on this subset; thin first")
    maps = list(res.maps)
    if not maps:
        maps = [lambda v: v]  # constants still constrain the pair itself
    elems = subset.first(search_bound)
    for i, a in enumerate(elems):
        for b in elems[i + 1:]:
            if coloring(a, b) != c0:
                continue
            if not cross_values_vanish(t, maps, registry, a, b):
                continue
            if eval_term(t, a, b, registry) == res.evaluate(a, b):
                return (a, b)
    return None


def agreement_holds(
    t: Term,
    res: PartialResult,
    coloring: Coloring,
    c0: int,
    registry: Registry,
    pair: tuple[int, int],
) -> bool:
    """Post-hoc re-verification of both agreement conjuncts on a found pair."""
    a, b = pair
    return (
        coloring(a, b) == c0
        and eval_term(t, a, b, registry) == res.evaluate(a, b)
    )


# -- bounded term search -------------------------------------------------------

_MAX_LEVEL_CANDIDATES = 1 << 16  # bounded_term_search raises before a larger level


@dataclass(frozen=True)
class SearchStats:
    """per_depth counts the distinct box behaviors (value vectors) first met
    at each depth; candidates_checked counts the candidates up to and
    including the hit, or all of them when there is none.  The last depth's
    count is exact, by partition refinement, though its vectors are never
    stored."""

    per_depth: tuple[int, ...]
    candidates_checked: int


@dataclass(frozen=True)
class SearchResult:
    term: Term | None
    stats: SearchStats


class _Memo(dict):
    """Values of a binary evaluator by operand pair, each computed once."""

    def __init__(self, fn: Callable[[int, int], int]):
        super().__init__()
        self.fn = fn

    def __missing__(self, key: tuple[int, int]) -> int:
        value = self[key] = self.fn(*key)
        return value


# A candidate term, not yet evaluated: (evaluator, operand signatures,
# symbol, operand terms).  A unary evaluator maps over its operand's
# signature, a binary one (its left operand's memo) over the pairs of its
# operands' signatures.
_Candidate = tuple[Callable, tuple[tuple, ...], str, tuple[Term, ...]]


def _values(cand: _Candidate, start: int = 0, stop: int | None = None) -> Iterator[int]:
    """The candidate's values at the points start..stop-1, lazily."""
    fn, operands = cand[0], cand[1]
    if len(operands) == 1:
        return map(fn, operands[0][start:stop])
    left, right = operands
    return map(fn, zip(left[start:stop], right[start:stop]))


def _term(cand: _Candidate) -> Term:
    name, args = cand[2], cand[3]
    return UnaryApp(name, *args) if len(args) == 1 else BinaryApp(name, *args)


def _count_new(cands: list[_Candidate], earlier: Iterable[tuple], n_points: int) -> int:
    """The number of distinct value vectors among the candidates that are
    not among the earlier signatures, by partition refinement.

    One group holds everything at first.  Each round splits every group by
    its members' values on the next block of points, blocks doubling in
    width from one point.  A group left with one candidate and no earlier
    signature counts 1 and one without candidates is dropped; a group that
    survives every point is a true class, and counts 1 unless it holds an
    earlier signature.  A candidate is evaluated only on the blocks its
    group survives, so a distinct vector that parts at point i costs at
    most 2i + 1 values."""
    count = 0
    groups = [(cands, list(earlier))]
    start, width = 0, 1
    while start < n_points and groups:
        stop = start + width
        refined = []
        for members, olds in groups:
            split: dict[tuple, tuple[list, list]] = {}
            for cand in members:
                split.setdefault(tuple(_values(cand, start, stop)), ([], []))[0].append(cand)
            for sig in olds:
                part = split.get(sig[start:stop])
                if part is not None:
                    part[1].append(sig)
            for part in split.values():
                if len(part[0]) == 1 and not part[1]:
                    count += 1
                else:
                    refined.append(part)
        groups = refined
        start, width = stop, 2 * width
    return count + sum(not olds for _, olds in groups)


def bounded_term_search(
    target: SymbolicFn,
    binary_syms: Mapping[str, SymbolicFn],
    unary_syms: Mapping[str, SymbolicFn],
    max_depth: int,
    box: Box,
) -> SearchResult:
    """Iterative-deepening search for a term matching the target on the box.

    Terms are deduplicated by their full value vector on the box, which is
    sound and complete for box agreement: a term's box behavior is
    determined pointwise by its subterms' box behaviors.  A returned term
    agrees with the target on every box point; None means no term over the
    declared symbols matches within the depth bound.

    Every level below max_depth stores the signature of each new vector.
    The last level stores none: its candidates are compared with the
    target first, point by point, and the first full match is the hit,
    the same term the dedup would return.  Its entry in per_depth, the
    distinct new vectors up to the hit, stays exact by partition
    refinement against the earlier levels (see _count_new).

    Each binary symbol is evaluated once per distinct (left value, right
    value) pair of one left operand: the memo lives while that operand
    meets its right operands, and is dropped after (on the last level,
    with the level).  Raises ValueError, before any work, for a negative
    depth or a symbol whose arity does not match its mapping, and
    InconclusiveError, before a level is evaluated, when the level would
    hold more than _MAX_LEVEL_CANDIDATES candidates.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    unary = {name: unary_syms[name].evaluator(1) for name in sorted(unary_syms)}
    binary = {name: binary_syms[name].evaluator(2) for name in sorted(binary_syms)}
    points = list(box.pairs())
    target_sig = tuple(target(a, b) for a, b in points)
    levels: list[list[tuple[tuple, Term]]] = []

    def candidates(depth: int) -> Iterator[_Candidate]:
        """Every symbol over the previous level, in sorted symbol order,
        each binary one with an operand from it."""
        prev = levels[depth - 1]
        earlier = [entry for lv in levels[: depth - 1] for entry in lv]
        for name, fn in unary.items():
            for sig, term in prev:
                yield fn, (sig,), name, (term,)
        for name, fn in binary.items():
            for lefts, rights in ((prev, earlier), (earlier, prev), (prev, prev)):
                for lsig, lterm in lefts:
                    get = _Memo(fn).__getitem__
                    for rsig, rterm in rights:
                        yield get, (lsig, rsig), name, (lterm, rterm)

    seen: set[tuple] = set()
    checked = 0
    hit = None
    for depth in range(max_depth + 1):
        if depth == 0:
            stream: Iterable[tuple[tuple, Term]] = (
                (tuple(a for a, _ in points), VarX()), (tuple(b for _, b in points), VarY()))
        else:
            # each unary symbol over the level below, each binary one over
            # (below, earlier), (earlier, below) and (below, below)
            prev = len(levels[-1])
            size = len(unary) * prev + len(binary) * (2 * prev * (len(seen) - prev) + prev * prev)
            if size > _MAX_LEVEL_CANDIDATES:
                raise InconclusiveError(
                    f"term search level {depth} has {size} candidates, "
                    f"more than the budget of {_MAX_LEVEL_CANDIDATES}")
            if depth == max_depth:
                prefix = []
                for cand in candidates(depth):
                    prefix.append(cand)
                    if all(map(operator.eq, _values(cand), target_sig)):
                        hit = _term(cand)
                        break
                checked += len(prefix)
                new = _count_new(prefix, seen, len(points))
                return SearchResult(hit, SearchStats(
                    tuple(len(lv) for lv in levels) + (new,), checked))
            stream = ((tuple(_values(cand)), _term(cand)) for cand in candidates(depth))
        level: list[tuple[tuple, Term]] = []
        levels.append(level)
        for sig, term in stream:
            checked += 1
            if sig in seen:
                continue
            seen.add(sig)
            level.append((sig, term))
            if sig == target_sig:
                hit = term
                break
        if hit is not None:
            break
    return SearchResult(hit, SearchStats(tuple(len(lv) for lv in levels), checked))
