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
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .combinatorics import Coloring
from .symbolic import Box, SymbolicFn


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
    def from_predicate(cls, pred: Callable[[int], bool], label: str = "filtered") -> "SubsetSpec":
        return cls(pred, lambda: (v for v in itertools.count(0) if pred(v)), label)

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
    on the sampled prefix; maps and consts record what every subterm
    reduced to, which is what the agreement search needs.
    """

    kind: str
    value: int | None = None
    map: Callable[[int], int] | None = None
    reason: str | None = None
    path: tuple[int, ...] | None = None
    offending_map: Callable[[int], int] | None = None
    maps: tuple[Callable[[int], int], ...] = ()
    consts: tuple[int, ...] = ()
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
    seen: dict[int, int] = {}
    collision = None
    for x, v in zip(xs, values):
        if v in seen and collision is None:
            collision = (seen[v], x)
        seen.setdefault(v, x)
    distinct = len(set(values)) > 1
    if collision is None:
        return ("injective", None)
    if not distinct:
        return ("constant", values[0])
    first_two = sorted(set(values))[:2]
    witness_pair = (seen[first_two[0]], seen[first_two[1]])
    return ("neither", (collision, witness_pair))


def partial_eval(
    t: Term, subset: SubsetSpec, registry: Registry, probe_budget: int = 64
) -> PartialResult:
    """Reduce the term to a constant or a one-variable map relative to subset."""
    maps: list[Callable[[int], int]] = []
    consts: list[int] = []

    def classified(h, path, side):
        verdict, detail = classify_on(h, subset, probe_budget)
        if verdict == "injective":
            maps.append(h)
            return PartialResult(side, map=h, probes=probe_budget)
        if verdict == "constant":
            consts.append(detail)
            return PartialResult(CONST, value=detail, probes=probe_budget)
        return PartialResult(
            UNDEFINED, reason="neither injective nor constant on the subset",
            path=path, offending_map=h, probes=probe_budget,
        )

    def go(node: Term, path: tuple[int, ...]) -> PartialResult:
        if isinstance(node, VarX):
            ident = lambda v: v  # noqa: E731
            maps.append(ident)
            return PartialResult(UNARY_X, map=ident)
        if isinstance(node, VarY):
            ident = lambda v: v  # noqa: E731
            maps.append(ident)
            return PartialResult(UNARY_Y, map=ident)
        if isinstance(node, Const):
            consts.append(node.value)
            return PartialResult(CONST, value=node.value)
        if isinstance(node, UnaryApp):
            sub = go(node.arg, path + (0,))
            if not sub.defined:
                return sub
            f = registry.get_unary(node.symbol)
            if sub.kind == CONST:
                value = f(sub.value)
                consts.append(value)
                return PartialResult(CONST, value=value)
            g = sub.map
            return classified(lambda v, _f=f, _g=g: _f(_g(v)), path, sub.kind)
        if isinstance(node, BinaryApp):
            left = go(node.left, path + (0,))
            if not left.defined:
                return left
            right = go(node.right, path + (1,))
            if not right.defined:
                return right
            b = registry.get_binary(node.symbol)
            if left.kind == CONST and right.kind == CONST:
                value = b(left.value, right.value)
                consts.append(value)
                return PartialResult(CONST, value=value)
            if left.kind == CONST:
                g = right.map
                return classified(
                    lambda v, _b=b, _c=left.value, _g=g: _b(_c, _g(v)), path, right.kind
                )
            if right.kind == CONST:
                g = left.map
                return classified(
                    lambda v, _b=b, _c=right.value, _g=g: _b(_g(v), _c), path, left.kind
                )
            if left.kind == right.kind:
                f1, f2 = left.map, right.map
                return classified(
                    lambda v, _b=b, _f1=f1, _f2=f2: _b(_f1(v), _f2(v)), path, left.kind
                )
            # cross case: one side rides x, the other rides y
            consts.append(0)
            return PartialResult(CONST, value=0)
        raise TypeError(f"not a term: {node!r}")

    result = go(t, ())
    if not result.defined:
        return result
    return PartialResult(
        kind=result.kind, value=result.value, map=result.map,
        maps=tuple(maps), consts=tuple(consts), probes=probe_budget,
    )


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
    probe_budget: int = 64,
) -> SubsetSpec:
    """Shrink the subset until every term's reduction is defined.

    Each round reduces all terms and thins at the first offending unary
    map; definedness is monotone under subsets, so earlier successes are
    never spoiled.  A map is thinned to one point per fiber only when a
    look-ahead of 16 probe budgets finds probe_budget distinct values, and
    to its most frequent value's preimage otherwise.
    """
    current = subset
    for _ in range(_MAX_ROUNDS):
        offender = None
        for t in terms:
            res = partial_eval(t, current, registry, probe_budget)
            if not res.defined:
                offender = res.offending_map
                break
        if offender is None:
            return current
        current = _thin_unary(offender, current, probe_budget)
    raise InconclusiveError(f"still undefined after {_MAX_ROUNDS} thinning rounds")


def thin_disjoint_images(
    subset: SubsetSpec, fns: Sequence[Callable[[int], int]], label: str = "disjoint"
) -> SubsetSpec:
    """Keep points whose images under all fns avoid previously kept images."""
    used: set[int] = set()

    def accept(x: int, kept: list[int]) -> bool:
        image = {f(x) for f in fns}
        if len(image) != len(fns) or image & used:
            return False
        used.update(image)
        return True

    return SubsetSpec.greedy(subset, accept, f"{subset.label}|{label}")


def thin_avoid_pairing_collisions(
    subset: SubsetSpec,
    fns: Sequence[Callable[[int], int]],
    pr: SymbolicFn,
) -> SubsetSpec:
    """Keep points so that no kept pair (a, b) has pr(a, b) or pr(b, a)
    colliding with an image f(a) or f(b)."""

    def accept(x: int, kept: list[int]) -> bool:
        return not any(
            f(x) in (pr(x, b), pr(b, x)) or f(b) in (pr(x, b), pr(b, x))
            for b in kept for f in fns
        )

    return SubsetSpec.greedy(subset, accept, f"{subset.label}|pairfree")


def thin_avoid_constants(
    subset: SubsetSpec, constants: Iterable[int], pr: SymbolicFn
) -> SubsetSpec:
    """Keep points so that no kept pair codes to one of the given constants."""
    bad = frozenset(constants)

    def accept(x: int, kept: list[int]) -> bool:
        return all(
            pr(x, b) not in bad and pr(b, x) not in bad for b in kept
        ) and pr(x, x) not in bad

    return SubsetSpec.greedy(subset, accept, f"{subset.label}|constfree")


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
    probe_budget: int = 64,
) -> tuple[int, int] | None:
    """First pair a < b from the subset on which the term provably agrees
    with its reduction: the pair has the target color, every binary symbol
    vanishes on all cross values, and the evaluations match.
    """
    res = partial_eval(t, subset, registry, probe_budget)
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

@dataclass(frozen=True)
class SearchStats:
    per_depth: tuple[int, ...]        # distinct box behaviors discovered per depth
    candidates_checked: int


@dataclass(frozen=True)
class SearchResult:
    term: Term | None
    stats: SearchStats


def bounded_term_search(
    target: SymbolicFn,
    binary_syms: Mapping[str, SymbolicFn],
    unary_syms: Mapping[str, SymbolicFn],
    max_depth: int,
    box: Box,
    consts: Sequence[int] = (),
) -> SearchResult:
    """Iterative-deepening search for a term matching the target on the box.

    Terms are deduplicated by their full value vector on the box, which is
    sound and complete for box agreement: a term's box behavior is
    determined pointwise by its subterms' box behaviors.  A returned term
    agrees with the target on every box point; None means no term over the
    declared symbols and constants matches within the depth bound.
    """
    points = list(box.pairs())
    target_sig = tuple(target(a, b) for a, b in points)

    seen: dict[tuple, Term] = {}
    levels: list[list[tuple[tuple, Term]]] = []
    checked = 0

    def offer(sig: tuple, term: Term, level: list) -> Term | None:
        nonlocal checked
        checked += 1
        if sig in seen:
            return None
        seen[sig] = term
        level.append((sig, term))
        return term if sig == target_sig else None

    level0: list[tuple[tuple, Term]] = []
    base_terms: list[tuple[Term, Callable[[int, int], int]]] = [
        (VarX(), lambda a, b: a),
        (VarY(), lambda a, b: b),
    ] + [(Const(c), lambda a, b, _c=c: _c) for c in consts]
    for term, fn in base_terms:
        sig = tuple(fn(a, b) for a, b in points)
        hit = offer(sig, term, level0)
        if hit is not None:
            return SearchResult(hit, SearchStats((len(level0),), checked))
    levels.append(level0)

    for depth in range(1, max_depth + 1):
        level: list[tuple[tuple, Term]] = []
        prev = levels[depth - 1]
        earlier = [entry for lv in levels[: depth - 1] for entry in lv]
        for name in sorted(unary_syms):
            fn = unary_syms[name]
            for sig, term in prev:
                new_sig = tuple(fn(v) for v in sig)
                hit = offer(new_sig, UnaryApp(name, term), level)
                if hit is not None:
                    return SearchResult(
                        hit, SearchStats(tuple(len(lv) for lv in levels) + (len(level),), checked)
                    )
        for name in sorted(binary_syms):
            fn = binary_syms[name]
            pairs = itertools.chain(
                itertools.product(prev, earlier),
                itertools.product(earlier, prev),
                itertools.product(prev, prev),
            )
            for (lsig, lterm), (rsig, rterm) in pairs:
                new_sig = tuple(fn(u, v) for u, v in zip(lsig, rsig))
                hit = offer(new_sig, BinaryApp(name, lterm, rterm), level)
                if hit is not None:
                    return SearchResult(
                        hit, SearchStats(tuple(len(lv) for lv in levels) + (len(level),), checked)
                    )
        levels.append(level)

    return SearchResult(None, SearchStats(tuple(len(lv) for lv in levels), checked))
