"""Pairing functions assembled from colorings, gates and merges.

Every construction returns a SymbolicFn and, where a premise is needed,
verifies it on an explicit box; a failed premise raises
ConstructionRefuted with the offending points.  The normalizing unary
maps required by the asymmetric constructions are built over the
verification box, which is the only place they are ever consulted.

The builds over a box evaluate their argument once per point of the box's
square, into a `SquareTable` of w² values that every premise scan reads
and that the returned composite keeps: its calls at in-square arguments
read the table, and only arguments outside the square evaluate the
argument again.  The composite also keeps a `SquareTable` of its own
values on the box's square, so an injectivity check on that box, in any
region, evaluates nothing.  This rests on evaluators being functions of
their arguments (see `clonelab.symbolic`).
"""

from __future__ import annotations

import operator
from typing import Collection, Iterable

from .combinatorics import Coloring, IndependentFamily
from .symbolic import (
    Box,
    ConstructionRefuted,
    SquareTable,
    SymbolicFn,
    cantor_pairing,
    delta_pairing,
)


class InvalidMergeError(ValueError):
    """The supplied merge violates a boundary identity on a checked point."""


def color_gated_pairing(
    colors: Collection[int],
    coloring: Coloring,
    pr: SymbolicFn | None = None,
    name: str | None = None,
) -> SymbolicFn:
    """Pairing gated by the color of the pair.

    Degenerate pairs (either coordinate zero, or equal coordinates) map to
    the maximum; otherwise the pair code passes through exactly when the
    pair's color belongs to the gate set, and is flattened to zero if not.
    """
    pr = pr or cantor_pairing()
    gate = frozenset(colors)
    if any(c < 0 or c >= coloring.mu for c in gate):
        raise ValueError(f"gate colors {sorted(gate)} outside 0..{coloring.mu - 1}")

    color, code = coloring.fn, pr.evaluator(2)

    def fn(a: int, b: int) -> int:
        if a == 0 or b == 0 or a == b:
            return max(a, b)
        if color(a, b) in gate:
            return code(a, b)
        return 0

    label = name or f"gate{{{','.join(str(c) for c in sorted(gate))}}}"
    return SymbolicFn(label, 2, fn)


def recovered_pairing(
    a_colors: Collection[int],
    b_colors: Collection[int],
    coloring: Coloring,
    pr: SymbolicFn | None = None,
) -> SymbolicFn:
    """Recover the pairing from two gates whose color sets cover everything.

    For distinct positive arguments one of three things happens: both gates
    pass the code (the outer gate sees a diagonal pair), only the first does
    (second coordinate zero), or only the second does (first coordinate
    zero); in each case the outer gate returns the code unchanged.
    """
    pr = pr or cantor_pairing()
    a_set, b_set = frozenset(a_colors), frozenset(b_colors)
    missing = set(range(coloring.mu)) - (a_set | b_set)
    if missing:
        raise ValueError(f"gate sets do not cover colors {sorted(missing)}")
    first = color_gated_pairing(a_set, coloring, pr).fn
    second = color_gated_pairing(b_set, coloring, pr).fn

    def fn(a: int, b: int) -> int:
        return first(first(a, b), second(a, b))

    return SymbolicFn("recovered_pair", 2, fn)


_LEFT_MARK = 1   # image of 0 under the left injection 4x+1
_RIGHT_MARK = 3  # image of 0 under the right injection 4x+3


def _left_inject(v: int) -> int:
    return 4 * v + 1


def _right_inject(v: int) -> int:
    return 4 * v + 3


def two_sided_pairing(
    merge: SymbolicFn,
    pr: SymbolicFn | None = None,
    check_box: Box | None = None,
) -> SymbolicFn:
    """Pairing from one lower-triangle pairing and a merge with marker ids.

    Both triangle halves are routed through injections with disjoint odd
    ranges (4v+1 and 4v+3), so the merge only needs to return its non-marker
    argument; the two halves then land in distinct residue classes mod 4.
    """
    pr = pr or cantor_pairing()
    below, merge_fn = delta_pairing(pr).fn, merge.evaluator(2)

    if check_box is not None:
        # the all-markers cell merge(left 0, right 0) is deliberately free:
        # it only shapes the constant diagonal value
        for x, y in check_box.pairs():
            v = below(x, y)
            if v == 0:
                continue
            if merge_fn(_left_inject(v), _RIGHT_MARK) != _left_inject(v):
                raise InvalidMergeError(
                    f"merge({_left_inject(v)}, {_RIGHT_MARK}) != {_left_inject(v)}"
                )
            if merge_fn(_LEFT_MARK, _right_inject(v)) != _right_inject(v):
                raise InvalidMergeError(
                    f"merge({_LEFT_MARK}, {_right_inject(v)}) != {_right_inject(v)}"
                )

    def fn(x: int, y: int) -> int:
        return merge_fn(_left_inject(below(x, y)), _right_inject(below(y, x)))

    return SymbolicFn("two_sided_pair", 2, fn)


def marked_merge() -> SymbolicFn:
    """Merge matching the two_sided_pairing markers: returns its first
    argument when the second is the right marker, its second when the first
    is the left marker, 0 otherwise."""

    def fn(a: int, b: int) -> int:
        if b == _RIGHT_MARK:
            return a
        if a == _LEFT_MARK:
            return b
        return 0

    return SymbolicFn("marked_merge", 2, fn)


def nested_pairing(f: SymbolicFn, box: Box) -> SymbolicFn:
    """Pairing (x, y) -> F(x, F(x, y)) from a symmetric F injective below the
    diagonal.

    When F does not already dominate max it is lifted by a unary shift built
    over the box (values seen on the box go above the box, everything else
    higher still, injectively), which preserves symmetry and injectivity.
    The composite is then verified injective on the box's off-diagonal part;
    any collision refutes the construction.
    """
    arg = f.evaluator(2)
    square = SquareTable.of(arg, box)
    asymmetry = square.asymmetry()
    if asymmetry is not None:
        x, y = asymmetry
        raise ConstructionRefuted("argument not symmetric", ((x, y), (y, x)))
    collision = square.collision("delta")
    if collision is not None:
        raise ConstructionRefuted("argument not injective below the diagonal", collision)

    at = square.reader(arg)
    lo, hi, w, t = box.lo, box.hi, box.width, square.values
    rows = [(lo + i, t[i * w:(i + 1) * w]) for i in range(w)]
    # v <= max(x, y) exactly when v <= x or v <= y, and every max(x, y) is
    # below hi, so values from hi up need no lift and no per-point test
    lift = min(t) < hi and any(
        min(row) <= x or any(map(operator.le, row, box.points())) for x, row in rows)
    # the inner g(x, y) comes from the table, so each point costs at most
    # one outer call
    if lift:
        ranks = {v: i for i, v in enumerate(sorted(set(t)))}

        def shift(v: int) -> int:
            if v in ranks:
                return hi + ranks[v]
            return hi + len(ranks) + v

        def g(x: int, y: int) -> int:
            return shift(at(x, y))

        values = [g(x, shift(v)) for x, row in rows for v in row]
    else:
        g = at
        values = [g(x, v) for x, row in rows for v in row]

    def fn(x: int, y: int) -> int:
        return g(x, g(x, y))

    table = SquareTable(box.lo, box.hi, values)
    collision = table.collision("offdiag")
    if collision is not None:
        raise ConstructionRefuted("composite not injective off the diagonal", collision)
    return SymbolicFn("nested_pair", 2, table.reader(fn), table=table)


def split_merge_pairing(f: SymbolicFn, merge: SymbolicFn, box: Box) -> SymbolicFn:
    """Pairing (x, y) -> merge(F x y, F y x + 1) from an F whose two triangle
    images are disjoint with the upper one injective.

    F is normalized over the box by a unary map sending below-diagonal
    values to 0 and above-diagonal values to distinct positive evens; the
    merge identities then route the surviving half through unchanged, and
    the two halves end up with opposite parities.  That makes the composite
    injective off the diagonal once the premises and merge identities hold,
    so it is not scanned for collisions: a point (x, y) above the diagonal
    maps to merge(e, 1) = e, the even of F(x, y), and one below to
    merge(0, e + 1) = e + 1, e the even of F(y, x); F is injective above the
    diagonal, so the evens are distinct, and so are the odds.
    """
    arg = f.evaluator(2)
    square = SquareTable.of(arg, box)
    below_vals = set(square.values_on("delta"))
    above_vals = set(square.values_on("nabla"))
    overlap = below_vals & above_vals
    if overlap:
        raise ConstructionRefuted(
            "triangle images are not disjoint", sorted(overlap)[:4]
        )
    collision = square.collision("nabla")
    if collision is not None:
        raise ConstructionRefuted("argument not injective above the diagonal", collision)

    evens = {v: 2 * (i + 1) for i, v in enumerate(sorted(above_vals))}
    spare = 2 * len(above_vals) + 1

    def normalize(v: int) -> int:
        if v in below_vals:
            return 0
        if v in evens:
            return evens[v]
        return spare + 2 * v  # odd, so it never shadows a normalized even

    at, merge_fn = square.reader(arg), merge.evaluator(2)

    def g(x: int, y: int) -> int:
        return normalize(at(x, y))

    for e in evens.values():
        if merge_fn(e, 1) != e:
            raise InvalidMergeError(f"merge({e}, 1) != {e}")
        if merge_fn(0, e + 1) != e + 1:
            raise InvalidMergeError(f"merge(0, {e + 1}) != {e + 1}")

    def fn(x: int, y: int) -> int:
        return merge_fn(g(x, y), g(y, x) + 1)

    table = SquareTable.of(fn, box)
    return SymbolicFn("split_merge_pair", 2, table.reader(fn), table=table)


def family_generators(
    family: IndependentFamily,
    included: Iterable[int],
    coloring: Coloring,
    pr: SymbolicFn | None = None,
) -> list[SymbolicFn]:
    """One gated pairing per family index: the set itself for included
    indices, its complement otherwise."""
    pr = pr or cantor_pairing()
    size = len(family.base)
    if coloring.mu != size:
        raise ValueError(f"coloring has {coloring.mu} colors, family base has {size}")
    chosen = set(included)
    out = []
    for i, positions in enumerate(family.sets):
        colors = positions if i in chosen else frozenset(range(size)) - positions
        tag = "+" if i in chosen else "-"
        out.append(color_gated_pairing(colors, coloring, pr, name=f"gate{tag}{i}"))
    return out
