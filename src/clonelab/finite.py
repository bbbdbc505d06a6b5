"""Operation tables on finite carriers and bounded clone computations.

Everything here is exhaustive and exact: operations are explicit value
tables, relations are explicit tuple sets, and clone closures are computed
arity slice by arity slice.  The n-ary slice of the clone generated by a
set G is exactly the set of tables reachable from the n projection tables
by pointwise application of members of G, so no intermediate of arity
above the requested cap is ever materialized.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np


class ResourceLimitError(RuntimeError):
    """Requested computation exceeds the configured enumeration budget."""


@dataclass(frozen=True, order=True)
class Carrier:
    """A finite carrier; elements are 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError(f"carrier size must be >= 2, got {self.size}")

    def elements(self) -> range:
        return range(self.size)

    def tuples(self, arity: int) -> Iterator[tuple[int, ...]]:
        """All arity-tuples in lexicographic order, leftmost most significant."""
        return itertools.product(range(self.size), repeat=arity)


@dataclass(frozen=True)
class OpTable:
    """A total finitary operation stored as an explicit value table.

    The table lists values in lexicographic tuple order with the leftmost
    argument most significant: the entry for (x1,..,xn) sits at index
    sum(x_i * k^(n-1-i)).
    """

    carrier: Carrier
    arity: int
    table: tuple[int, ...]

    def __post_init__(self):
        k = self.carrier.size
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")
        if len(self.table) != k**self.arity:
            raise ValueError(
                f"table length {len(self.table)} != {k}^{self.arity}"
            )
        if min(self.table) < 0 or max(self.table) >= k:
            raise ValueError("table entry outside carrier")

    @classmethod
    def from_fn(cls, carrier: Carrier, arity: int, fn: Callable[..., int]) -> "OpTable":
        return cls(carrier, arity, tuple(fn(*t) for t in carrier.tuples(arity)))

    def index(self, args: Sequence[int]) -> int:
        k = self.carrier.size
        idx = 0
        for a in args:
            idx = idx * k + a
        return idx

    def __call__(self, *args: int) -> int:
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        return self.table[self.index(args)]

    def sort_key(self) -> tuple:
        return (self.arity, self.table)


def make_projection(arity: int, coordinate: int, carrier: Carrier) -> OpTable:
    """The arity-ary operation returning its coordinate-th argument (1-based)."""
    if not 1 <= coordinate <= arity:
        raise ValueError(f"coordinate {coordinate} out of range 1..{arity}")
    return OpTable.from_fn(carrier, arity, lambda *t: t[coordinate - 1])


def compose(g: OpTable, fs: Sequence[OpTable]) -> OpTable:
    """Pointwise composition g(f_1(x̄), ..., f_m(x̄)).

    All inner operations must share a carrier and arity; g's arity must
    equal the number of inner operations.
    """
    if len(fs) != g.arity:
        raise ValueError(f"g has arity {g.arity} but got {len(fs)} inner operations")
    if not fs:
        raise ValueError("composition needs at least one inner operation")
    carrier, inner_arity = fs[0].carrier, fs[0].arity
    if g.carrier != carrier or any(f.carrier != carrier or f.arity != inner_arity for f in fs):
        raise ValueError("carrier or arity mismatch among composition operands")
    table = tuple(
        g.table[g.index([f.table[i] for f in fs])]
        for i in range(carrier.size**inner_arity)
    )
    return OpTable(carrier, inner_arity, table)


def all_op_tables(carrier: Carrier, arity: int) -> Iterator[OpTable]:
    """Every operation of the given arity, in table-lexicographic order."""
    size = carrier.size**arity
    for values in itertools.product(range(carrier.size), repeat=size):
        yield OpTable(carrier, arity, values)


def op_space_size(carrier: Carrier, arity: int) -> int:
    return carrier.size ** (carrier.size**arity)


@dataclass(frozen=True)
class RelationTable:
    """A finitary relation: a set of fixed-width tuples over the carrier."""

    carrier: Carrier
    width: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self):
        for t in self.tuples:
            if len(t) != self.width:
                raise ValueError(f"tuple {t} has width {len(t)} != {self.width}")
            if any(v < 0 or v >= self.carrier.size for v in t):
                raise ValueError(f"tuple {t} has entries outside the carrier")

    @classmethod
    def unary(cls, carrier: Carrier, members: Iterable[int]) -> "RelationTable":
        return cls(carrier, 1, frozenset((m,) for m in members))


class OpSet:
    """A deduplicated set of operations of arity <= arity_cap on one carrier.

    Each arity n is held as one read-only uint8 array of digit rows, k^n
    entries per row, sorted in table order (the order of all_op_tables).
    The kernels build it from their rows (_from_rows); there is no public
    constructor.  Counting, comparing, hashing and membership read the rows;
    OpTables are built only when the set is iterated.  Two OpSets are equal
    when they share carrier, cap and tables.
    """

    @classmethod
    def _from_rows(cls, carrier: Carrier, arity_cap: int, slices: dict[int, np.ndarray]) -> "OpSet":
        """An OpSet over digit rows that are already unique and in table order.

        Each arity's rows are validated at once (uint8, width k^n, entries
        below k) and made read-only; arities missing from slices are empty.
        """
        if not set(slices) <= set(range(1, arity_cap + 1)):
            raise ValueError("operation arity above the cap")
        k = carrier.size
        out = cls.__new__(cls)
        out.carrier, out.arity_cap, out._rows = carrier, arity_cap, {}
        for n in range(1, arity_cap + 1):
            rows = slices.get(n, np.empty((0, k**n), dtype=np.uint8))
            if rows.dtype != np.uint8 or rows.ndim != 2 or rows.shape[1] != k**n:
                raise ValueError(f"arity-{n} rows must be uint8 rows of {k}^{n} entries")
            if len(rows) and rows.max() >= k:
                raise ValueError("table entry outside carrier")
            rows.flags.writeable = False
            out._rows[n] = rows
        return out

    def rows(self, arity: int) -> np.ndarray:
        """The arity slice as read-only digit rows in table order."""
        return self._rows[arity]

    def slice(self, arity: int) -> tuple[OpTable, ...]:
        if arity not in self._rows:
            return ()
        return tuple(OpTable(self.carrier, arity, t) for t in _row_tuples(self._rows[arity]))

    def counts(self) -> dict[int, int]:
        return {n: len(rows) for n, rows in self._rows.items()}

    def __contains__(self, op: OpTable) -> bool:
        if not isinstance(op, OpTable) or op.carrier != self.carrier or op.arity > self.arity_cap:
            return False
        key = _row_keys(np.array(op.table, dtype=np.uint8))
        return bool(_sorted_member(_row_keys(self._rows[op.arity]), key))

    def __le__(self, other: "OpSet") -> bool:
        """Whether every table of this set is in other."""
        if not isinstance(other, OpSet):
            return NotImplemented
        return all(
            not len(rows) or (other.carrier == self.carrier and n in other._rows and
                              _sorted_member(_row_keys(other._rows[n]), _row_keys(rows)).all())
            for n, rows in self._rows.items())

    def __iter__(self) -> Iterator[OpTable]:
        for n in self._rows:
            yield from self.slice(n)

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._rows.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, OpSet):
            return NotImplemented
        return (self.carrier == other.carrier and self.arity_cap == other.arity_cap
                and all(np.array_equal(rows, other._rows[n]) for n, rows in self._rows.items()))

    def __hash__(self) -> int:
        return hash((self.carrier, self.arity_cap, *(rows.tobytes() for rows in self._rows.values())))

    def __repr__(self) -> str:
        return f"OpSet(carrier={self.carrier!r}, arity_cap={self.arity_cap}, counts={self.counts()})"


# ---------------------------------------------------------------------------
# Preservation.
#
# One kernel answers "does f preserve the relation" for respects, pol and
# the maximal-clone masks: it applies a stack of tables to chunks of the
# choices of relation rows and looks the image tuples up; a table that fails
# a chunk leaves the stack.  Relations with
# k^h <= _BITMAP_SPACE possible tuples (every relation the suites and the
# maximal-clone lists use) look up a membership table over the tuple codes;
# wider ones binary-search their sorted rows, read as h-byte strings.
# tests/preservation_reference.py is the plain scalar loop the kernel is
# cross-checked against.

_PRESERVE_ROWS = 1 << 16  # (table, choice of operand rows) cells per gather


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each tuple along the last axis as one h-byte string, ordered like the tuple."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    return rows.view(np.dtype((np.void, rows.shape[-1])))[..., 0]


def _row_tuples(rows: np.ndarray) -> Iterator[tuple[int, ...]]:
    """The digit rows as tuples of ints, read off their bytes."""
    return zip(*[iter(rows.tobytes())] * rows.shape[1])


def _sorted_member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which keys occur in the sorted array sorted_keys."""
    if not len(sorted_keys):
        return np.zeros(np.shape(keys), dtype=bool)
    at = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[at] == keys


def _tuple_codes(tuples: np.ndarray, k: int) -> np.ndarray:
    """Each tuple along the last axis as its base-k code, by Horner's rule."""
    if not tuples.shape[-1]:
        return np.zeros(tuples.shape[:-1], dtype=np.intp)
    codes = tuples[..., 0].astype(np.intp)
    for j in range(1, tuples.shape[-1]):
        codes *= k
        codes += tuples[..., j]
    return codes


class _Invariant:
    """A relation prepared for vectorised preservation checks."""

    def __init__(self, relation: RelationTable):
        k, h = relation.carrier.size, relation.width
        self.relation = relation
        self.rows = np.array(sorted(relation.tuples), dtype=np.intp).reshape(len(relation.tuples), h)
        if k**h <= _BITMAP_SPACE:
            self.member = np.zeros(k**h, dtype=bool)  # by code of the tuple
            self.member[_tuple_codes(self.rows, k)] = True
        else:
            self.member = None
            self.keys = _row_keys(self.rows)  # sorted, as the rows are
        self._tails: dict[int, np.ndarray] = {}

    def _contains(self, images: np.ndarray) -> np.ndarray:
        """Which tuples along the last axis of images are rows of the relation."""
        if self.member is not None:
            return self.member[_tuple_codes(images, self.relation.carrier.size)]
        return _sorted_member(self.keys, _row_keys(images))

    def _tail_indices(self, tail: int) -> np.ndarray:
        """Table indices over every choice of the last tail operands, h per choice."""
        if tail not in self._tails:
            k, h = self.relation.carrier.size, self.relation.width
            index = np.zeros((1, h), dtype=np.intp)
            for _ in range(tail):
                index = (index[:, None] * k + self.rows[None]).reshape(len(index) * len(self.rows), h)
            self._tails[tail] = index
        return self._tails[tail]

    def preserved_by(self, tables: np.ndarray, arity: int) -> np.ndarray:
        """Which arity-ary tables (one per row) map the relation into itself.

        f is applied to every arity rows of the relation: the leading
        operands in a loop, the choices of the last ones (at most
        _PRESERVE_ROWS) in chunks.  Each gather holds at most _PRESERVE_ROWS
        (table, choice) cells.  A chunk is as long as that allows for the
        tables still alive, or takes every remaining choice when they fit in
        two gathers: a single table or a short stack takes them all at once,
        as a stack of every table takes a few, which most tables fail.  A
        table that fails leaves before the next chunk.  Every table
        preserves the empty relation.
        """
        k = self.relation.carrier.size
        if not len(self.rows):
            return np.ones(len(tables), dtype=bool)
        tail, choices = 0, 1
        while tail < arity and choices * len(self.rows) <= _PRESERVE_ROWS:
            tail, choices = tail + 1, choices * len(self.rows)
        low = self._tail_indices(tail)
        count, alive = len(tables), None  # positions of the tables not yet failed; None: all
        passed = None  # which of them passed the last chunk
        for head in itertools.product(self.rows, repeat=arity - tail):
            if head:
                offset = functools.reduce(lambda acc, row: acc * k + row, head) * k**tail
            start = 0
            while start < choices:
                if passed is not None and not passed.all():
                    keep = np.flatnonzero(passed)
                    tables, alive = tables[keep], keep if alive is None else alive[keep]
                if not len(tables):
                    return np.zeros(count, dtype=bool)
                span = max(1, _PRESERVE_ROWS // len(tables))
                if len(tables) * (choices - start) <= 2 * _PRESERVE_ROWS:
                    span = choices - start
                index = low[start : start + span]
                start += len(index)
                if head:
                    index = index + offset
                step = _PRESERVE_ROWS // len(index)
                passed = np.empty(len(tables), dtype=bool)
                for i in range(0, len(tables), step):
                    images = tables[i : i + step, index]  # (tables, choices, h)
                    self._contains(images).all(axis=1, out=passed[i : i + step])
        if alive is None:
            return passed
        ok = np.zeros(count, dtype=bool)
        ok[alive] = passed
        return ok


# Table entries and relation rows are held as bytes.
_MAX_CARRIER = 1 << 8


def _check_carrier(carrier: Carrier) -> None:
    if carrier.size > _MAX_CARRIER:
        raise ValueError(f"carrier size {carrier.size} above {_MAX_CARRIER}: table entries are bytes")


def respects(f: OpTable, relation: RelationTable) -> bool:
    """Whether f maps tuples of the relation coordinatewise into the relation."""
    if f.carrier != relation.carrier:
        raise ValueError("carrier mismatch between operation and relation")
    _check_carrier(f.carrier)
    table = np.asarray(f.table, dtype=np.uint8)[None]
    return bool(_Invariant(relation).preserved_by(table, f.arity)[0])


# pol and precompleteness_evidence enumerate at most this many candidate
# tables, summed over the arities up to their cap.
_MAX_CANDIDATES = 1 << 21


def _check_candidate_budget(carrier: Carrier, arity_cap: int) -> None:
    """Raise ResourceLimitError when the operations of arity <= arity_cap
    number more than _MAX_CANDIDATES."""
    total = sum(op_space_size(carrier, n) for n in range(1, arity_cap + 1))
    if total > _MAX_CANDIDATES:
        raise ResourceLimitError(
            f"{total} candidate operations exceed the budget {_MAX_CANDIDATES}"
        )


def pol(relation: RelationTable, arity_cap: int) -> OpSet:
    """All operations of arity <= arity_cap that respect the relation.

    Every candidate table of an arity goes through the kernel in one stack,
    and the rows it keeps, still in table order, are the OpSet's slice.
    """
    if arity_cap < 1:
        raise ValueError("arity_cap must be >= 1")
    carrier, k = relation.carrier, relation.carrier.size
    _check_candidate_budget(carrier, arity_cap)
    inv = _Invariant(relation)
    slices = {}
    for n in range(1, arity_cap + 1):
        tables = _all_rows(k, k**n)
        slices[n] = tables[inv.preserved_by(tables, n)]
    return OpSet._from_rows(carrier, arity_cap, slices)


# ---------------------------------------------------------------------------
# Bounded clone closure.
#
# Generators enter as _normalized_generators stages them, once per public
# call: one uint8 stack of table rows per arity (_Stacks), and every route,
# the subuniverse kernel and the engine read those rows.  closure_slice takes
# one of three routes, tried in this order; each returns the same tables, in
# table order:
# - full slices (arity >= 2, carriers 2 and 3) are listed from the maximal
#   clones, with no pool (see the relation lists below);
# - slices of clones with a majority term (arity >= 4, carriers 2 and 3, pair
#   tables of at most _BITMAP_SPACE entries) are enumerated from their binary
#   invariants by the Baker-Pixley route (see _majority_slice);
# - every other slice is filled by the engine.  Carrier 4 stays on the
#   engine on purpose: on the 4-chain at arity 4 the pair route, with its
#   ternary detection, costs about what the fill costs, and carrier 4 has
#   no relation list for the affine shortcut.
#
# The engine.  An n-ary table is a row of k^n digits,
# cut into at least two near-equal limbs of at most c digits, where
# k^(2c) <= 2^16: a limb fits in a byte, and a unary or binary generator acts
# on the limbs through lookup tables of at most 2^16 entries, one per limb
# width.  The limbs form at most two runs of equal width.  A unary generator
# looks each run up at once.  A binary generator builds the key rows of a
# tile of results with one contiguous gather: per left operand, its tables'
# rows for the operand's limbs stacked into one row, taken along a flat
# index of the right operands' limbs (each limb's value plus its row's
# offset in the stack).  Generators of arity >= 3 act digit by digit on
# digit rows, unpacked from the limbs once per block.  Dedup is exact and
# keyed by the limb bytes.  Two limbs are exactly the spaces of at most 2^16
# tables (carrier 2 up to arity 4, carrier 3 up to arity 2, carriers 4 to 6
# at arity 1): their key, read as a uint16, indexes a 2^16-entry bitmap.  A
# batch first drops its members, with one lookup each; most batches keep
# none.  The keys that remain are marked in a scratch bitmap of the same
# size, and the marks scanned: the new tables, sorted and unique with no
# sort.  Every larger space keeps its keys in a set.
# The n-ary slice of a clone is closed under permuting variables (Mal'cev's
# ζ and τ are clone operations), and, when the clone holds unary
# permutations, under t ↦ t(σ_1 x_π(1), .., σ_n x_π(n)) for π a permutation
# of the variables and each σ_i in U, the group of the clone's unary
# permutations: the maps τ of X^n in U^n ⋊ S_n.  The engine's pool is closed
# under such a group: each new table enters with its whole orbit, read off
# with one gather along _variable_permutations, and one table per orbit is
# flagged as its representative.  Generators take their first operand from
# the representatives only, every other operand from the whole pool.
# Nothing is lost, since g(a∘τ, b_2, ..) = g(a, b_2∘τ⁻¹, ..)∘τ and the pool
# holds both b_2∘τ⁻¹ and the image under τ.  The group starts as S_n.  Unary
# generators come first, and once they are drained the pool is the slice
# they generate, which U^n ⋊ S_n maps onto itself, U the group their
# permutations generate (the units of the monoid they generate, since a
# product of maps is a bijection only when every factor is).  There the
# engine widens its group to U^n ⋊ S_n and flags the first table of each
# wider orbit, before any generator of arity >= 2 runs.  Unary slices
# (n! = 1), and slices whose group table would pass _ORBIT_CELLS, skip the
# orbit work (every table represents itself) or keep S_n.
# Generators are introduced one at a time and skipped when they are already
# members of the clone generated so far (a generator that is already a term
# function adds nothing).
#
# Two relational facts serve the routes, and one kernel, _subuniverses,
# computes both: the subuniverses of A^d that the generators generate from
# the columns of d points of X^n.
# - d = 1 gives the subuniverse bound: the number of n-ary operations
#   preserving every subset that all generators preserve (the unary
#   relations of Rosenberg's theorem).  The slice lies inside that Pol, so
#   the engine stops as soon as its pool reaches the bound; no later operand
#   tuple can add a table.  With only trivial subuniverses the bound is
#   k^(k^n), the full space.
# - d = 2 gives the pair tables of the Baker-Pixley route.
# tests/closure_reference.py is a plain fixpoint over tuples that the engine
# is cross-checked against, and tests/subuniverse_reference.py one over
# pairs for the kernel.
#
# Whether a slice is full needs no pool at arity >= 2 on carriers 2 and 3:
# closure_slice_is_full and closure_slice both ask whether the generators
# escape every maximal clone.  For unary slices and carriers of 4 or more,
# closure_slice_is_full answers False from a bound below the space, and asks
# the engine otherwise.

_BITMAP_SPACE = 1 << 20
# Every public closure entry raises ResourceLimitError once a pool passes
# this many tables: 64 times the largest slice any suite or test builds
# (2^16 tables), and about 460 MB of peak memory when a carrier-4 binary
# slice reaches it.
_MAX_TABLES = 1 << 22
_LIMB_SPACE = 1 << 8
_BLOCK = 1024
_TILE_BYTES = 16 << 20
# cells (group order times k^n) of the largest group table the engine
# builds, 8 MB of point indices.  Under S_n alone carrier 2 keeps orbits up
# to arity 7, carrier 3 up to arity 6 and carrier 4 up to arity 5; under
# U^n ⋊ S_n with U = S_k, carrier 2 up to arity 5, carrier 3 up to arity 3
# and carrier 4 at arity 2
_ORBIT_CELLS = 1 << 20
# (arity, uint8 stack of table rows) per arity, in increasing arity
_Stacks = list[tuple[int, np.ndarray]]


@functools.cache
def _all_rows(k: int, width: int) -> np.ndarray:
    """Every row of width digits below k, in table order: row i holds the
    base-k digits of i.  Built once per (k, width) and read-only."""
    rows = np.ascontiguousarray(np.indices((k,) * width, dtype=np.uint8).reshape(width, -1).T)
    rows.flags.writeable = False
    return rows


def _limb_widths(k: int, width: int) -> list[int]:
    """Digits per limb, larger limbs first; each limb has k^c <= 2^8 values."""
    c = 1
    while k ** (c + 1) <= _LIMB_SPACE:
        c += 1
    count = max(2, -(-width // c))
    q, r = divmod(width, count)
    return [q + 1] * r + [q] * (count - r)


def _limb_runs(widths: list[int]) -> list[tuple[int, int, int]]:
    """(digits per limb, first limb, limb count) of each run of equal limbs."""
    runs, col = [], 0
    for w in sorted(set(widths), reverse=True):
        n = widths.count(w)
        runs.append((w, col, n))
        col += n
    return runs


def _unpack(limbs: np.ndarray, k: int, widths: list[int]) -> np.ndarray:
    """Digit rows of limb rows, one lookup per run of equal limbs."""
    parts = [_all_rows(k, w)[limbs[:, col : col + n]].reshape(len(limbs), n * w)
             for w, col, n in _limb_runs(widths)]
    return np.concatenate(parts, axis=1)


def _pack(rows: np.ndarray, k: int, widths: list[int]) -> np.ndarray:
    """Limb rows of digit rows, by Horner's rule over each run of equal limbs."""
    out = np.empty((len(rows), len(widths)), dtype=np.uint8)
    for w, col, n in _limb_runs(widths):
        start = sum(widths[:col])
        digits = rows[:, start : start + n * w].reshape(len(rows), n, w)
        acc = digits[:, :, 0].copy()
        for j in range(1, w):
            acc *= k
            acc += digits[:, :, j]
        out[:, col : col + n] = acc
    return out


@functools.lru_cache(maxsize=16)
def _variable_permutations(k: int, n: int, units: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """The maps x ↦ (σ_1 x_π(1), .., σ_n x_π(n)) of U^n ⋊ S_n as point
    indices, identity first; units lists U, identity first.

    One row per π of itertools.permutations and, within it, per (σ_1..σ_n)
    of itertools.product over units.  It lists, for each point x of X^n in
    table order, the index of (σ_1 x_π(1), .., σ_n x_π(n)): a digit row
    gathered along it is the table of f(σ_1 x_π(1), .., σ_n x_π(n)).  With
    U = {id} the rows are the n! permutations of the variables.
    """
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    moved = _all_rows(k, n)[:, perms]  # (points, n!, n): the coordinates x_π(j)
    units_at = np.array(units, dtype=np.intp)
    codes = np.zeros((len(perms), 1, k**n), dtype=np.intp)
    for j in range(n):
        digit = units_at[:, moved[:, :, j].T]  # (|U|, n!, points): σ_j x_π(j)
        codes = (codes[:, :, None] * k + digit.transpose(1, 0, 2)[:, None]).reshape(len(perms), -1, k**n)
    # left writeable: np.take copies a read-only index on every call
    return np.ascontiguousarray(codes.reshape(-1, k**n))


def _unit_group(k: int, unary: Sequence[np.ndarray], limit: int) -> tuple[tuple[int, ...], ...] | None:
    """The group U that the permutations among the unary rows generate,
    sorted (identity first); None once it has more than limit elements.

    U is the group of units of the monoid all the unary tables generate: a
    product of maps of a finite set is a bijection only when every factor is.
    """
    gens = [g for g in map(tuple, np.asarray(unary).tolist()) if len(set(g)) == k]
    group = {tuple(range(k))}
    frontier = list(group)
    while frontier:
        grown = []
        for a in frontier:
            for g in gens:
                product = tuple(g[x] for x in a)
                if product not in group:
                    if len(group) == limit:
                        return None
                    group.add(product)
                    grown.append(product)
        frontier = grown
    return tuple(sorted(group))


class _CodeEngine:
    """Closure of one slice over tables packed into byte limbs.

    Every active generator keeps a cursor into the pool and processes blocks
    against everything before them, which guarantees each operand tuple is
    seen once while letting freshly found tables circulate quickly.  The pool
    is closed under a group of maps τ of X^n: the permutations of the
    variables, and from widen on U^n ⋊ S_n, U the unary permutations of the
    clone.  Only one table per orbit, its representative, goes into a
    generator's first operand slot: since g(a∘τ, b_2, ..) =
    g(a, b_2∘τ⁻¹, ..)∘τ, the other members of the orbit reach nothing new.
    applied counts the operand tuples applied.

    The run stops once the pool holds bound tables, since it then is the
    whole slice; with no bound it applies every operand tuple.
    """

    def __init__(self, k: int, arity: int, bound: int | None):
        self.k = k
        self.arity = arity
        self.width = k**arity
        self.space = k**self.width
        self.bound = bound  # no slice the generators reach holds more tables; None sweeps
        self.widths = _limb_widths(k, self.width)
        limbs = len(self.widths)
        # bytes per candidate of a unary or binary application: the key rows,
        # and in _unseen on the bitmap path the negated member flags and the
        # kept keys (the flags are freed first), on the set path the keys as
        # bytes objects; per orbit image in add: its digit row, its key and
        # sorted key, and the sort's index, and on the set path its key as a
        # bytes object and, up to 8 limbs, its key padded to 8 bytes, and sorted
        self.candidate_bytes = limbs
        self.image_bytes = self.width + 2 * limbs + 8
        if limbs == 2:
            self.key_dtype = np.dtype("<u2")
            self.bitmap = np.zeros(1 << 16, dtype=bool)
            self.hit = np.zeros(1 << 16, dtype=bool)  # scratch of _unseen: the keys of one call
            self.candidate_bytes += 3
        else:
            self.key_dtype = np.dtype((np.void, limbs))
            self.bitmap = None
            self.candidate_bytes += limbs + sys.getsizeof(b"")
            self.image_bytes += limbs + sys.getsizeof(b"") + (16 if limbs <= 8 else 0)
        self.units = (tuple(range(k)),)  # U of the orbit group U^n ⋊ S_n
        self.perms = None  # every table represents its orbit
        if arity >= 2 and math.factorial(arity) * self.width <= _ORBIT_CELLS:
            self.perms = _variable_permutations(k, arity, self.units)
        self.seen: set[bytes] = set()
        self.limbs = np.empty((64, len(self.widths)), dtype=np.uint8)
        self.rep = np.empty(64, dtype=bool)  # flags one table per orbit
        self.count = 0
        self.applied = 0
        self.appliers: list = []  # (arity, payload, bytes per left operand of one tile)
        self.cursors: list[int] = []

    # -- keys and storage ---------------------------------------------------

    def keys_of(self, limbs: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(limbs).view(self.key_dtype).ravel()

    def key_of_row(self, row: np.ndarray):
        return self.keys_of(_pack(row.reshape(1, -1), self.k, self.widths)).tolist()[0]

    def has(self, key) -> bool:
        return bool(self.bitmap[key]) if self.bitmap is not None else key in self.seen

    def _unseen(self, keys: np.ndarray) -> np.ndarray:
        """The distinct keys that are not yet members, none inserted."""
        if self.bitmap is not None:
            keys = keys[~self.bitmap[keys]]  # members first: most batches hold no other key
            if not len(keys):
                return keys
            # mark the rest, and scan the marks: sorted and unique
            self.hit[keys] = True
            fresh = np.flatnonzero(self.hit).astype(self.key_dtype)
            self.hit.fill(False)
            return fresh
        return np.array([key for key in dict.fromkeys(keys.tolist()) if key not in self.seen],
                        dtype=self.key_dtype)

    def add(self, keys: np.ndarray) -> None:
        """Insert candidate keys: each genuinely new table goes to the end of
        the pool with its orbit, which is new as a whole because the pool
        was closed.  The orbits are built a tile of images at a time."""
        fresh = self._unseen(keys)
        if not len(fresh):
            return
        if self.perms is None:
            self.append(fresh, True)
            return
        step = max(1, _TILE_BYTES // (len(self.perms) * self.image_bytes))
        for start in range(0, len(fresh), step):
            chunk = fresh[start : start + step]
            if start:
                chunk = self._unseen(chunk)  # drop the orbits an earlier tile added
            self.append(*self._orbits(chunk))

    def _images(self, limbs: np.ndarray) -> np.ndarray:
        """The keys of the limb rows' images under the group, one run of
        len(perms) per row, identity first."""
        k, widths = self.k, self.widths
        rows = np.take(_unpack(limbs, k, widths), self.perms, axis=1)
        return self.keys_of(_pack(rows.reshape(-1, self.width), k, widths))

    def _orbits(self, fresh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct keys of the fresh tables' orbits, and which of them
        are representatives: the first fresh table of each orbit."""
        limbs = len(self.widths)
        keys = self._images(fresh.view(np.uint8).reshape(len(fresh), limbs))
        if self.bitmap is None and limbs <= 8:
            # the keys zero-padded to big-endian integers sort in byte order
            # like the keys themselves, and a sort of integers is faster
            padded = np.zeros((len(keys), 8), dtype=np.uint8)
            padded[:, :limbs] = keys.view(np.uint8).reshape(len(keys), limbs)
            first = np.unique(padded.view(">u8").ravel(), return_index=True)[1]
            keys = keys[first]
        else:
            keys, first = np.unique(keys, return_index=True)
        return keys, first % len(self.perms) == 0

    def widen(self, unary: Sequence[np.ndarray]) -> None:
        """Widen the orbits from S_n to U^n ⋊ S_n, U the group the unary
        permutations among the generators' rows generate, and flag the first
        table of each orbit in pool order.

        Called when the pool is the slice of <unary>, which the wider group
        maps onto itself: no table is added and no cursor moves.  Keeps S_n
        when |U| = 1 or when the group's table would pass _ORBIT_CELLS.
        """
        if self.perms is None:
            return
        units = _unit_group(self.k, unary, _ORBIT_CELLS // (len(self.perms) * self.width))
        if units is None or len(units) == 1:
            return
        if len(self.perms) * len(units) ** self.arity * self.width > _ORBIT_CELLS:
            return
        self.units, self.perms = units, _variable_permutations(self.k, self.arity, units)
        # every image is in the pool: its position, looked up by key
        keys, at = np.unique(self.keys_of(self.limbs[: self.count]), return_index=True)
        step = max(1, _TILE_BYTES // (len(self.perms) * self.image_bytes))
        for start in range(0, self.count, step):
            end = min(start + step, self.count)
            images = self._images(self.limbs[start:end])
            first = at[np.searchsorted(keys, images)].reshape(end - start, -1).min(axis=1)
            self.rep[start:end] = first == np.arange(start, end)

    def append(self, keys: np.ndarray, rep: np.ndarray | bool) -> None:
        """Insert new keys, flagged rep where they represent their orbit;
        ResourceLimitError, before the pool grows, once it would pass
        _MAX_TABLES."""
        end = self.count + len(keys)
        if end > _MAX_TABLES:
            raise ResourceLimitError(f"slice exceeded {_MAX_TABLES} tables at arity {self.arity}")
        if self.bitmap is not None:
            self.bitmap[keys] = True
        else:
            self.seen.update(keys.tolist())
        if end > len(self.limbs):
            cap = max(end, 2 * len(self.limbs))
            self.limbs = _grown(self.limbs, self.count, cap)
            self.rep = _grown(self.rep, self.count, cap)
        self.limbs[self.count : end] = keys.view(np.uint8).reshape(len(keys), len(self.widths))
        self.rep[self.count : end] = rep
        self.count = end

    @property
    def full(self) -> bool:
        return self.count == self.space

    @property
    def done_enough(self) -> bool:
        return self.count == self.bound

    # -- generator application ----------------------------------------------

    def activate(self, m: int, lut: np.ndarray) -> None:
        """Take on an m-ary generator, given as its uint8 table row."""
        k, payload, stacked = self.k, lut, 0
        if m <= 2:
            # by_width[w]: g acting on w-digit chunks, built one digit at a
            # time: g on the leading w - 1 digits times k plus g on the last
            # digit, laid out along every axis by contiguous repeats and tiles
            by_width = {1: lut.reshape((k,) * m)}
            for w in range(2, self.widths[0] + 1):
                lead = by_width[w - 1]
                for axis in range(m):
                    lead = lead.repeat(k, axis=axis)
                by_width[w] = lead * k + np.tile(by_width[1], (k ** (w - 1),) * m)
            runs = [(col, n, by_width[w]) for w, col, n in _limb_runs(self.widths)]
            # a binary generator stacks, per left operand, one table row of
            # k^w bytes per limb: limb j's row starts at offsets[j]
            sizes = [k**w for w in self.widths]
            payload = (runs, np.cumsum([0] + sizes[:-1]))
            if m == 2:
                # bytes per left operand of one tile: the stack, and with more
                # than one run also the runs' rows it is joined from
                stacked = sum(sizes) * (1 + (len(runs) > 1))
        self.appliers.append((m, payload, stacked))
        self.cursors.append(0)

    def _limbwise(self, payload: tuple[list, np.ndarray], operands: list[np.ndarray]) -> np.ndarray:
        """Keys of a unary or binary generator, with one lookup per run of
        equal-width limbs.

        A unary generator looks a run's limbs up in its table.  A binary
        generator stacks its tables' rows for each left operand's limbs into
        one row, and takes every stack along one flat index per right
        operand, each limb's value plus its row's offset in the stack: a
        single gather that writes the key rows.
        """
        runs, offsets = payload
        a, rest = operands[0], operands[1:]
        parts = [table[a[:, col : col + n]].reshape(len(a), -1) for col, n, table in runs]
        out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        if rest:
            flat = rest[0].astype(np.intp)
            flat += offsets
            out = np.take(out, flat, axis=1)
        return self.keys_of(out.reshape(-1, len(self.widths)))

    def _pointwise(self, lut: np.ndarray, operands: list[np.ndarray]) -> np.ndarray:
        """Keys of a generator of arity >= 3 applied digit by digit."""
        acc = operands[0].astype(np.intp)
        for extra in operands[1:]:
            acc = (acc[:, None, :] * self.k + extra[None, :, :]).reshape(-1, self.width)
        return self.keys_of(_pack(np.take(lut, acc), self.k, self.widths))

    def process_block(self, gen_index: int) -> None:
        """Advance one generator's cursor by one block of pool rows."""
        m, payload, stacked = self.appliers[gen_index]
        done = self.cursors[gen_index]
        hi = min(done + _BLOCK, self.count)
        pool = _unpack(self.limbs[:hi], self.k, self.widths) if m >= 3 else self.limbs
        older, block, upto = pool[:done], pool[done:hi], pool[:hi]
        per_candidate = 8 * self.width if m >= 3 else self.candidate_bytes  # intp index cells
        # slot p holds the block, earlier slots strictly older rows, later
        # slots anything up to hi: covers every operand tuple once, and the
        # first slot takes representatives only
        for p in range(m):
            operands = [older] * p + [block] + [upto] * (m - 1 - p)
            if self.perms is not None:
                operands[0] = operands[0][self.rep[:done] if p else self.rep[done:hi]]
            tail = math.prod(len(o) for o in operands[1:])
            if not tail or not len(operands[0]):
                continue
            step = max(1, _TILE_BYTES // (per_candidate * tail + stacked))
            for start in range(0, len(operands[0]), step):
                chunk = [operands[0][start : start + step]] + operands[1:]
                self.applied += len(chunk[0]) * tail
                if m >= 3:
                    self.add(self._pointwise(payload, chunk))
                else:
                    self.add(self._limbwise(payload, chunk))
                if self.done_enough:
                    return
        self.cursors[gen_index] = hi

    def drain(self) -> None:
        while not self.done_enough:
            pending = [i for i in range(len(self.appliers)) if self.cursors[i] < self.count]
            if not pending:
                return
            # least advanced first so fresh tables circulate across generators
            for i in sorted(pending, key=lambda i: self.cursors[i]):
                self.process_block(i)
                if self.done_enough:
                    return


def _grown(a: np.ndarray, used: int, cap: int) -> np.ndarray:
    out = np.empty((cap,) + a.shape[1:], dtype=a.dtype)
    out[:used] = a[:used]
    return out


def _subuniverses(
    stacks: _Stacks, k: int, arity: int, power: int
) -> tuple[np.ndarray, np.ndarray]:
    """The subuniverses of A^power that G generates from the columns of
    power points of X^arity: the i-th coordinates of points p_1..p_power form
    a column, coded with the leftmost coordinate most significant.  Returns
    (sets, where): sets holds subuniverses as bool rows over the k^power
    codes, and sets[where[p_1, .., p_power]] (points by table index) is the
    one generated by the columns of p_1..p_power.

    The column sets are built one coordinate at a time: the set of a point
    tuple is the set of its prefix plus its last column, so only distinct
    sets are stored.  They are closed together to a fixpoint under every
    generator, each acting on A^power through a table over its k^(power m)
    m-tuples of columns; a set that a round leaves unchanged is closed and
    drops out of the next.
    """
    size = k**power
    sets = np.zeros((1, size), dtype=bool)
    where = np.zeros((1,) * power, dtype=np.intp)
    columns = np.arange(size).reshape((1, k) * power)  # the new column, by its coordinates
    for _ in range(arity):
        grown = (sets[:, None] | np.eye(size, dtype=bool)).reshape(-1, size)  # set d plus column c
        _, first, inverse = np.unique(_row_keys(grown), return_index=True, return_inverse=True)
        sets = grown[first]
        prefix = where.reshape([n for a in where.shape for n in (a, 1)])
        where = inverse[prefix * size + columns].reshape([a * k for a in where.shape])
    actions = []
    for m, stack in stacks:
        luts = stack.astype(np.intp)
        tuples = np.indices((size,) * m).reshape(m, -1).T  # m-tuples of column codes
        image = np.zeros((len(luts), len(tuples)), dtype=np.intp)
        for place in k ** np.arange(power - 1, -1, -1):  # one coordinate of the columns
            image = image * k + luts[:, (tuples // place % k) @ k ** np.arange(m - 1, -1, -1)]
        # the m-ary generators act as one: each (operand tuple, image) pair once
        reach = np.zeros((len(tuples), size), dtype=bool)
        reach[np.arange(len(tuples)), image] = True
        at, image = np.nonzero(reach)
        actions.append((tuples[at], image))
    todo = np.arange(len(sets))
    while len(todo):
        grown = sets[todo]
        for tuples, image in actions:
            step = max(1, _BITMAP_SPACE // len(tuples))
            for start in range(0, len(grown), step):
                # every operand column is a member: the image column is one
                rows, at = np.nonzero(grown[start : start + step][:, tuples].all(axis=2))
                grown[start + rows, image[at]] = True
        changed = (grown != sets[todo]).any(axis=1)
        sets[todo] = grown
        todo = todo[changed]
    return sets, where


def _subuniverse_bound(stacks: _Stacks, k: int, arity: int) -> int:
    """|Pol_arity| of every subset that all of G preserve.

    An operation f preserves every such subuniverse exactly when, at each
    point x of X^arity, f(x) lies in Sg(x_1..x_n), the subuniverse the
    coordinates of x generate.  So the count is the product of |Sg(x_1..x_n)|
    over the points.  Every slice the generators reach lies inside that Pol.
    """
    sets, where = _subuniverses(stacks, k, arity, 1)
    points = np.bincount(where, minlength=len(sets))
    return math.prod(int(size) ** int(n) for size, n in zip(sets.sum(axis=1), points))


# Rosenberg's theorem on a finite carrier: every proper clone lies in a
# maximal clone Pol ρ, and the maximal clones are finitely many.  So for
# n >= 2 the n-ary slice of <G> is full exactly when every maximal clone
# misses some generator (a full n-ary slice holds a binary Sheffer operation
# with dummy variables, hence every operation).  The lists below are Post's
# five relations for k = 2 (1941) and Jablonskij's eighteen for k = 3 (1958),
# in Rosenberg's families.  tests/test_finite.py pins them: their Pol_2
# sizes, their maximality in the engine, and their agreement with the engine.
# For every arity with at most _PRESERVE_ROWS operations (carrier 2 up to
# arity 4, carrier 3 up to arity 2) _maximal_masks holds, per operation, the
# bitmask of the relations it preserves, so a stack of generators of such an
# arity is tested against all of them with one lookup.


@functools.cache
def _maximal_relations(k: int) -> tuple[_Invariant, ...]:
    """One relation ρ per maximal clone Pol ρ on carriers 2 and 3."""
    carrier, xs = Carrier(k), range(k)
    pairs = list(itertools.product(xs, repeat=2))
    rels = [{(x,) for x in subset}  # nonempty proper subsets
            for size in range(1, k) for subset in itertools.combinations(xs, size)]
    if k == 2:
        rels += [{(x, y) for x, y in pairs if x <= y},  # the order 0 < 1
                 {(x, 1 - x) for x in xs}]  # the graph of negation
    else:
        # bounded orders: the three chains, up to reversal, by middle element
        for mid in xs:
            low, high = sorted(set(xs) - {mid})
            rank = {low: 0, mid: 1, high: 2}
            rels.append({(x, y) for x, y in pairs if rank[x] <= rank[y]})
        rels.append({(x, (x + 1) % 3) for x in xs})  # the prime permutation x + 1
        rels += [{(x, y) for x, y in pairs if x == y or {x, y} == set(block)}  # equivalences
                 for block in itertools.combinations(xs, 2)]
        rels += [{(x, y) for x, y in pairs if x == y or centre in (x, y)}  # binary central
                 for centre in xs]
    rels.append({t for t in itertools.product(xs, repeat=4)  # affine: x + y = z + u
                 if (t[0] + t[1] - t[2] - t[3]) % k == 0})
    if k == 3:  # 3-regular: Słupecki's clone
        rels.append({t for t in itertools.product(xs, repeat=3) if len(set(t)) < 3})
    return tuple(_Invariant(RelationTable(carrier, len(next(iter(r))), frozenset(r)))
                 for r in rels)


def _has_masks(k: int, m: int) -> bool:
    """Whether the m-ary operations on carrier k number at most _PRESERVE_ROWS.
    The table width k^m is bounded first, so a wide arity computes no huge power."""
    return k**m < _PRESERVE_ROWS.bit_length() and k ** k**m <= _PRESERVE_ROWS


@functools.cache
def _maximal_masks(k: int, m: int) -> np.ndarray:
    """Which maximal-clone relations each m-ary operation preserves: one
    read-only uint32 per table, in table order, bit i set when the table
    preserves _maximal_relations(k)[i].

    Only arities with k^(k^m) <= _PRESERVE_ROWS have a mask table (carrier 2
    up to arity 4, carrier 3 up to arity 2); each is built once, one kernel
    call per relation over every table of the arity.
    """
    if not _has_masks(k, m):
        raise ValueError(f"no mask table for arity {m} on carrier {k}")
    tables = _all_rows(k, k**m)
    masks = np.zeros(len(tables), dtype=np.uint32)
    for i, inv in enumerate(_maximal_relations(k)):
        masks[inv.preserved_by(tables, m)] |= np.uint32(1 << i)
    masks.flags.writeable = False
    return masks


def _kept_maximal_relations(stacks: _Stacks, k: int) -> Iterator[_Invariant]:
    """The maximal-clone relations every generator preserves, lazily, in list order.

    The stack of an arity with a mask table (_maximal_masks) is read with
    one lookup: the AND of its tables' masks holds the relations they all
    preserve.  Wider stacks go through the kernel, one call per stack and
    relation, only for the relations the narrow stacks keep, and only until
    the next kept relation is found: checking every relation at once would
    cost a wide slice's fullness test more than it saves.
    """
    rels, wide = _maximal_relations(k), []
    kept = (1 << len(rels)) - 1
    for m, stack in stacks:
        if _has_masks(k, m):
            kept &= int(np.bitwise_and.reduce(_maximal_masks(k, m)[_tuple_codes(stack, k)]))
        else:
            wide.append((m, stack))
    for i, inv in enumerate(rels):
        if kept >> i & 1 and all(inv.preserved_by(stack, m).all() for m, stack in wide):
            yield inv


def _escapes_every_maximal_clone(stacks: _Stacks, k: int) -> bool:
    """Whether <G> lies in no maximal clone: its slices of arity >= 2 are
    full (carriers 2 and 3 only)."""
    return next(_kept_maximal_relations(stacks, k), None) is None


def _closure(
    stacks: _Stacks, carrier: Carrier, arity: int, bound: int | None
) -> tuple[np.ndarray, bool, list[tuple[int, np.ndarray]]]:
    """The engine's fill of one slice: (the pool's digit rows in table order,
    full, the activated generators as (arity, table row) in activation order).

    The run stops once the pool reaches bound, the caller's _subuniverse_bound
    of the stacks.  With None it applies every operand tuple instead: the
    tests hold the bound stop against that run.
    """
    k = carrier.size
    eng = _CodeEngine(k, arity, bound)
    points = _all_rows(k, arity)
    eng.add(eng.keys_of(_pack(points.T, eng.k, eng.widths)))
    # the code of each point's first m coordinates, by m
    prefix_codes = [_tuple_codes(points[:, :m], k) for m in range(arity + 1)]

    gens = [(m, row) for m, stack in stacks for row in stack]
    activated: list[tuple[int, np.ndarray]] = []
    unary = sum(m == 1 for m, _ in gens)  # the stacks come in increasing arity
    for i, (m, row) in enumerate(gens):
        if eng.done_enough:
            break
        if i == unary:
            eng.widen([u for _, u in activated])  # the pool is the slice of the unary generators
        # row(x_1..x_m) as an operation of the slice's arity
        if m <= arity and eng.has(eng.key_of_row(row[prefix_codes[m]])):
            continue  # already a term function of the generators activated so far
        activated.append((m, row))
        eng.activate(m, row)
        eng.drain()
    codes = eng.limbs[: eng.count]
    # limb rows are ordered like their digits: most significant limb first
    codes = codes[np.lexsort(codes.T[::-1])]
    return _unpack(codes, k, eng.widths), eng.full, activated


# Baker and Pixley (1975): when <G> has a majority term, an n-ary f is in <G>
# exactly when, for every pair of points p, q of X^n, the pair (f(p), f(q))
# lies in the subuniverse of A^2 that G generates from the column pairs
# (p_i, q_i).  The same holds for a partial table on any set of points, so
# the partial tables that meet the constraints among their first t positions
# are exactly the first t digits of the slice's tables.  Extending them one
# position at a time lists the slice in table order, and no partial table is
# ever dropped.


def _is_majority(tables: np.ndarray, k: int) -> np.ndarray:
    """Which ternary tables (one per row) satisfy m(x,x,y) = m(x,y,x) = m(y,x,x) = x."""
    x, y = np.divmod(np.arange(k * k), k)
    index = np.concatenate([(x * k + x) * k + y, (x * k + y) * k + x, (y * k + x) * k + x])
    return (tables[:, index] == np.tile(x, 3)).all(axis=1)


def _has_majority_term(stacks: _Stacks, carrier: Carrier) -> bool:
    """Whether <G> holds a majority operation (carriers 2 and 3).

    First among the generators.  Then, when every generator preserves the
    affine relation x + y = z + u, <G> holds only the operations
    a_1.x_1 + .. + a_m.x_m + c over Z_k, and no ternary one is a majority:
    m(x,x,y) = x forces a_3 = 0, likewise a_2 = a_1 = 0, and then m(x,x,x) = c
    is not x.  Otherwise the answer is read off the ternary slice, which is no
    larger than any slice of higher arity; it is filled under the same budget.
    """
    k = carrier.size
    if any(m == 3 and _is_majority(stack, k).any() for m, stack in stacks):
        return True
    affine = next(inv for inv in _maximal_relations(k) if inv.relation.width == 4)
    if all(affine.preserved_by(stack, m).all() for m, stack in stacks):
        return False
    rows = _closure(stacks, carrier, 3, _subuniverse_bound(stacks, k, 3))[0]
    return bool(_is_majority(rows, k).any())


def _majority_slice(stacks: _Stacks, k: int, arity: int) -> np.ndarray:
    """The arity-slice of <G>, which holds a majority operation, as digit
    rows in table order; ResourceLimitError once the partial rows pass
    _MAX_TABLES (each level is a projection of the slice, so it is no larger)."""
    width = k**arity
    sets, where = _subuniverses(stacks, k, arity, 2)
    pairs = (sets @ (1 << np.arange(k * k))).astype(np.uint16)[where]  # bitmasks over a.k + b
    values = np.arange(k, dtype=np.uint16)
    rows = np.zeros((1, width), dtype=np.uint8)
    for t in range(width):
        # v may follow a row at t when (v, v) lies in the subuniverse of the
        # points (t, t), and (row[s], v) in that of (s, t) for each s < t
        allowed = np.full(len(rows), ((pairs[t, t] >> values * (k + 1)) & 1) @ (1 << values),
                          dtype=np.uint16)
        if t:
            step = max(1, _TILE_BYTES // (2 * t))  # uint16 shifts per tile
            for start in range(0, len(rows), step):
                shifts = rows[start : start + step, :t] * np.uint16(k)
                allowed[start : start + step] &= np.bitwise_and.reduce(pairs[:t, t] >> shifts, axis=1)
        parent, value = np.nonzero((allowed[:, None] >> values) & 1)
        if len(parent) > _MAX_TABLES:
            raise ResourceLimitError(f"slice exceeded {_MAX_TABLES} tables at arity {arity}")
        if len(parent) != len(rows) or not np.array_equal(parent, np.arange(len(rows))):
            rows = rows[parent]  # most levels branch nowhere and skip this copy
        rows[:, t] = value
    return rows


def _normalized_generators(
    generators: Sequence[OpTable], carrier: Carrier, arity: int, include_all_unary: bool
) -> _Stacks:
    """Validate the slice, dedup the generators and stage them for introduction.

    The one place where OpTables become arrays: (arity, uint8 stack of table
    rows) per arity, the first of equal generators kept.  Every closure
    entry starts here, so a slice of arity below 1 or a carrier above
    _MAX_CARRIER raises ValueError before any table is built.  Unary
    generators go first (they are cheap and multiply the pool fast); within
    an arity the caller's order is kept, so callers can front-load the
    generators they expect to carry the closure.  The resulting clone does
    not depend on the order, only the work done to reach it does.
    """
    if arity < 1:
        raise ValueError(f"slice arity must be >= 1, got {arity}")
    _check_carrier(carrier)
    gens = list(generators)
    if include_all_unary:
        gens.extend(all_op_tables(carrier, 1))
    for g in gens:
        if g.carrier != carrier:
            raise ValueError("generator on a different carrier")
    tables: dict[int, list[tuple[int, ...]]] = {}
    for g in dict.fromkeys(gens):
        tables.setdefault(g.arity, []).append(g.table)
    return [(m, np.array(tables[m], dtype=np.uint8)) for m in sorted(tables)]


def closure_slice(
    generators: Sequence[OpTable],
    carrier: Carrier,
    arity: int,
) -> tuple[list[tuple[int, ...]], bool]:
    """The arity-slice of the bounded clone closure.

    Returns (tables, is_full), the tables in table-lexicographic order (the
    order of all_op_tables) on every route.  Three routes are tried in turn:
    - at arity >= 2 on carriers 2 and 3, generators that escape every
      maximal clone (closure_slice_is_full) get every table, listed without
      running the engine;
    - at arity >= 4 on carriers 2 and 3, when <G> has a majority term and the
      pair tables (k^(2n) entries, n the larger of arity and the widest
      generator) fit in _BITMAP_SPACE, the slice is enumerated from the
      subuniverses of A^2 (Baker-Pixley, _majority_slice);
    - otherwise the engine fills the slice and halts the moment the pool
      reaches the subuniverse bound (the number of operations preserving
      every subset all generators preserve): the slice lies inside that
      bound, so it cannot grow further.
    Carrier 4 and above always take the engine: on the 4-chain the pair
    route gains nothing measurable.  More than _MAX_TABLES tables raise
    ResourceLimitError, at once when a full slice is that large; an arity
    below 1 or a carrier above _MAX_CARRIER raises ValueError.
    """
    stacks = _normalized_generators(generators, carrier, arity, False)
    rows, full = _slice_rows(stacks, carrier, arity)
    return list(_row_tuples(rows)), full


def _slice_rows(stacks: _Stacks, carrier: Carrier, arity: int) -> tuple[np.ndarray, bool]:
    """closure_slice on normalized generators: (digit rows in table order, is_full)."""
    k, width = carrier.size, carrier.size**arity
    if arity >= 2 and k <= 3:
        if _escapes_every_maximal_clone(stacks, k):
            if k**width > _MAX_TABLES:
                raise ResourceLimitError(f"slice exceeded {_MAX_TABLES} tables at arity {arity}")
            return _all_rows(k, width), True
        widest = max([arity] + [m for m, _ in stacks])
        if arity >= 4 and k ** (2 * widest) <= _BITMAP_SPACE and _has_majority_term(stacks, carrier):
            rows = _majority_slice(stacks, k, arity)
            return rows, len(rows) == k**width
    return _closure(stacks, carrier, arity, _subuniverse_bound(stacks, k, arity))[:2]


def closure_covers_slice(
    generators: Sequence[OpTable],
    carrier: Carrier,
    arity: int,
    complete_ops: Sequence[OpTable] = (),
) -> bool:
    """Whether the closure's arity-slice is everything: closure_slice_is_full.

    Only the benchmark calls this wrapper, because it passes complete_ops;
    every other caller asks closure_slice_is_full.  complete_ops is
    arity-checked and otherwise unused: fullness needs no operations
    certified by the caller.
    """
    for op in complete_ops:
        if op.arity > arity:
            raise ValueError("complete op arity above the slice arity")
    return closure_slice_is_full(generators, carrier, arity)


def reduce_generators(
    generators: Sequence[OpTable], carrier: Carrier, arity_cap: int
) -> list[OpTable]:
    """A subset of the generators with the same bounded closure.

    Runs the top slice's introduction scan and keeps only the generators
    that were not already term functions of the earlier ones; everything
    skipped is derivable from the kept subset, so closures agree at every
    arity up to the cap.  The kept rows come back as OpTables equal to the
    caller's.
    """
    stacks = _normalized_generators(generators, carrier, arity_cap, False)
    if stacks and stacks[-1][0] > arity_cap:
        raise ValueError("arity cap below a generator arity")
    bound = _subuniverse_bound(stacks, carrier.size, arity_cap)
    kept = _closure(stacks, carrier, arity_cap, bound)[2]
    return [OpTable(carrier, m, tuple(row.tolist())) for m, row in kept]


def clone_closure(
    generators: Iterable[OpTable],
    carrier: Carrier,
    arity_cap: int,
    include_all_unary: bool = False,
) -> OpSet:
    """Least bounded clone containing the generators and all projections.

    All slices of arity <= arity_cap are exact: an n-ary operation is in the
    result iff it is a term function of the generators (plus every unary
    operation when include_all_unary is set).  Each slice's digit rows
    become the OpSet's rows as they are.
    """
    stacks = _normalized_generators(generators, carrier, arity_cap, include_all_unary)
    for m, _ in stacks:
        if m > arity_cap:
            raise ValueError(f"arity cap {arity_cap} below generator arity {m}")
    slices = {n: _slice_rows(stacks, carrier, n)[0] for n in range(1, arity_cap + 1)}
    return OpSet._from_rows(carrier, arity_cap, slices)


def closure_slice_is_full(
    generators: Sequence[OpTable],
    carrier: Carrier,
    arity: int,
) -> bool:
    """Whether the arity-slice of the bounded closure is every operation.

    At arity >= 2 on carriers 2 and 3 the answer comes from the maximal
    clones, with no pool: full exactly when, for every relation of
    _maximal_relations, some generator fails to preserve it.  The generators
    of an arity with a mask table are read off _maximal_masks in one lookup;
    wider ones go through the kernel, relation by relation, until one
    relation is kept by all.  Elsewhere (unary
    slices, carriers of 4 or more) the answer is False, with no fill, when the
    subuniverse bound is below the space, that is when the generators all
    preserve a proper nonempty subset of the carrier; otherwise the engine
    fills the slice.  An arity below 1 or a carrier above _MAX_CARRIER
    raises ValueError.
    """
    stacks = _normalized_generators(generators, carrier, arity, False)
    if arity >= 2 and carrier.size <= 3:
        return _escapes_every_maximal_clone(stacks, carrier.size)
    bound = _subuniverse_bound(stacks, carrier.size, arity)
    if bound < op_space_size(carrier, arity):
        return False
    return _closure(stacks, carrier, arity, bound)[1]


# ---------------------------------------------------------------------------
# Text formats.
#
#   op <name> carrier=<k> arity=<n>
#   <k^n integers, whitespace separated>
#
#   rel <name> carrier=<k> width=<m>
#   <one tuple per line>

_OP_HEADER = re.compile(r"^op\s+(\S+)\s+carrier=(\d+)\s+arity=(\d+)\s*$")
_REL_HEADER = re.compile(r"^rel\s+(\S+)\s+carrier=(\d+)\s+width=(\d+)\s*$")


def format_ops(named_ops: Sequence[tuple[str, OpTable]]) -> str:
    lines = []
    for name, op in named_ops:
        lines.append(f"op {name} carrier={op.carrier.size} arity={op.arity}")
        lines.append(" ".join(str(v) for v in op.table))
    return "\n".join(lines) + "\n"


def parse_ops(text: str) -> list[tuple[str, OpTable]]:
    out: list[tuple[str, OpTable]] = []
    lines = [ln for ln in text.splitlines() if ln.strip()]
    i = 0
    while i < len(lines):
        m = _OP_HEADER.match(lines[i])
        if not m:
            raise ValueError(f"bad op header: {lines[i]!r}")
        name, k, arity = m.group(1), int(m.group(2)), int(m.group(3))
        carrier = Carrier(k)
        need = k**arity
        values: list[int] = []
        i += 1
        while i < len(lines) and len(values) < need:
            values.extend(int(tok) for tok in lines[i].split())
            i += 1
        if len(values) != need:
            raise ValueError(f"op {name}: expected {need} entries, got {len(values)}")
        out.append((name, OpTable(carrier, arity, tuple(values))))
    return out


def format_relations(named_rels: Sequence[tuple[str, RelationTable]]) -> str:
    lines = []
    for name, rel in named_rels:
        lines.append(f"rel {name} carrier={rel.carrier.size} width={rel.width}")
        for t in sorted(rel.tuples):
            lines.append(" ".join(str(v) for v in t))
    return "\n".join(lines) + "\n"


def parse_relations(text: str) -> list[tuple[str, RelationTable]]:
    out: list[tuple[str, RelationTable]] = []
    lines = [ln for ln in text.splitlines() if ln.strip()]
    i = 0
    while i < len(lines):
        m = _REL_HEADER.match(lines[i])
        if not m:
            raise ValueError(f"bad rel header: {lines[i]!r}")
        name, k, width = m.group(1), int(m.group(2)), int(m.group(3))
        carrier = Carrier(k)
        tuples = set()
        i += 1
        while i < len(lines) and not lines[i].startswith(("op ", "rel ")):
            row = tuple(int(tok) for tok in lines[i].split())
            tuples.add(row)
            i += 1
        out.append((name, RelationTable(carrier, width, frozenset(tuples))))
    return out
