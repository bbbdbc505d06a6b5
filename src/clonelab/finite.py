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
        if any(v < 0 or v >= k for v in self.table):
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

    @classmethod
    def full(cls, carrier: Carrier, width: int) -> "RelationTable":
        return cls(carrier, width, frozenset(carrier.tuples(width)))

    @classmethod
    def from_op_tables(cls, ops: Iterable[OpTable]) -> "RelationTable":
        """Encode a set of same-arity operations as a relation over X^(k^n).

        Each operation contributes its value table as one tuple, so an
        operation respects the result exactly when composing it with members
        of the encoded set stays inside the set.
        """
        ops = list(ops)
        if not ops:
            raise ValueError("need at least one operation to encode")
        carrier, arity = ops[0].carrier, ops[0].arity
        if any(o.carrier != carrier or o.arity != arity for o in ops):
            raise ValueError("operations must share carrier and arity")
        return cls(carrier, carrier.size**arity, frozenset(o.table for o in ops))


@dataclass(frozen=True)
class OpSet:
    """A deduplicated set of operations of arity <= arity_cap on one carrier."""

    carrier: Carrier
    arity_cap: int
    ops: frozenset[OpTable]

    def __post_init__(self):
        for op in self.ops:
            if op.carrier != self.carrier:
                raise ValueError("operation on a different carrier")
            if op.arity > self.arity_cap:
                raise ValueError("operation arity above the cap")

    def slice(self, arity: int) -> tuple[OpTable, ...]:
        return tuple(sorted((o for o in self.ops if o.arity == arity),
                            key=OpTable.sort_key))

    def counts(self) -> dict[int, int]:
        out: dict[int, int] = {n: 0 for n in range(1, self.arity_cap + 1)}
        for o in self.ops:
            out[o.arity] += 1
        return out

    def signature(self) -> tuple:
        """Canonical identity of the bounded slice set (for clone comparison)."""
        return tuple(sorted((o.arity, o.table) for o in self.ops))

    def __contains__(self, op: OpTable) -> bool:
        return op in self.ops

    def __iter__(self):
        return iter(sorted(self.ops, key=OpTable.sort_key))

    def __len__(self) -> int:
        return len(self.ops)


# ---------------------------------------------------------------------------
# Preservation.
#
# One kernel answers "does f preserve the relation" for respects, pol and
# closure_slice_is_full: it applies a stack of tables to every choice of
# relation rows at once and looks the image tuples up.  Relations with
# k^h <= _BITMAP_SPACE possible tuples (every relation the suites and the
# maximal-clone lists use) look up a membership table over the tuple codes;
# wider ones binary-search their sorted rows, read as h-byte strings.
# tests/preservation_reference.py is the plain scalar loop the kernel is
# cross-checked against.

_PRESERVE_ROWS = 1 << 16  # operand rows (times tables) per vectorised step


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each tuple along the last axis as one h-byte string, ordered like the tuple."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    return rows.view(np.dtype((np.void, rows.shape[-1])))[..., 0]


class _Invariant:
    """A relation prepared for vectorised preservation checks."""

    def __init__(self, relation: RelationTable):
        k, h = relation.carrier.size, relation.width
        self.relation = relation
        self.rows = np.array(sorted(relation.tuples), dtype=np.intp).reshape(len(relation.tuples), h)
        if k**h <= _BITMAP_SPACE:
            self.places = k ** np.arange(h - 1, -1, -1)
            self.member = np.zeros(k**h, dtype=bool)  # by code of the tuple
            self.member[self.rows @ self.places] = True
        else:
            self.member = None
            self.keys = _row_keys(self.rows)  # sorted, as the rows are
        self._tails: dict[int, np.ndarray] = {}

    def _contains(self, images: np.ndarray) -> np.ndarray:
        """Which tuples along the last axis of images are rows of the relation."""
        if self.member is not None:
            return self.member[images @ self.places]
        keys = _row_keys(images)
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return self.keys[at] == keys

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

        f is applied to every arity rows of the relation: the last operands
        all at once, up to _PRESERVE_ROWS choices, the leading ones in a loop.
        Every table preserves the empty relation.
        """
        k = self.relation.carrier.size
        ok = np.ones(len(tables), dtype=bool)
        if not len(self.rows):
            return ok
        tail, choices = 0, 1
        while tail < arity and choices * len(self.rows) <= _PRESERVE_ROWS:
            tail, choices = tail + 1, choices * len(self.rows)
        low = self._tail_indices(tail)
        step = max(1, _PRESERVE_ROWS // choices)
        for head in itertools.product(self.rows, repeat=arity - tail):
            index = low
            if head:
                index = functools.reduce(lambda acc, row: acc * k + row, head) * k**tail + low
            for start in range(0, len(tables), step):
                images = tables[start : start + step, index]  # (tables, choices, h)
                ok[start : start + step] &= self._contains(images).all(axis=1)
        return ok


def respects(f: OpTable, relation: RelationTable) -> bool:
    """Whether f maps tuples of the relation coordinatewise into the relation."""
    if f.carrier != relation.carrier:
        raise ValueError("carrier mismatch between operation and relation")
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

    Every candidate table of an arity goes through the kernel in one stack.
    """
    if arity_cap < 1:
        raise ValueError("arity_cap must be >= 1")
    carrier, k = relation.carrier, relation.carrier.size
    _check_candidate_budget(carrier, arity_cap)
    inv = _Invariant(relation)
    keep: list[OpTable] = []
    for n in range(1, arity_cap + 1):
        tables = _digits(np.arange(op_space_size(carrier, n)), k, k**n)
        kept = tables[inv.preserved_by(tables, n)].tolist()
        keep += (OpTable(carrier, n, tuple(t)) for t in kept)
    return OpSet(carrier, arity_cap, frozenset(keep))


# ---------------------------------------------------------------------------
# Bounded clone closure.
#
# One engine computes every slice.  An n-ary table is a row of k^n digits,
# cut into at least two near-equal limbs of at most c digits, where
# k^(2c) <= 2^16: a limb fits in a byte, and a unary or binary generator acts
# limb by limb through a lookup table of at most 2^16 entries.  Generators of
# arity >= 3 act digit by digit on digit rows, unpacked from the limbs once
# per block.  Dedup is exact: table spaces of at most 2^20 use a bitmap over
# the packed code, larger ones a set of keys (the int64 code below 2^63, the
# limb bytes above).
# Generators are introduced one at a time and skipped when they are already
# members of the clone generated so far (a generator that is already a term
# function adds nothing).
#
# A run may stop as soon as the pool reaches the subuniverse bound: the
# number of n-ary operations preserving every subset that all generators
# preserve (the unary relations of Rosenberg's theorem).  The slice lies
# inside that Pol, so a pool of that size is the whole slice and no later
# operand tuple can add a table.  With only trivial subuniverses the bound is
# k^(k^n), the full space.  tests/closure_reference.py is a plain fixpoint
# over tuples that the engine is cross-checked against.
#
# Whether a slice is full needs no pool at arity >= 2 on carriers 2 and 3:
# closure_slice_is_full asks whether the generators escape every maximal
# clone (the relation lists below).  The engine answers it for unary slices
# and carriers of 4 or more, and builds every slice's tables.

_BITMAP_SPACE = 1 << 20
# Every public closure entry raises ResourceLimitError once a pool passes
# this many tables: 64 times the largest slice any suite or test builds
# (2^16 tables), and about 460 MB of peak memory when a carrier-4 binary
# slice reaches it.
_MAX_TABLES = 1 << 22
_LIMB_SPACE = 1 << 8
_BLOCK = 1024
_TILE_BYTES = 16 << 20


def _cylinder_row(g: OpTable, tuple_prefix: np.ndarray) -> np.ndarray:
    """Table of g(x_1..x_m) read as an n-ary operation (m <= n)."""
    k = g.carrier.size
    lut = np.asarray(g.table, dtype=np.uint8)
    idx = np.zeros(len(tuple_prefix), dtype=np.int64)
    for j in range(g.arity):
        idx = idx * k + tuple_prefix[:, j]
    return lut[idx]


def _digits(codes: np.ndarray, k: int, width: int) -> np.ndarray:
    out = np.empty((len(codes), width), dtype=np.uint8)
    rest = codes.astype(np.int64)
    for j in range(width - 1, -1, -1):
        out[:, j] = rest % k
        rest //= k
    return out


def _limb_widths(k: int, width: int) -> list[int]:
    """Digits per limb, larger limbs first; each limb has k^c <= 2^8 values."""
    c = 1
    while k ** (c + 1) <= _LIMB_SPACE:
        c += 1
    count = max(2, -(-width // c))
    q, r = divmod(width, count)
    return [q + 1] * r + [q] * (count - r)


def _unpack(limbs: np.ndarray, k: int, widths: list[int]) -> np.ndarray:
    """Digit rows of limb rows, one lookup per run of equal limbs."""
    parts, col = [], 0
    for w in sorted(set(widths), reverse=True):
        n = widths.count(w)
        digits = _digits(np.arange(k**w), k, w)[limbs[:, col : col + n]]
        parts.append(digits.reshape(len(limbs), n * w))
        col += n
    return np.concatenate(parts, axis=1)


def _pack(rows: np.ndarray, k: int, widths: list[int]) -> np.ndarray:
    """Limb rows of digit rows, by Horner's rule over each run of equal limbs."""
    out = np.empty((len(rows), len(widths)), dtype=np.uint8)
    col = start = 0
    for w in sorted(set(widths), reverse=True):
        n = widths.count(w)
        digits = rows[:, start : start + n * w].reshape(len(rows), n, w)
        acc = digits[:, :, 0].copy()
        for j in range(1, w):
            acc *= k
            acc += digits[:, :, j]
        out[:, col : col + n] = acc
        col, start = col + n, start + n * w
    return out


class _CodeEngine:
    """Closure of one slice over tables packed into byte limbs.

    Every active generator keeps a cursor into the pool and processes blocks
    against everything before them, which guarantees each operand tuple is
    seen once while letting freshly found tables circulate quickly.

    The run stops once the pool holds bound tables, since it then is the
    whole slice.
    """

    def __init__(self, k: int, arity: int, stop_if_full: bool, bound: int):
        self.k = k
        self.arity = arity
        self.width = k**arity
        self.space = k**self.width
        self.stop_if_full = stop_if_full
        self.bound = bound  # no slice the generators reach holds more tables
        self.widths = _limb_widths(k, self.width)
        self.scale = [k ** sum(self.widths[i + 1 :]) for i in range(len(self.widths))]
        self.bitmap = np.zeros(self.space, dtype=bool) if self.space <= _BITMAP_SPACE else None
        self.seen: set = set()
        if self.space < 1 << 63:
            self.key_dtype = np.dtype(np.int32 if self.bitmap is not None else np.int64)
            self.key_bytes = self.key_dtype.itemsize
        else:
            self.key_dtype = np.dtype((np.void, len(self.widths)))
            self.key_bytes = len(self.widths) + sys.getsizeof(b"")  # held as bytes objects
        self.limbs = np.empty((64, len(self.widths)), dtype=np.uint8)
        self.count = 0
        self.appliers: list = []  # (arity, payload)
        self.cursors: list[int] = []

    # -- keys and storage ---------------------------------------------------

    @property
    def packed(self) -> bool:
        return self.key_dtype.kind == "i"

    def keys_of(self, limbs: np.ndarray) -> np.ndarray:
        if not self.packed:
            return np.ascontiguousarray(limbs).view(self.key_dtype).ravel()
        keys = limbs[:, 0].astype(self.key_dtype) * self.scale[0]
        for i in range(1, len(self.widths)):
            keys += limbs[:, i].astype(self.key_dtype) * self.scale[i]
        return keys

    def key_of_row(self, row: np.ndarray):
        return self.keys_of(_pack(row.reshape(1, -1), self.k, self.widths)).tolist()[0]

    def has(self, key) -> bool:
        return bool(self.bitmap[key]) if self.bitmap is not None else key in self.seen

    def add(self, keys: np.ndarray) -> None:
        """Insert candidate keys; genuinely new tables go to the end of the pool."""
        if self.bitmap is not None:
            fresh = _sorted_unique(keys[~self.bitmap[keys]])
            self.bitmap[fresh] = True
        else:
            distinct = _sorted_unique(keys).tolist() if self.packed else dict.fromkeys(keys.tolist())
            new = [key for key in distinct if key not in self.seen]
            self.seen.update(new)
            fresh = np.array(new, dtype=self.key_dtype)
        if not len(fresh):
            return
        if self.packed:
            limbs = np.stack([(fresh // s) % self.k**w for s, w in zip(self.scale, self.widths)], axis=1)
        else:
            limbs = fresh.view(np.uint8).reshape(len(fresh), -1)
        self.append(limbs.astype(np.uint8))
        if self.count > _MAX_TABLES:
            raise ResourceLimitError(f"slice exceeded {_MAX_TABLES} tables at arity {self.arity}")

    def append(self, limbs: np.ndarray) -> None:
        end = self.count + len(limbs)
        if end > len(self.limbs):
            self.limbs = _grown(self.limbs, self.count, max(end, 2 * len(self.limbs)))
        self.limbs[self.count : end] = limbs
        self.count = end

    @property
    def full(self) -> bool:
        return self.count == self.space

    @property
    def done_enough(self) -> bool:
        return self.stop_if_full and self.count == self.bound

    # -- generator application ----------------------------------------------

    def activate(self, g: OpTable) -> None:
        k, lut = self.k, np.asarray(g.table, dtype=np.uint8)
        if g.arity >= 3:
            payload = lut
        else:
            # by_width[w]: g acting on w-digit chunks, built one digit at a time
            by_width = {1: lut.reshape((k,) * g.arity)}
            for w in range(2, self.widths[0] + 1):
                x = np.arange(k**w)
                hi, lo = x // k, x % k
                if g.arity == 1:
                    by_width[w] = by_width[w - 1][hi] * k + lut[lo]
                else:
                    by_width[w] = (by_width[w - 1][hi[:, None], hi[None, :]] * k
                                   + by_width[1][lo[:, None], lo[None, :]])
            payload = [by_width[w] for w in self.widths]
            if self.packed:
                payload = [t.astype(self.key_dtype) * s for t, s in zip(payload, self.scale)]
        self.appliers.append((g.arity, payload))
        self.cursors.append(0)

    def _limbwise(self, payload: list[np.ndarray], operands: list[np.ndarray]) -> np.ndarray:
        """Keys of a unary or binary generator applied limb by limb."""
        if len(operands) == 1:
            shape, index = (len(operands[0]),), lambda i: operands[0][:, i]
        else:
            a, b = operands
            shape, index = (len(a), len(b)), lambda i: (a[:, i, None], b[None, :, i])
        if self.packed:
            keys = payload[0][index(0)]
            for i in range(1, len(payload)):
                keys += payload[i][index(i)]
            return keys.ravel()
        out = np.empty(shape + (len(payload),), dtype=np.uint8)
        for i, table in enumerate(payload):
            out[..., i] = table[index(i)]
        return self.keys_of(out.reshape(-1, len(payload)))

    def _pointwise(self, lut: np.ndarray, operands: list[np.ndarray]) -> np.ndarray:
        """Keys of a generator of arity >= 3 applied digit by digit."""
        acc = operands[0].astype(np.intp)
        for extra in operands[1:]:
            acc = (acc[:, None, :] * self.k + extra[None, :, :]).reshape(-1, self.width)
        return self.keys_of(_pack(np.take(lut, acc), self.k, self.widths))

    def process_block(self, gen_index: int) -> None:
        """Advance one generator's cursor by one block of pool rows."""
        m, payload = self.appliers[gen_index]
        done = self.cursors[gen_index]
        hi = min(done + _BLOCK, self.count)
        pool = _unpack(self.limbs[:hi], self.k, self.widths) if m >= 3 else self.limbs
        older, block, upto = pool[:done], pool[done:hi], pool[:hi]
        per_candidate = 8 * self.width if m >= 3 else self.key_bytes  # intp index cells
        # slot p holds the block, earlier slots strictly older rows, later
        # slots anything up to hi: covers every operand tuple once
        for p in range(m):
            operands = [older] * p + [block] + [upto] * (m - 1 - p)
            tail = math.prod(len(o) for o in operands[1:])
            if not tail or not len(operands[0]):
                continue
            step = max(1, _TILE_BYTES // (per_candidate * tail))
            for start in range(0, len(operands[0]), step):
                chunk = [operands[0][start : start + step]] + operands[1:]
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


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    a = np.sort(a)
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _grown(a: np.ndarray, used: int, cap: int) -> np.ndarray:
    out = np.empty((cap,) + a.shape[1:], dtype=a.dtype)
    out[:used] = a[:used]
    return out


def _subuniverse_bound(gens: Sequence[OpTable], k: int, arity: int) -> int:
    """|Pol_arity| of every subset that all of gens preserve.

    An operation f preserves every such subuniverse exactly when, at each
    point x of X^arity, f(x) lies in Sg(x_1..x_n), the subuniverse the
    coordinates of x generate.  So the count is the product of
    |Sg(x_1..x_n)| over the points, grouped here by coordinate set: s-element
    sets are the coordinate sets of surj(s) points each.  Every slice the
    generators reach lies inside that Pol.
    """
    # reach[m][t]: bitmask of the values m-ary generators take at index t
    reach: dict[int, list[int]] = {}
    for g in gens:
        values = reach.setdefault(g.arity, [0] * len(g.table))
        for t, v in enumerate(g.table):
            values[t] |= 1 << v
    everything = (1 << k) - 1
    generated: dict[int, int] = {}
    bound = 1
    for size in range(1, min(k, arity) + 1):
        surj = sum((-1) ** j * math.comb(size, j) * (size - j) ** arity for j in range(size + 1))
        for coords in itertools.combinations(range(k), size):
            start = mask = sum(1 << x for x in coords)
            if size > 1:  # Sg is monotone: start from what the subsets one smaller generate
                for x in coords:
                    mask |= generated[start & ~(1 << x)]
            while mask != everything:
                members = [x for x in range(k) if mask >> x & 1]
                grown = mask
                for m, values in reach.items():
                    index = [0]
                    for _ in range(m):
                        index = [i * k + x for i in index for x in members]
                    for i in index:
                        grown |= values[i]
                if grown == mask:
                    break
                mask = grown
            generated[start] = mask
            bound *= mask.bit_count() ** surj
    return bound


# Rosenberg's theorem on a finite carrier: every proper clone lies in a
# maximal clone Pol ρ, and the maximal clones are finitely many.  So for
# n >= 2 the n-ary slice of <G> is full exactly when every maximal clone
# misses some generator (a full n-ary slice holds a binary Sheffer operation
# with dummy variables, hence every operation).  The lists below are Post's
# five relations for k = 2 (1941) and Jablonskij's eighteen for k = 3 (1958),
# in Rosenberg's families.  tests/test_finite.py pins them: their Pol_2
# sizes, their maximality in the engine, and their agreement with the engine.


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


def _closure(
    gens: list[OpTable],
    carrier: Carrier,
    arity: int,
    *,
    stop_if_full: bool = True,
    full_only: bool = False,
) -> tuple[np.ndarray, bool, list[OpTable]]:
    """The one closure entry: (pool limb rows, full, activated generators).

    full_only callers read only the flag: when the subuniverse bound is below
    the space the slice cannot be full, and the run returns an empty pool
    without applying any generator.  closure_slice_is_full sends only unary
    slices and carriers of 4 or more here; it answers the rest from the
    maximal clones.
    """
    eng = _CodeEngine(carrier.size, arity, stop_if_full,
                      _subuniverse_bound(gens, carrier.size, arity))
    if full_only and eng.bound < eng.space:
        return eng.limbs[:0], False, []
    tuple_prefix = np.array(list(carrier.tuples(arity)), dtype=np.int64)
    projections = tuple_prefix.T.astype(np.uint8)
    eng.add(eng.keys_of(_pack(projections, eng.k, eng.widths)))

    activated: list[OpTable] = []
    for g in gens:
        if eng.done_enough:
            break
        if g.arity <= arity and eng.has(eng.key_of_row(_cylinder_row(g, tuple_prefix))):
            # already a term function of the generators activated so far
            continue
        activated.append(g)
        eng.activate(g)
        eng.drain()
    return eng.limbs[: eng.count], eng.full, activated


def _normalized_generators(
    generators: Sequence[OpTable], carrier: Carrier, include_all_unary: bool
) -> list[OpTable]:
    """Dedup, validate and stage generators for introduction.

    Unary generators go first (they are cheap and multiply the pool fast);
    within an arity the caller's order is kept, so callers can front-load
    the generators they expect to carry the closure.  The resulting clone
    does not depend on the order, only the work done to reach it does.
    """
    gens = list(generators)
    if include_all_unary:
        gens.extend(all_op_tables(carrier, 1))
    for g in gens:
        if g.carrier != carrier:
            raise ValueError("generator on a different carrier")
    seen: set[tuple[int, tuple[int, ...]]] = set()
    deduped = []
    for g in gens:
        key = (g.arity, g.table)
        if key not in seen:
            seen.add(key)
            deduped.append(g)
    deduped.sort(key=lambda g: g.arity)  # stable: preserves order within an arity
    return deduped


def closure_slice(
    generators: Sequence[OpTable],
    carrier: Carrier,
    arity: int,
    include_all_unary: bool = False,
    *,
    stop_if_full: bool = True,
) -> tuple[list[tuple[int, ...]], bool]:
    """The arity-slice of the bounded clone closure.

    Returns (tables, is_full).  When stop_if_full is set the generation halts
    the moment the pool reaches the subuniverse bound (the number of
    operations preserving every subset all generators preserve; the full
    space when there is no such proper subset), skipping the final
    confirmation sweep (sound: the slice lies inside that bound, so it cannot
    grow further).  The tables and their order are the same either way.
    More than _MAX_TABLES tables raise ResourceLimitError.
    """
    gens = _normalized_generators(generators, carrier, include_all_unary)
    codes, full, _ = _closure(gens, carrier, arity, stop_if_full=stop_if_full)
    rows = _unpack(codes, carrier.size, _limb_widths(carrier.size, carrier.size**arity))
    return list(map(tuple, rows.tolist())), full


def closure_covers_slice(
    generators: Sequence[OpTable],
    carrier: Carrier,
    arity: int,
    complete_ops: Sequence[OpTable] = (),
) -> bool:
    """Whether the closure's arity-slice is everything: closure_slice_is_full.

    complete_ops is accepted, arity-checked and unused until the next
    benchmark change, which passes it: fullness no longer needs operations
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
    arity up to the cap.
    """
    gens = _normalized_generators(generators, carrier, False)
    for g in gens:
        if g.arity > arity_cap:
            raise ValueError("arity cap below a generator arity")
    return _closure(gens, carrier, arity_cap)[2]


def clone_closure(
    generators: Iterable[OpTable],
    carrier: Carrier,
    arity_cap: int,
    include_all_unary: bool = False,
) -> OpSet:
    """Least bounded clone containing the generators and all projections.

    All slices of arity <= arity_cap are exact: an n-ary operation is in the
    result iff it is a term function of the generators (plus every unary
    operation when include_all_unary is set).
    """
    gens = list(generators)
    for g in gens:
        if g.arity > arity_cap:
            raise ValueError(
                f"arity cap {arity_cap} below generator arity {g.arity}"
            )
    ops: set[OpTable] = set()
    for n in range(1, arity_cap + 1):
        tables, _ = closure_slice(gens, carrier, n, include_all_unary)
        ops.update(OpTable(carrier, n, t) for t in tables)
    return OpSet(carrier, arity_cap, frozenset(ops))


def closure_slice_is_full(
    generators: Sequence[OpTable],
    carrier: Carrier,
    arity: int,
) -> bool:
    """Whether the arity-slice of the bounded closure is every operation.

    At arity >= 2 on carriers 2 and 3 the answer comes from the maximal
    clones, with no pool: full exactly when, for every relation of
    _maximal_relations, some generator fails to preserve it.  Elsewhere (unary
    slices, carriers of 4 or more) the engine decides, answering False at
    once, with no fill, when the generators all preserve a proper nonempty
    subset of the carrier.
    """
    gens = _normalized_generators(generators, carrier, False)
    if arity >= 2 and carrier.size <= 3:
        tables = [(np.asarray(g.table, dtype=np.uint8)[None], g.arity) for g in gens]
        return all(any(not inv.preserved_by(table, m)[0] for table, m in tables)
                   for inv in _maximal_relations(carrier.size))
    return _closure(gens, carrier, arity, full_only=True)[1]


def conjugate(op: OpTable, perm: Sequence[int]) -> OpTable:
    """Conjugation by a carrier permutation: x̄ -> perm(op(perm^{-1} x̄))."""
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return OpTable.from_fn(
        op.carrier, op.arity, lambda *t: perm[op(*(inv[a] for a in t))]
    )


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
