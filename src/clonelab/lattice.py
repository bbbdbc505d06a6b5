"""Bounded precompleteness evidence and the unary interval survey.

Clone identity here always means equality of the bounded slices, so every
verdict is evidence at the stated caps rather than a statement about the
unbounded clone; reports carry the caps for that reason.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .finite import (
    Carrier,
    OpSet,
    OpTable,
    ResourceLimitError,
    all_op_tables,
    clone_closure,
    closure_slice_is_full,
    conjugate,
    op_space_size,
    _all_rows,
    _check_candidate_budget,
    _kept_maximal_relations,
    _maximal_masks,
    _maximal_relations,
    _normalized_generators,
    _slice_rows,
    _tuple_codes,
)

_MAX_SLICE = 1 << 15  # unary_interval_chain builds no slice with more tables


@dataclass(frozen=True)
class PrecompletenessVerdict:
    kind: str  # "precomplete-evidence" | "not-maximal" | "improper"
    witness: OpTable | None = None


def precompleteness_evidence(
    generators: OpSet | list[OpTable],
    carrier: Carrier,
    arity_cap: int,
    working_cap: int,
) -> PrecompletenessVerdict:
    """Maximality evidence for the bounded clone of the generators.

    improper: the closure already holds every operation of arity <= arity_cap.
    not-maximal(f): some missing f of arity <= arity_cap fails to regenerate
    all operations of arity <= arity_cap when added.
    precomplete-evidence otherwise.

    "Everything" is closure_slice_is_full at arity_cap: a full slice there
    implies full slices below it, by identifying variables, so no slice
    above arity_cap is built.  The generators are normalized once; the
    non-members of arity n are the rows of _all_rows whose codes the slice's
    rows miss, in table order.  On carriers 2 and 3 at arity_cap >= 2,
    gens + [f] is full exactly when f escapes each maximal clone holding
    all of gens.  Those clones are found
    once, as a bitmask over _maximal_relations; the non-members are looked
    up in _maximal_masks, one lookup for all of them, and the witness is
    the first in table order whose mask meets it.  Elsewhere each candidate
    asks closure_slice_is_full.  working_cap changes no verdict; it must be
    at least arity_cap + 1 and at least every generator's arity.  Before the
    candidates of arity n are tried, ResourceLimitError is raised when the
    operations of arity <= n number more than pol's candidate budget.
    """
    if working_cap < arity_cap + 1:
        raise ValueError("working_cap must be at least arity_cap + 1")
    gens = sorted(generators, key=OpTable.sort_key)
    for g in gens:
        if g.arity > working_cap:
            raise ValueError(f"working cap {working_cap} below generator arity {g.arity}")
    if closure_slice_is_full(gens, carrier, arity_cap):
        return PrecompletenessVerdict("improper")
    k, stacks = carrier.size, _normalized_generators(gens, carrier, arity_cap, False)
    kept = None  # bit i: every generator preserves _maximal_relations(k)[i]
    if arity_cap >= 2 and k <= 3:
        kept = sum(1 << _maximal_relations(k).index(inv) for inv in _kept_maximal_relations(stacks, k))
    for n in range(1, arity_cap + 1):
        _check_candidate_budget(carrier, n)
        missing = np.ones(k ** k**n, dtype=bool)  # by table code
        missing[_tuple_codes(_slice_rows(stacks, carrier, n)[0], k)] = False
        outside = _all_rows(k, k**n)[missing]
        if kept is None:
            witness = next((row for row in outside if not closure_slice_is_full(
                gens + [OpTable(carrier, n, tuple(row.tolist()))], carrier, arity_cap)), None)
        else:
            # every arity tried here has a mask table: _check_candidate_budget
            # raised first at arity 5 on carrier 2 and at arity 3 on carrier 3
            held = (_maximal_masks(k, n)[_tuple_codes(outside, k)] & kept) != 0
            witness = outside[held.argmax()] if held.any() else None
        if witness is not None:
            witness = OpTable(carrier, n, tuple(witness.tolist()))
            return PrecompletenessVerdict("not-maximal", witness=witness)
    return PrecompletenessVerdict("precomplete-evidence")


@dataclass(frozen=True)
class ChainReport:
    carrier: Carrier
    arity_cap: int
    working_cap: int
    clones: tuple[OpSet, ...]  # ordered by total size
    is_chain: bool

    @property
    def count(self) -> int:
        return len(self.clones)


def _orbit_representatives(carrier: Carrier, arity_cap: int) -> list[OpTable]:
    perms = list(itertools.permutations(range(carrier.size)))
    reps: list[OpTable] = []
    seen: set[tuple] = set()
    for n in range(1, arity_cap + 1):
        for op in all_op_tables(carrier, n):
            if (n, op.table) in seen:
                continue
            orbit = {(n, conjugate(op, p).table) for p in perms}
            seen |= orbit
            reps.append(op)
    return reps


def unary_interval_chain(
    carrier: Carrier,
    arity_cap: int,
    working_cap: int | None = None,
) -> ChainReport:
    """Survey of the bounded clones above the full unary clone.

    Enumerates the distinct closures of (all unary ops + S) for S ranging
    over sets of operations of arity <= arity_cap.  Single additions are
    exhaustive up to carrier-permutation orbits; larger S are reached by the
    add-one-generator fixpoint, which covers every finite S because closures
    compose stepwise.  A clone grows from the unary operations and the
    candidates added on its path, which generate it at the working cap.
    Each clone holds every unary operation, so it equals its own
    conjugates: t^π = π∘t∘(π⁻¹, …, π⁻¹) composes t with the unary members
    π and π⁻¹.  The family is checked for linear ordering by inclusion.  An
    arity_cap below 1 raises ValueError.
    """
    if arity_cap < 1:
        raise ValueError(f"arity_cap must be >= 1, got {arity_cap}")
    working_cap = arity_cap + 1 if working_cap is None else working_cap
    for n in range(1, working_cap + 1):
        if op_space_size(carrier, n) > _MAX_SLICE:
            raise ResourceLimitError(
                f"slice at arity {n} has {op_space_size(carrier, n)} tables, "
                f"budget is {_MAX_SLICE}"
            )

    reps = _orbit_representatives(carrier, arity_cap)

    def close(extra: list[OpTable]) -> OpSet:
        return clone_closure(extra, carrier, working_cap, include_all_unary=True)

    base = close([])
    found: dict[tuple, OpSet] = {base.signature(): base}
    frontier: list[tuple[list[OpTable], OpSet]] = [([], base)]  # (candidates added, clone)
    while frontier:
        fresh: list[tuple[list[OpTable], OpSet]] = []
        for extra, clone in frontier:
            for cand in reps:
                if cand in clone:
                    continue
                grown = close(extra + [cand])
                if grown.signature() not in found:
                    found[grown.signature()] = grown
                    fresh.append((extra + [cand], grown))
        frontier = fresh

    clones = sorted(found.values(), key=len)
    is_chain = all(clones[i] <= clones[i + 1] for i in range(len(clones) - 1))
    return ChainReport(carrier, arity_cap, working_cap, tuple(clones), is_chain)
