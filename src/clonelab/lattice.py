"""Bounded precompleteness evidence and the unary interval survey.

Clone identity here always means equality of the bounded slices, so every
verdict is evidence at the stated caps rather than a statement about the
unbounded clone; reports carry the caps for that reason.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .finite import (
    Carrier,
    OpSet,
    OpTable,
    ResourceLimitError,
    all_op_tables,
    clone_closure,
    closure_slice,
    closure_slice_is_full,
    conjugate,
    op_space_size,
    _check_candidate_budget,
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
    above arity_cap is built.  working_cap changes no verdict; it must be at
    least arity_cap + 1 and at least every generator's arity.  Before the
    candidates of arity n are tried, ResourceLimitError is raised when the
    operations of arity <= n number more than pol's candidate budget.
    """
    if working_cap < arity_cap + 1:
        raise ValueError("working_cap must be at least arity_cap + 1")
    gens = sorted(generators if isinstance(generators, list) else generators.ops,
                  key=OpTable.sort_key)
    for g in gens:
        if g.arity > working_cap:
            raise ValueError(f"working cap {working_cap} below generator arity {g.arity}")
    if closure_slice_is_full(gens, carrier, arity_cap):
        return PrecompletenessVerdict("improper")
    for n in range(1, arity_cap + 1):
        _check_candidate_budget(carrier, n)
        members = set(closure_slice(gens, carrier, n)[0])
        for f in all_op_tables(carrier, n):
            if f.table in members:
                continue
            if not closure_slice_is_full(gens + [f], carrier, arity_cap):
                return PrecompletenessVerdict("not-maximal", witness=f)
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


def _carrier_permutations(carrier: Carrier):
    return list(itertools.permutations(range(carrier.size)))


def _orbit_representatives(carrier: Carrier, arity_cap: int) -> list[OpTable]:
    perms = _carrier_permutations(carrier)
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
    compose stepwise.  The resulting family is closed under conjugation and
    checked for linear ordering by inclusion.
    """
    working_cap = arity_cap + 1 if working_cap is None else working_cap
    for n in range(1, working_cap + 1):
        if op_space_size(carrier, n) > _MAX_SLICE:
            raise ResourceLimitError(
                f"slice at arity {n} has {op_space_size(carrier, n)} tables, "
                f"budget is {_MAX_SLICE}"
            )

    perms = _carrier_permutations(carrier)
    reps = _orbit_representatives(carrier, arity_cap)

    def close(extra: list[OpTable]) -> OpSet:
        return clone_closure(extra, carrier, working_cap, include_all_unary=True)

    base = close([])
    found: dict[tuple, OpSet] = {base.signature(): base}
    frontier = [base]
    while frontier:
        fresh: list[OpSet] = []
        for clone in frontier:
            gens = sorted(clone.ops, key=OpTable.sort_key)
            candidates = list(reps)
            for cand in candidates:
                if cand in clone:
                    continue
                grown = close(gens + [cand])
                if grown.signature() not in found:
                    found[grown.signature()] = grown
                    fresh.append(grown)
            for p in perms[1:]:
                mirrored_ops = frozenset(conjugate(op, p) for op in clone.ops)
                mirrored = OpSet(carrier, working_cap, mirrored_ops)
                if mirrored.signature() not in found:
                    found[mirrored.signature()] = mirrored
                    fresh.append(mirrored)
        frontier = fresh

    clones = sorted(found.values(), key=len)
    is_chain = all(
        clones[i].ops <= clones[i + 1].ops for i in range(len(clones) - 1)
    )
    return ChainReport(carrier, arity_cap, working_cap, tuple(clones), is_chain)
