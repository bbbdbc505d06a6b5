"""Clones induced by a maximal ideal on a finite carrier.

On a finite carrier every maximal ideal is principal: it consists of all
subsets avoiding one excluded point.  The induced clone holds exactly the
operations that map powers of ideal-small sets into ideal-small sets, and
adding any operation outside it regenerates everything; the decomposition
certificate below packages the explicit construction behind that claim so
a test can re-check every identity pointwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .finite import Carrier, OpTable, ResourceLimitError, compose


class DegenerateWitnessError(ValueError):
    """The witness image has a single value, so no two routing points exist."""


@dataclass(frozen=True)
class PrincipalIdeal:
    """The maximal ideal of all subsets avoiding one excluded point."""

    carrier: Carrier
    excluded: int

    def __post_init__(self):
        if not 0 <= self.excluded < self.carrier.size:
            raise ValueError("excluded point outside the carrier")

    def contains(self, subset) -> bool:
        return self.excluded not in subset

    def members(self) -> Iterator[frozenset[int]]:
        """All ideal members (subsets of the carrier missing the excluded point)."""
        rest = [x for x in self.carrier.elements() if x != self.excluded]
        for r in range(len(rest) + 1):
            for combo in itertools.combinations(rest, r):
                yield frozenset(combo)

    def largest_member(self) -> tuple[int, ...]:
        return tuple(x for x in self.carrier.elements() if x != self.excluded)


def preserves_ideal(f: OpTable, ideal: PrincipalIdeal) -> bool:
    """Membership in the ideal-induced clone.

    Checks the defining condition over every ideal member A: the image of
    A^n must again avoid the excluded point.  (Monotonicity makes the
    largest member decisive; the full quantifier is kept because it is the
    definition and the loop is tiny.)
    """
    if f.carrier != ideal.carrier:
        raise ValueError("carrier mismatch")
    for member in ideal.members():
        if not member:
            continue
        for args in itertools.product(sorted(member), repeat=f.arity):
            if f(*args) == ideal.excluded:
                return False
    return True


@dataclass(frozen=True)
class DecompositionCertificate:
    """Ingredients re-expressing g through the clone plus one outside witness.

    The certificate packages a conservative ternary router h, a two-valued
    selector chi, approximations g0/g1, a partial right inverse of the
    witness (one unary component table per witness argument), and the
    composed map g0_prime with g0 = f(g0_prime).  `verified` records that
    every identity was checked on every carrier tuple.
    """

    g: OpTable
    f: OpTable
    ideal: PrincipalIdeal
    witness_set: tuple[int, ...]
    image: tuple[int, ...]  # f[witness_set^k], sorted
    b0: int
    b1: int
    h: OpTable
    chi: OpTable
    g0: OpTable
    g1: OpTable
    f_star: tuple[OpTable, ...]
    g0_prime: tuple[OpTable, ...]
    verified: bool


def _right_inverse(f: OpTable, witness: tuple[int, ...], image: set[int]) -> list[tuple[int, ...]]:
    """For each carrier element, a tuple in witness^k; f-preimage on the image.

    Elements outside the image get the constant tuple (min witness, ...),
    deterministically.
    """
    k = f.carrier.size
    lo = min(witness)
    assigned: dict[int, tuple[int, ...]] = {}
    for args in itertools.product(witness, repeat=f.arity):
        v = f(*args)
        if v in image and v not in assigned:
            assigned[v] = args
    return [assigned.get(x, (lo,) * f.arity) for x in range(k)]


def decompose_with(g: OpTable, f: OpTable, ideal: PrincipalIdeal) -> DecompositionCertificate:
    """Express g as h(chi x̄, g0 x̄, g1 x̄) with g0 factoring through f.

    f must lie outside the ideal-induced clone.  The witness set is the
    largest ideal member; its f-image must contain two distinct values.  A
    two-element carrier can never satisfy that (the witness power is a
    single point), so there - and only there - the second routing value is
    borrowed from the rest of the carrier instead of raising.
    """
    carrier = g.carrier
    if f.carrier != carrier or ideal.carrier != carrier:
        raise ValueError("carrier mismatch")
    if preserves_ideal(f, ideal):
        raise ValueError("witness operation already preserves the ideal")

    witness = ideal.largest_member()
    image = sorted({f(*args) for args in itertools.product(witness, repeat=f.arity)})
    if len(image) >= 2:
        b0, b1 = image[0], image[1]
    elif len(witness) >= 2:
        raise DegenerateWitnessError(
            f"witness image {image} has fewer than two elements"
        )
    else:
        # two-element carrier: |witness^k| == 1 makes a two-point image
        # unreachable for every f, so borrow the second routing value
        b0 = image[0]
        b1 = min(x for x in carrier.elements() if x != b0)

    e = ideal.excluded
    image_set = set(image)
    in_c0 = [g.table[i] in image_set for i in range(len(g.table))]

    h = OpTable.from_fn(carrier, 3, lambda x, y, z: y if x == b0 else z)
    chi = OpTable(carrier, g.arity, tuple(b0 if m else b1 for m in in_c0))
    g0 = OpTable(carrier, g.arity,
                 tuple(v if m else b0 for v, m in zip(g.table, in_c0)))
    # filler outside the excluded point keeps the range of g1 ideal-small
    fill = b0 if b0 != e else min(x for x in carrier.elements() if x != e)
    g1 = OpTable(carrier, g.arity,
                 tuple(fill if m else v for v, m in zip(g.table, in_c0)))

    inverse = _right_inverse(f, witness, image_set)
    f_star = tuple(
        OpTable(carrier, 1, tuple(inverse[x][j] for x in carrier.elements()))
        for j in range(f.arity)
    )
    g0_prime = tuple(compose(comp, [g0]) for comp in f_star)

    ok = compose(h, [chi, g0, g1]).table == g.table
    ok = ok and compose(f, list(g0_prime)).table == g0.table
    ok = ok and all(f(*inverse[b]) == b for b in image)
    ok = ok and all(
        h(*t) in t for t in carrier.tuples(3)
    )
    ok = ok and len(set(chi.table)) <= 2
    ok = ok and e not in set(g1.table)
    ok = ok and all(e not in set(comp.table) for comp in g0_prime)

    return DecompositionCertificate(
        g=g, f=f, ideal=ideal, witness_set=witness, image=tuple(image),
        b0=b0, b1=b1, h=h, chi=chi, g0=g0, g1=g1,
        f_star=f_star, g0_prime=g0_prime, verified=ok,
    )


_MAX_CARRIER = 4  # reconstructs_ideal's exhaustive budget


def reconstructs_ideal(ideal: PrincipalIdeal) -> bool:
    """Finite analog of recovering the ideal from its induced clone.

    Computes {A : every unary operation with range inside A preserves the
    ideal} by exhausting all subsets and all unary operations, and compares
    it with the ideal itself.
    """
    k = ideal.carrier.size
    if k > _MAX_CARRIER:
        raise ResourceLimitError(
            f"carrier size {k} above the exhaustive budget {_MAX_CARRIER}"
        )
    elements = list(ideal.carrier.elements())
    recovered = set()
    for r in range(k + 1):
        for combo in itertools.combinations(elements, r):
            subset = frozenset(combo)
            good = True
            for values in itertools.product(sorted(subset), repeat=k) if subset else [()]:
                if not subset:
                    break
                f = OpTable(ideal.carrier, 1, values)
                if not preserves_ideal(f, ideal):
                    good = False
                    break
            if good:
                recovered.add(subset)
    actual = set(ideal.members())
    return recovered == actual
