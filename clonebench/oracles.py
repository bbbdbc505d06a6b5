"""Known answers for the benchmark's verdicts, each from a source outside clonelab.

Every function here is a closed formula or a table from the literature.
None of them calls clonelab, and none was read off a run of the engine
under test; `tests/test_oracles.py` re-derives each one by brute force on
tiny cases.
"""

from __future__ import annotations

from fractions import Fraction

# Dedekind numbers D(n): monotone Boolean functions of n variables,
# constants included (Dedekind 1897; OEIS A000372), n = 0..6.
DEDEKIND = (2, 3, 6, 20, 168, 7581, 7828354)

# Self-dual monotone Boolean functions of n variables (OEIS A001206), n = 0..6.
SELF_DUAL_MONOTONE = (0, 1, 2, 4, 12, 81, 2646)


def lattice_terms(n: int) -> int:
    """n-ary term functions of <min, max> on any chain of size >= 2.

    They form the free distributive lattice on n generators, which is the
    monotone Boolean functions minus the two constants: D(n) - 2.  The same
    count is the n-ary slice of <AND, OR> on {0, 1} (Post's lattice).
    """
    return DEDEKIND[n] - 2


def median_terms(n: int) -> int:
    """n-ary term functions of the median on any chain of size >= 2.

    On {0, 1} the median is majority, and <maj> is the clone of self-dual
    monotone functions (Post's lattice).  A median term on a chain is fixed
    by its restriction to {0, 1}, so every chain gives A001206(n).
    """
    return SELF_DUAL_MONOTONE[n]


def idempotent_affine_terms(k: int, n: int) -> int:
    """n-ary term functions of x - y + z on Z_k: sum a_i x_i with sum a_i = 1."""
    return k ** (n - 1)


def affine_terms(p: int, n: int) -> int:
    """n-ary term functions of <x + y, 1> on Z_p, p prime: every a.x + c."""
    return p ** (n + 1)


def conjunction_terms(n: int) -> int:
    """<AND> at arity n: the conjunctions of nonempty variable sets."""
    return 2**n - 1


def odd_parity_terms(n: int) -> int:
    """<x xor y xor z> at arity n: parities of odd-sized variable sets."""
    return 2 ** (n - 1)


def boolean_affine_terms(n: int) -> int:
    """<xor, 1> at arity n: the Boolean clone L of all affine functions."""
    return 2 ** (n + 1)


def full_slice(k: int, n: int) -> int:
    """Every n-ary operation on a k-element carrier."""
    return k ** (k**n)


def pol_unary_count(k: int, b: int, n: int) -> int:
    """n-ary operations on k elements mapping B^n into B, with |B| = b.

    The b^n arguments inside B^n take values in B, the rest are free.
    """
    return b ** (b**n) * k ** (k**n - b**n)


def macmahon_box(a: int, b: int, c: int) -> int:
    """Plane partitions inside an a x b x c box (MacMahon 1916)."""
    total = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for m in range(1, c + 1):
                total *= Fraction(i + j + m - 1, i + j + m - 2)
    if total.denominator != 1:
        raise ArithmeticError(f"box formula gave a fraction: {total}")
    return int(total)


def chain3_order_preserving(n: int) -> int:
    """n-ary operations on the 3-chain preserving <=, for n in {1, 2}.

    A monotone map [3]^n -> [3] is a pair of nested order ideals, i.e. a
    plane partition: n = 1 is the 3 x 1 x 2 box (10), n = 2 the
    3 x 3 x 2 box (175).
    """
    if n == 1:
        return macmahon_box(3, 1, 2)
    if n == 2:
        return macmahon_box(3, 3, 2)
    raise ValueError("only arities 1 and 2 have a box formula here")


def ideal_clone_slice(k: int, n: int) -> int:
    """n-ary slice of the clone induced by the ideal avoiding one point.

    The clone is Pol of the unary relation X minus {e}, so its slice is
    pol_unary_count(k, k - 1, n); 2^4 * 3^5 = 3888 at k = 3, n = 2.
    """
    return pol_unary_count(k, k - 1, n)


# Sources for the verdicts that are not counts.
#
# Webb (1935): (max(x, y) + 1) mod k generates every operation on k
# elements, so each of its carrier conjugates does too.
# Sheffer (1913): NAND generates every Boolean operation.
# Post (1941): T0, T1 and M are maximal Boolean clones; T0 = <AND, XOR>,
# T1 = <OR, XNOR>, M = <AND, OR, 0, 1>.
# Rosenberg (1970): Pol of a proper nonempty unary relation is a maximal
# clone, so the ideal clone plus any outside operation generates everything.
# Greenwood and Gleason (1955): R(3, 3) = 6.
WEBB_SHEFFER = True
POST_MAXIMAL = ("T0", "T1", "M")
IDEAL_CLONE_MAXIMAL = True
RAMSEY_3_3 = 6
