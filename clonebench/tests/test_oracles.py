"""Each known answer in oracles.py, re-derived by brute force on tiny cases.

Nothing here calls clonelab: term slices come from `term_slice`, a plain
fixpoint over value tables, and counts from direct enumeration.
"""

import itertools

import numpy as np
import pytest

import oracles


def term_slice(k, n, gens):
    """The n-ary term functions of gens (pairs of arity and value table) on k elements."""
    rows = list(itertools.product(range(k), repeat=n))
    pool = {tuple(r[j] for r in rows) for j in range(n)}
    frontier = set(pool)
    while frontier:
        found = set()
        for arity, table in gens:
            for args in itertools.product(pool, repeat=arity):
                if not frontier.intersection(args):
                    continue
                out = []
                for i in range(len(rows)):
                    idx = 0
                    for a in args:
                        idx = idx * k + a[i]
                    out.append(table[idx])
                found.add(tuple(out))
        frontier = found - pool
        pool |= frontier
    return pool


def table(k, arity, fn):
    values = tuple(fn(*t) for t in itertools.product(range(k), repeat=arity))
    return (arity, values)


def monotone_tables(n):
    """Value tables of the monotone Boolean functions of n variables, as a bool mask."""
    size = 1 << n
    tables = np.arange(1 << size, dtype=np.int64)
    ok = np.ones(len(tables), dtype=bool)
    for i in range(size):
        for bit in range(n):
            j = i | (1 << bit)
            if j != i:
                ok &= ~(((tables >> i) & 1 == 1) & ((tables >> j) & 1 == 0))
    return tables, ok


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_dedekind_counts_monotone_functions(n):
    _, ok = monotone_tables(n)
    assert int(ok.sum()) == oracles.DEDEKIND[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_self_dual_monotone_counts(n):
    tables, ok = monotone_tables(n)
    size = 1 << n
    full = (1 << size) - 1
    # self-dual: f(not x) = not f(x); reversing the table complements the argument
    reversed_tables = np.zeros_like(tables)
    for i in range(size):
        reversed_tables |= ((tables >> i) & 1) << (size - 1 - i)
    self_dual = reversed_tables == (full ^ tables)
    assert int((ok & self_dual).sum()) == oracles.SELF_DUAL_MONOTONE[n]


@pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 3)])
def test_lattice_terms_on_chains(k, n):
    gens = [table(k, 2, min), table(k, 2, max)]
    assert len(term_slice(k, n, gens)) == oracles.lattice_terms(n)


@pytest.mark.parametrize("k,n", [(2, 3), (2, 4), (3, 3)])
def test_median_terms_on_chains(k, n):
    gens = [table(k, 3, lambda a, b, c: sorted((a, b, c))[1])]
    assert len(term_slice(k, n, gens)) == oracles.median_terms(n)


@pytest.mark.parametrize("k,n", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_idempotent_affine_terms(k, n):
    gens = [table(k, 3, lambda x, y, z: (x - y + z) % k)]
    assert len(term_slice(k, n, gens)) == oracles.idempotent_affine_terms(k, n)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 1), (3, 2)])
def test_affine_terms(p, n):
    gens = [table(p, 2, lambda x, y: (x + y) % p), table(p, 1, lambda x: 1)]
    assert len(term_slice(p, n, gens)) == oracles.affine_terms(p, n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_boolean_clone_counts(n):
    AND = table(2, 2, lambda x, y: x & y)
    assert len(term_slice(2, n, [AND])) == oracles.conjunction_terms(n)
    XOR3 = table(2, 3, lambda x, y, z: x ^ y ^ z)
    assert len(term_slice(2, n, [XOR3])) == oracles.odd_parity_terms(n)
    L = [table(2, 2, lambda x, y: x ^ y), table(2, 1, lambda x: 1)]
    assert len(term_slice(2, n, L)) == oracles.boolean_affine_terms(n)


@pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (3, 1), (4, 1)])
def test_webb_function_is_sheffer(k, n):
    webb = table(k, 2, lambda x, y: (max(x, y) + 1) % k)
    assert len(term_slice(k, n, [webb])) == oracles.full_slice(k, n)


@pytest.mark.parametrize("n", [1, 2])
def test_nand_is_sheffer(n):
    nand = table(2, 2, lambda x, y: 1 - (x & y))
    assert len(term_slice(2, n, [nand])) == oracles.full_slice(2, n)


@pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_pol_unary_counts(k, n):
    for b in range(1, k):
        for members in itertools.combinations(range(k), b):
            inside = [i for i, t in enumerate(itertools.product(range(k), repeat=n))
                      if all(a in members for a in t)]
            count = sum(
                1 for values in itertools.product(range(k), repeat=k**n)
                if all(values[i] in members for i in inside)
            )
            assert count == oracles.pol_unary_count(k, b, n)
    assert oracles.ideal_clone_slice(3, 2) == 2**4 * 3**5


@pytest.mark.parametrize("n", [1, 2])
def test_chain3_order_preserving_by_enumeration(n):
    rows = list(itertools.product(range(3), repeat=n))
    pairs = [(i, j) for i, r in enumerate(rows) for j, s in enumerate(rows)
             if all(a <= b for a, b in zip(r, s))]
    count = sum(
        1 for values in itertools.product(range(3), repeat=3**n)
        if all(values[i] <= values[j] for i, j in pairs)
    )
    assert count == oracles.chain3_order_preserving(n)


def test_post_maximal_clones_at_small_arity():
    AND, OR = table(2, 2, lambda x, y: x & y), table(2, 2, lambda x, y: x | y)
    XOR, XNOR = table(2, 2, lambda x, y: x ^ y), table(2, 2, lambda x, y: 1 - (x ^ y))
    zero, one = table(2, 1, lambda x: 0), table(2, 1, lambda x: 1)
    clones = {
        "T0": ([AND, XOR], lambda t: t[0] == 0),
        "T1": ([OR, XNOR], lambda t: t[-1] == 1),
        "M": ([AND, OR, zero, one], None),
    }
    assert set(clones) == set(oracles.POST_MAXIMAL)
    for name, (gens, member) in clones.items():
        for n in (1, 2, 3):
            got = term_slice(2, n, gens)
            if member is not None:
                assert got == {t for t in itertools.product(range(2), repeat=2**n) if member(t)}
            else:
                assert len(got) == oracles.DEDEKIND[n]
        binary = term_slice(2, 2, gens)
        for extra in itertools.product(range(2), repeat=4):
            if extra not in binary:
                assert len(term_slice(2, 2, gens + [(2, extra)])) == oracles.full_slice(2, 2)


def test_ideal_clone_is_maximal_on_two_elements():
    for e in (0, 1):
        keep = 1 - e
        ops = [(n, t) for n in (1, 2) for t in itertools.product(range(2), repeat=2**n)]
        inside = [(n, t) for n, t in ops if t[keep * (len(t) - 1)] != e]
        for f in ops:
            if f not in inside:
                for n in (1, 2):
                    assert len(term_slice(2, n, inside + [f])) == oracles.full_slice(2, n)


def test_ideal_clone_is_maximal_on_three_elements_unary_slice():
    e = 2
    binary = np.array(list(itertools.product(range(3), repeat=9)), dtype=np.int8)
    small_idx = [a * 3 + b for a in range(2) for b in range(2)]
    gens = binary[(binary[:, small_idx] != e).all(axis=1)]
    assert len(gens) == oracles.ideal_clone_slice(3, 2)
    powers = np.array([9, 3, 1])
    for values in itertools.product(range(3), repeat=3):
        if values[0] != e and values[1] != e:
            continue  # inside the ideal clone
        pool = {(0, 1, 2), tuple(values)}
        while True:
            tables = np.array(sorted(pool), dtype=np.int64)
            u, v = np.repeat(tables, len(tables), axis=0), np.tile(tables, (len(tables), 1))
            out = gens[:, u * 3 + v].reshape(-1, 3)  # g(u(x), v(x)) for every g, u, v
            codes = np.unique(out.astype(np.int64) @ powers)
            found = {(int(c) // 9, int(c) // 3 % 3, int(c) % 3) for c in codes}
            found |= {tuple(values[x] for x in u) for u in pool}  # f after a pool member
            if found <= pool:
                break
            pool |= found
        assert len(pool) == oracles.full_slice(3, 1)


def test_ramsey_three_three():
    def has_mono_triangle(n, colour):
        return any(colour[(a, b)] == colour[(a, c)] == colour[(b, c)]
                   for a, b, c in itertools.combinations(range(n), 3))

    edges6 = list(itertools.combinations(range(6), 2))
    assert all(has_mono_triangle(6, dict(zip(edges6, bits)))
               for bits in itertools.product((0, 1), repeat=len(edges6)))
    pentagon = {(a, b): int((b - a) % 5 in (1, 4))
                for a, b in itertools.combinations(range(5), 2)}
    assert not has_mono_triangle(5, pentagon)
    assert oracles.RAMSEY_3_3 == 6
