"""A plain fixpoint over tuple tables, the reference for the closure engine.

It shares no code with `clonelab.finite` beyond reading `OpTable.table`:
tables are Python tuples, generators are applied one argument tuple at a
time, and the only optimisation is the semi-naive rule that a round only
tries argument tuples holding at least one table found in the round before.
"""

import itertools


def apply_table(table, k, args):
    """The table of g(args[0], ..., args[m-1]), read pointwise."""
    out = []
    for column in zip(*args):
        index = 0
        for value in column:
            index = index * k + value
        out.append(table[index])
    return tuple(out)


def reference_slice(generators, k, arity):
    """Every arity-ary table reachable from the projections under the generators."""
    points = list(itertools.product(range(k), repeat=arity))
    known = {tuple(p[j] for p in points) for j in range(arity)}
    frontier = set(known)
    while frontier:
        pool = sorted(known)
        fresh = set()
        for g in generators:
            for args in itertools.product(pool, repeat=g.arity):
                if frontier.isdisjoint(args):
                    continue
                table = apply_table(g.table, k, args)
                if table not in known:
                    fresh.add(table)
        known |= fresh
        frontier = fresh
    return known
