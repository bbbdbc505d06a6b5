"""A plain scalar preservation test, the reference for the vectorised kernel.

It shares no code with `clonelab.finite` beyond reading `OpTable.table` and
building `OpTable`s: f is applied to one choice of relation rows at a time,
and each image tuple is looked up in the relation's tuple set.
"""

import itertools

from clonelab.finite import OpTable


def reference_respects(f, relation):
    """Whether f maps every choice of f.arity rows coordinatewise into the relation."""
    rows = sorted(relation.tuples)
    for choice in itertools.product(rows, repeat=f.arity):
        image = tuple(f(*(row[i] for row in choice)) for i in range(relation.width))
        if image not in relation.tuples:
            return False
    return True


def reference_pol(relation, arity_cap):
    """Every operation of arity <= arity_cap that respects the relation, as a set."""
    k = relation.carrier.size
    ops = (OpTable(relation.carrier, n, table)
           for n in range(1, arity_cap + 1)
           for table in itertools.product(range(k), repeat=k**n))
    return {f for f in ops if reference_respects(f, relation)}
