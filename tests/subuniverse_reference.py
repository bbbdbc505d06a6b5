"""A plain fixpoint over pairs, the reference for the subuniverse kernel.

It shares no code with `clonelab.finite` beyond reading `OpTable.table`: a
subset of A^2 is a Python set of pairs, and generators are applied one
operand tuple at a time, coordinatewise, until no round adds a pair.
"""

import itertools


def reference_pair_subuniverse(generators, k, p, q):
    """The subuniverse of A^2 the generators generate from the pairs (p_i, q_i)."""
    members = set(zip(p, q))
    grown = True
    while grown:
        grown = False
        for g in generators:
            for args in itertools.product(sorted(members), repeat=g.arity):
                left = right = 0
                for a, b in args:
                    left, right = left * k + a, right * k + b
                pair = (g.table[left], g.table[right])
                if pair not in members:
                    members.add(pair)
                    grown = True
    return members
