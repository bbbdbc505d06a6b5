"""Per-quadruple canonicity scans, the reference for the table scan of
`clonelab.canonical`.

It shares no code with `clonelab` beyond `tuple_pattern`: a binary map is
a plain callable, every scan walks the admissible quadruples of a sorted
sample in lexicographic order and calls the map afresh on both halves of
each, a selection tests each new point on the quadruples it joins against
the patterns the kept points have fixed, and a classification evaluates
the region pairs again after its canonicity scan.  A violation raises
`NotCanonical` with the message `clonelab.canonical.NotCanonicalError`
carries.
"""

import itertools
from collections import ChainMap

from clonelab.canonical import tuple_pattern


class NotCanonical(ValueError):
    def __init__(self, witness):
        super().__init__(f"map is not canonical on the sample: {witness}")
        self.witness = witness


def _admissible_quads(sample):
    for quad in itertools.product(sample, repeat=4):
        if quad[0] != quad[1] and quad[2] != quad[3]:
            yield quad


def _first_clash(f, quads, buckets):
    """The first quad whose values are ordered unlike those of the first
    quad of its pattern, as (that quad, this quad); each new pattern is
    left in buckets."""
    for quad in quads:
        left, right = f(quad[0], quad[1]), f(quad[2], quad[3])
        outcome = (left > right) - (left < right)
        prior, first = buckets.setdefault(tuple_pattern(quad), (outcome, quad))
        if prior != outcome:
            return (first, quad)
    return None


def is_canonical(f, sample):
    return _first_clash(f, _admissible_quads(sorted(set(sample))), {})


def canonical_subset(f, lo, hi):
    """The points of [lo, hi) the greedy increasing scan keeps."""
    selected, buckets = [], {}
    for p in range(lo, hi):
        additions = {}
        quads = (q for q in _admissible_quads(selected + [p]) if p in q)
        if _first_clash(f, quads, ChainMap(additions, buckets)) is None:
            selected.append(p)
            buckets.update(additions)
    return tuple(selected)


def classify_on_region(f, region, sample):
    """(kind, witness map, value, degenerate) of f on a triangle of the sample."""
    if region not in ("delta", "nabla"):
        raise ValueError("region must be delta or nabla")
    sample = sorted(set(sample))
    violation = is_canonical(f, sample)
    if violation is not None:
        raise NotCanonical(violation)
    pairs = [(a, b) for a in sample for b in sample if (a > b if region == "delta" else a < b)]
    if len(pairs) < 3:
        return ("constant", None, f(*pairs[0]) if pairs else None, True)
    values = {p: f(*p) for p in pairs}
    if len(set(values.values())) == 1:
        return ("constant", None, values[pairs[0]], False)
    for kind, index in (("first-coordinate", 0), ("second-coordinate", 1)):
        mapping = {}
        if all(mapping.setdefault(p[index], v) == v for p, v in values.items()):
            if len(set(mapping.values())) == len(mapping):
                return (kind, tuple(sorted(mapping.items())), None, False)
    if len(set(values.values())) == len(values):
        return ("injective", None, None, False)
    raise ValueError("canonical on the sample but matching no shape; enlarge the sample")
