"""Scalar pairing builds, triangle interaction and term search, the
reference for the box-table builds in `clonelab.pairings`, the table scan of
`clonelab.canonical.region_interaction` and the memoised search in
`clonelab.terms`.

It shares no code with `clonelab`: a binary function is a plain callable,
a box is (lo, hi, region), a term is its s-expression text, and every scan
calls the function afresh at every point it visits, in the order the scan
visits it.  A failed premise raises `Refuted` (a construction premise) or
`InvalidMerge` (a merge identity) with the same message and witness the
clonelab builds report.
"""

import itertools


class Refuted(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidMerge(Exception):
    pass


def pairs(box):
    """Region pairs of a (lo, hi, region) box in lexicographic order."""
    lo, hi, region = box
    for a in range(lo, hi):
        for b in range(lo, hi):
            if region == "delta" and not a > b:
                continue
            if region == "nabla" and not a < b:
                continue
            if region == "offdiag" and a == b:
                continue
            yield (a, b)


def collision(f, box):
    """The first two pairs of the scan with equal values, or None."""
    seen = {}
    for p in pairs(box):
        v = f(*p)
        if v in seen and seen[v] != p:
            return (seen[v], p)
        seen.setdefault(v, p)
    return None


def nested(f, box):
    """(x, y) -> F(x, F(x, y)), F being f lifted above the box when f does
    not dominate max there."""
    lo, hi, _ = box
    square = (lo, hi, "full")
    for x, y in pairs(square):
        if f(x, y) != f(y, x):
            raise Refuted("argument not symmetric", ((x, y), (y, x)))
    hit = collision(f, (lo, hi, "delta"))
    if hit is not None:
        raise Refuted("argument not injective below the diagonal", hit)

    if any(f(x, y) <= max(x, y) for x, y in pairs(square)):
        seen = sorted({f(x, y) for x, y in pairs(square)})
        ranks = {v: i for i, v in enumerate(seen)}

        def shift(v):
            if v in ranks:
                return hi + ranks[v]
            return hi + len(ranks) + v

        def g(x, y):
            return shift(f(x, y))
    else:
        g = f

    def out(x, y):
        return g(x, g(x, y))

    hit = collision(out, (lo, hi, "offdiag"))
    if hit is not None:
        raise Refuted("composite not injective off the diagonal", hit)
    return out


def split_merge(f, merge, box):
    """(x, y) -> merge(F x y, F y x + 1), F being f normalized over the box:
    below-diagonal values to 0, above-diagonal ones to distinct evens."""
    lo, hi, _ = box
    below = {f(x, y) for x, y in pairs((lo, hi, "delta"))}
    above = {f(x, y) for x, y in pairs((lo, hi, "nabla"))}
    overlap = below & above
    if overlap:
        raise Refuted("triangle images are not disjoint", sorted(overlap)[:4])
    hit = collision(f, (lo, hi, "nabla"))
    if hit is not None:
        raise Refuted("argument not injective above the diagonal", hit)

    evens = {v: 2 * (i + 1) for i, v in enumerate(sorted(above))}
    spare = 2 * len(above) + 1

    def g(x, y):
        v = f(x, y)
        if v in below:
            return 0
        if v in evens:
            return evens[v]
        return spare + 2 * v

    for e in evens.values():
        if merge(e, 1) != e:
            raise InvalidMerge(f"merge({e}, 1) != {e}")
        if merge(0, e + 1) != e + 1:
            raise InvalidMerge(f"merge(0, {e + 1}) != {e + 1}")

    def out(x, y):
        return merge(g(x, y), g(y, x) + 1)

    hit = collision(out, (lo, hi, "offdiag"))
    if hit is not None:
        raise Refuted("composite not injective off the diagonal", hit)
    return out


def region_interaction(f, box):
    """(verdict, witness) of how f's two triangles relate on the box's
    square, scanned region by region."""
    lo, hi, _ = box
    delta, nabla = (lo, hi, "delta"), (lo, hi, "nabla")
    if collision(f, delta) is not None and collision(f, nabla) is not None:
        return ("neither-precondition", None)
    asym = next(((a, b) for a, b in pairs(nabla) if f(a, b) != f(b, a)), None)
    if asym is None:
        return ("symmetric", None)
    shared = {f(a, b) for a, b in pairs(delta)} & {f(a, b) for a, b in pairs(nabla)}
    if not shared:
        return ("disjoint-ranges", asym)
    return ("overlap", (min(shared),))


def term_search(target, binary, unary, max_depth, box, levels=None):
    """Iterative deepening over value vectors on the box.

    binary and unary map symbol names to plain callables.  Returns (term
    text or None, distinct vectors per depth, candidates checked); a list
    passed as `levels` receives each depth's (vector, term text) entries.
    """
    points = list(pairs(box))
    want = tuple(target(a, b) for a, b in points)
    levels = [] if levels is None else levels
    seen = set()
    checked = 0
    for depth in range(max_depth + 1):
        if depth == 0:
            stream = [(tuple(a for a, _ in points), "x"), (tuple(b for _, b in points), "y")]
        else:
            prev = levels[depth - 1]
            earlier = [entry for lv in levels[: depth - 1] for entry in lv]
            stream = []
            for name in sorted(unary):
                for sig, text in prev:
                    stream.append((tuple(unary[name](v) for v in sig), f"(u:{name} {text})"))
            for name in sorted(binary):
                combos = itertools.chain(
                    itertools.product(prev, earlier),
                    itertools.product(earlier, prev),
                    itertools.product(prev, prev),
                )
                for (lsig, ltext), (rsig, rtext) in combos:
                    sig = tuple(binary[name](u, v) for u, v in zip(lsig, rsig))
                    stream.append((sig, f"(b:{name} {ltext} {rtext})"))
        level = []
        levels.append(level)
        for sig, text in stream:
            checked += 1
            if sig in seen:
                continue
            seen.add(sig)
            level.append((sig, text))
            if sig == want:
                return text, tuple(len(lv) for lv in levels), checked
    return None, tuple(len(lv) for lv in levels), checked
