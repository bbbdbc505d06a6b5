"""Plain list-based greedy thinning, the reference for the thinners in
`clonelab.terms`.

It shares no code with `clonelab.terms`: a layer is a finite increasing
list, and thinning walks it once, keeping an element when the layer's
rule accepts it against the elements kept so far.  Because the thinners
are greedy, thinning the prefix below N of a set gives exactly the thinned
set's elements below N.
"""


def thin(elements, accept):
    kept = []
    for x in elements:
        if accept(x, kept):
            kept.append(x)
    return kept


def injective(h):
    """Keep the first element of each h-fiber."""
    return lambda x, kept: all(h(x) != h(b) for b in kept)


def disjoint_images(fns):
    """Keep x when its images are distinct and meet no kept element's images."""
    def accept(x, kept):
        image = [f(x) for f in fns]
        if len(set(image)) != len(fns):
            return False
        return all(f(b) not in image for b in kept for f in fns)
    return accept


def avoid_pairing_collisions(fns, pr):
    """Keep x when no image of x or of a kept b is a code of (x, b) or (b, x)."""
    def accept(x, kept):
        for b in kept:
            codes = (pr(x, b), pr(b, x))
            if any(f(x) in codes or f(b) in codes for f in fns):
                return False
        return True
    return accept


def avoid_constants(bad, pr):
    """Keep x when no pair among x and the kept elements codes into bad."""
    def accept(x, kept):
        if pr(x, x) in bad:
            return False
        return all(pr(x, b) not in bad and pr(b, x) not in bad for b in kept)
    return accept
