"""The box loops call bare evaluators, never `SymbolicFn.__call__`.

`SymbolicFn.__call__` checks the argument count on every call; a loop over
a box takes the evaluator once (`SymbolicFn.evaluator`) and calls it per
point.  Every part here is built from plain functions, so each counted
call is one the library makes itself.
"""

import pytest

from clonelab.almost_unary import almost_unary_check, median_witness
from clonelab.canonical import canonical_subset, classify_on_region, is_canonical
from clonelab.pairings import split_merge_pairing, two_sided_pairing
from clonelab.symbolic import (
    AlmostUnaryWitness,
    Box,
    SymbolicFn,
    check_injective_on,
    compose_fn,
)


@pytest.fixture
def wrapped_calls(monkeypatch):
    """The number of `SymbolicFn.__call__` calls made so far."""
    calls = []
    call = SymbolicFn.__call__

    def counted(self, *args):
        calls.append(self.name)
        return call(self, *args)

    monkeypatch.setattr(SymbolicFn, "__call__", counted)
    return calls


def _witnessed(coord, scale):
    def fn(x, y):
        return scale * (x, y)[coord - 1] + (x, y)[2 - coord] % 2

    witness = AlmostUnaryWitness(coord, lambda t: range(0, scale * t + 2))
    return SymbolicFn(f"w{coord}.{scale}", 2, fn), witness


def test_an_almost_unary_check_of_a_composite(wrapped_calls):
    parts = [_witnessed(1, 2), _witnessed(1, 3), _witnessed(2, 1)]
    med = SymbolicFn("med", 3, lambda a, b, c: sorted((a, b, c))[1])
    composite = compose_fn(med, [p for p, _ in parts])
    box = Box(0, 12, "full")
    witness = median_witness([w for _, w in parts])
    assert almost_unary_check(composite, box, witness).kind == "witness-verified"
    assert almost_unary_check(composite, box).kind == "not-almost-unary-on-box"
    assert wrapped_calls == []


def test_a_split_merge_build(wrapped_calls):
    def below_t(x, y):  # a Cantor code above the diagonal, 0 below
        s = x + y
        return s * (s + 1) + 2 * x + 2 if x < y else 0

    def merge(a, b):
        return b if a == 0 else (a if b == 1 else 0)

    box = Box(2, 20, "offdiag")
    out = split_merge_pairing(SymbolicFn("below_t", 2, below_t), SymbolicFn("merge", 2, merge), box)
    assert check_injective_on(out, box) is None
    assert wrapped_calls == []


def test_an_injectivity_check_of_a_two_sided_pairing(wrapped_calls):
    def pair(x, y):
        s = x + y
        return s * (s + 1) + 2 * y + 2

    def merge(a, b):
        return a if b == 3 else (b if a == 1 else 0)

    box = Box(1, 24, "offdiag")
    out = two_sided_pairing(SymbolicFn("merge", 2, merge), SymbolicFn("pair", 2, pair),
                            check_box=Box(1, 10, "offdiag"))
    assert check_injective_on(out, box) is None
    assert check_injective_on(out, box.with_region("full")) is not None  # constant diagonal
    assert wrapped_calls == []


@pytest.mark.parametrize("scan", [
    lambda f, points: is_canonical(f, points),
    lambda f, points: canonical_subset(f, Box(points[0], points[-1] + 1, "full")),
    lambda f, points: classify_on_region(f, "delta", points),
], ids=["is_canonical", "canonical_subset", "classify_on_region"])
@pytest.mark.parametrize("width", [1, 2, 7])
def test_a_canonicity_scan_evaluates_each_ordered_pair_once(wrapped_calls, scan, width):
    calls = []
    f = SymbolicFn("max", 2, lambda x, y: calls.append((x, y)) or max(x, y))
    points = list(range(3, 3 + width))
    scan(f, points)
    assert sorted(calls) == [(x, y) for x in points for y in points]
    assert wrapped_calls == []
