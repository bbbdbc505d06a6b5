import itertools
import random

import pytest

from clonelab.finite import Carrier, OpTable, RelationTable, all_op_tables, compose, pol, respects
from clonelab.ideals import (
    DegenerateWitnessError,
    PrincipalIdeal,
    decompose_with,
    preserves_ideal,
    reconstructs_ideal,
)

C2 = Carrier(2)
C3 = Carrier(3)
IDEAL2 = PrincipalIdeal(C2, 1)
IDEAL3 = PrincipalIdeal(C3, 2)

MAX3 = OpTable.from_fn(C3, 2, max)
CONST2 = OpTable(C3, 2, (2,) * 9)
ADD3 = OpTable.from_fn(C3, 2, lambda x, y: (x + y) % 3)
NOT = OpTable(C2, 1, (1, 0))


class TestMembership:
    def test_max_preserves(self):
        assert preserves_ideal(MAX3, IDEAL3)

    def test_constant_excluded_point_fails(self):
        assert not preserves_ideal(CONST2, IDEAL3)

    def test_modular_sum_fails(self):
        # f(1,1) = 2 escapes every set avoiding 2
        assert not preserves_ideal(ADD3, IDEAL3)

    def test_matches_unary_relation_route(self):
        # same predicate through the relation machinery: both code paths agree
        rel = RelationTable.unary(C3, {0, 1})
        for f in itertools.chain(all_op_tables(C3, 1), [MAX3, CONST2, ADD3]):
            assert preserves_ideal(f, IDEAL3) == respects(f, rel)

    def test_carrier2_members_are_zero_preserving(self):
        for f in all_op_tables(C2, 2):
            assert preserves_ideal(f, IDEAL2) == (f(0, 0) == 0)

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_pol_of_the_relation(self, k):
        # the largest member alone decides, on every operation of arity <= 2
        carrier = Carrier(k)
        for excluded in range(k):
            ideal = PrincipalIdeal(carrier, excluded)
            assert ideal.relation().tuples == {(x,) for x in range(k) if x != excluded}
            clone = pol(ideal.relation(), 2)
            for n in (1, 2):
                kept = [f for f in all_op_tables(carrier, n) if preserves_ideal(f, ideal)]
                assert kept == list(clone.slice(n))

    def test_carrier_mismatch_rejected(self):
        with pytest.raises(ValueError, match="carrier mismatch"):
            preserves_ideal(NOT, IDEAL3)


class TestDecomposition:
    def test_two_element_carrier_with_negation_all_binary_targets(self):
        for g in all_op_tables(C2, 2):
            cert = decompose_with(g, NOT, IDEAL2)
            assert cert.verified
            # identity re-checked here against raw evaluation
            for t in C2.tuples(2):
                assert g(*t) == cert.h(cert.chi(*t), cert.g0(*t), cert.g1(*t))

    def test_construction_unconditional_in_g(self):
        inside = OpTable.from_fn(C2, 2, lambda x, y: x & y)  # already preserves
        assert preserves_ideal(inside, IDEAL2)
        assert decompose_with(inside, NOT, IDEAL2).verified

    def test_degenerate_constant_witness(self):
        with pytest.raises(DegenerateWitnessError):
            decompose_with(MAX3, CONST2, IDEAL3)

    def test_witness_must_be_outside(self):
        with pytest.raises(ValueError):
            decompose_with(MAX3, MAX3, IDEAL3)

    def test_certificate_fields(self):
        cert = decompose_with(MAX3, ADD3, IDEAL3)
        assert cert.verified
        assert set(cert.image) >= {2}
        assert cert.b0 != cert.b1
        # router is conservative
        for t in C3.tuples(3):
            assert cert.h(*t) in t
        # selector takes at most two values
        assert len(set(cert.chi.table)) <= 2
        # g1 never reaches the excluded point
        assert 2 not in set(cert.g1.table)
        # g0 factors through the witness: g0 = f(g0')
        assert compose(cert.f, list(cert.g0_prime)).table == cert.g0.table
        # right inverse on the image
        for b in cert.image:
            assert cert.f(*(comp(b) for comp in cert.f_star)) == b

    def test_random_carrier3_certificates(self):
        rng = random.Random(4)
        checked = 0
        while checked < 60:
            fa = rng.choice((1, 2))
            f = OpTable(C3, fa, tuple(rng.randrange(3) for _ in range(3**fa)))
            if preserves_ideal(f, IDEAL3):
                continue
            image = {f(*args) for args in itertools.product((0, 1), repeat=fa)}
            if len(image) < 2:
                continue
            ga = rng.choice((1, 2))
            g = OpTable(C3, ga, tuple(rng.randrange(3) for _ in range(3**ga)))
            assert decompose_with(g, f, IDEAL3).verified
            checked += 1


class TestReconstruction:
    @pytest.mark.parametrize("k,e", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_recovers_for_every_excluded_point(self, k, e):
        assert reconstructs_ideal(PrincipalIdeal(Carrier(k), e))

    def test_budget_guard(self):
        from clonelab.finite import ResourceLimitError

        with pytest.raises(ResourceLimitError):
            reconstructs_ideal(PrincipalIdeal(Carrier(5), 0))
