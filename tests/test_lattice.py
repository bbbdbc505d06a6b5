import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import clonelab
from clonelab import finite
from clonelab.finite import (
    Carrier,
    OpSet,
    OpTable,
    RelationTable,
    ResourceLimitError,
    all_op_tables,
    clone_closure,
    conjugate,
    format_ops,
    op_space_size,
    pol,
)
from clonelab.ideals import PrincipalIdeal, preserves_ideal
from clonelab.lattice import precompleteness_evidence, unary_interval_chain

C2 = Carrier(2)
C3 = Carrier(3)


def zero_preserving_ops():
    ideal = PrincipalIdeal(C2, 1)
    return [
        f for n in (1, 2) for f in all_op_tables(C2, n) if preserves_ideal(f, ideal)
    ]


class TestPrecompleteness:
    def test_zero_preserving_is_maximal_evidence(self):
        verdict = precompleteness_evidence(zero_preserving_ops(), C2, 2, 3)
        assert verdict.kind == "precomplete-evidence"

    def test_everything_is_improper(self):
        gens = [f for n in (1, 2) for f in all_op_tables(C2, n)]
        assert precompleteness_evidence(gens, C2, 2, 3).kind == "improper"

    def test_projections_only_not_maximal(self):
        verdict = precompleteness_evidence([], C2, 2, 3)
        assert verdict.kind == "not-maximal"
        assert verdict.witness is not None
        # the reported witness genuinely fails to regenerate everything
        from clonelab.finite import clone_closure

        grown = clone_closure([verdict.witness], C2, 3)
        assert grown.counts() != {1: 4, 2: 16, 3: 256}

    def test_caps_inverted(self):
        with pytest.raises(ValueError):
            precompleteness_evidence([], C2, 2, 2)

    def test_generator_above_the_working_cap(self):
        with pytest.raises(ValueError):
            precompleteness_evidence([OpTable(C2, 4, (0,) * 16)], C2, 2, 3)

    def test_candidate_budget(self, monkeypatch):
        # the constant 0 is a unary witness: no binary or ternary candidate
        # (3^27 of them at cap 3) is enumerated before the answer
        start = time.perf_counter()
        verdict = precompleteness_evidence([], C3, 3, 4)
        assert time.perf_counter() - start < 5
        assert (verdict.kind, verdict.witness.table) == ("not-maximal", (0, 0, 0))
        monkeypatch.setattr(finite, "_MAX_CANDIDATES", 27)
        assert precompleteness_evidence([], C3, 3, 4).witness.table == (0, 0, 0)
        # every unary operation is a member, so the 27 + 3^9 candidates of
        # arity <= 2 come next, and they exceed the budget
        with pytest.raises(ResourceLimitError):
            precompleteness_evidence(list(all_op_tables(C3, 1)), C3, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_closure_at_the_working_cap(self, data):
        # carrier 2 at cap 2 (generators up to arity 3, the working cap) and
        # carrier 3 at cap 1; generators are often drawn to preserve a chosen
        # subset, so every verdict kind turns up
        k, cap = data.draw(st.sampled_from([(2, 2), (3, 1)]))
        carrier = Carrier(k)
        chosen = data.draw(st.sets(st.integers(0, k - 1), max_size=k - 1))
        gens = []
        for _ in range(data.draw(st.integers(0, 4))):
            m = data.draw(st.integers(1, cap + 1 if k == 2 else cap))
            table = data.draw(st.lists(st.integers(0, k - 1), min_size=k**m, max_size=k**m))
            for i, t in enumerate(carrier.tuples(m)):
                if chosen and set(t) <= chosen and table[i] not in chosen:
                    table[i] = min(chosen)
            gens.append(OpTable(carrier, m, tuple(table)))
        got = precompleteness_evidence(gens, carrier, cap, cap + 1)
        assert (got.kind, got.witness) == _reference_evidence(gens, carrier, cap, cap + 1)

    def test_wide_working_cap_builds_no_wide_slice(self):
        # <AND, XOR> is Pol{0}, a maximal clone; a closure at working cap 5
        # would fill 2^31 tables, so a regression fails here instead of hanging
        code = (
            "from clonelab.finite import Carrier, OpTable\n"
            "from clonelab.lattice import precompleteness_evidence\n"
            "c2 = Carrier(2)\n"
            "gens = [OpTable(c2, 2, (0, 0, 0, 1)), OpTable(c2, 2, (0, 1, 1, 0))]\n"
            "print(precompleteness_evidence(gens, c2, 2, 5).kind)\n"
        )
        src = str(Path(clonelab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "precomplete-evidence"


    def test_candidates_meet_the_kept_relations_once(self, tmp_path):
        # Pol at cap 2 of the graph of x + 1 (3 unary and 27 binary
        # operations) lies in one maximal clone: its 19,656 binary
        # non-members are checked against that relation in one stack, then
        # the ternary candidates of arity 3 exceed the budget (exit 3)
        shift = RelationTable(C3, 2, frozenset((x, (x + 1) % 3) for x in range(3)))
        gens = list(pol(shift, 2))
        assert len(gens) == 30
        path = tmp_path / "gens.ops"
        path.write_text(format_ops([(f"g{i}", g) for i, g in enumerate(gens)]))
        src = str(Path(clonelab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "clonelab.cli", "precomplete", "--carrier", "3", "--cap", "3",
             "--working-cap", "4", "--gens", str(path)],
            capture_output=True, text=True, timeout=20, env=env,
        )
        assert proc.returncode == 3, proc.stderr
        assert "budget" in json.loads(proc.stdout)["error"]

def _reference_evidence(gens, carrier, arity_cap, working_cap):
    """(kind, witness) from whole closures at the working cap, checking every
    slice up to arity_cap for fullness."""

    def everything(closure):
        counts = closure.counts()
        return all(counts[n] == op_space_size(carrier, n) for n in range(1, arity_cap + 1))

    base = clone_closure(gens, carrier, working_cap)
    if everything(base):
        return "improper", None
    for n in range(1, arity_cap + 1):
        for f in all_op_tables(carrier, n):
            if f not in base and not everything(clone_closure(gens + [f], carrier, working_cap)):
                return "not-maximal", f
    return "precomplete-evidence", None


class TestUnaryIntervalChain:
    def test_carrier2_is_a_three_chain(self):
        report = unary_interval_chain(C2, 2, 3)
        assert report.count == 3
        assert report.is_chain

    def test_bottom_clone_is_essentially_unary(self):
        report = unary_interval_chain(C2, 2, 3)
        assert len(report.clones[0].slice(2)) == 6

    def test_middle_clone_membership(self):
        report = unary_interval_chain(C2, 2, 3)
        middle = report.clones[1]
        xor = OpTable(C2, 2, (0, 1, 1, 0))
        conj = OpTable(C2, 2, (0, 0, 0, 1))
        assert xor in middle
        assert conj not in middle

    def test_middle_clone_is_exactly_the_affine_ops(self):
        # oracle: mod-2 affine tables c0 + sum of a coefficient-selected
        # subset of arguments, enumerated directly
        import itertools

        report = unary_interval_chain(C2, 2, 3)
        middle = report.clones[1]
        for arity in (2, 3):
            affine = set()
            for coeffs in itertools.product((0, 1), repeat=arity + 1):
                table = tuple(
                    (coeffs[0] + sum(c * x for c, x in zip(coeffs[1:], args))) % 2
                    for args in C2.tuples(arity)
                )
                affine.add(table)
            assert {op.table for op in middle.slice(arity)} == affine

    def test_distinctness_survives_the_working_cap(self):
        # the bottom and middle clone only differ at arity >= 2 here; make
        # sure the working-cap slices actually separate all three
        report = unary_interval_chain(C2, 2, 3)
        signatures = {c.signature() for c in report.clones}
        assert len(signatures) == 3

    def test_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            unary_interval_chain(Carrier(3), 2, 3)

    @pytest.mark.parametrize("carrier, cap, working_cap, sizes, digest", [
        (C2, 2, 3, [18, 28, 276], "22d9ab7296d8b9aa"),
        (C2, 1, 3, [18], "151222343ea80dfe"),
        (C3, 1, 2, [78], "d00f8ea0a5cad03b"),
    ], ids=["C2-2-3", "C2-1-3", "C3-1-2"])
    def test_surveyed_clones_are_pinned(self, carrier, cap, working_cap, sizes, digest):
        # each clone grows from its path's candidates, not from its members;
        # the clones found are those of growing from the members
        clones = unary_interval_chain(carrier, cap, working_cap).clones
        assert [len(c) for c in clones] == sizes
        signatures = repr([c.signature() for c in clones]).encode()
        assert hashlib.sha256(signatures).hexdigest()[:16] == digest

    @pytest.mark.parametrize("carrier, cap, working_cap", [(C2, 2, 3), (C2, 1, 3), (C3, 1, 2)],
                             ids=["C2-2-3", "C2-1-3", "C3-1-2"])
    def test_every_surveyed_clone_equals_its_conjugates(self, carrier, cap, working_cap):
        # t^p = p(t(p^-1 x)) composes t with unary members, so the survey
        # needs no conjugates of the clones it finds
        for clone in unary_interval_chain(carrier, cap, working_cap).clones:
            for perm in itertools.permutations(range(carrier.size)):
                assert OpSet(carrier, working_cap, [conjugate(op, perm) for op in clone]) == clone
