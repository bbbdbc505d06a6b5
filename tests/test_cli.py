import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clonelab
from clonelab.cli import main
from clonelab.finite import Carrier, OpTable, RelationTable, format_ops, format_relations


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_cli_raw(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_cli_child(*argv, timeout):
    """The CLI in a child process, so a hang fails the test instead of stalling it."""
    src = str(Path(clonelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "clonelab.cli", *argv],
                          capture_output=True, text=True, timeout=timeout, env=env)


def strip_meta(report):
    report = dict(report)
    report.pop("meta", None)
    return report


class TestExitCodes:
    def test_chain_reports_three_clones(self, capsys):
        code, report = run_cli(capsys, "chain", "--carrier", "2", "--cap", "2")
        assert code == 0
        assert report["clone_count"] == 3
        assert report["chain"] is True

    def test_computed_negative_is_still_success(self, capsys):
        code, report = run_cli(capsys, "ramsey", "--n", "5", "--m", "3", "--r", "2", "--c", "2")
        assert code == 0
        assert report["verdict"] is False

    def test_missing_generator_file_is_usage_error(self, capsys):
        code, report = run_cli(capsys, "closure", "--carrier", "2", "--cap", "2",
                               "--gens", "missing.ops")
        assert code == 2
        assert "error" in report

    def test_unknown_suite_is_usage_error(self, capsys):
        code = main(["suite", "nope"])
        capsys.readouterr()
        assert code == 2

    def test_empty_coloring_file_is_usage_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, report = run_cli(capsys, "prtest", "--coloring", f"file:{empty}", "--mu", "2",
                               "--blocks", "0,1;2,3", "--c0", "0")
        assert code == 2
        assert "no header line" in report["error"]

    def test_out_into_a_missing_directory_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "nodir" / "r.json"
        code, report = run_cli(capsys, "--out", str(out),
                               "ramsey", "--n", "3", "--m", "2", "--r", "2", "--c", "2")
        assert code == 2
        assert "output directory not found" in report["error"]
        assert not out.parent.exists()

    def test_out_naming_a_directory_is_usage_error(self, capsys, tmp_path):
        code, report = run_cli(capsys, "--out", str(tmp_path),
                               "ramsey", "--n", "3", "--m", "2", "--r", "2", "--c", "2")
        assert code == 2
        assert "is a directory" in report["error"]
        assert "verdict" not in report
        assert list(tmp_path.iterdir()) == []

    def test_full_is_not_a_suite(self, capsys):
        # "full" was an alias of "acceptance"; only the two batteries remain
        code = main(["suite", "full"])
        capsys.readouterr()
        assert code == 2

    def test_resource_limit_exit(self, capsys):
        code, report = run_cli(capsys, "ramsey", "--n", "30", "--m", "4", "--r", "2", "--c", "2")
        assert code == 3
        assert "error" in report

    def test_chain_budget_exit(self, capsys):
        code, _ = run_cli(capsys, "chain", "--carrier", "3", "--cap", "2")
        assert code == 3

    def test_closure_table_budget_exit(self, capsys, tmp_path, monkeypatch):
        import clonelab.finite as finite

        path = tmp_path / "gens.ops"
        path.write_text(format_ops([("nand", OpTable(Carrier(2), 2, (1, 1, 1, 0)))]))
        monkeypatch.setattr(finite, "_MAX_TABLES", 100)
        code, report = run_cli(capsys, "closure", "--carrier", "2", "--cap", "3",
                               "--gens", str(path))
        assert code == 3
        assert "error" in report

    def test_inconclusive_reduction_exit(self, capsys):
        # zero or one probe point cannot classify a map
        for budget in ("0", "1"):
            code, report = run_cli(capsys, "terms", "--term", "(u:succ x)", "--partial-eval",
                                   "--budget", budget)
            assert code == 3
            assert "error" in report

    @pytest.mark.parametrize("term", ["x", "(u:succ x)"])
    def test_negative_budget_is_a_usage_error(self, capsys, term):
        code, report = run_cli(capsys, "terms", "--term", term, "--partial-eval", "--budget", "-5")
        assert code == 2
        assert report["error"] == "probe_budget must be >= 0, got -5"


class TestFileDriven:
    def test_closure_from_ops_file(self, capsys, tmp_path):
        nand = OpTable(Carrier(2), 2, (1, 1, 1, 0))
        path = tmp_path / "gens.ops"
        path.write_text(format_ops([("nand", nand)]))
        code, report = run_cli(capsys, "closure", "--carrier", "2", "--cap", "2",
                               "--gens", str(path))
        assert code == 0
        assert report["counts_by_arity"] == {"1": 4, "2": 16}

    def test_full_closure_at_cap_4(self, tmp_path):
        # every slice of <NAND> is full, so the 65536-table arity-4 slice is
        # listed from the maximal clones; a regression to a fill fails here
        # instead of stalling
        path = tmp_path / "gens.ops"
        path.write_text(format_ops([("nand", OpTable(Carrier(2), 2, (1, 1, 1, 0)))]))
        proc = run_cli_child("closure", "--carrier", "2", "--cap", "4", "--gens", str(path),
                             timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["counts_by_arity"] == {"1": 4, "2": 16, "3": 256, "4": 65536}

    def test_closure_counts_match_clone_closure(self, capsys, tmp_path, monkeypatch):
        # the command counts the slices without building an OpTable per table;
        # its counts are those of the OpSet clone_closure builds
        from clonelab.finite import clone_closure

        gens = [OpTable(Carrier(2), 2, (0, 0, 0, 1))]
        path = tmp_path / "gens.ops"
        path.write_text(format_ops([("and", gens[0])]))
        closed = clone_closure(gens, Carrier(2), 3, include_all_unary=True)
        built = [0]
        post_init = OpTable.__post_init__

        def counted(self):
            built[0] += 1
            post_init(self)

        monkeypatch.setattr(OpTable, "__post_init__", counted)
        code, report = run_cli(capsys, "closure", "--carrier", "2", "--cap", "3",
                               "--gens", str(path), "--include-all-unary")
        assert code == 0
        assert report["counts_by_arity"] == {str(n): c for n, c in closed.counts().items()}
        assert report["total"] == len(closed) == 4 + 16 + 256
        # the parsed generator and the unary operations each slice adds
        assert built[0] < len(closed)

    def test_closure_generator_above_the_cap_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "gens.ops"
        path.write_text(format_ops([("and", OpTable(Carrier(2), 2, (0, 0, 0, 1)))]))
        code, report = run_cli(capsys, "closure", "--carrier", "2", "--cap", "1",
                               "--gens", str(path))
        assert code == 2
        assert report["error"] == "arity cap 1 below generator arity 2"

    @pytest.mark.parametrize("argv, error", [
        (["closure", "--carrier", "2", "--cap", "0"], "arity cap must be >= 1, got 0"),
        (["closure", "--carrier", "2", "--cap", "-1"], "arity cap must be >= 1, got -1"),
        (["chain", "--carrier", "2", "--cap", "0"], "arity_cap must be >= 1, got 0"),
        # a file with no relation: only the command itself sees the cap
        (["pol", "--rel", os.devnull, "--cap", "0"], "arity cap must be >= 1, got 0"),
    ], ids=["closure", "closure-negative", "chain", "pol"])
    def test_cap_below_1_is_usage_error(self, capsys, argv, error):
        code, report = run_cli(capsys, *argv)
        assert code == 2
        assert report["error"] == error

    def test_closure_carrier_above_a_byte_is_usage_error(self, capsys, tmp_path):
        # 300 values overflowed the byte tables: a traceback and exit 1
        shift = OpTable(Carrier(300), 1, tuple((x + 1) % 300 for x in range(300)))
        path = tmp_path / "gens.ops"
        path.write_text(format_ops([("shift", shift)]))
        code, report = run_cli(capsys, "closure", "--carrier", "300", "--cap", "1",
                               "--gens", str(path))
        assert code == 2
        assert report["error"] == "carrier size 300 above 256: table entries are bytes"

    def test_pol_from_relation_file(self, capsys, tmp_path):
        rel = RelationTable.unary(Carrier(2), {0})
        path = tmp_path / "rels.rel"
        path.write_text(format_relations([("zero", rel)]))
        code, report = run_cli(capsys, "pol", "--rel", str(path), "--cap", "2")
        assert code == 0
        assert report["relations"]["zero"] == {"1": 2, "2": 8}

    def test_pol_of_an_empty_relation(self, capsys, tmp_path):
        # a header with no tuples: every operation preserves the empty relation
        path = tmp_path / "rels.rel"
        path.write_text("rel e carrier=2 width=2\n")
        code, report = run_cli(capsys, "pol", "--rel", str(path), "--cap", "2")
        assert code == 0
        assert report["relations"]["e"] == {"1": 4, "2": 16}

    def test_ci_membership_verdicts(self, capsys, tmp_path):
        c3 = Carrier(3)
        ops = [
            ("max", OpTable.from_fn(c3, 2, max)),
            ("const2", OpTable(c3, 2, (2,) * 9)),
        ]
        path = tmp_path / "ops.ops"
        path.write_text(format_ops(ops))
        code, report = run_cli(capsys, "ci", "--carrier", "3", "--exclude", "2",
                               "--ops", str(path))
        assert code == 0
        assert report["verdicts"] == {"max": True, "const2": False}


class TestPrecompleteCommand:
    def _gens_file(self, tmp_path, named):
        path = tmp_path / "gens.ops"
        path.write_text(format_ops(named))
        return str(path)

    def test_gens_file(self, capsys, tmp_path):
        c2 = Carrier(2)
        path = self._gens_file(tmp_path, [("and", OpTable(c2, 2, (0, 0, 0, 1))),
                                          ("xor", OpTable(c2, 2, (0, 1, 1, 0)))])
        code, report = run_cli(capsys, "precomplete", "--carrier", "2", "--cap", "2",
                               "--working-cap", "3", "--gens", path)
        assert code == 0
        assert report["verdict"] == "precomplete-evidence"
        assert report["parameters"] == {"carrier": 2, "cap": 2, "working_cap": 3, "generators": 2}
        assert "witness" not in report

    def test_gens_file_at_cap_3(self, tmp_path):
        # <AND, XOR> is Pol{0}, a maximal clone: one fullness question at the
        # cap per candidate outside it, each answered from the maximal clones;
        # a regression to slice fills fails here instead of hanging
        c2 = Carrier(2)
        path = self._gens_file(tmp_path, [("and", OpTable(c2, 2, (0, 0, 0, 1))),
                                          ("xor", OpTable(c2, 2, (0, 1, 1, 0)))])
        proc = run_cli_child("precomplete", "--carrier", "2", "--cap", "3",
                             "--working-cap", "4", "--gens", path, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verdict"] == "precomplete-evidence"

    def test_ci_exclude_past_the_candidate_budget_exits_at_once(self):
        # the ideal clone's generators come from pol, whose budget refuses the
        # 3^27 ternary tables of carrier 3 instead of enumerating them
        proc = run_cli_child("precomplete", "--carrier", "3", "--cap", "3", "--working-cap", "4",
                             "--ci-exclude", "2", timeout=20)
        assert proc.returncode == 3, proc.stderr
        assert "budget" in json.loads(proc.stdout)["error"]

    def test_gens_file_witness(self, capsys, tmp_path):
        # <AND> lacks the constant 0, and <AND, 0> still preserves {0}
        path = self._gens_file(tmp_path, [("and", OpTable(Carrier(2), 2, (0, 0, 0, 1)))])
        code, report = run_cli(capsys, "precomplete", "--carrier", "2", "--cap", "2",
                               "--working-cap", "3", "--gens", path)
        assert code == 0
        assert report["verdict"] == "not-maximal"
        assert report["witness"] == {"arity": 1, "table": [0, 0]}

    def test_ci_exclude(self, capsys):
        # the operations of arity <= 2 fixing 0: 2 unary and 8 binary
        code, report = run_cli(capsys, "precomplete", "--carrier", "2", "--cap", "2",
                               "--working-cap", "3", "--ci-exclude", "1")
        assert code == 0
        assert report["verdict"] == "precomplete-evidence"
        assert report["parameters"]["generators"] == 10

    def test_needs_generators(self, capsys):
        code, report = run_cli(capsys, "precomplete", "--carrier", "2", "--cap", "2",
                               "--working-cap", "3")
        assert code == 2
        assert "error" in report


class TestPairingCommand:
    def test_two_sided_injective(self, capsys):
        code, report = run_cli(capsys, "pairing", "--which", "two-sided",
                               "--box", "0..48:offdiag")
        assert code == 0
        assert report["verdict"] == "injective"

    def test_recovered_identity_boxes(self, capsys):
        code, report = run_cli(capsys, "pairing", "--which", "recovered",
                               "--box", "1..32:offdiag")
        assert code == 0
        assert report["verdict"] == "injective"

    @pytest.mark.parametrize("which", ["nested", "split-merge"])
    def test_default_box_injective(self, capsys, which):
        code, report = run_cli(capsys, "pairing", "--which", which)
        assert code == 0
        assert strip_meta(report) == {
            "experiment": "pairing", "parameters": {"which": which, "box": "0..64:offdiag"},
            "verdict": "injective", "seed": 917}

    def test_two_sided_collides_on_the_diagonal(self, capsys):
        code, report = run_cli(capsys, "pairing", "--which", "two-sided", "--box", "0..16:full")
        assert code == 1
        assert report["verdict"] == "collision"
        assert report["witness"] == [[0, 0], [1, 1]]


class TestCombinatoricsCommands:
    def test_prtest_finds_a_constant_rectangle(self, capsys):
        code, report = run_cli(capsys, "prtest", "--mu", "4", "--blocks", "1,2;0,4;8,12",
                               "--c0", "0")
        assert code == 0
        assert strip_meta(report) == {
            "experiment": "anti-ramsey-search",
            "parameters": {"coloring": "sum4", "mu": 4, "blocks": "1,2;0,4;8,12", "c0": 0},
            "found": [1, 2], "note": "Pr-witness: assumed, not certified", "seed": 917}


class TestCanonicalCommand:
    def test_not_canonical_report(self, capsys):
        code, report = run_cli(capsys, "canonical", "--fn", "pair", "--base", "-2", "--points", "5")
        assert code == 0
        assert strip_meta(report) == {
            "experiment": "canonical",
            "parameters": {"fn": "pair", "sample_base": -2, "points": 5},
            "verdict": "not-canonical", "witness": [[-8, -2, -8, 1], [-8, -2, -8, 16]],
            "seed": 917}


class TestTermsCommand:
    def test_eval_and_reduce(self, capsys):
        code, report = run_cli(
            capsys, "terms", "--term", "(b:max (u:succ x) y)", "--eval", "3", "9",
            "--partial-eval", "--set", "all",
        )
        assert code == 0
        assert report["value"] == 9
        assert report["reduction"]["kind"] in ("unary-x", "unary-y", "constant", "undefined")

    def test_gated_cross_term_reduces_to_zero(self, capsys):
        code, report = run_cli(
            capsys, "terms", "--term", "(b:gateB (u:succ x) (u:double y))",
            "--partial-eval", "--gate-b", "2,3", "--coloring", "sum", "--mu", "4",
        )
        assert code == 0
        assert report["reduction"] == {"kind": "constant", "value": 0, "reason": None, "path": None}

    def test_search_positive_and_negative(self, capsys):
        code, report = run_cli(
            capsys, "terms", "--search", "recovered", "--gate-a", "0,1",
            "--gate-b", "2,3", "--depth", "2", "--box", "1..16:full",
        )
        assert code == 0
        assert report["found"] == "(b:gateA (b:gateA x y) (b:gateB x y))"
        code, report = run_cli(
            capsys, "terms", "--search", "gate-a", "--gate-a", "0,1",
            "--gate-b", "2,3", "--depth", "2", "--box", "1..16:full",
        )
        assert code == 0
        assert report["found"] is None
        assert len(report["frontier_sizes"]) == 3

    def test_search_at_a_negative_depth_is_usage_error(self, capsys):
        code, report = run_cli(
            capsys, "terms", "--search", "gate-a", "--gate-a", "0,1",
            "--gate-b", "2,3", "--depth", "-1", "--box", "1..16:full",
        )
        assert code == 2
        assert "max_depth" in report["error"]
        assert "found" not in report

    def test_search_past_the_candidate_budget_exits_3(self):
        # depth 3 on the default box 1..24 gives per_depth (2, 4, 32, 1377), so
        # depth 4 would meet 2 * 1377 + 2 * 1377 * 38 + 1377 ** 2 candidates
        proc = run_cli_child("terms", "--search", "gate-a", "--gate-a", "0,1",
                             "--gate-b", "2,3", "--depth", "4", timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "level 4 has 2003535 candidates" in json.loads(proc.stdout)["error"]

    def test_search_requires_gates(self, capsys):
        code, report = run_cli(capsys, "terms", "--search", "recovered")
        assert code == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("chain", "--carrier", "2", "--cap", "2"),
            ("ramsey", "--n", "6", "--m", "3", "--r", "2", "--c", "2"),
            ("canonical", "--fn", "max"),
            ("indep", "--m", "3", "--q", "4"),
        ],
    )
    def test_identical_runs_identical_reports(self, capsys, argv):
        # byte-identical up to the meta block, which holds timestamp/runtime
        code1, first = run_cli_raw(capsys, *argv)
        code2, second = run_cli_raw(capsys, *argv)
        assert code1 == code2

        def drop_meta(text):
            report = json.loads(text)
            report.pop("meta")
            return json.dumps(report, indent=2)

        assert drop_meta(first) == drop_meta(second)

    def test_seed_echoed(self, capsys):
        _, report = run_cli(capsys, "--seed", "123", "indep", "--m", "2", "--q", "3")
        assert report["seed"] == 123

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["--out", str(out), "ramsey", "--n", "3", "--m", "2", "--r", "1", "--c", "2"])
        stdout = capsys.readouterr().out
        assert code == 0
        assert out.read_text() == stdout


class TestSuiteCommand:
    def test_fast_suite_green(self, capsys):
        code, report = run_cli(capsys, "suite", "fast")
        assert code == 0
        assert report["passed"] is True
        assert len(report["criteria"]) >= 6

    def test_mutation_in_composition_trips_the_battery(self, capsys, monkeypatch):
        # swap the router's selector and value arguments: the decomposition
        # identity must notice
        import clonelab.ideals as ideals
        from clonelab.finite import compose as real_compose

        def swapped(g, fs):
            if len(fs) == 3:
                fs = [fs[1], fs[0], fs[2]]
            return real_compose(g, fs)

        monkeypatch.setattr(ideals, "compose", swapped)
        from clonelab.suites import criterion_decomposition

        assert criterion_decomposition().passed is False
