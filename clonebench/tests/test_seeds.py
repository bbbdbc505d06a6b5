"""Seed handling and the benchmark's command-line contract."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import jobs
import run
from spans import Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def probe(workload, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, env=env, check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_seed_fixes_inputs_and_answers(workload):
    first = probe(workload, 5, hash_seed=1)
    assert probe(workload, 5, hash_seed=2) == first
    other = probe(workload, 6, hash_seed=1)
    assert other["job_list_digest"] != first["job_list_digest"]
    assert other["answers_digest"] == first["answers_digest"]


CHEAP_KINDS = {"carrier2", "precomplete", "decompose", "canonical", "almost-unary",
               "refuted", "combinatorics", "reduce-terms"}


def verdict_digest(workload, seed):
    tracer = Tracer(False)
    summaries = []
    for job in jobs.build(workload, seed, tracer):
        if job.kind in CHEAP_KINDS:
            verdict = job.run(tracer, {})
            assert job.check(verdict, {}, jobs.Counter()), job.jid
            summaries.append((job.jid, jobs.summarize(verdict)))
    assert summaries
    return jobs.digest(summaries)


@pytest.mark.parametrize("workload", ["regen", "box-terms"])
def test_verdicts_repeat_for_a_seed(workload):
    assert verdict_digest(workload, 5) == verdict_digest(workload, 5)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "regen", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
