"""clonelab benchmark: time to a correct verdict on seeded job lists.

Run from the repository root:

    python3 clonebench/run.py --workload regen --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload in turn, each in a fresh process.

One process, one thread, closed loop: the next job starts when the previous
verdict returns.  The fixed job list of the workload is run in whole passes
until at least --seconds have gone by.  Every verdict is checked against a
known answer (see oracles.py) outside the timer.  With --trace 0 the last
line of output is a JSON object with the end-to-end metrics; with --trace 1
it holds the per-layer metrics, and the spans are written to
.clonebench/spans-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 7

END_TO_END = {
    "verdicts_per_s": "1/s",
    "verdict_s.p50": "s",
    "verdict_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: name -> unit.  A layer is a clonelab module; its time is
# the inclusive time of the benchmark's calls into it, as a share of the
# traced run's wall time (bench.traced_s).
PER_LAYER = {
    "finite.closure.narrow.calls": "count",
    "finite.closure.narrow.busy_share": "ratio",
    "finite.closure.narrow.tables": "count",
    "finite.closure.narrow.tables_per_s": "1/s",
    "finite.closure.wide.calls": "count",
    "finite.closure.wide.busy_share": "ratio",
    "finite.closure.wide.tables": "count",
    "finite.closure.wide.tables_per_s": "1/s",
    "finite.closure.full_share": "ratio",
    "finite.reduce.busy_share": "ratio",
    "finite.reduce.kept_ratio": "ratio",
    "finite.pol.calls": "count",
    "finite.pol.busy_share": "ratio",
    "finite.pol.candidates_per_s": "1/s",
    "finite.pol.kept_ratio": "ratio",
    "ideals.preserves.calls": "count",
    "ideals.preserves.busy_share": "ratio",
    "ideals.decompose.calls": "count",
    "ideals.decompose.busy_share": "ratio",
    "lattice.precomplete.calls": "count",
    "lattice.precomplete.busy_share": "ratio",
    "symbolic.injective.calls": "count",
    "symbolic.injective.busy_share": "ratio",
    "symbolic.points": "count",
    "symbolic.points_per_s": "1/s",
    "pairings.build.calls": "count",
    "pairings.build.busy_share": "ratio",
    "pairings.refuted_share": "ratio",
    "almost_unary.calls": "count",
    "almost_unary.busy_share": "ratio",
    "almost_unary.tuples_per_s": "1/s",
    "canonical.calls": "count",
    "canonical.busy_share": "ratio",
    "terms.search.calls": "count",
    "terms.search.busy_share": "ratio",
    "terms.search.candidates": "count",
    "terms.search.distinct_ratio": "ratio",
    "terms.thin.busy_share": "ratio",
    "terms.thin.fn_calls": "count",
    "terms.thin.layers_max": "count",
    "terms.partial_eval.calls": "count",
    "terms.partial_eval.busy_share": "ratio",
    "combinatorics.calls": "count",
    "combinatorics.busy_share": "ratio",
    "bench.check.busy_share": "ratio",
    "bench.self_share": "ratio",
    "bench.traced_s": "s",
    "trace.overhead_share": "ratio",
}

# Job kinds behind the ROADMAP "Baseline at this re-anchor" figures.
BASELINE = {
    "regen": [("reduce_generators 3900 -> core", "reduce"),
              ("six completeness certificates", "certificate"),
              ("certified covers", "cover")],
    "wide-slices": [("Webb binary slice, carrier 3", "webb"),
                    ("<AND, OR> at arity 5", "and-or"),
                    ("NAND at arity 4", "nand")],
    "box-terms": [],
}


def fail(message: str, code: int = 2):
    print(f"clonebench: {message}", file=sys.stderr)
    raise SystemExit(code)


def load_clonelab():
    """Import clonelab from this checkout's src/ and nowhere else."""
    if not (SRC / "clonelab" / "__init__.py").is_file():
        fail(f"no clonelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import clonelab
    if Path(clonelab.__file__).resolve().parent.parent != SRC.resolve():
        fail(f"clonelab imported from {clonelab.__file__}, not from {SRC}")
    return clonelab


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def machine_facts() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def setup_probe_times(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import clonelab and build the job list."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
    return times


def per_layer(tr, counts: Counter, passes: int, traced_s: float,
              check_s: float) -> dict[str, float]:
    """Per-layer metrics.  Counts are per pass of the job list, so they repeat
    exactly however many passes fit in the run; times are shares of the run."""
    busy = tr.busy
    calls = Counter({k: v // passes for k, v in tr.calls.items()}) + tr.setup_calls
    per_pass = Counter({k: v // passes for k, v in counts.items()})
    out = {}
    for layer in ("narrow", "wide"):
        group = f"finite.closure.{layer}"
        out[f"{group}.calls"] = calls[group]
        out[f"{group}.tables"] = per_pass[f"{group}.tables"]
        out[f"{group}.tables_per_s"] = ratio(counts[f"{group}.tables"], busy[group])
    closure_calls = calls["finite.closure.narrow"] + calls["finite.closure.wide"]
    out["finite.closure.full_share"] = ratio(per_pass["finite.closure.full"], closure_calls)
    out["finite.reduce.kept_ratio"] = ratio(counts["finite.reduce.kept"],
                                            counts["finite.reduce.offered"])
    out["finite.pol.calls"] = calls["finite.pol"]
    out["finite.pol.candidates_per_s"] = ratio(counts["finite.pol.candidates"], busy["finite.pol"])
    out["finite.pol.kept_ratio"] = ratio(counts["finite.pol.kept"], counts["finite.pol.candidates"])
    for group in ("ideals.preserves", "ideals.decompose", "lattice.precomplete",
                  "symbolic.injective", "pairings.build", "almost_unary", "canonical",
                  "terms.search", "terms.partial_eval", "combinatorics"):
        out[f"{group}.calls"] = calls[group]
    out["symbolic.points"] = per_pass["symbolic.points"]
    out["symbolic.points_per_s"] = ratio(counts["symbolic.points"], busy["symbolic.injective"])
    out["pairings.refuted_share"] = ratio(per_pass["pairings.refuted"], calls["pairings.build"])
    out["almost_unary.tuples_per_s"] = ratio(counts["almost_unary.tuples"], busy["almost_unary"])
    out["terms.search.candidates"] = per_pass["terms.search.candidates"]
    out["terms.search.distinct_ratio"] = ratio(counts["terms.search.distinct"],
                                               counts["terms.search.candidates"])
    out["terms.thin.fn_calls"] = per_pass["terms.thin.fn_calls"]
    out["terms.thin.layers_max"] = counts["terms.thin.layers_max"]
    for name in PER_LAYER:
        if name.endswith(".busy_share") and not name.startswith("bench."):
            out[name] = ratio(busy[name[: -len(".busy_share")]], traced_s)
    out["bench.check.busy_share"] = ratio(check_s, traced_s)
    out["bench.self_share"] = ratio(tr.self_time(), traced_s)
    out["bench.traced_s"] = traced_s
    out["trace.overhead_share"] = ratio(tr.overhead, traced_s)
    return {name: out[name] for name in PER_LAYER}


def run_passes(joblib, job_list, tr, seconds: float, counts: Counter) -> dict:
    """Run whole passes of the job list until `seconds` have gone by."""
    out = {"times": [], "first_pass": [], "verdicts": [], "failed": [], "check_s": 0.0,
           "passes": 0}
    loop_start = time.perf_counter()
    while out["passes"] == 0 or time.perf_counter() - loop_start < seconds:
        ctx: dict = {}
        for job in job_list:
            sid = tr.open_job(f"{out['passes']}:{job.jid}", job.kind)
            t0 = time.perf_counter()
            try:
                verdict, error = job.run(tr, ctx), None
            except Exception as exc:  # a raised verdict is a failed job, not a crash
                verdict, error = None, exc
            elapsed = time.perf_counter() - t0
            tr.close_job(sid)
            c0 = time.perf_counter()
            ok = False
            if error is None:
                try:
                    ok = bool(job.check(verdict, ctx, counts))
                except Exception as exc:
                    error = exc
            out["check_s"] += time.perf_counter() - c0
            if error is not None:
                print(f"job {job.jid} raised:", file=sys.stderr)
                traceback.print_exception(error, file=sys.stderr)
            if not ok:
                out["failed"].append(job.jid)
            out["times"].append(elapsed)
            if out["passes"] == 0:
                out["first_pass"].append((job.kind, elapsed))
                out["verdicts"].append((job.jid, joblib.summarize(verdict) if ok else "failed"))
        out["passes"] += 1
    return out


def print_summary(args, metrics: dict, units: dict, res: dict, setup_times: list[float]) -> None:
    times, failed = res["times"], res["failed"]
    attempted = len(times)
    p90 = nearest_rank(times, 0.9)
    print(f"workload {args.workload} seed {args.seed}: {attempted} verdicts in "
          f"{res['passes']} pass(es), {len(failed)} failed "
          f"(failed_share {ratio(len(failed), attempted):.4f} of {attempted})")
    notes = {
        "verdict_s.p50": f"  (n={attempted})",
        "verdict_s.p90": f"  (n={attempted}, {sum(1 for t in times if t > p90)} samples above)",
        "setup_s": f"  (median of {len(setup_times)} fresh processes)",
    }
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}{notes.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # pin BLAS/OpenMP pools before clonelab imports numpy; child processes inherit it
    for var in THREAD_VARS:
        os.environ[var] = "1"
    load_clonelab()
    import jobs as joblib
    from spans import Tracer

    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in joblib.WORKLOADS
        ]
        return max(codes)
    if args.workload not in joblib.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from all, {', '.join(joblib.WORKLOADS)}")
    if args.setup_probe:
        job_list = joblib.build(args.workload, args.seed, Tracer(False))
        print(json.dumps({"job_list_digest": joblib.job_list_digest(job_list),
                          "answers_digest": joblib.answers_digest(job_list)}))
        return 0

    setup_times = setup_probe_times(args.workload, args.seed) if args.trace == 0 else []
    tr = Tracer(args.trace == 1)
    counts: Counter = Counter()
    start = time.perf_counter()
    sid = tr.open_job("setup", "setup")
    job_list = joblib.build(args.workload, args.seed, tr)
    tr.close_job(sid)
    res = run_passes(joblib, job_list, tr, args.seconds, counts)
    traced_s = time.perf_counter() - start

    times, failed = res["times"], res["failed"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": res["passes"],
        "jobs_per_pass": len(job_list),
        "job_list_digest": joblib.job_list_digest(job_list),
        "answers_digest": joblib.answers_digest(job_list),
        "verdict_digest": joblib.digest(res["verdicts"]),
        "failed_share": ratio(len(failed), len(times)),
        "failed_jobs": sorted(set(failed)),
        "setup_probes_s": setup_times,
        "machine": machine_facts(),
        "known_failing_not_run": joblib.KNOWN_FAILING,
    }
    if args.trace == 0:
        metrics = {
            "verdicts_per_s": ratio(len(times), sum(times)),
            "verdict_s.p50": nearest_rank(times, 0.5),
            "verdict_s.p90": nearest_rank(times, 0.9),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        metrics = per_layer(tr, counts, res["passes"], traced_s, res["check_s"])
        units = PER_LAYER
        spans_path = ROOT / ".clonebench" / f"spans-{args.workload}-seed{args.seed}.json"
        tr.write(spans_path, meta)
        for label, kind in BASELINE[args.workload]:
            picked = [t for k, t in res["first_pass"] if k == kind]
            print(f"baseline {label}: {sum(picked):.3f} s over {len(picked)} job(s)")
        print(f"spans written to {spans_path.relative_to(ROOT)} ({len(tr.spans)} spans)")

    print_summary(args, metrics, units, res, setup_times)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(times),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
