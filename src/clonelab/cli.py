"""Batch front-end: run named experiments, emit deterministic JSON reports.

Exit codes: 0 when everything asked for was verified (a computed negative
answer is still a successful run), 1 when a claimed construction was
refuted, 2 on usage errors, 3 when an enumeration budget was exceeded.
Reports are reproducible: identical arguments and seed give identical
bytes except for the meta block, which carries the timestamp and runtime.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import suites
from .combinatorics import (
    BlockSequence,
    anti_ramsey_search,
    builtin_coloring,
    hausdorff_family,
    parse_coloring_table,
    partition_check,
    verify_independent,
)
from .finite import (
    Carrier,
    OpTable,
    ResourceLimitError,
    clone_closure,
    parse_ops,
    parse_relations,
    pol,
)
from .ideals import PrincipalIdeal, preserves_ideal
from .lattice import precompleteness_evidence, unary_interval_chain
from .pairings import (
    InvalidMergeError,
    color_gated_pairing,
    marked_merge,
    nested_pairing,
    recovered_pairing,
    split_merge_pairing,
    two_sided_pairing,
)
from .symbolic import (
    Box,
    ConstructionRefuted,
    SymbolicFn,
    cantor_pairing,
    check_injective_on,
    delta_pairing,
    max_fn,
    min_fn,
    standard_merge,
)
from .terms import (
    InconclusiveError,
    RegistryError,
    bounded_term_search,
    builtin_subset,
    default_registry,
    eval_term,
    format_term,
    parse_term,
    partial_eval,
)

OK, REFUTED, USAGE, LIMIT = 0, 1, 2, 3


class UsageError(ValueError):
    pass


def _emit(report: dict, out: str | None) -> None:
    report = dict(report)
    report["meta"] = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "runtime_s": round(report.pop("_runtime", 0.0), 3),
    }
    text = json.dumps(report, indent=2, default=str) + "\n"
    if out:
        Path(out).write_text(text)
    sys.stdout.write(text)


def _load_ops(path: str) -> list[tuple[str, OpTable]]:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"operation file not found: {path}")
    return parse_ops(p.read_text())


def _coloring(spec: str, mu: int):
    if spec.startswith("file:"):
        p = Path(spec[5:])
        if not p.exists():
            raise UsageError(f"coloring file not found: {p}")
        return parse_coloring_table(p.read_text())
    try:
        return builtin_coloring(spec, mu)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_colors(text: str) -> frozenset[int]:
    try:
        return frozenset(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise UsageError(f"bad color list {text!r}; expected e.g. 0,2,5") from None


def _check_cap(cap: int) -> None:
    if cap < 1:
        raise UsageError(f"arity cap must be >= 1, got {cap}")


def cmd_closure(args) -> tuple[int, dict]:
    _check_cap(args.cap)
    carrier = Carrier(args.carrier)
    gens = []
    if args.gens:
        gens = [op for _, op in _load_ops(args.gens)]
    counts = clone_closure(gens, carrier, args.cap, args.include_all_unary).counts()
    return OK, {
        "experiment": "closure",
        "parameters": {
            "carrier": args.carrier,
            "cap": args.cap,
            "include_all_unary": args.include_all_unary,
            "generators": len(gens),
        },
        "counts_by_arity": counts,
        "total": sum(counts.values()),
    }


def cmd_pol(args) -> tuple[int, dict]:
    _check_cap(args.cap)
    p = Path(args.rel)
    if not p.exists():
        raise UsageError(f"relation file not found: {args.rel}")
    rels = parse_relations(p.read_text())
    report = {"experiment": "pol", "parameters": {"rel": args.rel, "cap": args.cap}, "relations": {}}
    for name, rel in rels:
        closed = pol(rel, args.cap)
        report["relations"][name] = closed.counts()
    return OK, report


def cmd_ci(args) -> tuple[int, dict]:
    carrier = Carrier(args.carrier)
    ideal = PrincipalIdeal(carrier, args.exclude)
    verdicts = {}
    for name, op in _load_ops(args.ops):
        verdicts[name] = preserves_ideal(op, ideal)
    return OK, {
        "experiment": "ci-membership",
        "parameters": {"carrier": args.carrier, "excluded": args.exclude, "ops": args.ops},
        "verdicts": verdicts,
        "note": "finite analog: the ideal is principal on a finite carrier",
    }


def cmd_precomplete(args) -> tuple[int, dict]:
    carrier = Carrier(args.carrier)
    if args.gens:
        gens = [op for _, op in _load_ops(args.gens)]
    elif args.ci_exclude is not None:
        gens = list(pol(PrincipalIdeal(carrier, args.ci_exclude).relation(), args.cap))
    else:
        raise UsageError("precomplete needs --gens or --ci-exclude")
    verdict = precompleteness_evidence(gens, carrier, args.cap, args.working_cap)
    report = {
        "experiment": "precomplete",
        "parameters": {
            "carrier": args.carrier,
            "cap": args.cap,
            "working_cap": args.working_cap,
            "generators": len(gens),
        },
        "verdict": verdict.kind,
    }
    if verdict.witness is not None:
        report["witness"] = {"arity": verdict.witness.arity, "table": list(verdict.witness.table)}
    return OK, report


def cmd_chain(args) -> tuple[int, dict]:
    carrier = Carrier(args.carrier)
    report = unary_interval_chain(carrier, args.cap, args.working_cap)
    status = OK if report.is_chain else REFUTED
    return status, {
        "experiment": "unary-interval-chain",
        "parameters": {
            "carrier": args.carrier,
            "cap": args.cap,
            "working_cap": report.working_cap,
        },
        "clone_count": report.count,
        "chain": report.is_chain,
        "sizes": [len(c) for c in report.clones],
        "note": "clone identity means equality of the bounded slices at the working cap",
    }


def cmd_pairing(args) -> tuple[int, dict]:
    pr = cantor_pairing()
    box = Box.parse(args.box)
    try:
        if args.which == "two-sided":
            fn = two_sided_pairing(marked_merge(), pr, check_box=Box(box.lo, box.hi, "offdiag"))
        elif args.which == "nested":
            code = pr.evaluator(2)
            base = SymbolicFn(
                "bump", 2, lambda x, y: max(x, y) + 1 + code(min(x, y), max(x, y))
            )
            fn = nested_pairing(base, box)
        elif args.which == "split-merge":
            below = delta_pairing(pr).evaluator(2)
            base = SymbolicFn("below_t", 2, lambda x, y: below(y, x))
            fn = split_merge_pairing(base, standard_merge(), box)
        elif args.which == "recovered":
            coloring = _coloring(args.coloring, args.mu)
            fn = recovered_pairing(
                _parse_colors(args.colors_a), _parse_colors(args.colors_b), coloring, pr
            )
        else:
            raise UsageError(f"unknown construction {args.which!r}")
    except (ConstructionRefuted, InvalidMergeError) as exc:
        return REFUTED, {
            "experiment": "pairing",
            "parameters": {"which": args.which, "box": args.box},
            "verdict": "construction-refuted",
            "witness": str(exc),
        }
    collision = check_injective_on(fn, box)
    report = {
        "experiment": "pairing",
        "parameters": {"which": args.which, "box": args.box},
        "verdict": "injective" if collision is None else "collision",
    }
    if collision is not None:
        report["witness"] = collision
        return REFUTED, report
    return OK, report


def cmd_terms(args) -> tuple[int, dict]:
    registry = default_registry()
    coloring = _coloring(args.coloring, args.mu)
    pr = cantor_pairing()
    if args.gate_a:
        registry.register(
            color_gated_pairing(_parse_colors(args.gate_a), coloring, pr, name="gateA")
        )
    if args.gate_b:
        registry.register(
            color_gated_pairing(_parse_colors(args.gate_b), coloring, pr, name="gateB")
        )

    if args.search:
        if not (args.gate_a and args.gate_b):
            raise UsageError("--search needs both --gate-a and --gate-b")
        box = Box.parse(args.box)
        if args.search == "recovered":
            # the recombined pairing should be expressible over both gates
            target = recovered_pairing(
                _parse_colors(args.gate_a), _parse_colors(args.gate_b), coloring, pr
            )
            symbols = {"gateA": registry.get_binary("gateA"),
                       "gateB": registry.get_binary("gateB")}
        else:
            # evidence that one gate is not expressible over the other
            target = registry.get_binary("gateA")
            symbols = {"gateB": registry.get_binary("gateB")}
        unary_lib = {"id": registry.get_unary("id"), "succ": registry.get_unary("succ")}
        result = bounded_term_search(target, symbols, unary_lib, args.depth, box)
        return OK, {
            "experiment": "term-search",
            "parameters": {
                "target": args.search,
                "depth": args.depth,
                "box": args.box,
                "gate_a": args.gate_a,
                "gate_b": args.gate_b,
            },
            "found": format_term(result.term) if result.term else None,
            "frontier_sizes": list(result.stats.per_depth),
            "candidates_checked": result.stats.candidates_checked,
            "note": "negative results are depth- and library-bounded evidence",
        }

    if not args.term:
        raise UsageError("terms needs --term (or --search)")
    term = parse_term(args.term)
    report = {
        "experiment": "terms",
        "parameters": {"term": format_term(term), "set": args.set},
    }
    if args.eval:
        x, y = args.eval
        report["value"] = eval_term(term, x, y, registry)
    if args.partial_eval:
        subset = builtin_subset(args.set)
        res = partial_eval(term, subset, registry, probe_budget=args.budget)
        report["reduction"] = {
            "kind": res.kind,
            "value": res.value,
            "reason": res.reason,
            "path": list(res.path) if res.path is not None else None,
        }
    return OK, report


def cmd_canonical(args) -> tuple[int, dict]:
    from . import canonical as canon

    fns = {
        "max": max_fn(),
        "min": min_fn(),
        "pair": cantor_pairing(),
        "pair_below_diag": delta_pairing(),
    }
    if args.fn not in fns:
        raise UsageError(f"unknown function {args.fn!r}; choose from {sorted(fns)}")
    if args.points < 1:
        raise UsageError(f"points must be >= 1, got {args.points}")
    f = fns[args.fn]
    sample = [args.base**i for i in range(args.points)]
    violation = canon.is_canonical(f, sample)
    report = {
        "experiment": "canonical",
        "parameters": {"fn": args.fn, "sample_base": args.base, "points": args.points},
    }
    if violation is not None:
        report["verdict"] = "not-canonical"
        report["witness"] = [list(violation[0]), list(violation[1])]
        return OK, report
    report["verdict"] = "canonical-on-sample"
    report["classification"] = {}
    for region in ("delta", "nabla"):
        shape = canon.classify_on_region(f, region, sample)
        # too few region pairs to separate the shapes: flagged beside the kind
        report["classification"][region] = (
            {"kind": shape.kind, "degenerate": True} if shape.degenerate else shape.kind)
    return OK, report


def cmd_ramsey(args) -> tuple[int, dict]:
    verdict = partition_check(args.n, args.m, args.r, args.c)
    return OK, {
        "experiment": "partition-check",
        "parameters": {"n": args.n, "m": args.m, "r": args.r, "c": args.c},
        "verdict": verdict,
    }


def cmd_prtest(args) -> tuple[int, dict]:
    coloring = _coloring(args.coloring, args.mu)
    blocks = BlockSequence.of(
        *[
            frozenset(int(tok) for tok in blk.split(","))
            for blk in args.blocks.split(";")
        ]
    )
    hit = anti_ramsey_search(coloring, blocks, args.c0)
    return OK, {
        "experiment": "anti-ramsey-search",
        "parameters": {
            "coloring": coloring.name,
            "mu": coloring.mu,
            "blocks": args.blocks,
            "c0": args.c0,
        },
        "found": list(hit) if hit is not None else None,
        "note": "Pr-witness: assumed, not certified",
    }


def cmd_indep(args) -> tuple[int, dict]:
    fam = hausdorff_family(args.m, args.q, width=args.width)
    ok = verify_independent(fam, min(args.width, args.m))
    return (OK if ok else REFUTED), {
        "experiment": "independent-family",
        "parameters": {"m": args.m, "q": args.q, "width": args.width},
        "base_size": len(fam.base),
        "independent": ok,
    }


def cmd_suite(args) -> tuple[int, dict]:
    try:
        results = suites.run_suite(args.name, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    lines = {}
    for r in results:
        lines[f"{r.cid:02d}-{r.name}"] = {
            "passed": r.passed,
            "elapsed_s": round(r.elapsed, 3),
            "details": r.details,
        }
    all_pass = all(r.passed for r in results)
    return (OK if all_pass else REFUTED), {
        "experiment": f"suite-{args.name}",
        "parameters": {"seed": args.seed},
        "passed": all_pass,
        "criteria": lines,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clonelab", description="clone-lattice workbench experiments"
    )
    parser.add_argument("--out", help="also write the JSON report to this path")
    parser.add_argument("--seed", type=int, default=suites.DEFAULT_SEED)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", help="bounded clone closure sizes")
    p.add_argument("--carrier", type=int, required=True)
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--gens", help="operation file with generators")
    p.add_argument("--include-all-unary", action="store_true")
    p.set_defaults(handler=cmd_closure)

    p = sub.add_parser("pol", help="operations preserving relations from a file")
    p.add_argument("--rel", required=True)
    p.add_argument("--cap", type=int, required=True)
    p.set_defaults(handler=cmd_pol)

    p = sub.add_parser("ci", help="ideal-clone membership for ops in a file")
    p.add_argument("--carrier", type=int, required=True)
    p.add_argument("--exclude", type=int, required=True)
    p.add_argument("--ops", required=True)
    p.set_defaults(handler=cmd_ci)

    p = sub.add_parser("precomplete", help="bounded maximality evidence")
    p.add_argument("--carrier", type=int, required=True)
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--working-cap", type=int, required=True)
    p.add_argument("--gens")
    p.add_argument("--ci-exclude", type=int)
    p.set_defaults(handler=cmd_precomplete)

    p = sub.add_parser("chain", help="clones above the full unary clone")
    p.add_argument("--carrier", type=int, required=True)
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--working-cap", type=int)
    p.set_defaults(handler=cmd_chain)

    p = sub.add_parser("pairing", help="verify a pairing construction on a box")
    p.add_argument("--which", required=True,
                   choices=["two-sided", "nested", "split-merge", "recovered"])
    p.add_argument("--box", default="0..64:offdiag")
    p.add_argument("--coloring", default="sum")
    p.add_argument("--mu", type=int, default=8)
    p.add_argument("--colors-a", default="0,1,2,3")
    p.add_argument("--colors-b", default="4,5,6,7")
    p.set_defaults(handler=cmd_pairing)

    p = sub.add_parser("terms", help="evaluate, reduce or search for a term")
    p.add_argument("--term")
    p.add_argument("--eval", nargs=2, type=int, metavar=("X", "Y"))
    p.add_argument("--partial-eval", action="store_true")
    p.add_argument("--set", default="all", help="subset name: all, evens, odds")
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--coloring", default="sum")
    p.add_argument("--mu", type=int, default=4)
    p.add_argument("--gate-a", help="colors for a gateA symbol, e.g. 0,1")
    p.add_argument("--gate-b", help="colors for a gateB symbol, e.g. 2,3")
    p.add_argument("--search", choices=["recovered", "gate-a"],
                   help="search for a term matching the named target on the box")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--box", default="1..24:full")
    p.set_defaults(handler=cmd_terms)

    p = sub.add_parser("canonical", help="canonicity and region classification")
    p.add_argument("--fn", required=True)
    p.add_argument("--base", type=int, default=3)
    p.add_argument("--points", type=int, default=8)
    p.set_defaults(handler=cmd_canonical)

    p = sub.add_parser("ramsey", help="finite partition instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.set_defaults(handler=cmd_ramsey)

    p = sub.add_parser("prtest", help="anti-Ramsey rectangle search")
    p.add_argument("--coloring", default="sum")
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--blocks", required=True, help="e.g. 0,1;2,3;4,5")
    p.add_argument("--c0", type=int, required=True)
    p.set_defaults(handler=cmd_prtest)

    p = sub.add_parser("indep", help="independent family construction check")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--width", type=int, default=3)
    p.set_defaults(handler=cmd_indep)

    p = sub.add_parser("suite", help="run a named battery")
    p.add_argument("name", choices=["acceptance", "fast"])
    p.set_defaults(handler=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    if args.out and not Path(args.out).parent.is_dir():
        _emit({"error": f"output directory not found: {Path(args.out).parent}"}, None)
        return USAGE
    if args.out and Path(args.out).is_dir():
        _emit({"error": f"output path is a directory: {args.out}"}, None)
        return USAGE
    t0 = time.perf_counter()
    try:
        status, report = args.handler(args)
    except (ValueError, RegistryError, ResourceLimitError, InconclusiveError) as exc:
        # UsageError and the input errors of the modules are ValueErrors
        _emit({"error": str(exc), "_runtime": time.perf_counter() - t0}, args.out)
        return LIMIT if isinstance(exc, (ResourceLimitError, InconclusiveError)) else USAGE
    report["seed"] = args.seed
    report["_runtime"] = time.perf_counter() - t0
    _emit(report, args.out)
    return status


if __name__ == "__main__":
    sys.exit(main())
