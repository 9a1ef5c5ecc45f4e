"""Command-line front end.

Subcommands: generate (R-MAT edge lists), ef (Expected Force scores),
centrality (baseline metrics), simulate (SIR replicate batches), analyze
(the four experiment kinds), bench (EF timing sweeps). Every command writes
a JSON manifest next to its output (flags, graph fingerprint, per-phase
timings, worker count, usable cores), enough to re-run it byte-identically;
data outputs are deterministic for a fixed seed. The manifest is written
even when the command fails, with the error recorded; only a command line
that argparse refuses while parsing exits 2 with no manifest.

Exit codes: 0 success, 1 I/O or data error, 2 usage error.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import statistics
import sys
import time
import traceback

import numpy as np

from . import __version__
from .analysis import (
    correlation_report,
    ef_bins,
    immunization_experiment,
    merge_sums,
    seeding_experiment,
    spreading_sums,
    timing_report,
    write_report_csv,
    write_report_ndjson,
)
from .centrality import (
    BETWEENNESS_COST_BUDGET,
    betweenness,
    degree_centrality,
    pagerank,
    write_scores_csv,
)
from .epidemic import GLOBAL_THRESHOLD, SirParams, calibrate, outcome_record, run_replicates, step_cap
from .expected_force import MODES as EF_MODES, ef as compute_ef, write_ef_csv
from .graph import (
    DEFAULT_RMAT_PROBS,
    Graph,
    RmatParams,
    build_graph,
    generate_rmat,
    load_edge_list,
    write_edge_list,
)
from .parallel import usable_cores

_WORKERS_HELP = "worker processes, at most the usable cores (default: $EFGRAPH_WORKERS, else 1)"
_DOMAINS = {  # flag -> (test, rule); NaN fails every comparison, so every test
    "threshold": (lambda v: 0.0 <= v <= 1.0, "be in [0, 1]"),
    "immunize_frac": (lambda v: 0.0 < v < 1.0, "be in (0, 1)"),
    "min_global": (lambda v: v >= 0, "be >= 0"),
    "timeout": (lambda v: v >= 0, "be >= 0"),
    **dict.fromkeys(("avg_degree", "reps", "bins", "scenarios", "repeats", "degrees", "workers"),
                    (lambda v: v >= 1, "be >= 1")),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    usage_error = _check_settings(args)
    manifest = {
        "tool": "efgraph",
        "version": __version__,
        "command": args.command,
        "flags": {key: value for key, value in vars(args).items() if key not in ("func", "command")},
        "workers": getattr(args, "workers", None),
        "cores": usable_cores(),  # caps the processes that --workers may start
        "timings_ms": {},
        "status": "ok",
    }
    if usage_error:
        _record_error(args, manifest, usage_error, "usage")
        _write_manifest(args, manifest)
        return 2
    t0 = time.perf_counter()
    try:
        args.func(args, manifest)
        rc = 0
    except (ValueError, OSError, MemoryError) as exc:  # a bare MemoryError has no message
        _record_error(args, manifest, str(exc) or type(exc).__name__, type(exc).__name__)
        rc = 1
    except Exception as exc:  # still leave a manifest behind, then report the traceback
        _record_error(args, manifest, str(exc), type(exc).__name__)
        traceback.print_exc()
        rc = 1
    manifest["timings_ms"]["total"] = _ms_since(t0)
    _write_manifest(args, manifest)
    return rc


def _check_settings(args: argparse.Namespace) -> str | None:
    """Refuse a flag value outside its _DOMAINS entry or an empty bench list, fill an unset --workers from EFGRAPH_WORKERS; return a usage error, if any."""
    if args.command == "bench" and args.seed < 0:  # bench seeds with --seed + degree, which can hide it
        return f"--seed must be >= 0, got {args.seed}"
    for key, value in vars(args).items():
        flag = "--" + key.replace("_", "-")
        if value == []:  # bench takes lists
            return f"{flag} must list at least one value"
        if key in _DOMAINS and value is not None:  # an unset --timeout or --workers passes
            test, rule = _DOMAINS[key]
            for item in value if isinstance(value, list) else [value]:
                if not test(item):
                    return f"{flag} must {rule}, got {item}"
    if not hasattr(args, "workers") or args.workers is not None:
        return None
    raw = os.environ.get("EFGRAPH_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        return f"EFGRAPH_WORKERS must be a positive integer, got {raw!r}"
    args.workers = workers
    return None


def _record_error(args: argparse.Namespace, manifest: dict, message: str, kind: str) -> None:
    manifest["status"] = "error"
    manifest["error"] = message
    manifest["error_type"] = kind
    print(f"efgraph {args.command}: error: {message}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="efgraph", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"efgraph {__version__}")
    sub = parser.add_subparsers(dest="command")

    graph_flags = argparse.ArgumentParser(add_help=False)
    graph_flags.add_argument("--input", required=True)
    graph_flags.add_argument("--workers", type=int, default=None, help=_WORKERS_HELP)
    sir_flags = argparse.ArgumentParser(add_help=False)
    sir_flags.add_argument("--seed", type=int, default=0)
    sir_flags.add_argument("--r0", type=float, default=1.3)
    sir_flags.add_argument("--recovery-days", type=float, default=3.0)
    sir_flags.add_argument("--beta", type=float, default=None, help="override calibrated beta")
    sir_flags.add_argument("--mu", type=float, default=None, help="override calibrated mu")
    sir_flags.add_argument("--max-steps", type=int, default=None)
    sir_flags.add_argument("--threshold", type=float, default=GLOBAL_THRESHOLD)

    def command(name, func, summary, *parents, output_help=None) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=parents)
        p.add_argument("--output", required=True, help=output_help)
        p.set_defaults(func=func)
        return p

    p = command("generate", cmd_generate, "generate an R-MAT edge-list file")
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--avg-degree", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probs", type=_probs, default=None, help="a,b,c,d quadrant probabilities")

    p = command("ef", cmd_ef, "compute Expected Force scores", graph_flags)
    p.add_argument("--mode", choices=sorted(EF_MODES), default="cluster")

    p = command("centrality", cmd_centrality, "compute a baseline centrality", graph_flags)
    p.add_argument("--metric", choices=["degree", "pagerank", "betweenness"], required=True)
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--budget", type=int, default=BETWEENNESS_COST_BUDGET,
                   help="refuse betweenness when n*m exceeds this without --force")
    p.add_argument("--force", action="store_true")

    p = command("simulate", cmd_simulate, "run SIR replicates, one NDJSON record each", graph_flags, sir_flags)
    p.add_argument("--index", type=int, default=None, help="index case (original id); random if omitted")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--forest-output", default=None, help="also dump parent pairs as CSV")

    p = command("analyze", cmd_analyze, "run one experiment kind, write CSV+NDJSON", graph_flags, sir_flags,
                output_help="output prefix: writes PREFIX.csv and PREFIX.ndjson")
    p.add_argument("--kind", choices=["correlation", "seeding", "immunization", "timing"], required=True)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--scenarios", type=int, default=10)
    p.add_argument("--immunize-frac", type=float, default=0.05)
    p.add_argument("--min-global", type=int, default=100)
    p.add_argument("--with-betweenness", action="store_true",
                   help="include betweenness in the correlation report (O(n*m))")

    p = command("bench", cmd_bench, "EF timing sweep over degrees/workers/modes")
    p.add_argument("--scale", type=int, default=12)
    p.add_argument("--degrees", type=_int_list, default=[2, 4, 8, 16])
    p.add_argument("--workers", type=_int_list, default=[1])
    p.add_argument("--modes", type=_mode_list, default=["cluster"])
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=None, help="seconds; abort remaining cells")
    return parser


def _probs(text: str) -> tuple[float, ...]:
    parts = tuple(float(t) for t in text.split(","))
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected 4 comma-separated probabilities")
    return parts


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _mode_list(text: str) -> list[str]:
    modes = [t.strip() for t in text.split(",") if t.strip()]
    for t in modes:
        if t not in EF_MODES:
            raise argparse.ArgumentTypeError(f"unknown mode {t!r}")
    return modes


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


@contextlib.contextmanager
def _phase(manifest: dict, name: str):
    """Record the block's wall time as timings_ms[name] if it succeeds, else name the innermost failed phase."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        manifest.setdefault("failed_phase", name)
        raise
    manifest["timings_ms"][name] = _ms_since(t0)


def _write_manifest(args: argparse.Namespace, manifest: dict) -> None:
    output = getattr(args, "output", None)
    if output is None:
        return
    path = f"{output}.manifest.json"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, default=str)
            fh.write("\n")
    except OSError as exc:  # manifest failures must not mask the command result
        print(f"efgraph: could not write manifest {path}: {exc}", file=sys.stderr)


def _fingerprint(g: Graph) -> dict:
    digest = hashlib.sha256()
    digest.update(np.int64([g.n, g.m]).tobytes())
    digest.update(g.offsets.tobytes())
    digest.update(g.neighbors.tobytes())
    digest.update(g.orig_ids.tobytes())
    return {"nodes": g.n, "edges": g.m, "sha256": digest.hexdigest()}


def _load_graph(path: str, manifest: dict) -> Graph:
    with _phase(manifest, "load"):
        with open(path, "r", encoding="utf-8") as fh:
            edges = load_edge_list(fh)
        g = build_graph(edges)
    manifest["graph"] = _fingerprint(g)
    return g


def cmd_generate(args, manifest) -> None:
    params = RmatParams(
        scale=args.scale,
        avg_degree=args.avg_degree,
        quadrant_probs=args.probs if args.probs else DEFAULT_RMAT_PROBS,
        seed=args.seed,
    )
    with _phase(manifest, "generate"):
        g, truncated = generate_rmat(params)
    manifest["graph"] = _fingerprint(g)
    manifest["truncated"] = truncated
    with _phase(manifest, "write"), open(args.output, "w", encoding="utf-8") as fh:
        write_edge_list(g, fh)


def cmd_ef(args, manifest) -> None:
    g = _load_graph(args.input, manifest)
    with _phase(manifest, "compute"):
        result = compute_ef(g, mode=args.mode, workers=args.workers)
    elapsed = manifest["timings_ms"]["compute"]
    manifest["time_to_solution_ms"] = elapsed
    manifest["clusters_processed"] = result.clusters_processed
    manifest["clusters_per_ms"] = result.clusters_processed / elapsed if elapsed > 0 else None
    with _phase(manifest, "write"), open(args.output, "w", encoding="utf-8") as fh:
        write_ef_csv(g, result, fh)


def cmd_centrality(args, manifest) -> None:
    g = _load_graph(args.input, manifest)
    with _phase(manifest, "compute"):
        if args.metric == "degree":
            scores = degree_centrality(g)
        elif args.metric == "pagerank":
            scores = pagerank(g, damping=args.damping, tol=args.tol, max_iter=args.max_iter)
            manifest["converged"] = scores.converged
        else:
            cost = g.n * g.m
            if cost > args.budget and not args.force:
                raise ValueError(
                    f"betweenness is O(n*m) = {cost} > budget {args.budget}; "
                    "re-run with --force to proceed anyway"
                )
            scores = betweenness(g, workers=args.workers, cost_budget=args.budget)
    with _phase(manifest, "write"), open(args.output, "w", encoding="utf-8") as fh:
        write_scores_csv(g, scores, fh)


def _sir_params(g: Graph, args, manifest: dict) -> SirParams:
    """--beta, else beta calibrated for --r0; --mu, else 1/--recovery-days (calibrate's own mu); recorded as manifest["sir"]."""
    cap = step_cap(g) if args.max_steps is None else args.max_steps  # an explicit 0 is refused, not replaced
    if args.mu is None and not args.recovery_days > 0:  # NaN too; 1/0 would raise ZeroDivisionError
        raise ValueError(f"recovery_days must be positive, got {args.recovery_days}")
    mu = 1.0 / args.recovery_days if args.mu is None else args.mu
    beta = calibrate(g, r0=args.r0, recovery_days=args.recovery_days).beta if args.beta is None else args.beta
    p = SirParams(beta=beta, mu=mu, max_steps=cap)  # checked before it is recorded
    manifest["sir"] = {"beta": p.beta, "mu": p.mu, "max_steps": p.max_steps}
    return p


def cmd_simulate(args, manifest) -> None:
    g = _load_graph(args.input, manifest)
    p = _sir_params(g, args, manifest)
    index = None
    if args.index is not None:
        index = int(np.searchsorted(g.orig_ids, args.index))  # orig_ids ascend
        if index == g.n or g.orig_ids[index] != args.index:
            raise ValueError(f"index case {args.index} is not a node of the graph")
    with _phase(manifest, "simulate"):
        run_replicates(g, p, args.reps, args.seed, index_case=index, workers=args.workers,
                       fold=lambda runs: _write_runs(args, g, runs))


def _write_runs(args, g: Graph, runs) -> None:
    """Write each replicate's NDJSON record, and its forest rows if asked, as the replicates arrive."""
    with contextlib.ExitStack() as files:
        out = files.enter_context(open(args.output, "w", encoding="utf-8"))
        forest = files.enter_context(open(args.forest_output, "w", encoding="utf-8")) if args.forest_output else None
        if forest:
            forest.write("replicate,node,parent\n")
        for rep, outcome in enumerate(runs):
            out.write(json.dumps(outcome_record(outcome, rep, threshold=args.threshold, orig_ids=g.orig_ids)) + "\n")
            if forest:
                order = np.argsort(outcome.nodes)
                nodes = g.orig_ids[outcome.nodes[order]].tolist()
                parents = outcome.parents[order]
                par_ids = np.where(parents >= 0, g.orig_ids[parents], -1).tolist()  # original ids are >= 0
                forest.writelines(f"{rep},{v},{'' if par < 0 else par}\n" for v, par in zip(nodes, par_ids))


def cmd_analyze(args, manifest) -> None:
    # open both outputs first, so a bad --output fails before any work
    with (
        open(f"{args.output}.csv", "w", encoding="utf-8") as csv_fh,
        open(f"{args.output}.ndjson", "w", encoding="utf-8") as ndjson_fh,
    ):
        report = _analyze_report(args, manifest)
        write_report_csv(report, csv_fh)
        write_report_ndjson(report, ndjson_fh)


def _analyze_report(args, manifest):
    g = _load_graph(args.input, manifest)
    p = _sir_params(g, args, manifest)
    with _phase(manifest, "ef"):
        ef_result = compute_ef(g, workers=args.workers)

    with _phase(manifest, "experiment"):
        if args.kind == "correlation":
            with _phase(manifest, "centrality"):
                others = [degree_centrality(g), pagerank(g)]
                if args.with_betweenness:
                    others.append(betweenness(g, workers=args.workers))
            with _phase(manifest, "simulate"):  # each block ships its sums, not its outcomes
                sums = run_replicates(g, p, args.reps, args.seed, workers=args.workers,
                                      part=lambda runs: [spreading_sums(runs, g.n, args.threshold)], fold=merge_sums)
            report = correlation_report(g, ef_result, others, sums, min_global=args.min_global)
        else:  # seeding and timing run per EF bin, immunization per EF rank window
            if args.kind == "immunization":
                run, target = immunization_experiment, ef_result
                extra = {"frac": args.immunize_frac, "scenarios": args.scenarios}
            else:
                run = seeding_experiment if args.kind == "seeding" else timing_report
                target, extra = ef_bins(ef_result, k=args.bins), {}
            report = run(g, p, target, reps=args.reps, base_seed=args.seed, threshold=args.threshold,
                         workers=args.workers, **extra)
    report.metadata["graph_sha256"] = manifest["graph"]["sha256"]
    return report


def cmd_bench(args, manifest) -> None:
    started = time.perf_counter()
    rows = []
    timed_out = False
    graph_degree = None
    for degree, mode, workers in itertools.product(args.degrees, args.modes, args.workers):
        if args.timeout is not None and time.perf_counter() - started >= args.timeout:
            timed_out = True
            break
        if degree != graph_degree:  # one graph per degree, generated before its first cell
            g, _ = generate_rmat(RmatParams(scale=args.scale, avg_degree=degree, seed=args.seed + degree))
            graph_degree = degree
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            result = compute_ef(g, mode=mode, workers=workers)
            times.append(_ms_since(t0))
        med = statistics.median(times)
        rows.append(f"{mode},{args.scale},{degree},{workers},{med:.3f},{result.clusters_processed / med:.3f}\n")
    manifest["timed_out"] = timed_out
    manifest["cells"] = len(rows)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("mode,scale,avg_degree,workers,time_ms,clusters_per_ms\n" + "".join(rows))


if __name__ == "__main__":
    sys.exit(main())
