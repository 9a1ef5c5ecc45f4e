"""Command-line front end.

Subcommands: generate (R-MAT edge lists), ef (Expected Force scores),
centrality (baseline metrics), simulate (SIR replicate batches), analyze
(the four experiment kinds), bench (EF timing sweeps). Every command writes
a JSON manifest next to its output (flags, graph fingerprint, per-phase
timings, worker count, usable cores), enough to re-run it byte-identically;
data outputs are deterministic for a fixed seed. The manifest is written
even when the command fails, with the error recorded.

Exit codes: 0 success, 1 I/O or data error, 2 usage error.
"""
from __future__ import annotations

import argparse
import hashlib
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
    seeding_experiment,
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
from .epidemic import SirParams, calibrate, outcome_record, run_replicates
from .expected_force import ef as compute_ef, write_ef_csv
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

_MODE_NAMES = {"cluster": "cluster_centric", "vertex": "vertex_centric"}
_WORKERS_HELP = "worker processes, at most the usable cores (default: $EFGRAPH_WORKERS, else 1)"


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
        "flags": _flag_dict(args),
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
    except (ValueError, OSError) as exc:
        _record_error(args, manifest, str(exc), type(exc).__name__)
        rc = 1
    except Exception as exc:  # still leave a manifest behind, then report the traceback
        _record_error(args, manifest, str(exc), type(exc).__name__)
        traceback.print_exc()
        rc = 1
    manifest["timings_ms"]["total"] = _ms_since(t0)
    _write_manifest(args, manifest)
    return rc


def _check_settings(args: argparse.Namespace) -> str | None:
    """Refuse counts below 1, fill an unset --workers from EFGRAPH_WORKERS; return a usage error, if any."""
    for flag in ("workers", "chunk_size"):
        value = getattr(args, flag, None)
        values = value if isinstance(value, list) else [value]  # bench takes a list of worker counts
        if value is not None and min(values, default=1) < 1:
            return f"--{flag.replace('_', '-')} must be >= 1, got {value}"
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

    p = sub.add_parser("generate", help="generate an R-MAT edge-list file")
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--avg-degree", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probs", type=_probs, default=None, help="a,b,c,d quadrant probabilities")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_generate, command="generate")

    p = sub.add_parser("ef", help="compute Expected Force scores")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=sorted(_MODE_NAMES), default="cluster")
    p.add_argument("--workers", type=int, default=None, help=_WORKERS_HELP)
    p.add_argument("--chunk-size", type=int, default=4096)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_ef, command="ef")

    p = sub.add_parser("centrality", help="compute a baseline centrality")
    p.add_argument("--input", required=True)
    p.add_argument("--metric", choices=["degree", "pagerank", "betweenness"], required=True)
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--budget", type=int, default=BETWEENNESS_COST_BUDGET,
                   help="refuse betweenness when n*m exceeds this without --force")
    p.add_argument("--force", action="store_true")
    p.add_argument("--workers", type=int, default=None, help=_WORKERS_HELP)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_centrality, command="centrality")

    p = sub.add_parser("simulate", help="run SIR replicates, one NDJSON record each")
    p.add_argument("--input", required=True)
    p.add_argument("--index", type=int, default=None, help="index case (original id); random if omitted")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    _add_sir_flags(p)
    p.add_argument("--threshold", type=float, default=0.25)
    p.add_argument("--workers", type=int, default=None, help=_WORKERS_HELP)
    p.add_argument("--forest-output", default=None, help="also dump parent pairs as CSV")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_simulate, command="simulate")

    p = sub.add_parser("analyze", help="run one experiment kind, write CSV+NDJSON")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=["correlation", "seeding", "immunization", "timing"], required=True)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--scenarios", type=int, default=10)
    p.add_argument("--immunize-frac", type=float, default=0.05)
    p.add_argument("--min-global", type=int, default=100)
    p.add_argument("--with-betweenness", action="store_true",
                   help="include betweenness in the correlation report (O(n*m))")
    p.add_argument("--seed", type=int, default=0)
    _add_sir_flags(p)
    p.add_argument("--threshold", type=float, default=0.25)
    p.add_argument("--workers", type=int, default=None, help=_WORKERS_HELP)
    p.add_argument("--output", required=True, help="output prefix: writes PREFIX.csv and PREFIX.ndjson")
    p.set_defaults(func=cmd_analyze, command="analyze")

    p = sub.add_parser("bench", help="EF timing sweep over degrees/workers/modes")
    p.add_argument("--scale", type=int, default=12)
    p.add_argument("--degrees", type=_int_list, default=[2, 4, 8, 16])
    p.add_argument("--workers", type=_int_list, default=[1])
    p.add_argument("--modes", type=_mode_list, default=["cluster"])
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=None, help="seconds; abort remaining cells")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_bench, command="bench")

    return parser


def _add_sir_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r0", type=float, default=1.3)
    p.add_argument("--recovery-days", type=float, default=3.0)
    p.add_argument("--beta", type=float, default=None, help="override calibrated beta")
    p.add_argument("--mu", type=float, default=None, help="override calibrated mu")
    p.add_argument("--max-steps", type=int, default=None)


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
        if t not in _MODE_NAMES:
            raise argparse.ArgumentTypeError(f"unknown mode {t!r}")
    return modes


def _flag_dict(args: argparse.Namespace) -> dict:
    out = {}
    for key, value in vars(args).items():
        if key in ("func", "command"):
            continue
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


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
    t0 = time.perf_counter()
    with open(path, "r", encoding="utf-8") as fh:
        edges = load_edge_list(fh)
    g = build_graph(edges)
    manifest["timings_ms"]["load"] = _ms_since(t0)
    manifest["graph"] = _fingerprint(g)
    return g


def cmd_generate(args, manifest) -> None:
    params = RmatParams(
        scale=args.scale,
        avg_degree=args.avg_degree,
        quadrant_probs=args.probs if args.probs else DEFAULT_RMAT_PROBS,
        seed=args.seed,
    )
    t0 = time.perf_counter()
    g, truncated = generate_rmat(params)
    manifest["timings_ms"]["generate"] = _ms_since(t0)
    manifest["graph"] = _fingerprint(g)
    manifest["truncated"] = truncated
    t0 = time.perf_counter()
    with open(args.output, "w", encoding="utf-8") as fh:
        write_edge_list(g, fh)
    manifest["timings_ms"]["write"] = _ms_since(t0)


def cmd_ef(args, manifest) -> None:
    g = _load_graph(args.input, manifest)
    mode = _MODE_NAMES[args.mode]
    t0 = time.perf_counter()
    result = compute_ef(g, mode=mode, workers=args.workers, chunk_size=args.chunk_size)
    elapsed = _ms_since(t0)
    manifest["timings_ms"]["compute"] = elapsed
    manifest["time_to_solution_ms"] = elapsed
    manifest["clusters_processed"] = result.clusters_processed
    manifest["clusters_per_ms"] = result.clusters_processed / elapsed if elapsed > 0 else None
    t0 = time.perf_counter()
    with open(args.output, "w", encoding="utf-8") as fh:
        write_ef_csv(g, result, fh)
    manifest["timings_ms"]["write"] = _ms_since(t0)


def cmd_centrality(args, manifest) -> None:
    g = _load_graph(args.input, manifest)
    t0 = time.perf_counter()
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
    manifest["timings_ms"]["compute"] = _ms_since(t0)
    t0 = time.perf_counter()
    with open(args.output, "w", encoding="utf-8") as fh:
        write_scores_csv(g, scores, fh)
    manifest["timings_ms"]["write"] = _ms_since(t0)


def _sir_params(g: Graph, args) -> SirParams:
    if args.beta is not None and args.mu is not None:
        max_steps = args.max_steps or int(min(max(10 * g.n, 100), 1_000_000))
        return SirParams(beta=args.beta, mu=args.mu, max_steps=max_steps)
    p = calibrate(g, r0=args.r0, recovery_days=args.recovery_days)
    return SirParams(
        beta=args.beta if args.beta is not None else p.beta,
        mu=args.mu if args.mu is not None else p.mu,
        max_steps=args.max_steps or p.max_steps,
    )


def cmd_simulate(args, manifest) -> None:
    g = _load_graph(args.input, manifest)
    p = _sir_params(g, args)
    manifest["sir"] = {"beta": p.beta, "mu": p.mu, "max_steps": p.max_steps}
    index = None
    if args.index is not None:
        if args.index not in g.relabeling:
            raise ValueError(f"index case {args.index} is not a node of the graph")
        index = g.relabeling[args.index]
    t0 = time.perf_counter()
    runs = run_replicates(g, p, args.reps, args.seed, index_case=index, workers=args.workers)
    manifest["timings_ms"]["simulate"] = _ms_since(t0)
    with open(args.output, "w", encoding="utf-8") as fh:
        for rep, outcome in enumerate(runs):
            record = outcome_record(outcome, rep, threshold=args.threshold, orig_ids=g.orig_ids)
            fh.write(json.dumps(record) + "\n")
    if args.forest_output:
        with open(args.forest_output, "w", encoding="utf-8") as fh:
            fh.write("replicate,node,parent\n")
            for rep, outcome in enumerate(runs):
                order = np.argsort(outcome.nodes)
                nodes = g.orig_ids[outcome.nodes[order]].tolist()
                parents = outcome.parents[order]
                par_ids = np.where(parents >= 0, g.orig_ids[parents], -1).tolist()  # original ids are >= 0
                fh.writelines(f"{rep},{v},{'' if par < 0 else par}\n" for v, par in zip(nodes, par_ids))


def cmd_analyze(args, manifest) -> None:
    g = _load_graph(args.input, manifest)
    p = _sir_params(g, args)
    manifest["sir"] = {"beta": p.beta, "mu": p.mu, "max_steps": p.max_steps}
    t0 = time.perf_counter()
    ef_result = compute_ef(g, workers=args.workers)
    manifest["timings_ms"]["ef"] = _ms_since(t0)

    t0 = time.perf_counter()
    if args.kind == "correlation":
        others = [degree_centrality(g), pagerank(g)]
        if args.with_betweenness:
            others.append(betweenness(g, workers=args.workers))
        runs = run_replicates(g, p, args.reps, args.seed, workers=args.workers)
        report = correlation_report(
            g, ef_result, others, runs, threshold=args.threshold, min_global=args.min_global
        )
    elif args.kind == "seeding":
        bins = ef_bins(ef_result, k=args.bins)
        report = seeding_experiment(
            g, p, bins, reps=args.reps, base_seed=args.seed,
            threshold=args.threshold, workers=args.workers,
        )
    elif args.kind == "immunization":
        report = immunization_experiment(
            g, p, ef_result, frac=args.immunize_frac, scenarios=args.scenarios,
            reps=args.reps, base_seed=args.seed, threshold=args.threshold, workers=args.workers,
        )
    else:
        bins = ef_bins(ef_result, k=args.bins)
        report = timing_report(
            g, p, bins, reps=args.reps, base_seed=args.seed,
            threshold=args.threshold, workers=args.workers,
        )
    manifest["timings_ms"]["experiment"] = _ms_since(t0)
    report.metadata["graph_sha256"] = manifest["graph"]["sha256"]

    with open(f"{args.output}.csv", "w", encoding="utf-8") as fh:
        write_report_csv(report, fh)
    with open(f"{args.output}.ndjson", "w", encoding="utf-8") as fh:
        write_report_ndjson(report, fh)


def cmd_bench(args, manifest) -> None:
    started = time.perf_counter()
    rows = []
    timed_out = False
    for degree in args.degrees:
        params = RmatParams(scale=args.scale, avg_degree=degree, seed=args.seed + degree)
        g, _ = generate_rmat(params)
        for mode in args.modes:
            for workers in args.workers:
                if args.timeout is not None and time.perf_counter() - started > args.timeout:
                    timed_out = True
                    break
                times = []
                processed = 0
                for _ in range(args.repeats):
                    t0 = time.perf_counter()
                    result = compute_ef(g, mode=_MODE_NAMES[mode], workers=workers)
                    times.append(_ms_since(t0))
                    processed = result.clusters_processed
                med = statistics.median(times)
                rows.append(
                    {
                        "mode": mode,
                        "scale": args.scale,
                        "avg_degree": degree,
                        "workers": workers,
                        "time_ms": med,
                        "clusters_per_ms": processed / med if med > 0 else None,
                    }
                )
            if timed_out:
                break
        if timed_out:
            break
    manifest["timed_out"] = timed_out
    manifest["cells"] = len(rows)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("mode,scale,avg_degree,workers,time_ms,clusters_per_ms\n")
        for row in rows:
            fh.write(
                f"{row['mode']},{row['scale']},{row['avg_degree']},{row['workers']},"
                f"{row['time_ms']:.3f},{row['clusters_per_ms']:.3f}\n"
            )


if __name__ == "__main__":
    sys.exit(main())
