#!/usr/bin/env python3
"""Run one efgraph CLI command with spans recorded around its library calls.

    python3 perfbench/traced_cli.py TRACE.json <efgraph arguments...>

Before the command runs, the public functions that ``efgraph.cli`` and
``efgraph.epidemic`` call through module attributes are replaced by timing
wrappers (``efgraph.cli.compute_ef``, ``efgraph.epidemic.run_sir``, ...).
Each call records a span (id, name, parent, start, end, thread) and, for
some calls, counts taken from its arguments or result. Spans stay in memory
and are written to TRACE.json when the command ends. Nothing under ``src/``
is modified; instrumenting inside the library is a separate change.

A span opened on a worker thread with no span of its own takes as parent
the innermost span open on the main thread, which is the call that handed
it the work (``run_replicates`` for ``run_sir``).
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import resource
import sys
import threading
import time

GLOBAL_THRESHOLD = 0.25  # the CLI's default --threshold, which the benchmark uses


def rss_hwm_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.hook_errors: list[str] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + int(n)

    def wrap(self, module, attr: str, name: str, hook=None) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span_id = next(self._ids)
            attrs: dict = {}
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append({"id": span_id, "name": name, "parent": parent, "start_ns": start,
                                   "end_ns": end, "thread": threading.get_ident(), "attrs": attrs})
            if hook is not None:
                try:
                    call = signature.bind(*args, **kwargs)
                    call.apply_defaults()
                    hook(self, call, result, attrs)
                except Exception as exc:  # a broken hook must not change the command's outcome
                    self.hook_errors.append(f"{name}: {exc!r}")
            return result

        setattr(module, attr, traced)


def _first(call):
    return next(iter(call.arguments.values()))


def _graph_built(tr, call, g, attrs):
    tr.count("graph.nodes", g.n)
    tr.count("graph.edges", g.m)


def _ef(tr, call, result, attrs):
    attrs["rss_hwm_mb"] = rss_hwm_mb()
    deg = _first(call).degrees().astype("int64")
    tr.count("expected_force.clusters", result.clusters_processed)
    tr.count("expected_force.cluster_count", int((deg * (deg - 1) // 2).sum()))


def _betweenness(tr, call, result, attrs):
    g = _first(call)
    attrs["nm"] = g.n * g.m


def _pagerank(tr, call, result, attrs):
    attrs["converged"] = bool(result.converged)


def _run_replicates(tr, call, result, attrs):
    attrs["rss_hwm_mb"] = rss_hwm_mb()


def _sir_counter(is_global):
    def hook(tr, call, outcome, attrs):
        tr.count("epidemic.replicates", 1)
        tr.count("epidemic.steps", outcome.steps)
        tr.count("epidemic.infections", outcome.ever_infected)
        tr.count("epidemic.global_outbreaks", is_global(outcome, GLOBAL_THRESHOLD))
    return hook


def _report_counter(is_global):
    def hook(tr, call, report, attrs):
        threshold = call.arguments["threshold"]
        global_runs = [o for o in call.arguments["outcomes"] if is_global(o, threshold)]
        tr.count("analysis.global_runs", len(global_runs))
        tr.count("analysis.forest_nodes", sum(o.ever_infected for o in global_runs))
    return hook


def install(tracer: Tracer) -> None:
    import efgraph.cli as cli
    import efgraph.epidemic as epidemic

    is_global = epidemic.is_global_outbreak
    for module, attr, name, hook in (
        (cli, "main", "cli.main", None),
        (cli, "generate_rmat", "graph.generate_rmat", None),
        (cli, "write_edge_list", "graph.write_edge_list", None),
        (cli, "load_edge_list", "graph.load_edge_list", None),
        (cli, "build_graph", "graph.build_graph", _graph_built),
        (cli, "compute_ef", "expected_force.ef", _ef),
        (cli, "write_ef_csv", "expected_force.write_ef_csv", None),
        (cli, "degree_centrality", "centrality.degree", None),
        (cli, "pagerank", "centrality.pagerank", _pagerank),
        (cli, "betweenness", "centrality.betweenness", _betweenness),
        (cli, "calibrate", "epidemic.calibrate", None),
        (cli, "run_replicates", "epidemic.run_replicates", _run_replicates),
        (epidemic, "run_sir", "epidemic.run_sir", _sir_counter(is_global)),
        (cli, "correlation_report", "analysis.correlation_report", _report_counter(is_global)),
        (cli, "write_report_csv", "analysis.write_report_csv", None),
        (cli, "write_report_ndjson", "analysis.write_report_ndjson", None),
    ):
        tracer.wrap(module, attr, name, hook)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[1:]
    import efgraph
    import efgraph.cli

    tracer = Tracer()
    install(tracer)
    rc = 1
    try:
        rc = efgraph.cli.main(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({
                "argv": cli_args,
                "efgraph_file": efgraph.__file__,
                "rc": rc,
                "spans": tracer.spans,
                "counts": tracer.counts,
                "hook_errors": tracer.hook_errors,
                "missing": tracer.missing,
                "rss_hwm_mb": rss_hwm_mb(),
            }, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
