"""Per-layer metrics from the span files that traced_cli.py writes.

Layers are the modules of src/efgraph: graph, expected_force, centrality,
epidemic, analysis and cli, plus the command's process and the tracing
itself. Metric names and units are listed in BENCHMARK.json; what each one
should move is in perfbench/README.md. A metric whose layer does no work on
a workload reads 0.
"""
from __future__ import annotations

import dataclasses
import json
import statistics
from collections import defaultdict
from pathlib import Path

import numpy as np

PHASE_TOL_ABS_S = 0.05  # manifest phase vs spans: allowed gap is max(abs, rel * phase)
PHASE_TOL_REL = 0.05

# manifest timings_ms phase -> spans that should account for it, per command
PHASE_SPANS = {
    "generate": {"generate": ("graph.generate_rmat",), "write": ("graph.write_edge_list",)},
    "ef": {"load": ("graph.load_edge_list", "graph.build_graph"), "compute": ("expected_force.ef",),
           "write": ("expected_force.write_ef_csv",)},
    "analyze": {"load": ("graph.load_edge_list", "graph.build_graph"), "ef": ("expected_force.ef",),
                "experiment": ("centrality.degree", "centrality.pagerank", "centrality.betweenness",
                               "epidemic.run_replicates", "analysis.correlation_report")},
}
WRITER_SPANS = ("expected_force.write_ef_csv", "analysis.write_report_csv", "analysis.write_report_ndjson")


@dataclasses.dataclass
class Trace:
    spans: list[dict]
    counts: dict[str, int]
    manifest: dict
    notes: list[str]

    def total(self, *names: str) -> float:
        return sum(s["end_ns"] - s["start_ns"] for s in self.spans if s["name"] in names) / 1e9

    def durations(self, name: str) -> list[float]:
        return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in self.spans if s["name"] == name]

    def attr_max(self, name: str, key: str) -> float:
        values = [s["attrs"][key] for s in self.spans if s["name"] == name and key in s["attrs"]]
        return max(values, default=0)

    def self_time(self, name: str) -> float:
        """Duration of the named spans minus the part their child spans cover."""
        total = 0
        for span in self.spans:
            if span["name"] != name:
                continue
            children = sorted((c["start_ns"], c["end_ns"]) for c in self.spans if c["parent"] == span["id"])
            covered, cur_start, cur_end = 0, None, None
            for start, end in children:
                if cur_end is None or start > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = start, end
                else:
                    cur_end = max(cur_end, end)
            if cur_end is not None:
                covered += cur_end - cur_start
            total += span["end_ns"] - span["start_ns"] - covered
        return total / 1e9

    def phase_mismatches(self) -> list[str]:
        """Manifest phases the traced spans disagree with beyond the tolerance."""
        expected = dict(PHASE_SPANS.get(self.manifest.get("command"), {}))
        expected["total"] = ("cli.main",)
        out = []
        for phase, names in expected.items():
            if phase not in self.manifest.get("timings_ms", {}):
                out.append(f"manifest has no {phase!r} phase")
                continue
            manifest_s = self.manifest["timings_ms"][phase] / 1000.0
            span_s = self.total(*names)
            if abs(span_s - manifest_s) > max(PHASE_TOL_ABS_S, PHASE_TOL_REL * manifest_s):
                out.append(f"phase {phase!r}: manifest {manifest_s:.4f} s, spans {'+'.join(names)} {span_s:.4f} s")
        return out


def load_trace(trace_path: Path, manifest_path: Path) -> Trace:
    with open(trace_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    notes = [f"hook error {e}" for e in raw["hook_errors"]]
    notes += [f"not wrapped (missing): {m}" for m in raw["missing"]]
    return Trace(raw["spans"], raw["counts"], manifest, notes)


def _div(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def sample_metrics(t: Trace, gen: Trace, wall_s: float, cpu_s: float, output_bytes: int) -> dict:
    c = defaultdict(int, t.counts)
    load_build = t.total("graph.load_edge_list", "graph.build_graph")
    ef_s = t.total("expected_force.ef")
    bc_s = t.total("centrality.betweenness")
    rep_s = t.total("epidemic.run_replicates")
    report_self = t.self_time("analysis.correlation_report")
    sir_ms = np.array(t.durations("epidemic.run_sir")) * 1000.0
    cli_self = t.self_time("cli.main")
    nm = sum(s["attrs"].get("nm", 0) for s in t.spans if s["name"] == "centrality.betweenness")
    return {
        "graph.generate_rmat.s": gen.total("graph.generate_rmat"),
        "graph.write_edge_list.s": gen.total("graph.write_edge_list"),
        "graph.load_edge_list.s": t.total("graph.load_edge_list"),
        "graph.build_graph.s": t.total("graph.build_graph"),
        "graph.edges_per_s": _div(c["graph.edges"], load_build),
        "graph.nodes": c["graph.nodes"],
        "graph.edges": c["graph.edges"],
        "expected_force.ef.s": ef_s,
        "expected_force.clusters_per_s": _div(c["expected_force.clusters"], ef_s),
        "expected_force.rss_hwm_mb": t.attr_max("expected_force.ef", "rss_hwm_mb"),
        "expected_force.write_ef_csv.s": t.total("expected_force.write_ef_csv"),
        "expected_force.clusters": c["expected_force.clusters"],
        "expected_force.clusters_ratio": _div(c["expected_force.clusters"], c["expected_force.cluster_count"]),
        "centrality.betweenness.s": bc_s,
        "centrality.betweenness.nm_per_s": _div(nm, bc_s),
        "centrality.pagerank.s": t.total("centrality.pagerank"),
        "centrality.pagerank.converged": int(t.attr_max("centrality.pagerank", "converged")),
        "epidemic.run_replicates.s": rep_s,
        "epidemic.run_sir.ms_p50": float(np.percentile(sir_ms, 50)) if sir_ms.size else 0.0,
        "epidemic.run_sir.ms_p975": float(np.percentile(sir_ms, 97.5)) if sir_ms.size else 0.0,
        "epidemic.steps_per_s": _div(c["epidemic.steps"], rep_s),
        "epidemic.rss_hwm_mb": t.attr_max("epidemic.run_replicates", "rss_hwm_mb"),
        "epidemic.replicates": c["epidemic.replicates"],
        "epidemic.steps": c["epidemic.steps"],
        "epidemic.infections": c["epidemic.infections"],
        "epidemic.global_outbreaks": c["epidemic.global_outbreaks"],
        "analysis.correlation_report.s": report_self,
        "analysis.write_report.s": t.total("analysis.write_report_csv", "analysis.write_report_ndjson"),
        "analysis.global_runs": c["analysis.global_runs"],
        "analysis.forest_nodes": c["analysis.forest_nodes"],
        "analysis.forest_nodes_per_s": _div(c["analysis.forest_nodes"], report_self),
        "cli.self_s": cli_self,
        "cli.output_bytes": output_bytes,
        "cli.output_mb_per_s": _div(output_bytes / 1e6, cli_self + t.total(*WRITER_SPANS)),
        "process.cpu_s": cpu_s,
        "process.cpu_util": _div(cpu_s, wall_s),
    }


def per_layer(gen: Trace, traced: list, plain: list) -> tuple[dict, list[str], list[dict]]:
    """Median per-layer metrics over the traced samples, notes, and each sample's counts.

    traced holds (Proc, Trace or None, output bytes) per traced command and
    plain the Procs of the untraced commands run alternately with them.
    """
    notes = list(gen.notes) + [f"generate: {m}" for m in gen.phase_mismatches()]
    samples, counts, mismatches = [], [], []
    for proc, t, output_bytes in traced:
        if t is None:
            continue
        samples.append(sample_metrics(t, gen, proc.wall_s, proc.cpu_s, output_bytes))
        counts.append(dict(sorted(t.counts.items())))
        found = t.phase_mismatches()
        mismatches.append(len(found) + len(gen.phase_mismatches()))
        notes += t.notes + found
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    plain_wall = statistics.median(p.wall_s for p in plain)
    traced_wall = statistics.median(proc.wall_s for proc, _, _ in traced)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    metrics["trace.phase_mismatches"] = max(mismatches)
    return metrics, list(dict.fromkeys(notes)), counts
