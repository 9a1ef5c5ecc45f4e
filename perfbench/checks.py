"""Correctness checks on the outputs of one timed CLI command.

against_golden compares with the outputs recorded in golden.json: ef.csv
byte for byte, the correlation report cell by cell, with pearson_r allowed
to move by PEARSON_ABS_TOL (a change of summation order in betweenness may
move it at the 1e-11 level).

invariants is used for generate seeds with no recorded outputs. It checks
properties that hold for any correct output, computed independently of
efgraph from the edge list: the cluster totals of every node, the Expected
Force of a sample of nodes by direct cluster enumeration, and the shape and
ranges of the correlation report.

Each function returns None when the outputs pass, else a message.
"""
from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

PEARSON_ABS_TOL = 1e-9
CSV_PEARSON_TOL = PEARSON_ABS_TOL + 1e-9  # the CSV prints 9 significant digits of |r| <= 1
EF_SAMPLE_NODES = 24
EF_REL_TOL = 1e-8  # ef.csv prints 9 significant digits
EF_ZERO_TOL = 1e-12
REPORT_METRICS = ("exp_ef", "degree", "pagerank", "betweenness")


def against_golden(w, out: Path, digests: dict, golden: dict) -> str | None:
    if w.kind != "correlation":
        for name, digest in digests.items():
            if golden["outputs"][name] != digest:
                return f"{name} differs from the recorded output (sha256 {digest[:12]}...)"
        return None
    csv_err = _compare_report_csv((out / "cor.csv").read_text(), golden["report_csv"])
    if csv_err:
        return f"cor.csv: {csv_err}"
    nd_err = _compare_report_ndjson((out / "cor.ndjson").read_text(), golden["report_ndjson"])
    return f"cor.ndjson: {nd_err}" if nd_err else None


def _close(a, b, tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def _compare_report_csv(text: str, expected: str) -> str | None:
    rows = list(csv.reader(io.StringIO(text)))
    want = list(csv.reader(io.StringIO(expected)))
    if len(rows) != len(want) or rows[:1] != want[:1]:
        return f"{len(rows)} rows / header {rows[:1]}, recorded {len(want)} / {want[:1]}"
    col = want[0].index("pearson_r")
    for i, (got, exp) in enumerate(zip(rows[1:], want[1:]), start=2):
        if [c for j, c in enumerate(got) if j != col] != [c for j, c in enumerate(exp) if j != col]:
            return f"line {i}: {got} != recorded {exp}"
        a = float(got[col]) if got[col] else None
        b = float(exp[col]) if exp[col] else None
        if not _close(a, b, CSV_PEARSON_TOL):
            return f"line {i}: pearson_r {got[col]} vs recorded {exp[col]}"
    return None


def _compare_report_ndjson(text: str, expected: str) -> str | None:
    got = [json.loads(line) for line in text.splitlines()]
    want = [json.loads(line) for line in expected.splitlines()]
    if len(got) != len(want) or got[:1] != want[:1]:
        return "header or row count differs from the recorded report"
    for i, (a, b) in enumerate(zip(got[1:], want[1:]), start=2):
        if {k: v for k, v in a.items() if k != "pearson_r"} != {k: v for k, v in b.items() if k != "pearson_r"}:
            return f"line {i}: {a} != recorded {b}"
        if not _close(a.get("pearson_r"), b.get("pearson_r"), PEARSON_ABS_TOL):
            return f"line {i}: pearson_r {a.get('pearson_r')} vs recorded {b.get('pearson_r')}"
    return None


# ----------------------------------------------------------------------
# invariant checks
# ----------------------------------------------------------------------


class EdgeList:
    """The generated graph, read independently of efgraph."""

    def __init__(self, path: Path):
        raw = np.loadtxt(path, dtype=np.int64, ndmin=2)
        self.ids, dense = np.unique(raw, return_inverse=True)
        dense = dense.reshape(raw.shape)
        self.u, self.v = dense[:, 0], dense[:, 1]
        self.n, self.m = self.ids.size, raw.shape[0]
        self.deg = np.bincount(self.u, minlength=self.n) + np.bincount(self.v, minlength=self.n)
        self.codes = np.sort(np.minimum(self.u, self.v) * self.n + np.maximum(self.u, self.v))
        if np.unique(self.codes).size != self.m or np.any(self.u == self.v):
            raise ValueError("generated edge list has duplicate edges or self-loops")

    def adjacency(self) -> list[set]:
        adj = [set() for _ in range(self.n)]
        for a, b in zip(self.u.tolist(), self.v.tolist()):
            adj[a].add(b)
            adj[b].add(a)
        return adj


def invariants(w, out: Path, manifest: dict, edges: Path, fingerprint: dict) -> str | None:
    g = EdgeList(edges)
    if (g.n, g.m) != (fingerprint["nodes"], fingerprint["edges"]):
        return f"edge list has n={g.n} m={g.m}, manifest says {fingerprint}"
    if manifest.get("graph", {}).get("sha256") != fingerprint["graph_sha256"]:
        return "the command loaded a different graph than generate wrote"
    return {"ef": _ef_invariants, "correlation": _correlation_invariants}[w.kind](w, out, manifest, g, fingerprint)


def reference_ef(adj: list[set], deg: np.ndarray, v: int) -> tuple[float, int]:
    """Expected Force of v and its cluster total, by direct cluster enumeration.

    Clusters are 2-edge trees containing v; one with v in the middle counts
    twice. A cluster's degree is the number of edges leaving its three nodes.
    """
    hist: Counter = Counter()
    nbrs = sorted(adj[v])
    for a, i in enumerate(nbrs):
        for j in nbrs[a + 1:]:
            hist[int(deg[i] + deg[v] + deg[j]) - 4 - (2 if j in adj[i] else 0)] += 2
    for x in nbrs:
        for j in adj[x]:
            if j != v:
                hist[int(deg[v] + deg[x] + deg[j]) - 4 - (2 if j in adj[v] else 0)] += 1
    total = sum(d * c for d, c in hist.items())
    clusters = sum(hist.values())
    if total == 0:
        return 0.0, clusters
    return math.log(total) - sum(c * d * math.log(d) for d, c in hist.items() if d > 0) / total, clusters


def _ef_invariants(w, out, manifest, g: EdgeList, fingerprint) -> str | None:
    table = np.loadtxt(out / "ef.csv", delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (g.n, 3):
        return f"ef.csv has shape {table.shape}, expected ({g.n}, 3)"
    if not np.array_equal(table[:, 0].astype(np.int64), g.ids):
        return "ef.csv node column is not the graph's node ids in ascending order"
    neighbour_wings = (np.bincount(g.u, weights=g.deg[g.v] - 1, minlength=g.n)
                       + np.bincount(g.v, weights=g.deg[g.u] - 1, minlength=g.n))
    totals = g.deg * (g.deg - 1) + neighbour_wings
    if not np.array_equal(table[:, 2].astype(np.int64), totals.astype(np.int64)):
        return "ef.csv cluster_total differs from 2*C(d,2) + sum of (d_i - 1) over neighbours"
    # a node with a single cluster degree scores log(T) - log(T), which
    # rounds to a few ulps either side of 0
    if not np.all(np.isfinite(table[:, 1])) or np.any(table[:, 1] < -EF_ZERO_TOL):
        return "ef.csv has negative or non-finite scores"
    expected_clusters = int((g.deg * (g.deg - 1) // 2).sum())
    if manifest.get("clusters_processed") != expected_clusters:
        return f"clusters_processed {manifest.get('clusters_processed')} != sum C(d,2) = {expected_clusters}"
    # a reproducible sample of nodes whose 2-hop walk is cheap to enumerate
    cost = (np.bincount(g.u, weights=g.deg[g.v], minlength=g.n)
            + np.bincount(g.v, weights=g.deg[g.u], minlength=g.n) + g.deg ** 2)
    cheap = np.flatnonzero(cost <= 20_000)
    picks = np.random.default_rng(0).choice(cheap, size=min(EF_SAMPLE_NODES, cheap.size), replace=False)
    adj = g.adjacency()
    for v in picks.tolist():
        ref, clusters = reference_ef(adj, g.deg, v)
        if clusters != totals[v] or abs(ref - table[v, 1]) > EF_REL_TOL * max(1.0, abs(ref)):
            return f"node {g.ids[v]}: ef {table[v, 1]!r}, direct enumeration gives {ref!r}"
    return None


def _correlation_invariants(w, out, manifest, g: EdgeList, fingerprint) -> str | None:
    lines = [json.loads(line) for line in (out / "cor.ndjson").read_text().splitlines()]
    meta = lines[0]["metadata"]
    want = {"nodes": g.n, "edges": g.m, "simulations": w.reps, "graph_sha256": fingerprint["graph_sha256"]}
    if lines[0]["kind"] != "correlation" or any(meta.get(k) != v for k, v in want.items()):
        return f"report metadata {meta} does not match {want}"
    rows = [r for r in lines[1:] if r["metric"] != "warning"]
    if not 0 <= meta["global_outbreaks"] <= w.reps:
        return "global_outbreaks out of range"
    if sorted((r["metric"], r["order"]) for r in rows) != sorted((m, d) for m in REPORT_METRICS for d in (1, 2, 3, 4)):
        return "report rows are not the four metrics at orders 1..4"
    for r in rows:
        if r["pearson_r"] is not None and not -1.0 - 1e-12 <= r["pearson_r"] <= 1.0 + 1e-12:
            return f"pearson_r out of range: {r}"
    table = list(csv.reader(io.StringIO((out / "cor.csv").read_text())))
    if len(table) != len(lines) or table[0] != ["metric", "order", "pearson_r", "note"]:
        return "cor.csv does not have one row per report row"
    for cells, r in zip(table[1:], lines[1:]):
        value = float(cells[2]) if cells[2] else None
        if cells[0] != r["metric"] or cells[1] != ("" if r["order"] is None else str(r["order"])) \
                or not _close(value, r["pearson_r"], CSV_PEARSON_TOL):
            return f"cor.csv row {cells} disagrees with cor.ndjson {r}"
    return None
