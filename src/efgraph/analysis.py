"""Evaluation pipeline: centralities versus simulated spreading behavior.

Four experiment kinds, each returning a tabular ExperimentReport:

* correlation: Pearson r between centrality metrics and empirical spreading
  power of order 1..4, measured over global outbreaks. Expected Force
  enters as exp(EF) since EF scales logarithmically with caused infections.
* seeding: outbreak probability and mean final size when the index case is
  pinned to nodes of increasing Expected Force.
* immunization: outbreak probability when a fixed fraction of nodes,
  chosen by EF rank windows, is immunized up front.
* timing: time to epidemic peak and epidemic length per EF bin, over
  global outbreaks only.

Reports are reproducible: all replicate seeds derive from the base seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import csv
import json
import math

import numpy as np

from .epidemic import (
    SirParams,
    descendant_sums,
    epidemic_length,
    is_global_outbreak,
    run_replicates,
    time_to_peak,
)
from .expected_force import EFResult
from .graph import Graph

__all__ = [
    "ExperimentReport",
    "EFBin",
    "pearson",
    "ef_bins",
    "correlation_report",
    "seeding_experiment",
    "immunization_experiment",
    "timing_report",
    "write_report_csv",
    "write_report_ndjson",
]

_BIN_SEED_STRIDE = 1 << 32  # distinct seed lane per bin/scenario


@dataclass
class ExperimentReport:
    kind: str
    rows: list[dict]
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EFBin:
    target_ef: float
    representative: int  # dense node id
    achieved_ef: float


def pearson(x, y) -> float:
    """Sample Pearson correlation; raises on constant input."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be 1-d sequences of equal length")
    if xa.size < 2:
        raise ValueError("need at least 2 observations")
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sx = float(np.sqrt(np.dot(dx, dx)))
    sy = float(np.sqrt(np.dot(dy, dy)))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined for constant input")
    return float(np.dot(dx, dy) / (sx * sy))


def ef_bins(ef_result: EFResult, k: int = 10) -> list[EFBin]:
    """k targets equally spaced over [min EF, max EF], nearest node each.

    Ties go to the lowest node id. Requires at least k distinct EF values.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    values = ef_result.ef
    if np.unique(values).size < k:
        raise ValueError(
            f"only {np.unique(values).size} distinct EF values; choose k <= that"
        )
    lo = float(values.min())
    hi = float(values.max())
    bins = []
    for i in range(k):
        target = lo if k == 1 else lo + i * (hi - lo) / (k - 1)
        rep = int(np.argmin(np.abs(values - target)))  # argmin -> lowest id on ties
        bins.append(EFBin(target_ef=target, representative=rep, achieved_ef=float(values[rep])))
    return bins


def _spreading_power_arrays(outcomes: list, n: int, orders=(1, 2, 3, 4)) -> dict[int, np.ndarray]:
    """Mean depth-d descendant counts per node over the given outcomes (zeros for none)."""
    sums, _ = descendant_sums(outcomes, n, max(orders))
    return {d: sums[d - 1] / max(len(outcomes), 1) for d in orders}


def correlation_report(
    g: Graph,
    ef_result: EFResult,
    others,
    outcomes,
    threshold: float = 0.25,
    min_global: int = 100,
    orders=(1, 2, 3, 4),
) -> ExperimentReport:
    """Pearson r between each metric and spreading power of order 1..4.

    Only runs that qualified as global outbreaks feed the spreading-power
    averages. If fewer than min_global such runs are available the report
    still comes out, with a warning row recording the shortfall.
    """
    outcomes = list(outcomes)
    global_runs = [o for o in outcomes if is_global_outbreak(o, threshold)]
    rows: list[dict] = []
    if len(global_runs) < min_global:
        rows.append(
            {
                "metric": "warning",
                "order": None,
                "pearson_r": None,
                "note": f"only {len(global_runs)} global outbreaks (< {min_global})",
            }
        )
    metrics: dict[str, np.ndarray] = {"exp_ef": np.exp(ef_result.ef)}
    for cs in others:
        metrics[cs.metric] = np.asarray(cs.values, dtype=np.float64)
    sp = _spreading_power_arrays(global_runs, g.n, orders)
    for name, vals in metrics.items():
        for d in orders:
            try:
                r = pearson(vals, sp[d])
                note = ""
            except ValueError as exc:
                r = None
                note = str(exc)
            rows.append({"metric": name, "order": d, "pearson_r": r, "note": note})
    return ExperimentReport(
        kind="correlation",
        rows=rows,
        metadata={
            "nodes": g.n,
            "edges": g.m,
            "simulations": len(outcomes),
            "global_outbreaks": len(global_runs),
            "threshold": threshold,
            "min_global": min_global,
        },
    )


def seeding_experiment(
    g: Graph,
    p: SirParams,
    bins,
    reps: int = 100,
    base_seed: int = 0,
    threshold: float = 0.25,
    workers: int = 1,
) -> ExperimentReport:
    """Outbreak fraction and mean epidemic size per EF bin of the index case."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    rows = []
    for b, ef_bin in enumerate(bins):
        seed = base_seed ^ (b * _BIN_SEED_STRIDE)
        runs = run_replicates(
            g, p, reps, seed, index_case=ef_bin.representative, workers=workers
        )
        outbreaks = sum(is_global_outbreak(o, threshold) for o in runs)
        mean_size = float(np.mean([o.ever_infected / g.n for o in runs]))
        rows.append(
            {
                "bin": b,
                "target_ef": ef_bin.target_ef,
                "achieved_ef": ef_bin.achieved_ef,
                "node": int(g.orig_ids[ef_bin.representative]),
                "reps": reps,
                "outbreak_fraction": outbreaks / reps,
                "mean_size": mean_size,
            }
        )
    return ExperimentReport(
        kind="seeding",
        rows=rows,
        metadata=_sim_metadata(g, p, base_seed, reps, threshold, bins=len(rows)),
    )


def immunization_experiment(
    g: Graph,
    p: SirParams,
    ef_result: EFResult,
    frac: float = 0.05,
    scenarios: int = 10,
    reps: int = 100,
    base_seed: int = 0,
    threshold: float = 0.25,
    workers: int = 1,
) -> ExperimentReport:
    """Outbreak fraction under immunization windows of increasing mean EF.

    Nodes are ranked by EF ascending; each scenario immunizes one
    contiguous window of ceil(frac*n) ranks, window starts equally spaced
    across the ranking so the scenario mean EF grows monotonically. The
    index case is drawn at random among non-immunized nodes per replicate.
    """
    if not 0.0 < frac < 1.0:
        raise ValueError("frac must be in (0, 1)")
    if scenarios < 1 or reps < 1:
        raise ValueError("scenarios and reps must be >= 1")
    n = g.n
    window = math.ceil(frac * n)
    if window > n - 1:
        raise ValueError(f"window of {window} nodes leaves no index case on {n} nodes")
    order = np.argsort(ef_result.ef, kind="stable")
    if scenarios == 1:
        starts = [0]
    else:
        starts = [round(i * (n - window) / (scenarios - 1)) for i in range(scenarios)]
    rows = []
    for sc, start in enumerate(starts):
        chosen = order[start : start + window]
        immunized = frozenset(int(v) for v in chosen)
        seed = base_seed ^ (sc * _BIN_SEED_STRIDE)
        runs = run_replicates(g, p, reps, seed, index_case=None, immunized=immunized, workers=workers)
        outbreaks = sum(is_global_outbreak(o, threshold) for o in runs)
        mean_size = float(np.mean([o.ever_infected / n for o in runs]))
        rows.append(
            {
                "scenario": sc,
                "window_start": start,
                "mean_ef": float(np.mean(ef_result.ef[chosen])),
                "immunized": window,
                "reps": reps,
                "outbreak_fraction": outbreaks / reps,
                "mean_size": mean_size,
            }
        )
    return ExperimentReport(
        kind="immunization",
        rows=rows,
        metadata=_sim_metadata(
            g, p, base_seed, reps, threshold, frac=frac, scenarios=scenarios
        ),
    )


def timing_report(
    g: Graph,
    p: SirParams,
    bins,
    reps: int = 100,
    base_seed: int = 0,
    threshold: float = 0.25,
    workers: int = 1,
) -> ExperimentReport:
    """Mean time to peak and epidemic length per EF bin, over global outbreaks.

    Bins without a single global outbreak emit null cells.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    rows = []
    for b, ef_bin in enumerate(bins):
        seed = base_seed ^ (b * _BIN_SEED_STRIDE)
        runs = run_replicates(
            g, p, reps, seed, index_case=ef_bin.representative, workers=workers
        )
        global_runs = [o for o in runs if is_global_outbreak(o, threshold)]
        if global_runs:
            mean_peak = float(np.mean([time_to_peak(o) for o in global_runs]))
            mean_length = float(np.mean([epidemic_length(o) for o in global_runs]))
        else:
            mean_peak = None
            mean_length = None
        rows.append(
            {
                "bin": b,
                "target_ef": ef_bin.target_ef,
                "achieved_ef": ef_bin.achieved_ef,
                "node": int(g.orig_ids[ef_bin.representative]),
                "reps": reps,
                "global_outbreaks": len(global_runs),
                "mean_time_to_peak": mean_peak,
                "mean_length": mean_length,
            }
        )
    return ExperimentReport(
        kind="timing",
        rows=rows,
        metadata=_sim_metadata(g, p, base_seed, reps, threshold, bins=len(rows)),
    )


def _sim_metadata(g: Graph, p: SirParams, base_seed: int, reps: int, threshold: float, **extra) -> dict:
    meta = {
        "nodes": g.n,
        "edges": g.m,
        "beta": p.beta,
        "mu": p.mu,
        "max_steps": p.max_steps,
        "base_seed": base_seed,
        "reps": reps,
        "threshold": threshold,
    }
    meta.update(extra)
    return meta


def write_report_csv(report: ExperimentReport, stream) -> None:
    """CSV with columns in first-seen row order; null cells are empty."""
    columns: list[str] = []
    for row in report.rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in report.rows:
        writer.writerow([_cell(row.get(col)) for col in columns])


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".9g")
    return value


def write_report_ndjson(report: ExperimentReport, stream) -> None:
    """First line carries kind+metadata; one row object per following line."""
    stream.write(json.dumps({"kind": report.kind, "metadata": report.metadata}) + "\n")
    for row in report.rows:
        stream.write(json.dumps(row) + "\n")
