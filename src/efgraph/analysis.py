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

Every experiment reduces outcomes where their replicate block runs, so the
caller never holds them: correlation ships per-block `SpreadingSums`,
which `merge_sums` adds exactly into one (4, n) total.

Seeding, immunization and timing share one plan -> run -> fold path. An
experiment builds a plan of (row cells, index case | None, immunized set)
scenarios, one per bin or immunization window. `_run_plan` runs it with one
`run_scenarios` call on one worker pool, whose blocks ship four integers per
run, and folds each scenario into its row (cells, then fold) as its blocks
arrive. Seeding and immunization share the outbreak-fraction / mean-size
fold; timing folds over global outbreaks only.

Reports are reproducible: all replicate seeds derive from the base seed.
Scenario b runs on seed lane base_seed XOR b * 2^32, a rule `_run_plan`
alone applies.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import reduce
import csv
import json
import math

import numpy as np

from .epidemic import (
    GLOBAL_THRESHOLD,
    SirParams,
    descendant_sums,
    is_global_outbreak,
    run_scenarios,
    time_to_peak,
)
from .expected_force import EFResult
from .graph import Graph

__all__ = [
    "ExperimentReport",
    "EFBin",
    "pearson",
    "ef_bins",
    "SpreadingSums",
    "spreading_sums",
    "merge_sums",
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


@dataclass
class SpreadingSums:
    """Per-node forest descendants within depth 1..max_depth, (max_depth, n), over the global outbreaks of some runs.

    The sums are integers, so any split of the runs adds up to the same totals. A part from
    `spreading_sums` is int32 while its runs times n stays below 2^31 (a replicate block's does, as a
    block holds at most max(1, 2^18 // n) runs); `merge_sums` adds in int64.
    """

    descendants: np.ndarray
    global_runs: int
    simulations: int
    threshold: float


def spreading_sums(runs, n: int, threshold: float = GLOBAL_THRESHOLD) -> SpreadingSums:
    """The correlation experiment's reduction of a list of runs (depths 1..4), taken where their block runs."""
    global_runs = [o for o in runs if is_global_outbreak(o, threshold)]
    dtype = np.int32 if len(global_runs) * n < 2**31 else np.int64  # a run adds below n to each sum
    return SpreadingSums(descendant_sums(global_runs, n).astype(dtype), len(global_runs), len(runs), threshold)


def merge_sums(parts) -> SpreadingSums:
    """Add SpreadingSums parts in order, in int64."""
    return reduce(lambda a, b: SpreadingSums(np.add(a.descendants, b.descendants, dtype=np.int64),
                                             a.global_runs + b.global_runs,
                                             a.simulations + b.simulations, a.threshold), parts)


def correlation_report(
    g: Graph,
    ef_result: EFResult,
    others,
    sums: SpreadingSums,
    min_global: int = 100,
) -> ExperimentReport:
    """Pearson r between each metric and spreading power of order 1..4: sums' descendants per global outbreak.

    Only runs that qualified as global outbreaks feed the spreading-power
    averages. If fewer than min_global such runs are available the report
    still comes out, with a warning row recording the shortfall.
    """
    rows: list[dict] = []
    if sums.global_runs < min_global:
        rows.append({"metric": "warning", "order": None, "pearson_r": None,
                     "note": f"only {sums.global_runs} global outbreaks (< {min_global})"})
    metrics: dict[str, np.ndarray] = {"exp_ef": np.exp(ef_result.ef)}
    for cs in others:
        metrics[cs.metric] = np.asarray(cs.values, dtype=np.float64)
    power = sums.descendants / max(sums.global_runs, 1)  # mean depth-d descendants per node
    for name, vals in metrics.items():
        for d, level in enumerate(power, 1):
            try:
                r = pearson(vals, level)
                note = ""
            except ValueError as exc:
                r = None
                note = str(exc)
            rows.append({"metric": name, "order": d, "pearson_r": r, "note": note})
    metadata = {"nodes": g.n, "edges": g.m, "simulations": sums.simulations, "global_outbreaks": sums.global_runs,
                "threshold": sums.threshold, "min_global": min_global}
    return ExperimentReport(kind="correlation", rows=rows, metadata=metadata)


_RunSummary = namedtuple("_RunSummary", "outbreak ever_infected time_to_peak steps")  # what the folds read of a run


def _run_plan(
    kind: str, fold, g: Graph, p: SirParams, plan, reps: int, base_seed: int, threshold: float, workers: int, **extra
) -> ExperimentReport:
    """Run a plan of (row cells, index case | None, immunized) scenarios as one replicate plan.

    Scenario b runs on seed lane base_seed XOR b * _BIN_SEED_STRIDE; its row
    is {**cells, **fold(g, its runs' _RunSummary)}, folded as its blocks arrive.
    """
    scenarios = [(base_seed ^ (b * _BIN_SEED_STRIDE), case, immune) for b, (_, case, immune) in enumerate(plan)]
    folded = run_scenarios(g, p, scenarios, reps, workers, fold=lambda runs: fold(g, list(runs)),
                           part=lambda runs: [_RunSummary(is_global_outbreak(o, threshold), o.ever_infected,
                                                          time_to_peak(o), o.steps) for o in runs])
    rows = [{**cells, **row} for (cells, _, _), row in zip(plan, folded)]
    metadata = {"nodes": g.n, "edges": g.m, "beta": p.beta, "mu": p.mu, "max_steps": p.max_steps,
                "base_seed": base_seed, "reps": reps, "threshold": threshold, **extra}
    return ExperimentReport(kind=kind, rows=rows, metadata=metadata)


def _bin_plan(g: Graph, bins, reps: int) -> list:
    """One scenario per EF bin, from its representative, its row cells leading with the bin."""
    return [
        ({"bin": b, "target_ef": ef_bin.target_ef, "achieved_ef": ef_bin.achieved_ef,
          "node": int(g.orig_ids[ef_bin.representative]), "reps": reps}, ef_bin.representative, ())
        for b, ef_bin in enumerate(bins)
    ]


def _outbreak_fold(g: Graph, runs) -> dict:
    outbreaks = sum(r.outbreak for r in runs)
    mean_size = float(np.mean([r.ever_infected / g.n for r in runs]))
    return {"outbreak_fraction": outbreaks / len(runs), "mean_size": mean_size}


def _timing_fold(g: Graph, runs) -> dict:
    global_runs = [r for r in runs if r.outbreak]
    peak, length = [float(np.mean([getattr(r, f) for r in global_runs])) if global_runs else None
                    for f in ("time_to_peak", "steps")]
    return {"global_outbreaks": len(global_runs), "mean_time_to_peak": peak, "mean_length": length}


def seeding_experiment(
    g: Graph,
    p: SirParams,
    bins,
    reps: int = 100,
    base_seed: int = 0,
    threshold: float = GLOBAL_THRESHOLD,
    workers: int = 1,
) -> ExperimentReport:
    """Outbreak fraction and mean epidemic size per EF bin of the index case."""
    plan = _bin_plan(g, bins, reps)
    return _run_plan("seeding", _outbreak_fold, g, p, plan, reps, base_seed, threshold, workers, bins=len(plan))


def immunization_experiment(
    g: Graph,
    p: SirParams,
    ef_result: EFResult,
    frac: float = 0.05,
    scenarios: int = 10,
    reps: int = 100,
    base_seed: int = 0,
    threshold: float = GLOBAL_THRESHOLD,
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
    if scenarios < 1:
        raise ValueError("scenarios must be >= 1")
    n = g.n
    window = math.ceil(frac * n)
    if window > n - 1:
        raise ValueError(f"window of {window} nodes leaves no index case on {n} nodes")
    order = np.argsort(ef_result.ef, kind="stable")
    starts = [0] if scenarios == 1 else [round(i * (n - window) / (scenarios - 1)) for i in range(scenarios)]
    windows = [order[start : start + window] for start in starts]
    plan = [
        ({"scenario": sc, "window_start": start, "mean_ef": float(np.mean(ef_result.ef[chosen])),
          "immunized": window, "reps": reps}, None, chosen.tolist())
        for sc, (start, chosen) in enumerate(zip(starts, windows))
    ]
    return _run_plan("immunization", _outbreak_fold, g, p, plan, reps, base_seed, threshold, workers,
                     frac=frac, scenarios=scenarios)


def timing_report(
    g: Graph,
    p: SirParams,
    bins,
    reps: int = 100,
    base_seed: int = 0,
    threshold: float = GLOBAL_THRESHOLD,
    workers: int = 1,
) -> ExperimentReport:
    """Mean time to peak and epidemic length per EF bin, over global outbreaks.

    Bins without a single global outbreak emit null cells.
    """
    plan = _bin_plan(g, bins, reps)
    return _run_plan("timing", _timing_fold, g, p, plan, reps, base_seed, threshold, workers, bins=len(plan))


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
