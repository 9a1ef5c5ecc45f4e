"""Discrete-time stochastic SIR simulation with infection-forest tracking.

One time step is one day. Within a step, every node infectious at the start
of the step first attempts an independent Bernoulli(beta) transmission to
each currently susceptible neighbor, then recovers with probability mu.
Nodes infected during a step become infectious at the next step, so the
minimum infectious period is one full step and its expectation is 1/mu.
A susceptible node reached by several successful attempts in the same step
picks its forest parent uniformly among them.

Runs are pure functions of (graph, params, config): the per-run RNG is
seeded explicitly, and replicate batches derive per-replicate seeds as
base_seed XOR replicate index, so batches are reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph

__all__ = [
    "SirParams",
    "SimConfig",
    "SimOutcome",
    "calibrate",
    "run_sir",
    "run_replicates",
    "descendant_counts",
    "spreading_power",
    "is_global_outbreak",
    "time_to_peak",
    "epidemic_length",
    "outcome_record",
]

_SEED_MASK = (1 << 64) - 1
_INDEX_STREAM = 0x1D  # substream tag for random index-case selection


@dataclass(frozen=True)
class SirParams:
    """Per-contact transmission probability, per-step recovery probability, step cap."""

    beta: float
    mu: float
    max_steps: int

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 < self.mu <= 1.0:
            raise ValueError(f"mu must be in (0, 1], got {self.mu}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class SimConfig:
    index_case: int
    immunized: frozenset[int] = field(default_factory=frozenset)
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "immunized", frozenset(self.immunized))
        if self.index_case in self.immunized:
            raise ValueError("index case must not be immunized")


@dataclass
class SimOutcome:
    """One SIR run.

    series holds (S, I, R) counts per step including t=0; immunized nodes
    sit in R from the start. parent maps every ever-infected node to its
    infector (None for the index case). infected_step / recovered_step
    record when each node entered and left the infectious state; a node
    missing from recovered_step was still infectious at truncation.
    """

    series: np.ndarray
    parent: dict[int, int | None]
    infected_step: dict[int, int]
    recovered_step: dict[int, int]
    direct_infections_by_index: int
    steps: int
    truncated: bool
    index_case: int
    immunized_count: int
    n: int

    @property
    def ever_infected(self) -> int:
        return len(self.parent)


def calibrate(g: Graph, r0: float = 1.3, recovery_days: float = 3.0) -> SirParams:
    """SIR parameters for a target reproduction number on this graph.

    mu = 1/recovery_days and beta = r0 / (recovery_days * <k>), the
    linearized calibration under which the index case directly infects r0
    neighbors in expectation on a mean-degree-<k> network.
    """
    if r0 <= 0 or recovery_days <= 0:
        raise ValueError("r0 and recovery_days must be positive")
    k = g.avg_degree()
    if k <= 0:
        raise ValueError("cannot calibrate on a graph with no edges")
    beta = r0 / (recovery_days * k)
    if beta > 1.0:
        raise ValueError(
            f"calibration failed: beta={beta:.6g} > 1 (average degree {k:.4g} too small for r0={r0})"
        )
    max_steps = int(min(max(10 * g.n, 100), 1_000_000))
    return SirParams(beta=beta, mu=1.0 / recovery_days, max_steps=max_steps)


def _grouped_arange(counts: np.ndarray) -> np.ndarray:
    total = int(counts.sum())
    cum = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)


def run_sir(g: Graph, p: SirParams, c: SimConfig) -> SimOutcome:
    """Run one simulation; deterministic for a fixed rng_seed."""
    n = g.n
    if n == 0:
        raise ValueError("cannot simulate on an empty graph")
    if not 0 <= c.index_case < n:
        raise ValueError(f"index case {c.index_case} out of range")
    for node in c.immunized:
        if not 0 <= node < n:
            raise ValueError(f"immunized node {node} out of range")

    deg = g.degrees()
    offsets = g.offsets
    neighbors = g.neighbors

    status = np.zeros(n, dtype=np.int8)  # 0=S 1=I 2=R
    if c.immunized:
        status[list(c.immunized)] = 2
    status[c.index_case] = 1

    rng = np.random.default_rng(c.rng_seed)
    active = np.array([c.index_case], dtype=np.int64)
    parent: dict[int, int | None] = {c.index_case: None}
    infected_step: dict[int, int] = {c.index_case: 0}
    recovered_step: dict[int, int] = {}
    series = [(n - 1 - len(c.immunized), 1, len(c.immunized))]

    steps = 0
    while active.size and steps < p.max_steps:
        steps += 1

        counts = deg[active]
        idx = np.repeat(offsets[active], counts) + _grouped_arange(counts)
        nbrs = neighbors[idx].astype(np.int64)
        srcs = np.repeat(active, counts)
        sus = status[nbrs] == 0
        cand_t = nbrs[sus]
        cand_s = srcs[sus]

        new_nodes = np.zeros(0, dtype=np.int64)
        if cand_t.size:
            hits = rng.random(cand_t.size) < p.beta
            hit_t = cand_t[hits]
            if hit_t.size:
                order = np.argsort(hit_t, kind="stable")
                ht = hit_t[order]
                hs = cand_s[hits][order]
                starts = np.flatnonzero(np.concatenate([[True], ht[1:] != ht[:-1]]))
                sizes = np.diff(np.append(starts, ht.size))
                picks = starts + np.floor(rng.random(starts.size) * sizes).astype(np.int64)
                new_nodes = ht[starts]
                new_parents = hs[picks]

        recov = rng.random(active.size) < p.mu
        for node in active[recov].tolist():
            status[node] = 2
            recovered_step[node] = steps

        if new_nodes.size:
            status[new_nodes] = 1
            for node, par in zip(new_nodes.tolist(), new_parents.tolist()):
                parent[node] = par
                infected_step[node] = steps

        active = np.sort(np.concatenate([active[~recov], new_nodes]))
        s_count = int(np.count_nonzero(status == 0))
        i_count = int(active.size)
        series.append((s_count, i_count, n - s_count - i_count))

    direct = sum(1 for par in parent.values() if par == c.index_case)
    return SimOutcome(
        series=np.asarray(series, dtype=np.int64),
        parent=parent,
        infected_step=infected_step,
        recovered_step=recovered_step,
        direct_infections_by_index=direct,
        steps=steps,
        truncated=bool(active.size),
        index_case=c.index_case,
        immunized_count=len(c.immunized),
        n=n,
    )


def run_replicates(
    g: Graph,
    p: SirParams,
    reps: int,
    base_seed: int,
    index_case: int | None = None,
    immunized=frozenset(),
    workers: int = 1,
) -> list[SimOutcome]:
    """Run `reps` independent simulations, seeds derived as base_seed XOR replicate.

    Replicates run serially, in replicate order: threads made batches slower
    (0.73x at 2 threads on 2000 replicates of R-MAT s12 d8, 2-vCPU host): each
    run is many small numpy calls that hold the interpreter lock. `workers`
    is accepted for API compatibility and does not change the output.
    index_case=None draws a random non-immunized index per replicate from a
    dedicated substream.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    immunized = frozenset(immunized)
    if index_case is None and len(immunized) >= g.n:
        raise ValueError("no non-immunized node available as index case")

    def one(rep: int) -> SimOutcome:
        seed = (base_seed ^ rep) & _SEED_MASK
        idx = index_case
        if idx is None:
            pick = np.random.default_rng(np.random.SeedSequence([seed, _INDEX_STREAM]))
            while True:
                cand = int(pick.integers(0, g.n))
                if cand not in immunized:
                    idx = cand
                    break
        return run_sir(g, p, SimConfig(index_case=idx, immunized=immunized, rng_seed=seed))

    return [one(r) for r in range(reps)]


def descendant_counts(o: SimOutcome, max_depth: int = 4) -> np.ndarray:
    """Forest descendants of every node within depth 1..max_depth, shape (max_depth, n).

    Row d-1 holds, per node id, the number of forest nodes at most d
    generations below it (0 for nodes never infected). Each depth is one
    bincount over the forest edges: D_d[p] = sum over children c of
    1 + D_{d-1}[c]. The sums are integers, so they are exact.
    """
    nodes = np.fromiter(o.parent, dtype=np.int64, count=len(o.parent))
    parents = np.fromiter(
        (-1 if par is None else par for par in o.parent.values()), dtype=np.int64, count=nodes.size
    )
    tree = parents >= 0
    child = nodes[tree]
    parent = parents[tree]
    counts = np.zeros((max_depth, o.n))
    below = np.zeros(o.n)
    for d in range(max_depth):
        below = np.bincount(parent, weights=1.0 + below[child], minlength=o.n)
        counts[d] = below
    return counts


def spreading_power(outcomes, v: int, order: int, conditional: bool = False) -> float:
    """Average number of forest descendants of v within the given depth.

    Outcomes where v was never infected contribute 0 and stay in the
    denominator; pass conditional=True to average only over outcomes where
    v was infected.
    """
    if order not in (1, 2, 3, 4):
        raise ValueError("order must be in 1..4")
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("need at least one outcome")
    total = 0.0
    hit = 0
    for o in outcomes:
        if v in o.parent:
            total += float(descendant_counts(o, order)[order - 1, v])
            hit += 1
    if conditional:
        return total / hit if hit else 0.0
    return total / len(outcomes)


def is_global_outbreak(o: SimOutcome, threshold: float = 0.25, exclude_immunized: bool = False) -> bool:
    """True when the ever-infected fraction reaches the threshold.

    The denominator is the full population including immunized nodes unless
    exclude_immunized is set.
    """
    denom = o.n - (o.immunized_count if exclude_immunized else 0)
    if denom <= 0:
        return False
    return o.ever_infected / denom >= threshold


def time_to_peak(o: SimOutcome) -> int:
    """Earliest step at which the infectious count is maximal."""
    return int(np.argmax(o.series[:, 1]))


def epidemic_length(o: SimOutcome) -> int:
    """First step with zero infectious nodes, or the step cap if truncated."""
    zeros = np.flatnonzero(o.series[:, 1] == 0)
    return int(zeros[0]) if zeros.size else o.steps


def outcome_record(o: SimOutcome, replicate: int, threshold: float = 0.25, orig_ids=None) -> dict:
    """Flat summary of one run for NDJSON output."""
    index = o.index_case if orig_ids is None else int(orig_ids[o.index_case])
    return {
        "replicate": replicate,
        "index_case": index,
        "ever_infected": o.ever_infected,
        "global": is_global_outbreak(o, threshold),
        "steps": o.steps,
        "time_to_peak": time_to_peak(o),
        "length": epidemic_length(o),
        "direct_infections": o.direct_infections_by_index,
    }
