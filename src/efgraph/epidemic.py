"""Discrete-time stochastic SIR simulation with infection-forest tracking.

One time step is one day. Within a step, every node infectious at the start
of the step first attempts an independent Bernoulli(beta) transmission to
each currently susceptible neighbor, then recovers with probability mu.
Nodes infected during a step become infectious at the next step, so the
minimum infectious period is one full step and its expectation is 1/mu.
A susceptible node reached by several successful attempts in the same step
picks its forest parent uniformly among them.

Each replicate owns a generator seeded with base_seed XOR replicate index
and reads it in a fixed order per step: one uniform per susceptible contact,
one per newly infected node (parent pick), one per infectious node
(recovery). One kernel advances a block of replicates in lockstep over flat
keys r*n + v, each step one CSR gather for the whole block, so an outcome
does not depend on its block; `run_sir` is a block of one. Blocks run on
up to `workers` forked processes (`parallel_map`) and are concatenated in
replicate order, so outcomes do not depend on the worker count either.
Outcomes are int32 arrays in infection order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .graph import Graph
from .parallel import parallel_map

__all__ = [
    "SirParams",
    "SimConfig",
    "SimOutcome",
    "calibrate",
    "run_sir",
    "run_replicates",
    "descendant_counts",
    "descendant_sums",
    "spreading_power",
    "is_global_outbreak",
    "time_to_peak",
    "epidemic_length",
    "outcome_record",
]

_SEED_MASK = (1 << 64) - 1
_INDEX_STREAM = 0x1D  # substream tag for random index-case selection
_REPLICATE_BUDGET = 1 << 18  # replicates x nodes held in one lockstep block


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
    sit in R from the start. The four int32 arrays list every ever-infected
    node in infection order (by step, then node id; the index case first):
    its infector in `parents` (-1 for the index case), the step it became
    infected and the step it recovered (-1 if still infectious at
    truncation). `parent`, `infected_step` and `recovered_step` are
    read-only dict views of the same data.
    """

    series: np.ndarray
    nodes: np.ndarray
    parents: np.ndarray
    infected_at: np.ndarray
    recovered_at: np.ndarray
    direct_infections_by_index: int
    steps: int
    truncated: bool
    index_case: int
    immunized_count: int
    n: int

    @property
    def ever_infected(self) -> int:
        return int(self.nodes.size)

    @cached_property
    def parent(self) -> MappingProxyType:
        pairs = zip(self.nodes.tolist(), self.parents.tolist())
        return MappingProxyType({v: (None if par < 0 else par) for v, par in pairs})

    @cached_property
    def infected_step(self) -> MappingProxyType:
        return MappingProxyType(dict(zip(self.nodes.tolist(), self.infected_at.tolist())))

    @cached_property
    def recovered_step(self) -> MappingProxyType:
        done = np.flatnonzero(self.recovered_at >= 0)
        done = done[np.lexsort((self.nodes[done], self.recovered_at[done]))]
        return MappingProxyType(dict(zip(self.nodes[done].tolist(), self.recovered_at[done].tolist())))


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


def _simulate(g: Graph, p: SirParams, index_cases, seeds, immunized: frozenset, workers=1) -> list[SimOutcome]:
    """Validate, then run the replicates in lockstep blocks of max(1, _REPLICATE_BUDGET // n)."""
    if g.n == 0:
        raise ValueError("cannot simulate on an empty graph")
    for node in immunized:
        if not 0 <= node < g.n:
            raise ValueError(f"immunized node {node} out of range")
    for case in set(index_cases):
        if not 0 <= case < g.n:
            raise ValueError(f"index case {case} out of range")
        if case in immunized:
            raise ValueError("index case must not be immunized")
    size = max(1, _REPLICATE_BUDGET // g.n)
    blocks = [(index_cases[lo : lo + size], seeds[lo : lo + size]) for lo in range(0, len(seeds), size)]
    runs = parallel_map(lambda block: _run_block(g, p, *block, immunized), blocks, workers)
    return [o for run in runs for o in run]


def _draw(rngs: list, sizes: np.ndarray) -> np.ndarray:
    """sizes[r] uniforms from each replicate r's own stream, concatenated in replicate order."""
    live = np.flatnonzero(sizes)
    if live.size == 0:
        return np.zeros(0)
    return np.concatenate([rngs[r].random(k) for r, k in zip(live.tolist(), sizes[live].tolist())])


def _run_block(g: Graph, p: SirParams, index_cases, seeds, immunized: frozenset) -> list[SimOutcome]:
    """Advance one replicate per seed in lockstep; outcome r equals a lone run of seeds[r].

    Sources are located only for successful contacts, and each replicate's
    S/I/R series is counted from its infection and recovery steps at the end.
    """
    n = g.n
    block = len(seeds)
    immune = len(immunized)
    deg = g.degrees()
    rngs = [np.random.default_rng(s) for s in seeds]
    rows = np.arange(block, dtype=np.int64)
    status = np.zeros((block, n), dtype=np.int8)  # 0=S 1=I 2=R
    status[:, sorted(immunized)] = 2
    status = status.ravel()
    active = rows * n + np.asarray(index_cases, dtype=np.int64)  # sorted: one key per replicate
    status[active] = 1
    record = np.full((3, block * n), -1, dtype=np.int32)  # parent, infected_at, recovered_at
    record[1, active] = 0
    infected = [active]

    step = 0
    while active.size and step < p.max_steps:
        step += 1
        rep = active // n
        node = active - rep * n
        counts = deg[node]
        ends = np.cumsum(counts)
        a_stop = np.searchsorted(rep, rows + 1)  # per replicate: end of its keys, then of their contacts
        e_stop = np.append(0, ends)[a_stop]
        first = np.repeat(g.offsets[node] - ends + counts, counts)  # CSR start minus gather start
        keys = g.neighbors[first + np.arange(ends[-1])] + np.repeat(rows * n, np.diff(e_stop, prepend=0))
        cand_pos = np.flatnonzero(status[keys] == 0)
        hit_pos = cand_pos[_draw(rngs, np.diff(np.searchsorted(cand_pos, e_stop), prepend=0)) < p.beta]
        order = np.argsort(keys[hit_pos], kind="stable")
        targets = keys[hit_pos[order]]
        starts = np.flatnonzero(np.diff(targets, prepend=-1))
        new = targets[starts]
        sizes = np.diff(np.append(starts, targets.size))
        u = _draw(rngs, np.bincount(new // n, minlength=block))
        picks = starts + np.floor(u * sizes).astype(np.int64)
        recov = _draw(rngs, np.diff(a_stop, prepend=0)) < p.mu

        status[active[recov]] = 2
        status[new] = 1
        record[0, new] = node[np.searchsorted(ends, hit_pos[order[picks]], side="right")]
        record[1, new] = step
        record[2, active[recov]] = step
        infected.append(new)
        active = np.sort(np.concatenate([active[~recov], new]))

    keys = np.concatenate(infected)
    keys = keys[np.argsort(keys // n, kind="stable")]  # per replicate, in infection order
    bounds = np.searchsorted(keys // n, np.arange(block + 1))
    record = record[:, keys]
    outcomes = []
    for r, case in enumerate(index_cases):
        parents, infected_at, recovered_at = record[:, bounds[r] : bounds[r + 1]]
        truncated = bool(np.any(recovered_at < 0))
        steps = p.max_steps if truncated else int(recovered_at.max())
        infections = np.cumsum(np.bincount(infected_at, minlength=steps + 1))
        recoveries = np.cumsum(np.bincount(recovered_at[recovered_at >= 0], minlength=steps + 1))
        series = np.stack([n - immune - infections, infections - recoveries, immune + recoveries], axis=1)
        outcomes.append(
            SimOutcome(
                series=series,
                nodes=(keys[bounds[r] : bounds[r + 1]] - r * n).astype(np.int32),
                parents=parents,
                infected_at=infected_at,
                recovered_at=recovered_at,
                direct_infections_by_index=int(np.count_nonzero(parents == case)),
                steps=steps,
                truncated=truncated,
                index_case=int(case),
                immunized_count=immune,
                n=n,
            )
        )
    return outcomes


def run_sir(g: Graph, p: SirParams, c: SimConfig) -> SimOutcome:
    """Run one simulation; deterministic for a fixed rng_seed."""
    return _simulate(g, p, [c.index_case], [c.rng_seed], c.immunized)[0]


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

    Replicates run in lockstep blocks of max(1, _REPLICATE_BUDGET // n), in
    replicate order; outcome r is bitwise the lone `run_sir` with seed
    base_seed XOR r, whatever the block size. index_case=None draws a random
    non-immunized index per replicate from a dedicated substream.

    Blocks run on up to `workers` forked processes, capped at the usable
    cores; the outcomes are the same for any worker count.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    immunized = frozenset(immunized)
    if index_case is None and len(immunized) >= g.n:
        raise ValueError("no non-immunized node available as index case")
    seeds = [(base_seed ^ rep) & _SEED_MASK for rep in range(reps)]
    cases = [_random_index(g.n, immunized, s) if index_case is None else index_case for s in seeds]
    return _simulate(g, p, cases, seeds, immunized, workers)


def _random_index(n: int, immunized: frozenset, seed: int) -> int:
    pick = np.random.default_rng(np.random.SeedSequence([seed, _INDEX_STREAM]))
    while True:
        cand = int(pick.integers(0, n))
        if cand not in immunized:
            return cand


def descendant_counts(o: SimOutcome, max_depth: int = 4) -> np.ndarray:
    """Forest descendants of every node within depth 1..max_depth, shape (max_depth, n).

    Row d-1 holds, per node id, the number of forest nodes at most d
    generations below it (0 for nodes never infected). Each depth is one
    bincount over the forest edges: D_d[p] = sum over children c of
    1 + D_{d-1}[c]. The sums are integers, so they are exact.
    """
    tree = o.parents >= 0
    child = o.nodes[tree]
    parent = o.parents[tree]
    counts = np.zeros((max_depth, o.n))
    below = np.zeros(o.n)
    for d in range(max_depth):
        below = np.bincount(parent, weights=1.0 + below[child], minlength=o.n)
        counts[d] = below
    return counts


def descendant_sums(outcomes, n: int, max_depth: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Per-node sums of `descendant_counts` over the outcomes, and infection counts.

    Returns the (max_depth, n) sums, added in outcome order, and per node
    the number of outcomes in which it was infected.
    """
    sums = np.zeros((max_depth, n))
    infected = np.zeros(n, dtype=np.int64)
    for o in outcomes:
        sums += descendant_counts(o, max_depth)
        infected[o.nodes] += 1
    return sums, infected


def spreading_power(outcomes, v: int, order: int, conditional: bool = False) -> float:
    """Average number of forest descendants of v within the given depth.

    Outcomes where v was never infected contribute 0 and stay in the
    denominator; pass conditional=True to average only over outcomes where
    v was infected. `descendant_sums` gives every node's sums in one pass.
    """
    if order not in (1, 2, 3, 4):
        raise ValueError("order must be in 1..4")
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("need at least one outcome")
    sums, infected = descendant_sums(outcomes, outcomes[0].n, order)
    total = float(sums[order - 1, v])
    if conditional:
        return total / int(infected[v]) if infected[v] else 0.0
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
