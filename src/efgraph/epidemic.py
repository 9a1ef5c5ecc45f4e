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
keys r*n + v. Each step gathers the contacts of the block's infectious keys
by `Graph.expand` in runs of consecutive keys, at most _CONTACT_BUDGET
contacts a run unless one key alone exceeds it, so a step's memory does not
grow with its frontier, and an outcome depends neither on its block nor on
the runs. `run_scenarios`
is the one entry and the one place a scenario (base seed, index case,
immunized set) is checked: it runs the scenarios' replicates as one plan on
one pool (a block may mix immunized sets row by row). Where a block runs,
`part` reduces each scenario's slice of it to the items the caller needs
(by default the outcomes), and the caller folds each scenario's items as
its blocks arrive. `run_replicates` (one scenario) and `run_sir` (one
replicate) are calls of it. Blocks run on up to `workers` forked processes
(`parallel_map`) in plan order, so outcomes do not depend on the worker
count either. Outcomes are int32 arrays in infection order.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby

import numpy as np

from .graph import Graph, _budget_ranges
from .parallel import parallel_map

__all__ = [
    "SirParams",
    "SimOutcome",
    "GLOBAL_THRESHOLD",
    "calibrate",
    "step_cap",
    "run_sir",
    "run_replicates",
    "run_scenarios",
    "descendant_sums",
    "is_global_outbreak",
    "time_to_peak",
    "outcome_record",
]

_SEED_MASK = (1 << 64) - 1
_INDEX_STREAM = 0x1D  # substream tag for random index-case selection
_REPLICATE_BUDGET = 1 << 18  # replicates x nodes held in one lockstep block
# Contacts gathered at once within a step. A contact costs ~24 bytes of
# gather temporaries, so a run's ~1.5 MB stays below a block's own state
# (~3.4 MB of status and records at the replicate budget); unsplit, one step
# of a block on R-MAT s12 d8 gathers up to 384,600 contacts. Each run costs
# one Python pass, so the budget is not set lower than it needs to be.
_CONTACT_BUDGET = 1 << 16
GLOBAL_THRESHOLD = 0.25  # default ever-infected fraction of a global outbreak


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


@dataclass
class SimOutcome:
    """One SIR run, held as arrays.

    series holds (S, I, R) counts per step including t=0; immunized nodes
    sit in R from the start. The four int32 arrays list every ever-infected
    node in infection order (by step, then node id; the index case first):
    its infector in `parents` (-1 for the index case), the step it became
    infected and the step it recovered (-1 if still infectious at
    truncation). `steps`, the epidemic's length, is the first step with no
    infectious node, or max_steps if truncated: only infectious nodes infect,
    so an untruncated run ends on the step its last node recovers.
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


def calibrate(g: Graph, r0: float = 1.3, recovery_days: float = 3.0) -> SirParams:
    """SIR parameters for a target reproduction number on this graph.

    mu = 1/recovery_days and beta = r0 / (recovery_days * <k>), the
    linearized calibration under which the index case directly infects r0
    neighbors in expectation on a mean-degree-<k> network.
    """
    if not (r0 > 0 and recovery_days > 0):  # NaN fails both comparisons
        raise ValueError(f"r0 and recovery_days must be positive, got r0={r0}, recovery_days={recovery_days}")
    k = g.avg_degree()
    if k <= 0:
        raise ValueError("cannot calibrate on a graph with no edges")
    beta = r0 / (recovery_days * k)
    if beta > 1.0:
        raise ValueError(
            f"calibration failed: beta={beta:.6g} > 1 (average degree {k:.4g} too small for r0={r0})"
        )
    return SirParams(beta=beta, mu=1.0 / recovery_days, max_steps=step_cap(g))


def step_cap(g: Graph) -> int:
    """Default max_steps: ten steps per node, at least 100 and at most 1,000,000."""
    return int(min(max(10 * g.n, 100), 1_000_000))


def _draw(rngs: list, sizes: np.ndarray) -> np.ndarray:
    """sizes[r] uniforms from each replicate r's own stream, concatenated in replicate order."""
    live = np.flatnonzero(sizes)
    if live.size == 0:
        return np.zeros(0)
    return np.concatenate([rngs[r].random(k) for r, k in zip(live.tolist(), sizes[live].tolist())])


def _run_block(g: Graph, p: SirParams, index_cases, seeds, immunized: list) -> list[SimOutcome]:
    """Advance one replicate per seed in lockstep; outcome r equals a lone run of seeds[r] and immunized[r].

    Each step splits its sorted infectious keys into runs of at most
    _CONTACT_BUDGET contacts (`_budget_ranges`). Per run: one `Graph.expand`
    gather, the susceptibility test, the contact draws, and the hit targets
    with their sources. A replicate's keys may span runs, and its draws
    continue its own stream in key order, so the runs do not change any
    value. Parent picks, recoveries and state updates follow once per step
    over the hits of all runs. Each replicate's S/I/R series is counted from
    its infection and recovery steps at the end.
    """
    n = g.n
    block = len(seeds)
    rngs = [np.random.default_rng(s) for s in seeds]
    rows = np.arange(block, dtype=np.int64)
    status = np.zeros((block, n), dtype=np.int8)  # 0=S 1=I 2=R
    immune = [len(s) for s in immunized]
    for r in np.flatnonzero(immune):  # only rows that immunize anyone
        status[r, list(immunized[r])] = 2
    status = status.ravel()
    active = rows * n + np.asarray(index_cases, dtype=np.int64)  # sorted: one key per replicate
    status[active] = 1
    record = np.full((3, block * n), -1, dtype=np.int32)  # parent, infected_at, recovered_at
    record[1, active] = 0
    infected = [active]
    lane_ends = (rows + 1) * n

    degree = g.degrees()
    step = 0
    while active.size and step < p.max_steps:
        step += 1
        targets, sources = [], []
        for s, e in _budget_ranges(degree[active % n], _CONTACT_BUDGET):
            run = active[s:e]
            keys, counts = g.expand(run)
            ends = np.cumsum(counts)
            e_stop = np.append(0, ends)[np.searchsorted(run, lane_ends)]  # per replicate: end of its contacts
            cand_pos = np.flatnonzero(status[keys] == 0)
            hit_pos = cand_pos[_draw(rngs, np.diff(np.searchsorted(cand_pos, e_stop), prepend=0)) < p.beta]
            targets.append(keys[hit_pos])
            sources.append(run[np.searchsorted(ends, hit_pos, side="right")])
        targets = np.concatenate(targets)
        order = np.argsort(targets, kind="stable")
        targets = targets[order]
        starts = np.flatnonzero(np.diff(targets, prepend=-1))
        new = targets[starts]
        sizes = np.diff(np.append(starts, targets.size))
        u = _draw(rngs, np.bincount(new // n, minlength=block))
        picks = starts + np.floor(u * sizes).astype(np.int64)
        recov = _draw(rngs, np.bincount(active // n, minlength=block)) < p.mu

        status[active[recov]] = 2
        status[new] = 1
        record[0, new] = np.concatenate(sources)[order[picks]] % n
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
        series = np.stack([n - immune[r] - infections, infections - recoveries, immune[r] + recoveries], axis=1)
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
                immunized_count=immune[r],
                n=n,
            )
        )
    return outcomes


def run_sir(g: Graph, p: SirParams, index_case: int, immunized=frozenset(), rng_seed: int = 0) -> SimOutcome:
    """Run one simulation; deterministic for a fixed rng_seed (taken mod 2^64, as replicate seeds are)."""
    return run_scenarios(g, p, [(rng_seed, index_case, immunized)], 1)[0][0]


def run_replicates(
    g: Graph,
    p: SirParams,
    reps: int,
    base_seed: int,
    index_case: int | None = None,
    immunized=frozenset(),
    workers: int = 1,
    part=list,
    fold=list,
):
    """Run `reps` simulations, the one-scenario call of `run_scenarios`; by default, the list of outcomes.

    Outcome r is bitwise the lone `run_sir` with seed base_seed XOR r.
    index_case=None draws a random non-immunized index per replicate from a
    dedicated substream.
    """
    return run_scenarios(g, p, [(base_seed, index_case, immunized)], reps, workers, part, fold)[0]


def run_scenarios(g: Graph, p: SirParams, scenarios, reps: int, workers: int = 1, part=list, fold=list) -> list:
    """Run `reps` replicates of each (base_seed, index_case | None, immunized) scenario; return their folds.

    Replicate r of a scenario has seed base_seed XOR r and the pinned index
    case, or one drawn from that seed's substream among the non-immunized
    nodes. All scenarios are checked first. The plan runs in lockstep blocks
    of max(1, _REPLICATE_BUDGET // n) on up to `workers` forked processes,
    capped at the usable cores. Where a block runs, part maps each scenario's
    slice of it (a list of outcomes) to a list of items; only the items come
    back. Returns one fold per scenario, in plan order, of an iterator over
    its items in order, taken as its blocks arrive. Outcomes do not depend
    on block size or workers.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if g.n == 0:
        raise ValueError("cannot simulate on an empty graph")
    cases, seeds, sets = [], [], []
    for base_seed, index_case, immunized in scenarios:
        immunized = frozenset(immunized)
        for node in immunized:
            if not 0 <= node < g.n:
                raise ValueError(f"immunized node {node} out of range")
        if index_case is None and len(immunized) >= g.n:
            raise ValueError("no non-immunized node available as index case")
        if index_case is not None and not 0 <= index_case < g.n:
            raise ValueError(f"index case {index_case} out of range")
        if index_case in immunized:
            raise ValueError("index case must not be immunized")
        plan = [(base_seed ^ rep) & _SEED_MASK for rep in range(reps)]
        cases += [_random_index(g.n, immunized, s) if index_case is None else index_case for s in plan]
        seeds += plan
        sets += [immunized] * reps
    size = max(1, _REPLICATE_BUDGET // g.n)

    def run(lo):  # (scenario, part) per scenario slice of the block at lo
        outcomes = _run_block(g, p, cases[lo : lo + size], seeds[lo : lo + size], sets[lo : lo + size])
        cuts = [lo, *range((lo // reps + 1) * reps, lo + len(outcomes), reps), lo + len(outcomes)]
        return [(a // reps, part(outcomes[a - lo : b - lo])) for a, b in zip(cuts, cuts[1:])]

    pieces = chain.from_iterable(parallel_map(run, range(0, len(seeds), size), workers))
    return [fold(chain.from_iterable(items for _, items in group)) for _, group in groupby(pieces, lambda x: x[0])]


def _random_index(n: int, immunized: frozenset, seed: int) -> int:
    pick = np.random.default_rng(np.random.SeedSequence([seed, _INDEX_STREAM]))
    while True:
        cand = int(pick.integers(0, n))
        if cand not in immunized:
            return cand


def descendant_sums(outcomes, n: int, max_depth: int = 4) -> np.ndarray:
    """Per-node forest descendants within depth 1..max_depth, summed over the outcomes.

    Row d-1 of the (max_depth, n) sums holds, per node id, the number of
    forest nodes at most d generations below it (0 where it was never
    infected), added in outcome order. Each depth of an outcome is one
    bincount over its forest edges: D_d[p] = sum over children c of
    1 + D_{d-1}[c]. The sums are integers, so they are exact; divided by the
    number of outcomes they are each node's mean spreading power of order d.
    """
    sums = np.zeros((max_depth, n))
    for o in outcomes:
        tree = o.parents >= 0
        child, parent = o.nodes[tree], o.parents[tree]
        below = np.zeros(n)
        for d in range(max_depth):
            below = np.bincount(parent, weights=1.0 + below[child], minlength=n)
            sums[d] += below
    return sums


def is_global_outbreak(o: SimOutcome, threshold: float = GLOBAL_THRESHOLD) -> bool:
    """True when the ever-infected fraction of all o.n nodes reaches the threshold; immunized nodes stay in the denominator."""
    return o.ever_infected / o.n >= threshold


def time_to_peak(o: SimOutcome) -> int:
    """Earliest step at which the infectious count is maximal."""
    return int(np.argmax(o.series[:, 1]))


def outcome_record(o: SimOutcome, replicate: int, threshold: float = GLOBAL_THRESHOLD, orig_ids=None) -> dict:
    """Flat summary of one run for NDJSON output."""
    index = o.index_case if orig_ids is None else int(orig_ids[o.index_case])
    return {
        "replicate": replicate,
        "index_case": index,
        "ever_infected": o.ever_infected,
        "global": is_global_outbreak(o, threshold),
        "steps": o.steps,
        "time_to_peak": time_to_peak(o),
        "length": o.steps,
        "direct_infections": o.direct_infections_by_index,
    }
