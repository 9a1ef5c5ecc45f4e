"""Baseline centralities: degree, PageRank, exact betweenness.

These serve as comparison metrics when evaluating how well Expected Force
predicts epidemic behavior. Betweenness follows Brandes' algorithm with the
unordered-pair convention (each {s, t} counted once, endpoints excluded, no
normalization). It runs one multi-source pass per fixed block of sources,
sized from the graph by one entry budget. Each BFS level makes one
`Graph.expand` gather, top-down from the block's frontier keys or bottom-up
from its unseen keys, whichever reads fewer entries; either way every sum
adds its terms in the same order. The blocks run on up to `workers` forked
processes and their sums merge in block order, so the output is bitwise
identical for any worker count. PageRank is plain power iteration on the
undirected neighbor-averaging recurrence.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
import warnings

import numpy as np

from .graph import Graph
from .parallel import parallel_map

__all__ = [
    "CentralityScores",
    "degree_centrality",
    "pagerank",
    "betweenness",
    "BETWEENNESS_COST_BUDGET",
    "write_scores_csv",
]

# n*m above this emits a cost warning: exact betweenness is O(n*m).
BETWEENNESS_COST_BUDGET = 500_000_000

_ENTRY_BUDGET = 1 << 19  # (source, neighbor) entries one betweenness block expands
_UNSEEN = np.iinfo(np.int32).max  # BFS distance of a key not reached yet


@dataclass
class CentralityScores:
    metric: str  # one of degree, pagerank, betweenness, ef
    values: np.ndarray
    converged: bool = True


def degree_centrality(g: Graph) -> CentralityScores:
    return CentralityScores(metric="degree", values=g.degrees().astype(np.float64))


def pagerank(g: Graph, damping: float = 0.85, tol: float = 1e-8, max_iter: int = 200) -> CentralityScores:
    """Power iteration on PG(v) = (1-d)/n + d * sum_u PG(u)/deg(u).

    Stops when the max per-node change drops below tol; if max_iter is hit
    first the scores are still returned with converged=False. The graph has
    no dangling nodes (isolated nodes are dropped at construction), so the
    scores sum to 1 up to rounding.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0, 1)")
    if not 0.0 < tol < np.inf:  # NaN fails every comparison
        raise ValueError(f"tol must be a finite real > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    n = g.n
    if n == 0:
        return CentralityScores(metric="pagerank", values=np.zeros(0))
    deg = g.degrees().astype(np.float64)
    nbrs = g.neighbors.astype(np.int64)
    heads = g.offsets[:-1]
    x = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    converged = False
    for _ in range(max_iter):
        shares = x / deg
        new = base + damping * np.add.reduceat(shares[nbrs], heads)
        if float(np.max(np.abs(new - x))) < tol:
            x = new
            converged = True
            break
        x = new
    if not converged:
        warnings.warn(f"pagerank did not converge in {max_iter} iterations", stacklevel=2)
    return CentralityScores(metric="pagerank", values=x, converged=converged)


def betweenness(g: Graph, workers: int = 1, cost_budget: int = BETWEENNESS_COST_BUDGET) -> CentralityScores:
    """Exact betweenness via Brandes' BFS + dependency accumulation from every source.

    Sources run in fixed blocks of B = max(1, _ENTRY_BUDGET // 2m), one
    multi-source pass per block (see `_block_dependencies`). B comes from
    the graph alone and the block partials merge in block order, so the
    output is bitwise identical for any worker count; workers > 1 run
    blocks on forked processes.
    """
    n = g.n
    if n == 0:
        return CentralityScores(metric="betweenness", values=np.zeros(0))
    if n * g.m > cost_budget:
        warnings.warn(
            f"betweenness on n={n}, m={g.m} exceeds the cost budget ({n * g.m} > {cost_budget}); "
            "this is O(n*m) work",
            stacklevel=2,
        )

    block = max(1, _ENTRY_BUDGET // (2 * g.m))
    blocks = [np.arange(s, min(s + block, n), dtype=np.int64) for s in range(0, n, block)]
    total = np.zeros(n)
    for part in parallel_map(partial(_block_dependencies, g), blocks, workers):
        total += part
    return CentralityScores(metric="betweenness", values=total / 2.0)


def _block_dependencies(g: Graph, sources: np.ndarray) -> np.ndarray:
    """Summed Brandes dependencies of every node over one block of sources.

    The block's B searches share flat state arrays over keys b*n + v (source
    b, node v). Each BFS level finds its down-edges with one `Graph.expand`
    call, in the direction that gathers fewer entries for the whole block
    (Beamer et al., SC 2012): top-down expands the frontier keys and keeps
    unseen neighbors, bottom-up expands the unseen keys and keeps frontier
    neighbors. It marks the children, adds sigma along the down-edges with one
    bincount and keeps them; the backward pass walks them from the deepest
    level up, crediting each parent sigma[v] * sum over children w of
    (1 + delta[w]) / sigma[w]. Both directions list each child's parents and
    each parent's children in ascending key order, so both bincounts add the
    same terms in the same order whichever direction a level took.
    """
    n = g.n
    keys = sources.size * n
    deg = g.degrees()
    dist = np.full(keys, _UNSEEN, dtype=np.int32)
    sigma = np.zeros(keys)
    pos = np.empty(keys, dtype=np.int64)  # frontier position of a frontier key; read only there
    front = np.arange(sources.size, dtype=np.int64) * n + sources
    dist[front] = 0
    sigma[front] = 1.0
    front_cost = int(deg.take(sources).sum())  # entries a top-down gather reads
    unseen_cost = sources.size * 2 * g.m - front_cost  # entries a bottom-up gather reads
    levels = []
    depth = 0
    while front.size:
        if front_cost <= unseen_cost:
            key, counts = g.expand(front)
            down = np.flatnonzero(dist.take(key) > depth)
            key = key.take(down)
            parent = np.repeat(np.arange(front.size), counts).take(down)
        else:
            unseen = np.flatnonzero(dist == _UNSEEN)
            nbr, counts = g.expand(unseen)
            up = np.flatnonzero(dist.take(nbr) == depth)
            key = np.repeat(unseen, counts).take(up)
            pos[front] = np.arange(front.size)
            parent = pos.take(nbr.take(up))
        dist[key] = depth + 1
        paths = np.bincount(key, weights=sigma.take(front).take(parent), minlength=keys)
        levels.append((front, parent, key))
        front = np.flatnonzero(paths != 0)  # paths sums positive sigmas; a bool mask scans faster than float
        sigma[front] = paths.take(front)
        front_cost = int(deg.take(front % n).sum())
        unseen_cost -= front_cost
        depth += 1
    delta = np.zeros(keys)
    for front, parent, key in reversed(levels):
        if key.size:
            share = (1.0 + delta.take(key)) / sigma.take(key)
            delta[front] = sigma.take(front) * np.bincount(parent, weights=share, minlength=front.size)
    delta[np.arange(sources.size) * n + sources] = 0.0
    return delta.reshape(sources.size, n).sum(0)


def write_scores_csv(g: Graph, scores: CentralityScores, stream) -> None:
    """Write `node,<metric>` rows in original-id space, ids ascending."""
    rows = zip(g.orig_ids.tolist(), scores.values.tolist())
    stream.write(f"node,{scores.metric}\n" + "".join([f"{v},{x:.12g}\n" for v, x in rows]))
