"""Expected Force centrality over 2-hop transmission clusters.

A transmission cluster of a node is a tree with exactly two edges rooted at
that node; its degree is the number of edges leaving the three-node set.
The Expected Force of a node is the entropy of the degree distribution over
all of its clusters, where star-shaped clusters (both edges incident to the
root) count twice for their root, once per transmission order.

Two interchangeable algorithms are provided:

* cluster_centric: a degree-class kernel. A cluster's degree depends only
  on its members' degrees and on whether it closes a triangle, so each
  node's histogram is assembled from counts of its neighbors' degrees
  (middle credits), its neighbors' neighbor-degree counts (wing credits,
  equal-degree wings credited in one batch) and a correction for each
  triangle it belongs to, listed once by the degree-ordered forward
  algorithm. Every cluster is still credited exactly once to each of its
  three members. Nodes are processed in owner chunks whose dense histogram
  bins are bounded by a fixed budget; each chunk turns its own nodes'
  histograms into scores and drops them.
* vertex_centric: the original per-node formulation. Each node
  independently walks its own star pairs and 2-hop chains, rebuilding every
  shared cluster once per member. Kept as the reference baseline.

Both produce identical integer histograms, and the entropy pass is shared,
so their outputs are bitwise equal. Vertex-centric node blocks run on
forked worker processes; cluster-centric chunks run serially.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
import math

import numpy as np

from .graph import Graph, cluster_count
from .parallel import parallel_map

__all__ = [
    "EFResult",
    "FLAG_OK",
    "FLAG_NO_CLUSTERS",
    "FLAG_ZERO_DEGREE_CLUSTERS",
    "cluster_degree",
    "entropy_from_histogram",
    "ef_cluster_centric",
    "ef_vertex_centric",
    "ef",
    "write_ef_csv",
]

FLAG_OK = 0
FLAG_NO_CLUSTERS = 1  # node participates in no cluster (e.g. isolated edge)
FLAG_ZERO_DEGREE_CLUSTERS = 2  # clusters exist but all have degree 0

_ENTRY_BUDGET = 1 << 18  # histogram entries plus dense bins held by one chunk or batch


@dataclass
class EFResult:
    """Per-node Expected Force scores plus diagnostics.

    Attributes:
        ef: float64 scores, >= 0
        cluster_total: int64 histogram mass per node
            (2*C(deg(v),2) + sum of (deg(i)-1) over neighbors i)
        flags: uint8 per node, one of the FLAG_* constants
        clusters_processed: clusters covered by the run; for
            cluster_centric this is the number of distinct clusters,
            sum of C(deg(v), 2), for vertex_centric the total number of
            per-node cluster visits
    """

    ef: np.ndarray
    cluster_total: np.ndarray
    flags: np.ndarray
    clusters_processed: int


def cluster_degree(g: Graph, i: int, v: int, j: int) -> int:
    """Out-degree of the cluster with middle v and wings i, j.

    Counts edges from {i, v, j} to the rest of the graph: the degree sum
    minus the four tree-edge endpoints, minus two more if i-j closes a
    triangle.
    """
    if i == j:
        raise ValueError("cluster wings must be distinct")
    if not (g.has_edge(v, i) and g.has_edge(v, j)):
        raise ValueError(f"({i}, {v}, {j}) is not a middle-node triplet")
    d = g.degree(v) + g.degree(i) + g.degree(j) - 4
    if g.has_edge(i, j):
        d -= 2
    return d


def entropy_from_histogram(h) -> float:
    """Entropy of the normalized cluster-degree distribution.

    h maps cluster degree -> cluster count. With T the total degree mass,
    each cluster of degree d contributes weight d/T; degree-0 clusters and
    the empty histogram carry no mass (0 * log 0 := 0, T = 0 => 0).
    Natural logarithm.
    """
    items = sorted(h.items())
    total = 0
    for d, c in items:
        if d < 0 or c < 0:
            raise ValueError("histogram keys and counts must be non-negative")
        total += d * c
    if total == 0:
        return 0.0
    w = 0.0
    for d, c in items:
        if d > 0:
            w += c * d * math.log(d)
    return math.log(total) - w / total


def ef(g: Graph, mode: str = "cluster_centric", workers: int = 1, chunk_size: int = 4096) -> EFResult:
    """Dispatch to one of the two Expected Force algorithms."""
    if mode == "cluster_centric":
        return ef_cluster_centric(g, workers=workers, chunk_size=chunk_size)
    if mode == "vertex_centric":
        return ef_vertex_centric(g, workers=workers)
    raise ValueError(f"unknown mode {mode!r}; expected cluster_centric or vertex_centric")


def write_ef_csv(g: Graph, result: EFResult, stream) -> None:
    """Write `node,ef,cluster_total` rows, original ids ascending, 9 significant digits."""
    stream.write("node,ef,cluster_total\n")
    orig = g.orig_ids
    efv = result.ef
    tot = result.cluster_total
    for v in range(g.n):
        stream.write(f"{int(orig[v])},{efv[v]:.9g},{int(tot[v])}\n")


# ----------------------------------------------------------------------
# cluster-centric algorithm
# ----------------------------------------------------------------------


def ef_cluster_centric(g: Graph, workers: int = 1, chunk_size: int = 4096) -> EFResult:
    """Expected Force via owner-local neighbor-degree-class histograms.

    Nodes are split into contiguous owner chunks, at most chunk_size nodes
    and one internal entry/bin budget each, run in order. A chunk builds
    the exact integer histograms of its own nodes from degree classes and
    a shared triangle list, reduces them to scores, and drops them. Chunks
    own disjoint nodes and each node's entropy sums run in a fixed order,
    so the output is bitwise identical for any chunk_size. `workers` is
    accepted and unused: processes over the chunks gave 1.0-1.3x at 2
    workers on R-MAT s14 d16, as the kernel set-up runs before any chunk.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if g.n == 0:
        return _empty_result()

    kernel = _DegreeClassKernel(g)
    efv = np.zeros(g.n)
    mass = np.zeros(g.n, dtype=np.int64)
    flags = np.zeros(g.n, dtype=np.uint8)

    for s, e in _budget_ranges(kernel.cost, _ENTRY_BUDGET, chunk_size):
        efv[s:e], mass[s:e], flags[s:e] = kernel.scores(s, e)
    return EFResult(ef=efv, cluster_total=mass, flags=flags, clusters_processed=cluster_count(g))


def _key_span(deg: np.ndarray) -> int:
    # cluster degree is < 3 * max_degree, so node*span + degree is injective
    top = int(deg.max()) if deg.size else 0
    return 3 * max(1, top) + 1


def _budget_ranges(cost: np.ndarray, budget: int, max_len: int | None = None) -> list[tuple[int, int]]:
    """Split 0..len(cost) into contiguous ranges of total cost <= budget.

    A range holds at most max_len items (if given) and at least one, so a
    single item over budget forms a range of its own.
    """
    max_len = max_len or cost.size
    cum = np.cumsum(cost)
    ranges = []
    s = 0
    while s < cost.size:
        before = int(cum[s - 1]) if s else 0
        e = int(np.searchsorted(cum, before + budget, side="right"))
        e = min(max(e, s + 1), s + max_len)
        ranges.append((s, e))
        s = e
    return ranges


def _grouped_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of arange(starts[k], starts[k] + lengths[k]) over k."""
    ends = np.cumsum(lengths)
    return np.arange(int(ends[-1]) if ends.size else 0) - np.repeat(ends - lengths - starts, lengths)


class _DegreeClassKernel:
    """Cluster-degree histograms of one graph, built owner by owner.

    A cluster's degree is d_x - 4 + t for each member x, where t is the sum
    of the other two members' degrees, less 2 if the cluster is a triangle.
    Histograms are therefore kept per owner in dense bins over t. Three
    kinds of integer credit fill them:

    * middle: owner x with neighbor-degree classes (a, c_a), (b, c_b),
      a <= b, holds 2*c_a*c_b clusters (c_a*(c_a-1) when a == b) at t = a+b;
    * wing: for each neighbor v of x and each class (a, c_a) of v, c_a
      clusters at t = d_v + a, less the j = x self term at a = d_x;
    * triangle: each triangle {x, b, c} moves its 4 credits of x (2 as the
      middle, 1 per wing) from t = d_b + d_c to t = d_b + d_c - 2.
    """

    def __init__(self, g: Graph):
        n = g.n
        deg = g.degrees()
        owner = np.repeat(np.arange(n, dtype=np.int64), deg)
        nbr = g.neighbors.astype(np.int64)
        span = int(deg.max()) + 1
        keys, ccnt = np.unique(owner * span + deg[nbr], return_counts=True)
        cnode = keys // span
        coff = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cnode, minlength=n), out=coff[1:])
        cdeg = keys - cnode * span
        nclass = np.diff(coff)

        self.tri_span = 2 * span - 1
        self.tri_keys, self.tri_count = _triangle_member_keys(g, deg, owner, nbr, self.tri_span)
        toff = np.searchsorted(self.tri_keys, np.arange(n + 1) * self.tri_span)

        # dense bin range per owner: every credit's t lies in [t_lo, t_hi]
        cmin = cdeg[coff[:-1]]
        cmax = cdeg[coff[1:] - 1]
        starts = g.offsets[:-1]
        t_lo = np.minimum(2 * cmin, np.minimum.reduceat(deg[nbr] + cmin[nbr], starts)) - 2
        t_hi = np.maximum(2 * cmax, np.maximum.reduceat(deg[nbr] + cmax[nbr], starts))

        self.deg = deg
        self.owner = owner
        self.nbr = nbr
        self.offsets = g.offsets
        self.cnode, self.cdeg, self.ccnt, self.coff = cnode, cdeg, ccnt.astype(np.float64), coff
        self.class_end = coff[cnode + 1]
        self.slot_cost = nclass[nbr] + 1
        self.toff = toff
        self.t_lo = t_lo
        self.width = t_hi - t_lo + 1
        wing = np.add.reduceat(self.slot_cost, starts)
        self.cost = nclass * (nclass + 1) // 2 + wing + 2 * np.diff(toff) + self.width
        self.key_span = _key_span(deg)

    def scores(self, s: int, e: int):
        """(ef, cluster_total, flags) of owners s..e-1."""
        boff = np.zeros(e - s + 1, dtype=np.int64)
        np.cumsum(self.width[s:e], out=boff[1:])
        base = boff[:-1] - self.t_lo[s:e]  # bin of (owner x, t) is base[x - s] + t
        nbins = int(boff[-1])
        batches = self._credits(s, e, base)
        bins = reduce(np.add, (np.bincount(i, weights=w, minlength=nbins) for i, w in batches))
        nz = np.flatnonzero(bins != 0)  # a bool mask scans ~5x faster than float
        per_owner = np.diff(np.searchsorted(nz, boff))
        # key = owner * key_span + degree, with degree = d_x - 4 + t
        shift = np.arange(e - s) * self.key_span - base + self.deg[s:e] - 4
        keys = nz + np.repeat(shift, per_owner)
        return _scores_from_histograms(e - s, self.key_span, keys, bins[nz].astype(np.int64))

    def _credits(self, s, e, base):
        """Yield (bin index, count) batches holding every credit of owners s..e-1."""
        deg, cdeg, ccnt = self.deg, self.cdeg, self.ccnt

        p = np.arange(self.coff[s], self.coff[e])
        pairs = self.class_end[p] - p
        q = _grouped_arange(p, pairs)
        diag = np.cumsum(pairs) - pairs  # the a == b pair opens each class's run
        mid_idx = np.repeat(base[self.cnode[p] - s] + cdeg[p], pairs) + cdeg[q]
        mid_w = np.repeat(2 * ccnt[p], pairs) * ccnt[q]
        mid_w[diag] = ccnt[p] * (ccnt[p] - 1)

        tri = self.tri_keys[self.toff[s] : self.toff[e]]
        member = tri // self.tri_span
        tri_base = base[member - s] + tri - member * self.tri_span
        tri_idx = np.concatenate([tri_base, tri_base - 2])
        tri_count = 4.0 * self.tri_count[self.toff[s] : self.toff[e]]
        tri_w = np.concatenate([-tri_count, tri_count])

        # every owner has a slot (graphs hold no isolated nodes), so the
        # middle and triangle credits ride along with the first wing batch
        idx_parts, w_parts = [mid_idx, tri_idx], [mid_w, tri_w]
        o0, o1 = self.offsets[s], self.offsets[e]
        for b0, b1 in _budget_ranges(self.slot_cost[o0:o1], _ENTRY_BUDGET):
            v = self.nbr[o0 + b0 : o0 + b1]
            x = self.owner[o0 + b0 : o0 + b1]
            nclass = self.coff[v + 1] - self.coff[v]
            cls = _grouped_arange(self.coff[v], nclass)
            slot_base = base[x - s] + deg[v]
            idx_parts += [np.repeat(slot_base, nclass) + cdeg[cls], slot_base + deg[x]]
            w_parts += [ccnt[cls], np.full(v.size, -1.0)]
            yield np.concatenate(idx_parts), np.concatenate(w_parts)
            idx_parts, w_parts = [], []


def _triangle_member_keys(g: Graph, deg, owner, nbr, span: int):
    """(keys, counts): distinct member * span + t over all triangle members.

    Keys ascend; counts give how many triangles share each key.

    t is the degree sum of the member's two triangle partners. Triangles are
    listed once each by the degree-ordered forward algorithm (Schank &
    Wagner 2005; Latapy 2008): orient every edge toward the endpoint of
    higher (degree, id) rank and test the wedges of each node's forward
    neighbors, of which there are at most O(sqrt(m)).
    """
    n = g.n
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(deg, kind="stable")] = np.arange(n)
    fwd = rank[owner] < rank[nbr]
    fu = owner[fwd]
    fv = nbr[fwd]
    foff = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(fu, minlength=n), out=foff[1:])
    later = foff[fu + 1] - np.arange(fu.size) - 1  # forward slots after each slot
    und = owner < nbr
    codes = owner[und] * np.int64(n) + nbr[und]  # sorted: CSR is node-major

    found = [np.zeros(0, dtype=np.int64)]
    for b0, b1 in _budget_ranges(later, _ENTRY_BUDGET):
        first = np.arange(b0, b1)
        wings = later[b0:b1]
        a = np.repeat(fv[first], wings)
        b = fv[_grouped_arange(first + 1, wings)]
        code = a * np.int64(n) + b
        pos = np.minimum(np.searchsorted(codes, code), codes.size - 1)
        hit = codes[pos] == code
        tri = (np.repeat(fu[first], wings)[hit], a[hit], b[hit])
        total = deg[tri[0]] + deg[tri[1]] + deg[tri[2]]
        found += [x * span + total - deg[x] for x in tri]
    keys = np.concatenate(found)
    del found
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    return keys[starts], np.diff(starts, append=keys.size)


def _scores_from_histograms(n, key_span, keys, counts):
    """Shared entropy pass over canonically ordered (node, degree, count) rows.

    All accumulation is np.bincount over the sorted rows, which sums
    sequentially in input order, so results are reproducible bit-for-bit.
    """
    nodes = keys // key_span
    degs = keys % key_span
    cf = counts.astype(np.float64)
    df = degs.astype(np.float64)
    mass = np.bincount(nodes, weights=cf, minlength=n)
    t = np.bincount(nodes, weights=cf * df, minlength=n)
    logd = np.zeros(degs.size)
    pos = degs > 0
    logd[pos] = np.log(df[pos])
    w = np.bincount(nodes, weights=cf * df * logd, minlength=n)
    efv = np.zeros(n)
    live = t > 0
    efv[live] = np.log(t[live]) - w[live] / t[live]
    flags = np.zeros(n, dtype=np.uint8)
    flags[mass == 0] = FLAG_NO_CLUSTERS
    flags[(mass > 0) & ~live] = FLAG_ZERO_DEGREE_CLUSTERS
    return efv, mass.astype(np.int64), flags


def _empty_result() -> EFResult:
    return EFResult(
        ef=np.zeros(0),
        cluster_total=np.zeros(0, np.int64),
        flags=np.zeros(0, np.uint8),
        clusters_processed=0,
    )


# ----------------------------------------------------------------------
# vertex-centric baseline
# ----------------------------------------------------------------------


def ef_vertex_centric(g: Graph, workers: int = 1) -> EFResult:
    """Expected Force via independent per-node cluster walks.

    For each node u, every unordered neighbor pair {i, j} yields the star
    cluster {u, i, j} counted twice, and every 2-hop chain u -> i -> k
    (k != u) counts once; chains are distinct entries even when they
    coincide setwise with a star. Each node builds its own histogram, so
    shared clusters are re-evaluated once per member. Blocks of 64 nodes
    run on up to `workers` forked processes, handed out one at a time to
    absorb the skewed per-node load.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if g.n == 0:
        return _empty_result()

    deg = g.degrees().tolist()
    adj = [g.adjacency(u).tolist() for u in range(g.n)]

    def connected(a: int, b: int) -> bool:
        if deg[a] > deg[b]:
            a, b = b, a
        la = adj[a]
        p = bisect_left(la, b)
        return p < len(la) and la[p] == b

    def node_histogram(u: int):
        hist: dict[int, int] = {}
        neigh = adj[u]
        du = deg[u]
        visits = 0
        for x in range(len(neigh) - 1):
            i = neigh[x]
            base = du + deg[i] - 4
            for y in range(x + 1, len(neigh)):
                j = neigh[y]
                d = base + deg[j] - (2 if connected(i, j) else 0)
                hist[d] = hist.get(d, 0) + 2
                visits += 1
        for i in neigh:
            base = du + deg[i] - 4
            for k in adj[i]:
                if k == u:
                    continue
                d = base + deg[k] - (2 if connected(u, k) else 0)
                hist[d] = hist.get(d, 0) + 1
                visits += 1
        return sorted(hist.items()), visits

    def work(block: range):
        return [node_histogram(u) for u in block]

    blocks = [range(s, min(s + 64, g.n)) for s in range(0, g.n, 64)]
    results = parallel_map(work, blocks, workers)

    key_span = _key_span(g.degrees())
    key_parts: list[int] = []
    count_parts: list[int] = []
    visits_total = 0
    u = 0
    for block in results:
        for items, visits in block:
            visits_total += visits
            for d, c in items:
                key_parts.append(u * key_span + d)
                count_parts.append(c)
            u += 1
    keys = np.asarray(key_parts, dtype=np.int64)
    counts = np.asarray(count_parts, dtype=np.int64)
    efv, mass, flags = _scores_from_histograms(g.n, key_span, keys, counts)
    return EFResult(ef=efv, cluster_total=mass, flags=flags, clusters_processed=visits_total)
