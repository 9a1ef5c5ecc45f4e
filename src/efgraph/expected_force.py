"""Expected Force centrality over 2-hop transmission clusters.

A transmission cluster of a node is a tree with exactly two edges rooted at
that node; its degree is the number of edges leaving the three-node set.
The Expected Force of a node is the entropy of the degree distribution over
all of its clusters, where star-shaped clusters (both edges incident to the
root) count twice for their root, once per transmission order.

Two interchangeable algorithms are provided, chosen by name in `ef`:

* cluster (`ef_cluster_centric`): a degree-class kernel. A cluster's degree
  depends only on its members' degrees and on whether it closes a triangle,
  so each node's histogram is assembled from counts of its neighbors'
  degrees (middle credits), its neighbors' neighbor-degree counts (wing
  credits, equal-degree wings credited in one batch) and a correction for
  each triangle it belongs to, listed once by the degree-ordered forward
  algorithm with a linear-probing hash table as the edge test. A triangle
  is kept as its members' int32 partner degree sums, one list per member,
  sorted per bucket. The set-up is 32-bit: node ids are int32, products are
  formed in int64, and the members' keys are int32 local keys in
  member-range buckets, each sorted on its own. Every cluster is still
  credited exactly once to each of its three members. Triangles are listed
  before the degree classes are built, so the listing's peak holds no class
  array. Nodes are processed in owner chunks whose dense histogram bins are
  bounded by a fixed budget; the kernel keeps per-node and per-class arrays
  plus the triangle lists, and each chunk rebuilds the slot and class
  indexes it reads (slot owners, class ends, per-slot class counts) from
  the class offsets, reads its nonzero bins straight into the entropy pass
  as (node, degree, count) rows and drops them.
* vertex (`ef_vertex_centric`): the original per-node formulation. Each
  node independently walks its own star pairs and 2-hop chains, rebuilding
  every shared cluster once per member. Kept as the reference baseline.

Both produce identical integer histograms, and the entropy pass and the
score loop are shared, so their outputs are bitwise equal. The score loop
runs the node ranges (cluster-centric chunks, vertex-centric blocks of 64
nodes) on forked worker processes and writes each range's scores in range
order; the cluster-centric kernel is set up serially before it.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .graph import Graph, _budget_ranges, cluster_count, grouped_arange
from .parallel import parallel_map

__all__ = [
    "EFResult",
    "FLAG_OK",
    "FLAG_NO_CLUSTERS",
    "FLAG_ZERO_DEGREE_CLUSTERS",
    "ef_cluster_centric",
    "ef_vertex_centric",
    "MODES",
    "ef",
    "write_ef_csv",
]

FLAG_OK = 0
FLAG_NO_CLUSTERS = 1  # node participates in no cluster (e.g. isolated edge)
FLAG_ZERO_DEGREE_CLUSTERS = 2  # clusters exist but all have degree 0

_ENTRY_BUDGET = 1 << 18  # histogram entries plus dense bins held by one chunk or batch
_KEY_LIMIT = 2**31 - 1  # int32 local triangle keys stay below this
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)  # odd, near 2^64 / golden ratio


@dataclass
class EFResult:
    """Per-node Expected Force scores plus diagnostics.

    Attributes:
        ef: float64 scores, >= 0 up to rounding: log(t) - w/t can leave a
            node with a single cluster a few ulps below 0 (not clamped)
        cluster_total: int64 histogram mass per node
            (2*C(deg(v),2) + sum of (deg(i)-1) over neighbors i)
        flags: uint8 per node, one of the FLAG_* constants
        clusters_processed: clusters covered by the run; for the
            cluster mode this is the number of distinct clusters,
            cluster_count = sum of C(deg(v), 2), for the vertex mode
            3 * cluster_count, as each cluster is built once per member
    """

    ef: np.ndarray
    cluster_total: np.ndarray
    flags: np.ndarray
    clusters_processed: int


def write_ef_csv(g: Graph, result: EFResult, stream) -> None:
    """Write `node,ef,cluster_total` rows, original ids ascending, 9 significant digits."""
    rows = zip(g.orig_ids.tolist(), result.ef.tolist(), result.cluster_total.tolist())
    stream.write("node,ef,cluster_total\n" + "".join([f"{v},{x:.9g},{c}\n" for v, x, c in rows]))


# ----------------------------------------------------------------------
# cluster-centric algorithm
# ----------------------------------------------------------------------


def ef_cluster_centric(g: Graph, workers: int = 1) -> EFResult:
    """Expected Force via owner-local neighbor-degree-class histograms.

    The kernel is set up serially: degree classes and a shared triangle
    list (wedges tested against a hash table of the edges). Nodes are then
    split into contiguous owner chunks of one internal entry/bin budget
    each, run by the shared score loop on up to `workers` forked processes,
    which inherit the kernel. A chunk builds the exact integer histograms
    of its own nodes, hands the nonzero bins to the entropy pass as rows,
    and drops them. Chunks own disjoint nodes and each node's entropy sums
    run in a fixed order, so the output is bitwise identical for any entry
    budget and worker count.
    """
    kernel = _DegreeClassKernel(g)
    return _score_ranges(g.n, _budget_ranges(kernel.cost, _ENTRY_BUDGET), kernel.scores, workers, cluster_count(g))


def _score_ranges(n: int, ranges, scores, workers: int, clusters_processed: int) -> EFResult:
    """The score loop of both algorithms: fill each node range [s, e) from scores(s, e).

    The ranges run on parallel_map, and each range's (ef, cluster_total,
    flags) is written as it arrives, in range order.
    """
    efv = np.zeros(n)
    mass = np.zeros(n, dtype=np.int64)
    flags = np.zeros(n, dtype=np.uint8)
    for part, (s, e) in zip(parallel_map(lambda r: scores(*r), ranges, workers), ranges):
        efv[s:e], mass[s:e], flags[s:e] = part
    return EFResult(ef=efv, cluster_total=mass, flags=flags, clusters_processed=clusters_processed)


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

    The kernel holds the degrees, the graph's own int32 neighbor array and
    offsets, the classes (coff: per-node offsets; cdeg, ccnt: per-class
    degree and count), the triangles as one int32 list of t per member
    (see _triangle_partner_sums), and per-node bin ranges and costs. Slot
    owners, class ends and per-slot class counts are rebuilt by each chunk
    for its own nodes from coff and the offsets. Class keys and edge codes
    are formed in int64. Bins sum integer-valued float64 credits, exact
    below 2^53, so neither entry order nor a repeated t changes any bin.
    """

    def __init__(self, g: Graph):
        n = g.n
        deg = g.degrees()
        owner = np.repeat(np.arange(n, dtype=np.int32), deg)
        nbr = g.neighbors
        span = int(deg.max(initial=0)) + 1
        self.tri_t, self.tri_off = _triangle_partner_sums(g, deg, owner, nbr, 2 * span - 1)

        keys = np.sort(owner * np.int64(span) + deg[nbr])
        head = np.flatnonzero(np.diff(keys, prepend=-1))  # keys >= 0, so each run opens with a nonzero step
        ccnt = np.diff(head, append=keys.size)
        keys = keys[head]
        coff = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * span)
        cdeg = keys % span
        nclass = np.diff(coff)

        # dense bin range per owner: every credit's t lies in [t_lo, t_hi]; sums are
        # formed per node and gathered once, so one slot-sized temporary is live at a time
        cmin = cdeg[coff[:-1]]
        cmax = cdeg[coff[1:] - 1]
        starts = g.offsets[:-1]
        t_lo = np.minimum(2 * cmin, np.minimum.reduceat((deg + cmin)[nbr], starts)) - 2
        t_hi = np.maximum(2 * cmax, np.maximum.reduceat((deg + cmax)[nbr], starts))

        self.deg = deg
        self.nbr = nbr
        self.offsets = g.offsets
        self.cdeg, self.ccnt, self.coff = cdeg, ccnt.astype(np.float64), coff
        self.t_lo = t_lo
        self.width = t_hi - t_lo + 1
        self.log_table = _log_table(deg)
        wing = np.add.reduceat((nclass + 1)[nbr], starts)
        self.cost = nclass * (nclass + 1) // 2 + wing + 2 * np.diff(self.tri_off) + self.width

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
        nodes = np.repeat(np.arange(e - s), per_owner)
        degs = nz - np.repeat(base - self.deg[s:e] + 4, per_owner)  # degree = d_x - 4 + t
        return _scores_from_histograms(e - s, nodes, degs, bins[nz], self.log_table)

    def _credits(self, s, e, base):
        """Yield (bin index, count) batches holding every credit of owners s..e-1."""
        deg, cdeg, ccnt, coff = self.deg, self.cdeg, self.ccnt, self.coff

        nclass = np.diff(coff[s : e + 1])
        p = np.arange(coff[s], coff[e])
        pairs = np.repeat(coff[s + 1 : e + 1], nclass) - p  # classes from p to its owner's last
        q, ends = grouped_arange(p, pairs)
        diag = ends - pairs  # the a == b pair opens each class's run
        mid_idx = np.repeat(np.repeat(base, nclass) + cdeg[p], pairs) + cdeg[q]
        mid_w = np.repeat(2 * ccnt[p], pairs) * ccnt[q]
        mid_w[diag] = ccnt[p] * (ccnt[p] - 1)

        tri = np.repeat(base, np.diff(self.tri_off[s : e + 1])) + self.tri_t[self.tri_off[s] : self.tri_off[e]]
        tri_idx = np.concatenate([tri, tri - 2])
        tri_w = np.repeat([-4.0, 4.0], tri.size)

        # every owner has a slot (graphs hold no isolated nodes), so the
        # middle and triangle credits ride along with the first wing batch
        idx_parts, w_parts = [mid_idx, tri_idx], [mid_w, tri_w]
        owner = np.repeat(np.arange(s, e), deg[s:e])
        nbr = self.nbr[self.offsets[s] : self.offsets[e]].astype(np.intp)  # one cast, not one per gather
        slot_classes = coff[nbr + 1] - coff[nbr]
        for b0, b1 in _budget_ranges(slot_classes + 1, _ENTRY_BUDGET):
            v, x, nclass = nbr[b0:b1], owner[b0:b1], slot_classes[b0:b1]
            cls = grouped_arange(coff[v], nclass)[0]
            slot_base = base[x - s] + deg[v]
            idx_parts += [np.repeat(slot_base, nclass) + cdeg[cls], slot_base + deg[x]]
            w_parts += [ccnt[cls], np.full(v.size, -1.0)]
            yield np.concatenate(idx_parts), np.concatenate(w_parts)
            idx_parts, w_parts = [], []


def _triangle_partner_sums(g: Graph, deg, owner, nbr, span: int):
    """(tri_t, tri_off): triangle members' int32 partner sums t, one list per member, sorted per bucket.

    tri_t[tri_off[x]:tri_off[x + 1]] holds one t per triangle that x
    belongs to, ascending: the sum of the other two members' degrees.
    t < span.

    Triangles are listed once each by the degree-ordered forward algorithm
    (Schank & Wagner 2005; Latapy 2008): orient every edge toward the
    endpoint of higher (degree, id) rank and test the wedges of each node's
    forward neighbors, of which there are at most O(sqrt(m)).

    Node ids stay int32 (products are formed in int64). All three members
    write int32 local keys (x % w) * span + t into buckets of
    w = _KEY_LIMIT // span consecutive members, so they fit at any n. Each
    bucket fills its own region of the 3 * wedges bound, sized by its
    members' share of the wedges, is sorted on its own and moves down behind
    the buckets before it (the partitioned listing of Chu & Cheng, KDD
    2011). Graphs with n * span <= _KEY_LIMIT have one bucket.
    """
    n = g.n
    rank = np.empty(n, dtype=np.int32)
    rank[np.argsort(deg, kind="stable")] = np.arange(n, dtype=np.int32)
    fwd = rank[owner] < rank[nbr]
    fu = owner[fwd]
    fv = nbr[fwd]
    foff = np.searchsorted(fu, np.arange(n + 1))  # fu ascends with owner
    later = foff[fu + 1] - np.arange(fu.size) - 1  # forward slots after each slot
    und = owner < nbr
    table = _edge_table(owner[und] * np.int64(n) + nbr[und])

    # a wedge closes at most one triangle: the owner of forward slot j is the
    # lowest member of at most later[j] of them and its node a higher member
    # of at most fdeg(fu[j]) - 1; np.empty pages are committed only as
    # written, so this 3 * wedges bound costs address space, not memory
    w = _KEY_LIMIT // span  # members per bucket
    nbuckets = -(-n // w) or 1  # one bucket even at n = 0
    share = np.bincount(fv // w, weights=np.diff(foff)[fu] - 1, minlength=nbuckets)
    share += np.bincount(fu // w, weights=later, minlength=nbuckets)  # exact below 2^53
    region = np.zeros(nbuckets + 1, dtype=np.int64)
    np.cumsum(share.astype(np.int64), out=region[1:])
    fill = region[:-1].copy()
    tri = np.empty(int(region[-1]), dtype=np.int32)
    for b0, b1 in _budget_ranges(later, _ENTRY_BUDGET // 4):  # a batch's wedge-sized arrays share one budget
        first = np.arange(b0, b1)
        wings = later[b0:b1]
        a = np.repeat(fv[first], wings)
        b = fv[grouped_arange(first + 1, wings)[0]]
        hit = _in_table(table, a * np.int64(n) + b)  # a < b: forward slots ascend
        u, a, b = np.repeat(fu[first], wings)[hit], a[hit], b[hit]
        du, da, db = deg[u], deg[a], deg[b]
        x = np.concatenate([u, a, b])
        key = x % w * np.int64(span) + np.concatenate([da + db, du + db, du + da])
        count = [key.size]
        if nbuckets > 1:  # partition by bucket; a stable argsort of uint8/uint16 ids is a radix sort
            bucket = (x // w).astype(np.min_scalar_type(nbuckets - 1))
            key = key[np.argsort(bucket, kind="stable")]
            count = np.bincount(bucket, minlength=nbuckets)
        for i, part in enumerate(np.split(key, np.cumsum(count)[:-1])):
            tri[fill[i] : fill[i] + part.size] = part
        fill += count
    del table

    off_parts = []
    held = 0
    for i in range(nbuckets):
        keys = tri[region[i] : fill[i]]
        keys.sort()
        off_parts.append(held + np.searchsorted(keys, np.arange(0, min(w, n - i * w) * span, span, dtype=np.int32)))
        keys %= span
        tri[held : held + keys.size] = keys  # held <= region[i]: a forward copy within tri
        held += keys.size
    del keys
    tri.resize(held, refcheck=False)
    return tri, np.concatenate(off_parts + [[held]])


def _edge_table(codes: np.ndarray) -> np.ndarray:
    """Linear-probing hash table of distinct nonnegative int64 codes, load <= 1/4; -1 marks empty slots.

    Vectorized insert rounds: one of the keys aiming at each free slot takes
    it and the rest step on, so no key lies past an empty slot from home.
    """
    table = np.full(1 << max(1, int(4 * codes.size - 1).bit_length()), -1, dtype=np.int64)
    slot = _home_slots(codes, table.size)
    while codes.size:
        free = table[slot] < 0
        table[slot[free]] = codes[free]
        left = table[slot] != codes
        codes, slot = codes[left], (slot[left] + 1) & (table.size - 1)
    return table


def _home_slots(keys: np.ndarray, size: int) -> np.ndarray:
    """Multiplicative (Fibonacci) hash of int64 keys onto 0..size-1, size a power of two."""
    return ((keys.view(np.uint64) * _HASH_MUL) >> np.uint64(65 - size.bit_length())).view(np.int64)


def _in_table(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership of each key in an _edge_table: probe home slots at once, then the few that collided."""
    slot = _home_slots(keys, table.size)
    found = table[slot]
    hit = found == keys
    todo = np.flatnonzero((found >= 0) & ~hit)
    while todo.size:
        slot[todo] = (slot[todo] + 1) & (table.size - 1)
        found = table[slot[todo]]
        hit[todo] = found == keys[todo]
        todo = todo[(found >= 0) & (found != keys[todo])]
    return hit


def _log_table(deg: np.ndarray) -> np.ndarray:
    """log(d) for every cluster degree d in 0..3 * max(deg); d = 0 carries no mass and maps to 0."""
    return np.log(np.arange(3 * int(deg.max(initial=0)) + 1, dtype=np.float64).clip(1))


def _scores_from_histograms(n, nodes, degs, counts, log_table):
    """Shared entropy pass over (node, degree, count) rows, node-major, degrees ascending.

    All accumulation is np.bincount over the rows, which sums sequentially
    in input order, so results are reproducible bit-for-bit.
    """
    cf = np.asarray(counts, dtype=np.float64)
    cd = cf * degs.astype(np.float64)
    mass = np.bincount(nodes, weights=cf, minlength=n)
    t = np.bincount(nodes, weights=cd, minlength=n)
    w = np.bincount(nodes, weights=cd * log_table[degs], minlength=n)
    efv = np.zeros(n)
    live = t > 0
    efv[live] = np.log(t[live]) - w[live] / t[live]
    flags = np.zeros(n, dtype=np.uint8)
    flags[mass == 0] = FLAG_NO_CLUSTERS
    flags[(mass > 0) & ~live] = FLAG_ZERO_DEGREE_CLUSTERS
    return efv, mass.astype(np.int64), flags


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
    are scored where they run, by the shared score loop on up to `workers`
    forked processes, handed out one at a time to absorb the skewed
    per-node load.
    """
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
        for x in range(len(neigh) - 1):
            i = neigh[x]
            base = du + deg[i] - 4
            for y in range(x + 1, len(neigh)):
                j = neigh[y]
                d = base + deg[j] - (2 if connected(i, j) else 0)
                hist[d] = hist.get(d, 0) + 2
        for i in neigh:
            base = du + deg[i] - 4
            for k in adj[i]:
                if k == u:
                    continue
                d = base + deg[k] - (2 if connected(u, k) else 0)
                hist[d] = hist.get(d, 0) + 1
        return sorted(hist.items())

    log_table = _log_table(g.degrees())

    def scores(s: int, e: int):
        rows = np.array([(u - s, d, c) for u in range(s, e) for d, c in node_histogram(u)], dtype=np.int64)
        rows = rows.reshape(-1, 3)  # (node - s, degree, count)
        return _scores_from_histograms(e - s, rows[:, 0], rows[:, 1], rows[:, 2], log_table)

    blocks = [(s, min(s + 64, g.n)) for s in range(0, g.n, 64)]
    return _score_ranges(g.n, blocks, scores, workers, 3 * cluster_count(g))


MODES = {"cluster": ef_cluster_centric, "vertex": ef_vertex_centric}  # the mode names `ef` and the CLI take


def ef(g: Graph, mode: str = "cluster", workers: int = 1) -> EFResult:
    """Expected Force by the algorithm MODES[mode]; the two give bitwise equal scores."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    return MODES[mode](g, workers=workers)
