"""Independent brute-force oracles used to pin expected test values.

Everything here works on plain dict-of-sets adjacency built straight from
edge pairs, deliberately bypassing the package's data structures and
algorithms: cluster degrees are found by counting boundary edges of the
explicit three-node set, entropies come from the literal distribution
formula, betweenness from all-pairs path counting, and spreading power by
walking each infection forest level by level.
"""
from __future__ import annotations

import math
from collections import deque


def adjacency(edges) -> dict[int, set[int]]:
    """Clean dict-of-sets adjacency: no self-loops, symmetric, no isolated nodes."""
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            continue
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def boundary_degree(adj: dict[int, set[int]], members: tuple[int, ...]) -> int:
    """Number of edges from the member set to the rest of the graph, by direct count."""
    inside = set(members)
    return sum(1 for x in inside for y in adj[x] if y not in inside)


def expected_force(adj: dict[int, set[int]]) -> dict[int, float]:
    """Exhaustive two-edge-cluster enumeration; star clusters count twice.

    Entropy is evaluated with the literal formula -sum (d/T) ln(d/T) over
    individual cluster entries, skipping zero-degree entries.
    """
    out: dict[int, float] = {}
    for u in adj:
        degs: list[int] = []
        nbrs = sorted(adj[u])
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                d = boundary_degree(adj, (u, nbrs[a], nbrs[b]))
                degs.extend([d, d])  # two transmission orders
        for i in nbrs:
            for k in sorted(adj[i]):
                if k != u:
                    degs.append(boundary_degree(adj, (u, i, k)))
        total = sum(degs)
        if total == 0:
            out[u] = 0.0
            continue
        ent = 0.0
        for d in degs:
            if d > 0:
                p = d / total
                ent -= p * math.log(p)
        out[u] = ent
    return out


def triangles(adj: dict[int, set[int]]) -> list[tuple[int, int, int]]:
    """Every triangle once, as an ascending triple, by testing all node triples."""
    nodes = sorted(adj)
    out = []
    for x in range(len(nodes)):
        for y in range(x + 1, len(nodes)):
            if nodes[y] not in adj[nodes[x]]:
                continue
            for z in range(y + 1, len(nodes)):
                if nodes[z] in adj[nodes[x]] and nodes[z] in adj[nodes[y]]:
                    out.append((nodes[x], nodes[y], nodes[z]))
    return out


def naive_cluster_count(adj: dict[int, set[int]]) -> int:
    """Middle-node triplets via a literal triple loop."""
    count = 0
    for v in adj:
        nbrs = sorted(adj[v])
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                count += 1
    return count


def bfs_distances(adj: dict[int, set[int]], source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _path_counts(adj: dict[int, set[int]], source: int) -> tuple[dict[int, int], dict[int, int]]:
    """BFS distances and shortest-path counts from one source."""
    dist = {source: 0}
    sigma = {source: 1}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                sigma[v] = 0
                queue.append(v)
            if dist[v] == dist[u] + 1:
                sigma[v] += sigma[u]
    return dist, sigma


def brute_force_betweenness(adj: dict[int, set[int]]) -> dict[int, float]:
    """All-pairs path counting: each unordered pair once, endpoints excluded."""
    nodes = sorted(adj)
    per_source = {s: _path_counts(adj, s) for s in nodes}
    bc = {v: 0.0 for v in nodes}
    for i, s in enumerate(nodes):
        dist_s, sigma_s = per_source[s]
        for t in nodes[i + 1 :]:
            if t not in dist_s:
                continue
            dist_t, sigma_t = per_source[t]
            st = dist_s[t]
            total = sigma_s[t]
            for v in nodes:
                if v in (s, t) or v not in dist_s or v not in dist_t:
                    continue
                if dist_s[v] + dist_t[v] == st:
                    bc[v] += sigma_s[v] * sigma_t[v] / total
    return bc


def spreading_power(outcomes, n: int, threshold: float, max_depth: int = 4) -> tuple[int, list[list[float]]]:
    """Global-outbreak count and mean forest descendants within depth 1..max_depth per node, over a full outcome list.

    A run is a global outbreak when its infected count over n reaches the
    threshold. Descendants are counted by walking each global run's forest
    from every node, level by level, in exact integers; each total is then
    divided by the global-run count (by 1 when there is none).
    """
    global_runs = [o for o in outcomes if len(o.nodes) / n >= threshold]
    totals = [[0] * n for _ in range(max_depth)]
    for o in global_runs:
        children: dict[int, list[int]] = {}
        for v, par in zip(o.nodes.tolist(), o.parents.tolist()):
            if par >= 0:
                children.setdefault(par, []).append(v)
        for v in children:
            level, below = [v], 0
            for d in range(max_depth):
                level = [c for u in level for c in children.get(u, [])]
                below += len(level)
                totals[d][v] += below
    runs = max(len(global_runs), 1)
    return len(global_runs), [[t / runs for t in row] for row in totals]
