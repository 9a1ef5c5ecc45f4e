from fractions import Fraction

import numpy as np
import pytest

from efgraph import centrality
from efgraph.centrality import betweenness, degree_centrality, pagerank
from efgraph.graph import Graph, RmatParams, build_graph, generate_rmat

from conftest import complete_edges, cycle_edges, er_edges, path_edges, star_edges
from oracles import adjacency, bfs_distances, brute_force_betweenness


class TestDegree:
    def test_star_and_triangle(self):
        g = build_graph(star_edges(3))
        assert degree_centrality(g).values.tolist() == [3, 1, 1, 1]
        tri = build_graph(complete_edges(3))
        assert degree_centrality(tri).values.tolist() == [2, 2, 2]

    def test_matches_graph_degree(self):
        g = build_graph(er_edges(50, 0.1, 1))
        vals = degree_centrality(g).values
        assert all(vals[v] == len(g.adjacency(v)) for v in range(g.n))


def _star_pagerank_fixed_point(leaves: int, damping: Fraction) -> tuple[float, float]:
    """Exact (center, leaf) scores of a star by solving the 2-variable system."""
    n = leaves + 1
    base = (1 - damping) / n
    # center = base + damping * leaves * leaf ; leaf = base + damping * center / leaves
    center = (base + damping * leaves * base) / (1 - damping * damping)
    leaf = base + damping * center / leaves
    return float(center), float(leaf)


@pytest.mark.parametrize("metric", [pagerank, betweenness], ids=["pagerank", "betweenness"])
def test_empty_graph_gives_empty_scores(metric):
    scores = metric(build_graph([]))
    assert scores.values.dtype == np.float64 and scores.values.size == 0


class TestPagerank:
    def test_cycle_uniform(self):
        g = build_graph(cycle_edges(5))
        assert np.max(np.abs(pagerank(g).values - 0.2)) < 1e-6

    def test_regular_uniform(self):
        g = build_graph(complete_edges(7))
        assert np.max(np.abs(pagerank(g).values - 1 / 7)) < 1e-6

    def test_star_fixed_point(self):
        g = build_graph(star_edges(3))
        center, leaf = _star_pagerank_fixed_point(3, Fraction(85, 100))
        scores = pagerank(g, damping=0.85, tol=1e-12, max_iter=1000)
        assert scores.values[0] == pytest.approx(center, abs=1e-6)
        assert scores.values[1] == pytest.approx(leaf, abs=1e-6)

    def test_sum_and_positivity(self):
        for seed in range(4):
            g = build_graph(er_edges(60, 0.08, 40 + seed))
            scores = pagerank(g)
            assert scores.converged
            assert abs(scores.values.sum() - 1.0) < 1e-6
            assert np.all(scores.values > 0)

    def test_non_convergence_flagged(self):
        g = build_graph(star_edges(3))
        with pytest.warns(UserWarning, match="converge"):
            scores = pagerank(g, tol=1e-15, max_iter=1)
        assert not scores.converged

    def test_damping_validation(self):
        g = build_graph(path_edges(3))
        with pytest.raises(ValueError):
            pagerank(g, damping=1.0)

    @pytest.mark.parametrize(
        "name,value",
        [("max_iter", 0), ("max_iter", -3), ("tol", float("nan")), ("tol", -1.0), ("tol", 0.0), ("tol", float("inf"))],
    )
    def test_iteration_settings_validation(self, name, value):
        g = build_graph(path_edges(3))
        with pytest.raises(ValueError, match=name):
            pagerank(g, **{name: value})


class TestBetweenness:
    def test_path3(self):
        g = build_graph(path_edges(3))
        assert betweenness(g).values.tolist() == [0.0, 1.0, 0.0]

    def test_complete_graph_zero(self):
        g = build_graph(complete_edges(4))
        assert np.all(betweenness(g).values == 0.0)

    def test_matches_brute_force(self):
        for seed in range(6):
            edges = er_edges(30, 0.12, 70 + seed)
            g = build_graph(edges)
            oracle = brute_force_betweenness(adjacency(edges))
            got = betweenness(g).values
            for dense in range(g.n):
                assert got[dense] == pytest.approx(oracle[int(g.orig_ids[dense])], abs=1e-9)

    def test_disconnected(self):
        edges = path_edges(4) + [(10, 11), (11, 12)]
        g = build_graph(edges)
        oracle = brute_force_betweenness(adjacency(edges))
        got = betweenness(g).values
        for dense in range(g.n):
            assert got[dense] == pytest.approx(oracle[int(g.orig_ids[dense])], abs=1e-12)

    def test_parallel_agrees(self):
        g = build_graph(er_edges(60, 0.1, 90))
        a = betweenness(g, workers=1).values
        b = betweenness(g, workers=4).values
        assert np.max(np.abs(a - b)) < 1e-9

    def test_bitwise_equal_across_workers(self, monkeypatch):
        g = build_graph(er_edges(60, 0.1, 90))
        # a budget of 7 sources' entries cuts the sources into >= 4 blocks, the last one shorter
        monkeypatch.setattr(centrality, "_ENTRY_BUDGET", 7 * 2 * g.m)
        assert g.n // 7 >= 4 and g.n % 7 != 0
        runs = [betweenness(g, workers=w).values for w in (1, 2, 3)]
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], runs[2])

    def test_small_blocks_match_brute_force_disconnected(self, monkeypatch):
        edges = (
            er_edges(25, 0.15, 7)
            + [(100 + u, 100 + v) for u, v in path_edges(6)]
            + [(200 + u, 200 + v) for u, v in star_edges(4)]
            + [(300, 301)]
        )
        g = build_graph(edges)
        monkeypatch.setattr(centrality, "_ENTRY_BUDGET", 3 * 2 * g.m)  # blocks of 3 sources
        oracle = brute_force_betweenness(adjacency(edges))
        got = betweenness(g, workers=2).values
        for dense in range(g.n):
            assert got[dense] == pytest.approx(oracle[int(g.orig_ids[dense])], abs=1e-12)

    def test_cost_warning(self):
        g = build_graph(er_edges(40, 0.2, 2))
        with pytest.warns(UserWarning, match="budget"):
            betweenness(g, cost_budget=10)


def _top_down_block_dependencies(g, sources):
    """The block kernel with every BFS level expanded top-down, from the frontier keys: the reference for the direction choice."""
    n = g.n
    keys = sources.size * n
    dist = np.full(keys, centrality._UNSEEN, dtype=np.int32)
    sigma = np.zeros(keys)
    front = np.arange(sources.size, dtype=np.int64) * n + sources
    dist[front] = 0
    sigma[front] = 1.0
    levels = []
    depth = 0
    while front.size:
        key, counts = g.expand(front)
        down = np.flatnonzero(dist.take(key) > depth)
        key = key.take(down)
        parent = np.repeat(np.arange(front.size), counts).take(down)
        dist[key] = depth + 1
        paths = np.bincount(key, weights=sigma.take(front).take(parent), minlength=keys)
        levels.append((front, parent, key))
        front = np.flatnonzero(paths)
        sigma[front] = paths.take(front)
        depth += 1
    delta = np.zeros(keys)
    for front, parent, key in reversed(levels):
        if key.size:
            share = (1.0 + delta.take(key)) / sigma.take(key)
            delta[front] = sigma.take(front) * np.bincount(parent, weights=share, minlength=front.size)
    delta[np.arange(sources.size) * n + sources] = 0.0
    return delta.reshape(sources.size, n).sum(0)


def _deep_edges(links: int = 36):
    """A chain of 3-way diamonds into an ER blob: path counts pass 3**34 > 2**53, so the sigma sums round."""
    edges = []
    for i in range(links):
        edges += [(4 * i + e, 4 * i + mid) for mid in (1, 2, 3) for e in (0, 4)]
    return edges + [(4 * links + u, 4 * links + v) for u, v in er_edges(30, 0.3, 5)]


_DIRECTION_GRAPHS = {
    "rmat": lambda: generate_rmat(RmatParams(scale=7, avg_degree=8, seed=3))[0],
    "er-sparse": lambda: build_graph(er_edges(60, 0.06, 11)),
    "er-dense": lambda: build_graph(er_edges(40, 0.3, 12)),
    "path": lambda: build_graph(path_edges(12)),
    "star": lambda: build_graph(star_edges(9)),
    "complete": lambda: build_graph(complete_edges(6)),
    "disconnected": lambda: build_graph(
        er_edges(20, 0.2, 3) + [(100 + u, 100 + v) for u, v in path_edges(5)] + [(200, 201)]
    ),
    "deep": lambda: build_graph(_deep_edges()),
}


class TestBetweennessDirections:
    """Bottom-up and top-down BFS levels give the top-down kernel's scores bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("per_block", [1, 5])
    @pytest.mark.parametrize("name", sorted(_DIRECTION_GRAPHS))
    def test_bitwise_equal_to_top_down(self, monkeypatch, name, per_block, workers):
        g = _DIRECTION_GRAPHS[name]()
        monkeypatch.setattr(centrality, "_ENTRY_BUDGET", per_block * 2 * g.m)
        blocks = [np.arange(s, min(s + per_block, g.n), dtype=np.int64) for s in range(0, g.n, per_block)]
        expected = sum((_top_down_block_dependencies(g, b) for b in blocks), np.zeros(g.n)) / 2.0
        directions = self._spy_directions(monkeypatch, g) if workers == 1 else None
        got = betweenness(g, workers=workers).values
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        if directions is not None:  # a forked worker's spy cannot report back
            assert {direction for direction, _ in directions} == {"top-down", "bottom-up"}

    def test_bottom_up_levels_find_children(self, monkeypatch):
        g = _DIRECTION_GRAPHS["rmat"]()
        monkeypatch.setattr(centrality, "_ENTRY_BUDGET", 5 * 2 * g.m)
        directions = self._spy_directions(monkeypatch, g)
        betweenness(g)
        # not only the final levels, whose unseen keys are all out of reach
        assert sum(children for direction, children in directions if direction == "bottom-up") > g.n

    @staticmethod
    def _spy_directions(monkeypatch, g):
        """Wrap the block kernel and Graph.expand; each expand call must gather exactly the level's frontier
        (top-down) or exactly its unseen keys (bottom-up). Returns (direction, children found) per level."""
        adj = {v: set(g.adjacency(v).tolist()) for v in range(g.n)}
        far = np.full((g.n, g.n), np.iinfo(np.int64).max)
        for s in range(g.n):
            for v, d in bfs_distances(adj, s).items():
                far[s, v] = d
        directions, state = [], {}
        block_kernel, expand = centrality._block_dependencies, Graph.expand

        def kernel(graph, sources):
            state.update(sources=sources, depth=0)
            return block_kernel(graph, sources)

        def spy(graph, keys):
            sources, depth = state["sources"], state["depth"]
            dist = far[sources].ravel()  # dist[b*n + v] = distance of v from source b
            children = int(np.count_nonzero(dist == depth + 1))
            if np.array_equal(keys, np.flatnonzero(dist == depth)):
                directions.append(("top-down", children))
            else:
                assert np.array_equal(keys, np.flatnonzero(dist > depth))
                directions.append(("bottom-up", children))
            state["depth"] = depth + 1
            return expand(graph, keys)

        monkeypatch.setattr(centrality, "_block_dependencies", kernel)
        monkeypatch.setattr(Graph, "expand", spy)
        return directions


class TestPermutationEquivariance:
    def test_all_metrics(self):
        rng = np.random.default_rng(0)
        edges = er_edges(25, 0.2, 123)
        g = build_graph(edges)
        perm = rng.permutation(g.n)
        relabeled = perm[np.searchsorted(g.orig_ids, np.array(edges))]
        h = build_graph(relabeled.tolist())
        # node with dense id x in g maps to dense id searchsorted(h.orig_ids, perm[x]) in h
        image = np.searchsorted(h.orig_ids, perm)
        for func in (degree_centrality, pagerank, betweenness):
            a = func(g).values
            b = func(h).values
            for dense in range(g.n):
                assert b[image[dense]] == pytest.approx(a[dense], abs=1e-9)
