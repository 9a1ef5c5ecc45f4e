import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from efgraph import expected_force as ef_module
from efgraph.expected_force import (
    FLAG_NO_CLUSTERS,
    FLAG_OK,
    FLAG_ZERO_DEGREE_CLUSTERS,
    ef,
    ef_cluster_centric,
    ef_vertex_centric,
)
from efgraph.graph import RmatParams, build_graph, cluster_count, generate_rmat

from conftest import complete_edges, er_edges, path_edges, star_edges
from oracles import adjacency, expected_force, triangles
from test_acceptance import _mixed_random_graphs


def _assert_matches_oracle(edges, result, g, tol=1e-9):
    oracle = expected_force(adjacency(edges))
    for dense in range(g.n):
        want = oracle[int(g.orig_ids[dense])]
        assert result.ef[dense] == pytest.approx(want, abs=tol)


def _entropy(hist):
    """Score of one node whose cluster-degree histogram is hist, through the shared entropy pass."""
    degs = np.array(sorted(hist), dtype=np.int64)
    counts = np.array([hist[d] for d in sorted(hist)], dtype=np.int64)
    log_table = ef_module._log_table(np.array([max(hist, default=0)]))
    efv, _, flags = ef_module._scores_from_histograms(1, np.zeros(degs.size, np.int64), degs, counts, log_table)
    want_flag = FLAG_NO_CLUSTERS if not hist else FLAG_ZERO_DEGREE_CLUSTERS if set(hist) == {0} else FLAG_OK
    assert flags[0] == want_flag
    return efv[0]


class TestEntropy:
    def test_uniform_six(self):
        assert _entropy({1: 6}) == pytest.approx(math.log(6), abs=1e-12)

    def test_empty_and_zero_degree(self):
        assert _entropy({}) == 0.0
        assert _entropy({0: 4}) == 0.0

    def test_mixed_degrees(self):
        assert _entropy({1: 2, 2: 1}) == pytest.approx(1.5 * math.log(2), abs=1e-12)

    def test_zero_key_ignored_alongside_mass(self):
        assert _entropy({0: 10, 1: 6}) == pytest.approx(math.log(6), abs=1e-12)


class TestClosedForms:
    def test_star(self):
        edges = star_edges(3)
        g = build_graph(edges)
        res = ef_cluster_centric(g)
        assert res.ef[0] == pytest.approx(math.log(6), abs=1e-12)
        for leaf in (1, 2, 3):
            assert res.ef[leaf] == pytest.approx(math.log(2), abs=1e-12)
        _assert_matches_oracle(edges, res, g)

    def test_path4(self):
        edges = path_edges(4)
        g = build_graph(edges)
        res = ef_vertex_centric(g)
        assert res.ef[0] == 0.0 and res.ef[3] == 0.0
        assert res.ef[1] == pytest.approx(math.log(3), abs=1e-12)
        assert res.ef[2] == pytest.approx(math.log(3), abs=1e-12)
        _assert_matches_oracle(edges, res, g)

    def test_triangle_all_zero(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        g = build_graph(edges)
        for mode in ("cluster", "vertex"):
            assert np.all(ef(g, mode=mode).ef == 0.0)


class TestModeEquivalence:
    def test_small_random_graphs(self):
        for seed in range(20):
            edges = er_edges(80, 0.08, 300 + seed)
            if not edges:
                continue
            g = build_graph(edges)
            a = ef_cluster_centric(g)
            b = ef_vertex_centric(g)
            assert np.max(np.abs(a.ef - b.ef)) < 1e-9
            assert np.array_equal(a.cluster_total, b.cluster_total)
            _assert_matches_oracle(edges, a, g)

    def test_dispatch(self):
        g = build_graph(path_edges(4))
        assert np.array_equal(ef(g, mode="cluster").ef, ef(g, mode="vertex").ef)
        with pytest.raises(ValueError):
            ef(g, mode="edge_centric")
        with pytest.raises(ValueError, match="unknown mode"):
            ef(g, mode="cluster_centric")


class TestDeterminism:
    def test_workers_and_chunks_bitwise(self, monkeypatch):
        g, _ = generate_rmat(RmatParams(scale=9, avg_degree=6, seed=5))
        base = ef_cluster_centric(g, workers=1)
        for budget in (16, 97, 4096):  # the entry budget alone cuts the owner chunks
            monkeypatch.setattr(ef_module, "_ENTRY_BUDGET", budget)
            for workers in (2, 4, 8):
                other = ef_cluster_centric(g, workers=workers)
                assert np.array_equal(base.ef, other.ef)
                assert np.array_equal(base.cluster_total, other.cluster_total)

    def test_vertex_workers_bitwise(self):
        g, _ = generate_rmat(RmatParams(scale=8, avg_degree=4, seed=5))
        base = ef_vertex_centric(g, workers=1)
        assert np.array_equal(base.ef, ef_vertex_centric(g, workers=4).ef)

    def test_invalid_worker_args(self):
        g = build_graph(path_edges(3))
        with pytest.raises(ValueError):
            ef_cluster_centric(g, workers=0)


class TestHistogramInvariants:
    def test_mass_identity(self, small_test_graphs):
        # total multiplicity = 2*C(deg(v),2) + sum over neighbors of (deg-1)
        for g in small_test_graphs:
            res = ef_cluster_centric(g)
            deg = g.degrees()
            for v in range(g.n):
                nbr_deg = deg[g.adjacency(v)]
                want = deg[v] * (deg[v] - 1) + int((nbr_deg - 1).sum())
                assert int(res.cluster_total[v]) == want

    def test_entropy_bound(self, small_test_graphs):
        for g in small_test_graphs:
            res = ef_cluster_centric(g)
            assert np.all(res.ef >= 0.0)
            live = res.cluster_total >= 1
            assert np.all(res.ef[live] <= np.log(res.cluster_total[live]) + 1e-12)

    def test_flags(self):
        res = ef_cluster_centric(build_graph([(0, 1)]))
        assert list(res.flags) == [FLAG_NO_CLUSTERS, FLAG_NO_CLUSTERS]
        res = ef_cluster_centric(build_graph([(0, 1), (1, 2), (0, 2)]))
        assert set(res.flags) == {FLAG_ZERO_DEGREE_CLUSTERS}
        res = ef_cluster_centric(build_graph(star_edges(3)))
        assert set(res.flags) == {FLAG_OK}

    def test_single_cluster_degeneracy(self):
        # endpoint of P4 owns exactly one cluster: entropy must vanish
        res = ef_cluster_centric(build_graph(path_edges(4)))
        assert res.cluster_total[0] == 1 and res.ef[0] == 0.0


class TestEmptyGraph:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("edges", [[], [(3, 3)]], ids=["no-edges", "self-loop-only"])
    @pytest.mark.parametrize("algorithm", [ef_cluster_centric, ef_vertex_centric], ids=["cluster", "vertex"])
    def test_zero_length_results(self, algorithm, edges, workers):
        g = build_graph(edges)
        assert g.n == 0
        res = algorithm(g, workers=workers)
        for got, dtype in ((res.ef, np.float64), (res.cluster_total, np.int64), (res.flags, np.uint8)):
            assert got.dtype == dtype and got.shape == (0,)
        assert res.clusters_processed == 0


class TestProcessedCounts:
    def test_cluster_mode_counts_each_triplet_once(self, small_test_graphs):
        for g in small_test_graphs:
            res = ef_cluster_centric(g)
            assert res.clusters_processed == cluster_count(g)

    def test_vertex_mode_revisits(self):
        g = build_graph(complete_edges(5))
        res = ef_vertex_centric(g)
        assert res.clusters_processed == 3 * cluster_count(g)


def _assert_bitwise_equal(a, b):
    assert a.ef.tobytes() == b.ef.tobytes()
    assert a.cluster_total.tobytes() == b.cluster_total.tobytes()
    assert a.flags.tobytes() == b.flags.tobytes()


def _edge_case_graphs():
    hub_leaves = 750  # C(750, 2) = 280,875 clusters at the hub
    spider = [(0, i) for i in range(1, 6)] + [(i, i + 5) for i in range(1, 6)]
    specs = [
        star_edges(hub_leaves),
        complete_edges(12),  # every cluster is a triangle
        path_edges(6),  # degree-1 ends next to degree-2 nodes
        spider,  # degree-1 feet on degree-2 legs around a hub
        [(0, 1)],  # isolated edge: only zero-count classes
        star_edges(4) + complete_edges(4),  # triangles sharing the hub
    ]
    return [build_graph(edges) for edges in specs]


class TestBitwiseEquivalence:
    def test_c01_graphs(self):
        for g in _mixed_random_graphs(200):
            _assert_bitwise_equal(ef_cluster_centric(g), ef_vertex_centric(g))

    def test_edge_case_graphs(self):
        graphs = _edge_case_graphs()
        assert cluster_count(graphs[0]) > ef_module._ENTRY_BUDGET
        for g in graphs:
            _assert_bitwise_equal(ef_cluster_centric(g), ef_vertex_centric(g))

    def test_tiny_budget_splits_owners_and_batches(self, monkeypatch):
        graphs = _edge_case_graphs()[1:] + _mixed_random_graphs(12)
        graphs.append(build_graph(star_edges(40) + [(i, i + 1) for i in range(1, 40)]))
        want = [ef_vertex_centric(g) for g in graphs]
        monkeypatch.setattr(ef_module, "_ENTRY_BUDGET", 16)
        for g, ref in zip(graphs, want):
            _assert_bitwise_equal(ef_cluster_centric(g), ref)
            _assert_bitwise_equal(ef_cluster_centric(g, workers=3), ref)


def _triangle_cases():
    rmat_hubs, _ = generate_rmat(RmatParams(scale=9, avg_degree=16, quadrant_probs=(0.65, 0.15, 0.15, 0.05), seed=5))
    cases = [build_graph(er_edges(60, 0.15, seed)) for seed in range(3)]
    cases += [build_graph(complete_edges(k)) for k in (3, 4, 9)]
    cases += [rmat_hubs, build_graph(star_edges(6) + path_edges(4))]
    return cases


class TestTriangleKeys:
    def test_matches_brute_force_triangles(self, monkeypatch):
        key_limit = ef_module._KEY_LIMIT
        longest_chain = 0
        for g in _triangle_cases():
            deg = g.degrees()
            owner = np.repeat(np.arange(g.n, dtype=np.int64), deg)
            nbr = g.neighbors.astype(np.int64)
            span = 2 * int(deg.max()) + 1

            edges = [(int(g.orig_ids[u]), int(g.orig_ids[v])) for u, v in zip(owner, nbr)]
            want = {}
            for tri in triangles(adjacency(edges)):
                dense = np.searchsorted(g.orig_ids, tri).tolist()
                for x in dense:
                    key = (x, sum(int(deg[y]) for y in dense if y != x))
                    want[key] = want.get(key, 0) + 1
            for limit in (key_limit, span, 7 * span + 5):  # one bucket, then 1 and 7 members per bucket
                monkeypatch.setattr(ef_module, "_KEY_LIMIT", limit)
                sums = ef_module._triangle_partner_sums(g, deg, owner, nbr, span)
                assert _partner_sum_counts(g.n, *sums) == want

            und = owner < nbr
            codes = owner[und] * g.n + nbr[und]
            table = ef_module._edge_table(codes)
            stored = np.flatnonzero(table >= 0)
            assert np.array_equal(np.sort(table[stored]), codes)
            chain = (stored - ef_module._home_slots(table[stored], table.size)) % table.size + 1
            longest_chain = max(longest_chain, int(chain.max()))
            queries = np.arange(g.n * g.n, dtype=np.int64)
            assert np.array_equal(ef_module._in_table(table, queries), np.isin(queries, codes))
        assert longest_chain > 1  # linear probing past the home slot is exercised


def _partner_sum_counts(n, tri_t, tri_off):
    """{(member, t): triangles} from _triangle_partner_sums' per-member lists, checking their layout."""
    assert tri_t.dtype == np.int32
    assert tri_off.size == n + 1 and tri_off[-1] == tri_t.size
    got = {}
    for x in range(n):
        ts = tri_t[tri_off[x] : tri_off[x + 1]].tolist()
        assert ts == sorted(ts)  # each member's t ascend
        for t in ts:
            got[(x, t)] = got.get((x, t), 0) + 1
    return got


def _brute_partner_sum_counts(g):
    """{(member, t): triangles}, each triangle found by intersecting the neighbor sets of its edges' endpoints."""
    deg = g.degrees().tolist()
    adj = [set(g.adjacency(x).tolist()) for x in range(g.n)]
    want = {}
    for x in range(g.n):
        for y in adj[x]:
            if x < y:
                for z in adj[x] & adj[y]:
                    if y < z:  # x < y < z: once per triangle
                        for v, t in ((x, deg[y] + deg[z]), (y, deg[x] + deg[z]), (z, deg[x] + deg[y])):
                            want[(v, t)] = want.get((v, t), 0) + 1
    return want


class TestBucketedKeys:
    def test_split_buckets_match_one_bucket_and_vertex_centric(self, monkeypatch):
        graphs = _mixed_random_graphs(200) + _edge_case_graphs()[1:]
        want = [(ef_cluster_centric(g), ef_vertex_centric(g)) for g in graphs]
        for g, (one_bucket, vertex) in zip(graphs, want):
            span = 2 * int(g.degrees().max()) + 1  # the span the kernel passes to the listing
            for limit in (span, 7 * span + 5):  # 1 and 7 members per bucket
                monkeypatch.setattr(ef_module, "_KEY_LIMIT", limit)
                got = ef_cluster_centric(g)
                _assert_bitwise_equal(got, one_bucket)
                _assert_bitwise_equal(got, vertex)

    def test_star_with_chords_beyond_int32_products(self):
        leaves = 50_000
        g = build_graph(star_edges(leaves) + [(i, i + 1) for i in range(1, leaves, 2)])
        deg = g.degrees()
        assert g.n * (int(deg.max()) + 1) > 2**31  # class keys, edge codes and member keys overflow int32 products
        kernel = ef_module._DegreeClassKernel(g)
        assert _partner_sum_counts(g.n, kernel.tri_t, kernel.tri_off) == _brute_partner_sum_counts(g)
        classes = [sorted(Counter(deg[g.adjacency(x)].tolist()).items()) for x in range(g.n)]
        cnode = np.repeat(np.arange(g.n), np.diff(kernel.coff))
        assert list(zip(cnode.tolist(), kernel.cdeg.tolist(), kernel.ccnt.tolist())) == [
            (x, d, float(c)) for x, cls in enumerate(classes) for d, c in cls
        ]


class TestMemoryBound:
    def test_peak_allocation_follows_entry_budget(self):
        g, _ = generate_rmat(RmatParams(scale=13, avg_degree=16, seed=1))
        budget_bytes = 8 * ef_module._ENTRY_BUDGET
        kernel = ef_module._DegreeClassKernel(g)
        kernel_bytes = sum(a.nbytes for a in vars(kernel).values() if isinstance(a, np.ndarray))
        del kernel
        tracemalloc.start()
        try:
            ef_cluster_centric(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Beyond its graph-sized arrays the kernel holds a few budget-sized
        # batches: measured 10.9 MB + 5.8 budgets = 23.2 MB here, the set-up's
        # own peak (the chunk loop peaks at 19.8 MB), where the sort-based
        # kernel it replaced needed ~600 MB.
        assert peak < kernel_bytes + 24 * budget_bytes

    def test_triangle_listing_holds_no_global_key_array(self):
        g, _ = generate_rmat(RmatParams(scale=13, avg_degree=16, seed=1))
        tracemalloc.start()
        try:
            ef_module._DegreeClassKernel(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured set-up peaks here: 47.7 MB when every triangle's three
        # member keys were held as int64 and sorted together, 30.7 MB with
        # int32 sums for the lowest member and int64 keys only for the other
        # two, 23.2 MB with one int32 list per member. The bound sits 9 MB
        # below the first.
        assert peak < 38e6

    def test_kernel_holds_only_what_chunks_read(self):
        g, _ = generate_rmat(RmatParams(scale=13, avg_degree=16, seed=1))
        tracemalloc.start()
        try:
            kernel = ef_module._DegreeClassKernel(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in vars(kernel).values() if isinstance(a, np.ndarray))
        # Measured on this graph, kernel held / set-up peak: 10.43 / 22.09 MiB
        # when the kernel kept graph-sized slot owners, class owners, class
        # ends and slot costs and built its classes before listing triangles;
        # 7.56 / 19.26 MiB with chunks rebuilding their slices and triangles
        # listed first.
        assert held < 9 * 2**20
        assert peak < 21 * 2**20

    def test_setup_keeps_ids_and_keys_in_32_bits(self):
        g, _ = generate_rmat(RmatParams(scale=13, avg_degree=16, seed=1))
        tracemalloc.start()
        try:
            ef_module._DegreeClassKernel(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured set-up peaks here (traced, so the full 3 * wedges bound of
        # member keys counts): 29.3 MiB with int64 node ids and int64 keys,
        # 21.4 MiB with int32 ids and bucketed int32 keys, 22.1 MiB with one
        # bucketed int32 list per member. The bound sits 2.9 MiB above the
        # last and 4.3 MiB below the first.
        assert peak < 25 * 2**20
