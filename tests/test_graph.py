import dataclasses
import hashlib
import io
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from efgraph import graph as graph_module
from efgraph.graph import (
    RmatParams,
    build_graph,
    cluster_count,
    generate_rmat,
    grouped_arange,
    load_edge_list,
    write_edge_list,
)

from conftest import er_edges, path_edges, star_edges
from oracles import adjacency, naive_cluster_count


class TestLoadEdgeList:
    def test_plain_pairs(self):
        edges = load_edge_list(io.StringIO("0 1\n1 2\n"))
        assert edges.tolist() == [[0, 1], [1, 2]]

    def test_comments_and_extra_tokens(self):
        edges = load_edge_list(io.StringIO("# c\n3 4 0.5\n"))
        assert edges.tolist() == [[3, 4]]

    def test_percent_comment_and_blank_lines(self):
        edges = load_edge_list(io.StringIO("% hdr\n\n5 6\n"))
        assert edges.tolist() == [[5, 6]]

    def test_malformed_token_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            load_edge_list(io.StringIO("a b\n"))

    def test_malformed_on_later_line(self):
        with pytest.raises(ValueError, match="line 3"):
            load_edge_list(io.StringIO("0 1\n# ok\n2 x\n"))

    def test_single_token_line(self):
        with pytest.raises(ValueError, match="line 2"):
            load_edge_list(io.StringIO("0 1\n7\n"))

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            load_edge_list(io.StringIO("0 -2\n"))

    def test_id_beyond_int64_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            load_edge_list(io.StringIO(f"0 1\n{2**63} 1\n"))
        assert load_edge_list(io.StringIO(f"{2**63 - 1} 0\n")).tolist() == [[2**63 - 1, 0]]

    def test_empty_input(self):
        assert load_edge_list(io.StringIO("")).shape == (0, 2)

    def test_duplicates_kept_in_order(self):
        edges = load_edge_list(io.StringIO("1 0\n1 0\n0 0\n"))
        assert edges.tolist() == [[1, 0], [1, 0], [0, 0]]


_LOOP_INPUTS = [
    ("# c\n0 1\n", [[0, 1]]),
    ("% c\n0 1\n", [[0, 1]]),
    ("0 1\n\n2 3\n", [[0, 1], [2, 3]]),
    ("0 1 0.5\n", [[0, 1]]),
    ("0 1 2\n", [[0, 1]]),
    ("0\t1\n", [[0, 1]]),
    ("0  1\n", [[0, 1]]),
    ("0 1\r\n2 3\r\n", [[0, 1], [2, 3]]),
    (" 0 1\n", [[0, 1]]),
    ("0 1 \n", [[0, 1]]),
    ("0 1\n7\n", "line 2: expected at least 2 tokens, got 1"),
    ("0 -2\n", "line 1: negative node id in (0, -2)"),
    ("1234567890123456789 1\n", [[1234567890123456789, 1]]),
    ("12345678901234567890 1\n",
     "line 1: node id in (12345678901234567890, 1) exceeds the int64 maximum 9223372036854775807"),
    ("0 1\n2 3", [[0, 1], [2, 3]]),
    ("", []),
]


class TestParseFastPath:
    def test_matches_line_loop_on_written_edge_lists(self):
        rng = np.random.default_rng(3)
        for seed in range(6):
            edges = np.array(er_edges(80, 0.06, seed), dtype=np.int64)
            ids = np.unique(rng.integers(0, 10 ** (3 * seed + 3), size=400))[:79]
            ids = rng.permutation(np.append(ids, 10**18 - 1))  # 10**18 - 1: the widest fast-path token
            buf = io.StringIO()
            write_edge_list(build_graph(ids[edges]), buf)
            text = buf.getvalue()
            fast = graph_module._parse_plain_pairs(text)
            assert fast is not None and fast.dtype == np.int64
            loop = load_edge_list(io.StringIO("# a comment sends this through the line loop\n" + text))
            assert np.array_equal(fast, loop)
            assert np.array_equal(load_edge_list(io.StringIO(text)), loop)

    @pytest.mark.parametrize("text,want", _LOOP_INPUTS)
    def test_other_inputs_take_the_line_loop(self, text, want):
        assert graph_module._parse_plain_pairs(text) is None
        if isinstance(want, str):
            with pytest.raises(ValueError, match=re.escape(want)):
                load_edge_list(io.StringIO(text))
        else:
            edges = load_edge_list(io.StringIO(text))
            assert edges.dtype == np.int64 and edges.shape == (len(want), 2)
            assert edges.tolist() == want


# all mass on the diagonal quadrants' corner: every R-MAT draw is a self-loop
_ALL_SELF_LOOPS = RmatParams(scale=1, avg_degree=1, quadrant_probs=(1.0, 0.0, 0.0, 0.0), seed=0)


class TestBuildGraph:
    def test_dedupe_and_self_loop_drop(self):
        g = build_graph([(0, 1), (1, 0), (2, 2)])
        assert (g.n, g.m) == (2, 1)
        assert g.adjacency(0).tolist() == [1]

    def test_triangle(self):
        g = build_graph([(0, 1), (1, 2), (0, 2)])
        assert (g.n, g.m) == (3, 3)
        assert all(len(g.adjacency(v)) == 2 for v in range(3))

    def test_dense_relabeling(self):
        g = build_graph([(5, 9)])
        assert (g.n, g.m) == (2, 1)
        assert g.orig_ids.tolist() == [5, 9]

    def test_empty_and_self_loop_only(self):
        all_self_loops, truncated = generate_rmat(_ALL_SELF_LOOPS)
        assert truncated
        for g in (build_graph([]), build_graph([(3, 3)]), build_graph(np.zeros((0, 2), dtype=np.int64)),
                  all_self_loops):
            assert (g.n, g.m) == (0, 0)
            assert g.offsets.dtype == np.int64 and g.offsets.tolist() == [0]
            assert g.neighbors.dtype == np.int32 and g.neighbors.size == 0
            assert g.orig_ids.dtype == np.int64 and g.orig_ids.size == 0

    def test_csr_matches_oracle_adjacency(self):
        for seed in range(4):
            edges = [(3 * u + 10**12, 3 * v + 10**12) for u, v in er_edges(70, 0.1, seed)]
            edges += edges[:5] + [(v, u) for u, v in edges[5:9]] + [(edges[0][0], edges[0][0])]
            g = build_graph(edges)
            adj = adjacency(edges)
            assert g.orig_ids.tolist() == sorted(adj) and g.orig_ids.dtype == np.int64
            assert (g.n, g.m) == (len(adj), sum(map(len, adj.values())) // 2)
            assert g.offsets.dtype == np.int64 and g.neighbors.dtype == np.int32
            for v, o in enumerate(g.orig_ids.tolist()):
                assert g.orig_ids[g.adjacency(v)].tolist() == sorted(adj[o])

    @pytest.mark.parametrize("edges", [[(-15, 2), (2, 7)], [(0, 1), (-1, -1)]], ids=["edge", "self-loop"])
    def test_negative_id_rejected(self, edges):
        # write_edge_list and write_ef_csv assume ids >= 0, as load_edge_list enforces
        with pytest.raises(ValueError, match="negative node id"):
            build_graph(edges)

    def test_csr_build_forms_no_row_id_array(self):
        g, _ = generate_rmat(RmatParams(scale=14, avg_degree=16, seed=116))
        buf = io.StringIO()
        write_edge_list(g, buf)
        buf.seek(0)
        edges = load_edge_list(buf)
        tracemalloc.start()
        try:
            build_graph(edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured peaks: 12.17 MiB when the sorted 2m keys were split into
        # row and neighbor id arrays and the rows bincounted into offsets,
        # 8.17 MiB with offsets searched in the keys and neighbors read in place.
        assert peak < 10 * 2**20

    def test_isolated_nodes_absent(self):
        # node 7 appears only in a self-loop: dropped entirely
        g = build_graph([(0, 1), (7, 7)])
        assert g.n == 2

    def test_structural_invariants_random(self):
        for seed in range(8):
            g = build_graph(er_edges(60, 0.08, seed))
            deg = g.degrees()
            assert int(deg.sum()) == 2 * g.m
            assert deg.min() >= 1
            for v in range(g.n):
                adj = g.adjacency(v)
                assert np.all(np.diff(adj) > 0)  # strictly ascending
            rng = np.random.default_rng(seed)
            for _ in range(50):
                u, v = rng.integers(0, g.n, 2)
                assert (v in g.adjacency(int(u))) == (u in g.adjacency(int(v)))


class TestQueries:
    def test_degree_and_has_edge(self):
        tri = build_graph([(0, 1), (1, 2), (0, 2)])
        assert tri.degrees()[0] == len(tri.adjacency(0)) == 2
        assert 2 in tri.adjacency(0)
        p3 = build_graph(path_edges(3))
        assert 2 not in p3.adjacency(0)
        assert 1 not in p3.adjacency(1)

    def test_avg_degree_star(self):
        g = build_graph(star_edges(3))
        assert g.avg_degree() == 6 / 4

    def test_out_of_range_ids(self):
        g = build_graph(path_edges(3))
        with pytest.raises(ValueError):
            g.adjacency(3)
        with pytest.raises(ValueError):
            g.adjacency(-1)
        with pytest.raises(ValueError):
            g.adjacency(99)

    @pytest.mark.parametrize("make", [lambda: build_graph([(0, 1), (1, 2)]),
                                      lambda: generate_rmat(RmatParams(scale=4, avg_degree=2))[0]],
                             ids=["build_graph", "generate_rmat"])
    def test_graph_is_immutable(self, make):
        g = make()
        before = g.neighbors.copy()
        with pytest.raises(ValueError):
            g.adjacency(1)[0] = 2
        assert g.neighbors.tolist() == before.tolist()
        for arr in (g.offsets, g.neighbors, g.orig_ids):
            with pytest.raises(ValueError):
                arr[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.n = 7


class TestExpand:
    @staticmethod
    def _check(g, keys, dtype=np.int64):
        keys = np.asarray(keys, dtype=dtype)
        nbr_keys, counts = g.expand(keys)
        want = [k - k % g.n + g.adjacency(int(k % g.n)).astype(dtype) for k in keys]
        assert nbr_keys.dtype == dtype
        assert np.array_equal(nbr_keys, np.concatenate(want) if want else np.zeros(0, dtype=dtype))
        assert np.array_equal(counts, g.degrees()[keys % g.n])
        assert np.array_equal(counts, [a.size for a in want])

    def test_random_node_lists_with_repeats(self, rmat_10_8):
        n = rmat_10_8.n
        for dtype in (np.int64, np.int32):
            rng = np.random.default_rng(3)
            for size, lanes in ((1, 1), (2, 3), (17, 5), (500, 40), (3 * n, 2)):
                self._check(rmat_10_8, rng.integers(0, lanes * n, size), dtype)
            self._check(rmat_10_8, np.arange(n), dtype)
            self._check(rmat_10_8, np.arange(4 * n)[::-1], dtype)
            self._check(rmat_10_8, np.sort(rng.integers(0, 9 * n, 2 * n)), dtype)

    def test_single_node_and_empty_input(self):
        g = build_graph(star_edges(5) + path_edges(3))
        for dtype in (np.int64, np.int32):
            for k in range(3 * g.n):  # three lanes
                self._check(g, [k], dtype)
            nbr_keys, counts = g.expand(np.zeros(0, dtype=dtype))
            assert nbr_keys.size == 0 and counts.size == 0 and nbr_keys.dtype == dtype

    def test_grouped_arange(self):
        rng = np.random.default_rng(8)
        starts = rng.integers(-50, 1000, 300)
        lengths = rng.integers(0, 6, 300)  # zero-length groups included
        want = np.concatenate([np.arange(s, s + k) for s, k in zip(starts, lengths)])
        idx, ends = grouped_arange(starts, lengths)
        assert np.array_equal(idx, want)
        assert np.array_equal(ends, np.cumsum(lengths))
        idx, ends = grouped_arange(np.array([4]), np.array([3]))
        assert idx.tolist() == [4, 5, 6] and ends.tolist() == [3]
        idx, ends = grouped_arange(np.zeros(0, np.int64), np.zeros(0, np.int64))
        assert idx.size == 0 and ends.size == 0


class TestClusterCount:
    def test_star(self):
        assert cluster_count(build_graph(star_edges(3))) == 3

    def test_triangle(self):
        assert cluster_count(build_graph([(0, 1), (1, 2), (0, 2)])) == 3

    def test_single_edge(self):
        assert cluster_count(build_graph([(0, 1)])) == 0

    def test_matches_naive_triple_loop(self):
        for seed in range(3):
            edges = er_edges(200, 0.05, 100 + seed)
            g = build_graph(edges)
            assert cluster_count(g) == naive_cluster_count(adjacency(edges))


class TestRmat:
    def test_smallest_instance(self):
        g, _ = generate_rmat(RmatParams(scale=1, avg_degree=1, seed=3))
        assert g.n <= 2 and g.m <= 1

    def test_determinism(self):
        a, ta = generate_rmat(RmatParams(scale=8, avg_degree=4, seed=11))
        b, tb = generate_rmat(RmatParams(scale=8, avg_degree=4, seed=11))
        assert ta == tb
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.neighbors, b.neighbors)
        assert np.array_equal(a.orig_ids, b.orig_ids)

    def test_structural_bounds_scale16(self):
        params = RmatParams(scale=16, avg_degree=8, seed=42)
        g, truncated = generate_rmat(params)
        assert not truncated
        assert g.m == (2**16 * 8) // 2
        assert g.n <= 2**16
        # isolated-node removal pushes 2m/n to at least the target M
        assert g.avg_degree() >= 8 * 0.9
        assert g.avg_degree() <= 8 * 3

    def test_truncation_flag(self):
        g, truncated = generate_rmat(_ALL_SELF_LOOPS)
        assert truncated
        assert g.n == 0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            RmatParams(scale=0, avg_degree=1)
        with pytest.raises(ValueError):
            RmatParams(scale=4, avg_degree=0)
        with pytest.raises(ValueError):
            RmatParams(scale=4, avg_degree=2, quadrant_probs=(0.5, 0.5, 0.5, 0.5))
        for bad in (math.nan, math.inf):  # NaN passes both a sign and a sum test
            for probs in ((bad, 0.19, 0.19, 0.05), (0.57, 0.19, 0.19, bad)):
                with pytest.raises(ValueError, match="4 nonnegative reals"):
                    RmatParams(scale=6, avg_degree=4, quadrant_probs=probs)

    def test_scale_capped_at_int32_ids(self):
        assert RmatParams(scale=31, avg_degree=1).scale == 31  # validation allocates nothing
        for scale in (32, 40):
            with pytest.raises(ValueError, match="scale"):
                RmatParams(scale=scale, avg_degree=1)

    # sha256 of write_edge_list(generate_rmat(params)); the first two are perfbench/golden.json's
    # edge_list_sha256 for ef-dense generate seed 116 and correlation-s12 generate seed 1
    @pytest.mark.parametrize("params,truncated,digest", [
        (RmatParams(scale=14, avg_degree=16, seed=116), False,
         "032658fa5ae5cfd0f82f5ed17affb70d05dda656c60daa8ca39869c10b6d238f"),
        (RmatParams(scale=12, avg_degree=8, seed=1), False,
         "e0ef9bb66a039ad8ad3e8b8baf4cd0431849405611ebd8f3469b50d18cf050ea"),
        # skewed: 14 batches, each after the first drawn because the one before left edges to find
        (RmatParams(scale=8, avg_degree=8, seed=2, quadrant_probs=(0.85, 0.05, 0.05, 0.05)), False,
         "19659f52d4510c7190b4db6e46378c6d930fb093accf32ee4b84d0f38d010bf4"),
        # 3 batches, then the 20x attempt cap: 56 of the 128 target edges
        (RmatParams(scale=5, avg_degree=8, seed=3, quadrant_probs=(0.9, 0.04, 0.04, 0.02)), True,
         "39969a172b420b8324c84bcb599757e0155bca8094614f28bdf2ed6ca8b7bddb"),
    ], ids=["s14-d16-seed116", "s12-d8-seed1", "skewed-multi-batch", "truncated"])
    def test_edge_list_bytes_pinned(self, params, truncated, digest):
        g, got_truncated = generate_rmat(params)
        buf = io.StringIO()
        write_edge_list(g, buf)
        assert got_truncated == truncated
        assert hashlib.sha256(buf.getvalue().encode("ascii")).hexdigest() == digest

    # the graphs test_edge_list_bytes_pinned pins, and the empty one
    @pytest.mark.parametrize("params", [
        RmatParams(scale=14, avg_degree=16, seed=116),
        RmatParams(scale=12, avg_degree=8, seed=1),
        RmatParams(scale=8, avg_degree=8, seed=2, quadrant_probs=(0.85, 0.05, 0.05, 0.05)),
        RmatParams(scale=5, avg_degree=8, seed=3, quadrant_probs=(0.9, 0.04, 0.04, 0.02)),
        _ALL_SELF_LOOPS,
    ], ids=["s14-d16-seed116", "s12-d8-seed1", "skewed-multi-batch", "truncated", "all-self-loops"])
    def test_graph_equals_build_graph_of_its_edges(self, params):
        g, _ = generate_rmat(params)
        src = np.repeat(np.arange(g.n), g.degrees())  # each edge in both directions
        h = build_graph(np.stack([g.orig_ids[src], g.orig_ids[g.neighbors]], axis=1))
        assert (g.n, g.m) == (h.n, h.m)
        for name in ("offsets", "neighbors", "orig_ids"):
            got, want = getattr(g, name), getattr(h, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_target_beyond_memory_refused_before_sampling(self):
        started = time.perf_counter()
        with pytest.raises(ValueError, match=r"8589934592 edges needs about 1024.0 GiB .* physical memory"):
            generate_rmat(RmatParams(scale=30, avg_degree=16))
        assert time.perf_counter() - started < 1


class TestExport:
    def test_round_trip_and_ordering(self):
        edges = [(9, 5), (5, 3), (9, 3), (3, 1)]
        g = build_graph(edges)
        buf = io.StringIO()
        write_edge_list(g, buf)
        lines = buf.getvalue().strip().splitlines()
        pairs = [tuple(map(int, ln.split())) for ln in lines]
        assert pairs == sorted(pairs)
        assert all(u < v for u, v in pairs)
        g2 = build_graph(load_edge_list(io.StringIO(buf.getvalue())))
        assert np.array_equal(g.orig_ids, g2.orig_ids)
        assert np.array_equal(g.neighbors, g2.neighbors)

    @pytest.mark.parametrize("rows_per_write", [3, graph_module._WRITE_ROWS])
    def test_bytes_match_fstring_lines_for_every_id_width(self, monkeypatch, rows_per_write):
        ids = {0, 9, 10, 2**63 - 1}
        rng = np.random.default_rng(8)
        for width in range(1, 20):
            low, high = 10 ** (width - 1) if width > 1 else 0, min(10**width - 1, 2**63 - 1)
            ids.update([low, high, int(rng.integers(low, high, endpoint=True))])
        ids = rng.permutation(np.array(sorted(ids), dtype=np.int64))
        edges = [(i, i + 1) for i in range(ids.size - 1)] + er_edges(ids.size, 0.2, 9)
        g = build_graph(ids[np.array(edges)])
        assert g.n == ids.size
        monkeypatch.setattr(graph_module, "_WRITE_ROWS", rows_per_write)
        buf = io.StringIO()
        write_edge_list(g, buf)
        want = "".join(f"{int(g.orig_ids[s])} {int(g.orig_ids[t])}\n"
                       for s in range(g.n) for t in g.adjacency(s) if t > s)
        assert buf.getvalue() == want

    def test_empty_graph_writes_nothing(self):
        buf = io.StringIO()
        write_edge_list(build_graph([]), buf)
        assert buf.getvalue() == ""
