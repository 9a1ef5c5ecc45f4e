"""Acceptance gate: one test per release criterion, run at stated tolerances.

Each criterion below is summarized as a PASS/FAIL line in the terminal
summary (see conftest). Budgets are asserted inside the tests themselves.
"""
import math
import time

import numpy as np
import networkx as nx
import pytest
from scipy import stats

from efgraph.analysis import correlation_report, ef_bins, immunization_experiment, seeding_experiment, spreading_sums
from efgraph.centrality import betweenness, degree_centrality, pagerank
from efgraph.epidemic import SirParams, calibrate, run_replicates, run_sir
from efgraph.expected_force import ef_cluster_centric, ef_vertex_centric
from efgraph.graph import RmatParams, build_graph, cluster_count, generate_rmat
from efgraph.cli import main as cli_main

from conftest import complete_edges, cycle_edges, er_edges, path_edges, star_edges
from oracles import (
    adjacency,
    bfs_distances,
    brute_force_betweenness,
    expected_force,
    naive_cluster_count,
)


def _mixed_random_graphs(count):
    """Alternating Erdos-Renyi and small R-MAT graphs, all with n <= 200."""
    graphs = []
    i = 0
    while len(graphs) < count:
        if i % 2 == 0:
            n = 20 + (i * 7) % 180
            p = 0.03 + 0.004 * (i % 20)
            g = build_graph(er_edges(n, p, seed=1000 + i))
        else:
            params = RmatParams(scale=5 + i % 3, avg_degree=2 + i % 5, seed=2000 + i)
            g, _ = generate_rmat(params)
        if g.n:
            graphs.append(g)
        i += 1
    return graphs


def test_c01_algorithm_equivalence_on_random_graphs():
    started = time.perf_counter()
    for g in _mixed_random_graphs(200):
        assert g.n <= 200
        a = ef_cluster_centric(g)
        b = ef_vertex_centric(g)
        assert float(np.max(np.abs(a.ef - b.ef))) < 1e-9
    assert time.perf_counter() - started < 120


def test_c02_closed_form_scores():
    cases = [
        (star_edges(3), {0: math.log(6), 1: math.log(2), 2: math.log(2), 3: math.log(2)}),
        (path_edges(4), {0: 0.0, 1: math.log(3), 2: math.log(3), 3: 0.0}),
        (complete_edges(3), {0: 0.0, 1: 0.0, 2: 0.0}),
    ]
    for edges, expected in cases:
        g = build_graph(edges)
        oracle = expected_force(adjacency(edges))
        res = ef_cluster_centric(g)
        for dense in range(g.n):
            orig = int(g.orig_ids[dense])
            assert oracle[orig] == pytest.approx(expected[orig], abs=1e-12)
            assert res.ef[dense] == pytest.approx(expected[orig], abs=1e-12)


def test_c03_cluster_count_identity():
    specs = [star_edges(5), path_edges(10), complete_edges(6), cycle_edges(9)]
    specs += [er_edges(80, 0.08, s) for s in range(4)]
    graphs = [build_graph(e) for e in specs]
    graphs.append(generate_rmat(RmatParams(scale=8, avg_degree=4, seed=77))[0])
    for edges, g in zip(specs, graphs):
        assert ef_cluster_centric(g).clusters_processed == naive_cluster_count(adjacency(edges))
    for g in graphs:
        assert ef_cluster_centric(g).clusters_processed == cluster_count(g)


def test_c04_parallel_determinism_csv_bytes(tmp_path):
    edge_file = tmp_path / "rmat_12_8.txt"
    rc = cli_main(["generate", "--scale", "12", "--avg-degree", "8", "--seed", "3",
                   "--output", str(edge_file)])
    assert rc == 0
    bodies = []
    for workers in (1, 2, 8):
        out = tmp_path / f"ef_w{workers}.csv"
        rc = cli_main(["ef", "--input", str(edge_file), "--mode", "cluster",
                       "--workers", str(workers), "--output", str(out)])
        assert rc == 0
        bodies.append(out.read_bytes())
    assert bodies[0] == bodies[1] == bodies[2]


def test_c05_performance_trend(record_property):
    started = time.perf_counter()
    throughput = {}
    timings = {}
    for m in (2, 4, 8, 16):
        g, truncated = generate_rmat(RmatParams(scale=14, avg_degree=m, seed=100 + m))
        assert not truncated
        rounds = []
        for _ in range(3):  # the median of 3 calls, so one host stall does not set the band
            t0 = time.perf_counter()
            res = ef_cluster_centric(g)
            rounds.append((time.perf_counter() - t0) * 1000)
        elapsed_ms = float(np.median(rounds))
        throughput[m] = res.clusters_processed / elapsed_ms
        timings[m] = (g, elapsed_ms)
    band = max(throughput.values()) / min(throughput.values())
    record_property("band", band)  # the acceptance summary prints these on every run, pass or fail
    record_property("clusters_per_ms", {f"d{m}": round(x) for m, x in throughput.items()})
    assert band < 3.0, f"cluster throughput varies {band:.2f}x across degrees 2..16"

    g16, cluster_ms = timings[16]
    t0 = time.perf_counter()
    ef_vertex_centric(g16)
    vertex_ms = (time.perf_counter() - t0) * 1000
    speedup = vertex_ms / cluster_ms
    assert speedup >= 5.0, f"cluster-centric only {speedup:.1f}x faster at degree 16"
    assert time.perf_counter() - started < 600


def test_c06_calibration_mean_direct_infections():
    started = time.perf_counter()
    g = build_graph(list(nx.random_regular_graph(10, 2000, seed=1234).edges()))
    assert g.avg_degree() == 10.0
    p = calibrate(g)  # r0=1.3 over 3 recovery days
    runs = run_replicates(g, p, 5000, base_seed=20240601)
    mean_direct = float(np.mean([o.direct_infections_by_index for o in runs]))
    assert 1.10 <= mean_direct <= 1.35, f"mean direct infections {mean_direct:.4f}"
    assert time.perf_counter() - started < 120


def test_c07_sir_invariants_small_graphs():
    specs = [path_edges(9), cycle_edges(12), star_edges(8), complete_edges(7)]
    specs += [er_edges(50, 0.1, s) for s in range(4)]
    for edges in specs:
        g = build_graph(edges)
        assert g.n <= 50
        adj = adjacency(edges)

        # stochastic runs: conservation + forest validity at every step
        p = SirParams(beta=0.35, mu=0.4, max_steps=5000)
        for seed in range(5):
            o = run_sir(g, p, seed % g.n, rng_seed=seed)
            assert np.all(o.series.sum(axis=1) == g.n)
            assert np.all(np.diff(o.series[:, 0]) <= 0)
            assert o.nodes[o.parents < 0].tolist() == [o.index_case]
            infected = dict(zip(o.nodes.tolist(), o.infected_at.tolist()))
            recovered = dict(zip(o.nodes.tolist(), o.recovered_at.tolist()))
            for node, par in zip(o.nodes.tolist(), o.parents.tolist()):
                if par < 0:
                    continue
                t = infected[node]
                assert infected[par] <= t - 1
                assert recovered[par] == -1 or recovered[par] >= t

        # deterministic wave equals BFS distances from every index case
        wave = SirParams(beta=1.0, mu=1.0, max_steps=5000)
        for index in range(g.n):
            o = run_sir(g, wave, index, rng_seed=7)
            dist = bfs_distances(adj, int(g.orig_ids[index]))
            assert o.ever_infected == len(dist)
            for dense, step in zip(o.nodes.tolist(), o.infected_at.tolist()):
                assert dist[int(g.orig_ids[dense])] == step


def test_c08_centrality_vs_spreading_power():
    started = time.perf_counter()
    g, _ = generate_rmat(RmatParams(scale=10, avg_degree=8, seed=1))
    p = calibrate(g)
    efres = ef_cluster_centric(g)
    runs = run_replicates(g, p, 500, base_seed=777)
    report = correlation_report(g, efres, [degree_centrality(g)], spreading_sums(runs, g.n), min_global=100)
    assert report.metadata["global_outbreaks"] >= 100
    assert report.rows[0]["metric"] != "warning"
    r = {row["metric"]: row["pearson_r"] for row in report.rows if row["order"] == 2}
    assert r["exp_ef"] > 0.5, f"exp(EF) order-2 r = {r['exp_ef']:.3f}"
    assert r["exp_ef"] >= r["degree"] - 0.1, f"exp_ef {r['exp_ef']:.3f} vs degree {r['degree']:.3f}"
    assert time.perf_counter() - started < 300


def test_c09_seeding_and_immunization_trends():
    g, _ = generate_rmat(RmatParams(scale=10, avg_degree=8, seed=1))
    p = calibrate(g)
    efres = ef_cluster_centric(g)

    bins = ef_bins(efres, k=10)
    seeding = seeding_experiment(g, p, bins, reps=100, base_seed=555)
    rho, _ = stats.spearmanr(
        [row["achieved_ef"] for row in seeding.rows],
        [row["outbreak_fraction"] for row in seeding.rows],
    )
    assert rho > 0, f"seeding trend rho = {rho:.3f}"

    immunization = immunization_experiment(
        g, p, efres, frac=0.05, scenarios=10, reps=100, base_seed=999
    )
    rho2, _ = stats.spearmanr(
        [row["mean_ef"] for row in immunization.rows],
        [row["outbreak_fraction"] for row in immunization.rows],
    )
    assert rho2 < 0, f"immunization trend rho = {rho2:.3f}"


def test_c10_baseline_centralities():
    # exact betweenness against all-pairs path counting on 50 random graphs
    checked = 0
    seed = 0
    while checked < 50:
        n = 10 + (seed * 3) % 41  # up to 50 nodes
        edges = er_edges(n, 0.12 + 0.003 * (seed % 10), seed=5000 + seed)
        seed += 1
        g = build_graph(edges)
        if g.n == 0:
            continue
        oracle = brute_force_betweenness(adjacency(edges))
        got = betweenness(g).values
        for dense in range(g.n):
            assert got[dense] == pytest.approx(oracle[int(g.orig_ids[dense])], abs=1e-9)
        checked += 1

    # PageRank uniform on C5 and on regular graphs
    c5 = build_graph(cycle_edges(5))
    assert np.max(np.abs(pagerank(c5).values - 0.2)) < 1e-6
    k7 = build_graph(complete_edges(7))
    assert np.max(np.abs(pagerank(k7).values - 1 / 7)) < 1e-6
    reg = build_graph(list(nx.random_regular_graph(6, 30, seed=8).edges()))
    assert np.max(np.abs(pagerank(reg).values - 1 / 30)) < 1e-6
