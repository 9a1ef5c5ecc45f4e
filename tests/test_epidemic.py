import dataclasses

import numpy as np
import pytest

from efgraph import epidemic
from efgraph.epidemic import (
    SimConfig,
    SimOutcome,
    SirParams,
    calibrate,
    epidemic_length,
    is_global_outbreak,
    outcome_record,
    run_replicates,
    run_sir,
    spreading_power,
    time_to_peak,
)
from efgraph.graph import build_graph

from conftest import complete_edges, cycle_edges, er_edges, path_edges, star_edges
from oracles import adjacency, bfs_distances


def _forest_outcome(parent, infected_step, n=10, index=None):
    """Hand-built outcome for forest-only operations; parent lists nodes in infection order."""
    if index is None:
        index = next(node for node, par in parent.items() if par is None)
    return SimOutcome(
        series=np.array([[n - 1, 1, 0], [n - len(parent), 0, len(parent)]]),
        nodes=np.array(list(parent), dtype=np.int32),
        parents=np.array([-1 if p is None else p for p in parent.values()], dtype=np.int32),
        infected_at=np.array([infected_step[v] for v in parent], dtype=np.int32),
        recovered_at=np.full(len(parent), -1, dtype=np.int32),
        direct_infections_by_index=sum(1 for p in parent.values() if p == index),
        steps=1,
        truncated=False,
        index_case=index,
        immunized_count=0,
        n=n,
    )


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SirParams(beta=-0.1, mu=0.5, max_steps=10)
        with pytest.raises(ValueError):
            SirParams(beta=0.5, mu=0.0, max_steps=10)
        with pytest.raises(ValueError):
            SirParams(beta=0.5, mu=0.5, max_steps=0)

    def test_index_not_immunized(self):
        with pytest.raises(ValueError):
            SimConfig(index_case=1, immunized=frozenset({1}))


class TestCalibrate:
    def test_reference_values(self):
        g = build_graph(complete_edges(11))  # every degree 10
        p = calibrate(g)
        assert p.mu == pytest.approx(1 / 3, abs=1e-15)
        assert p.beta == pytest.approx(1.3 / 30, abs=1e-12)

    def test_boundary_beta_one(self):
        # 20 nodes, 13 edges: average degree exactly 1.3
        edges = [(100 + 2 * i, 101 + 2 * i) for i in range(6)] + path_edges(8)
        g = build_graph(edges)
        assert g.n == 20 and g.m == 13
        p = calibrate(g, r0=1.3, recovery_days=1)
        assert p.beta == 1.0 and p.mu == 1.0

    def test_too_sparse_fails(self):
        g = build_graph([(0, 1)])  # average degree 1 -> beta 1.3
        with pytest.raises(ValueError, match="calibration"):
            calibrate(g, r0=1.3, recovery_days=1)

    def test_bad_args(self):
        g = build_graph(complete_edges(4))
        with pytest.raises(ValueError):
            calibrate(g, r0=0)
        with pytest.raises(ValueError):
            calibrate(g, recovery_days=0)


class TestRunSir:
    def test_no_transmission(self):
        g = build_graph(star_edges(5))
        o = run_sir(g, SirParams(beta=0.0, mu=0.5, max_steps=1000), SimConfig(index_case=0, rng_seed=9))
        assert o.ever_infected == 1
        assert o.direct_infections_by_index == 0
        assert epidemic_length(o) == o.steps
        assert time_to_peak(o) == 0

    def test_deterministic_wave_matches_bfs(self):
        for edges in (path_edges(9), cycle_edges(8), star_edges(6), er_edges(40, 0.12, 7)):
            g = build_graph(edges)
            dist = bfs_distances(adjacency(edges), int(g.orig_ids[0]))
            o = run_sir(g, SirParams(beta=1.0, mu=1.0, max_steps=1000), SimConfig(index_case=0, rng_seed=1))
            assert o.ever_infected == len(dist)
            for dense, step in o.infected_step.items():
                assert dist[int(g.orig_ids[dense])] == step
            for dense, par in o.parent.items():
                if par is not None:
                    assert o.infected_step[par] == o.infected_step[dense] - 1
            assert epidemic_length(o) == max(dist.values()) + 1

    def test_conservation_and_monotonicity(self):
        g = build_graph(er_edges(60, 0.1, 3))
        p = calibrate(g)
        for seed in range(10):
            o = run_sir(g, p, SimConfig(index_case=seed % g.n, rng_seed=seed))
            s = o.series
            assert np.all(s.sum(axis=1) == g.n)
            assert np.all(np.diff(s[:, 0]) <= 0)  # S nonincreasing
            assert np.all(np.diff(s[:, 2]) >= 0)  # R nondecreasing
            assert s[-1, 1] == 0 or o.truncated

    def test_forest_validity(self):
        g = build_graph(er_edges(50, 0.15, 11))
        p = SirParams(beta=0.4, mu=0.3, max_steps=10_000)
        for seed in range(10):
            o = run_sir(g, p, SimConfig(index_case=0, rng_seed=seed))
            roots = [v for v, par in o.parent.items() if par is None]
            assert roots == [0]
            for node, par in o.parent.items():
                if par is None:
                    continue
                t = o.infected_step[node]
                # parent was infectious during step t
                assert o.infected_step[par] <= t - 1
                assert o.recovered_step.get(par, float("inf")) >= t

    def test_reproducibility(self):
        g = build_graph(er_edges(50, 0.1, 2))
        p = calibrate(g)
        cfg = SimConfig(index_case=3, rng_seed=12345)
        a = run_sir(g, p, cfg)
        b = run_sir(g, p, cfg)
        assert np.array_equal(a.series, b.series)
        assert a.parent == b.parent
        assert a.infected_step == b.infected_step

    def test_dict_views_follow_arrays(self):
        g = build_graph(er_edges(40, 0.15, 5))
        o = run_sir(g, SirParams(beta=0.5, mu=0.5, max_steps=100), SimConfig(index_case=2, rng_seed=4))
        assert list(o.parent) == o.nodes.tolist()
        assert [-1 if p is None else p for p in o.parent.values()] == o.parents.tolist()
        assert list(o.infected_step.values()) == o.infected_at.tolist()
        assert sorted(o.recovered_step.items()) == sorted(
            (v, t) for v, t in zip(o.nodes.tolist(), o.recovered_at.tolist()) if t >= 0
        )
        assert o.nodes.dtype == o.parents.dtype == o.infected_at.dtype == o.recovered_at.dtype == np.int32
        with pytest.raises(TypeError):
            o.parent[0] = 1

    def test_immunized_counted_in_r(self):
        g = build_graph(star_edges(5))
        o = run_sir(
            g,
            SirParams(beta=1.0, mu=1.0, max_steps=100),
            SimConfig(index_case=1, immunized=frozenset({0}), rng_seed=0),
        )
        # center immunized: the leaf index can infect nobody
        assert o.ever_infected == 1
        assert o.series[0].tolist() == [4, 1, 1]

    def test_truncation(self):
        g = build_graph(path_edges(6))
        o = run_sir(g, SirParams(beta=1.0, mu=1e-12, max_steps=3), SimConfig(index_case=0, rng_seed=0))
        assert o.truncated and o.steps == 3
        assert epidemic_length(o) == 3

    def test_bad_config(self):
        g = build_graph(path_edges(3))
        with pytest.raises(ValueError):
            run_sir(g, SirParams(0.1, 0.5, 10), SimConfig(index_case=99, rng_seed=0))
        with pytest.raises(ValueError):
            run_sir(g, SirParams(0.1, 0.5, 10), SimConfig(index_case=0, immunized=frozenset({77}), rng_seed=0))


class TestReplicates:
    def test_worker_count_invariant(self):
        g = build_graph(er_edges(40, 0.12, 4))
        p = calibrate(g)
        a = run_replicates(g, p, 12, base_seed=99, workers=1)
        b = run_replicates(g, p, 12, base_seed=99, workers=4)
        for x, y in zip(a, b):
            assert np.array_equal(x.series, y.series)
            assert x.index_case == y.index_case

    def test_fixed_index(self):
        g = build_graph(star_edges(4))
        runs = run_replicates(g, SirParams(0.0, 1.0, 10), 5, base_seed=1, index_case=2)
        assert all(o.index_case == 2 for o in runs)

    def test_random_index_skips_immunized(self):
        g = build_graph(complete_edges(5))
        immune = frozenset({0, 1, 2, 3})
        runs = run_replicates(g, SirParams(0.5, 0.5, 100), 8, base_seed=5, immunized=immune)
        assert all(o.index_case == 4 for o in runs)

    @pytest.mark.parametrize(
        "params, kwargs",
        [
            (SirParams(beta=0.5, mu=0.05, max_steps=3), {}),  # truncated
            (SirParams(beta=0.3, mu=0.4, max_steps=1000), {"immunized": frozenset(range(0, 60, 4))}),
            (SirParams(beta=0.0, mu=0.5, max_steps=1000), {"index_case": 7}),
        ],
        ids=["truncated", "immunized-random-index", "beta0"],
    )
    def test_block_size_invariant(self, monkeypatch, params, kwargs):
        g = build_graph(er_edges(60, 0.1, 6))
        reps = 10
        runs = {}
        for size in (1, 3, reps):
            monkeypatch.setattr(epidemic, "_REPLICATE_BUDGET", size * g.n)
            runs[size] = run_replicates(g, params, reps, base_seed=31, **kwargs)
        assert any(o.truncated for o in runs[1]) == (params.max_steps == 3)
        for size in (3, reps):
            for a, b in zip(runs[1], runs[size]):
                for name in ("series", "nodes", "parents", "infected_at", "recovered_at"):
                    assert getattr(a, name).dtype == getattr(b, name).dtype
                    assert np.array_equal(getattr(a, name), getattr(b, name)), name
                for name in ("steps", "truncated", "direct_infections_by_index", "index_case"):
                    assert getattr(a, name) == getattr(b, name), name
        for rep, o in enumerate(runs[1]):  # a block of one is run_sir
            lone = run_sir(g, params, SimConfig(index_case=o.index_case,
                                                immunized=kwargs.get("immunized", frozenset()),
                                                rng_seed=31 ^ rep))
            assert np.array_equal(lone.series, o.series) and np.array_equal(lone.parents, o.parents)

    def test_worker_count_invariant_over_blocks(self, monkeypatch):
        g = build_graph(er_edges(60, 0.1, 6))
        monkeypatch.setattr(epidemic, "_REPLICATE_BUDGET", 3 * g.n)  # 14 replicates: 5 blocks, last one short
        params = SirParams(beta=0.3, mu=0.4, max_steps=1000)
        runs = {w: run_replicates(g, params, 14, base_seed=17, immunized=frozenset({1, 2}), workers=w)
                for w in (1, 2, 3)}
        for w in (2, 3):
            assert len(runs[w]) == 14
            for a, b in zip(runs[1], runs[w]):
                for f in dataclasses.fields(SimOutcome):
                    x, y = getattr(a, f.name), getattr(b, f.name)
                    if isinstance(x, np.ndarray):
                        assert x.dtype == y.dtype and np.array_equal(x, y), f.name
                    else:
                        assert x == y, f.name

    def test_rejects_no_candidate(self):
        g = build_graph(complete_edges(3))
        with pytest.raises(ValueError):
            run_replicates(g, SirParams(0.5, 0.5, 10), 2, base_seed=0, immunized=frozenset({0, 1, 2}))


class TestSpreadingPower:
    def test_hand_forest(self):
        parent = {9: None, 4: 9, 5: 9, 6: 4}
        steps = {9: 0, 4: 1, 5: 1, 6: 2}
        o = _forest_outcome(parent, steps)
        assert spreading_power([o], 9, 1) == 2.0
        assert spreading_power([o], 9, 2) == 3.0
        assert spreading_power([o], 9, 3) == 3.0
        assert spreading_power([o], 4, 1) == 1.0

    def test_never_infected_is_zero(self):
        o = _forest_outcome({1: None}, {1: 0})
        assert spreading_power([o], 7, 2) == 0.0
        assert spreading_power([o], 7, 2, conditional=True) == 0.0

    def test_averaging_and_conditional(self):
        a = _forest_outcome({0: None, 1: 0}, {0: 0, 1: 1})
        b = _forest_outcome({2: None}, {2: 0})
        assert spreading_power([a, b], 0, 1) == 0.5
        assert spreading_power([a, b], 0, 1, conditional=True) == 1.0

    def test_monotone_in_order(self):
        g = build_graph(er_edges(50, 0.12, 8))
        p = calibrate(g)
        runs = run_replicates(g, p, 30, base_seed=17)
        for v in range(0, g.n, 7):
            values = [spreading_power(runs, v, d) for d in (1, 2, 3, 4)]
            assert values == sorted(values)

    def test_deep_chains_match_dict_walk(self):
        # chains deeper than 4 with side branches; the dict lists some children before their parents
        forests = [
            {0: None, 1: 0, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5, 7: 6, 8: 2, 9: 8, 10: 0},
            {13: 12, 12: 11, 11: None, 14: 13, 15: 14, 16: 15, 17: 11, 18: 17, 19: 17, 3: 16},
        ]

        def walk(parent, v, order):
            children = {}
            for node, par in parent.items():
                children.setdefault(par, []).append(node)
            level, count = [v], 0
            for _ in range(order):
                level = [c for u in level for c in children.get(u, [])]
                count += len(level)
            return count

        def generation(parent, node):
            return 0 if parent[node] is None else 1 + generation(parent, parent[node])

        outcomes = [
            _forest_outcome(parent, {node: generation(parent, node) for node in parent}, n=20)
            for parent in forests
        ]
        for v in range(20):
            for order in (1, 2, 3, 4):
                counts = [walk(parent, v, order) for parent in forests]
                for o, count in zip(outcomes, counts):
                    assert spreading_power([o], v, order) == count
                assert spreading_power(outcomes, v, order) == sum(counts) / 2

    def test_errors(self):
        o = _forest_outcome({0: None}, {0: 0})
        with pytest.raises(ValueError):
            spreading_power([], 0, 1)
        with pytest.raises(ValueError):
            spreading_power([o], 0, 5)


class TestOutbreakStats:
    def test_threshold_boundary(self):
        quarter = _forest_outcome({i: (None if i == 0 else 0) for i in range(25)},
                                  {i: (0 if i == 0 else 1) for i in range(25)}, n=100)
        assert is_global_outbreak(quarter)
        just_below = _forest_outcome({i: (None if i == 0 else 0) for i in range(24)},
                                     {i: (0 if i == 0 else 1) for i in range(24)}, n=100)
        assert not is_global_outbreak(just_below)

    def test_zero_threshold(self):
        o = _forest_outcome({0: None}, {0: 0}, n=50)
        assert is_global_outbreak(o, threshold=0.0)

    def test_denominator_flag(self):
        o = _forest_outcome({0: None, 1: 0}, {0: 0, 1: 1}, n=10)
        o.immunized_count = 6
        assert not is_global_outbreak(o, threshold=0.25)  # 2/10
        assert is_global_outbreak(o, threshold=0.25, exclude_immunized=True)  # 2/4

    def test_peak_and_length_series(self):
        o = _forest_outcome({0: None}, {0: 0}, n=8)
        o.series = np.array([[7, 1, 0], [4, 3, 1], [1, 3, 4], [0, 1, 7], [0, 0, 8]])
        o.steps = 4
        assert time_to_peak(o) == 1  # earliest maximum
        assert epidemic_length(o) == 4

    def test_record_schema(self):
        g = build_graph(star_edges(4))
        o = run_sir(g, SirParams(0.0, 1.0, 50), SimConfig(index_case=0, rng_seed=0))
        rec = outcome_record(o, 3, orig_ids=g.orig_ids)
        assert set(rec) == {
            "replicate", "index_case", "ever_infected", "global",
            "steps", "time_to_peak", "length", "direct_infections",
        }
        assert rec["replicate"] == 3 and rec["ever_infected"] == 1
