import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from efgraph import epidemic
from efgraph.epidemic import (
    SimOutcome,
    SirParams,
    calibrate,
    is_global_outbreak,
    outcome_record,
    run_replicates,
    run_scenarios,
    descendant_sums,
    run_sir,
    time_to_peak,
)
from efgraph.graph import RmatParams, build_graph, generate_rmat
from efgraph.parallel import usable_cores

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
        with pytest.raises(ValueError, match="index case must not be immunized"):
            run_sir(build_graph(path_edges(3)), SirParams(0.1, 0.5, 10), 1, immunized=frozenset({1}))


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

    def test_empty_graph_refused(self):
        with pytest.raises(ValueError, match="cannot calibrate on a graph with no edges"):
            calibrate(build_graph([]))

    def test_bad_args(self):
        g = build_graph(complete_edges(4))
        for bad in ({"r0": 0}, {"recovery_days": 0}, {"r0": float("nan")}, {"recovery_days": float("nan")}):
            with pytest.raises(ValueError, match="r0 and recovery_days must be positive"):
                calibrate(g, **bad)


class TestRunSir:
    def test_no_transmission(self):
        g = build_graph(star_edges(5))
        o = run_sir(g, SirParams(beta=0.0, mu=0.5, max_steps=1000), 0, rng_seed=9)
        assert o.ever_infected == 1
        assert o.direct_infections_by_index == 0
        assert time_to_peak(o) == 0

    def test_deterministic_wave_matches_bfs(self):
        for edges in (path_edges(9), cycle_edges(8), star_edges(6), er_edges(40, 0.12, 7)):
            g = build_graph(edges)
            dist = bfs_distances(adjacency(edges), int(g.orig_ids[0]))
            o = run_sir(g, SirParams(beta=1.0, mu=1.0, max_steps=1000), 0, rng_seed=1)
            assert o.ever_infected == len(dist)
            infected = dict(zip(o.nodes.tolist(), o.infected_at.tolist()))
            for dense, step in zip(o.nodes.tolist(), o.infected_at.tolist()):
                assert dist[int(g.orig_ids[dense])] == step
            for dense, par in zip(o.nodes.tolist(), o.parents.tolist()):
                if par >= 0:
                    assert infected[par] == infected[dense] - 1
            assert o.steps == max(dist.values()) + 1

    def test_conservation_and_monotonicity(self):
        g = build_graph(er_edges(60, 0.1, 3))
        p = calibrate(g)
        for seed in range(10):
            o = run_sir(g, p, seed % g.n, rng_seed=seed)
            s = o.series
            assert np.all(s.sum(axis=1) == g.n)
            assert np.all(np.diff(s[:, 0]) <= 0)  # S nonincreasing
            assert np.all(np.diff(s[:, 2]) >= 0)  # R nondecreasing
            assert s[-1, 1] == 0 or o.truncated

    def test_forest_validity(self):
        g = build_graph(er_edges(50, 0.15, 11))
        p = SirParams(beta=0.4, mu=0.3, max_steps=10_000)
        for seed in range(10):
            o = run_sir(g, p, 0, rng_seed=seed)
            assert o.nodes[o.parents < 0].tolist() == [0]
            infected = dict(zip(o.nodes.tolist(), o.infected_at.tolist()))
            recovered = dict(zip(o.nodes.tolist(), o.recovered_at.tolist()))
            for node, par in zip(o.nodes.tolist(), o.parents.tolist()):
                if par < 0:
                    continue
                t = infected[node]
                # parent was infectious during step t
                assert infected[par] <= t - 1
                assert recovered[par] == -1 or recovered[par] >= t

    def test_reproducibility(self):
        g = build_graph(er_edges(50, 0.1, 2))
        p = calibrate(g)
        a = run_sir(g, p, 3, rng_seed=12345)
        b = run_sir(g, p, 3, rng_seed=12345)
        assert np.array_equal(a.series, b.series)
        for name in ("nodes", "parents", "infected_at", "recovered_at"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_outcome_arrays_in_infection_order(self):
        g = build_graph(er_edges(40, 0.15, 5))
        o = run_sir(g, SirParams(beta=0.5, mu=0.5, max_steps=100), 2, rng_seed=4)
        assert o.nodes.dtype == o.parents.dtype == o.infected_at.dtype == o.recovered_at.dtype == np.int32
        assert o.ever_infected > 1
        assert (o.nodes[0], o.parents[0], o.infected_at[0]) == (2, -1, 0)  # the index case first
        rows = list(zip(o.infected_at.tolist(), o.nodes.tolist()))
        assert rows == sorted(rows)  # by step, then node id
        done = o.recovered_at >= 0
        assert np.all(o.recovered_at[done] > o.infected_at[done])

    def test_immunized_counted_in_r(self):
        g = build_graph(star_edges(5))
        o = run_sir(
            g,
            SirParams(beta=1.0, mu=1.0, max_steps=100),
            1, immunized=frozenset({0}), rng_seed=0,
        )
        # center immunized: the leaf index can infect nobody
        assert o.ever_infected == 1
        assert o.series[0].tolist() == [4, 1, 1]

    def test_truncation(self):
        g = build_graph(path_edges(6))
        o = run_sir(g, SirParams(beta=1.0, mu=1e-12, max_steps=3), 0, rng_seed=0)
        assert o.truncated and o.steps == 3

    def test_bad_config(self):
        g = build_graph(path_edges(3))
        with pytest.raises(ValueError):
            run_sir(g, SirParams(0.1, 0.5, 10), 99, rng_seed=0)
        with pytest.raises(ValueError):
            run_sir(g, SirParams(0.1, 0.5, 10), 0, immunized=frozenset({77}), rng_seed=0)


class TestReplicates:
    def test_no_reps_or_empty_graph_refused(self):
        p = SirParams(0.5, 0.5, 10)
        with pytest.raises(ValueError, match="reps must be >= 1"):
            run_replicates(build_graph(star_edges(4)), p, 0, base_seed=1)
        with pytest.raises(ValueError, match="cannot simulate on an empty graph"):
            run_replicates(build_graph([]), p, 5, base_seed=1)

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
        default = epidemic._CONTACT_BUDGET
        real = epidemic._budget_ranges
        splits = []  # per step: its runs of infectious keys

        def ranges(cost, budget):
            splits.append(real(cost, budget))
            return splits[-1]

        monkeypatch.setattr(epidemic, "_budget_ranges", ranges)
        runs, most_runs = {}, {}
        for contacts in (1, 8, default):  # one key per run; a few keys per run; whole steps
            for size in (1, 3, reps):
                monkeypatch.setattr(epidemic, "_CONTACT_BUDGET", contacts)
                monkeypatch.setattr(epidemic, "_REPLICATE_BUDGET", size * g.n)
                runs[contacts, size] = run_replicates(g, params, reps, base_seed=31, **kwargs)
                most_runs[contacts, size] = max(len(r) for r in splits)
                splits.clear()
        base = runs[default, 1]
        assert any(o.truncated for o in base) == (params.max_steps == 3)
        # with one replicate per block, more than one run in a step splits that replicate's frontier
        assert (most_runs[8, 1] > 1) == (params.beta > 0)
        for key, other in runs.items():
            for a, b in zip(base, other):
                for name in ("series", "nodes", "parents", "infected_at", "recovered_at"):
                    assert getattr(a, name).dtype == getattr(b, name).dtype
                    assert np.array_equal(getattr(a, name), getattr(b, name)), (key, name)
                for name in ("steps", "truncated", "direct_infections_by_index", "index_case"):
                    assert getattr(a, name) == getattr(b, name), (key, name)
        for rep, o in enumerate(base):  # a block of one is run_sir
            lone = run_sir(g, params, o.index_case, immunized=kwargs.get("immunized", frozenset()),
                           rng_seed=31 ^ rep)
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

    def test_block_peak_follows_contact_budget(self, monkeypatch):
        g, _ = generate_rmat(RmatParams(scale=12, avg_degree=8, seed=1))
        real = epidemic._run_block
        peaks = []

        def traced(*args):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = real(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return out

        monkeypatch.setattr(epidemic, "_run_block", traced)
        tracemalloc.start()
        try:
            run_replicates(g, calibrate(g), 256, base_seed=7)  # 3 blocks of up to 99 replicates
        finally:
            tracemalloc.stop()
        # Measured largest-block traced peaks here: 12.5 MB when a step
        # gathered the contacts of all of a block's infectious keys at once,
        # 5.8 MB with runs of at most 2^16 contacts, of which ~3.4 MB is the
        # block's status and record arrays.
        assert len(peaks) == 3 and max(peaks) < 9e6

    def test_rejects_no_candidate(self):
        g = build_graph(complete_edges(3))
        with pytest.raises(ValueError):
            run_replicates(g, SirParams(0.5, 0.5, 10), 2, base_seed=0, immunized=frozenset({0, 1, 2}))


class TestScenarios:
    def test_equals_one_run_replicates_per_scenario(self, monkeypatch):
        g = build_graph(er_edges(60, 0.1, 6))
        monkeypatch.setattr(epidemic, "_REPLICATE_BUDGET", 3 * g.n)  # 4 scenarios x 5 reps: blocks span scenarios
        params = SirParams(beta=0.3, mu=0.4, max_steps=1000)
        scenarios = [
            (11, 7, ()),  # pinned index
            (12, None, ()),  # random index
            (13, None, frozenset(range(0, 12))),  # two different immunized windows
            (14, 40, frozenset(range(20, 32))),
        ]
        together = run_scenarios(g, params, scenarios, 5, workers=2)
        assert len(together) == len(scenarios)
        for (seed, index, immunized), runs in zip(scenarios, together):
            alone = run_replicates(g, params, 5, seed, index_case=index, immunized=immunized)
            assert len(runs) == len(alone) == 5
            for a, b in zip(alone, runs):
                for name in ("nodes", "parents", "infected_at", "recovered_at", "series"):
                    x, y = getattr(a, name), getattr(b, name)
                    assert x.dtype == y.dtype and np.array_equal(x, y), name
                assert a.immunized_count == b.immunized_count == len(immunized)
                assert a.index_case == b.index_case

    def test_index_immunized_only_in_its_own_scenario_raises(self):
        g = build_graph(cycle_edges(8))
        params = SirParams(beta=0.5, mu=0.5, max_steps=20)
        with pytest.raises(ValueError, match="index case must not be immunized"):
            run_scenarios(g, params, [(1, 3, ()), (2, 3, {3, 4})], 2)
        runs = run_scenarios(g, params, [(1, 3, ()), (2, 4, {3})], 2)  # 3 is pinned in one, immunized in the other
        assert [o.index_case for o in runs[0]] == [3, 3] and [o.index_case for o in runs[1]] == [4, 4]
        assert [o.immunized_count for o in runs[0] + runs[1]] == [0, 0, 1, 1]

    def test_folds_each_scenario_as_its_blocks_arrive(self, monkeypatch):
        g = build_graph(er_edges(60, 0.1, 6))
        params = SirParams(beta=0.3, mu=0.4, max_steps=1000)
        scenarios = [(21, 4, ()), (22, None, ()), (23, None, frozenset(range(10)))]
        expected = [run_replicates(g, params, 5, seed, index_case=index, immunized=immune)
                    for seed, index, immune in scenarios]
        monkeypatch.setattr(epidemic, "_REPLICATE_BUDGET", 3 * g.n)  # 3 scenarios x 5 reps: 5 blocks of 3
        events, folded = [], []
        run_block = epidemic._run_block

        def recording_block(*args):
            events.append("block")
            return run_block(*args)

        def fold(runs):
            folded.append(list(runs))
            events.append("fold")
            return len(folded) - 1

        monkeypatch.setattr(epidemic, "_run_block", recording_block)
        assert run_scenarios(g, params, scenarios, 5, fold=fold) == [0, 1, 2]
        # scenario 0 (replicates 0-4) is folded once blocks 0-1 are in, before blocks 2-4 run
        assert events == ["block", "block", "fold", "block", "block", "fold", "block", "fold"]
        for runs, alone in zip(folded, expected):
            assert len(runs) == 5
            for a, b in zip(alone, runs):
                for name in ("nodes", "parents", "infected_at", "recovered_at", "series"):
                    assert np.array_equal(getattr(a, name), getattr(b, name)), name
                assert a.index_case == b.index_case


    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=pytest.mark.skipif(
        usable_cores() < 2, reason="needs two usable cores"))])
    def test_parts_are_taken_where_their_block_runs(self, monkeypatch, workers):
        g = build_graph(er_edges(60, 0.1, 6))
        params = SirParams(beta=0.3, mu=0.4, max_steps=1000)
        scenarios = [(21, 4, ()), (22, None, ()), (23, None, frozenset(range(10)))]
        expected = [run_replicates(g, params, 5, seed, index_case=index, immunized=immune)
                    for seed, index, immune in scenarios]
        monkeypatch.setattr(epidemic, "_REPLICATE_BUDGET", 3 * g.n)  # 3 scenarios x 5 reps: 5 blocks of 3

        def part(runs):
            return [(os.getpid(), len(runs), [(o.index_case, o.ever_infected, o.steps) for o in runs])]

        folds = run_scenarios(g, params, scenarios, 5, workers=workers, part=part)
        # blocks 1 and 3 span two scenarios, so each of them gives two parts
        assert [[size for _, size, _ in parts] for parts in folds] == [[3, 2], [1, 3, 1], [2, 3]]
        pids = {pid for parts in folds for pid, _, _ in parts}
        assert (os.getpid() in pids) == (workers == 1) and len(pids) <= workers
        for parts, alone in zip(folds, expected):  # merged in plan order, as one block of the scenario gives them
            assert [run for _, _, runs in parts for run in runs] == [(o.index_case, o.ever_infected, o.steps)
                                                                      for o in alone]


class TestSpreadingPower:
    """Mean spreading power of order d is descendant_sums(outcomes, n)[d - 1, v] / len(outcomes)."""

    def test_hand_forest(self):
        parent = {9: None, 4: 9, 5: 9, 6: 4}
        steps = {9: 0, 4: 1, 5: 1, 6: 2}
        sums = descendant_sums([_forest_outcome(parent, steps)], 10)
        assert sums.shape == (4, 10)
        assert sums[0, 9] == 2.0
        assert sums[1, 9] == 3.0
        assert sums[2, 9] == 3.0
        assert sums[0, 4] == 1.0

    def test_never_infected_is_zero(self):
        o = _forest_outcome({1: None}, {1: 0})
        assert descendant_sums([o], 10)[1, 7] == 0.0

    def test_averaging_over_outcomes(self):
        a = _forest_outcome({0: None, 1: 0}, {0: 0, 1: 1})
        b = _forest_outcome({2: None}, {2: 0})  # node 0 never infected: counts 0, stays in the denominator
        assert descendant_sums([a, b], 10)[0, 0] / 2 == 0.5

    def test_monotone_in_order(self):
        g = build_graph(er_edges(50, 0.12, 8))
        p = calibrate(g)
        runs = run_replicates(g, p, 30, base_seed=17)
        power = descendant_sums(runs, g.n) / len(runs)
        for v in range(0, g.n, 7):
            values = power[:, v].tolist()
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
        alone = [descendant_sums([o], 20) for o in outcomes]
        together = descendant_sums(outcomes, 20)
        for v in range(20):
            for order in (1, 2, 3, 4):
                counts = [walk(parent, v, order) for parent in forests]
                for sums, count in zip(alone, counts):
                    assert sums[order - 1, v] == count
                assert together[order - 1, v] / len(outcomes) == sum(counts) / 2


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

    def test_peak_and_length_series(self):
        o = _forest_outcome({0: None}, {0: 0}, n=8)
        o.series = np.array([[7, 1, 0], [4, 3, 1], [1, 3, 4], [0, 1, 7], [0, 0, 8]])
        assert time_to_peak(o) == 1  # earliest maximum

    def test_record_schema(self):
        g = build_graph(star_edges(4))
        o = run_sir(g, SirParams(0.0, 1.0, 50), 0, rng_seed=0)
        rec = outcome_record(o, 3, orig_ids=g.orig_ids)
        assert set(rec) == {
            "replicate", "index_case", "ever_infected", "global",
            "steps", "time_to_peak", "length", "direct_infections",
        }
        assert rec["replicate"] == 3 and rec["ever_infected"] == 1
