import io
import json

import numpy as np
import pytest

from efgraph.analysis import (
    SpreadingSums,
    correlation_report,
    ef_bins,
    immunization_experiment,
    merge_sums,
    pearson,
    seeding_experiment,
    spreading_sums,
    timing_report,
    write_report_csv,
    write_report_ndjson,
)
from efgraph import epidemic
from efgraph.centrality import CentralityScores, degree_centrality
from efgraph.epidemic import GLOBAL_THRESHOLD, SirParams, calibrate, run_replicates
from efgraph.expected_force import EFResult, ef_cluster_centric
from efgraph.graph import build_graph

from conftest import er_edges, star_edges
import oracles


def _ef_result(values):
    values = np.asarray(values, dtype=np.float64)
    return EFResult(
        ef=values,
        cluster_total=np.ones(values.size, dtype=np.int64),
        flags=np.zeros(values.size, dtype=np.uint8),
        clusters_processed=0,
    )


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_known_value(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_self_and_negated(self):
        x = np.random.default_rng(1).random(30)
        assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)
        assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            pearson([1, 1, 1], [1, 2, 3])

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            pearson([1], [2])


class TestEfBins:
    def test_exact_values(self):
        bins = ef_bins(_ef_result(list(range(10))), k=10)
        assert [b.target_ef for b in bins] == list(map(float, range(10)))
        assert [b.representative for b in bins] == list(range(10))
        assert [b.achieved_ef for b in bins] == list(map(float, range(10)))

    def test_tie_goes_to_lowest_id(self):
        bins = ef_bins(_ef_result([0.0, 10.0]), k=2)
        assert [b.representative for b in bins] == [0, 1]
        # target 5 is equidistant from both: lowest id wins
        mid = ef_bins(_ef_result([0.0, 10.0, 0.0]), k=2)
        assert mid[0].representative == 0

    def test_equal_spacing_formula(self):
        values = np.random.default_rng(3).random(50) * 7
        bins = ef_bins(_ef_result(values), k=10)
        lo, hi = values.min(), values.max()
        for i, b in enumerate(bins):
            assert b.target_ef == lo + i * (hi - lo) / 9

    def test_zero_bins_refused(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            ef_bins(_ef_result([0.0, 1.0]), k=0)

    def test_too_few_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            ef_bins(_ef_result([1.0, 1.0, 2.0]), k=3)


class TestCorrelationReport:
    def _setup(self, reps=60):
        g = build_graph(er_edges(120, 0.06, 5))
        p = calibrate(g)
        runs = run_replicates(g, p, reps, base_seed=42)
        return g, ef_cluster_centric(g), runs

    def test_self_metric_rows(self):
        g, efres, runs = self._setup()
        from efgraph.epidemic import descendant_sums, is_global_outbreak
        global_runs = [o for o in runs if is_global_outbreak(o)]
        sums = descendant_sums(global_runs, g.n)
        self_metric = CentralityScores(metric="self", values=sums[1] / len(global_runs))
        report = correlation_report(g, efres, [self_metric], spreading_sums(runs, g.n), min_global=1)
        row = next(r for r in report.rows if r["metric"] == "self" and r["order"] == 2)
        assert row["pearson_r"] == pytest.approx(1.0, abs=1e-12)

    def test_degree_row_present_and_finite(self):
        g, efres, runs = self._setup()
        report = correlation_report(g, efres, [degree_centrality(g)], spreading_sums(runs, g.n), min_global=1)
        rows = [r for r in report.rows if r["metric"] == "degree"]
        assert {r["order"] for r in rows} == {1, 2, 3, 4}
        assert all(np.isfinite(r["pearson_r"]) for r in rows)

    def test_warning_row_when_short(self):
        g, efres, runs = self._setup(reps=5)
        report = correlation_report(g, efres, [], spreading_sums(runs, g.n), min_global=10**6)
        assert report.rows[0]["metric"] == "warning"
        assert "global outbreaks" in report.rows[0]["note"]

    def test_metadata_counts(self):
        g, efres, runs = self._setup()
        report = correlation_report(g, efres, [], spreading_sums(runs, g.n), min_global=1)
        assert report.metadata["simulations"] == len(runs)
        assert 0 <= report.metadata["global_outbreaks"] <= len(runs)


class TestCorrelationOracle:
    """The per-block reduction gives the spreading power of the full outcome list, bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "beta, min_global",
        [(None, 1), (None, 10**6), (0.0, 1)],
        ids=["outbreaks", "warning-row", "no-global-run"],
    )
    def test_reduced_path_equals_oracle(self, monkeypatch, workers, beta, min_global):
        g = build_graph(er_edges(120, 0.06, 5))
        p = calibrate(g)
        if beta is not None:
            p = SirParams(beta, p.mu, p.max_steps)
        efres = ef_cluster_centric(g)
        others = [degree_centrality(g)]
        runs = run_replicates(g, p, 60, base_seed=42)  # one block
        global_runs, power = oracles.spreading_power(runs, g.n, GLOBAL_THRESHOLD)
        assert (global_runs > 0) == (beta is None)

        monkeypatch.setattr(epidemic, "_REPLICATE_BUDGET", 7 * g.n)  # 60 replicates: 9 blocks, the last short
        sums = run_replicates(g, p, 60, 42, workers=workers,
                              part=lambda block: [spreading_sums(block, g.n)], fold=merge_sums)
        assert (sums.global_runs, sums.simulations) == (global_runs, 60)
        assert np.array_equal(sums.descendants / max(global_runs, 1), np.array(power))

        report = correlation_report(g, efres, others, sums, min_global=min_global)
        expected = []
        if global_runs < min_global:
            expected.append({"metric": "warning", "order": None, "pearson_r": None,
                             "note": f"only {global_runs} global outbreaks (< {min_global})"})
        for name, vals in [("exp_ef", np.exp(efres.ef)), ("degree", others[0].values)]:
            for d in (1, 2, 3, 4):
                try:
                    expected.append({"metric": name, "order": d, "pearson_r": pearson(vals, power[d - 1]), "note": ""})
                except ValueError as exc:
                    expected.append({"metric": name, "order": d, "pearson_r": None, "note": str(exc)})
        assert report.rows == expected
        assert report.metadata["global_outbreaks"] == global_runs and report.metadata["simulations"] == 60

    def test_merge_is_independent_of_the_split(self):
        g = build_graph(er_edges(120, 0.06, 5))
        runs = run_replicates(g, calibrate(g), 40, base_seed=7)
        whole = spreading_sums(runs, g.n)
        parts = merge_sums(spreading_sums(runs[lo : lo + 6], g.n) for lo in range(0, 40, 6))
        assert np.array_equal(whole.descendants, parts.descendants)
        assert (whole.global_runs, whole.simulations) == (parts.global_runs, parts.simulations)

    def test_parts_are_int32_and_totals_int64(self):
        g = build_graph(er_edges(120, 0.06, 5))
        part = spreading_sums(run_replicates(g, calibrate(g), 6, base_seed=7), g.n)
        assert part.global_runs > 0 and part.descendants.dtype == np.int32
        top = np.full((4, 3), 2**31 - 1, dtype=np.int32)  # two parts at the int32 maximum
        total = merge_sums([SpreadingSums(top, 1, 1, GLOBAL_THRESHOLD)] * 2)
        assert total.descendants.dtype == np.int64 and (total.descendants == 2**32 - 2).all()


class TestSeeding:
    def test_no_transmission(self):
        g = build_graph(er_edges(40, 0.15, 9))
        efres = ef_cluster_centric(g)
        bins = ef_bins(efres, k=3)
        report = seeding_experiment(g, SirParams(0.0, 0.5, 100), bins, reps=10, base_seed=0)
        assert all(row["outbreak_fraction"] == 0.0 for row in report.rows)
        assert all(row["mean_size"] == pytest.approx(1 / g.n) for row in report.rows)

    def test_certain_transmission(self):
        g = build_graph(er_edges(40, 0.25, 10))  # dense, connected w.h.p.
        efres = ef_cluster_centric(g)
        bins = ef_bins(efres, k=3)
        report = seeding_experiment(g, SirParams(1.0, 1.0, 100), bins, reps=5, base_seed=0)
        assert all(row["outbreak_fraction"] == 1.0 for row in report.rows)

    def test_reproducible(self):
        g = build_graph(er_edges(50, 0.12, 11))
        p = calibrate(g)
        bins = ef_bins(ef_cluster_centric(g), k=4)
        a = seeding_experiment(g, p, bins, reps=20, base_seed=7)
        b = seeding_experiment(g, p, bins, reps=20, base_seed=7)
        assert a.rows == b.rows

    def test_fractions_in_range(self):
        g = build_graph(er_edges(50, 0.12, 12))
        p = calibrate(g)
        bins = ef_bins(ef_cluster_centric(g), k=4)
        report = seeding_experiment(g, p, bins, reps=15, base_seed=3)
        for row in report.rows:
            assert 0.0 <= row["outbreak_fraction"] <= 1.0
            assert 1 / g.n <= row["mean_size"] <= 1.0


class TestImmunization:
    def test_star_center_window_blocks_everything(self):
        g = build_graph(star_edges(19))  # n=20, center dense id 0
        efres = ef_cluster_centric(g)
        report = immunization_experiment(
            g, SirParams(1.0, 1.0, 100), efres, frac=0.05, scenarios=10, reps=10, base_seed=1
        )
        # last scenario immunizes the top-EF node: the center
        last = report.rows[-1]
        assert last["outbreak_fraction"] == 0.0
        first = report.rows[0]
        assert first["outbreak_fraction"] == 1.0  # a leaf immunized changes nothing

    def test_mean_ef_monotone(self):
        g = build_graph(er_edges(80, 0.1, 13))
        efres = ef_cluster_centric(g)
        report = immunization_experiment(
            g, calibrate(g), efres, frac=0.1, scenarios=5, reps=5, base_seed=2
        )
        efs = [row["mean_ef"] for row in report.rows]
        assert efs == sorted(efs)

    def test_window_too_large(self):
        g = build_graph(star_edges(3))
        with pytest.raises(ValueError, match="window"):
            immunization_experiment(g, SirParams(0.5, 0.5, 10), ef_cluster_centric(g), frac=0.99)

    def test_zero_scenarios_refused(self):
        g = build_graph(star_edges(5))
        with pytest.raises(ValueError, match="scenarios must be >= 1"):
            immunization_experiment(g, SirParams(0.5, 0.5, 10), ef_cluster_centric(g), scenarios=0)

    def test_bad_frac(self):
        g = build_graph(star_edges(5))
        with pytest.raises(ValueError):
            immunization_experiment(g, SirParams(0.5, 0.5, 10), ef_cluster_centric(g), frac=0.0)


class TestTiming:
    def test_deterministic_wave_constants(self):
        g = build_graph(star_edges(9))
        efres = ef_cluster_centric(g)
        bins = ef_bins(efres, k=2)  # leaf bin and center bin
        report = timing_report(g, SirParams(1.0, 1.0, 100), bins, reps=5, base_seed=0)
        leaf_row, center_row = report.rows
        # from a leaf: center at step 1, other leaves at step 2, over at 3
        assert leaf_row["mean_time_to_peak"] == 2.0
        assert leaf_row["mean_length"] == 3.0
        # from the center: all leaves at step 1, over at 2
        assert center_row["mean_time_to_peak"] == 1.0
        assert center_row["mean_length"] == 2.0

    def test_null_cells_without_outbreaks(self):
        g = build_graph(er_edges(40, 0.15, 14))
        bins = ef_bins(ef_cluster_centric(g), k=3)
        report = timing_report(g, SirParams(0.0, 0.5, 100), bins, reps=5, base_seed=0)
        for row in report.rows:
            assert row["global_outbreaks"] == 0
            assert row["mean_time_to_peak"] is None
            assert row["mean_length"] is None


@pytest.mark.parametrize("kind", ["seeding", "timing", "immunization"])
def test_one_pool_map_per_bin_experiment(monkeypatch, kind):
    g = build_graph(er_edges(50, 0.12, 16))
    p = calibrate(g)
    efres = ef_cluster_centric(g)
    calls = []

    def counting_map(fn, tasks, workers):
        calls.append(workers)
        return map(fn, tasks)

    monkeypatch.setattr(epidemic, "parallel_map", counting_map)
    if kind == "immunization":
        report = immunization_experiment(g, p, efres, frac=0.1, scenarios=4, reps=6, base_seed=3, workers=2)
    else:
        run = seeding_experiment if kind == "seeding" else timing_report
        report = run(g, p, ef_bins(efres, k=4), reps=6, base_seed=3, workers=2)
    assert len(report.rows) == 4
    assert calls == [2]


class TestSerialization:
    def _report(self):
        g = build_graph(er_edges(40, 0.15, 15))
        bins = ef_bins(ef_cluster_centric(g), k=3)
        return timing_report(g, SirParams(0.3, 0.5, 100), bins, reps=5, base_seed=0)

    def test_csv_round_trip(self):
        report = self._report()
        buf = io.StringIO()
        write_report_csv(report, buf)
        lines = buf.getvalue().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "bin"
        assert len(lines) == 1 + len(report.rows)

    def test_ndjson_metadata_first(self):
        report = self._report()
        buf = io.StringIO()
        write_report_ndjson(report, buf)
        lines = buf.getvalue().strip().splitlines()
        head = json.loads(lines[0])
        assert head["kind"] == "timing"
        assert head["metadata"]["reps"] == 5
        rows = [json.loads(ln) for ln in lines[1:]]
        assert rows[0]["bin"] == 0
