import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from efgraph import centrality, cli, epidemic
from efgraph.cli import main
from efgraph.parallel import usable_cores


def _write_star(path, leaves=3):
    path.write_text("".join(f"0 {i}\n" for i in range(1, leaves + 1)))


def _run(*argv):
    return main([str(a) for a in argv])


class TestGenerate:
    def test_writes_file_and_manifest(self, tmp_path):
        out = tmp_path / "g.txt"
        assert _run("generate", "--scale", 10, "--avg-degree", 8, "--seed", 1, "--output", out) == 0
        lines = out.read_text().strip().splitlines()
        target = (2**10 * 8) // 2
        assert len(lines) == target
        manifest = json.loads((tmp_path / "g.txt.manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["command"] == "generate"
        assert manifest["graph"]["edges"] == target
        assert manifest["truncated"] is False

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for out in (a, b):
            assert _run("generate", "--scale", 8, "--avg-degree", 4, "--seed", 9, "--output", out) == 0
        ha = hashlib.sha256(a.read_bytes()).hexdigest()
        hb = hashlib.sha256(b.read_bytes()).hexdigest()
        assert ha == hb

    def test_missing_output_is_usage_error(self):
        assert _run("generate", "--scale", 4, "--avg-degree", 2) == 2

    def test_bad_probs_is_usage_error(self):
        assert _run("generate", "--scale", 4, "--avg-degree", 2, "--probs", "1,2", "--output", "x") == 2

    def test_nan_probs_rejected(self, tmp_path):
        out = tmp_path / "g.txt"
        assert _run("generate", "--scale", 6, "--avg-degree", 4, "--probs", "nan,0.19,0.19,0.05",
                    "--output", out) == 1
        manifest = json.loads((tmp_path / "g.txt.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "4 nonnegative reals" in manifest["error"]
        assert not out.exists()

    def test_scale_beyond_int32_ids_rejected(self, tmp_path):
        out = tmp_path / "g.txt"
        assert _run("generate", "--scale", 40, "--avg-degree", 16, "--output", out) == 1
        manifest = json.loads((tmp_path / "g.txt.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "scale" in manifest["error"]
        assert not out.exists()

    @pytest.mark.parametrize("degree", [0, -3])
    def test_avg_degree_below_one_is_usage_error(self, tmp_path, degree):
        out = tmp_path / "g.txt"
        assert _run("generate", "--scale", 6, "--avg-degree", degree, "--output", out) == 2
        manifest = json.loads((tmp_path / "g.txt.manifest.json").read_text())
        assert manifest["error_type"] == "usage"
        assert "--avg-degree" in manifest["error"]
        assert not out.exists()

    def test_target_beyond_memory_rejected(self, tmp_path):
        out = tmp_path / "g.txt"
        started = time.perf_counter()
        assert _run("generate", "--scale", 30, "--avg-degree", 16, "--output", out) == 1
        assert time.perf_counter() - started < 5
        manifest = json.loads((tmp_path / "g.txt.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "memory" in manifest["error"]
        assert not out.exists()


@pytest.mark.parametrize("argv", [["generate", "--scale", 6, "--avg-degree", 4, "--seed", -1],
                                  ["bench", "--scale", 6, "--degrees", 4, "--repeats", 1, "--seed", -5]])
def test_negative_rmat_seed_is_refused_by_name(tmp_path, argv):
    out = tmp_path / "out"
    assert _run(*argv, "--output", out) == (2 if argv[0] == "bench" else 1)  # bench checks --seed as a setting
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["status"] == "error"
    assert "seed" in manifest["error"]
    assert not out.exists()


class TestEf:
    def test_star_scores(self, tmp_path):
        inp = tmp_path / "star.txt"
        _write_star(inp)
        out = tmp_path / "ef.csv"
        assert _run("ef", "--input", inp, "--mode", "cluster", "--output", out) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "node,ef,cluster_total"
        node, score, total = lines[1].split(",")
        assert (node, total) == ("0", "6")
        assert float(score) == pytest.approx(math.log(6), abs=1e-8)

    def test_modes_and_workers_agree_bytewise(self, tmp_path):
        inp = tmp_path / "g.txt"
        assert _run("generate", "--scale", 8, "--avg-degree", 6, "--seed", 4, "--output", inp) == 0
        outputs = []
        for tag, mode, workers in (("a", "cluster", 1), ("b", "cluster", 8), ("c", "vertex", 1)):
            out = tmp_path / f"{tag}.csv"
            assert _run("ef", "--input", inp, "--mode", mode, "--workers", workers, "--output", out) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_manifest_records_throughput(self, tmp_path):
        inp = tmp_path / "star.txt"
        _write_star(inp)
        out = tmp_path / "ef.csv"
        assert _run("ef", "--input", inp, "--output", out) == 0
        manifest = json.loads((tmp_path / "ef.csv.manifest.json").read_text())
        assert manifest["clusters_processed"] == 3
        assert manifest["time_to_solution_ms"] > 0
        assert manifest["clusters_per_ms"] > 0

    def test_id_beyond_int64_is_data_error(self, tmp_path):
        inp = tmp_path / "big.txt"
        inp.write_text(f"0 1\n{2**63} 1\n")
        out = tmp_path / "ef.csv"
        assert _run("ef", "--input", inp, "--output", out) == 1
        manifest = json.loads((tmp_path / "ef.csv.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error_type"] == "ValueError"
        assert "line 2" in manifest["error"]

    def test_unexpected_exception_recorded(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr("efgraph.cli.compute_ef", broken)
        inp = tmp_path / "star.txt"
        _write_star(inp)
        out = tmp_path / "ef.csv"
        assert _run("ef", "--input", inp, "--output", out) == 1
        manifest = json.loads((tmp_path / "ef.csv.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"] == "kernel exploded"
        assert manifest["error_type"] == "RuntimeError"
        assert "Traceback" in capsys.readouterr().err

    def test_out_of_memory_is_a_clean_data_error(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 180. MiB for an array")

        monkeypatch.setattr("efgraph.cli.compute_ef", exhausted)
        inp = tmp_path / "star.txt"
        _write_star(inp)
        out = tmp_path / "ef.csv"
        assert _run("ef", "--input", inp, "--output", out) == 1
        manifest = json.loads((tmp_path / "ef.csv.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error_type"] == "MemoryError"
        assert manifest["failed_phase"] == "compute"
        assert "load" in manifest["timings_ms"] and "compute" not in manifest["timings_ms"]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == ["efgraph ef: error: Unable to allocate 180. MiB for an array"]

    def test_unreadable_input(self, tmp_path):
        out = tmp_path / "ef.csv"
        assert _run("ef", "--input", tmp_path / "missing.txt", "--output", out) == 1
        manifest = json.loads((tmp_path / "ef.csv.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "missing.txt" in manifest["error"]


class TestCentrality:
    def test_degree_csv(self, tmp_path):
        inp = tmp_path / "star.txt"
        _write_star(inp)
        out = tmp_path / "deg.csv"
        assert _run("centrality", "--input", inp, "--metric", "degree", "--output", out) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "node,degree"
        assert lines[1] == "0,3"

    def test_betweenness_budget_refusal(self, tmp_path):
        inp = tmp_path / "star.txt"
        _write_star(inp, leaves=6)
        out = tmp_path / "bc.csv"
        assert _run("centrality", "--input", inp, "--metric", "betweenness",
                    "--budget", 1, "--output", out) == 1
        manifest = json.loads((tmp_path / "bc.csv.manifest.json").read_text())
        assert "--force" in manifest["error"]

    def test_betweenness_forced(self, tmp_path):
        inp = tmp_path / "star.txt"
        _write_star(inp, leaves=6)
        out = tmp_path / "bc.csv"
        with pytest.warns(UserWarning):
            rc = _run("centrality", "--input", inp, "--metric", "betweenness",
                      "--budget", 1, "--force", "--output", out)
        assert rc == 0
        assert out.read_text().splitlines()[1] == "0,15"  # C(6,2) paths through the center

    @pytest.mark.parametrize("flag,value", [("--max-iter", 0), ("--max-iter", -3), ("--tol", "nan"),
                                            ("--tol", -1), ("--tol", "inf")])
    def test_bad_pagerank_iteration_setting_is_refused(self, tmp_path, flag, value):
        inp = tmp_path / "star.txt"
        _write_star(inp)
        out = tmp_path / "pr.csv"
        assert _run("centrality", "--input", inp, "--metric", "pagerank", flag, value, "--output", out) == 1
        manifest = json.loads((tmp_path / "pr.csv.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert flag[2:].replace("-", "_") in manifest["error"]
        assert not out.exists()

    @pytest.mark.skipif(usable_cores() < 2, reason="needs two usable cores")
    def test_dead_worker_is_an_error(self, tmp_path, monkeypatch, capsys):
        test_pid = os.getpid()
        real = centrality._block_dependencies

        def dying(g, sources):
            if os.getpid() != test_pid:  # only in a pool process, never in this one
                os._exit(3)
            return real(g, sources)

        monkeypatch.setattr(centrality, "_block_dependencies", dying)
        inp = tmp_path / "star.txt"
        _write_star(inp, leaves=6)
        monkeypatch.setattr(centrality, "_ENTRY_BUDGET", 2 * 6)  # one source per block: 7 blocks
        out = tmp_path / "bc.csv"
        assert _run("centrality", "--input", inp, "--metric", "betweenness", "--workers", 2,
                    "--output", out) == 1
        manifest = json.loads((tmp_path / "bc.csv.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error_type"] == "BrokenProcessPool"
        assert manifest["workers"] == 2 and manifest["cores"] == usable_cores()
        assert "BrokenProcessPool" in capsys.readouterr().err


class TestSimulate:
    def test_no_transmission_records(self, tmp_path):
        inp = tmp_path / "g.txt"
        assert _run("generate", "--scale", 6, "--avg-degree", 4, "--seed", 2, "--output", inp) == 0
        out = tmp_path / "runs.ndjson"
        assert _run("simulate", "--input", inp, "--beta", 0, "--mu", 0.5,
                    "--reps", 10, "--seed", 3, "--output", out) == 0
        records = [json.loads(ln) for ln in out.read_text().strip().splitlines()]
        assert len(records) == 10
        assert all(r["ever_infected"] == 1 for r in records)
        assert all(r["global"] is False for r in records)
        assert all(r["direct_infections"] == 0 for r in records)

    def test_forest_dump(self, tmp_path):
        inp = tmp_path / "star.txt"
        _write_star(inp)
        out = tmp_path / "runs.ndjson"
        forest = tmp_path / "forest.csv"
        assert _run("simulate", "--input", inp, "--index", 0, "--beta", 1, "--mu", 1,
                    "--reps", 1, "--output", out, "--forest-output", forest) == 0
        lines = forest.read_text().strip().splitlines()
        assert lines[0] == "replicate,node,parent"
        assert "0,0," in lines  # root row: empty parent
        assert len(lines) == 5  # header + all four nodes infected

    def test_unknown_index_rejected(self, tmp_path):
        inp = tmp_path / "star.txt"
        _write_star(inp)
        assert _run("simulate", "--input", inp, "--index", 42,
                    "--output", tmp_path / "r.ndjson") == 1

    def test_index_is_an_original_id(self, tmp_path):
        inp = tmp_path / "gaps.txt"
        inp.write_text("5 9\n9 12\n")
        out = tmp_path / "r.ndjson"
        assert _run("simulate", "--input", inp, "--index", 9, "--beta", 0, "--mu", 1, "--output", out) == 0
        assert json.loads(out.read_text())["index_case"] == 9
        for index in (-1, 4, 7, 13, 2**64):
            assert _run("simulate", "--input", inp, "--index", index, "--beta", 0, "--mu", 1, "--output", out) == 1
            manifest = json.loads((tmp_path / "r.ndjson.manifest.json").read_text())
            assert manifest["error"] == f"index case {index} is not a node of the graph"

    def test_zero_reps_leaves_no_output(self, tmp_path):
        inp = tmp_path / "star.txt"
        _write_star(inp)
        out, forest = tmp_path / "runs.ndjson", tmp_path / "forest.csv"
        assert _run("simulate", "--input", inp, "--reps", 0, "--output", out, "--forest-output", forest) == 2
        manifest = json.loads((tmp_path / "runs.ndjson.manifest.json").read_text())
        assert manifest["status"] == "error" and "reps" in manifest["error"]
        assert not out.exists() and not forest.exists()


@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_zero_max_steps_is_refused(tmp_path, command):
    inp = tmp_path / "star.txt"
    _write_star(inp)
    out = tmp_path / "out"
    extra = ["--kind", "seeding", "--bins", 2] if command == "analyze" else []
    assert _run(command, "--input", inp, *extra, "--beta", 0.5, "--mu", 0.5, "--max-steps", 0, "--output", out) == 1
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error"] == "max_steps must be >= 1"


def _sparse_graph(tmp_path):
    """R-MAT s6 d2: average degree 3.28, so r0=50 calibrates to beta > 1."""
    inp = tmp_path / "g.txt"
    assert _run("generate", "--scale", 6, "--avg-degree", 2, "--seed", 1, "--output", inp) == 0
    return inp


@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_given_beta_skips_calibration(tmp_path, command):
    inp = _sparse_graph(tmp_path)
    out = tmp_path / "out"
    extra = ["--kind", "seeding", "--bins", 2, "--reps", 3] if command == "analyze" else []
    assert _run(command, "--input", inp, *extra, "--beta", 0.3, "--r0", 50, "--output", out) == 0
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["sir"]["beta"] == 0.3 and manifest["sir"]["mu"] == 1.0 / 3.0


def test_calibrated_beta_above_one_is_refused(tmp_path):
    inp = _sparse_graph(tmp_path)
    assert _run("simulate", "--input", inp, "--mu", 0.5, "--r0", 50, "--output", tmp_path / "out") == 1
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["error_type"] == "ValueError" and "calibration failed" in manifest["error"]


@pytest.mark.parametrize("days", ["0", "-2", "nan"])
def test_bad_recovery_days_is_a_data_error(tmp_path, capsys, days):
    inp = _sparse_graph(tmp_path)
    assert _run("simulate", "--input", inp, "--beta", 0.3, "--recovery-days", days, "--output", tmp_path / "out") == 1
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["error_type"] == "ValueError" and "recovery_days" in manifest["error"]
    assert "Traceback" not in capsys.readouterr().err


def test_nan_r0_is_refused_by_name(tmp_path, capsys):
    inp = tmp_path / "star.txt"
    _write_star(inp)
    assert _run("simulate", "--input", inp, "--r0", "nan", "--output", tmp_path / "out") == 1
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["error_type"] == "ValueError" and "r0=nan" in manifest["error"]
    assert "beta" not in manifest["error"] and "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "analyze"])
@pytest.mark.parametrize("threshold", ["-1", "nan", "1.5"])
def test_threshold_outside_unit_interval_is_usage_error(tmp_path, command, threshold):
    inp = tmp_path / "star.txt"
    _write_star(inp)
    out = tmp_path / "out"
    extra = ["--kind", "seeding", "--bins", 2] if command == "analyze" else []
    assert _run(command, "--input", inp, *extra, "--threshold", threshold, "--output", out) == 2
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["error_type"] == "usage"
    assert "--threshold" in manifest["error"]
    assert not out.exists() and not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("flag,value", [("--bins", 0), ("--scenarios", 0), ("--min-global", -3),
                                        ("--immunize-frac", 0), ("--immunize-frac", 1), ("--immunize-frac", "nan")])
def test_bad_experiment_flag_is_refused_before_load(tmp_path, flag, value):
    inp = tmp_path / "star.txt"
    _write_star(inp)
    out = tmp_path / "out"
    assert _run("analyze", "--input", inp, "--kind", "immunization", flag, value, "--output", out) == 2
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["status"] == "error" and manifest["error_type"] == "usage"
    assert flag in manifest["error"]
    assert "load" not in manifest["timings_ms"]
    assert not out.exists() and not (tmp_path / "out.csv").exists() and not (tmp_path / "out.ndjson").exists()


@pytest.mark.parametrize("threshold", ["0", "1"])
def test_threshold_bounds_are_accepted(tmp_path, threshold):
    inp = tmp_path / "star.txt"
    _write_star(inp)
    out = tmp_path / "runs.ndjson"
    assert _run("simulate", "--input", inp, "--index", 0, "--beta", 0, "--mu", 1, "--reps", 2,
                "--threshold", threshold, "--output", out) == 0
    records = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert [r["global"] for r in records] == [threshold == "0"] * 2  # one node of four infected


def test_sir_outputs_pinned(tmp_path):
    """SIR output bytes on R-MAT s10 d8 are fixed; digests recorded with the per-replicate kernel (seeding: before the shared CSR gather; correlation: before the one-plan scenario runner; experiment NDJSON: before the shared plan → run → fold path)."""
    inp = tmp_path / "g.txt"
    assert _run("generate", "--scale", 10, "--avg-degree", 8, "--seed", 1, "--output", inp) == 0
    assert _run("simulate", "--input", inp, "--reps", 200, "--seed", 5, "--output", tmp_path / "sim.ndjson",
                "--forest-output", tmp_path / "forest.csv") == 0
    for kind in ("seeding", "immunization", "timing"):
        assert _run("analyze", "--input", inp, "--kind", kind, "--reps", 40, "--seed", 3,
                    "--output", tmp_path / kind) == 0
    assert _run("analyze", "--input", inp, "--kind", "correlation", "--reps", 200, "--seed", 3, "--min-global", 1,
                "--output", tmp_path / "correlation") == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("sim.ndjson", "forest.csv", "seeding.csv", "immunization.csv", "timing.csv",
                     "seeding.ndjson", "immunization.ndjson", "timing.ndjson", "correlation.csv", "correlation.ndjson")
    }
    assert digests == {
        "sim.ndjson": "764951a78233f54a8515b1966d1ff23c5f304fa76ab202eb1c785d645356687c",
        "forest.csv": "6f6edb92a776d646ed79c2fa2912de17dbb2c5bfff66ff7085f90b045eafc9dd",
        "seeding.csv": "1fa876b507130b921ce975bd19af5add0c17b5aa41fbb82887d171f95d8870c5",
        "immunization.csv": "a8030600e1b9e5f9ed5306b8755c9d3af0df52ed4817ad21b8cf5e7c9cce45cc",
        "timing.csv": "3a45ae22b794aafa3c491001281d7d53b4d1047306b2326234733be3549127fe",
        "seeding.ndjson": "a79163d74b10fe83aa4d06f8a9e4d22ba90d87183c005e462730b9de78278f85",
        "immunization.ndjson": "f6262a264cb0d32dfbfa65b9446efbd51fce7e3a9cb6e41924da21654b5c1e38",
        "timing.ndjson": "d16faed25bde4ca5ee4489ecfb64d4a505e8cdefb86cfbc381d1cb41e3f749a7",
        "correlation.csv": "297e73639d8770ab0389a1235ffc330d6c9551ffef3180e35d9d661c63b201ef",
        "correlation.ndjson": "acfcf7a90393695effe05de5c096731e5939d4ce7f2a0f0e3d3a6f4e975d367a",
    }


@pytest.mark.skipif(usable_cores() < 2, reason="needs two usable cores")
def test_sir_outputs_pinned_at_two_workers(tmp_path, monkeypatch):
    """The pinned SIR bytes hold when replicate blocks run on two worker processes."""
    inp = tmp_path / "g.txt"
    assert _run("generate", "--scale", 10, "--avg-degree", 8, "--seed", 1, "--output", inp) == 0
    nodes = json.loads((tmp_path / "g.txt.manifest.json").read_text())["graph"]["nodes"]
    monkeypatch.setattr(epidemic, "_REPLICATE_BUDGET", 32 * nodes)  # 200 replicates: 7 blocks
    assert _run("simulate", "--input", inp, "--reps", 200, "--seed", 5, "--workers", 2,
                "--output", tmp_path / "sim.ndjson", "--forest-output", tmp_path / "forest.csv") == 0
    for kind in ("seeding", "immunization", "timing"):
        assert _run("analyze", "--input", inp, "--kind", kind, "--reps", 40, "--seed", 3, "--workers", 2,
                    "--output", tmp_path / kind) == 0
    assert _run("analyze", "--input", inp, "--kind", "correlation", "--reps", 200, "--seed", 3, "--min-global", 1,
                "--workers", 2, "--output", tmp_path / "correlation") == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("sim.ndjson", "forest.csv", "seeding.csv", "immunization.csv", "timing.csv",
                     "seeding.ndjson", "immunization.ndjson", "timing.ndjson", "correlation.csv", "correlation.ndjson")
    }
    assert digests == {
        "sim.ndjson": "764951a78233f54a8515b1966d1ff23c5f304fa76ab202eb1c785d645356687c",
        "forest.csv": "6f6edb92a776d646ed79c2fa2912de17dbb2c5bfff66ff7085f90b045eafc9dd",
        "seeding.csv": "1fa876b507130b921ce975bd19af5add0c17b5aa41fbb82887d171f95d8870c5",
        "immunization.csv": "a8030600e1b9e5f9ed5306b8755c9d3af0df52ed4817ad21b8cf5e7c9cce45cc",
        "timing.csv": "3a45ae22b794aafa3c491001281d7d53b4d1047306b2326234733be3549127fe",
        "seeding.ndjson": "a79163d74b10fe83aa4d06f8a9e4d22ba90d87183c005e462730b9de78278f85",
        "immunization.ndjson": "f6262a264cb0d32dfbfa65b9446efbd51fce7e3a9cb6e41924da21654b5c1e38",
        "timing.ndjson": "d16faed25bde4ca5ee4489ecfb64d4a505e8cdefb86cfbc381d1cb41e3f749a7",
        "correlation.csv": "297e73639d8770ab0389a1235ffc330d6c9551ffef3180e35d9d661c63b201ef",
        "correlation.ndjson": "acfcf7a90393695effe05de5c096731e5939d4ce7f2a0f0e3d3a6f4e975d367a",
    }


def test_centrality_outputs_pinned(tmp_path):
    """Baseline centrality CSV bytes on R-MAT s10 d8 are fixed; digests recorded before the shared CSR gather."""
    inp = tmp_path / "g.txt"
    assert _run("generate", "--scale", 10, "--avg-degree", 8, "--seed", 1, "--output", inp) == 0
    for metric in ("degree", "pagerank", "betweenness"):
        assert _run("centrality", "--input", inp, "--metric", metric, "--output", tmp_path / f"{metric}.csv") == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("degree.csv", "pagerank.csv", "betweenness.csv")
    }
    assert digests == {
        "degree.csv": "a05fb7fd18e2945c4434a4367a5019f323c4e2041b57e1b1b55418e9cab91854",
        "pagerank.csv": "069034bfe9aa05153dd78aea50402f997a2f33470c6f97fa8911d89d7dedad4e",
        "betweenness.csv": "8a224e2751a3771f54dd604a8127ed4866820b4da35f823905eda0cd87191b42",
    }


@pytest.mark.skipif(usable_cores() < 2, reason="needs two usable cores")
def test_betweenness_pinned_at_two_workers(tmp_path):
    """Betweenness bytes on R-MAT s10 d8 hold when its 12 source blocks run on two worker processes; digest recorded before the lane-keyed `Graph.expand`."""
    inp = tmp_path / "g.txt"
    assert _run("generate", "--scale", 10, "--avg-degree", 8, "--seed", 1, "--output", inp) == 0
    out = tmp_path / "betweenness.csv"
    assert _run("centrality", "--input", inp, "--metric", "betweenness", "--workers", 2, "--output", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "8a224e2751a3771f54dd604a8127ed4866820b4da35f823905eda0cd87191b42"
    )


_CORRELATION_WITH_BETWEENNESS = {
    "correlation.csv": "ab5aa66584819447733b736cd5f6900623148516d8058c0599570de69fa6bd30",
    "correlation.ndjson": "ef4916d801bc4bb8df1d841b259464a770eaf4b8d881442810c76ea2bc7212c9",
}


def _correlation_with_betweenness_digests(tmp_path, inp, workers):
    assert _run("analyze", "--input", inp, "--kind", "correlation", "--with-betweenness", "--reps", 200,
                "--seed", 3, "--min-global", 1, "--workers", workers, "--output", tmp_path / "correlation") == 0
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in _CORRELATION_WITH_BETWEENNESS}


def test_correlation_with_betweenness_pinned(tmp_path):
    """Correlation report bytes with betweenness on R-MAT s10 d8 are fixed; digests recorded before the direction-optimizing betweenness BFS."""
    inp = tmp_path / "g.txt"
    assert _run("generate", "--scale", 10, "--avg-degree", 8, "--seed", 1, "--output", inp) == 0
    assert _correlation_with_betweenness_digests(tmp_path, inp, 1) == _CORRELATION_WITH_BETWEENNESS


@pytest.mark.skipif(usable_cores() < 2, reason="needs two usable cores")
def test_correlation_with_betweenness_pinned_at_two_workers(tmp_path, monkeypatch):
    """The pinned correlation bytes hold when betweenness and replicate blocks run on two worker processes."""
    inp = tmp_path / "g.txt"
    assert _run("generate", "--scale", 10, "--avg-degree", 8, "--seed", 1, "--output", inp) == 0
    nodes = json.loads((tmp_path / "g.txt.manifest.json").read_text())["graph"]["nodes"]
    monkeypatch.setattr(epidemic, "_REPLICATE_BUDGET", 32 * nodes)  # 200 replicates: 7 blocks
    assert _correlation_with_betweenness_digests(tmp_path, inp, 2) == _CORRELATION_WITH_BETWEENNESS


def test_generate_and_ef_outputs_pinned(tmp_path):
    """Edge-list and ef.csv bytes are fixed; digests recorded before the vectorized parse, build and writers."""
    runs = (("s10.txt", 10, 8, 1), ("s12.txt", 12, 16, 116))
    for name, scale, degree, seed in runs:
        assert _run("generate", "--scale", scale, "--avg-degree", degree, "--seed", seed,
                    "--output", tmp_path / name) == 0
    assert _run("ef", "--input", tmp_path / "s12.txt", "--mode", "cluster", "--output", tmp_path / "ef.csv") == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("s10.txt", "s12.txt", "ef.csv")
    }
    assert digests == {
        "s10.txt": "f9b8f12ab98e8257ea823e34eefffabde5c99b7cd57a45224eec58b7feb48e51",
        "s12.txt": "272261618b7dfad7bbfc2de6611d72b536b54ca640b41393f2653a71c894873b",
        "ef.csv": "8aa7f56092dd0e90e80a2377e48a099e73e7158d6af24df33ebb219e4d0f4c72",
    }


class TestAnalyze:
    def test_seeding_rows(self, tmp_path):
        inp = tmp_path / "g.txt"
        assert _run("generate", "--scale", 8, "--avg-degree", 6, "--seed", 5, "--output", inp) == 0
        prefix = tmp_path / "seeding"
        assert _run("analyze", "--input", inp, "--kind", "seeding", "--reps", 5,
                    "--bins", 4, "--seed", 11, "--output", prefix) == 0
        lines = (tmp_path / "seeding.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + 4 bins
        head = json.loads((tmp_path / "seeding.ndjson").read_text().splitlines()[0])
        assert head["kind"] == "seeding"
        manifest = json.loads((tmp_path / "seeding.manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert "ef" in manifest["timings_ms"]

    def test_correlation_rows(self, tmp_path):
        inp = tmp_path / "g.txt"
        assert _run("generate", "--scale", 8, "--avg-degree", 6, "--seed", 5, "--output", inp) == 0
        prefix = tmp_path / "corr"
        assert _run("analyze", "--input", inp, "--kind", "correlation", "--reps", 30,
                    "--min-global", 1, "--seed", 11, "--output", prefix) == 0
        lines = (tmp_path / "corr.ndjson").read_text().strip().splitlines()
        rows = [json.loads(ln) for ln in lines[1:]]
        metrics = {r["metric"] for r in rows}
        assert {"exp_ef", "degree", "pagerank"} <= metrics

    def test_correlation_subphase_timings(self, tmp_path):
        inp = tmp_path / "g.txt"
        assert _run("generate", "--scale", 8, "--avg-degree", 6, "--seed", 5, "--output", inp) == 0
        assert _run("analyze", "--input", inp, "--kind", "correlation", "--with-betweenness", "--reps", 30,
                    "--min-global", 1, "--seed", 11, "--output", tmp_path / "corr") == 0
        timings = json.loads((tmp_path / "corr.manifest.json").read_text())["timings_ms"]
        # experiment encloses both sub-phases and the report
        assert timings["centrality"] > 0 and timings["simulate"] > 0
        assert timings["centrality"] + timings["simulate"] <= timings["experiment"]

    def test_correlation_parent_holds_sums_not_outcomes(self, tmp_path, monkeypatch):
        inp = tmp_path / "g.txt"
        assert _run("generate", "--scale", 8, "--avg-degree", 8, "--seed", 1, "--output", inp) == 0
        nodes = json.loads((tmp_path / "g.txt.manifest.json").read_text())["graph"]["nodes"]
        monkeypatch.setattr(epidemic, "_REPLICATE_BUDGET", 100 * nodes)  # 2000 replicates: 20 blocks
        tracemalloc.start()
        try:
            assert _run("analyze", "--input", inp, "--kind", "correlation", "--reps", 2000, "--r0", 3,
                        "--min-global", 1, "--workers", 1, "--output", tmp_path / "corr") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured traced peaks here: 7.2 MB when every outcome was kept for
        # the report, 3.0 MB with one SpreadingSums part per block.
        assert peak < 5e6

    def test_immunization_and_timing(self, tmp_path):
        inp = tmp_path / "g.txt"
        assert _run("generate", "--scale", 8, "--avg-degree", 6, "--seed", 5, "--output", inp) == 0
        for kind, extra in (("immunization", ["--scenarios", "3"]), ("timing", ["--bins", "3"])):
            prefix = tmp_path / kind
            assert _run("analyze", "--input", inp, "--kind", kind, "--reps", 5,
                        "--seed", 1, "--output", prefix, *extra) == 0
            assert (tmp_path / f"{kind}.csv").exists()

    def test_unwritable_output_fails_before_any_work(self, tmp_path, monkeypatch, capsys):
        inp = tmp_path / "star.txt"
        _write_star(inp)
        monkeypatch.setattr(cli, "compute_ef", lambda *a, **k: pytest.fail("EF computed"))
        monkeypatch.setattr(cli, "seeding_experiment", lambda *a, **k: pytest.fail("experiment run"))
        prefix = tmp_path / "missing" / "seeding"
        assert _run("analyze", "--input", inp, "--kind", "seeding", "--bins", 2, "--output", prefix) == 1
        assert f"{prefix}.csv" in capsys.readouterr().err


class TestBench:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert _run("bench", "--scale", 7, "--degrees", "2,4", "--workers", "1",
                    "--modes", "cluster,vertex", "--repeats", 2, "--output", out) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "mode,scale,avg_degree,workers,time_ms,clusters_per_ms"
        assert len(lines) == 1 + 2 * 2  # two degrees x two modes
        manifest = json.loads((tmp_path / "bench.csv.manifest.json").read_text())
        assert manifest["timed_out"] is False

    @pytest.mark.parametrize("repeats", [0, -2])
    def test_repeats_below_one_is_usage_error(self, tmp_path, monkeypatch, repeats):
        monkeypatch.setattr(cli, "generate_rmat", lambda params: pytest.fail("graph generated"))
        out = tmp_path / "bench.csv"
        assert _run("bench", "--scale", 6, "--degrees", "2", "--repeats", repeats, "--output", out) == 2
        manifest = json.loads((tmp_path / "bench.csv.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error_type"] == "usage"
        assert "--repeats" in manifest["error"]
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--degrees", ","), ("--workers", ","), ("--modes", ","),
                                            ("--timeout", -1), ("--timeout", "nan"), ("--degrees", "4,0")])
    def test_empty_sweep_is_usage_error(self, tmp_path, monkeypatch, flag, value):
        monkeypatch.setattr(cli, "generate_rmat", lambda params: pytest.fail("graph generated"))
        out = tmp_path / "bench.csv"
        assert _run("bench", "--scale", 6, "--repeats", 1, flag, value, "--output", out) == 2
        manifest = json.loads((tmp_path / "bench.csv.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error_type"] == "usage"
        assert flag in manifest["error"]
        assert not out.exists()

    def test_unknown_mode_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # refused while parsing, so before a manifest exists
        monkeypatch.setattr(cli, "generate_rmat", lambda params: pytest.fail("graph generated"))
        out = tmp_path / "bench.csv"
        assert _run("bench", "--scale", 6, "--repeats", 1, "--modes", "cluster,foo", "--output", out) == 2
        assert "unknown mode 'foo'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_usage_error_even_when_seed_plus_degree_is_not(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "generate_rmat", lambda params: pytest.fail("graph generated"))
        out = tmp_path / "bench.csv"
        assert _run("bench", "--scale", 4, "--degrees", 4, "--repeats", 1, "--seed", -3, "--output", out) == 2
        manifest = json.loads((tmp_path / "bench.csv.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error_type"] == "usage"
        assert manifest["error"] == "--seed must be >= 0, got -3"
        assert not out.exists()

    def test_cells_in_sweep_order_one_graph_per_degree(self, tmp_path, monkeypatch):
        generated = []
        real = cli.generate_rmat

        def counting(params):
            generated.append(params.avg_degree)
            return real(params)

        monkeypatch.setattr(cli, "generate_rmat", counting)
        out = tmp_path / "bench.csv"
        assert _run("bench", "--scale", 6, "--degrees", "2,4", "--workers", "1,2",
                    "--modes", "cluster,vertex", "--repeats", 1, "--output", out) == 0
        cells = [tuple(line.split(",")[:4]) for line in out.read_text().strip().splitlines()[1:]]
        assert cells == [(mode, "6", str(degree), str(workers))
                         for degree in (2, 4) for mode in ("cluster", "vertex") for workers in (1, 2)]
        assert generated == [2, 4]
        manifest = json.loads((tmp_path / "bench.csv.manifest.json").read_text())
        assert manifest["timed_out"] is False and manifest["cells"] == 8

    def test_timeout_partial(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert _run("bench", "--scale", 8, "--degrees", "2,4,8", "--workers", "1",
                    "--modes", "cluster", "--repeats", 1, "--timeout", 0, "--output", out) == 0
        manifest = json.loads((tmp_path / "bench.csv.manifest.json").read_text())
        assert manifest["timed_out"] is True
        assert manifest["cells"] < 3

    def test_timeout_is_checked_before_generating_a_graph(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "generate_rmat", lambda params: pytest.fail("graph generated"))
        out = tmp_path / "bench.csv"
        assert _run("bench", "--scale", 6, "--degrees", "2,16", "--timeout", 0, "--output", out) == 0
        manifest = json.loads((tmp_path / "bench.csv.manifest.json").read_text())
        assert manifest["cells"] == 0 and manifest["timed_out"] is True


class TestTopLevel:
    def test_no_command_prints_help(self):
        assert main([]) == 2

    def test_version_flag(self):
        assert main(["--version"]) == 0

    def test_env_default_workers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EFGRAPH_WORKERS", "3")
        inp = tmp_path / "star.txt"
        _write_star(inp)
        out = tmp_path / "ef.csv"
        assert _run("ef", "--input", inp, "--output", out) == 0
        manifest = json.loads((tmp_path / "ef.csv.manifest.json").read_text())
        assert manifest["workers"] == 3

    @pytest.mark.parametrize("value", ["two", "0", ""])
    def test_bad_env_workers_is_usage_error(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("EFGRAPH_WORKERS", value)
        inp = tmp_path / "star.txt"
        _write_star(inp)
        out = tmp_path / "ef.csv"
        assert _run("ef", "--input", inp, "--output", out) == 2
        manifest = json.loads((tmp_path / "ef.csv.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "EFGRAPH_WORKERS" in manifest["error"]
        assert not out.exists()
        # an explicit --workers does not consult the environment
        assert _run("ef", "--input", inp, "--workers", 2, "--output", out) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("ef", "--workers", 0),
            ("ef", "--workers", -2),
            ("simulate", "--workers", 0),
            ("analyze", "--kind", "correlation", "--workers", -1),
            ("centrality", "--metric", "betweenness", "--workers", 0),
            ("simulate", "--reps", 0),
            ("analyze", "--kind", "seeding", "--reps", 0),
        ],
    )
    def test_bad_count_flag_is_usage_error(self, tmp_path, argv):
        inp = tmp_path / "star.txt"
        _write_star(inp)
        out = tmp_path / "out.csv"
        assert _run(*argv, "--input", inp, "--output", out) == 2
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error_type"] == "usage"
        assert argv[-2] in manifest["error"]
        assert not out.exists()

    def test_runs_on_numpy_alone(self, tmp_path):
        # pyproject.toml declares only numpy; scipy and networkx are test-only oracles
        script = f"""
import sys
from efgraph.cli import main
g, out = {str(tmp_path / "g.txt")!r}, {str(tmp_path)!r}
assert main(["generate", "--scale", "12", "--avg-degree", "4", "--output", g]) == 0
assert main(["ef", "--input", g, "--output", out + "/ef.csv"]) == 0
assert main(["analyze", "--input", g, "--kind", "correlation", "--reps", "200", "--min-global", "1",
             "--workers", "2", "--output", out + "/cor"]) == 0
print(sorted(m for m in sys.modules if m.partition(".")[0] in ("scipy", "networkx")))
"""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        # -X importtime logs every import to stderr, the forked workers' too
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.strip() == "[]"
        assert not [line for line in done.stderr.splitlines() if "scipy" in line or "networkx" in line]


# the flags simulate and analyze share; --input, --output and --reps are given per command below
_SIR_DEFAULTS = {"seed": 0, "r0": 1.3, "recovery_days": 3.0, "beta": None, "mu": None, "max_steps": None,
                 "threshold": 0.25, "workers": None}
_PARSED_DEFAULTS = [  # a minimal command line per subcommand, and every flag's parsed value
    (["generate", "--scale", "6", "--avg-degree", "4", "--output", "o"],
     {"command": "generate", "scale": 6, "avg_degree": 4, "seed": 0, "probs": None, "output": "o"}),
    (["ef", "--input", "i", "--output", "o"],
     {"command": "ef", "input": "i", "mode": "cluster", "workers": None, "output": "o"}),
    (["centrality", "--input", "i", "--metric", "degree", "--output", "o"],
     {"command": "centrality", "input": "i", "metric": "degree", "damping": 0.85, "tol": 1e-08, "max_iter": 200,
      "budget": 500_000_000, "force": False, "workers": None, "output": "o"}),
    (["simulate", "--input", "i", "--output", "o"],
     {"command": "simulate", "input": "i", "index": None, "reps": 1, **_SIR_DEFAULTS, "forest_output": None,
      "output": "o"}),
    (["analyze", "--input", "i", "--kind", "seeding", "--output", "o"],
     {"command": "analyze", "input": "i", "kind": "seeding", "reps": 100, "bins": 10, "scenarios": 10,
      "immunize_frac": 0.05, "min_global": 100, "with_betweenness": False, **_SIR_DEFAULTS, "output": "o"}),
    (["bench", "--output", "o"],
     {"command": "bench", "scale": 12, "degrees": [2, 4, 8, 16], "workers": [1], "modes": ["cluster"],
      "repeats": 3, "seed": 0, "timeout": None, "output": "o"}),
]


@pytest.mark.parametrize("argv,expected", _PARSED_DEFAULTS, ids=[argv[0] for argv, _ in _PARSED_DEFAULTS])
def test_parsed_defaults_are_pinned(argv, expected):
    parser = cli._build_parser()
    parsed = vars(parser.parse_args(argv))
    assert parsed.pop("func").__name__ == f"cmd_{argv[0]}"
    assert parsed == expected
    for at in range(1, len(argv), 2):  # every flag of the minimal command line is required
        with pytest.raises(SystemExit):
            parser.parse_args(argv[:at] + argv[at + 2:])
