import hashlib
import json
import math
import os
import time

import pytest

from efgraph import centrality, epidemic
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

    def test_scale_beyond_int32_ids_rejected(self, tmp_path):
        out = tmp_path / "g.txt"
        assert _run("generate", "--scale", 40, "--avg-degree", 16, "--output", out) == 1
        manifest = json.loads((tmp_path / "g.txt.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "scale" in manifest["error"]
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


def test_sir_outputs_pinned(tmp_path):
    """SIR output bytes on R-MAT s10 d8 are fixed; digests recorded with the per-replicate kernel."""
    inp = tmp_path / "g.txt"
    assert _run("generate", "--scale", 10, "--avg-degree", 8, "--seed", 1, "--output", inp) == 0
    assert _run("simulate", "--input", inp, "--reps", 200, "--seed", 5, "--output", tmp_path / "sim.ndjson",
                "--forest-output", tmp_path / "forest.csv") == 0
    for kind in ("immunization", "timing"):
        assert _run("analyze", "--input", inp, "--kind", kind, "--reps", 40, "--seed", 3,
                    "--output", tmp_path / kind) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("sim.ndjson", "forest.csv", "immunization.csv", "timing.csv")
    }
    assert digests == {
        "sim.ndjson": "764951a78233f54a8515b1966d1ff23c5f304fa76ab202eb1c785d645356687c",
        "forest.csv": "6f6edb92a776d646ed79c2fa2912de17dbb2c5bfff66ff7085f90b045eafc9dd",
        "immunization.csv": "a8030600e1b9e5f9ed5306b8755c9d3af0df52ed4817ad21b8cf5e7c9cce45cc",
        "timing.csv": "3a45ae22b794aafa3c491001281d7d53b4d1047306b2326234733be3549127fe",
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
    for kind in ("immunization", "timing"):
        assert _run("analyze", "--input", inp, "--kind", kind, "--reps", 40, "--seed", 3, "--workers", 2,
                    "--output", tmp_path / kind) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("sim.ndjson", "forest.csv", "immunization.csv", "timing.csv")
    }
    assert digests == {
        "sim.ndjson": "764951a78233f54a8515b1966d1ff23c5f304fa76ab202eb1c785d645356687c",
        "forest.csv": "6f6edb92a776d646ed79c2fa2912de17dbb2c5bfff66ff7085f90b045eafc9dd",
        "immunization.csv": "a8030600e1b9e5f9ed5306b8755c9d3af0df52ed4817ad21b8cf5e7c9cce45cc",
        "timing.csv": "3a45ae22b794aafa3c491001281d7d53b4d1047306b2326234733be3549127fe",
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

    def test_immunization_and_timing(self, tmp_path):
        inp = tmp_path / "g.txt"
        assert _run("generate", "--scale", 8, "--avg-degree", 6, "--seed", 5, "--output", inp) == 0
        for kind, extra in (("immunization", ["--scenarios", "3"]), ("timing", ["--bins", "3"])):
            prefix = tmp_path / kind
            assert _run("analyze", "--input", inp, "--kind", kind, "--reps", 5,
                        "--seed", 1, "--output", prefix, *extra) == 0
            assert (tmp_path / f"{kind}.csv").exists()


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

    def test_timeout_partial(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert _run("bench", "--scale", 8, "--degrees", "2,4,8", "--workers", "1",
                    "--modes", "cluster", "--repeats", 1, "--timeout", 0, "--output", out) == 0
        manifest = json.loads((tmp_path / "bench.csv.manifest.json").read_text())
        assert manifest["timed_out"] is True
        assert manifest["cells"] < 3


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
            ("ef", "--chunk-size", 0),
            ("ef", "--chunk-size", -1),
            ("centrality", "--metric", "betweenness", "--workers", 0),
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
