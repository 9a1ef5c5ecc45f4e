#!/usr/bin/env python3
"""End-to-end benchmark of the efgraph CLI on generated R-MAT graphs.

Run from the root of an efgraph checkout:

    python3 perfbench/run.py --workload ef-dense --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Load model: closed loop, one client. Every timed command is a fresh
``python -m efgraph.cli`` process that imports efgraph from this checkout's
``src/``. A CLI user pays interpreter start, import and cache fill on every
command, so they stay inside the timing.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates the
same command plain and under ``traced_cli.py`` and reports the per-layer
metrics from the traced runs, plus the tracing overhead.

Every command's outputs are checked: against the digests recorded in
``golden.json`` when the generate seed has an entry there, otherwise by
invariant checks that need no recorded output (see ``checks.py``). All
samples of one run must be byte-identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record of
the run, environment included, goes to ``perfbench/_work/results/``.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
GOLDEN_PATH = BENCH_DIR / "golden.json"

SETUP_REPEATS = 7  # generate runs per run; setup_s is their median
MIN_SAMPLES = 3  # timed commands per run, however long they take
RUN_LIMIT_S = 170.0  # a whole run, set-up included, must end within 180 s
SIM_SEED = "7"  # analyze --seed; the benchmark seed varies the graph


@dataclasses.dataclass(frozen=True)
class Workload:
    """One timed CLI command on one generated R-MAT graph."""

    name: str
    kind: str  # "ef" or "correlation"
    scale: int
    avg_degree: int
    base_seed: int  # generate seed at benchmark --seed 0
    reps: int = 0
    workers: int = 1

    def gen_seed(self, seed: int) -> int:
        return self.base_seed + seed

    def outputs(self) -> tuple[str, ...]:
        return {
            "ef": ("ef.csv",),
            "correlation": ("cor.csv", "cor.ndjson"),
        }[self.kind]

    def manifest_name(self) -> str:
        return {"ef": "ef.csv", "correlation": "cor"}[self.kind] + ".manifest.json"

    def cli_args(self, edges: Path, out: Path) -> list[str]:
        if self.kind == "ef":
            return ["ef", "--input", str(edges), "--mode", "cluster",
                    "--workers", str(self.workers), "--output", str(out / "ef.csv")]
        return ["analyze", "--input", str(edges), "--kind", "correlation", "--with-betweenness",
                "--reps", str(self.reps), "--seed", SIM_SEED,
                "--workers", str(self.workers), "--output", str(out / "cor")]

    def generate_args(self, seed: int, edges: Path) -> list[str]:
        return ["generate", "--scale", str(self.scale), "--avg-degree", str(self.avg_degree),
                "--seed", str(self.gen_seed(seed)), "--output", str(edges)]


# Why each workload: see perfbench/README.md. At --seed 0 these are the
# cells measured when the benchmark was defined (generate seeds 116 and 1).
WORKLOADS = {
    w.name: w
    for w in (
        # expected_force does >90% of the work: EF kernel time and memory.
        Workload("ef-dense", "ef", scale=14, avg_degree=16, base_seed=116),
        # betweenness + many small threaded SIR replicates + report; the one
        # workload where the worker count matters.
        Workload("correlation-s12", "correlation", scale=12, avg_degree=8, base_seed=1,
                 reps=2000, workers=2),
    )
}

class BenchError(Exception):
    """The run cannot produce a meaningful result (exit without a result line)."""


@dataclasses.dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    log: Path


class Runner:
    """Starts CLI processes, each reaped with os.wait4 for its own rusage."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("EFGRAPH_WORKERS", None)

    def run(self, argv: list[str], log: Path, cwd: Path) -> Proc:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run time limit reached before the command could start")
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                 stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, p.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
                p.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                p.kill()
                p.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        # ru_maxrss of a reaped child also covers the children it reaped itself
        # (the largest one, so concurrent children are under-counted).
        return Proc(p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, log)

    def cli(self, args: list[str], log: Path, cwd: Path, trace: Path | None = None) -> Proc:
        if trace is None:
            argv = [sys.executable, "-m", "efgraph.cli", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace), *args]
        return self.run(argv, log, cwd)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def golden_entry(golden: dict, w: Workload, seed: int) -> dict | None:
    return golden.get(w.name, {}).get(str(w.gen_seed(seed)))


def read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def log_tail(path: Path, lines: int = 5) -> str:
    try:
        text = path.read_text(errors="replace").strip().splitlines()
    except OSError:
        return ""
    return " | ".join(text[-lines:])


def environment() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                     text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "efgraph").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# set-up: generate the input graph
# ----------------------------------------------------------------------


def setup(w: Workload, seed: int, repeats: int, runner: Runner, work: Path, golden: dict,
          tally: "Tally") -> tuple[Path, dict, list[float]]:
    """Generate the edge list `repeats` times; return path, fingerprint and wall times."""
    edges = work / "graph.txt"
    times = []
    digest = None
    for i in range(repeats):
        proc = runner.cli(w.generate_args(seed, edges), work / f"generate-{i}.log", work)
        tally.attempted += 1
        if proc.rc != 0:
            tally.failed += 1
            raise BenchError(f"efgraph generate exited {proc.rc}: {log_tail(proc.log)}")
        times.append(proc.wall_s)
        this = sha256_file(edges)
        if digest is not None and this != digest:
            tally.failed += 1
            raise BenchError("efgraph generate wrote different edge lists for one seed")
        digest = this
    manifest = read_json(Path(f"{edges}.manifest.json"))
    graph = manifest["graph"]
    fingerprint = {"nodes": graph["nodes"], "edges": graph["edges"],
                   "graph_sha256": graph["sha256"], "edge_list_sha256": digest}
    expected = golden_entry(golden, w, seed)
    if expected is not None and expected["input"] != fingerprint:
        raise BenchError(
            f"input fingerprint mismatch for {w.name} at generate seed {w.gen_seed(seed)}: "
            f"recorded {expected['input']}, generated {fingerprint}. The generator changed, so "
            "this run would not be comparable with earlier ones; stopping."
        )
    return edges, fingerprint, times


# ----------------------------------------------------------------------
# timed commands
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)


class OutputChecker:
    """Checks every sample; the first verified sample's digests bind the rest."""

    def __init__(self, w: Workload, seed: int, edges: Path, fingerprint: dict, golden: dict):
        self.w = w
        self.edges = edges
        self.fingerprint = fingerprint
        self.golden = golden_entry(golden, w, seed)
        self.verified: dict | None = None
        self.mode = "golden" if self.golden is not None else "invariants"

    def check(self, out: Path) -> str | None:
        w = self.w
        try:
            manifest = read_json(out / w.manifest_name())
            if manifest.get("status") != "ok":
                return f"manifest status {manifest.get('status')!r}: {manifest.get('error')}"
            digests = {name: sha256_file(out / name) for name in w.outputs()}
            if self.verified is not None:
                if digests != self.verified:
                    return "outputs differ from the run's first verified sample"
                return None
            if self.golden is not None:
                err = checks.against_golden(w, out, digests, self.golden)
            else:
                err = checks.invariants(w, out, manifest, self.edges, self.fingerprint)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"output check could not read the outputs: {exc!r}"
        if err is None:
            self.verified = digests
        return err


def corrupt(path: Path) -> None:
    """Flip one byte in the middle of a file (self-test of the output checks)."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def timed_command(w, runner, edges, work, checker, tally, label, trace=None, corrupt_it=False):
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    proc = runner.cli(w.cli_args(edges, out), work / f"{label}.log", work, trace=trace)
    tally.attempted += 1
    if proc.rc != 0:
        err = f"exit code {proc.rc}: {log_tail(proc.log)}"
    else:
        if corrupt_it:
            corrupt(out / w.outputs()[0])
        err = checker.check(out)
    if err is not None:
        tally.failed += 1
        tally.errors.append(f"{label}: {err}")
        print(f"perfbench: {w.name} {label} failed: {err}", file=sys.stderr)
    return proc, out


def keep_going(walls: list[float], t_start: float, seconds: float, runner: Runner, minimum: int) -> bool:
    if not walls:
        return True
    typical = statistics.median(walls)
    if runner.deadline - time.monotonic() < 1.5 * typical + 5.0:
        return False
    if len(walls) < minimum:
        return True
    return time.monotonic() - t_start + typical <= seconds


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, golden: dict,
                 corrupt_sample: int | None = None, setup_repeats: int = SETUP_REPEATS,
                 min_samples: int = MIN_SAMPLES) -> dict:
    """One benchmark run of one workload; returns the full record."""
    started = time.monotonic()
    runner = Runner(started + RUN_LIMIT_S)
    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_before = os.getloadavg()
    tally = Tally()

    edges, fingerprint, setup_times = setup(
        w, seed, 1 if trace else setup_repeats, runner, work, golden, tally)
    checker = OutputChecker(w, seed, edges, fingerprint, golden)
    record = {
        "workload": w.name, "seed": seed, "generate_seed": w.gen_seed(seed), "trace": int(trace),
        "seconds": seconds, "input": fingerprint, "check_mode": checker.mode,
        "setup_times_s": setup_times,
    }

    if not trace:
        procs = []
        t0 = time.monotonic()
        while keep_going([p.wall_s for p in procs], t0, seconds, runner, min_samples):
            i = len(procs)
            proc, _ = timed_command(w, runner, edges, work, checker, tally, f"solve-{i}",
                                    corrupt_it=(i == corrupt_sample))
            procs.append(proc)
        walls = [p.wall_s for p in procs]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "solve_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(p.maxrss_mb for p in procs),
            "success_rate": 1.0 - tally.failed / tally.attempted,
        }
        record["solve_times_s"] = walls
        record["peak_rss_mb_samples"] = [p.maxrss_mb for p in procs]
        record["cpu_s_samples"] = [p.cpu_s for p in procs]
    else:
        gen_trace = work / "trace-generate.json"
        proc = runner.cli(w.generate_args(seed, work / "graph-traced.txt"), work / "generate-traced.log",
                          work, trace=gen_trace)
        tally.attempted += 1
        if proc.rc != 0 or sha256_file(work / "graph-traced.txt") != fingerprint["edge_list_sha256"]:
            tally.failed += 1
            raise BenchError(f"traced efgraph generate failed or differed: {log_tail(proc.log)}")
        gen = layers.load_trace(gen_trace, work / "graph-traced.txt.manifest.json")
        plain, traced = [], []
        t0 = time.monotonic()
        while keep_going([p.wall_s + t[0].wall_s for p, t in zip(plain, traced)], t0, seconds, runner, 1):
            i = len(plain)
            proc, _ = timed_command(w, runner, edges, work, checker, tally, f"plain-{i}")
            plain.append(proc)
            tpath = work / f"trace-{i}.json"
            proc, out = timed_command(w, runner, edges, work, checker, tally, f"traced-{i}", trace=tpath)
            sample = layers.load_trace(tpath, out / w.manifest_name()) if proc.rc == 0 else None
            output_bytes = sum((out / name).stat().st_size for name in w.outputs() if (out / name).exists())
            traced.append((proc, sample, output_bytes))
        if all(sample is None for _, sample, _ in traced):
            raise BenchError(f"no traced command succeeded: {tally.errors}")
        metrics, notes, counts = layers.per_layer(gen, traced, plain)
        for note in notes:
            print(f"perfbench: {w.name}: {note}", file=sys.stderr)
        if any(c != counts[0] for c in counts):
            tally.failed += 1
            tally.errors.append(f"traced counts differ between samples of one run: {counts}")
        record["trace_notes"] = notes
        record["trace_counts"] = counts[0]
        record["plain_times_s"] = [p.wall_s for p in plain]
        record["traced_times_s"] = [t[0].wall_s for t in traced]

    record["attempted"] = tally.attempted
    record["failed"] = tally.failed
    record["errors"] = tally.errors
    record["metrics"] = metrics
    record["env"] = environment()
    record["env"]["loadavg_before"] = load_before
    record["env"]["loadavg_after"] = os.getloadavg()
    record["run_wall_s"] = time.monotonic() - started
    return record


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def units(trace: bool) -> dict:
    spec = read_json(ROOT / "BENCHMARK.json")
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def result_line(record: dict, unit_of: dict) -> dict:
    metrics = {}
    for name, unit in unit_of.items():
        metrics[name] = {"value": record["metrics"][name], "unit": unit}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def summary(record: dict) -> str:
    m = record["metrics"]
    head = (f"{record['workload']}: seed {record['seed']} (generate seed {record['generate_seed']}), "
            f"n={record['input']['nodes']} m={record['input']['edges']}, checks: {record['check_mode']}")
    err = record["failed"] / record["attempted"]
    tail = f"  error_rate {err:.4g} fraction ({record['failed']}/{record['attempted']} commands)"
    if record["trace"]:
        body = (f"  traced samples {len(record['traced_times_s'])}, "
                f"trace.overhead_frac {m['trace.overhead_frac']:.4f}")
    else:
        body = (f"  setup_s {m['setup_s']:.4f} s (median of {len(record['setup_times_s'])})\n"
                f"  solve_s {m['solve_s']:.4f} s (median of {len(record['solve_times_s'])} samples)\n"
                f"  peak_rss_mb {m['peak_rss_mb']:.1f} MB")
    env = record["env"]
    env_line = (f"  env: nproc {env['nproc']}, {env['cpu_model']}, python {env['python']}, "
                f"numpy {env['numpy']}, git {env['git_sha'] or 'n/a'}, src {env['src_sha256'][:12]}, "
                f"loadavg {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}")
    return f"{head}\n{body}\n{tail}\n{env_line}"


def save(record: dict) -> Path:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return path


def preflight() -> None:
    if not (SRC / "efgraph" / "cli.py").is_file():
        raise BenchError(f"no efgraph sources under {SRC}; run from the root of an efgraph checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        raise BenchError(f"missing {ROOT / 'BENCHMARK.json'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        preflight()
        unit_of = units(bool(args.trace))
        golden = load_golden()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        records = []
        for name in names:
            record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), golden)
            path = save(record)
            print(summary(record))
            print(f"  full record: {path.relative_to(ROOT)}")
            records.append(record)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        line = result_line(records[0], unit_of)
    else:
        lines = {r["workload"]: result_line(r, unit_of) for r in records}
        line = {
            "correct": all(x["correct"] for x in lines.values()),
            "attempted": sum(x["attempted"] for x in lines.values()),
            "failed": sum(x["failed"] for x in lines.values()),
            "metrics": {f"{wl}.{k}": v for wl, x in lines.items() for k, v in x["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
