#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark and record a baseline.

    python3 perfbench/prove.py --seeds 0-9 --out perfbench/baseline.json
    python3 perfbench/prove.py --seeds 0-9 --out perfbench/_work/second.json \
        --compare perfbench/baseline.json

Runs ``run.py`` once per workload and seed with ``--trace 0``, then twice
per workload with ``--trace 1`` on the first seed. For every end-to-end
metric it reports the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median against the metric's bound from
BENCHMARK.json; every spread but setup_s's must stay within its bound, and
the target is a third of it. The traced runs give the per-layer numbers;
their counts must repeat exactly. With --compare, each median must not be
worse than the earlier file's by more than the bound. Exits 1 when a
requirement fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import run
from golden import parse_seeds


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(metric: dict, old: float, new: float) -> float:
    """Share of the old value by which new is worse (negative when better)."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--workload", action="append", choices=list(run.WORKLOADS))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = run.read_json(run.ROOT / "BENCHMARK.json")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    # work counts must repeat exactly; trace.phase_mismatches depends on timing
    count_metrics = [m["name"] for m in spec["per_layer"]
                     if m["unit"] == "count" and not m["name"].startswith("trace.")]
    earlier = run.read_json(args.compare)["workloads"] if args.compare else {}
    env_before = run.environment()
    result = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "env": env_before, "workloads": {}}
    ok = True
    for name in args.workload or list(run.WORKLOADS):
        lines = []
        for seed in args.seeds:
            line = bench(name, seed, spec["run_seconds"], 0)
            print(f"{name} seed {seed}: correct={line['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()), flush=True)
            ok &= line["correct"]
            lines.append(line)
        row = {"e2e": {}, "failed": sum(x["failed"] for x in lines),
               "attempted": sum(x["attempted"] for x in lines)}
        for metric, info in e2e.items():
            values = [x["metrics"][metric]["value"] for x in lines]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            cell = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": info["bound"],
                    "unit": info["unit"], "values": values}
            verdict = "ok" if spread <= info["bound"] / 3 else "ABOVE 1/3 BOUND"
            if spread > info["bound"] and metric != "setup_s":
                verdict, ok = "ABOVE BOUND", False
            if name in earlier:
                old = earlier[name]["e2e"][metric]["median"]
                cell["vs_compare"] = worse_by(info, old, med)
                if cell["vs_compare"] > info["bound"]:
                    verdict, ok = f"{verdict}; WORSE THAN COMPARED BY {cell['vs_compare']:.3f}", False
            row["e2e"][metric] = cell
            print(f"  {name} {metric}: median {med:.5g} {info['unit']} q1 {q1:.5g} q3 {q3:.5g} "
                  f"spread {spread:.4f} (bound {info['bound']}) "
                  + (f"vs compare {cell['vs_compare']:+.4f} " if "vs_compare" in cell else "") + verdict,
                  flush=True)
        traced = [bench(name, args.seeds[0], spec["run_seconds"], 1) for _ in range(2)]
        ok &= all(t["correct"] for t in traced)
        counts = [{k: t["metrics"][k]["value"] for k in count_metrics} for t in traced]
        row["trace_counts_repeat"] = counts[0] == counts[1]
        ok &= row["trace_counts_repeat"]
        row["per_layer"] = {k: {"value": statistics.median(t["metrics"][k]["value"] for t in traced),
                                "unit": v["unit"]} for k, v in traced[0]["metrics"].items()}
        print(f"  {name} traced: counts repeat {row['trace_counts_repeat']}, "
              f"trace.overhead_frac {[t['metrics']['trace.overhead_frac']['value'] for t in traced]}",
              flush=True)
        result["workloads"][name] = row
    result["loadavg_after"] = os.getloadavg()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print("all requirements met" if ok else "REQUIREMENTS NOT MET")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
