#!/usr/bin/env python3
"""Record the reference outputs that run.py checks later runs against.

    python3 perfbench/golden.py --seeds 0-23 [--workload NAME ...]

For each workload and benchmark seed, generates the input, runs the timed
command once, checks its outputs by the invariant checks in checks.py, and
stores in golden.json, keyed by generate seed: the input fingerprint
(nodes, edges, the manifest's graph sha256, the edge list's sha256), the
sha256 of every output, and for the correlation report its full text,
which is compared cell by cell. Existing entries for other seeds are kept.
"""
from __future__ import annotations

import argparse
import json
import sys

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_entry(w: run.Workload, seed: int) -> dict:
    record = run.run_workload(w, seed, 0.0, False, {}, setup_repeats=1, min_samples=1)
    if record["failed"]:
        raise run.BenchError(f"{w.name} seed {seed}: {record['errors']}")
    out = run.WORK / w.name / "out"
    entry = {"input": record["input"],
             "outputs": {name: run.sha256_file(out / name) for name in w.outputs()}}
    if w.kind == "correlation":
        entry["report_csv"] = (out / "cor.csv").read_text()
        entry["report_ndjson"] = (out / "cor.ndjson").read_text()
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 0-23 or 0,5,7")
    parser.add_argument("--workload", action="append", choices=list(run.WORKLOADS))
    args = parser.parse_args(argv)
    doc = (json.loads(run.GOLDEN_PATH.read_text()) if run.GOLDEN_PATH.exists()
           else {"recorded_with": {}, "workloads": {}})
    try:
        run.preflight()
        for name in args.workload or list(run.WORKLOADS):
            w = run.WORKLOADS[name]
            for seed in args.seeds:
                entry = record_entry(w, seed)
                doc["workloads"].setdefault(name, {})[str(w.gen_seed(seed))] = entry
                doc["recorded_with"] = {k: v for k, v in run.environment().items()
                                        if k in ("git_sha", "src_sha256", "python", "numpy")}
                run.GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
                print(f"{name} seed {seed} (generate seed {w.gen_seed(seed)}): recorded", flush=True)
    except run.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
