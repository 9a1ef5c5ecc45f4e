#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py

On small versions of the two workloads it checks that:

* every metric named in BENCHMARK.json is emitted with its unit, in both
  the plain and the traced run;
* outputs pass the invariant checks, a golden recorded from them, and
  the same golden after a second run;
* the traced counts (expected_force.clusters, epidemic.steps,
  epidemic.infections, ...) repeat exactly across two traced runs;
* a deliberately corrupted output counts as a failed command, lowers the
  success rate and does not crash the run;
* a changed input fingerprint stops the run with a message.

Exits 0 when all pass, 1 otherwise.
"""
from __future__ import annotations

import copy
import dataclasses
import sys

import golden as golden_mod
import run

SMALL = [
    dataclasses.replace(run.WORKLOADS["ef-dense"], name="selftest-ef", scale=9),
    dataclasses.replace(run.WORKLOADS["correlation-s12"], name="selftest-correlation", scale=8, reps=200),
]
SEED = 3


def expect(cond: bool, what: str, problems: list[str]) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        problems.append(what)


def metrics_complete(record: dict, trace: bool, problems: list[str]) -> None:
    unit_of = run.units(trace)
    line = run.result_line(record, unit_of)
    ok = (set(line["metrics"]) == set(unit_of)
          and all(isinstance(v["value"], (int, float)) and v["unit"] == unit_of[k]
                  for k, v in line["metrics"].items()))
    expect(ok, f"{record['workload']} trace={int(trace)}: all {len(unit_of)} metrics emitted with units",
           problems)


def check_workload(w: run.Workload, problems: list[str]) -> None:
    plain = run.run_workload(w, SEED, 0.0, False, {})
    expect(plain["failed"] == 0 and plain["check_mode"] == "invariants",
           f"{w.name}: outputs pass the invariant checks {plain['errors']}", problems)
    metrics_complete(plain, False, problems)

    entry = golden_mod.record_entry(w, SEED)
    golden = {w.name: {str(w.gen_seed(SEED)): entry}}
    again = run.run_workload(w, SEED, 0.0, False, golden)
    expect(again["failed"] == 0 and again["check_mode"] == "golden",
           f"{w.name}: outputs match the recorded golden {again['errors']}", problems)

    first = run.run_workload(w, SEED, 0.0, True, golden)
    second = run.run_workload(w, SEED, 0.0, True, golden)
    metrics_complete(first, True, problems)
    expect(first["failed"] == 0 and second["failed"] == 0,
           f"{w.name}: traced runs pass {first['errors'] + second['errors']}", problems)
    expect(first["trace_counts"] == second["trace_counts"] and first["trace_counts"],
           f"{w.name}: traced counts repeat exactly {first['trace_counts']}", problems)

    # golden checks catch a corrupted first sample; without a golden, a later
    # sample is caught by differing from the first, verified one
    for mode, g, sample in (("golden", golden, 0), ("invariants", {}, 1)):
        bad = run.run_workload(w, SEED, 0.0, False, g, corrupt_sample=sample)
        expect(bad["failed"] == 1 and bad["metrics"]["success_rate"] < 1.0
               and run.result_line(bad, run.units(False))["correct"] is False,
               f"{w.name}: a corrupted output is counted as failed ({mode} checks)", problems)

    moved = copy.deepcopy(golden)
    moved[w.name][str(w.gen_seed(SEED))]["input"]["graph_sha256"] = "0" * 64
    try:
        run.run_workload(w, SEED, 0.0, False, moved)
        stopped = False
    except run.BenchError as exc:
        stopped = "fingerprint mismatch" in str(exc)
    expect(stopped, f"{w.name}: a changed input fingerprint stops the run", problems)


def main() -> int:
    try:
        run.preflight()
    except run.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    problems: list[str] = []
    for w in SMALL:
        check_workload(w, problems)
    print(f"{len(problems)} problem(s)" if problems else "self-test passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
