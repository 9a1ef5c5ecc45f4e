"""One map over forked worker processes for heavy, independent tasks.

Forked workers inherit the caller's arrays and module state copy-on-write
and receive only a task index, so nothing is pickled on the way in.
"""
from __future__ import annotations

import os

_JOB = None  # (fn, tasks) of the running map, set before the pool forks


def usable_cores() -> int:
    """Cores this process may run on (its CPU affinity)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def parallel_map(fn, tasks, workers: int):
    """Yield fn(t) for each task in task order, on min(workers, len(tasks), usable cores) processes.

    Below two processes, or without fork, the tasks run serially in this
    process. A task's exception reaches the caller; a dead worker raises
    BrokenProcessPool. Results are yielded in order as they arrive, so a
    caller that folds them holds only the ones not yet folded.
    """
    global _JOB
    tasks = list(tasks)
    procs = min(workers, len(tasks), usable_cores())
    if procs < 2 or not hasattr(os, "fork"):
        yield from map(fn, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # ~20 ms of imports, paid only by runs that fork
    import multiprocessing

    _JOB = (fn, tasks)
    try:
        with ProcessPoolExecutor(procs, mp_context=multiprocessing.get_context("fork")) as pool:
            yield from pool.map(_run, range(len(tasks)))
    finally:
        _JOB = None


def _run(i: int):
    fn, tasks = _JOB
    return fn(tasks[i])
