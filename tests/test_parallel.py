from concurrent import futures
import os

import pytest

from efgraph import expected_force, parallel
from efgraph.centrality import betweenness
from efgraph.epidemic import SirParams, run_replicates
from efgraph.expected_force import ef_cluster_centric, ef_vertex_centric
from efgraph.graph import RmatParams, build_graph, generate_rmat
from efgraph.parallel import parallel_map, usable_cores

from conftest import cycle_edges
from test_expected_force import _assert_bitwise_equal

multicore = pytest.mark.skipif(usable_cores() < 2, reason="needs two usable cores")


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, runs tasks in this process."""

    calls: list = []

    def __init__(self, max_workers, mp_context=None):
        self.calls.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cores, expected", [(1, None), (2, 2), (8, 3)])
def test_processes_capped_at_tasks_and_cores(monkeypatch, cores, expected):
    monkeypatch.setattr(futures, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(_RecordingExecutor, "calls", [])
    assert list(parallel_map(lambda t: t * t, [1, 2, 3], 64)) == [1, 4, 9]
    assert _RecordingExecutor.calls == ([] if expected is None else [expected])


@pytest.mark.parametrize("call", [
    lambda g: list(parallel_map(str, range(3), 0)),  # raised when the map starts
    lambda g: ef_vertex_centric(g, workers=0),
    lambda g: betweenness(g, workers=0),
    lambda g: run_replicates(g, SirParams(beta=0.5, mu=0.5, max_steps=10), 2, 0, workers=0),
], ids=["parallel_map", "ef_vertex_centric", "betweenness", "run_replicates"])
def test_zero_workers_refused(call):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        call(build_graph(cycle_edges(6)))


def test_cluster_ef_chunks_run_on_the_pool(monkeypatch):
    g, _ = generate_rmat(RmatParams(scale=9, avg_degree=6, seed=5))
    monkeypatch.setattr(expected_force, "_ENTRY_BUDGET", 4096)  # several owner chunks
    base = ef_cluster_centric(g, workers=1)
    monkeypatch.setattr(futures, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(_RecordingExecutor, "calls", [])
    other = ef_cluster_centric(g, workers=2)
    assert _RecordingExecutor.calls == [2]
    _assert_bitwise_equal(base, other)


def test_serial_at_one_worker(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no pool may start at workers=1")

    monkeypatch.setattr(futures, "ProcessPoolExecutor", refuse)
    assert list(parallel_map(lambda t: (t, os.getpid()), range(5), 1)) == [(t, os.getpid()) for t in range(5)]


def test_serial_without_fork(monkeypatch):
    monkeypatch.setattr(futures, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(_RecordingExecutor, "calls", [])
    monkeypatch.delattr(os, "fork")
    assert list(parallel_map(str, range(4), 2)) == ["0", "1", "2", "3"]
    assert _RecordingExecutor.calls == []


@multicore
def test_results_in_task_order_from_workers():
    scale = 3  # closures and unpicklable state reach the forked workers as they are
    results = list(parallel_map(lambda t: (t * scale, os.getpid()), range(40), 2))
    assert [r for r, _ in results] == [3 * t for t in range(40)]
    assert any(pid != os.getpid() for _, pid in results)
    assert parallel._JOB is None


@multicore
def test_task_exception_reaches_caller():
    def fn(t):
        if t == 5:
            raise ValueError(f"task {t} failed")
        return t

    with pytest.raises(ValueError, match="task 5 failed"):
        list(parallel_map(fn, range(10), 2))
    assert parallel._JOB is None
