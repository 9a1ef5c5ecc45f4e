import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

from efgraph.graph import RmatParams, build_graph, generate_rmat


def star_edges(leaves: int, center: int = 0):
    return [(center, center + i) for i in range(1, leaves + 1)]

def path_edges(nodes: int):
    return [(i, i + 1) for i in range(nodes - 1)]

def cycle_edges(nodes: int):
    return [(i, (i + 1) % nodes) for i in range(nodes)]

def complete_edges(nodes: int):
    return [(i, j) for i in range(nodes) for j in range(i + 1, nodes)]

def er_edges(n: int, p: float, seed: int):
    """Erdos-Renyi edge pairs (may leave isolated nodes; build_graph drops them)."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    iu, ju = np.triu_indices(n, 1)
    keep = mask[iu, ju]
    return list(zip(iu[keep].tolist(), ju[keep].tolist()))


@pytest.fixture(scope="session")
def rmat_10_8():
    g, truncated = generate_rmat(RmatParams(scale=10, avg_degree=8, seed=1))
    assert not truncated
    return g


@pytest.fixture(scope="session")
def small_test_graphs():
    """Mixed bag of small graphs exercised by several invariant tests."""
    specs = [
        star_edges(3),
        path_edges(4),
        cycle_edges(5),
        complete_edges(4),
        star_edges(7) + path_edges(3),
    ]
    for seed in range(5):
        specs.append(er_edges(40, 0.1, seed))
    return [build_graph(edges) for edges in specs if edges]


def _property(value) -> str:
    if isinstance(value, dict):
        return ",".join(f"{key}:{_property(item)}" for key, item in value.items())
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One visible pass/fail line per acceptance criterion, with the properties its test recorded."""
    lines = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            if "test_acceptance" in report.nodeid and report.when == "call":
                name = report.nodeid.split("::")[-1]
                props = "".join(f"  {key}={_property(value)}" for key, value in report.user_properties)
                lines.append((name, "PASS" if status == "passed" else "FAIL", props))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, status, props in sorted(lines):
            terminalreporter.write_line(f"{status}  {name}{props}")
