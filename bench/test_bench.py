"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import smoke  # noqa: E402
from tracing import Tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_smoke_covers_every_metric_and_catches_the_bad_table():
    result, e2e, layers = smoke.run_smoke(seed=3)
    assert smoke.problems_of(result, e2e, layers) == []
    assert [f[1] for f in result.failures] == [smoke.INJECTED]
    assert e2e["fail_rate"]["value"] == 1 / result.attempted
    # every layer the traced pass entered has self time
    for layer in ("topology", "cdg", "routing_graph", "algorithms",
                  "routes", "metrics", "oracle", "cli"):
        assert layers[f"self_s.{layer}"]["value"] > 0, layer


def test_workloads_are_a_function_of_the_seed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for make in WORKLOADS.values():
        assert make(5) == make(5)
    assert WORKLOADS["mesh-faults"](1) != WORKLOADS["mesh-faults"](2)


def test_mesh_faults_draw_from_every_connected_single_fault():
    faulted = [c for seed in range(1, 13) for c in WORKLOADS["mesh-faults"](seed)
               if c.failed_nodes or c.failed_links]
    assert {c.dims for c in faulted} == set(workloads.MESH_BASES)
    for c in faulted:
        assert len(c.failed_nodes) + len(c.failed_links) == 1
    # not only the row whose mesh coordinates are all 0
    assert any(any(c.failed_nodes[0][1:]) for c in faulted if c.failed_nodes)
    nodes, links = workloads.single_faults((4, 2, 2, 2))
    assert len(nodes) == 32 and len(links) == 80  # every node and cable


def test_self_time_subtracts_children():
    tr = Tracer()
    # id, parent, root, name, start, end
    tr.spans = [[0, None, 0, "bench.job", 0.0, 10.0],
                [1, 0, 0, "cli.prepare", 1.0, 5.0],
                [2, 1, 0, "cdg.build_cdg", 1.0, 3.0],
                [3, 0, 0, "routes.parse_table", 6.0, 9.0],
                [4, None, 4, "bench.probe", 10.0, 12.0],
                [5, 4, 4, "algorithms.build_sssp", 10.0, 12.0]]
    layers, unattributed = tr.self_times({0})
    assert layers == {"cli": 2.0, "cdg": 2.0, "routes": 3.0}
    assert unattributed == 3.0
    assert tr.durations("algorithms.build_sssp", {0}) == []


def test_without_the_library_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mesh",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
