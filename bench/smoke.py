"""Smoke mode: every workload's code path on tiny inputs in a few seconds.

One untraced and one traced pass over a ring of 4, a 2x2 mesh, a 3x3 torus
and a faulted 4x2x2x2, then one deliberately broken table pushed through the
same verification and gate, which must count as the only failure.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import harness
from workloads import Case, smoke

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
INJECTED = "injected"


def inject_bad_table(run: harness.Run) -> None:
    """A table with its last route removed goes through verify and gate."""
    case = Case("4-broken", (4,))
    t = harness.build_topology(case)
    rg, g, added = harness.prepare(t)
    table = harness.generate_table(rg, "bfs")
    text = harness.table_to_text(table)
    text = "\n".join(text.splitlines()[:-1]) + "\n"
    run.attempted += 1
    parsed, report, loads = harness.verify_table(t, g, added, text,
                                                 harness.NULL_TRACER)
    problems = harness.gate_problems(table, parsed, report, loads)
    if problems:
        run.fail(case.label, INJECTED, "; ".join(problems))


def run_smoke(seed: int = 1):
    """(run, end-to-end metrics, per-layer metrics) of the smoke inputs."""
    run, tracer = harness.measure(smoke(seed), 0.0, True, seed)
    inject_bad_table(run)
    return run, harness.end_to_end(run, 0.0), harness.per_layer(run, tracer)


def problems_of(run, e2e: dict, layers: dict) -> list[str]:
    """What is wrong with a smoke run; empty when it behaved."""
    spec = json.loads(SPEC.read_text())
    problems = [f"end-to-end metric {m['name']} missing"
                for m in spec["end_to_end"] if m["name"] not in e2e]
    problems += [f"per-layer metric {m['name']} missing"
                 for m in spec["per_layer"] if m["name"] not in layers]
    injected = [f for f in run.failures if f[1] == INJECTED]
    others = [f for f in run.failures if f[1] != INJECTED]
    if not injected:
        problems.append("the injected bad table passed the gate")
    problems += [f"unexpected failure {c} {j}: {p}" for c, j, p in others]
    return problems


def main(seed: int) -> int:
    start = time.perf_counter()
    run, e2e, layers = run_smoke(seed)
    problems = problems_of(run, e2e, layers)
    for case, job, problem in run.failures:
        print(f"failed {case} {job}: {problem}")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print(f"smoke: {run.attempted} jobs, {len(run.failures)} failed, "
          f"{time.perf_counter() - start:.1f}s")
    return 1 if problems else 0
