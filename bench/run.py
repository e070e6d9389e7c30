#!/usr/bin/env python3
"""Routing-table benchmark: time to a verified table, per workload.

    python3 bench/run.py --workload torus3d-216 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload mesh --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --smoke

Run from the root of a checkout; the library is imported from its ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics named in
BENCHMARK.json, or with ``--trace 1`` its per-layer metrics. The exit code is
1 when any job failed its checks, 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import numpy

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"


def spec_units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def unit_of(name: str, units: dict[str, str]) -> str:
    """The unit from BENCHMARK.json; the metrics printed but not listed
    there are timings, apart from fail_rate."""
    if name in units:
        return units[name]
    return "fraction" if name == "fail_rate" else "s"


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "TORUS_ROUTE_THREADS": os.environ.get("TORUS_ROUTE_THREADS", "unset"),
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside git."""
    if not (ROOT / ".git").exists():  # not a git repository of its own
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_metrics(metrics: dict, units: dict[str, str]) -> None:
    for name, m in metrics.items():
        extra = "".join(f" {k}={v:.6g}" for k, v in m.items()
                        if k not in ("value", "n"))
        print(f"{name:36s} {m['value']:>14.6g} {unit_of(name, units):12s} "
              f"n={m['n']}{extra}")


def report(label: str, run, metrics: dict, env: dict, spec_names,
           units: dict[str, str]) -> dict:
    """Print the human-readable report; return the result line."""
    print(f"# {label}")
    print("# env " + json.dumps(env, sort_keys=True))
    print_metrics(metrics, units)
    print(f"# fail_rate: {len(run.failures)} of {run.attempted} jobs failed")
    for case, job, problem in run.failures:
        print(f"FAIL {case} {job}: {problem.strip()}")
    for key, digest in sorted(run.digests.items()):
        print(f"# sha256 {key} {digest}")
    missing = [n for n in spec_names if n not in metrics]
    if missing:
        raise SystemExit(f"benchmark bug: metrics {missing} not measured")
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {n: {"value": metrics[n]["value"], "unit": units[n]}
                    for n in spec_names},
    }


def run_workload(args) -> int:
    import harness

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cases = WORKLOADS[args.workload](args.seed)
    run, tracer = harness.measure(cases, args.seconds, bool(args.trace),
                                  args.seed)
    metrics = harness.end_to_end(run, peak_rss_mb())
    if tracer is not None:
        metrics.update(harness.per_layer(run, tracer))
    env = environment(args.seed)
    names = [m["name"] for m in spec["per_layer" if args.trace
                                     else "end_to_end"]]
    label = (f"workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace} "
             f"cases={len(cases)} passes={len(run.passes)}")
    result = report(label, run, metrics, env, names, spec_units(spec))

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": metrics, "digests": run.digests,
                   "quality": run.quality, "failures": run.failures,
                   "result": result}, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="every code path on tiny inputs, plus an injected "
                        "bad table that the gate must catch")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "torusroute" / "__init__.py").is_file():
        print(f"error: no torusroute package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        import smoke
        return smoke.main(args.seed)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
