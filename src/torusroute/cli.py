"""Command line front end: generate, verify, compare, sweep.

Exit codes: 0 ok, 1 verification failure, 2 I/O or parse error, 3 unroutable
topology.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from typing import NoReturn

import numpy as np

from .algorithms import (GeneticParams, build_rt_bfs, build_rt_genetic,
                         build_rt_sssp, unique_route_stats)
from .cdg import CDG, assert_deadlock_free, augment_cdg, build_cdg
from .errors import (DeadlockCycleError, DisconnectedError, ParseError,
                     TopologyError, UnroutablePairError)
from .metrics import PATTERNS, _pattern_arrays, load_report, pattern_loads
from .routes import check_table, load_table, write_table
from .routing_graph import RoutingGraph
from .topology import Topology, load_topology, make_torus

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_IO = 2
EXIT_UNROUTABLE = 3

ALGORITHMS = ("bfs", "genetic", "sssp")
DEFAULT_NODE_CEILING = 512


def prepare(t: Topology):
    """(augmented routing graph, augmented dependency graph, added turns)."""
    g, added = augment_cdg(build_cdg(t))  # works out the used sets first
    return RoutingGraph(t, added), g, added


def generate_table(rg, algo: str, params: GeneticParams | None = None):
    if algo == "bfs":
        return build_rt_bfs(rg)
    if algo == "sssp":
        return build_rt_sssp(rg)
    if algo == "genetic":
        return build_rt_genetic(rg, params=params)
    raise ValueError(f"unknown algorithm {algo!r}")


def _exit_io(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_IO)


def _load_topology_or_exit(path: str) -> Topology:
    try:
        t = load_topology(path)
    except OSError as exc:
        _exit_io(f"cannot read {path}: {exc}")
    except (ParseError, TopologyError) as exc:
        _exit_io(f"{path}: {exc}")
    if len(t.live_nodes) < 2:
        live = "one live node" if t.live_nodes else "no live node"
        _exit_io(f"{path}: {live} leaves no pair to route")
    return t


def _check_ceiling(t: Topology, force: bool):
    if len(t.live_nodes) > DEFAULT_NODE_CEILING and not force:
        _exit_io(f"{len(t.live_nodes)} nodes exceeds the desk-scale ceiling "
                 f"of {DEFAULT_NODE_CEILING}; pass --force to proceed")


def _genetic_params(args) -> GeneticParams:
    try:
        return GeneticParams(population=args.population,
                             mutation=args.mutation,
                             stagnation_limit=args.stagnation,
                             epsilon=args.epsilon, seed=args.seed)
    except ValueError as exc:
        _exit_io(str(exc))


def cmd_generate(args) -> int:
    t = _load_topology_or_exit(args.topology)
    _check_ceiling(t, args.force)
    params = _genetic_params(args)
    rg, g, added = prepare(t)
    try:
        table = generate_table(rg, args.algo, params)
    except UnroutablePairError as exc:
        print("error: topology is unroutable", file=sys.stderr)
        for pair in exc.pairs:
            print(f"  {pair[0]} -> {pair[1]}", file=sys.stderr)
        return EXIT_UNROUTABLE
    out = args.out or (args.topology + f".{args.algo}.table")
    report = load_report(table)
    extra = {
        "algo": args.algo,
        "dims": list(t.dims),
        "nodes": len(t.live_nodes),
        "channels": t.n_channels,
        "routes": len(table),
        "relaxed_turns": len(added),
    }
    if table.stats is not None and table.stats.sssp_calls:
        extra["sssp_calls"] = table.stats.sssp_calls
    report_path = args.report or (out + ".report.json")
    try:
        write_table(table, out)
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json(extra) + "\n")
    except OSError as exc:
        _exit_io(f"cannot write {exc.filename}: {exc}")
    print(f"wrote {out} and {report_path}")
    return EXIT_OK


def used_turn_cycle_check(t, table):
    """Deadlock check on exactly the dependencies the table's routes create.

    IntegrityError names the first route, in pair order, that crosses a dead
    channel.
    """
    return _turn_cycle_check(t, table.channel_matrix())


def _used_turns(t, channels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(channel, next channel) id arrays of the distinct consecutive pairs
    of ``channels``, one route per row padded with -1, sorted."""
    nch = t.n_channels
    tail, head = channels[:, :-1], channels[:, 1:]
    held = head >= 0
    used = np.sort(tail[held].astype(np.int64) * nch + head[held])
    used = used[np.diff(used, prepend=-1) != 0]  # np.unique imports numpy.ma
    return np.divmod(used, nch)


def _turn_cycle_check(t, channels: np.ndarray):
    return assert_deadlock_free(CDG(t, *_used_turns(t, channels)))


def cmd_verify(args) -> int:
    t = _load_topology_or_exit(args.topology)
    try:
        table = load_table(args.table, t)
    except OSError as exc:
        _exit_io(f"cannot read {args.table}: {exc}")
    except ParseError as exc:
        _exit_io(f"{args.table}: {exc}")
    g, added = augment_cdg(build_cdg(t))
    report = check_table(t, table, added)
    failures = 0
    for kind in ("completeness", "minimality", "validity"):
        problems = report[kind]
        status = "pass" if not problems else f"FAIL ({len(problems)})"
        print(f"{kind}: {status}")
        for p in problems[:20]:
            print(f"  {p}")
        failures += len(problems)
    # a route over a dead channel is a validity problem; the deadlock check
    # reads the dependencies of the routes whose every channel exists
    channels, live = table.channels()
    try:
        assert_deadlock_free(g)
        _turn_cycle_check(t, channels[live])
        print("deadlock-freedom: pass")
    except DeadlockCycleError as exc:
        print(f"deadlock-freedom: FAIL ({exc})")
        failures += 1
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_compare(args) -> int:
    if args.runs < 1:
        _exit_io(f"--runs must be >= 1, got {args.runs}")
    t = _load_topology_or_exit(args.topology)
    _check_ceiling(t, args.force)
    try:
        for pattern in args.patterns:
            _pattern_arrays(t, pattern)
    except TopologyError as exc:
        _exit_io(str(exc))
    params = _genetic_params(args)
    rg, g, added = prepare(t)
    rows = []
    for algo in args.algos:
        times = []
        table = None
        for _ in range(args.runs):
            start = time.perf_counter()
            try:
                table = generate_table(rg, algo, params)
            except UnroutablePairError as exc:
                print(f"error: {algo}: {exc}", file=sys.stderr)
                return EXIT_UNROUTABLE
            times.append(time.perf_counter() - start)
        wall = sum(times) / len(times)
        for pattern in args.patterns:
            rep = pattern_loads(table, pattern)
            rows.append({
                "algo": algo, "pattern": pattern, "pi": rep.pi,
                "sigma4": f"{rep.sigma[4]:.6f}",
                "gamma_perfect": f"{rep.gamma_perfect:.6f}",
                "max_d": rep.max_d, "wall_time_s": f"{wall:.6f}",
            })
    _write_csv(args.out, rows,
               ["algo", "pattern", "pi", "sigma4", "gamma_perfect", "max_d",
                "wall_time_s"])
    return EXIT_OK


def sweep_one(dims, algos, genetic_params=None):
    """All requested generators on one topology; one result dict per algo.

    The unique-route fraction is read from the sssp table's stage 1 when
    sssp runs, and worked out on its own otherwise."""
    t = make_torus(dims)
    rg, g, added = prepare(t)
    assert_deadlock_free(g)
    runs = {}
    for algo in algos:
        start = time.perf_counter()
        table = generate_table(rg, algo, genetic_params)
        wall = time.perf_counter() - start
        runs[algo] = wall, load_report(table), table.stats
    if "sssp" in runs:
        stats = runs["sssp"][2]
        unique, total = stats.unique_pairs, stats.total_pairs
    else:
        unique, total = unique_route_stats(rg)
    return {algo: {
        "dims": "x".join(str(d) for d in dims),
        "nodes": len(t.live_nodes),
        "algo": algo,
        "pi": rep.pi,
        "min_load": rep.min_load,
        "sigma4": rep.sigma[4],
        "gamma_perfect": rep.gamma_perfect,
        "max_d": rep.max_d,
        "unique_fraction": unique / total if total else 1.0,
        "sssp_calls": stats.sssp_calls if stats is not None else 0,
        "wall_time_s": wall,
    } for algo, (wall, rep, stats) in runs.items()}


def sample_dims(n: int, lo: int, hi: int, samples: int, seed: int):
    rng = np.random.default_rng(seed)
    return [tuple(int(x) for x in rng.integers(lo, hi + 1, size=n))
            for _ in range(samples)]


def run_sweep(n: int, lo: int, hi: int, samples: int, seed: int, algos,
              genetic_params=None):
    """Seeded random-topology sweep; rows ordered by sample index."""
    rows = []
    for i, dims in enumerate(sample_dims(n, lo, hi, samples, seed)):
        res = sweep_one(dims, algos, genetic_params)
        base_pi = res.get("bfs", {}).get("pi")
        for algo in algos:
            row = dict(res[algo])
            row["sample"] = i
            row["pi_ratio_vs_bfs"] = (row["pi"] / base_pi
                                      if base_pi else float("nan"))
            rows.append(row)
    return rows


def cmd_sweep(args) -> int:
    if args.samples < 1:
        _exit_io(f"--samples must be >= 1, got {args.samples}")
    if args.min_size < 2:
        _exit_io(f"--min-size must be >= 2, got {args.min_size}")
    if args.min_size > args.max_size:
        _exit_io(f"--min-size {args.min_size} exceeds --max-size "
                 f"{args.max_size}")
    if args.max_size ** args.n > DEFAULT_NODE_CEILING:
        _exit_io(f"--max-size {args.max_size} allows {args.max_size ** args.n}"
                 f" nodes in {args.n} dimensions, over the desk-scale ceiling "
                 f"of {DEFAULT_NODE_CEILING}")
    rows = run_sweep(args.n, args.min_size, args.max_size, args.samples,
                     args.seed, args.algos, _genetic_params(args))
    out_rows = []
    for row in rows:
        out = dict(row)
        for key in ("sigma4", "gamma_perfect", "unique_fraction",
                    "pi_ratio_vs_bfs", "wall_time_s"):
            out[key] = f"{out[key]:.6f}"
        out_rows.append(out)
    _write_csv(args.out, out_rows,
               ["sample", "dims", "nodes", "algo", "pi", "min_load", "sigma4",
                "gamma_perfect", "max_d", "unique_fraction", "sssp_calls",
                "pi_ratio_vs_bfs", "wall_time_s"])
    return EXIT_OK


def _write_csv(path, rows, fields):
    def emit(fh):
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                emit(fh)
        except OSError as exc:
            _exit_io(f"cannot write {path}: {exc}")
    else:
        emit(sys.stdout)


def _add_genetic_flags(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--population", type=int, default=100)
    p.add_argument("--mutation", type=float, default=0.02)
    p.add_argument("--stagnation", type=int, default=30)
    p.add_argument("--epsilon", type=float, default=0.05)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusroute",
        description="Deadlock-free deterministic routing tables for "
                    "n-dimensional torus interconnects")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a routing table")
    p.add_argument("topology")
    p.add_argument("--algo", choices=ALGORITHMS, default="sssp")
    p.add_argument("--out")
    p.add_argument("--report")
    p.add_argument("--force", action="store_true")
    _add_genetic_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="verify a routing table")
    p.add_argument("topology")
    p.add_argument("table")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="compare algorithms and patterns")
    p.add_argument("topology")
    p.add_argument("--algos", nargs="+", choices=ALGORITHMS,
                   default=["bfs", "sssp"])
    p.add_argument("--patterns", nargs="+", choices=PATTERNS,
                   default=["alltoall"])
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--force", action="store_true")
    _add_genetic_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="random-topology sweep")
    p.add_argument("--n", type=int, required=True, choices=[1, 2, 3, 4])
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--max-size", type=int, default=8)
    p.add_argument("--samples", type=int, default=30)
    p.add_argument("--algos", nargs="+", choices=ALGORITHMS,
                   default=["bfs", "sssp"])
    p.add_argument("--out")
    _add_genetic_flags(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_IO
    except DisconnectedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNROUTABLE


if __name__ == "__main__":
    sys.exit(main())
