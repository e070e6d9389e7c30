"""Closed-loop runner: passes over a workload's cases, the correctness gate,
the traced probes, and the metrics computed from what they recorded.

One client in one thread runs the jobs back to back: torusroute is a batch
tool, so the next table is asked for only once the previous one is verified.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

import torusroute.algorithms
from torusroute import (GeneticParams, RuleConfig, apply_augmentation,
                        assert_deadlock_free, augment_cdg, build_bfs_routes,
                        build_cdg, build_routing_graph, build_sssp,
                        channel_loads, check_table, enumerate_minimal_routes,
                        load_report, make_torus, oracle_equivalence,
                        parse_table, pattern_loads, table_to_text,
                        unique_route_stats, used_direction_sets)
from torusroute.cli import generate_table, prepare, used_turn_cycle_check

import calibration
from tracing import NullTracer, Tracer
from workloads import Case

SETUP_SAMPLES = 30     # cli.prepare calls before the passes; 3 rounds or more
# Two passes at the least, so that even a one-table-per-algorithm workload
# samples each table at two moments of the host's fluctuating speed.
MIN_PASSES = 2
CHECKPOINT_S = 0.5     # calibrate between jobs once this much work went by
PROBE_SOURCES = 4      # per case: single-source build_sssp / build_bfs_routes
PROBE_PAIRS = 8        # per case: enumerate_minimal_routes
PROBE_PATTERNS = ("transpose", "neighbor", "tornado")
NULL_TRACER = NullTracer()


@dataclass
class Run:
    """Everything one benchmark run measured.

    End-to-end timings come from untraced passes only. Each sample carries
    its round: one untraced pass, or one set-up of every case before them.

    Untimed checkpoints between jobs run the calibration kernel. The work
    between two checkpoints is a segment; its timings are scaled by
    REFERENCE_S over the mean kernel time at the segment's two ends, which
    gives seconds at the reference host speed. ``raw`` keeps them unscaled.
    """

    timings: dict[str, list[tuple[int, float]]] = field(
        default_factory=lambda: defaultdict(list))
    raw: dict[str, list[tuple[int, float]]] = field(
        default_factory=lambda: defaultdict(list))
    round: int = 0
    pending: list[tuple[str, float]] = field(default_factory=list)
    last_kernel: float = 0.0
    segment_start: float = 0.0
    scaled_work: float = 0.0     # scaled seconds of work since reset_clock
    calibrating: float = 0.0     # seconds in checkpoints since reset_clock
    # (scaled, raw) wall time without checkpoints and probes, verified routes
    passes: list[tuple[float, float, int]] = field(default_factory=list)
    traced_passes: int = 0
    attempted: int = 0
    # (case, job, problems), one entry per failed job
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    quality: dict[str, tuple[int, float]] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)

    def fail(self, case: str, job: str, problem: str) -> None:
        self.failures.append((case, job, problem))

    def time(self, metric: str, seconds: float) -> None:
        self.pending.append((metric, seconds))

    def checkpoint(self, force: bool = False) -> None:
        """End the segment if CHECKPOINT_S of work went by (or if forced)."""
        began = time.perf_counter()
        if not force and began - self.segment_start < CHECKPOINT_S:
            return
        kernel = calibration.kernel_seconds()
        ends = (self.last_kernel + kernel) / 2 if self.last_kernel else kernel
        scale = calibration.REFERENCE_S / ends
        for metric, seconds in self.pending:
            self.raw[metric].append((self.round, seconds))
            self.timings[metric].append((self.round, seconds * scale))
        self.pending.clear()
        self.scaled_work += (began - self.segment_start) * scale
        self.last_kernel = kernel
        self.segment_start = time.perf_counter()
        self.calibrating += self.segment_start - began

    def reset_clock(self) -> None:
        """Start a new round at a fresh checkpoint."""
        self.round += 1
        self.checkpoint(force=True)
        self.scaled_work = 0.0
        self.calibrating = 0.0


def build_topology(case: Case):
    return make_torus(case.dims, case.failed_nodes, case.failed_links)


def prepare_traced(t, tr):
    """cli.prepare step by step, so every step gets its own span."""
    with tr.span("cli.prepare"):
        with tr.span("cdg.build_cdg"):
            g = build_cdg(t)
        with tr.span("cdg.used_direction_sets"):
            used_direction_sets(g)
        with tr.span("cdg.augment_cdg"):
            g, added = augment_cdg(g)
        with tr.span("routing_graph.build_routing_graph"):
            rg = build_routing_graph(t)
        if added:
            with tr.span("routing_graph.apply_augmentation"):
                rg = apply_augmentation(rg, added)
    return rg, g, added


def verify_table(t, g, added, text: str, tr):
    """The work of `torusroute verify` after its prepare."""
    with tr.span("routes.parse_table"):
        parsed = parse_table(text, t)
    with tr.span("routes.check_table"):
        report = check_table(t, parsed, added)
    with tr.span("metrics.channel_loads"):
        loads = channel_loads(parsed)
    with tr.span("cdg.assert_deadlock_free"):
        assert_deadlock_free(g)
    with tr.span("cli.used_turn_cycle_check"):
        used_turn_cycle_check(t, parsed)
    return parsed, report, loads


def gate_problems(table, parsed, report, loads) -> list[str]:
    """Why a verified table is wrong; empty when it is correct.

    Deadlock failures raise inside verify_table and fail the job there.
    """
    problems = [f"{kind}: {msgs[0]} ({len(msgs)} in all)"
                for kind, msgs in report.items() if msgs]
    if not np.array_equal(loads, table.stats.link_increments):
        problems.append("channel loads differ from the generator's ledger")
    if parsed.routes != table.routes:
        problems.append("table text does not parse back to the routes")
    return problems


@contextmanager
def counting_calls(module, name: str, counts: Counter, metric: str):
    """Count the calls to ``module.name`` made while the context is open."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[metric] += 1
        return original(*args, **kwargs)

    setattr(module, name, counted)
    try:
        yield
    finally:
        setattr(module, name, original)


def table_job(case: Case, t, rg, g, added, algo: str, run: Run, tr,
              counts: Counter):
    """Generate, report, serialise and verify one table; the table if valid."""
    # the genetic search scores each candidate with one deviation() call
    evals = (counting_calls(torusroute.algorithms, "deviation", counts,
                            "algorithms.genetic_evals")
             if tr.enabled and algo == "genetic" else nullcontext())
    start = time.perf_counter()
    with evals, tr.span(f"algorithms.build_rt_{algo}"):
        table = generate_table(rg, algo,
                               GeneticParams(seed=case.genetic_seed))
    with tr.span("metrics.load_report"):
        rep = load_report(table)
    with tr.span("routes.table_to_text"):
        text = table_to_text(table)
    generated = time.perf_counter()
    parsed, report, loads = verify_table(t, g, added, text, tr)
    if not tr.enabled:
        run.time(f"generate_s.{algo}", generated - start)
        run.time("verify_s", time.perf_counter() - generated)

    key = f"{case.label}/{algo}"
    problems = gate_problems(table, parsed, report, loads)
    digest = hashlib.sha256(text.encode()).hexdigest()
    if run.digests.setdefault(key, digest) != digest:
        problems.append("table differs from the one of an earlier pass")
    if problems:
        run.fail(case.label, algo, "; ".join(problems))
        return None
    run.quality[key] = (rep.pi, rep.sigma[4])
    counts["routes.routes"] += len(parsed)
    counts["routes.table_bytes"] += len(text)
    stats = table.stats
    if algo == "sssp":
        counts["algorithms.sssp_calls"] += stats.sssp_calls
        counts["algorithms.stage2_pairs"] += (stats.total_pairs
                                              - stats.unique_pairs)
        counts["algorithms.unique_pairs"] += stats.unique_pairs
        counts["algorithms.sssp_pairs"] += stats.total_pairs
    elif algo == "genetic":
        counts["algorithms.genetic_generations"] += stats.generations
    return table


def certify_job(case: Case, t, rg, added, run: Run, tr, counts: Counter):
    start = time.perf_counter()
    with tr.span("oracle.oracle_equivalence"):
        rep = oracle_equivalence(t, RuleConfig.augmented(added), rg=rg)
    if not tr.enabled:
        run.time("certify_s", time.perf_counter() - start)
    counts["oracle.pairs_checked"] += rep.pairs_checked
    counts["oracle.mismatches"] += len(rep.mismatches)
    if rep.mismatches:
        run.fail(case.label, "certify",
                 f"{len(rep.mismatches)} oracle mismatches, the first: "
                 f"{rep.mismatches[0]}")


def between_jobs(run: Run, tr) -> None:
    if not tr.enabled:
        run.checkpoint()


def run_case(case: Case, run: Run, tr, counts: Counter):
    """All jobs of one case: (verified routes, (t, rg, tables) when traced)."""
    jobs = list(case.algos) + (["certify"] if case.certify else [])
    run.attempted += len(jobs)
    try:
        with tr.span("topology.make_torus"):
            t = build_topology(case)
        if tr.enabled:
            rg, g, added = prepare_traced(t, tr)
        else:
            start = time.perf_counter()
            rg, g, added = prepare(t)
            run.time("setup_s", time.perf_counter() - start)
        if case.sweep_checks:
            with tr.span("cdg.assert_deadlock_free"):
                assert_deadlock_free(g)
            with tr.span("algorithms.unique_route_stats"):
                unique_route_stats(rg)
        between_jobs(run, tr)
    except Exception:  # noqa: BLE001 - every job of the case failed
        for job in jobs:
            run.fail(case.label, job, traceback.format_exc(limit=-1))
        return 0, None
    counts["topology.nodes"] += len(t.live_nodes)
    counts["topology.channels"] += t.n_channels
    counts["cdg.edges"] += len(g.edges)
    counts["cdg.added_turns"] += len(added)
    counts["routing_graph.vertices"] += rg.n_vertices
    counts["routing_graph.edges"] += rg.n_edges
    counts["routing_graph.csr_bytes"] += sum(
        a.nbytes for a in (rg.indptr, rg.edge_tail, rg.edge_head,
                           rg.edge_link, rg.edge_aug))

    routes = 0
    tables = []
    for algo in case.algos:
        try:
            table = table_job(case, t, rg, g, added, algo, run, tr, counts)
        except Exception:  # noqa: BLE001 - a failed job, listed
            run.fail(case.label, algo, traceback.format_exc(limit=-1))
            continue
        finally:
            between_jobs(run, tr)
        if table is not None:
            routes += len(table)
            if tr.enabled:
                tables.append(table)
    if case.certify:
        try:
            certify_job(case, t, rg, added, run, tr, counts)
        except Exception:  # noqa: BLE001 - a failed job, listed
            run.fail(case.label, "certify", traceback.format_exc(limit=-1))
        between_jobs(run, tr)
    return routes, ((t, rg, tables) if tr.enabled else None)


def run_probes(case: Case, t, rg, tables, tr, rng, counts: Counter):
    """Single-call probes of the generators' kernels; untimed end to end."""
    nodes = np.asarray(t.live_nodes)
    zeros = np.zeros(t.n_channels, dtype=np.int64)
    for src in rng.choice(nodes, size=min(PROBE_SOURCES, len(nodes)),
                          replace=False):
        src = int(src)
        dsts = [d for d in t.live_nodes if d != src]
        with tr.span("algorithms.build_sssp"):
            build_sssp(rg, src, dsts, zeros)
        with tr.span("algorithms.build_bfs_routes"):
            build_bfs_routes(rg, src, zeros.copy())
    for _ in range(PROBE_PAIRS):
        src, dst = (int(x) for x in rng.choice(nodes, size=2, replace=False))
        with tr.span("algorithms.enumerate_minimal_routes"):
            variants, _ = enumerate_minimal_routes(rg, src, dst)
        counts["algorithms.variants"] += len(variants)
        counts["algorithms.variant_pairs"] += 1
    if not case.sweep_checks:  # sweep jobs already run it
        with tr.span("algorithms.unique_route_stats"):
            unique_route_stats(rg)
    if not t.failed_nodes:  # patterns may name a failed node
        for table in tables:
            for pattern in PROBE_PATTERNS:
                with tr.span("metrics.pattern_loads"):
                    pattern_loads(table, pattern)


def run_pass(cases: list[Case], run: Run, tr, rng=None):
    """One pass over every case: (scaled wall, raw wall, verified routes).

    Wall times leave out probes and checkpoints; a traced pass is not
    scaled. Counts are those of the latest pass; tables are deterministic,
    so every pass counts the same.
    """
    counts: Counter = Counter()
    routes = 0
    probing = 0.0
    if not tr.enabled:
        run.reset_clock()
    start = time.perf_counter()
    for case in cases:
        with tr.span("bench.job"):
            done, traced = run_case(case, run, tr, counts)
        routes += done
        if traced is not None:
            probe_start = time.perf_counter()
            with tr.span("bench.probe"):
                run_probes(case, *traced, tr, rng, counts)
            probing += time.perf_counter() - probe_start
    run.counts = counts
    if tr.enabled:
        return None, time.perf_counter() - start - probing, routes
    run.checkpoint(force=True)
    wall = time.perf_counter() - start - run.calibrating
    return run.scaled_work, wall, routes


def warm_setup(cases: list[Case], run: Run) -> None:
    """Set every case up several times, so setup_s has samples to spare."""
    topologies = []
    for case in cases:
        try:
            topologies.append(build_topology(case))
        except Exception:  # noqa: BLE001 - the passes record the failure
            continue
    for _ in range(max(3, math.ceil(SETUP_SAMPLES / len(cases)))):
        run.reset_clock()
        for t in topologies:
            start = time.perf_counter()
            prepare(t)
            run.time("setup_s", time.perf_counter() - start)
            run.checkpoint()
        run.checkpoint(force=True)


def measure(cases: list[Case], seconds: float, traced: bool, seed: int):
    """Closed loop: whole passes back to back, at least MIN_PASSES, and
    another only while one more as long as the last ends within ``seconds``.

    A traced run pairs each untraced pass with a traced pass of the same
    calls; one pair is enough.
    """
    run = Run()
    tracer = Tracer() if traced else None
    rng = np.random.default_rng(seed)
    warm_setup(cases, run)
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        run.passes.append(run_pass(cases, run, NULL_TRACER))
        if tracer is not None:
            run_pass(cases, run, tracer, rng)
            run.traced_passes += 1
        now = time.perf_counter()
        enough = len(run.passes) >= (1 if traced else MIN_PASSES)
        if enough and now - start + (now - began) > seconds:
            return run, tracer


# -- metrics ------------------------------------------------------------------

def summary(values) -> dict:
    """Median, sample count and the highest of p90/p99/p99.9 that has at
    least ten samples beyond it (nearest rank)."""
    values = sorted(values)
    out = {"value": statistics.median(values), "n": len(values)}
    for p in (99.9, 99.0, 90.0):
        if len(values) * (100.0 - p) / 100.0 >= 10:
            rank = math.ceil(p / 100.0 * len(values)) - 1
            out[f"p{p:g}"] = values[rank]
            break
    return out


def round_median(samples: list[tuple[int, float]]) -> float:
    """Median over rounds of the mean time per job within each round.

    A round holds the same jobs every time, so its mean does not depend on
    which of a workload's differently sized jobs lands in the middle, as a
    median over the jobs themselves would.
    """
    rounds: dict[int, list[float]] = defaultdict(list)
    for r, seconds in samples:
        rounds[r].append(seconds)
    return statistics.median(statistics.fmean(v) for v in rounds.values())


def timing_summary(scaled, raw) -> dict:
    """Scaled round median as the value; job percentile; raw round median."""
    out = summary(seconds for _, seconds in scaled)
    out["value"] = round_median(scaled)
    out["rounds"] = len({r for r, _ in scaled})
    out["raw"] = round_median(raw)
    return out


def end_to_end(run: Run, peak_rss_mb: float) -> dict:
    """name -> summary dict with value, n and maybe a percentile."""
    out = {metric: timing_summary(samples, run.raw[metric])
           for metric, samples in sorted(run.timings.items())}
    out["routes_per_s"] = summary([r / w for w, _, r in run.passes])
    out["routes_per_s"]["raw"] = statistics.median(r / w
                                                   for _, w, r in run.passes)
    quality = list(run.quality.values())
    if quality:
        out["pi_mean"] = {"value": statistics.fmean(q[0] for q in quality),
                          "n": len(quality)}
        out["sigma4_mean"] = {"value": statistics.fmean(q[1] for q in quality),
                              "n": len(quality)}
    out["fail_rate"] = {"value": len(run.failures) / max(run.attempted, 1),
                        "n": run.attempted}
    out["peak_rss_mb"] = {"value": peak_rss_mb, "n": 1}
    return out


# per-layer metric -> span whose median duration it reports
SPAN_METRICS = {
    "topology.make_torus_s": "topology.make_torus",
    "cdg.build_s": "cdg.build_cdg",
    "cdg.used_dirs_s": "cdg.used_direction_sets",
    "cdg.augment_s": "cdg.augment_cdg",
    "cdg.deadlock_check_s": "cdg.assert_deadlock_free",
    "routing_graph.build_s": "routing_graph.build_routing_graph",
    "routing_graph.apply_augmentation_s": "routing_graph.apply_augmentation",
    "algorithms.unique_stats_s": "algorithms.unique_route_stats",
    "algorithms.sssp_tree_s": "algorithms.build_sssp",
    "algorithms.bfs_tree_s": "algorithms.build_bfs_routes",
    "algorithms.enumerate_routes_s": "algorithms.enumerate_minimal_routes",
    "routes.to_text_s": "routes.table_to_text",
    "routes.parse_s": "routes.parse_table",
    "routes.check_table_s": "routes.check_table",
    "metrics.load_report_s": "metrics.load_report",
    "metrics.pattern_loads_s": "metrics.pattern_loads",
    "cli.used_turn_cycle_check_s": "cli.used_turn_cycle_check",
    "oracle.equivalence_s": "oracle.oracle_equivalence",
}

COUNT_METRICS = (
    "topology.nodes", "topology.channels", "cdg.edges", "cdg.added_turns",
    "routing_graph.vertices", "routing_graph.edges",
    "routing_graph.csr_bytes", "algorithms.sssp_calls",
    "algorithms.genetic_generations", "algorithms.genetic_evals",
    "routes.table_bytes", "routes.routes", "oracle.pairs_checked",
    "oracle.mismatches",
)

LAYERS = ("topology", "cdg", "routing_graph", "algorithms", "routes",
          "metrics", "oracle", "cli")


def per_layer(run: Run, tracer: Tracer) -> dict:
    """name -> summary dict, from the traced passes and their probes."""
    roots = {s[0] for s in tracer.spans if s[1] is None}
    job_roots = {s[0] for s in tracer.spans
                 if s[1] is None and s[3] == "bench.job"}
    out = {}
    for metric, span in SPAN_METRICS.items():
        durations = tracer.durations(span, roots)
        if durations:
            out[metric] = summary(durations)
    c = run.counts
    for metric in COUNT_METRICS:
        out[metric] = {"value": c[metric], "n": 1}

    def ratio(num, den):
        return {"value": c[num] / c[den] if c[den] else 0.0, "n": c[den]}

    out["algorithms.pairs_per_sssp_call"] = ratio("algorithms.stage2_pairs",
                                                  "algorithms.sssp_calls")
    out["algorithms.unique_fraction"] = ratio("algorithms.unique_pairs",
                                              "algorithms.sssp_pairs")
    out["algorithms.variants_per_pair"] = ratio("algorithms.variants",
                                                "algorithms.variant_pairs")

    passes = run.traced_passes
    self_times, unattributed = tracer.self_times(job_roots)
    for layer in LAYERS:
        out[f"self_s.{layer}"] = {"value": self_times.get(layer, 0.0) / passes,
                                  "n": passes}
    out["unattributed_s"] = {"value": unattributed / passes, "n": passes}
    # What tracing adds to a pass's jobs: their span count times the cost of
    # one span. A traced pass minus an untraced one would bury this cost (a
    # few ms) under host-speed shifts of seconds.
    spans = sum(1 for s in tracer.spans if s[2] in job_roots)
    out["trace.overhead_s"] = {"value": spans / passes * span_cost_s(),
                               "n": passes}
    return out


def span_cost_s(spans: int = 20_000, repeats: int = 5) -> float:
    """Median seconds one empty span costs, on a throwaway tracer."""
    costs = []
    for _ in range(repeats):
        tr = Tracer()
        start = time.perf_counter()
        for _ in range(spans):
            with tr.span("bench.empty"):
                pass
        costs.append((time.perf_counter() - start) / spans)
    return statistics.median(costs)
