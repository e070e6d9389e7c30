"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the criterion lines.
The random sweeps are seeded and shared across criteria through session
fixtures, so the whole suite builds each topology once.
"""

import itertools
import random
import time

import networkx as nx
import numpy as np
import pytest

from torusroute import (GeneticParams, RuleConfig, assert_deadlock_free,
                        augment_cdg, build_cdg, build_routing_graph,
                        build_rt_bfs, build_rt_genetic, build_rt_sssp,
                        channel_loads, load_report, make_torus,
                        oracle_equivalence, table_to_text,
                        used_direction_sets)
from torusroute.cli import prepare, sample_dims
from torusroute.errors import DeadlockCycleError

from conftest import pending_groups

SEED = 20260810
SWEEP_LO, SWEEP_HI = 2, 5
SWEEP_SAMPLES = 30


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# -- shared heavyweight fixtures ----------------------------------------------

@pytest.fixture(scope="session")
def desmos_tables():
    t = make_torus([4, 2, 2, 2])
    rg, g, added = prepare(t)
    tables = {
        "bfs": build_rt_bfs(rg),
        "sssp": build_rt_sssp(rg),
        "genetic": build_rt_genetic(rg, params=GeneticParams(seed=0)),
    }
    return t, rg, g, added, tables


@pytest.fixture(scope="session")
def sweep_results():
    """Seeded sweep: 30 topologies per dimension count, with per-topology
    generator metrics, call counts, the work stage 1 leaves to stage 2,
    deadlock certificates and load checks."""
    results = {}
    for n in (2, 3, 4):
        rows = []
        gen_time = 0.0
        for i, dims in enumerate(sample_dims(n, SWEEP_LO, SWEEP_HI,
                                             SWEEP_SAMPLES, SEED + n)):
            t = make_torus(dims)
            rg, g, added = prepare(t)
            try:
                assert_deadlock_free(g)
                certified = True
            except DeadlockCycleError:
                certified = False
            G = nx.DiGraph()
            G.add_nodes_from(range(g.n_channels))
            G.add_edges_from(g.edges)
            independent = all(
                len({g.direction_of(c) for c in comp}) <= 1
                for comp in nx.strongly_connected_components(G))

            start = time.perf_counter()
            bfs = build_rt_bfs(rg)
            sssp = build_rt_sssp(rg)
            gen_time += time.perf_counter() - start
            stage2 = build_rt_sssp(rg, skip_unique_stage=True)
            groups = pending_groups(rg)

            reconciled = True
            for table in (bfs, sssp, stage2):
                loads = channel_loads(table)
                if not (table.stats.link_increments == loads).all():
                    reconciled = False
                if loads.sum() != table.columns.length.sum():
                    reconciled = False

            rows.append({
                "dims": dims,
                "nodes": len(t.live_nodes),
                "pi_bfs": load_report(bfs).pi,
                "pi_sssp": load_report(sssp).pi,
                "unique_fraction": (sssp.stats.unique_pairs
                                    / sssp.stats.total_pairs),
                "calls_both": sssp.stats.sssp_calls,
                "calls_stage2_only": stage2.stats.sssp_calls,
                "pending_pairs": (sssp.stats.total_pairs
                                  - sssp.stats.unique_pairs),
                "pending_groups": groups,
                "certified": certified,
                "independent_ok": independent,
                "reconciled": reconciled,
            })
        results[n] = {"rows": rows, "generation_time_s": gen_time}
    return results


# -- criteria ------------------------------------------------------------------

def test_criterion_1_structural_formulas():
    """Per-node vertex count exact, per-node edge count within the bound."""
    cases = {1: [5], 2: [4, 3], 3: [3, 3, 3], 4: [3, 3, 3, 3]}
    start = time.perf_counter()
    problems = []
    for n, dims in cases.items():
        t = make_torus(dims)
        rg = build_routing_graph(t)
        want_v = 3 ** n + 2 * n + 1
        bound_e = 2 * n * 3 ** n + 1.5 * n * n + 1.5 * n + 1
        if rg.block != want_v:
            problems.append(f"n={n}: vertices {rg.block} != {want_v}")
        for node in t.live_nodes:
            deg = int(rg.indptr[(node + 1) * rg.block]
                      - rg.indptr[node * rg.block])
            if deg > bound_e:
                problems.append(f"n={n}: node degree {deg} > {bound_e}")
                break
    ok = report("1 (structural formulas)", not problems,
                f"n=1..4 checked in {time.perf_counter() - start:.1f}s"
                + ("" if not problems else f"; {problems}"))
    assert ok, problems


def test_criterion_2_theorem1_equivalence():
    """Oracle and routing graph agree on existence, length and route count."""
    start = time.perf_counter()
    mismatches = []
    checked = 0
    all_dims = [dims for n in (1, 2, 3)
                for dims in itertools.product((2, 3, 4), repeat=n)]
    for dims in all_dims:
        t = make_torus(dims)
        rep = oracle_equivalence(t, RuleConfig(), build_routing_graph(t))
        mismatches += [f"{dims} plain: {m}" for m in rep.mismatches[:2]]
        rg, g, added = prepare(t)
        rep = oracle_equivalence(t, RuleConfig.augmented(added), rg=rg)
        mismatches += [f"{dims} augmented: {m}" for m in rep.mismatches[:2]]
        checked += 1
    rng = random.Random(SEED)
    faulted = 0
    while faulted < 20:
        dims = rng.choice(all_dims)
        base = make_torus(dims)
        if faulted % 2 == 0:
            u, d = sorted(base.channels)[rng.randrange(base.n_channels)]
            t = make_torus(dims, failed_links=[(base.coords(u), d)])
        else:
            t = make_torus(dims,
                           failed_nodes=[base.coords(rng.choice(base.live_nodes))])
            if len(t.live_nodes) < 2:
                continue
        rg, g, added = prepare(t)
        rep = oracle_equivalence(t, RuleConfig.augmented(added), rg=rg)
        mismatches += [f"{dims} fault: {m}" for m in rep.mismatches[:2]]
        rep = oracle_equivalence(t, RuleConfig(), build_routing_graph(t))
        mismatches += [f"{dims} fault plain: {m}" for m in rep.mismatches[:2]]
        faulted += 1
    elapsed = time.perf_counter() - start
    ok = report(
        "2 (theorem-1 equivalence)",
        not mismatches and elapsed <= 300,
        f"{checked} tori + {faulted} fault variants, "
        f"{len(mismatches)} mismatches, {elapsed:.0f}s (budget 300s)")
    assert ok, mismatches[:10]


def test_criterion_3_deadlock_freedom(sweep_results):
    """Augmented dependency graphs certified, independently cross-checked,
    and every injectable cycle-creating turn is caught."""
    bad = []
    for n, data in sweep_results.items():
        for row in data["rows"]:
            if not row["certified"]:
                bad.append(f"{row['dims']}: certifier failed")
            if not row["independent_ok"]:
                bad.append(f"{row['dims']}: independent detector disagrees")
    # exhaustive small set, plus injections
    for dims in itertools.product((2, 3, 4), repeat=2):
        t = make_torus(dims)
        g = build_cdg(t)
        used_direction_sets(g)
        g, _ = augment_cdg(g)
        try:
            assert_deadlock_free(g)
        except DeadlockCycleError:
            bad.append(f"{dims}: augmented graph not certified")
    injected = caught = 0
    t = make_torus([3, 3])
    base = build_cdg(t)
    used_direction_sets(base)
    for tail_cid, (uj, dj) in enumerate(t.channels):
        uk = int(t.neighbor_table[uj, dj])
        for dk in range(dj):
            if dj >= t.n and dk < t.n:
                continue
            head = t.channel_table[uk, dk]
            if head < 0:
                continue
            probe = build_cdg(t)
            used_direction_sets(probe)
            probe, added = augment_cdg(probe)
            probe.add_edge(tail_cid, int(head))
            injected += 1
            try:
                assert_deadlock_free(probe)
            except DeadlockCycleError:
                caught += 1
    if caught != injected:
        bad.append(f"only {caught}/{injected} injections caught")
    ok = report("3 (deadlock freedom)", not bad,
                f"90 sweep topologies certified + independent check, "
                f"{caught}/{injected} injected violations caught"
                + ("" if not bad else f"; {bad[:4]}"))
    assert ok, bad[:10]


def test_criterion_4_table2_anchors(desmos_tables):
    """Desmos anchors plus the 2- and 4-node reference systems."""
    t, rg, g, added, tables = desmos_tables
    problems = []
    from torusroute.routes import check_table
    pis = {}
    for algo, table in tables.items():
        rep = load_report(table)
        pis[algo] = rep.pi
        if rep.max_d != 5:
            problems.append(f"desmos {algo}: max_d {rep.max_d} != 5")
        if len(table) != 992:
            problems.append(f"desmos {algo}: {len(table)} routes != 992")
        checks = check_table(t, table, added)
        if any(checks.values()):
            problems.append(f"desmos {algo}: table checks {checks}")
    for label, dims, want_pi, want_maxd in (("2-node", [2], 1, 1),
                                            ("4-node", [4], 2, 2)):
        ts = make_torus(dims)
        rgs, gs, adds = prepare(ts)
        small = {
            "bfs": build_rt_bfs(rgs),
            "sssp": build_rt_sssp(rgs),
            "genetic": build_rt_genetic(rgs, params=GeneticParams(
                seed=0, population=16, stagnation_limit=8)),
        }
        for algo, table in small.items():
            rep = load_report(table)
            if (rep.pi, rep.min_load, rep.sigma[4], rep.max_d) != (
                    want_pi, want_pi, 0.0, want_maxd):
                problems.append(
                    f"{label} {algo}: pi={rep.pi} min={rep.min_load} "
                    f"sigma={rep.sigma[4]:.3f} maxd={rep.max_d}, "
                    f"want pi=min={want_pi} sigma=0 maxd={want_maxd}")
    for algo in ("sssp", "genetic"):
        if pis[algo] > 0.75 * pis["bfs"]:
            problems.append(
                f"{algo} pi {pis[algo]} > 0.75 x bfs pi {pis['bfs']}")
    ok = report(
        "4 (reference-table anchors)", not problems,
        f"pi: bfs={pis['bfs']} sssp={pis['sssp']} genetic={pis['genetic']}"
        + ("" if not problems else f"; {problems}"))
    assert ok, problems


def test_criterion_5_balancedness_trend(sweep_results):
    problems = []
    details = []
    for n, data in sweep_results.items():
        rows = data["rows"]
        ratios = [r["pi_sssp"] / r["pi_bfs"] for r in rows]
        mean_ratio = float(np.mean(ratios))
        share = float(np.mean([r["pi_sssp"] <= r["pi_bfs"] for r in rows]))
        details.append(f"{n}D mean={mean_ratio:.3f} share<= ={share:.2f}")
        if mean_ratio >= 1.0:
            problems.append(f"{n}D mean ratio {mean_ratio:.3f} >= 1.0")
        if share < 0.6:
            problems.append(f"{n}D share {share:.2f} < 0.6")
    gen_time = sum(d["generation_time_s"] for d in sweep_results.values())
    if gen_time > 600:
        problems.append(f"generation time {gen_time:.0f}s > 600s")
    ok = report("5 (balancedness trend)", not problems,
                "; ".join(details) + f"; generation {gen_time:.0f}s"
                + ("" if not problems else f"; {problems}"))
    assert ok, problems


def test_criterion_6_unique_route_ordering(sweep_results):
    fractions = {
        n: float(np.mean([r["unique_fraction"] for r in data["rows"]]))
        for n, data in sweep_results.items()}
    ok = report(
        "6 (unique-route ordering)",
        fractions[2] > fractions[3] > fractions[4],
        f"mean unique fraction 2D={fractions[2]:.3f} "
        f"3D={fractions[3]:.3f} 4D={fractions[4]:.3f}")
    assert ok, fractions


def test_criterion_7_call_count_envelope(sweep_results):
    """The stage-2-only call count lies in [N, N^2] and bounds the two-stage
    count, which lies in [pending groups, pending pairs]: the pairs stage 1
    leaves to stage 2 and their (turns, length, source) groups."""
    ordering = []        # both-stage count must not exceed stage-2-only
    stage2_envelope = [] # stage-2-only count within [N, N^2]
    residual = []        # both-stage count within its pending work
    for n, data in sweep_results.items():
        for row in data["rows"]:
            nn = row["nodes"]
            both, only2 = row["calls_both"], row["calls_stage2_only"]
            groups, pairs = row["pending_groups"], row["pending_pairs"]
            if both > only2:
                ordering.append(
                    f"{row['dims']}: both-stage {both} > stage2-only {only2}")
            if not nn <= only2 <= nn * nn:
                stage2_envelope.append(
                    f"{row['dims']}: stage2-only {only2} outside "
                    f"[{nn},{nn * nn}]")
            if not groups <= both <= pairs:
                residual.append(
                    f"{row['dims']}: both-stage {both} outside "
                    f"[{groups},{pairs}] (pending groups, pending pairs)")
    problems = ordering + stage2_envelope + residual
    ok = report(
        "7 (call-count envelope)", not problems,
        "90 topologies instrumented: "
        f"ordering violations {len(ordering)}, stage-2-only envelope "
        f"violations {len(stage2_envelope)}, both-stage residual envelope "
        f"violations {len(residual)}")
    assert ok, "\n".join(problems)


def test_criterion_8_determinism(desmos_tables):
    t, rg, g, added, tables = desmos_tables
    problems = []
    reruns = {
        "bfs": build_rt_bfs(rg),
        "sssp": build_rt_sssp(rg),
        "genetic": build_rt_genetic(rg, params=GeneticParams(seed=0)),
    }
    for algo, table in tables.items():
        if table_to_text(table) != table_to_text(reruns[algo]):
            problems.append(f"{algo}: table bytes differ across runs")
    ok = report("8 (determinism)", not problems,
                "byte-identical reruns for bfs, sssp, genetic"
                + ("" if not problems else f"; {problems}"))
    assert ok, problems


def test_criterion_9_load_reconciliation(desmos_tables, sweep_results):
    problems = []
    t, rg, g, added, tables = desmos_tables
    for algo, table in tables.items():
        loads = channel_loads(table)
        if not (table.stats.link_increments == loads).all():
            problems.append(f"desmos {algo}: ledger != loads")
        if loads.sum() != sum(len(r) for r in table.routes.values()):
            problems.append(f"desmos {algo}: load sum != route length sum")
    for n, data in sweep_results.items():
        for row in data["rows"]:
            if not row["reconciled"]:
                problems.append(f"{row['dims']}: ledger mismatch")
    ok = report("9 (load reconciliation)", not problems,
                "ledger == channel loads on desmos and all sweep tables"
                + ("" if not problems else f"; {problems[:4]}"))
    assert ok, problems
