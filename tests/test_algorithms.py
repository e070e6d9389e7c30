import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torusroute import (GeneticParams, RoutingTable, build_bfs_routes,
                        build_rt_bfs, build_rt_genetic, build_rt_sssp,
                        build_sssp, channel_loads, enumerate_minimal_routes,
                        load_report, make_torus, rg_reachable_pairs,
                        turn_count, unique_route_stats)
from torusroute.cli import prepare, used_turn_cycle_check
from torusroute.errors import TopologyError, UnroutablePairError
from torusroute.routes import check_table, make_route, table_to_text

from conftest import pending_groups, prepared

GENERATORS = {
    "bfs": build_rt_bfs,
    "sssp": build_rt_sssp,
    "genetic": lambda rg: build_rt_genetic(
        rg, params=GeneticParams(seed=7, population=20, stagnation_limit=8)),
}


def test_turn_count_examples(grid33):
    t, rg, g, added = grid33
    r = make_route(t, 0, None, [0, 0], None)
    assert turn_count(r) == 0
    r = make_route(t, 0, None, [0, 1], None)
    assert turn_count(r) == 1
    r = make_route(t, 0, 1, [0], None)
    assert turn_count(r) == 1


def test_bfs_two_nodes():
    t, rg, g, added = prepared([2])
    table = build_rt_bfs(rg)
    assert load_report(table).pi == 1
    assert len(table) == 2


def test_bfs_weight_coupling():
    t, rg, g, added = prepared([4])
    loads = np.zeros(t.n_channels, dtype=np.int64)
    routes = build_bfs_routes(rg, 0, loads)
    total = sum(len(r) for r in routes.values())
    assert loads.sum() == total
    for dst, r in routes.items():
        assert len(r) == t.distance(0, dst)


def test_bfs_second_source_avoids_loaded_side():
    """After source 0 piles weight on one side of the ring, source 2's
    antipodal route takes links disjoint from the loaded ones."""
    t, rg, g, added = prepared([4])
    loads = np.zeros(t.n_channels, dtype=np.int64)
    first = build_bfs_routes(rg, 0, loads)
    loaded = set(t.walk(0, first[2].steps)[1])
    second = build_bfs_routes(rg, 2, loads)
    assert not (set(t.walk(2, second[0].steps)[1]) & loaded)


def test_bfs_unroutable_names_pair():
    t = make_torus([2], failed_links=[((0,), 0)])
    rg, g, added = prepare(t)
    with pytest.raises(UnroutablePairError) as err:
        build_rt_bfs(rg)
    assert ("(0)", "(1)") in err.value.pairs


def test_unroutable_pairs_are_named_in_order():
    """Ring of 4 with (0)+X and (2)+X failed: (0) reaches only (3).

    Every generator names both unreached destinations of source (0), and
    ``build_bfs_routes`` adds no load before it raises.
    """
    t = make_torus([4], failed_links=[((0,), 0), ((2,), 0)])
    rg, g, added = prepare(t)
    loads = np.zeros(t.n_channels, dtype=np.int64)
    calls = [lambda: build_bfs_routes(rg, 0, loads),
             lambda: build_sssp(rg, 0, [1, 2, 3], loads),
             lambda: unique_route_stats(rg),
             lambda: build_rt_sssp(rg),
             lambda: build_rt_bfs(rg)]
    for call in calls:
        with pytest.raises(UnroutablePairError) as err:
            call()
        assert err.value.pairs == [("(0)", "(1)"), ("(0)", "(2)")]
    assert not loads.any()


def test_enumerate_examples(ring4, grid33, mesh22):
    t4, rg4, _, _ = ring4
    vs, trunc = enumerate_minimal_routes(rg4, 0, 2)
    assert {v.steps for v in vs} == {(0, 0), (1, 1)}
    assert not trunc
    vs, _ = enumerate_minimal_routes(rg4, 0, 1)
    assert len(vs) == 1 and len(vs[0]) == 1

    t3, rg3, _, _ = grid33
    vs, _ = enumerate_minimal_routes(rg3, t3.node_id((0, 0)),
                                     t3.node_id((1, 1)))
    assert [v.steps for v in vs] == [(0, 1)]  # saturated torus: one variant

    t2, rg2, _, _ = mesh22
    vs, _ = enumerate_minimal_routes(rg2, t2.node_id((0, 0)),
                                     t2.node_id((1, 1)))
    assert {v.steps for v in vs} == {(0, 1), (1, 0)}  # relaxed turn adds one


def test_enumerate_cap_truncates(desmos):
    t, rg, g, added = desmos
    src = t.node_id((0, 0, 0, 0))
    dst = t.node_id((2, 1, 1, 1))
    full, trunc_full = enumerate_minimal_routes(rg, src, dst, cap=128)
    assert not trunc_full and len(full) > 1
    cut, trunc_cut = enumerate_minimal_routes(rg, src, dst, cap=1)
    assert trunc_cut and len(cut) == 1
    assert cut[0] == full[0]  # deterministic prefix


def test_enumerate_deterministic(desmos):
    t, rg, g, added = desmos
    a = enumerate_minimal_routes(rg, 0, 23)[0]
    b = enumerate_minimal_routes(rg, 0, 23)[0]
    assert a == b


def test_sssp_two_nodes_all_unique():
    t, rg, g, added = prepared([2])
    table = build_rt_sssp(rg)
    assert table.stats.sssp_calls == 0
    assert table.stats.unique_pairs == table.stats.total_pairs == 2


def test_sssp_avoids_loaded_link(ring4):
    t, rg, g, added = ring4
    loads = np.zeros(t.n_channels, dtype=np.int64)
    loads[t.channel_id[(0, 0)]] = 10  # (0,+X) is hot
    routes = build_sssp(rg, 0, [2], loads)
    assert routes[2].steps == (1, 1)  # -X -X around the other side


def test_sssp_zero_loads_is_plain_bfs(grid33):
    """With untouched weights the tree is hop-minimal, like plain BFS."""
    t, rg, g, added = grid33
    loads = np.zeros(t.n_channels, dtype=np.int64)
    routes = build_sssp(rg, 0, list(t.live_nodes[1:]), loads)
    for dst, r in routes.items():
        assert len(r) == t.distance(0, dst)


def test_sssp_minimality_under_random_loads(grid33):
    t, rg, g, added = grid33
    rng = np.random.default_rng(3)
    loads = rng.integers(0, 50, size=t.n_channels).astype(np.int64)
    routes = build_sssp(rg, 0, list(t.live_nodes[1:]), loads)
    for dst, r in routes.items():
        assert len(r) == t.distance(0, dst)


def test_sssp_exact_routes_under_random_loads(desmos):
    """The least-load tie-breaks of one tree, pinned by the SHA-256 of its
    routes as table text; the ledger is read, not changed."""
    t, rg, g, added = desmos
    rng = np.random.default_rng(3)
    loads = rng.integers(0, 50, size=t.n_channels).astype(np.int64)
    before = loads.copy()
    routes = build_sssp(rg, 0, list(t.live_nodes[1:]), loads)
    text = table_to_text(RoutingTable(t, {(0, d): r
                                          for d, r in routes.items()}))
    assert len(routes) == len(t.live_nodes) - 1
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "40c56d3a1f7fb6018e2579d97e7cd8e62b713d70c4cb8133d177d2eda994420d")
    assert (loads == before).all()


@st.composite
def small_faulted_systems(draw):
    """make_torus arguments with at most 40 nodes and 0-2 faults, a live
    source and a ledger seed."""
    dims = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3)
                .filter(lambda d: math.prod(d) <= 40))
    size = math.prod(dims)
    faults = draw(st.lists(st.tuples(st.booleans(), st.integers(0, size - 1),
                                     st.integers(0, 2 * len(dims) - 1)),
                           max_size=2))
    nodes = [u for link, u, _ in faults if not link]
    links = [(u, d) for link, u, d in faults if link]
    try:
        t = make_torus(dims, nodes, links)
    except TopologyError:  # a link a mesh axis lacks, or on a failed node
        assume(False)
    assume(t.live_nodes)
    return (dims, nodes, links, draw(st.sampled_from(t.live_nodes)),
            draw(st.integers(0, 2 ** 32 - 1)))


@given(small_faulted_systems())
@settings(max_examples=60, deadline=None)
def test_sssp_routes_are_least_load_minimal_variants(system):
    """Every ``build_sssp`` route has its pair's minimal hop count and the
    least total link load among all the pair's minimal variants, which the
    path enumerator lists without the level DAG; the ledger is unchanged."""
    dims, nodes, links, src, seed = system
    t = make_torus(dims, nodes, links)
    rg = prepare(t)[0]
    loads = np.random.default_rng(seed).integers(0, 20, size=t.n_channels)
    before = loads.copy()
    dsts = sorted(d for s, d in rg_reachable_pairs(rg) if s == src)
    routes = build_sssp(rg, src, dsts, loads)
    assert sorted(routes) == dsts
    assert (loads == before).all()

    def load_of(r):
        return int(loads[t.walk(r.src, r.steps)[1]].sum())

    for dst, r in routes.items():
        variants, truncated = enumerate_minimal_routes(rg, src, dst,
                                                       cap=10 ** 6)
        assert not truncated
        assert len(r) == len(variants[0])
        assert r.steps in {v.steps for v in variants}
        assert load_of(r) == min(load_of(v) for v in variants), (dst, r)


def test_sssp_stage_comparison():
    residual = {}
    for dims in ([3, 3], [2, 2], [4, 2], [2, 2, 2]):
        t, rg, g, added = prepared(dims)
        both = build_rt_sssp(rg)
        only2 = build_rt_sssp(rg, skip_unique_stage=True)
        assert both.stats.sssp_calls <= only2.stats.sssp_calls
        n = len(t.live_nodes)
        assert n <= only2.stats.sssp_calls <= n * n
        pending = both.stats.total_pairs - both.stats.unique_pairs
        groups = pending_groups(rg)
        assert groups <= both.stats.sssp_calls <= pending
        residual[tuple(dims)] = (pending, both.stats.sssp_calls)
    assert residual[(3, 3)] == (0, 0)  # stage 1 fixes every pair
    assert residual[(2, 2)] == (2, 2)  # the two diagonals, one group each


def test_unique_route_stats_examples():
    t, rg, g, added = prepared([3, 3])
    unique, total = unique_route_stats(rg)
    assert (unique, total) == (72, 72)  # odd torus: every pair is forced
    t, rg, g, added = prepared([2, 2])
    unique, total = unique_route_stats(rg)
    assert (unique, total) == (10, 12)  # both main diagonals have 2 variants


def test_genetic_degenerate_space_returns_unique_table():
    t, rg, g, added = prepared([3])
    table = build_rt_genetic(rg, params=GeneticParams(
        seed=0, population=4, stagnation_limit=2))
    expect = build_rt_sssp(rg)
    assert table.routes == expect.routes


def test_genetic_deterministic(mesh22):
    t, rg, g, added = mesh22
    p = GeneticParams(seed=42, population=10, stagnation_limit=4)
    a = build_rt_genetic(rg, params=p)
    b = build_rt_genetic(rg, params=p)
    assert table_to_text(a) == table_to_text(b)


def test_genetic_elitism_history(grid33):
    t, rg, g, added = grid33
    table = build_rt_genetic(rg, params=GeneticParams(
        seed=5, population=10, stagnation_limit=5))
    hist = table.stats.fitness_history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_genetic_params_validation():
    with pytest.raises(ValueError):
        GeneticParams(population=1)
    with pytest.raises(ValueError):
        GeneticParams(mutation=1.5)


@pytest.mark.parametrize("dims", [[3, 3], [2, 2], [4, 2], [2, 2, 3]])
@pytest.mark.parametrize("algo", sorted(GENERATORS))
def test_generator_contract(dims, algo):
    """Complete, minimal, rule-valid, deadlock-free, loads reconcile."""
    t, rg, g, added = prepared(dims)
    table = GENERATORS[algo](rg)
    report = check_table(t, table, added)
    assert report == {"completeness": [], "minimality": [], "validity": []}
    loads = channel_loads(table)
    assert (table.stats.link_increments == loads).all()
    assert loads.sum() == sum(len(r) for r in table.routes.values())
    used_turn_cycle_check(t, table)


@pytest.mark.parametrize("algo", sorted(GENERATORS))
def test_generator_determinism(algo):
    t, rg, g, added = prepared([4, 2])
    a = GENERATORS[algo](rg)
    b = GENERATORS[algo](rg)
    assert table_to_text(a) == table_to_text(b)
