import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusroute import (build_rt_bfs, build_rt_sssp, channel_loads, deviation,
                        load_report, make_torus, pattern_loads, pattern_pairs,
                        perfect_channel_load)
from torusroute.errors import IntegrityError, TopologyError
from torusroute.metrics import PATTERNS

from conftest import prepared, small_faulted_systems
from witnesses import _transpose_node, loop_pattern_pairs, make_route, table_of


def test_two_node_loads():
    t, rg, g, added = prepared([2])
    table = build_rt_bfs(rg)
    loads = channel_loads(table)
    assert loads.tolist() == [1, 1]
    rep = load_report(table)
    assert rep.pi == rep.min_load == 1
    assert rep.sigma[4] == 0.0
    assert rep.max_d == 1


def test_single_pair_load():
    t = make_torus([4])
    r = make_route(t, 0, None, [0], None)
    table = table_of(t, {(0, 1): r})
    loads = channel_loads(table)
    assert loads[t.channel_id[(0, 0)]] == 1
    assert loads.sum() == 1


def test_mesh22_minimum_pi_is_three(mesh22):
    """Exhaustive check over every minimal rule-valid table: only the two
    main diagonals have a second variant, and either choice drives one
    channel to load 3."""
    t, rg, g, added = mesh22
    from torusroute import enumerate_minimal_routes
    variants = {}
    for s in t.live_nodes:
        for d in t.live_nodes:
            if s != d:
                variants[(s, d)], _ = enumerate_minimal_routes(rg, s, d)
    options = [len(v) for v in variants.values()]
    assert sorted(options) == [1] * 10 + [2, 2]
    best = 99
    keys = sorted(variants)
    for choice in itertools.product(*(range(len(variants[k])) for k in keys)):
        table = table_of(t, {k: variants[k][c]
                             for k, c in zip(keys, choice)})
        best = min(best, int(channel_loads(table).max()))
    assert best == 3
    for algo in (build_rt_bfs, build_rt_sssp):
        assert load_report(algo(rg)).pi == 3


def test_deviation_examples():
    assert deviation(np.array([2, 2, 2, 2]), 2.0) == 0.0
    assert deviation(np.array([1, 3]), 2.0) == 1.0
    with pytest.raises(ValueError):
        deviation(np.array([]), 1.0)


@given(st.lists(st.integers(0, 50), min_size=1, max_size=30),
       st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_deviation_properties(loads, rnd):
    """Uniform loads deviate by zero; deviation ignores channel order."""
    uniform = np.full(len(loads), float(loads[0]))
    assert deviation(uniform, float(loads[0])) == 0.0
    loads = np.array(loads, dtype=float)
    gp = float(loads.mean())
    shuffled = loads.copy()
    rnd.shuffle(shuffled)
    assert deviation(loads, gp) == pytest.approx(deviation(shuffled, gp))


@pytest.mark.parametrize("rows,channels", [(1, 1), (3, 7), (100, 16),
                                           (101, 129), (7, 1000)])
def test_deviation_rows_equal_single_calls(rows, channels):
    """A matrix of loads gets one deviation per row, each bitwise equal to
    the call on that row alone (the genetic search sorts on them, so one
    ulp could reorder it), whether the rows are contiguous or a view that
    leaves out the last column."""
    rng = np.random.default_rng(rows * channels)
    wide = rng.integers(0, 300, size=(rows, channels + 1))
    gp = float(rng.random() * 200)
    for loads in (wide[:, :-1], np.ascontiguousarray(wide[:, :-1])):
        got = deviation(loads, gp)
        assert got.shape == (rows,) and got.dtype == np.float64
        assert got.tolist() == [deviation(row, gp) for row in loads]


def test_perfect_channel_load_examples():
    assert perfect_channel_load(make_torus([2])) == 1.0
    assert perfect_channel_load(make_torus([4])) == 2.0
    # frozen from an independent distance-sum enumeration
    t = make_torus([4, 2, 2, 2])
    brute = sum(t.distance(a, b) for a in t.live_nodes for b in t.live_nodes)
    assert brute / t.n_channels == 16.0
    assert perfect_channel_load(t) == 16.0


def test_perfect_channel_load_disconnected():
    from torusroute.errors import DisconnectedError
    t = make_torus([2, 2], failed_links=[((0, 0), 0), ((0, 0), 1)])
    with pytest.raises(DisconnectedError):
        perfect_channel_load(t)


def test_load_report_without_live_node_is_zero():
    """A system whose every node failed has no pair: its empty table reports
    zero loads, as one with a single live node does, and a perfect load of
    0.0; a disconnected system with live nodes still raises."""
    from torusroute.errors import DisconnectedError
    from torusroute.metrics import LoadReport
    t, rg, g, added = prepared([2], failed_nodes=[0, 1])
    assert perfect_channel_load(t) == 0.0
    zero = LoadReport(pi=0, min_load=0, gamma_perfect=0.0, sigma={4: 0.0},
                      max_d=0)
    for build in (build_rt_bfs, build_rt_sssp):
        table = build(rg)
        assert load_report(table) == zero
        assert pattern_loads(table, "alltoall") == zero
    with pytest.raises(DisconnectedError):
        perfect_channel_load(make_torus([2, 2], failed_nodes=[(0, 1),
                                                             (1, 0)]))


def test_alltoall_equals_full_table(grid33):
    t, rg, g, added = grid33
    table = build_rt_bfs(rg)
    rep_all = pattern_loads(table, "alltoall", include_loads=True)
    assert (rep_all.loads == channel_loads(table)).all()


def test_neighbor_pattern_pi_one(grid33):
    t, rg, g, added = grid33
    for algo in (build_rt_bfs, build_rt_sssp):
        rep = pattern_loads(algo(rg), "neighbor")
        assert rep.pi == 1
        assert rep.max_d == 1


def test_tornado_on_eight_ring():
    t, rg, g, added = prepared([8])
    table = build_rt_bfs(rg)
    rep = pattern_loads(table, "tornado", include_loads=True)
    for (u, d), cid in t.channel_id.items():
        assert rep.loads[cid] == (3 if d == 0 else 0)


def test_transpose_is_bijection_and_palindrome_reversal():
    t = make_torus([3, 3])
    targets = {_transpose_node(t, u) for u in t.live_nodes}
    assert targets == set(t.live_nodes)
    assert _transpose_node(t, t.node_id((0, 1))) == t.node_id((1, 0))
    td = make_torus([4, 2, 2, 2])
    targets = {_transpose_node(td, u) for u in td.live_nodes}
    assert targets == set(td.live_nodes)


def _pairs_or_message(pairs, t, name):
    try:
        return pairs(t, name)
    except TopologyError as exc:
        return f"TopologyError: {exc}"


def _assert_patterns_match_loops(t):
    for name in PATTERNS:
        got = _pairs_or_message(pattern_pairs, t, name)
        assert got == _pairs_or_message(loop_pattern_pairs, t, name), name
        if isinstance(got, list):
            assert all(type(s) is int and type(d) is int for s, d in got)


@pytest.mark.parametrize("dims,failed", [
    ([4, 2, 2, 2], []), ([8], []), ([3, 4, 5], [(1, 2, 3)]),
    ([3, 4, 5], [(0, 0, 0), (2, 3, 4)]), ([3, 4, 5], [(2, 3, 1), (0, 1, 0)])])
def test_pattern_pairs_match_per_node_loops(dims, failed):
    """``pattern_pairs`` gives the per-node loops' pairs, in their order,
    for every pattern, and the same TopologyError message naming the first
    failed node, in source order, that a pattern sends to."""
    _assert_patterns_match_loops(make_torus(dims, failed))


@given(small_faulted_systems())
@settings(max_examples=60, deadline=None)
def test_pattern_pairs_match_per_node_loops_on_small_systems(system):
    dims, nodes, links, _, _ = system
    _assert_patterns_match_loops(make_torus(dims, nodes, links))


def test_pattern_referencing_failed_node():
    t = make_torus([2, 2], failed_nodes=[(0, 1)])
    with pytest.raises(TopologyError):
        pattern_pairs(t, "transpose")


def test_pattern_loads_names_a_missing_pair():
    t = make_torus([3])
    table = table_of(t, {(0, 1): make_route(t, 0, None, [0], None)})
    with pytest.raises(KeyError) as err:
        pattern_loads(table, "neighbor")
    assert err.value.args == ("no route for pattern pair (0)->(2)",)


def test_load_integrity_failure():
    t, rg, g, added = prepared([3, 3])
    faulty = make_torus([3, 3], failed_links=[((0, 0), 0)])
    r = make_route(t, t.node_id((0, 0)), None, [0], None)
    table = table_of(faulty, {(r.src, r.dst): r})
    dead = r"route \(0,0\)->\(1,0\) crosses dead channel \(0,0\)\+X"
    with pytest.raises(IntegrityError, match=dead):
        channel_loads(table)
    # the tornado pattern on 3x3 holds the pair (0,0)->(1,0)
    full = table_of(faulty, build_rt_bfs(rg).routes)
    with pytest.raises(IntegrityError, match=dead):
        pattern_loads(full, "tornado")
    # a dead route outside the pattern is not the pattern's error: the pair
    # of the failed link is no neighbor pair of the faulty system
    assert pattern_loads(full, "neighbor").pi == 1


@pytest.mark.parametrize("dims", [[3, 3], [4, 2], [2, 2, 3]])
def test_flow_conservation(dims):
    t, rg, g, added = prepared(dims)
    for algo in (build_rt_bfs, build_rt_sssp):
        table = algo(rg)
        loads = channel_loads(table)
        assert loads.sum() == sum(len(r) for r in table.routes.values())
        # minimal tables: mean load equals the perfect load exactly
        assert loads.mean() == pytest.approx(perfect_channel_load(t))
        rep = load_report(table)
        assert rep.pi >= rep.gamma_perfect


def test_report_json_fields(grid33):
    import json
    t, rg, g, added = grid33
    rep = load_report(build_rt_bfs(rg), include_loads=True)
    doc = json.loads(rep.to_json({"algo": "bfs"}))
    assert set(doc) >= {"pi", "min_load", "gamma_perfect", "sigma", "max_d",
                        "per_channel", "algo"}
    assert doc["sigma"]["4"] >= 0.0
