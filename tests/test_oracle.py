import pytest

from torusroute import (RuleConfig, brute_force_routes, build_routing_graph,
                        make_torus, oracle_equivalence)
from torusroute.errors import TopologyError
from torusroute.oracle import min_routes
from torusroute.routing_graph import RoutingGraph

from conftest import prepared


def test_two_node_single_route():
    t = make_torus([2])
    routes = brute_force_routes(t, 0, 1, RuleConfig(), max_len=3)
    # the lone first-step encoding collapses into the same physical route
    assert routes == [(0,)]


def test_ring_antipodal_routes():
    t = make_torus([4])
    routes = brute_force_routes(t, 0, 2, RuleConfig(), max_len=2)
    assert set(routes) == {(0, 0), (1, 1)}


def test_detour_routes_enumerated():
    t = make_torus([4], failed_links=[((0,), 0)])
    routes = brute_force_routes(t, 0, 1, RuleConfig(), max_len=3)
    assert routes == [(1, 1, 1)]


def test_out_of_range_source_raises():
    t = make_torus([4, 4])
    for bad in (-1, t.num_coords):
        with pytest.raises(TopologyError, match="out of range"):
            brute_force_routes(t, bad, 3, RuleConfig(), 4)


def test_failed_end_raises():
    """A failed source raises the TopologyError a failed destination does;
    neither gives an empty route list."""
    t = make_torus([4, 4], failed_nodes=[(1, 1)])
    failed = t.node_id((1, 1))
    for src, dst in ((failed, 0), (0, failed)):
        with pytest.raises(TopologyError, match="failed nodes"):
            brute_force_routes(t, src, dst, RuleConfig(), 6)


def test_relaxed_turn_gains_route():
    t = make_torus([3, 3])
    u, v, w = t.node_id((1, 0)), t.node_id((1, 1)), t.node_id((2, 1))
    edge = ((u, 1), (v, 0))
    plain = min_routes(t, u, w, RuleConfig(), 2)[1]
    relaxed = min_routes(t, u, w, RuleConfig.augmented([edge]), 2)[1]
    assert plain == [(0, 1)]
    assert set(relaxed) == {(0, 1), (1, 0)}
    # and the routing graph side agrees
    from torusroute import apply_augmentation
    rg = apply_augmentation(build_routing_graph(t), [edge])
    rep = oracle_equivalence(t, RuleConfig.augmented([edge]), rg=rg)
    assert not rep.mismatches, rep.mismatches[:5]


def test_equivalence_plain_3x3(grid33):
    t, rg_aug, g, added = grid33
    rep = oracle_equivalence(t, RuleConfig(), build_routing_graph(t))
    assert rep.pairs_checked == 72
    assert not rep.mismatches, rep.mismatches[:5]


def test_equivalence_augmented_mesh(mesh22):
    t, rg, g, added = mesh22
    rep = oracle_equivalence(t, RuleConfig.augmented(added), rg=rg)
    assert not rep.mismatches, rep.mismatches[:5]


def test_equivalence_pinned_faulted_augmented():
    """One report of a faulted system with relaxed turns, pinned: every
    ordered pair of its 31 live nodes is checked, and none mismatches."""
    t, rg, g, added = prepared([4, 4, 2], failed_nodes=[(0, 2, 0)])
    assert added
    rep = oracle_equivalence(t, RuleConfig.augmented(added), rg=rg)
    assert (rep.pairs_checked, rep.mismatches) == (930, [])


def test_mutation_detected(monkeypatch):
    """Deleting a rule family from the routing graph must surface: a block
    template without its BEGIN -> DIRBIT rows."""
    import torusroute.routing_graph as rg_mod

    rows, single, by_last = rg_mod._template(2)
    keep = ~((rows[:, 0] == 0) & (rows[:, 2] < 3 ** 2))
    monkeypatch.setattr(rg_mod, "_template",
                        lambda n: (rows[keep], single, by_last))
    t = make_torus([3, 3])
    hacked = RoutingGraph(t)
    rep = oracle_equivalence(t, RuleConfig(), rg=hacked)
    assert rep.mismatches


def test_equivalence_guard():
    with pytest.raises(ValueError):
        t = make_torus([5, 5, 3])
        oracle_equivalence(t, RuleConfig(), build_routing_graph(t))


@pytest.mark.parametrize("dims", [[3, 3], [4, 2], [2, 2, 2]])
def test_oracle_minimal_length_matches_distance(dims):
    """Fault-free tori: plain rules always admit a distance-length route."""
    t = make_torus(dims)
    for src in t.live_nodes:
        for dst in t.live_nodes:
            if src == dst:
                continue
            want = t.distance(src, dst)
            got, routes = min_routes(t, src, dst, RuleConfig(), want)
            assert got == want and routes


def test_oracle_order_independence():
    t = make_torus([2, 3])
    a = brute_force_routes(t, 0, 5, RuleConfig(), max_len=4)
    b = brute_force_routes(t, 0, 5, RuleConfig(), max_len=4)
    assert a == b and a == sorted(set(a))
