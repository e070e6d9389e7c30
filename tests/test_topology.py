import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torusroute import (Route, RuleConfig, brute_force_routes, build_bfs_routes,
                        build_routing_graph, build_sssp,
                        enumerate_minimal_routes, make_torus, validate_route)
from torusroute.errors import DisconnectedError, ParseError, TopologyError
from torusroute.routes import route_channels
from torusroute.topology import (direction_name, load_topology,
                                 opposite_direction, parse_direction,
                                 parse_topology, sum_pair_distances)

from conftest import small_faulted_systems
from witnesses import most_remote, topology_to_text

small_dims = st.lists(st.integers(2, 4), min_size=1, max_size=3)


def bfs_row(t, a):
    """Hops from live node ``a`` to every node id, -1 where unreached: a
    plain breadth-first search over ``Topology.neighbor_table``, the
    reference for every distance query."""
    row = [-1] * t.num_coords
    row[a] = 0
    frontier = [a]
    while frontier:
        nxt = []
        for u in frontier:
            for d in range(t.ndirs):
                v = int(t.neighbor_table[u, d])
                if v >= 0 and row[v] < 0:
                    row[v] = row[u] + 1
                    nxt.append(v)
        frontier = nxt
    return row


def test_desmos_node_count():
    t = make_torus([4, 2, 2, 2])
    assert len(t.live_nodes) == 32


def test_two_node_mesh_has_two_directed_links():
    t = make_torus([2])
    assert set(t.channels) == {(0, 0), (1, 1)}  # (0,+X) and (1,-X)
    assert t.neighbor_table[0, 0] == 1
    assert t.neighbor_table[1, 0] == -1  # no wraparound duplicate
    assert t.neighbor_table[1, 1] == 0
    assert t.neighbor_table[0, 1] == -1


def test_failed_link_symmetrized():
    t = make_torus([3, 3], failed_links=[((0, 0), 0)])
    u = t.node_id((0, 0))
    v = t.node_id((1, 0))
    assert t.neighbor_table[u, 0] == -1
    assert t.neighbor_table[v, t.opposite(0)] == -1


def test_make_torus_errors():
    with pytest.raises(TopologyError):
        make_torus([1, 3])
    with pytest.raises(TopologyError):
        make_torus([2] * 5)
    with pytest.raises(TopologyError):
        make_torus([3], failed_nodes=[7])
    with pytest.raises(TopologyError):
        make_torus([2], failed_links=[((1,), 0)])  # link absent in a mesh


def test_direction_order_and_opposite():
    n = 4
    names = [direction_name(d, n) for d in range(2 * n)]
    assert names == ["+X", "+Y", "+Z", "+K", "-X", "-Y", "-Z", "-K"]
    for d in range(2 * n):
        assert opposite_direction(opposite_direction(d, n), n) == d


def test_neighbor_wraparound_and_ring():
    t = make_torus([3, 3])
    assert t.neighbor_table[t.node_id((2, 0)), 0] == t.node_id((0, 0))
    r = make_torus([4])
    assert r.neighbor_table[3, 0] == 0


def test_walk_live_route():
    t = make_torus([3, 3])
    u, v, w = t.node_id((0, 0)), t.node_id((1, 0)), t.node_id((1, 1))
    nodes, channels = t.walk(u, (0, 1))  # +X +Y
    assert nodes == [u, v, w]
    assert channels == [t.channel_id[(u, 0)], t.channel_id[(v, 1)]]
    assert t.walk(u, ()) == ([u], [])


def test_walk_stops_at_dead_link():
    t = make_torus([3, 3], failed_links=[((1, 0), 1)])
    u, v = t.node_id((0, 0)), t.node_id((1, 0))
    nodes, channels = t.walk(u, (0, 1, 1))  # +Y from (1,0) is dead
    assert nodes == [u, v]
    assert channels == [t.channel_id[(u, 0)]]


def test_walk_from_failed_source():
    t = make_torus([3, 3], failed_nodes=[(0, 0)])
    assert t.walk(0, (0, 1)) == ([0], [])


@given(small_dims, st.data())
@settings(max_examples=40, deadline=None)
def test_neighbor_inverse(dims, data):
    t = make_torus(dims)
    u = data.draw(st.sampled_from(t.live_nodes))
    d = data.draw(st.integers(0, t.ndirs - 1))
    v = t.neighbor_table[u, d]
    if v >= 0:
        assert t.neighbor_table[v, t.opposite(d)] == u


def test_distance_examples():
    t = make_torus([4, 2, 2, 2])
    assert t.distance(t.node_id((0, 0, 0, 0)), t.node_id((2, 1, 1, 1))) == 5
    assert t.distance(5, 5) == 0
    r5 = make_torus([5])
    assert r5.distance(0, 3) == 2


def test_distance_with_faults_uses_link_graph():
    t = make_torus([4], failed_links=[((0,), 0)])
    assert t.distance(0, 1) == 3  # around the ring the other way


@given(small_dims, st.data())
@settings(max_examples=30, deadline=None)
def test_distance_formula_matches_bfs(dims, data):
    """Pure tori against an independent breadth-first search."""
    t = make_torus(dims)
    a = data.draw(st.sampled_from(t.live_nodes))
    b = data.draw(st.sampled_from(t.live_nodes))
    assert t.distance(a, b) == bfs_row(t, a)[b]
    assert t.distance(a, b) == t.distance(b, a)


def test_out_of_range_node_ids_raise():
    for t in (make_torus([4, 4]), make_torus([4, 4], failed_links=[(0, 0)])):
        rg = build_routing_graph(t)
        loads = np.zeros(t.n_channels, dtype=np.int64)
        for bad in (-1, t.num_coords):
            with pytest.raises(TopologyError, match="out of range"):
                t.distance(bad, 3)
            with pytest.raises(TopologyError, match="out of range"):
                t.distance(3, bad)
            with pytest.raises(TopologyError, match="out of range"):
                t.check_nodes((1, bad))
            with pytest.raises(TopologyError, match=f"node id {bad} out"):
                t.coords(bad)
            with pytest.raises(TopologyError, match=f"node id {bad} out"):
                t.coord_str(bad)
            with pytest.raises(TopologyError, match=f"node id {bad} out"):
                brute_force_routes(t, 3, bad, RuleConfig(), 4)
            # checked at entry: a negative source never meets its begin
            # vertex in the tree read-back, and a negative destination
            # would index the last node's end vertex
            with pytest.raises(TopologyError, match=f"node id {bad} out"):
                build_bfs_routes(rg, bad, loads)
            with pytest.raises(TopologyError, match=f"node id {bad} out"):
                build_sssp(rg, bad, [1, 2], loads)
            with pytest.raises(TopologyError, match=f"node id {bad} out"):
                build_sssp(rg, 0, [1, bad], loads)
            with pytest.raises(TopologyError, match=f"node id {bad} out"):
                enumerate_minimal_routes(rg, bad, 3)
            with pytest.raises(TopologyError, match=f"node id {bad} out"):
                enumerate_minimal_routes(rg, 0, bad)
            # a source row -1 would wrap to the last node's links
            with pytest.raises(TopologyError, match=f"node id {bad} out"):
                t.walk(bad, [0])
            stray = Route(bad, 14, None, (0,), None, (15, 14))
            with pytest.raises(TopologyError, match=f"node id {bad} out"):
                route_channels(t, stray)
            with pytest.raises(TopologyError, match=f"node id {bad} out"):
                validate_route(t, stray)
        assert not loads.any()


def test_failed_link_checks():
    """``make_torus`` refuses a failed link whose direction index is out of
    range (-1 would wrap to the last direction) or that runs off the end of
    a mesh axis, and ``topology_to_text`` writes each failed cable once."""
    for d in (-1, 4, 9):
        with pytest.raises(TopologyError, match="direction index"):
            make_torus([4, 4], failed_links=[(0, d)])
    for ref, d in (((1, 0), 0), ((0, 2), 2)):
        with pytest.raises(TopologyError, match="does not exist"):
            make_torus([2, 3], failed_links=[(ref, d)])
    # -X from (0,1) wraps to (2,1); +Y from (2,0) is the mesh axis' cable
    t = make_torus([3, 2], failed_links=[((0, 1), 2), ((2, 0), 1)])
    assert len(t.failed_links) == 4
    text = topology_to_text(t)
    assert text == ("dims: 3 2\n"
                    "fail-link: 0 1 -X\n"
                    "fail-link: 2 0 +Y\n")
    assert parse_topology(text).failed_links == t.failed_links


def test_most_remote():
    r8 = make_torus([8])
    assert most_remote(r8, {1, 4, 7}, 0) == 4
    assert most_remote(r8, {3}, 3) == 3
    t = make_torus([4, 2, 2, 2])
    others = [u for u in t.live_nodes if u != 0]
    assert t.coords(most_remote(t, others, 0)) == (2, 1, 1, 1)
    # independent exhaustive scan
    far = max(t.distance(0, v) for v in others)
    best = min(v for v in others if t.distance(0, v) == far)
    assert most_remote(t, others, 0) == best
    with pytest.raises(TopologyError):
        most_remote(r8, set(), 0)


@st.composite
def faulted_tori(draw):
    """A topology of at most 64 nodes with 0-3 node or link faults."""
    dims = draw(st.lists(st.integers(2, 5), min_size=1, max_size=4)
                .filter(lambda d: math.prod(d) <= 64))
    size = math.prod(dims)
    faults = draw(st.lists(st.tuples(st.booleans(), st.integers(0, size - 1),
                                     st.integers(0, 2 * len(dims) - 1)),
                           max_size=3))
    try:
        t = make_torus(dims, [u for link, u, _ in faults if not link],
                       [(u, d) for link, u, d in faults if link])
    except TopologyError:  # a link a mesh axis lacks, or on a failed node
        assume(False)
    assume(t.live_nodes)
    return t


def reference_links(t):
    """(neighbour table, channels, channel table) as nested lists, worked
    out node by node from coordinates: a mesh axis (size 2) does not wrap,
    a failed node has no link and a failed link is dead both ways."""
    table = [[-1] * t.ndirs for _ in range(t.num_coords)]
    channels = []
    for u in range(t.num_coords):
        cu = t.coords(u)
        for d in range(t.ndirs):
            j, step = d % t.n, (1 if d < t.n else -1)
            c = cu[j] + step
            if t.dims[j] == 2 and not 0 <= c < 2:
                continue
            cv = cu[:j] + (c % t.dims[j],) + cu[j + 1:]
            v = t.node_id(cv)
            back = d + t.n if d < t.n else d - t.n
            if ({u, v} & t.failed_nodes or (u, d) in t.failed_links
                    or (v, back) in t.failed_links):
                continue
            table[u][d] = v
            channels.append((u, d))
    channel_table = [[-1] * t.ndirs for _ in range(t.num_coords)]
    for i, (u, d) in enumerate(channels):
        channel_table[u][d] = i
    return table, channels, channel_table


@given(faulted_tori())
@settings(max_examples=80, deadline=None)
def test_link_tables_match_coordinate_reference(t):
    table, channels, channel_table = reference_links(t)
    assert t.neighbor_table.tolist() == table
    assert list(t.channels) == channels
    assert t.channel_table.tolist() == channel_table
    assert t.neighbor_table.dtype == t.channel_table.dtype == np.int32
    assert t.channel_id == {c: i for i, c in enumerate(channels)}


def check_layout(t):
    """The layout arrays against a row-major decode of every node id and
    against the channel tuples and table: ``grid`` column u holds u's
    coordinates, ``strides`` ranks them back to u, and channel id i is
    ``(channel_node[i], channel_dir[i])``."""
    for u in range(t.num_coords):
        coords, rest = [], u
        for size in reversed(t.dims):
            rest, c = divmod(rest, size)
            coords.insert(0, c)
        assert t.grid[:, u].tolist() == coords
        assert t.coords(u) == tuple(coords)
        assert all(type(c) is int for c in t.coords(u))
        assert t.node_id(coords) == int(t.strides @ t.grid[:, u]) == u
        assert t.coord_names[u] == "(" + ",".join(map(str, coords)) + ")"
    assert t.grid.shape == (t.n, t.num_coords)
    assert t.strides.tolist() == [math.prod(t.dims[j + 1:])
                                  for j in range(t.n)]
    node, d = t.channel_node, t.channel_dir
    assert list(zip(node.tolist(), d.tolist())) == list(t.channels)
    assert (t.channel_table[node, d] == np.arange(t.n_channels)).all()
    assert np.count_nonzero(t.channel_table >= 0) == t.n_channels
    for a in (t.grid, t.strides, node, d):
        assert not a.flags.writeable


@given(small_faulted_systems())
@settings(max_examples=60, deadline=None)
def test_layout_arrays_match_node_ids_and_channels(system):
    dims, nodes, links, _, _ = system
    check_layout(make_torus(dims, nodes, links))


@pytest.mark.parametrize("dims,failed", [
    ([4, 2, 2, 2], []), ([2, 2, 2, 2], [(1, 0, 1, 0)]),
    ([3, 2, 4, 2], [(2, 1, 3, 0)]), ([3, 3, 3, 3], [])])
def test_layout_arrays_on_four_dimensions(dims, failed):
    check_layout(make_torus(dims, failed))


def check_distance_queries(t):
    """Every distance query of ``t`` against ``bfs_row``."""
    live = t.live_nodes
    rows = {a: bfs_row(t, a) for a in live}
    dead = [-1] * t.num_coords
    assert t.distances.tolist() == [rows.get(a, dead)
                                    for a in range(t.num_coords)]
    for a in range(t.num_coords):
        if a in t.failed_nodes:
            with pytest.raises(TopologyError):
                t.distance(a, live[0])
            continue
        assert [t.distance(a, b) for b in live] == [
            None if rows[a][b] < 0 else rows[a][b] for b in live]
    cut = [(a, b) for a in live for b in live if rows[a][b] < 0]
    assert t.is_connected() == (not cut)
    if cut:
        a, b = cut[0]
        with pytest.raises(DisconnectedError) as err:
            sum_pair_distances(t)
        assert str(err.value) == (f"nodes {t.coord_str(a)} and "
                                  f"{t.coord_str(b)} are disconnected")
    else:
        assert sum_pair_distances(t) == sum(
            rows[a][b] for a in live for b in live)


@given(faulted_tori())
@settings(max_examples=80, deadline=None)
def test_distance_queries_match_bfs(t):
    check_distance_queries(t)


def test_distance_queries_on_disconnected_systems():
    """A node cut off by link faults, a ring cut in two, a failed node
    splitting a mesh."""
    for t in (make_torus([2, 2], failed_links=[((0, 0), 0), ((0, 0), 1)]),
              make_torus([4], failed_links=[((0,), 0), ((2,), 0)]),
              make_torus([2, 3], failed_links=[((0, 0), 0), ((0, 1), 0),
                                               ((0, 2), 0)]),
              make_torus([2, 2], failed_nodes=[(0, 1), (1, 0)])):
        assert not t.is_connected()
        check_distance_queries(t)


@given(faulted_tori(), st.data())
@settings(max_examples=60, deadline=None)
def test_name_tables_and_distance_rows(t, data):
    """Name tables invert, distance rows agree with ``distance`` and
    ``most_remote`` with a scan over ``distance``."""
    for u in range(t.num_coords):
        name = t.coord_str(u)
        assert name == "(" + ",".join(str(c) for c in t.coords(u)) + ")"
        assert t.node_of_name[name] == t.node_id(t.coords(u)) == u
    for bad in (-1, t.num_coords):
        with pytest.raises(TopologyError):
            t.coord_str(bad)
    for d in range(t.ndirs):
        name = t.dir_name(d)
        assert t.dir_of_name[name] == parse_direction(name, t.n) == d

    def dist(a, b):
        d = t.distance(a, b)
        return -1 if d is None else d

    for a in t.live_nodes:
        row = t.distances[a].tolist()
        assert [row[b] for b in t.live_nodes] == [
            dist(a, b) for b in t.live_nodes]
        assert row == bfs_row(t, a)
    src = data.draw(st.sampled_from(t.live_nodes))
    candidates = data.draw(st.sets(st.sampled_from(t.live_nodes),
                                   min_size=1))
    far = max(dist(src, v) for v in candidates)
    assert most_remote(t, candidates, src) == min(
        v for v in candidates if dist(src, v) == far)
    ref = bfs_row(t, src)
    assert most_remote(t, candidates, src) == min(
        v for v in candidates if ref[v] == max(ref[u] for u in candidates))


def test_channel_count_formula():
    for dims in ([3], [4], [2], [3, 3], [4, 2], [2, 2], [4, 2, 2, 2], [3, 2, 4]):
        t = make_torus(dims)
        n_nodes = len(t.live_nodes)
        expect = sum((2 * n_nodes if d >= 3 else n_nodes) for d in t.dims)
        # direct enumeration of live links
        count = int((t.neighbor_table >= 0).sum())
        assert t.n_channels == expect == count


def test_distance_sum_closed_form_matches_enumeration():
    """The pair sum against ``distance`` and against ``bfs_row``."""
    for dims in ([4], [2, 2], [4, 2], [3, 3]):
        t = make_torus(dims)
        brute = sum(t.distance(a, b) for a in t.live_nodes
                    for b in t.live_nodes if a != b)
        assert sum_pair_distances(t) == brute
        assert brute == sum(sum(bfs_row(t, a)) for a in t.live_nodes)


def test_topology_file_round_trip(tmp_path):
    t = make_torus([3, 2], failed_nodes=[(1, 1)], failed_links=[((0, 0), 0)])
    text = topology_to_text(t)
    back = parse_topology(text)
    assert back.dims == t.dims
    assert back.failed_nodes == t.failed_nodes
    assert back.failed_links == t.failed_links
    path = tmp_path / "grid.topo"
    path.write_text(text, encoding="utf-8")
    assert load_topology(path).dims == (3, 2)


def test_parse_topology_accepts_unicode_minus():
    t = parse_topology("dims: 3 3\nfail-link: 0 0 −X\n")
    assert (t.node_id((0, 0)), 2) in t.failed_links


def test_parse_topology_errors():
    with pytest.raises(ParseError):
        parse_topology("")
    with pytest.raises(ParseError):
        parse_topology("dims: 3 zebra")
    with pytest.raises(ParseError):
        parse_topology("dims: 3\nfail-link: 0 +Q")
    with pytest.raises(ParseError):
        parse_topology("fail-node: 0\ndims: 3")
