import hashlib

import numpy as np
import pytest
from hypothesis import given, settings

from torusroute import (apply_augmentation, build_routing_graph, make_torus,
                        validate_route)
from torusroute.algorithms import _bfs_count, _hop_levels
from torusroute.cli import prepare
from torusroute.routing_graph import DUMMY_LINK, vec_last_direction

from conftest import small_faulted_systems
from witnesses import (VKind, _rg_chains, decode_rg_path,
                       rg_reachable_pairs, vertex_info)


def vertex_count(n):
    return 3 ** n + 2 * n + 1


def edge_bound(n):
    return 2 * n * 3 ** n + 1.5 * n * n + 1.5 * n + 1


def per_node_out_edges(rg, node):
    lo = rg.indptr[node * rg.block]
    hi = rg.indptr[(node + 1) * rg.block]
    return int(hi - lo)


@pytest.mark.parametrize("dims", [[5], [3, 3], [4, 3], [3, 3, 3], [3, 3, 3, 3]])
def test_vertex_block_formula(dims):
    t = make_torus(dims)
    rg = build_routing_graph(t)
    assert rg.block == vertex_count(t.n)
    assert rg.n_vertices == len(t.live_nodes) * rg.block


@pytest.mark.parametrize("dims", [[5], [3, 3], [3, 4, 3], [3, 3, 3, 3]])
def test_edge_count_within_paper_bound(dims):
    t = make_torus(dims)
    rg = build_routing_graph(t)
    for node in t.live_nodes:
        assert per_node_out_edges(rg, node) <= edge_bound(t.n)


@pytest.mark.parametrize("dims", [[5], [3, 3], [3, 4, 3], [3, 3, 3, 3]])
def test_begin_fs_ls_family_counts_exact(dims):
    """On a full torus the begin/FS/LS families hit their closed forms."""
    t = make_torus(dims)
    n = t.n
    rg = build_routing_graph(t)
    infos = [vertex_info(rg, v) for v in range(rg.block)]
    for node in t.live_nodes[:4]:
        begin = fs = ls_end = 0
        for off, info in enumerate(infos):
            vid = node * rg.block + off
            deg = int(rg.indptr[vid + 1] - rg.indptr[vid])
            if info.kind is VKind.BEGIN:
                begin += deg
            elif info.kind is VKind.FS:
                fs += deg
            elif info.kind is VKind.LS:
                ls_end += deg
        assert begin == 3 * n + 1
        assert fs == (3 * n * n - n) // 2  # first-step family, ejects included
        assert ls_end == n


def test_ring_per_node_edges_meet_bound_exactly():
    t = make_torus([5])
    rg = build_routing_graph(t)
    assert per_node_out_edges(rg, 0) == 10 == edge_bound(1)


def test_reachable_pairs_full_torus(grid33):
    t, rg, g, added = grid33
    assert len(rg_reachable_pairs(rg)) == 72


def test_reachable_pairs_two_node_mesh():
    t = make_torus([2])
    rg = build_routing_graph(t)
    assert rg_reachable_pairs(rg) == {(0, 1), (1, 0)}


def test_reachable_after_double_link_failure():
    # both halves of the cable 0<->1 on a 4-ring: 0->1 survives via -X -X -X
    t = make_torus([4], failed_links=[((0,), 0)])
    rg = build_routing_graph(t)
    assert (0, 1) in rg_reachable_pairs(rg)
    dist = _hop_levels(rg, [0])[0]
    chains, truncated = _rg_chains(rg, dist, rg.end_vid(1), budget=100)
    routes = {tuple(t.channels[link][1] for link in c) for c in chains}
    assert routes == {(1, 1, 1)} and not truncated  # -X -X -X


def _tree_path(rg, parent, src, dst):
    """(begin->end vertex path, link ids) of one parent-tree path."""
    verts, links = [rg.end_vid(dst)], []
    while verts[-1] != rg.begin_vid(src):
        e = int(parent[verts[-1]])
        if rg.edge_link[e] != DUMMY_LINK:
            links.append(int(rg.edge_link[e]))
        verts.append(int(rg.edge_tail[e]))
    return verts[::-1], links[::-1]


def test_path_decode_samples_are_rule_valid(desmos):
    t, rg, g, added = desmos
    parent = _bfs_count(rg, [0])[2][0]
    for dst in t.live_nodes[1:]:
        r = decode_rg_path(rg, _tree_path(rg, parent, 0, dst)[0])
        assert validate_route(t, r, added) == []


def _assert_tree_paths_decode_to_their_links(t, rg, src):
    """Theorem 1 as the link-chain encoding uses it: on every parent-tree
    path, the decoded steps are the directions of the links on the path's
    edges, and those links are the channels the steps walk from ``src``."""
    parent = _bfs_count(rg, [src])[2][0]
    for dst in t.live_nodes:
        if dst != src and parent[rg.end_vid(dst)] >= 0:
            verts, links = _tree_path(rg, parent, src, dst)
            steps = decode_rg_path(rg, verts).steps
            assert steps == tuple(t.channels[link][1] for link in links)
            assert t.walk(src, steps)[1] == links


def test_tree_paths_decode_to_their_links(desmos):
    t, rg, g, added = desmos
    for src in t.live_nodes:
        _assert_tree_paths_decode_to_their_links(t, rg, src)


@given(small_faulted_systems())
@settings(max_examples=40, deadline=None)
def test_faulted_tree_paths_decode_to_their_links(system):
    dims, nodes, links, src, _ = system
    t = make_torus(dims, nodes, links)
    _assert_tree_paths_decode_to_their_links(t, prepare(t)[0], src)


def test_pruning_monotonicity():
    base = make_torus([3, 3])
    faulty = make_torus([3, 3], failed_links=[((0, 0), 0)])
    edges = lambda rg: {  # noqa: E731
        (int(a), int(b)) for a, b in
        zip(rg.edge_tail, rg.edge_head)}
    assert edges(build_routing_graph(faulty)) <= edges(build_routing_graph(base))


def test_apply_augmentation_empty_is_noop(grid33):
    t, rg, g, added = grid33
    rg2 = apply_augmentation(build_routing_graph(t), [])
    assert rg2.n_edges == build_routing_graph(t).n_edges


def test_apply_augmentation_adds_fs_edge():
    t = make_torus([3, 3])
    rg = build_routing_graph(t)
    u = t.node_id((1, 0))
    v = t.node_id((1, 1))
    w = t.node_id((2, 1))
    rg2 = apply_augmentation(rg, [((u, 1), (v, 0))])  # (1,0)+Y -> (1,1)+X
    assert rg2.n_edges == rg.n_edges + 1
    tail = rg2.fs_vid(v, 1)
    new = [e for e in range(rg2.indptr[tail], rg2.indptr[tail + 1])
           if rg2.edge_aug[e]]
    assert len(new) == 1
    info = vertex_info(rg2, int(rg2.edge_head[new[0]]))
    assert info.node == w and info.kind is VKind.DIRBIT
    assert vec_last_direction(info.vec, t.n) == 0


def test_apply_augmentation_adds_ls_edges():
    """A last-step turn leaves every DIRBIT vertex whose last direction is
    the turn's first one: on 3x3, the three sign vectors with -Y set."""
    t = make_torus([3, 3])
    rg = build_routing_graph(t)
    minus_x, minus_y = 2, 3
    u = t.node_id((1, 2))
    v = t.node_id((1, 1))
    w = t.node_id((0, 1))
    rg2 = apply_augmentation(rg, [((u, minus_y), (v, minus_x))])
    assert rg2.n_edges == rg.n_edges + 3
    new = np.flatnonzero(rg2.edge_aug)
    assert len(new) == 3
    tails = [vertex_info(rg2, int(rg2.edge_tail[e])) for e in new]
    assert all(i.node == v and i.kind is VKind.DIRBIT for i in tails)
    assert sorted(i.vec for i in tails) == [(-1, -1), (0, -1), (1, -1)]
    assert all(rg2.edge_head[new] == rg2.ls_vid(w, minus_x))
    assert all(rg2.edge_link[new] == t.channel_id[(v, minus_x)])


def test_apply_augmentation_rejects_bad_shapes(grid33):
    t, rg0, g, added = grid33
    rg = build_routing_graph(t)
    u = t.node_id((0, 0))
    with pytest.raises(ValueError, match=r"^augmentation edge "
                       r"\[\(\(0,0\),\+X\),\(\(1,0\),\+Y\)\] does not "
                       r"violate the direction order$"):
        # ascending pair is not an order violation
        apply_augmentation(rg, [((u, 0), (t.node_id((1, 0)), 1))])
    with pytest.raises(ValueError, match=r"^augmentation edge "
                       r"\[\(\(0,0\),-X\),\(\(2,0\),\+Y\)\] matches neither "
                       r"a first-step nor a last-step shape$"):
        # -X then +Y: neither first-step nor last-step expressible
        apply_augmentation(rg, [((u, 2), (t.node_id((2, 0)), 1))])
    with pytest.raises(ValueError, match=r"^augmentation edge "
                       r"\[\(\(0,0\),\+Y\),\(\(0,0\),\+X\)\] endpoints are "
                       r"not linked by its direction$"):
        apply_augmentation(rg, [((u, 1), (u, 0))])
    cut = make_torus([3, 3], failed_links=[((1, 1), 0)])
    with pytest.raises(ValueError, match=r"^augmentation edge "
                       r"\[\(\(1,0\),\+Y\),\(\(1,1\),\+X\)\] head channel "
                       r"is dead$"):
        apply_augmentation(build_routing_graph(cut), [
            ((cut.node_id((1, 0)), 1), (cut.node_id((1, 1)), 0))])


def test_end_edges_carry_no_link(grid33):
    t, rg, g, added = grid33
    for e in range(rg.n_edges):
        head = vertex_info(rg, int(rg.edge_head[e]))
        if head.kind is VKind.END:
            assert rg.edge_link[e] == DUMMY_LINK
        else:
            assert rg.edge_link[e] != DUMMY_LINK


def _assert_one_link_per_head(rg):
    """Every in-edge of a vertex crosses the vertex's ``in_link``, and a
    vertex that no edge enters reads DUMMY_LINK."""
    assert (rg.edge_link == rg.in_link[rg.edge_head]).all()
    entered = np.zeros(rg.n_vertices, dtype=bool)
    entered[rg.edge_head] = True
    assert (rg.in_link[~entered] == DUMMY_LINK).all()


@pytest.mark.parametrize("dims", [[4, 2, 2, 2], [6, 2, 2], [4, 4, 2]])
def test_mesh_bases_have_one_link_per_head(dims):
    t = make_torus(dims)
    _assert_one_link_per_head(build_routing_graph(t))
    _assert_one_link_per_head(prepare(t)[0])


@given(small_faulted_systems())
@settings(max_examples=60, deadline=None)
def test_faulted_systems_have_one_link_per_head(system):
    dims, nodes, links, _, _ = system
    t = make_torus(dims, nodes, links)
    _assert_one_link_per_head(build_routing_graph(t))
    _assert_one_link_per_head(prepare(t)[0])


# SHA-256 of the bytes of edge_tail, edge_head, edge_link, edge_aug and
# indptr, of the baseline graph and of the graph cli.prepare wires the
# relaxed turns into: every generator breaks ties on edge ids, so the edge
# order is pinned, not only the edge set. Key: (dims, failed nodes, failed
# links); value: (added turns, baseline digest, augmented digest or None
# where no turn is added).
EDGE_ORDER_DIGESTS = {
    ((5,), (), ()): (0,
        ("dbd084d8edf6ebf852046337660c380d"
         "4bbd472ef943b48579f8831cbf552a25"),
        None),
    ((2, 2), (), ()): (2,
        ("464dada32a2fe71e2e658ceea978c912"
         "3523c0c24e54a599b6ba030d4afb9ed1"),
        ("e180d560bdd8e95b27561df55dc8111f"
         "c5d01a1c0b391c5cbfcc4115334d84b5")),
    ((3, 3), (), (((0, 0), 0),)): (0,
        ("bb5c3a9e0e485dfe78c564868686e195"
         "638d10e9234e6c574e80cea2bf3ee327"),
        None),
    ((4, 4, 2), ((0, 0, 1),), ()): (58,
        ("864f5582d5b9bf0855c03d7659969d07"
         "cfbbfdb607cfdb69a3f0e0ae096be391"),
        ("acf7c4c74ae9582a7a5bf28967ab3faa"
         "6924334aba42ceba531a88834ddcb50f")),
    ((3, 3, 3, 3), (), ()): (0,
        ("e38877420e83999de41b1a3abed41b07"
         "be9c408630b923bf31a2327b4ee7d2f7"),
        None),
    ((4, 2, 2, 2), (), ()): (144,
        ("95d51fedfcebc4517f585e8f87d130c4"
         "c75af0b63efdd890af57b3559f722650"),
        ("2b47e25db4a094883d278fc4dbb67fb0"
         "96cf9ba77248bc82662b4804101fd1cf")),
    ((2, 5, 3), (18,), ()): (1,
        ("23480f0e6b1cdc8526c46542107c4950"
         "bf4f1e3d239e347da81eb05c713b7966"),
        ("f93443520b42332715ba32e85b72312d"
         "dc0c96bba962d42fdb309a063bd56e9c")),
}


def _edge_order_digest(rg):
    arrays = (rg.edge_tail, rg.edge_head, rg.edge_link, rg.edge_aug,
              rg.indptr)
    assert [a.dtype.str for a in arrays] == ["<i4", "<i4", "<i4", "|b1",
                                             "<i8"]
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("key", EDGE_ORDER_DIGESTS, ids=repr)
def test_edge_order_pinned(key):
    dims, nodes, links = key
    n_added, base, augmented = EDGE_ORDER_DIGESTS[key]
    t = make_torus(dims, nodes, links)
    assert _edge_order_digest(build_routing_graph(t)) == base
    rg, g, added = prepare(t)
    assert len(added) == n_added
    assert _edge_order_digest(rg) == (augmented or base)
    # the baseline graph with the added turns wired in is prepare's graph,
    # and wiring the same turns in again changes nothing
    once = apply_augmentation(build_routing_graph(t), added)
    twice = apply_augmentation(once, added)
    assert once.relaxed == twice.relaxed == frozenset(added)
    assert _edge_order_digest(once) == _edge_order_digest(twice) == (
        augmented or base)
