import pytest

from torusroute import (build_routing_graph, make_torus, rg_reachable_pairs,
                        apply_augmentation, decode_rg_path, validate_route)
from torusroute.algorithms import _bfs_count, _enumerate_rg_paths
from torusroute.routing_graph import DUMMY_LINK, VKind, vec_last_direction


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
    infos = [rg.vertex_info(v) for v in range(rg.block)]
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
    dist, _, _ = _bfs_count(rg, 0)
    paths, _ = _enumerate_rg_paths(rg, dist, rg.begin_vid(0), rg.end_vid(1),
                                   budget=100)
    routes = {decode_rg_path(rg, p).steps for p in paths}
    assert routes == {(1, 1, 1)}  # -X -X -X


def test_path_decode_samples_are_rule_valid(desmos):
    t, rg, g, added = desmos
    dist, _, parent = _bfs_count(rg, 0)
    for dst in t.live_nodes[1:]:
        verts = [rg.end_vid(dst)]
        while verts[-1] != rg.begin_vid(0):
            e = int(parent[verts[-1]])
            verts.append(int(rg.edge_tail[e]))
        r = decode_rg_path(rg, verts[::-1])
        assert validate_route(t, r, added) == []


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
    new = [e for e in rg2.out_edges(tail) if rg2.edge_aug[e]]
    assert len(new) == 1
    info = rg2.vertex_info(int(rg2.edge_head[new[0]]))
    assert info.node == w and info.kind is VKind.DIRBIT
    assert vec_last_direction(info.vec, t.n) == 0


def test_apply_augmentation_rejects_bad_shapes(grid33):
    t, rg0, g, added = grid33
    rg = build_routing_graph(t)
    u = t.node_id((0, 0))
    with pytest.raises(ValueError):
        # ascending pair is not an order violation
        apply_augmentation(rg, [((u, 0), (t.node_id((1, 0)), 1))])
    with pytest.raises(ValueError):
        # -X then +Y: neither first-step nor last-step expressible
        apply_augmentation(rg, [((u, 2), (t.node_id((2, 0)), 1))])


def test_end_edges_carry_no_link(grid33):
    t, rg, g, added = grid33
    for e in range(rg.n_edges):
        head = rg.vertex_info(int(rg.edge_head[e]))
        if head.kind is VKind.END:
            assert rg.edge_link[e] == DUMMY_LINK
        else:
            assert rg.edge_link[e] != DUMMY_LINK
