import pytest

from torusroute import (Route, RoutingTable, build_rt_bfs, decode_rg_path,
                        make_route, make_torus, parse_table, table_to_text,
                        validate_route)
from torusroute.errors import ParseError, TopologyError
from torusroute.routes import check_table, legal_encodings, route_to_rg_path

from conftest import prepared


def test_decode_single_body_step(grid33):
    t, rg, g, added = grid33
    u, v = t.node_id((0, 0)), t.node_id((1, 0))
    path = [rg.begin_vid(u), rg.dirbit_vid(v, 2 + 3), rg.end_vid(v)]
    # dirbit code for the lone +X sign vector is 2 + 3*1 on a 2-D torus
    r = decode_rg_path(rg, path)
    assert (r.fs, r.body, r.ls) == (None, (0,), None)
    assert r.node_seq == (u, v)


def test_decode_augmented_fs_route():
    t = make_torus([3, 3])
    from torusroute import apply_augmentation, build_routing_graph
    u, v, w = t.node_id((0, 0)), t.node_id((0, 1)), t.node_id((1, 1))
    rg = apply_augmentation(build_routing_graph(t), [((u, 1), (v, 0))])
    path = [rg.begin_vid(u), rg.fs_vid(v, 1),
            rg.dirbit_vid(w, 2 + 3), rg.end_vid(w)]
    r = decode_rg_path(rg, path)
    assert (r.fs, r.body, r.ls) == (1, (0,), None)
    assert validate_route(t, r, rg.added) == []
    assert validate_route(t, r) != []  # without the relaxed turn: violation


def test_decode_rejects_malformed(grid33):
    t, rg, g, added = grid33
    u = t.node_id((0, 0))
    with pytest.raises(ValueError):
        decode_rg_path(rg, [rg.begin_vid(u)])
    with pytest.raises(ValueError):
        # LS directly after begin
        v = t.node_id((0, 2))
        decode_rg_path(rg, [rg.begin_vid(u), rg.ls_vid(v, 3), rg.end_vid(v)])


def test_validate_route_examples(grid33):
    t, rg, g, added = grid33
    ok = make_route(t, t.node_id((0, 0)), None, [0, 1], None)
    assert validate_route(t, ok) == []

    swapped = make_route(t, t.node_id((0, 0)), None, [1, 0], None)
    msgs = validate_route(t, swapped)
    assert any("direction order" in m for m in msgs)

    uturn = make_route(t, t.node_id((0, 0)), None, [0, 2], None)
    msgs = validate_route(t, uturn)
    assert any("opposite sign" in m for m in msgs)


def test_validate_route_liveness():
    t = make_torus([3, 3], failed_links=[((0, 0), 0)])
    clean = make_torus([3, 3])
    r = make_route(clean, clean.node_id((0, 0)), None, [0], None)
    msgs = validate_route(t, r)
    assert any("dead link" in m for m in msgs)
    r = make_route(clean, clean.node_id((2, 0)), None, [0, 0], None)
    assert validate_route(t, r) == ["step 2 (+X from (0,0)) uses a dead link"]
    with pytest.raises(ValueError, match=r"^step \+X from \(0,0\) is dead$"):
        make_route(t, t.node_id((2, 0)), None, [0, 0], None)
    with pytest.raises(ValueError, match=r"^step \+X from \(0,0\) is dead$"):
        legal_encodings(t, t.node_id((2, 0)), (0, 0))
    failed = make_torus([3, 3], failed_nodes=[(0, 0)])
    with pytest.raises(TopologyError, match="node 0 does not exist"):
        make_route(failed, 0, None, [0], None)


def test_validate_route_shapes(grid33):
    t, rg, g, added = grid33
    u = t.node_id((0, 0))
    fs_only = make_route(t, u, 0, [], None)
    assert validate_route(t, fs_only) == []
    empty = Route(u, u, None, (), None, (u,))
    assert validate_route(t, empty) != []
    ls_no_body = make_route(t, u, 0, [], 3)
    assert any("nonempty body" in m for m in validate_route(t, ls_no_body))


def test_route_rg_path_round_trip(desmos):
    t, rg, g, added = desmos
    table = build_rt_bfs(rg)
    for key in sorted(table.routes)[::37]:
        r = table.routes[key]
        assert decode_rg_path(rg, route_to_rg_path(rg, r)) == r


def test_table_file_round_trip(grid33, tmp_path):
    t, rg, g, added = grid33
    table = build_rt_bfs(rg)
    text = table_to_text(table)
    back = parse_table(text, t)
    assert back.routes == table.routes
    assert table_to_text(back) == text


def test_table_line_format(mesh22):
    t, rg, g, added = mesh22
    u, v, w = t.node_id((0, 0)), t.node_id((0, 1)), t.node_id((1, 1))
    r = make_route(t, u, 1, [0], None)
    table = RoutingTable(t, {(u, w): r})
    assert table_to_text(table) == (
        "(0,0) -> (1,1) : FS+Y +X | nodes: (0,0) (0,1) (1,1)\n")


def test_golden_table_files():
    """Generated tables are byte-stable against committed goldens."""
    import pathlib
    from torusroute import build_rt_sssp
    data = pathlib.Path(__file__).parent / "data"
    t, rg, g, added = prepared([3, 3])
    assert table_to_text(build_rt_bfs(rg)) == (
        (data / "grid33_bfs.table").read_text(encoding="utf-8"))
    t2, rg2, g2, a2 = prepared([2, 2])
    assert table_to_text(build_rt_sssp(rg2)) == (
        (data / "mesh22_sssp.table").read_text(encoding="utf-8"))


def test_parse_table_errors(grid33):
    t, rg, g, added = grid33
    with pytest.raises(ParseError):
        parse_table("(0,0) -> zebra : +X | nodes: (0,0)\n", t)
    with pytest.raises(ParseError):
        parse_table("(0,0) -> (1,0) : +Q | nodes: (0,0) (1,0)\n", t)


def test_check_table_classes(grid33):
    t, rg, g, added = grid33
    table = build_rt_bfs(rg)
    report = check_table(t, table, added)
    assert report == {"completeness": [], "minimality": [], "validity": []}

    broken = dict(table.routes)
    key = sorted(broken)[0]
    del broken[key]
    report = check_table(t, RoutingTable(t, broken), added)
    assert len(report["completeness"]) == 1

    detour = dict(table.routes)
    u, v = t.node_id((0, 0)), t.node_id((0, 2))
    detour[(u, v)] = make_route(t, u, None, [1, 1], None)  # 2 hops, minimal 1
    report = check_table(t, RoutingTable(t, detour), added)
    assert report["minimality"]
