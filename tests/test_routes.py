import functools
import hashlib
import pathlib

import pytest

from torusroute import (GeneticParams, Route, RoutingTable, build_rt_bfs,
                        build_rt_genetic, build_rt_sssp, decode_rg_path,
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


def test_validate_route_rule_messages(grid33):
    """One route per rule, each with the exact list of its violations."""
    t = grid33[0]
    u = t.node_id((0, 0))
    cases = [
        ((2, [3], None), ["first step must be a positive direction"]),
        ((None, [0], 1), ["last step must be a negative direction"]),
        ((None, [0, 2], None),
         ["body step 2 (-X) reuses dimension 1 with the opposite sign"]),
        ((None, [1, 0], None),
         ["body step 2 (+X) violates the direction order"]),
        ((1, [0], None),
         ["first-step turn +Y->+X is not a registered relaxed turn"]),
        ((None, [3], 2),
         ["last-step turn -Y->-X is not a registered relaxed turn"]),
    ]
    for (fs, body, ls), want in cases:
        assert validate_route(t, make_route(t, u, fs, body, ls)) == want
    # every rule at once keeps this order
    assert validate_route(t, make_route(t, u, 3, [2, 0], 0)) == [
        "first step must be a positive direction",
        "last step must be a negative direction",
        "body step 2 (+X) reuses dimension 1 with the opposite sign",
        "body step 2 (+X) violates the direction order",
        "first-step turn -Y->-X is not a registered relaxed turn",
        "last-step turn +X->+X is not a registered relaxed turn",
    ]
    v, w = t.node_id((0, 1)), t.node_id((0, 2))
    fs_turn = make_route(t, u, 1, [0], None)
    assert validate_route(t, fs_turn, [((u, 1), (v, 0))]) == []
    ls_turn = make_route(t, u, None, [3], 2)
    assert validate_route(t, ls_turn, [((u, 3), (w, 2))]) == []


def test_legal_encodings_exact_lists(grid33):
    t = grid33[0]
    u, v = t.node_id((0, 0)), t.node_id((0, 1))
    a, b = t.node_id((1, 0)), t.node_id((1, 2))
    cases = [
        ((0,), (), [(None, (0,), None), (0, (), None)]),
        ((0, 1), (), [(None, (0, 1), None), (0, (1,), None)]),
        ((1, 0), (), []),
        ((1, 0), [((u, 1), (v, 0))], [(1, (0,), None)]),
        ((0, 3, 2), (), []),
        ((0, 3, 2), [((a, 3), (b, 2))], [(None, (0, 3), 2), (0, (3,), 2)]),
        ((2, 0), (), []),
    ]
    for steps, relaxed, want in cases:
        assert legal_encodings(t, u, steps, frozenset(relaxed))[1] == want


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


# fault sets as hashable (keyword, value) pairs for ``prepared``
FAULTED_44 = (("failed_links", (((0, 0), 0),)),)  # the (0,0)+X link
NODE_442 = (("failed_nodes", ((0, 0, 1),)),)  # node (0,0,1) of 4x4x2


@functools.lru_cache(maxsize=None)
def _table(algo, dims, faults=()):
    t, rg, g, added = prepared(dims, **dict(faults))
    if algo == "genetic":
        return build_rt_genetic(rg, params=GeneticParams(max_generations=3))
    if algo == "sssp-stage2":  # every pair through the shortest-path trees
        return build_rt_sssp(rg, skip_unique_stage=True)
    return {"bfs": build_rt_bfs, "sssp": build_rt_sssp}[algo](rg)


def test_golden_table_files():
    """Generated tables are byte-stable against committed goldens."""
    data = pathlib.Path(__file__).parent / "data"
    assert table_to_text(_table("bfs", (3, 3))) == (
        (data / "grid33_bfs.table").read_text(encoding="utf-8"))
    assert table_to_text(_table("sssp", (2, 2))) == (
        (data / "mesh22_sssp.table").read_text(encoding="utf-8"))
    # SHA-256 of table_to_text on inputs whose load tie-breaks matter
    digests = {
        ("bfs", (4, 4)): (
            "e5281431e4fba46dbd1fd76cb5787686"
            "c45bdc271aeb72e1184828260698fef8"),
        ("sssp", (4, 4)): (
            "9763ec9798abcd85f2cb87e7a8690208"
            "da9869a5d2b7af0878d3041748f0b72b"),
        ("bfs", (4, 2, 2, 2)): (
            "0757b3866911281fa0d5b23742d950e0"
            "da1fe910b7edde336300c5c44a578d57"),
        ("sssp", (4, 2, 2, 2)): (
            "9e506bbdca04a66f5135e64fb557a8cb"
            "26ba72b4165af9fe838a1f8530159d70"),
        ("genetic", (4, 2, 2, 2)): (
            "2991a8a9c0156d45afb06a00645052a9"
            "9ef4535463d6f9f22abc70566cfc1093"),
        ("bfs", (4, 4), FAULTED_44): (
            "b77dfd64c51010d715ff4b4a44833edd"
            "f8190c262ee280cc18bcf7a6d39fc18a"),
        ("sssp", (4, 4), FAULTED_44): (
            "53b267ae0e00b3db2e5ef1916f576836"
            "176884fbb9239272b9106629d8719042"),
        ("sssp", (5, 4, 3)): (
            "5f4b725606dfddcb37ff6c14996b6db3"
            "6f76bca1d5f9cc0ff988d41b7fa858f5"),
        ("sssp-stage2", (4, 2, 2, 2)): (
            "a11d433ab861883699dca8bf9c6150de"
            "c6b3bed94e2b6d66cdf1b8d457fdfa9b"),
        ("sssp-stage2", (4, 4), FAULTED_44): (
            "6d4bdd730bf3a99e04e5f6a425328c32"
            "e13a7da98640fad690df18ce0c17f790"),
        ("sssp", (4, 4, 2), NODE_442): (
            "1b2b89b2315b949b0e18263aef7d1700"
            "017f8f82bb2a24283afd28dac46f24e9"),
        ("sssp-stage2", (4, 4, 2), NODE_442): (
            "df6c6d97999436f16159047f26b6dcd7"
            "d662331efd0b042b0febb8e5a22c71e9"),
    }
    for key, want in digests.items():
        text = table_to_text(_table(*key))
        assert hashlib.sha256(text.encode()).hexdigest() == want, key


@pytest.mark.parametrize("dims,faulted", [((4, 2, 2, 2), False),
                                          ((4, 4), True)])
def test_table_routes_are_routing_graph_paths(dims, faulted):
    """Every emitted (fs, body, ls) split is a path of the routing graph.

    The graph is built from the rules independently of the rule function
    that picks the split, so it witnesses each encoding.
    """
    faults = FAULTED_44 if faulted else ()
    rg = prepared(dims, **dict(faults))[1]
    edges = set(zip(rg.edge_tail.tolist(), rg.edge_head.tolist()))
    for algo in ("bfs", "sssp", "genetic"):
        for r in _table(algo, dims, faults).routes.values():
            path = route_to_rg_path(rg, r)
            assert set(zip(path, path[1:])) <= edges, (algo, r)


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
