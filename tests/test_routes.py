import ast
import functools
import hashlib
import inspect
from dataclasses import fields
import math
import pathlib
import random
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import torusroute.algorithms
import torusroute.cdg
import torusroute.cli
import torusroute.routes
import torusroute.routing_graph
from torusroute import (GeneticParams, Route, build_rt_bfs, build_rt_genetic,
                        build_rt_sssp, channel_loads, make_torus, parse_table,
                        table_to_text, validate_route)
from torusroute.algorithms import _pair_stats
from torusroute.cli import _used_turns, prepare, used_turn_cycle_check
from torusroute.errors import (DisconnectedError, IntegrityError, ParseError,
                               TopologyError, UnroutablePairError)
from torusroute.routes import (_SPLITS, Columns, _violations, check_table,
                               encode_chains, route_channels)

from conftest import prepared, small_faulted_systems
from witnesses import (decode_rg_path, make_route, route_to_rg_path,
                       table_of)


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
    assert validate_route(t, r, rg.relaxed) == []
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


def encoder_splits(t, src, sequences, relaxed):
    """The legal (fs, body, ls) splits that ``encode_chains`` finds for each
    live step sequence from ``src``, in its order, all in one call."""
    chains = [t.walk(src, steps)[1] for steps in sequences]
    links = np.full((len(chains), max(map(len, chains))), -1)
    for row, chain in enumerate(chains):
        links[row, :len(chain)] = chain
    legal = encode_chains(t, np.full(len(chains), src), links, relaxed)[1]
    return [[(steps[0] if f else None, tuple(steps[f:len(steps) - l]),
              steps[-1] if l else None)
             for (f, l), ok in zip(_SPLITS.tolist(), row) if ok]
            for steps, row in zip(sequences, legal.tolist())]


def violation_free_splits(t, src, steps, relaxed):
    """The candidate splits, plain body first, then first step, last step
    and both, that ``_violations`` accepts one by one."""
    n, k = t.n, len(steps)
    seq = t.walk(src, steps)[0]
    candidates = [(None, steps, None)]
    if steps[0] < n:
        candidates.append((steps[0], steps[1:], None))
    if k >= 2 and steps[-1] >= n:
        candidates.append((None, steps[:-1], steps[-1]))
    if k >= 3 and steps[0] < n and steps[-1] >= n:
        candidates.append((steps[0], steps[1:-1], steps[-1]))
    return [c for c in candidates
            if next(_violations(t, seq, *c, relaxed), None) is None]


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
        assert encoder_splits(t, u, [steps], frozenset(relaxed)) == [want]
    # one call, rows of several lengths, against the same relaxed turns
    relaxed = frozenset([((u, 1), (v, 0)), ((a, 3), (b, 2))])
    sequences = [steps for steps, _, _ in cases]
    assert encoder_splits(t, u, sequences, relaxed) == [
        violation_free_splits(t, u, steps, relaxed) for steps in sequences]


@given(small_faulted_systems(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_encoder_splits_match_violations(system, with_relaxed):
    """On random live step sequences, and on the system's relaxed turns
    followed by random steps, the encoder's legal splits and their order are
    the candidate splits that ``_violations`` accepts."""
    dims, nodes, links, src, seed = system
    t, rg, g, added = prepared(dims, nodes, links)
    relaxed = frozenset(added) if with_relaxed else frozenset()
    rnd = random.Random(seed)

    def walk_on(u, steps, hops):
        u = t.walk(u, steps)[0][-1]
        for _ in range(hops):
            live = [d for d in range(t.ndirs) if t.neighbor_table[u, d] >= 0]
            if not live:
                break
            steps.append(rnd.choice(live))
            u = int(t.neighbor_table[u, steps[-1]])
        return tuple(steps)

    starts = [(src, [])] * 30 + [(a[0], [a[1], b[1]]) for a, b in added[:30]]
    by_src = {}
    for u, head in starts:
        steps = walk_on(u, list(head), rnd.randrange(6 - len(head)))
        if steps:
            by_src.setdefault(u, []).append(steps)
    for u, sequences in by_src.items():
        assert encoder_splits(t, u, sequences, relaxed) == [
            violation_free_splits(t, u, steps, relaxed)
            for steps in sequences], u


def reference_split_breaks(t, clean, src, steps, relaxed):
    """Per split of ``_SPLITS``, whether the shape check of
    ``validate_route`` or ``_violations`` rejects the route that walks
    ``steps`` from ``src``. Its node sequence is walked on ``clean``, ``t``
    without its faults; a relaxed turn counts only where ``t``'s walk crosses
    both of its channels, since no channel is known past a dead step."""
    seq = clean.walk(src, steps)[0]
    nodes, channels = t.walk(src, steps)
    crossed = set(zip(nodes, steps[:len(channels)]))
    live = {(a, b) for a, b in relaxed if a in crossed and b in crossed}
    out = []
    for f, l in _SPLITS.tolist():
        fs, ls = steps[0] if f else None, steps[-1] if l else None
        body = tuple(steps[f:len(steps) - l])
        out.append(not (body or (f and not l)) or next(
            _violations(clean, seq, fs, body, ls, live), None) is not None)
    return out


def kernel_split_breaks(t, rows, relaxed, width):
    """``_split_breaks`` on the (src, steps) rows, padded to ``width``, with
    the channel ids that ``RoutingTable._walk`` writes: -1 from the first
    dead step on. The kernel leaves both matrices as they were."""
    steps = np.full((len(rows), width), -1, dtype=np.int16)
    chan = np.full_like(steps, -1)
    for i, (src, s) in enumerate(rows):
        steps[i, :len(s)] = s
        walked = t.walk(src, s)[1]
        chan[i, :len(walked)] = walked
    given = steps.copy(), chan.copy()
    breaks = torusroute.routes._split_breaks(
        t, steps, chan, torusroute.routes._turn_ids(t, relaxed))
    assert (steps == given[0]).all() and (chan == given[1]).all()
    return breaks.tolist()


def test_split_kernel_edge_cases():
    """Every split's verdict of the one-pass rule kernel, row by row, against
    ``_violations`` on hand-built step matrices: a chunk of one-hop chains
    one column wide, a lone first step, two steps that could be both first
    and last step, rows padded wider than their length, registered relaxed
    turns at both ends, and channels of -1 past a dead link."""
    ring = make_torus([3])
    rows = [(u, (d,)) for u in ring.live_nodes for d in range(ring.ndirs)]
    assert kernel_split_breaks(ring, rows, (), 1) == [
        reference_split_breaks(ring, ring, u, s, ()) for u, s in rows]
    assert kernel_split_breaks(ring, rows[:2], (), 1) == [
        [False, False, True, True], [False, True, True, True]]

    clean = make_torus([5, 5])
    at = clean.node_id
    # +Y +X +X -Y -X from (0,0): both end turns break the direction order
    both = (1, 0, 0, 3, 2)
    relaxed = {((at((0, 0)), 1), (at((0, 1)), 0)),
               ((at((2, 1)), 3), (at((2, 0)), 2))}
    sequences = [(0,), (2,), (0, 3), (1, 2), (3, 0), (0, 2), (1, 0),
                 (0, 1, 0), (3, 1), (0, 3, 2), both, (0, 0, 1, 1)]
    for t, failed in ((clean, ()), (make_torus([5, 5], failed_links=[
            ((0, 0), 0)]), (at((0, 0)), 0))):
        rows = [(u, s) for u in (at((0, 0)), at((4, 0)), at((0, 4)))
                for s in sequences]
        turns = set(relaxed)
        if failed:
            # turns over the dead link, and for a row whose walk stops after
            # channel c the turn (c - 1, n_channels - 1): its id equals
            # c * n_channels + (-1), that of the turn from c onto the -1
            nch = t.n_channels
            turns |= {((at((0, 4)), 1), failed), (failed, (at((1, 0)), 1))}
            for u, s in rows:
                c = t.walk(u, s)[1]
                if 0 < len(c) < len(s):
                    turns.add((t.channels[c[-1] - 1], t.channels[nch - 1]))
        want = [reference_split_breaks(t, clean, u, s, turns)
                for u, s in rows]
        assert kernel_split_breaks(t, rows, turns, 7) == want
        assert want[sequences.index(both)] == [True, True, True, False]
    assert want[sequences.index((1, 0))] == [True, False, True, True]


def test_encoding_across_chunks_matches_row_by_row():
    """``_CHUNK + 1`` rows encode in one call exactly as each row alone."""
    t, rg, g, added = prepared([4, 2, 2, 2])
    _, cols, _, links = _pair_stats(rg)
    pick = np.random.default_rng(3).integers(0, len(links),
                                             torusroute.routes._CHUNK + 1)
    src, links = cols.src[pick], links[pick]
    whole, legal = encode_chains(t, src, links, rg.relaxed)
    rows = [encode_chains(t, src[i:i + 1], links[i:i + 1], rg.relaxed)
            for i in range(len(pick))]
    for f in fields(Columns):
        assert (getattr(whole, f.name) == np.concatenate(
            [getattr(r[0], f.name) for r in rows])).all(), f.name
    assert (legal == np.concatenate([r[1] for r in rows])).all()


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
    table = table_of(t, {(u, w): r})
    assert table_to_text(table) == (
        "(0,0) -> (1,1) : FS+Y +X | nodes: (0,0) (0,1) (1,1)\n")
    empty = Route(u, u, None, (), None, (u,))
    assert table_to_text(table_of(t, {(u, w): r, (u, u): empty})) == (
        "(0,0) -> (0,0) :  | nodes: (0,0)\n"
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


def assert_same_columns(got, want):
    """Two tables' columns agree in every field: values, dtype and width."""
    for f in fields(Columns):
        a, b = getattr(got.columns, f.name), getattr(want.columns, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape, f.name
        assert (a == b).all(), f.name


# SHA-256 of table_to_text on inputs whose load tie-breaks matter
GOLDEN_DIGESTS = {
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
        "53afe9864058c579aec5b3f28352968c"
        "d21022ffde9c21bbe4699ecd8d0ba356"),
    ("genetic", (6, 2, 2)): (
        "9972840c9fcbccabf295ee3d90e30ecc"
        "1ff0d9ecc7429134c39c150f24b0a4f6"),
    ("genetic", (4, 4, 2), NODE_442): (
        "65e6967caec84b5c88a4726bba4a59ee"
        "b020047878ea19b0c4e3bd19bb00b52c"),
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
    # a mesh axis beside two wrap axes, and no relaxed turn
    ("bfs", (2, 4, 4)): (
        "9919e9b1acd243eea7e107054d9e454f"
        "ae77dfd04a78d005993e6a209f2acb34"),
    ("sssp", (2, 4, 4)): (
        "24c974a478e08fb660e72d70f5e63d36"
        "d840dff90ee63f6a0dc529889f8fb50a"),
    # four dimensions, as Angara has
    ("sssp", (3, 3, 3, 3)): (
        "65f44ea7e55610829d2324413e378e17"
        "15348aefc4db36cdf08c09f0aa5ffd24"),
}

# stage 2's call count on the golden sssp tables
SSSP_CALLS = {
    ("sssp", (4, 4)): 73, ("sssp", (4, 2, 2, 2)): 406,
    ("sssp", (4, 4), FAULTED_44): 70, ("sssp", (5, 4, 3)): 474,
    ("sssp-stage2", (4, 2, 2, 2)): 489,
    ("sssp-stage2", (4, 4), FAULTED_44): 126,
    ("sssp", (4, 4, 2), NODE_442): 337,
    ("sssp-stage2", (4, 4, 2), NODE_442): 449,
    ("sssp", (2, 4, 4)): 282,
}


def test_golden_table_files():
    """Generated tables are byte-stable against committed goldens."""
    data = pathlib.Path(__file__).parent / "data"
    assert table_to_text(_table("bfs", (3, 3))) == (
        (data / "grid33_bfs.table").read_text(encoding="utf-8"))
    assert table_to_text(_table("sssp", (2, 2))) == (
        (data / "mesh22_sssp.table").read_text(encoding="utf-8"))
    for key, want in GOLDEN_DIGESTS.items():
        table = _table(*key)
        text = table_to_text(table)
        assert hashlib.sha256(text.encode()).hexdigest() == want, key
        assert table.stats.sssp_calls == SSSP_CALLS.get(key, 0), key
        parsed = parse_table(text, table.topology)
        assert parsed.routes == table.routes, key
        assert table_to_text(parsed) == text, key


@pytest.mark.parametrize("key", GOLDEN_DIGESTS, ids=repr)
def test_generated_tables_are_born_as_columns(key):
    """A generated table is its columns, equal field by field (values, dtype,
    pad width) to those parsed back from its text; its Routes are built only
    when asked for, and a table of those Routes writes the same text."""
    table = _table.__wrapped__(*key)  # a fresh table: no test asked it yet
    algo, dims, *faults = key
    t, rg, g, added = prepared(dims, **dict(*faults))
    text = table_to_text(table)
    check_table(t, table, added)
    channel_loads(table)
    assert table._routes is None
    assert_same_columns(table, parse_table(text, t))
    assert table_to_text(table_of(t, table.routes)) == text


def test_large_sssp_table_pinned():
    """The largest table the suite builds: the SHA-256 of the 6x6x6 sssp
    table and stage 2's call count, so that a change to the least-load
    choice shows on 9,590 calls."""
    table = _table("sssp", (6, 6, 6))
    assert table.stats.sssp_calls == 9590
    assert hashlib.sha256(table_to_text(table).encode()).hexdigest() == (
        "0f115aab977731fe36431d0ae3cd5b34"
        "285febdc890c2524bc69df0df37bfc51")


def test_full_genetic_run_pinned():
    """One default-parameter genetic search on 6x2x2, run until it
    stagnates (no generation cap): the SHA-256 of its table, its generation
    count and its final fitness, so that a change to the stagnation rule or
    a late reordering of the population shows."""
    table = build_rt_genetic(prepared((6, 2, 2))[1],
                             params=GeneticParams(seed=1))
    assert table.stats.generations == 117
    assert table.stats.fitness_history[-1] == 4.920761185175576
    assert hashlib.sha256(table_to_text(table).encode()).hexdigest() == (
        "0cf85ff241689aee4b16aeb1c0c750b1"
        "58ef62493b7f5ec05222c370dcf5f4b9")


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


def test_checkers_import_no_routing_graph():
    """The checkers stay independent of the code they check: ``routes``
    (``check_table``) and ``cdg`` (``assert_deadlock_free``) import nothing
    from the routing graph, the generators or the oracle, at any depth."""
    checked = {"routing_graph", "algorithms", "oracle"}
    for module in (torusroute.routes, torusroute.cdg):
        tree = ast.parse(pathlib.Path(module.__file__).read_text("utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [base] + [f"{base}.{a.name}" for a in node.names]
            else:
                continue
            for name in names:
                assert not checked & set(name.split(".")), (
                    module.__name__, node.lineno, name)


def test_library_has_no_catch_all_handler():
    """No handler in the package catches ``Exception``, ``BaseException``
    or everything: an error the code does not name is a defect, and it
    propagates."""
    broad = {"Exception", "BaseException"}
    package = pathlib.Path(torusroute.routes.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type
            names = ([] if caught is None else
                     caught.elts if isinstance(caught, ast.Tuple) else
                     [caught])
            assert caught is not None, (path.name, node.lineno, "except:")
            for name in names:
                assert getattr(name, "id", getattr(name, "attr", None)) \
                    not in broad, (path.name, node.lineno)


def _defined_or_called(path):
    """(line, name) of every function a module defines or calls."""
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.Call):
            yield node.lineno, getattr(node.func, "id",
                                       getattr(node.func, "attr", None))


PACKAGE = pathlib.Path(torusroute.routes.__file__).parent


def test_library_lists_shortest_paths_only_with_path_chains():
    """``algorithms._path_chains`` is the library's one shortest-path
    lister: no module of the package defines or calls the depth-first walk
    that ``witnesses`` keeps as its reference (``_rg_chains``,
    ``_variant_chains``), or the per-vertex in-edge tuples that walk
    reads (``in_edges``)."""
    banned = {"_rg_chains", "_variant_chains", "in_edges"}
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name in _defined_or_called(path):
            assert name not in banned, (path.name, line, name)


def test_library_keeps_no_test_only_helpers():
    """The per-route and per-node references live in ``witnesses``
    (``make_route``, ``most_remote``); the tests read the used sets from
    ``CDG.used_dirs`` and links from ``Topology.neighbor_table``. No module
    of the package defines or calls those helpers, ``used_set`` or the
    scalar neighbour rule ``_unfaulted_neighbor``, and ``Topology`` has no
    ``neighbor`` method."""
    banned = {"make_route", "most_remote", "used_set", "_unfaulted_neighbor"}
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name in _defined_or_called(path):
            assert name not in banned, (path.name, line, name)
    topology = ast.parse((PACKAGE / "topology.py").read_text("utf-8"))
    cls = next(node for node in topology.body
               if isinstance(node, ast.ClassDef) and node.name == "Topology")
    assert "neighbor" not in {node.name for node in cls.body
                              if isinstance(node, ast.FunctionDef)}


def test_library_objects_have_one_way_in():
    """A table is built from columns only, topology text is only read, hop
    distances are read from ``Topology.distances``, the deviation is σ₄ and
    each error builds its message from its data alone: no module of the
    package defines or calls ``topology_to_text``, ``distance_row`` or
    ``diameter``, and no signature takes a second way in."""
    banned = {"topology_to_text", "distance_row", "diameter"}
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name in _defined_or_called(path):
            assert name not in banned, (path.name, line, name)

    def params(f):
        return list(inspect.signature(f).parameters)

    assert params(torusroute.RoutingTable.__init__) == [
        "self", "topology", "columns", "stats"]
    assert "k" not in params(torusroute.deviation)
    for error in (torusroute.UnroutablePairError,
                  torusroute.DeadlockCycleError):
        assert "message" not in params(error.__init__)


def test_routing_graph_is_built_once(monkeypatch):
    """A routing graph depends on its topology and its relaxed turns alone,
    and reads one block template per dimension count:
    ``RoutingGraph.__init__`` takes exactly ``topology, relaxed``,
    ``prepare`` builds one graph, no module defines or calls
    ``_block_edges`` or ``_last_directions``, and a graph keeps no layout
    table of its own."""
    banned = {"_block_edges", "_last_directions"}
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name in _defined_or_called(path):
            assert name not in banned, (path.name, line, name)

    graph = torusroute.routing_graph.RoutingGraph
    assert list(inspect.signature(graph.__init__).parameters) == [
        "self", "topology", "relaxed"]
    built = []

    class Counted(graph):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(torusroute.routing_graph, "RoutingGraph", Counted)
    monkeypatch.setattr(torusroute.cli, "RoutingGraph", Counted,
                        raising=False)
    rg, g, added = prepare(make_torus([2, 2]))
    assert added and len(built) == 1 and rg.relaxed == frozenset(added)
    for name in ("codes", "_code_offset", "code_step", "single_codes",
                 "code_last", "dirbit_by_last"):
        assert not hasattr(rg, name), name


@pytest.mark.parametrize("dims,faults", [
    ([4, 4, 3], {}), ([4, 4, 3], {"failed_nodes": [5]})],
    ids=["fault-free", "failed-node"])
def test_bfs_picks_parents_on_one_path(dims, faults, monkeypatch):
    """``build_rt_bfs`` picks every source's parents on one path, whether
    the source shares an orbit or is its own: no module defines, calls or
    reads the second pick (``_lightest_parents`` with its full edge scan,
    ``wide_edges``), its twin read-back (``_shifted_bfs_chains``) or a
    per-source frame builder (``source_frames``), and ``_pick_parents``
    runs exactly once per live source, on a fault-free and a faulted
    system."""
    banned = {"_lightest_parents", "_shifted_bfs_chains", "source_frames",
              "wide_edges"}
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name in _defined_or_called(path):
            assert name not in banned, (path.name, line, name)
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Attribute):
                assert node.attr not in banned, (path.name, node.lineno)
    algorithms = torusroute.algorithms
    real, picked = algorithms._pick_parents, []

    def counted(*args):
        picked.append(args)
        return real(*args)

    monkeypatch.setattr(algorithms, "_pick_parents", counted)
    t, rg, g, added = prepared(dims, **faults)
    build_rt_bfs(rg)
    assert len(picked) == len(t.live_nodes)


def test_parse_table_lenient_forms():
    """Forms beyond the written one that the parser accepts, and a failed
    node's coordinates, which it leaves for ``check_table`` to report."""
    t = make_torus([3, 3], failed_nodes=[(2, 2)])
    text = ("# comment\n\n"
            "( 0,0) -> (1,0) : +X | nodes: (0,0) (1,0)\n"
            "(0,0) -> (+1,1) : +X +Y | nodes: (0,0) (+1,0) (1,1)\n"
            "(01,0) -> (0,0) : \u2212X | nodes: (01,0) (0,0)\n"
            "(0,1)  ->  (0,2)  :  +Y | nodes:  (0,1)  (0,2)\n"
            "(1,1) -> (0,0) : \u2212X  LS\u2212Y | nodes: (1,1) (0,1) (0,0)\n"
            "(0,0) -> (2,2) : +X | nodes: (0,0) (2,2)\n"
            "(1,0) -> (2,1) : +Y FS+X | nodes: (1,0) (2,0) (2,1)\n")
    assert parse_table(text, t).routes == {
        (0, 3): Route(0, 3, None, (0,), None, (0, 3)),
        (0, 4): Route(0, 4, None, (0, 1), None, (0, 3, 4)),
        (3, 0): Route(3, 0, None, (2,), None, (3, 0)),
        (1, 2): Route(1, 2, None, (1,), None, (1, 2)),
        (4, 0): Route(4, 0, None, (2,), 3, (4, 1, 0)),
        (0, 8): Route(0, 8, None, (0,), None, (0, 8)),
        (3, 7): Route(3, 7, 0, (1,), None, (3, 6, 7)),
    }
    assert_same_columns(parse_table(text.replace("\n", "\r\n"), t),
                        parse_table(text, t))


def test_parse_table_errors():
    t = make_torus([3, 3], failed_nodes=[(2, 2)])
    good = "(0,0) -> (1,0) : +X | nodes: (0,0) (1,0)\n"
    cases = [
        (good + "(3,0) -> (1,0) : +X | nodes: (3,0) (1,0)\n",
         "line 2: bad coordinate '(3,0)'"),
        ("(0,0) -> (1,0,0) : +X | nodes: (0,0) (1,0)\n",
         "line 1: bad coordinate '(1,0,0)'"),
        ("(0,0) -> (1,0) : +X | nodes: (-1,0) (1,0)\n",
         "line 1: bad coordinate '(-1,0)'"),
        ("(0,0) -> zebra : +X | nodes: (0,0)\n",
         "line 1: bad coordinate 'zebra'"),
        ("(0,0) -> (1,0) : +x | nodes: (0,0) (1,0)\n",
         "line 1: bad direction '+x' for 2 dimensions"),
        ("(0,0) -> (1,0) : FS+Q | nodes: (0,0) (1,0)\n",
         "line 1: bad direction '+Q' for 2 dimensions"),
        ("(0,0) -> (1,0) : +Q | nodes: (0,0) (1,0)\n",
         "line 1: bad direction '+Q' for 2 dimensions"),
        ("(0,0) -> (1,0) : +X\n", "line 1: missing node sequence"),
        # one first step and one last step, in any place, but not two
        (good + "(0,0) -> (1,1) : FS+Y FS+X +Y | nodes: (0,0) (1,0) (1,1)\n",
         "line 2: more than one first step"),
        ("(0,0) -> (1,1) : +X FS+Y FS+X | nodes: (0,0) (1,0) (1,1)\n",
         "line 1: more than one first step"),
        ("(1,1) -> (0,0) : -X LS-Y LS-Y | nodes: (1,1) (0,1) (0,0)\n",
         "line 1: more than one last step"),
        ("(1,1) -> (0,0) : LS-X -Y LS-Y | nodes: (1,1) (0,1) (0,0)\n",
         "line 1: more than one last step"),
        ("(0,0) -> (1,0) : +X | nodes:\n", "line 1: missing node sequence"),
        ("(0,0) -> (1,0) : +X | nodes: \n", "line 1: missing node sequence"),
        ("(0,0) -> (1,0) : +X | nodes:(0,0) (1,0)\n",
         "line 1: bad direction '|' for 2 dimensions"),
        # a lone surrogate reaches the per-line reader, not the encoder
        (good + "(0,1) -> (1,1) : +X | nodes: (0,1) (1,1)\ud800\n",
         "line 2: bad coordinate '(1,1)\\ud800'"),
        ("(0,0) -> (1,\ud800) : +X | nodes: (0,0) (1,0)\n",
         "line 1: bad coordinate '(1,\\ud800)'"),
        # CRLF line ends number the lines alike
        (good.replace("\n", "\r\n")
         + "(3,0) -> (1,0) : +X | nodes: (3,0) (1,0)\r\n",
         "line 2: bad coordinate '(3,0)'"),
    ]
    for text, want in cases:
        with pytest.raises(ParseError) as err:
            parse_table(text, t)
        assert str(err.value) == want, text


def test_check_table_classes(grid33):
    t, rg, g, added = grid33
    table = build_rt_bfs(rg)
    report = check_table(t, table, added)
    assert report == {"completeness": [], "minimality": [], "validity": []}

    broken = dict(table.routes)
    key = sorted(broken)[0]
    del broken[key]
    report = check_table(t, table_of(t, broken), added)
    assert len(report["completeness"]) == 1

    detour = dict(table.routes)
    u, v = t.node_id((0, 0)), t.node_id((0, 2))
    detour[(u, v)] = make_route(t, u, None, [1, 1], None)  # 2 hops, minimal 1
    report = check_table(t, table_of(t, detour), added)
    assert report["minimality"]



@pytest.mark.parametrize("algo,dims", [("sssp", (4, 4, 2)),
                                       ("bfs", (11, 11, 2))],
                         ids=["sssp-4x4x2", "bfs-11x11x2"])
def test_parse_table_reads_written_lines_without_the_line_parser(
        monkeypatch, algo, dims):
    """Written lines never reach the per-line parser; a lenient line does,
    alone, and both texts give the generator's routes. The names of 11x11x2
    are 7, 8 and 9 bytes long, so they cross the byte lookup's first word."""
    import torusroute.routes as routes_mod

    table = _table(algo, dims)
    t = table.topology
    text = table_to_text(table)
    line_parser = routes_mod._parse_line

    def refuse(line, t):
        raise AssertionError(f"per-line parser called on {line!r}")

    monkeypatch.setattr(routes_mod, "_parse_line", refuse)
    assert parse_table(text, t).routes == table.routes

    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines)
             if line.startswith("(0,0,0) -> ") and " -X" in line)
    lines[i] = lines[i].replace("(0,0,0) -> ", "( 0,0,0) -> ", 1).replace(
        " -X", " \u2212X", 1)
    seen = []

    def record(line, t):
        seen.append(line)
        return line_parser(line, t)

    monkeypatch.setattr(routes_mod, "_parse_line", record)
    assert parse_table("\n".join(lines) + "\n", t).routes == table.routes
    assert seen == [lines[i]]


def _near_misses(word):
    """Tokens a byte or so away from ``word``: one character changed, one
    added or dropped, NUL bytes appended, and every prefix and suffix."""
    yield from (word[:i] + chr(ord(c) ^ 1) + word[i + 1:]
                for i, c in enumerate(word))
    yield from (word[:i] + "0" + word[i:] for i in range(len(word) + 1))
    yield from (word[:i] + word[i + 1:] for i in range(len(word)))
    yield from (word + "\0" * k for k in range(1, 10))
    yield from (word[:i] for i in range(len(word)))
    yield from (word[i:] for i in range(1, len(word)))


def _token_soup(words, seed=0):
    """Every word, its near misses and odd tokens, shuffled and joined by
    single spaces; an empty token makes a double space."""
    odd = ["", "", "\t", "\u2212X", "FS\u2212X", "\ud800", "(0,\ud800)",
           "\u00e9" * 4, "\u20ac" * 3, "\r", "\t(0,0)"]
    for w in words:
        odd += [(w * 17)[:n] for n in (7, 8, 9, 16, 17)]
        odd += [w + "\0" * (n - len(w)) for n in (8, 16, 17) if n > len(w)]
    tokens = list(words) + [x for w in words for x in _near_misses(w)] + odd
    random.Random(seed).shuffle(tokens)
    return " ".join(tokens)


@pytest.mark.parametrize("dims,faults", [
    ((3, 3), {"failed_nodes": [(2, 2)]}), ((2,), {}), ((4, 2, 2, 2), {}),
    ((11, 11, 2), {}), ((6, 6, 6), {})],
    ids=["3x3-failed-node", "2", "4x2x2x2", "11x11x2", "6x6x6"])
def test_byte_lookup_agrees_with_the_dict(dims, faults):
    """The byte lookup gives every token of a soup what ``codes.get`` gives
    it: the code of each name, direction and separator, and -1 for every
    near miss, even one whose words or length alone match a name."""
    t = make_torus(list(dims), **faults)
    codes, m = torusroute.routes._token_codes(t)
    vocabulary = torusroute.routes._Vocabulary.of(t)
    assert vocabulary.m == m and (vocabulary.size >= 0).sum() == len(codes)
    soup = _token_soup(codes)
    got = vocabulary.lookup(soup.encode("utf-8", "surrogatepass"))
    assert got.dtype == np.int32
    assert got.tolist() == [codes.get(x, -1) for x in soup.split(" ")]


@pytest.mark.parametrize("key", [("sssp", (4, 2, 2, 2)), ("bfs", (3, 3)),
                                 ("bfs", (3, 3, 3, 3))], ids=repr)
def test_parse_with_nothing_placed(key, monkeypatch):
    """A token the byte lookup does not place reads -1 and sends its line
    to ``_parse_line``. With no token placed at all, every line goes there,
    and the columns still equal the default parse's in every field, dtype
    and width; a malformed line gives the same ParseError."""
    table = _table(*key)
    t = table.topology
    text = table_to_text(table)
    lines = text.splitlines()
    lines[len(lines) // 2] = lines[len(lines) // 2].replace(" |", " :", 1)
    bad = "\n".join(lines) + "\n"
    want = parse_table(text, t)
    with pytest.raises(ParseError) as err:
        parse_table(bad, t)
    monkeypatch.setattr(torusroute.routes, "_TRIES", 0)
    monkeypatch.setattr(torusroute.routes, "_VOCABULARIES",
                        weakref.WeakKeyDictionary())
    assert (torusroute.routes._Vocabulary.of(t).size < 0).all()
    assert_same_columns(parse_table(text, t), want)
    with pytest.raises(ParseError) as again:
        parse_table(bad, t)
    assert str(again.value) == str(err.value)


# -- per-route reference for the columnar checks ------------------------------

def as_written(routes):
    """Each route as a table writes it: under its key's pair, whatever pair
    the Route itself names."""
    return {(s, d): Route(s, d, r.fs, r.body, r.ls, r.node_seq)
            for (s, d), r in routes.items()}


def reference_check_table(t, routes, relaxed_turns):
    """``check_table`` as one loop over every route, as written."""
    relaxed = set(relaxed_turns)
    report = {"completeness": [], "minimality": [], "validity": []}
    for s in t.live_nodes:
        for d in t.live_nodes:
            if s != d and (s, d) not in routes:
                report["completeness"].append(
                    f"missing pair {t.coord_str(s)}->{t.coord_str(d)}")
    for (s, d), r in sorted(as_written(routes).items()):
        pair = f"{t.coord_str(s)}->{t.coord_str(d)}"
        if s in t.failed_nodes or d in t.failed_nodes:
            dead = s if s in t.failed_nodes else d
            report["validity"].append(
                f"{pair}: endpoint {t.coord_str(dead)} is a failed node")
            continue
        want = t.distance(s, d)
        if want is None:
            report["minimality"].append(
                f"{pair}: length {len(r)}, but no path joins the pair")
        elif len(r) != want:
            report["minimality"].append(
                f"{pair}: length {len(r)}, minimal {want}")
        for msg in validate_route(t, r, relaxed):
            report["validity"].append(f"{pair}: {msg}")
    return report


def reference_link_ids(t, routes):
    """Channel ids of every route in pair order, as written, or the
    IntegrityError text."""
    ids = []
    try:
        for _, r in sorted(as_written(routes).items()):
            ids.extend(route_channels(t, r))
    except IntegrityError as exc:
        return str(exc)
    return ids


def reference_used_turns(t, routes):
    """Consecutive channel pairs of the routes, as written, whose channels
    all exist."""
    used = set()
    for r in as_written(routes).values():
        channels = t.walk(r.src, r.steps)[1]
        if len(channels) == len(r.steps):
            used.update(zip(channels, channels[1:]))
    return sorted(used)


def _corrupt(t, routes, kind, rnd):
    """Apply one corruption of ``kind`` to ``routes`` in place."""
    if not routes:
        return
    n = t.n
    key = rnd.choice(sorted(routes))
    r = routes[key]

    def walked(src, fs, body, ls):
        steps = ((() if fs is None else (fs,)) + tuple(body)
                 + (() if ls is None else (ls,)))
        nodes = t.walk(src, steps)[0]
        if len(nodes) == len(steps) + 1:
            routes.pop(key, None)
            routes[(src, nodes[-1])] = Route(src, nodes[-1], fs, tuple(body),
                                             ls, tuple(nodes))

    if kind == "drop":
        del routes[key]
    elif kind == "swap" and len(r.body) >= 2:
        body = list(r.body)
        i, j = rnd.sample(range(len(body)), 2)
        body[i], body[j] = body[j], body[i]
        walked(r.src, r.fs, body, r.ls)
    elif kind == "to_fs" and r.fs is None and len(r.body) >= 2:
        walked(r.src, r.body[0], r.body[1:], r.ls)
    elif kind == "to_ls" and r.ls is None and len(r.body) >= 2:
        walked(r.src, r.fs, r.body[:-1], r.body[-1])
    elif kind == "node":
        seq = list(r.node_seq)
        seq[rnd.randrange(len(seq))] = rnd.randrange(t.num_coords)
        routes[key] = Route(r.src, r.dst, r.fs, r.body, r.ls, tuple(seq))
    elif kind == "detour":
        d = rnd.randrange(t.ndirs)
        walked(r.src, r.fs, r.body + (d, t.opposite(d)), r.ls)
    elif kind == "from_failed" and t.failed_nodes:
        u = rnd.choice(sorted(t.failed_nodes))
        d = rnd.randrange(t.ndirs)
        v = rnd.choice(t.live_nodes)
        routes[(u, v)] = Route(u, v, None, (d,), None, (u, v))
    elif kind == "dead_link" and t.failed_links:
        u, d = rnd.choice(sorted(t.failed_links))
        if u not in t.failed_nodes:
            v = t.live_nodes[rnd.randrange(len(t.live_nodes))]
            routes[(u, v)] = Route(u, v, None, (d,), None, (u, v))
    elif kind == "turn" and r.body:  # a first or last step off the order
        if rnd.random() < 0.5:
            walked(r.src, rnd.randrange(n), r.body, r.ls)
        else:
            walked(r.src, r.fs, r.body, rnd.randrange(n, 2 * n))
    elif kind == "retarget":  # the steps end elsewhere than the pair says
        v = rnd.choice(t.live_nodes)
        if v not in (r.src, r.dst):
            del routes[key]
            routes[(r.src, v)] = Route(r.src, v, r.fs, r.body, r.ls,
                                       r.node_seq)
    elif kind == "shape" and len(r.steps) >= 2:  # no body between FS and LS
        walked(r.src, r.steps[0], (), r.steps[-1])
    elif kind == "empty":
        u = rnd.choice(t.live_nodes)
        routes[(u, u)] = Route(u, u, None, (), None, (u,))
    elif kind == "misfile":  # the route stored under another live pair
        pair = tuple(rnd.sample(t.live_nodes, 2))
        if pair != key:
            routes[pair] = r


CORRUPTIONS = ("drop", "swap", "to_fs", "to_ls", "node", "detour",
               "from_failed", "dead_link", "turn", "retarget", "shape",
               "empty", "misfile")


@st.composite
def corrupted_tables(draw):
    """(topology, added turns, generated routes, corrupted routes)."""
    dims = draw(st.one_of(
        st.sampled_from([(4, 2, 2, 2), (6, 2, 2), (4, 4, 2)]),
        st.lists(st.integers(2, 5), min_size=1, max_size=4)
        .filter(lambda d: math.prod(d) <= 64)))
    size = math.prod(dims)
    faults = draw(st.lists(st.tuples(st.booleans(), st.integers(0, size - 1),
                                     st.integers(0, 2 * len(dims) - 1)),
                           max_size=3))
    try:
        t = make_torus(dims, [u for link, u, _ in faults if not link],
                       [(u, d) for link, u, d in faults if link])
    except TopologyError:  # a link a mesh axis lacks, or on a failed node
        assume(False)
    assume(len(t.live_nodes) >= 2)
    rg, g, added = prepare(t)
    try:
        table = (build_rt_bfs if draw(st.booleans()) else build_rt_sssp)(rg)
    except (UnroutablePairError, DisconnectedError):
        assume(False)
    routes = dict(table.routes)
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    for kind in draw(st.lists(st.sampled_from(CORRUPTIONS), min_size=2,
                              max_size=10)):
        _corrupt(t, routes, kind, rnd)
    return t, added, table.routes, routes


@given(corrupted_tables(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_columnar_checks_match_per_route_reference(case, lenient):
    """check_table, channel_loads, the channels and the used turns of a
    corrupted table, both parsed from text and built from Routes, equal the
    per-route loops and each other."""
    t, added, generated, routes = case
    text = table_to_text(table_of(t, routes))
    if lenient:  # one line through the per-line parser
        lines = text.splitlines()
        lines[len(lines) // 2] = "  " + lines[len(lines) // 2]
        text = "\n".join(lines) + "\n"
    want_report = reference_check_table(t, routes, added)
    want_ids = reference_link_ids(t, routes)
    want_turns = reference_used_turns(t, routes)
    walks = []
    for table in (parse_table(text, t), table_of(t, routes)):
        assert table.routes == as_written(routes)
        assert check_table(t, table, added) == want_report
        try:
            loads = channel_loads(table).tolist()
        except IntegrityError as exc:
            loads = str(exc)
        if isinstance(want_ids, str):
            assert loads == want_ids
            with pytest.raises(IntegrityError) as err:
                used_turn_cycle_check(t, table)
            assert str(err.value) == want_ids
        else:
            assert loads == np.bincount(
                np.asarray(want_ids, dtype=np.int64),
                minlength=t.n_channels).tolist()
        chan, live = table.channels()
        assert list(zip(*(a.tolist() for a in _used_turns(
            t, chan[live])))) == want_turns
        walks.append((chan.tolist(), live.tolist()))
    assert walks[0] == walks[1]


def test_check_table_misfiled_route(grid33):
    """A Route stored under another pair is reported as its written text
    is: the route of (0,0)->(1,1) under (0,0)->(0,1) is too long and ends
    elsewhere."""
    t, rg, g, added = grid33
    routes = dict(build_rt_bfs(rg).routes)
    u, v, w = t.node_id((0, 0)), t.node_id((0, 1)), t.node_id((1, 1))
    routes[(u, v)] = routes[(u, w)]
    table = table_of(t, routes)
    report = check_table(t, table, added)
    assert report == check_table(t, parse_table(table_to_text(table), t),
                                 added)
    assert report == reference_check_table(t, routes, added)
    assert report == {
        "completeness": [],
        "minimality": ["(0,0)->(0,1): length 2, minimal 1"],
        "validity": ["(0,0)->(0,1): route does not end at dst"]}


def test_check_table_minimal_route_that_reuses_a_dimension():
    """Around a dead link a minimal route in direction order can still use
    one dimension both ways; only the sign rule catches it."""
    t = make_torus([2, 2], failed_links=[((1, 0), 2)])  # (1,0) -X
    u, v = t.node_id((1, 0)), t.node_id((0, 0))
    r = make_route(t, u, None, (1, 2, 3), None)  # +Y -X -Y
    assert len(r) == t.distance(u, v) == 3
    routes = {(u, v): r}
    report = check_table(t, table_of(t, routes))
    assert report == reference_check_table(t, routes, ())
    assert report["validity"] == [
        "(1,0)->(0,0): body step 3 (-Y) reuses dimension 2 with the "
        "opposite sign"]
