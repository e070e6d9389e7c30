import hashlib
import itertools
from collections import deque
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusroute import (GeneticParams, RoutingTable, build_bfs_routes,
                        build_rt_bfs, build_rt_genetic, build_rt_sssp,
                        build_sssp, channel_loads, enumerate_minimal_routes,
                        load_report, make_torus, unique_route_stats)
from torusroute import algorithms
from torusroute.algorithms import (VARIANT_CAP, _bfs_count, _hop_levels,
                                   _lightest, _pair_stats, _path_chains,
                                   _variant_lists, _variant_tables)
from torusroute.cli import prepare, used_turn_cycle_check
from torusroute.errors import UnroutablePairError
from torusroute.metrics import (PATTERNS, LoadReport, deviation,
                               pattern_loads, perfect_channel_load)
from torusroute.routes import (Columns, check_table, encode_chains,
                               parse_table, table_to_text)
from torusroute.routing_graph import DUMMY_LINK, RoutingGraph

from conftest import pending_groups, prepared, small_faulted_systems
from witnesses import (_rg_chains, _variant_chains, make_route, most_remote,
                       rg_reachable_pairs, table_of, turn_count)

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
             lambda: build_rt_bfs(rg),
             lambda: build_rt_genetic(rg)]
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


def test_enumerate_truncates_only_past_the_cap():
    """A pair is truncated when it has more than ``cap`` distinct routes,
    however many shortest paths encode them: on 4x4x2 at cap 1, the 32
    pairs whose four shortest paths all encode one route keep it and are
    not truncated."""
    t, rg, g, added = prepared([4, 4, 2])
    live = t.live_nodes
    dist = _hop_levels(rg, live)
    pairs = [(i, s, d) for i, s in enumerate(live) for d in live if d != s]
    rows = np.array([i for i, _, _ in pairs], dtype=np.int64)
    ends = rg.end_vid(np.array([d for _, _, d in pairs], dtype=np.int64))
    paths = np.bincount(_path_chains(rg, dist, rows, ends)[1],
                        minlength=len(pairs))
    routes = _variant_lists(rg, dist, rows, ends, VARIANT_CAP)[1]
    four_as_one = [p for p, n, k in zip(pairs, paths, routes)
                   if n == 4 and k == 1]
    assert len(four_as_one) == 32
    for _, s, d in four_as_one:
        variants, truncated = enumerate_minimal_routes(rg, s, d, cap=1)
        assert len(variants) == 1 and not truncated


def test_enumerate_rejects_bad_arguments(ring4):
    t, rg, g, added = ring4
    with pytest.raises(ValueError, match="dst must differ from src"):
        enumerate_minimal_routes(rg, 1, 1)
    for cap in (0, -3):
        with pytest.raises(ValueError, match="cap must be at least 1"):
            enumerate_minimal_routes(rg, 0, 2, cap=cap)


def test_enumerate_deterministic(desmos):
    t, rg, g, added = desmos
    a = enumerate_minimal_routes(rg, 0, 23)[0]
    b = enumerate_minimal_routes(rg, 0, 23)[0]
    assert a == b


@pytest.mark.parametrize("dims,faults,cap,want", [
    ([4, 2, 2, 2], {}, 2,
     "c1d03603ab5ef320cf59790b9bad76f4dd6ad8f6461efab672867e67ed0385a0"),
    ([4, 2, 2, 2], {}, 128,
     "9bdc6b2eccbeb845e17d59b46a9371fa151b306a12c9bf3f92a9dce0d817051a"),
    ([4, 4, 2], {"failed_nodes": [(0, 0, 1)]}, 2,
     "f288c1220c4e1c33e94b0003b246e26e4567014eba33337198709653ccdb3769"),
    ([4, 4, 2], {"failed_nodes": [(0, 0, 1)]}, 128,
     "51b5fe6928f2e0b92f6e5d6c3e13569005e13e2d3086b538ebd20fd84bdf2567"),
], ids=["4x2x2x2-cap2", "4x2x2x2-cap128", "4x4x2-node-cap2",
        "4x4x2-node-cap128"])
def test_enumerate_pinned_digests(dims, faults, cap, want):
    """SHA-256 over every pair's variant list and truncation flag, in pair
    order: the variant order, the encodings and the cap are all pinned."""
    t, rg, g, added = prepared(dims, **faults)
    h = hashlib.sha256()
    for s in t.live_nodes:
        for d in t.live_nodes:
            if s != d:
                vs, truncated = enumerate_minimal_routes(rg, s, d, cap)
                h.update(repr((s, d, truncated,
                               [(r.fs, r.body, r.ls, r.node_seq)
                                for r in vs])).encode())
    assert h.hexdigest() == want


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
    text = table_to_text(table_of(t, {(0, d): r
                                      for d, r in routes.items()}))
    assert len(routes) == len(t.live_nodes) - 1
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "40c56d3a1f7fb6018e2579d97e7cd8e62b713d70c4cb8133d177d2eda994420d")
    assert (loads == before).all()


@given(small_faulted_systems())
@settings(max_examples=60, deadline=None)
def test_sssp_routes_are_least_load_minimal_variants(system):
    """Differential test of ``build_sssp`` against ``_rg_chains``, which
    walks every shortest path back from the end vertex depth first, in-edges
    in edge-id order. For every reachable destination, and again for a
    random half of them, each under a ledger of small loads (many ties) and
    one of spread loads, every ``build_sssp`` chain has its pair's minimal
    hop count and the least summed load over all the pair's minimal link
    chains, and it is the first such chain of the walk. The ledger is
    unchanged."""
    dims, nodes, links, src, seed = system
    t = make_torus(dims, nodes, links)
    rg = prepare(t)[0]
    rng = np.random.default_rng(seed)
    dist = _hop_levels(rg, [src])[0]
    every = sorted(d for s, d in rg_reachable_pairs(rg) if s == src)
    walks = {d: _rg_chains(rg, dist, rg.end_vid(d), 10 ** 6) for d in every}
    assert not any(truncated for _, truncated in walks.values())
    for high, dsts in itertools.product(
            (4, 20), (every, [d for d in every if rng.random() < 0.5])):
        loads = rng.integers(0, high, size=t.n_channels)
        before = loads.copy()
        routes = build_sssp(rg, src, dsts, loads)
        assert sorted(routes) == dsts
        assert (loads == before).all()
        for dst, r in routes.items():
            chains = walks[dst][0]
            chosen = tuple(t.walk(src, r.steps)[1])
            # the ejection adds no hop
            assert len(chosen) == dist[rg.end_vid(dst)] - 1
            costs = [int(loads[list(c)].sum()) for c in chains]
            assert chosen == chains[costs.index(min(costs))], (dst, r)


@given(small_faulted_systems(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_path_chains_match_depth_first_walk(system, batch):
    """Differential test of stage 2's array walk against ``_rg_chains``.

    Every reachable pair of every source, in a shuffled order (so a batch
    mixes sources and depths), walked ``batch`` pairs at a time: each pair
    gets the chains of the depth-first walk, in its order, padded with -1
    on the right, and as many as stage 1 counts shortest paths. Under a
    ledger of few distinct loads (many ties), ``_lightest`` gives each pair
    the first of its chains with the least summed load."""
    dims, nodes, links, _, seed = system
    t = make_torus(dims, nodes, links)
    rg = prepare(t)[0]
    live = t.live_nodes
    dist, counts, _ = _bfs_count(rg, live)
    pairs = [(i, rg.end_vid(d)) for i, s in enumerate(live) for d in live
             if d != s and dist[i, rg.end_vid(d)] >= 0]
    rng = np.random.default_rng(seed)
    pairs = [pairs[k] for k in rng.permutation(len(pairs))]
    rows, ends = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "_PATH_BATCH", batch)
        chains, owner = _path_chains(rg, dist, rows, ends)
    assert (np.diff(owner) >= 0).all()
    want = [_rg_chains(rg, dist[i], end, 10 ** 6)[0] for i, end in pairs]
    width = chains.shape[1]
    assert [chains[owner == k].tolist() for k in range(len(pairs))] == [
        [list(c) + [-1] * (width - len(c)) for c in w] for w in want]
    assert [len(w) for w in want] == counts[rows, ends].tolist()

    load = np.append(rng.integers(0, 3, t.n_channels), 0)
    first = np.searchsorted(owner, np.arange(len(pairs)))
    best = _lightest(chains, first, load)
    for k, w in enumerate(want):
        costs = [int(load[list(c)].sum()) for c in w]
        assert best[k] - first[k] == costs.index(min(costs))


@given(small_faulted_systems())
@settings(max_examples=60, deadline=None)
def test_variant_lists_match_depth_first_cap_rule(system):
    """Differential test of ``_variant_lists`` against the per-pair cap rule
    of ``witnesses._variant_chains`` over the depth-first walk: at caps 1,
    2, 3 and ``VARIANT_CAP``, every reachable pair gets the same distinct
    chains in the same order, so the same count, and the same truncation
    flag. ``_variant_tables`` gives every pair the ``VARIANT_CAP`` lists, or
    names every unreached destination of the first source with one."""
    dims, nodes, links, _, _ = system
    t = make_torus(dims, nodes, links)
    rg = prepare(t)[0]
    live = t.live_nodes
    dist = _hop_levels(rg, live)
    pairs = [(i, s, d) for i, s in enumerate(live) for d in live if d != s]
    reached = [p for p in pairs if dist[p[0], rg.end_vid(p[2])] >= 0]
    rows = np.array([i for i, _, _ in reached], dtype=np.int64)
    ends = rg.end_vid(np.array([d for _, _, d in reached], dtype=np.int64))
    for cap in (1, 2, 3, VARIANT_CAP):
        chains, counts, truncated = _variant_lists(rg, dist, rows, ends, cap)
        want = [_variant_chains(rg, dist[i], s, d, cap)
                for i, s, d in reached]
        assert counts.tolist() == [len(w) for w, _ in want]
        assert truncated.tolist() == [cut for _, cut in want]
        assert [tuple(x for x in c if x >= 0) for c in chains.tolist()] == [
            c for w, _ in want for c in w]

    missing = [p for p in pairs if p not in reached]
    if missing:
        first = missing[0][1]
        with pytest.raises(UnroutablePairError) as exc:
            _variant_tables(rg)
        assert exc.value.pairs == [(t.coord_str(s), t.coord_str(d))
                                   for _, s, d in missing if s == first]
    else:  # every pair is reached: ``want`` holds the VARIANT_CAP lists
        src, counts, offsets, links = _variant_tables(rg)
        assert src.tolist() == [s for _, s, _ in pairs]
        assert counts.tolist() == [len(w) for w, _ in want]
        assert (offsets == np.cumsum(counts) - counts).all()
        assert [tuple(x for x in c if x >= 0) for c in links.tolist()] == [
            c for w, _ in want for c in w]


def _plain_bfs(rg, source):
    """(hop levels, shortest-path counts, least-edge-id parent edges) from
    one source's begin vertex: a deque breadth-first search over the CSR
    lists, then one pass over the edges in id order for the parents."""
    indptr, head = rg.indptr.tolist(), rg.edge_head.tolist()
    dist, counts = [-1] * rg.n_vertices, [0] * rg.n_vertices
    begin = rg.begin_vid(source)
    dist[begin], counts[begin] = 0, 1
    queue = deque([begin])
    while queue:  # level order: a vertex's count is final when it leaves
        u = queue.popleft()
        for e in range(indptr[u], indptr[u + 1]):
            v = head[e]
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
            if dist[v] == dist[u] + 1:
                counts[v] += counts[u]
    parent = [-1] * rg.n_vertices
    for e, (u, v) in enumerate(zip(rg.edge_tail.tolist(), head)):
        if parent[v] < 0 and dist[u] >= 0 and dist[v] == dist[u] + 1:
            parent[v] = e
    return dist, counts, parent


def _plain_chains(rg, source, parent):
    """{destination: link chain of its parent-tree path} for every live
    destination the tree reaches, walked one vertex at a time."""
    out = {}
    for dst in rg.topology.live_nodes:
        v, links = rg.end_vid(dst), []
        if dst == source or parent[v] < 0:
            continue
        while v != rg.begin_vid(source):
            e = parent[v]
            if rg.edge_link[e] != DUMMY_LINK:
                links.append(int(rg.edge_link[e]))
            v = int(rg.edge_tail[e])
        out[dst] = links[::-1]
    return out


def _stopped(rg, refs):
    """``_plain_bfs`` results of one batch of sources, cut where the level
    search stops: past the deepest level at which a row reaches the END
    vertex of a live node, levels read -1, counts 0 and parents -1. A batch
    where some row never reaches some live END runs to the end, uncut."""
    ends = rg.end_vid(np.array(rg.topology.live_nodes))
    dist = np.array([r[0] for r in refs])
    if (dist[:, ends] < 0).any():
        return refs
    past = dist > dist[:, ends].max()
    return [tuple(np.where(p, none, a).tolist()
                  for a, none in zip(r, (-1, 0, -1)))
            for p, r in zip(past, refs)]


@given(small_faulted_systems(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_batched_level_search_matches_plain_bfs(system, rows):
    """Differential test of stage 1's source-batched level search and array
    read-back against a plain BFS per source, cut where the batch's search
    stops (``_stopped``): hop levels, path counts, least-edge-id parents
    (one batch of every source, and one source alone), and ``_pair_stats``'
    levels of the representatives and padded canonical chains with batches
    of ``rows`` representatives. Every END vertex reads its plain BFS
    level, uncut. Where a pair is unreached, ``_pair_stats`` names the
    first source with one and all its unreached destinations."""
    dims, nodes, links, src, _ = system
    t = make_torus(dims, nodes, links)
    rg = prepare(t)[0]
    live = t.live_nodes
    ends = rg.end_vid(np.array(live))
    # finished read-back walks park on vertex 0, which no edge may enter
    assert not (rg.edge_head == 0).any()
    ref = [_plain_bfs(rg, s) for s in live]
    for sources, want in ((live, ref), ([src], [ref[live.index(src)]])):
        dist, counts, parent = _bfs_count(rg, sources)
        assert dist[:, ends].tolist() == [
            np.array(r[0])[ends].tolist() for r in want]
        want = _stopped(rg, want)
        assert dist.tolist() == [r[0] for r in want]
        assert _hop_levels(rg, sources).tolist() == dist.tolist()
        assert counts.tolist() == [r[1] for r in want]
        assert parent.tolist() == [r[2] for r in want]
    chains = [_plain_chains(rg, s, r[2]) for s, r in zip(live, ref)]
    unreached = [[(t.coord_str(s), t.coord_str(d)) for d in live
                  if d != s and d not in c] for s, c in zip(live, chains)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "_BATCH_CELLS", rows * rg.n_vertices)
        assert len(algorithms._source_batches(rg, live)) == -(-len(live)
                                                               // rows)
        if any(unreached):
            with pytest.raises(UnroutablePairError) as err:
                _pair_stats(rg)
            assert err.value.pairs == next(u for u in unreached if u)
            return
        levels, _, _, links = _pair_stats(rg)
    reps = [ref[live.index(r)] for r in algorithms._Orbits(rg).reps.tolist()]
    assert levels.tolist() == [r[0] for i in range(0, len(reps), rows)
                               for r in _stopped(rg, reps[i:i + rows])]
    flat = [c[d] for c in chains for d in sorted(c)]
    want = np.full((len(flat), max([1, *map(len, flat)])), -1)
    for row, c in zip(want, flat):
        row[:len(c)] = c
    assert links.tolist() == want.tolist()


@pytest.mark.parametrize("dims, deepest", [
    ([6], 4), ([7], 4), ([2, 2, 2, 2], 5), ([3, 2, 4, 2], 6), ([6, 6, 6], 10)])
def test_level_search_stops_at_the_deepest_end(dims, deepest):
    """The level search ends with the level of its deepest END vertex, not
    with the deepest vertex reached (6, 7, 5, 10 and 18 levels here) nor
    with the first END reached."""
    rg = prepared(dims)[1]
    assert _hop_levels(rg, [0]).max() == deepest


def _lightest_arrival_bfs(rg, source, loads):
    """{destination: link chain} of one source's lightest-arrival tree, the
    ledger updated: a level-by-level search whose frontier is expanded in
    ascending (arrival load, vertex id), where a vertex's arrival is the
    load of its own parent edge's link and the first claimant of a vertex
    is its parent. Raises UnroutablePairError naming every unreached
    destination, in order, before any load is added."""
    t = rg.topology
    indptr, tail = rg.indptr.tolist(), rg.edge_tail.tolist()
    head, link = rg.edge_head.tolist(), rg.edge_link.tolist()
    parent, arrival = {}, {rg.begin_vid(source): 0}
    frontier = [rg.begin_vid(source)]
    while frontier:
        nxt = []
        for u in sorted(frontier, key=lambda v: (arrival[v], v)):
            for e in range(indptr[u], indptr[u + 1]):
                v = head[e]
                if v not in arrival:
                    parent[v] = e
                    arrival[v] = 0 if link[e] == DUMMY_LINK else loads[link[e]]
                    nxt.append(v)
        frontier = nxt
    missing = [(t.coord_str(source), t.coord_str(d)) for d in t.live_nodes
               if d != source and rg.end_vid(d) not in parent]
    if missing:
        raise UnroutablePairError(missing)
    chains = {}
    for dst in t.live_nodes:
        v, links = rg.end_vid(dst), []
        while dst != source and v != rg.begin_vid(source):
            links.append(link[parent[v]])
            v = tail[parent[v]]
        if dst != source:
            chains[dst] = [x for x in reversed(links) if x != DUMMY_LINK]
    for chain in chains.values():
        for x in chain:
            loads[x] += 1
    return chains


@given(small_faulted_systems(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_bfs_matches_level_by_level_reference(system, rows):
    """Differential test of the one-pass parent pick of ``build_bfs_routes``
    and ``build_rt_bfs`` (keyed by each tail's ``in_link``, levels searched
    a batch of ``rows`` sources at a time) against
    ``_lightest_arrival_bfs``, under a random ledger of few distinct loads
    (many ties) and from a zero ledger over the most-remote source order:
    the same chains, the same ledger, and on an unroutable system the same
    UnroutablePairError with no load added."""
    dims, nodes, links, src, seed = system
    t = make_torus(dims, nodes, links)
    rg = prepare(t)[0]
    loads = np.random.default_rng(seed).integers(0, 4, t.n_channels)
    want_loads = loads.copy()
    try:
        want = _lightest_arrival_bfs(rg, src, want_loads)
    except UnroutablePairError as err:
        with pytest.raises(UnroutablePairError) as got:
            build_bfs_routes(rg, src, loads)
        assert got.value.pairs == err.pairs
        assert (loads == want_loads).all()
    else:
        routes = build_bfs_routes(rg, src, loads)
        assert {d: t.walk(src, r.steps)[1] for d, r in routes.items()} == want
        assert (loads == want_loads).all()

    ledger = np.zeros(t.n_channels, dtype=np.int64)
    want, order = {}, [t.live_nodes[0]]
    try:
        while True:
            chains = _lightest_arrival_bfs(rg, order[-1], ledger)
            want.update({(order[-1], d): c for d, c in chains.items()})
            left = set(t.live_nodes) - set(order)
            if not left:
                break
            order.append(most_remote(t, left, order[-1]))
    except UnroutablePairError as err:
        want = err
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "_BATCH_CELLS", rows * rg.n_vertices)
        if isinstance(want, UnroutablePairError):
            with pytest.raises(UnroutablePairError) as got:
                build_rt_bfs(rg)
            assert got.value.pairs == want.pairs
            return
        table = build_rt_bfs(rg)
    assert {p: t.walk(p[0], r.steps)[1]
            for p, r in table.routes.items()} == want
    assert (table.stats.link_increments == ledger).all()


@pytest.mark.parametrize("dims,faults,want", [
    ([5], {"failed_nodes": [1, 3]}, [("(0)", "(2)")]),
    ([3, 3], {"failed_nodes": [0], "failed_links": [(6, 1)]},
     [("(2,0)", "(0,1)"), ("(2,0)", "(0,2)")]),
], ids=["disconnected", "rule-unroutable"])
@pytest.mark.parametrize("rows", [1, 2, 9])
def test_stage1_names_first_unroutable_source(dims, faults, want, rows,
                                              monkeypatch):
    """Ring of 5 without (1) and (3): (0) cannot reach (2). 3x3 without
    (0,0) and (2,0)+Y: every pair from the first five live sources routes,
    but (2,0) has no rule-legal route to (0,1) or (0,2). Whatever the batch
    size, stage 1 names exactly the first source with an unreached pair,
    with every destination it misses, in order."""
    t = make_torus(dims, **faults)
    rg = prepare(t)[0]
    monkeypatch.setattr(algorithms, "_BATCH_CELLS", rows * rg.n_vertices)
    with pytest.raises(UnroutablePairError) as err:
        build_rt_sssp(rg)
    assert err.value.pairs == want


def _no_orbit_axes(rg):
    """Stands in for ``algorithms._orbit_axes``: no axis shifts, so every
    node is its own orbit and every source is searched."""
    return np.zeros(rg.topology.n, dtype=bool)


def _outputs_of_stage1_and_tables(rg):
    """What the orbits feed: ``_pair_stats`` and the bfs and sssp tables."""
    return _pair_stats(rg), build_rt_bfs(rg), build_rt_sssp(rg)


@given(st.lists(st.integers(2, 6), min_size=1, max_size=4)
       .filter(lambda dims: np.prod(dims) <= 216))
@settings(max_examples=40, deadline=None)
def test_orbits_match_singleton_orbits(dims):
    """Differential test of orbit sharing on fault-free tori against
    singleton orbits (every source searched): ``_pair_stats``' levels of the
    representatives, every column field (values, dtype, pad width), unique
    mask and links, and the bfs and sssp tables, byte for byte, with their
    stats. With or without relaxed turns a system has one orbit per node of
    its mesh axes (size 2)."""
    t = make_torus(dims)
    rg = prepare(t)[0]
    reps = algorithms._Orbits(rg).reps
    assert len(reps) == np.prod([size for size in dims if size < 3])
    shared = _outputs_of_stage1_and_tables(rg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "_orbit_axes", _no_orbit_axes)
        alone = _outputs_of_stage1_and_tables(rg)
    (levels, cols, unique, links), bfs, sssp = shared
    want_levels, want_cols, want_unique, want_links = alone[0]
    want_levels = want_levels[reps]  # singleton orbits: one row per node
    for got, want in ((levels, want_levels), (unique, want_unique),
                      (links, want_links), *(
                          (getattr(cols, f.name), getattr(want_cols, f.name))
                          for f in fields(Columns))):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()
    for got, want in zip((bfs, sssp), alone[1:]):
        assert table_to_text(got) == table_to_text(want)
        assert (got.stats.link_increments == want.stats.link_increments).all()
        assert (got.stats.sssp_calls, got.stats.unique_pairs) == (
            want.stats.sssp_calls, want.stats.unique_pairs)


@pytest.mark.parametrize("dims,faults", [
    ([4, 4, 3], {"failed_nodes": [5]}),
    ([4, 4, 3], {"failed_links": [(5, 1)]}),
], ids=["failed-node", "failed-link"])
def test_orbits_are_singletons_on_faulted_systems(dims, faults):
    """A failed node or a failed link breaks the shift symmetry: every node
    is its own representative, and both shift tables are the identity."""
    t, rg, g, added = prepared(dims, **faults)
    orb = algorithms._Orbits(rg)
    nodes = np.arange(t.num_coords)
    assert orb.single and (orb.rep == nodes).all()
    assert (orb.shift == nodes).all() and (orb.unshift == nodes).all()


def test_orbits_follow_the_relaxed_turns(desmos):
    """4x2x2x2 has relaxed turns, and its set is shift-invariant: one orbit
    per node of its three mesh axes. A graph with one turn of that set is
    not invariant, and every node is its own orbit."""
    t, rg, g, added = desmos
    assert added
    assert len(algorithms._Orbits(rg).reps) == 8
    lone = algorithms._Orbits(RoutingGraph(t, [min(added)]))
    assert lone.single and (lone.rep == np.arange(t.num_coords)).all()


@pytest.mark.parametrize("dims", [[6, 6, 6], [4, 2, 2, 2], [2, 4, 4]],
                         ids=["6x6x6", "4x2x2x2", "2x4x4"])
def test_shared_stage2_listing_matches_per_source_listing(dims):
    """Stage 2's listing once per representatives' pair
    (``_pending_chains``) against ``_path_chains`` from every source's own
    hop levels: every pair in a shuffled order (so a pair's representatives'
    pair comes back many times, from many sources) gets the same chains,
    row for row, and the same first rows."""
    t, rg, g, added = prepared(dims)
    orb = algorithms._Orbits(rg)
    assert not orb.single and len(orb.reps) < t.num_coords
    levels = _pair_stats(rg, orb)[0]
    live = np.array(t.live_nodes)
    src, dst = np.repeat(live, len(live)), np.tile(live, len(live))
    order = np.random.default_rng(5).permutation(np.flatnonzero(src != dst))
    src, dst = src[order], dst[order]
    chains, first = algorithms._pending_chains(rg, orb, levels, src, dst)
    own = _hop_levels(rg, live)
    want, owner = _path_chains(rg, own, src, rg.end_vid(dst))
    assert chains.dtype == want.dtype and chains.shape == want.shape
    assert (chains == want).all()
    assert (first == np.searchsorted(owner, np.arange(len(src) + 1))).all()
    assert (np.repeat(np.arange(len(src)), np.diff(first)) == owner).all()


@pytest.mark.parametrize("dims,faults,lone_turn", [
    ([6, 6, 6], {}, False), ([4, 2, 2, 2], {}, False), ([2, 4, 4], {}, False),
    ([4, 4, 3], {"failed_nodes": [5]}, False), ([2, 2, 2, 2], {}, False),
    ([4, 2, 2, 2], {}, True),
], ids=["6x6x6", "4x2x2x2", "2x4x4", "4x4x3-node", "2x2x2x2",
        "4x2x2x2-one-turn"])
def test_bfs_pick_in_the_representative_frame(dims, faults, lone_turn):
    """``build_rt_bfs``'s parent pick in the representative's frame against
    ``_lightest_arrival_bfs`` from the source itself, under random ledgers
    of few distinct loads (many ties): from the representative's parent
    candidates, the source's link map (``_Orbits.links_to_sources``) and
    its pair rows (``_Orbits.pair_rows``), ``_bfs_chains`` gives every
    destination's chain in pair order and adds the same load. The last
    three systems are singleton orbits, where every map is the identity: a
    failed node, every axis of size 2, and one turn of a shift-invariant
    set (``RoutingGraph(t, [min(added)])``)."""
    t, rg, g, added = prepared(dims, **faults)
    if lone_turn:
        rg = RoutingGraph(t, [min(added)])
    orb = algorithms._Orbits(rg)
    assert orb.single == bool(faults or lone_turn or max(dims) == 2)
    rng = np.random.default_rng(11)
    candidates = {r: algorithms._parent_candidates(rg, level) for r, level
                  in zip(orb.reps.tolist(), _hop_levels(rg, orb.reps))}
    live = np.array(t.live_nodes)
    sources = rng.choice(live, min(24, len(live)), replace=False)
    maps = orb.links_to_sources(sources, np.tile(algorithms._link_ids(t),
                                                 (len(sources), 1)))
    rows = orb.pair_rows(*algorithms._pairs(t, sources)[:2]) % orb.dests
    for s, links, at in zip(sources.tolist(), maps,
                            rows.reshape(len(sources), -1)):
        ledger = np.append(rng.integers(0, 3, t.n_channels), 0)
        want_ledger = ledger[:-1].copy()
        want = _lightest_arrival_bfs(rg, s, want_ledger)
        r = int(orb.rep[s])
        got = algorithms._bfs_chains(rg, r, candidates[r], links, at, ledger)
        assert [[x for x in row if x >= 0] for row in got.tolist()] == [
            want[d] for d in t.live_nodes if d != s]
        assert (ledger[:-1] == want_ledger).all()


@pytest.mark.parametrize("algo", sorted(GENERATORS))
def test_one_live_node_gives_empty_table(algo):
    """A system with one live node has no pair: every generator returns an
    empty table that passes the table checks and reports zero loads."""
    t, rg, g, added = prepared([2], failed_nodes=[1])
    table = GENERATORS[algo](rg)
    assert len(table) == 0 and table.stats.total_pairs == 0
    assert check_table(t, table, added) == {
        "completeness": [], "minimality": [], "validity": []}
    assert len(parse_table(table_to_text(table), t)) == 0
    zero = LoadReport(pi=0, min_load=0, gamma_perfect=0.0, sigma={4: 0.0},
                      max_d=0)
    assert load_report(table) == zero
    for pattern in PATTERNS:
        assert pattern_loads(table, pattern) == zero


def test_no_live_node_gives_empty_table():
    """A system whose every node failed has no pair either: every generator
    returns an empty table that passes the table checks, and the unique-route
    statistics read (0, 0)."""
    t, rg, g, added = prepared([2], failed_nodes=[0, 1])
    assert t.live_nodes == ()
    for algo in sorted(GENERATORS):
        table = GENERATORS[algo](rg)
        assert len(table) == 0 and table.stats.total_pairs == 0, algo
        assert not table.stats.link_increments.any(), algo
        assert check_table(t, table, added) == {
            "completeness": [], "minimality": [], "validity": []}, algo
        assert len(parse_table(table_to_text(table), t)) == 0, algo
    assert unique_route_stats(rg) == (0, 0)


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
    # a negative epsilon never lets the search stagnate
    for epsilon in (-0.5, -1e-9, 1.0, 2.0, float("nan")):
        with pytest.raises(ValueError, match=r"epsilon must be in \[0, 1\)"):
            GeneticParams(epsilon=epsilon)
    GeneticParams(epsilon=0.0)
    GeneticParams(epsilon=0.99)


def test_genetic_params_reject_limits_that_skip_the_search():
    """A stagnation limit below 1 or a negative generation cap would end
    the search before its first generation."""
    for limit in (0, -3):
        with pytest.raises(ValueError, match=r"stagnation limit must be >= 1"):
            GeneticParams(stagnation_limit=limit)
    for most in (-1, -2):
        with pytest.raises(ValueError, match=r"max generations must be >= 0"):
            GeneticParams(max_generations=most)
    GeneticParams(stagnation_limit=1, max_generations=0)


def test_genetic_params_reject_a_negative_seed():
    """numpy cannot seed a generator from a negative integer."""
    for seed in (-1, -7):
        with pytest.raises(ValueError, match=r"seed must be >= 0"):
            GeneticParams(seed=seed)
    GeneticParams(seed=0)


def _per_individual_genetic(rg, params):
    """(table text, fitness history, generations, link increments) of the
    genetic search written one individual at a time: a per-pair crossover
    loop, and each individual's loads counted from scratch and scored by
    its own ``deviation`` call. The same draws in the same order as
    ``build_rt_genetic``, with int64 genes."""
    t = rg.topology
    src, counts, offsets, links = _variant_tables(rg)
    gp = perfect_channel_load(t)
    n_channels = t.n_channels
    counted = np.where(links < 0, n_channels, links)
    rng = np.random.default_rng(params.seed)

    def loads_of(genes):
        return np.bincount(counted[offsets + genes].ravel(),
                           minlength=n_channels + 1)[:n_channels]

    def fitness(genes):
        return deviation(loads_of(genes), gp)

    pop_n = params.population
    pop = rng.integers(0, counts, size=(pop_n, len(src)), dtype=np.int64)
    fits = np.array([fitness(g) for g in pop])
    order = np.argsort(fits, kind="stable")
    pop, fits = pop[order], fits[order]
    best_fit = float(fits[0])
    best_genes = pop[0].copy()
    history = [best_fit]
    anchor = best_fit
    stagnant = generations = 0
    while stagnant < params.stagnation_limit:
        if (params.max_generations is not None
                and generations >= params.max_generations):
            break
        generations += 1
        half = pop_n // 2 + pop_n % 2
        parents = rng.integers(0, pop_n, size=(half, 2))
        cuts = np.sort(rng.integers(0, len(src) + 1, size=(half, 2)), axis=1)
        kids = []
        for (a, b), (c1, c2) in zip(parents, cuts):
            k1 = pop[a].copy()
            k1[c1:c2] = pop[b][c1:c2]
            k2 = pop[b].copy()
            k2[c1:c2] = pop[a][c1:c2]
            kids.extend((k1, k2))
        kids = np.array(kids[:pop_n])
        n_sites = rng.binomial(kids.size, params.mutation)
        for site in rng.choice(kids.size, n_sites, replace=False):
            kid, pair = divmod(int(site), len(src))
            kids[kid, pair] = rng.integers(0, counts[pair])
        kid_fits = np.array([fitness(g) for g in kids])
        pool = np.vstack([pop, kids])
        pool_fits = np.concatenate([fits, kid_fits])
        order = np.argsort(pool_fits, kind="stable")[:pop_n]
        pop, fits = pool[order], pool_fits[order]
        gen_best = float(fits[0])
        history.append(gen_best)
        if gen_best < best_fit:
            best_fit = gen_best
            best_genes = pop[0].copy()
        if gen_best < anchor * (1.0 - params.epsilon):
            anchor = gen_best
            stagnant = 0
        else:
            stagnant += 1
    cols = encode_chains(t, src, links[offsets + best_genes], rg.relaxed)[0]
    return (table_to_text(RoutingTable(t, columns=cols)), history,
            generations, loads_of(best_genes))


@pytest.mark.parametrize("dims,faults,kwargs", [
    ((4, 2, 2, 2), {}, dict(seed=3, population=10)),
    ((6, 2, 2), {}, dict(seed=1, population=8)),
    ((4, 4, 2), {}, dict(seed=2, population=6)),
    ((6, 2, 2), {}, dict(seed=2, population=3)),
    ((4, 2, 2, 2), {}, dict(seed=4, population=5)),
    ((4, 2, 2, 2), {}, dict(seed=5, population=8, mutation=0.0)),
    ((6, 2, 2), {}, dict(seed=4, population=8, mutation=1.0)),
    ((3,), {}, dict(seed=0, population=4, stagnation_limit=2)),
    ((4, 4, 2), {"failed_nodes": ((0, 0, 1),)}, dict(seed=0, population=7)),
    ((6, 2, 2), {}, dict(seed=6, population=7, mutation=0.5)),
    ((3, 2), {}, dict(seed=17, population=2)),
    ((3, 2), {}, dict(seed=6, population=5)),
    ((4, 4, 2), {}, dict(seed=1)),
    ((4, 4, 4), {}, dict(seed=1, max_generations=3)),
], ids=repr)
def test_genetic_matches_per_individual_reference(dims, faults, kwargs,
                                                  monkeypatch):
    """Differential test of the one-pass generation scoring of
    ``build_rt_genetic`` (kid loads kept as corrections of a parent's row)
    against ``_per_individual_genetic``: the same table, fitness history
    (bitwise), generation count and link increments, over odd and tiny
    populations, mutation 0 and 1, the one-variant space of a 3-ring, a
    faulted system, one default run on 4x4x2 and a 4x4x4 system, whose row
    offsets outgrow int16 link ids. The cases of
    ``_BREEDING_EDGES`` must draw the edges named there."""
    t, rg, g, added = prepared(dims, **faults)
    params = GeneticParams(**kwargs)
    logs = []
    seeded = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: logs.append(
        _DrawLog(seeded(seed))) or logs[-1])
    table = build_rt_genetic(rg, params=params)
    monkeypatch.undo()
    text, history, generations, loads = _per_individual_genetic(rg, params)
    assert table_to_text(table) == text
    assert table.stats.fitness_history == history
    assert table.stats.generations == generations
    assert table.stats.link_increments.dtype == loads.dtype
    assert table.stats.link_increments.tolist() == loads.tolist()
    want = _BREEDING_EDGES.get((dims, params.seed, params.population), set())
    assert want <= _breeding_edges(logs[0].draws, params.population,
                                   table.stats.total_pairs)


# the breeding edges that a reference case's draws must hit
_BREEDING_EDGES = {
    ((3, 2), 17, 2): {"empty window", "full window", "same parents"},
    ((3, 2), 6, 5): {"empty window", "full window", "same parents",
                     "dropped kid"},
    ((4, 4, 2), 1, 100): {"empty window", "same parents"},
}


def _breeding_edges(draws, pop_n, n_pairs):
    """The breeding edges among a genetic search's recorded draws: a couple
    with equal cuts, one whose cuts span every gene and whose parents are
    two individuals, one that breeds an individual with itself, and a
    generation of an odd population, whose last kid is dropped."""
    edges = set()
    # after the initial population, a generation draws its parents, cuts,
    # mutation count, sites and their genes
    for parents, cuts, *_ in zip(*[iter(draws[1:])] * 5):
        lo, hi = np.sort(cuts, axis=1).T
        same = parents[:, 0] == parents[:, 1]
        hits = {"empty window": lo == hi,
                "full window": (lo == 0) & (hi == n_pairs) & ~same,
                "same parents": same,
                "dropped kid": pop_n % 2 == 1}
        edges |= {edge for edge, hit in hits.items() if np.any(hit)}
    return edges


class _DrawLog:
    """A generator that records each of its draws and how many values it
    returns."""

    def __init__(self, rng):
        self._rng, self.sizes, self.draws = rng, [], []

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def logged(*args, **kwargs):
            out = draw(*args, **kwargs)
            self.sizes.append(np.size(out))
            self.draws.append(out)
            return out
        return logged


def test_genetic_generations_draw_no_population_sized_array(monkeypatch):
    """Only the initial population draws population x pairs values: a
    generation draws its parents, cuts, a mutation count, that many sites
    and one gene per site, never a full matrix to mask. One default run on
    4x2x2x2."""
    rg = prepared((4, 2, 2, 2))[1]
    logs = []
    seeded = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: logs.append(
        _DrawLog(seeded(seed))) or logs[-1])
    params = GeneticParams()
    table = build_rt_genetic(rg, params=params)
    (log,) = logs
    full = params.population * table.stats.total_pairs
    assert log.sizes[0] == full
    assert table.stats.generations > 0
    assert max(log.sizes[1:]) < full


@pytest.mark.parametrize("dims", [(4, 2, 2, 2), (6, 2, 2)])
def test_genetic_scores_each_generation_in_one_deviation_call(dims,
                                                              monkeypatch):
    """One ``deviation`` call scores the initial population and one scores
    each generation's kids, as the benchmark's ``algorithms.genetic_evals``
    counter assumes. One default run each."""
    calls = []
    monkeypatch.setattr(algorithms, "deviation", lambda *args: calls.append(
        args) or deviation(*args))
    table = build_rt_genetic(prepared(dims)[1], params=GeneticParams())
    assert table.stats.generations > 0
    assert len(calls) == table.stats.generations + 1


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
