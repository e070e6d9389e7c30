"""Routing-table generators over the routing graph.

Every generator keeps shortest routing-graph paths as link chains (the
channel ids along a path) to the end, and ``routes.encode_chains`` writes a
finished table's chains straight into its columns; no generator builds a
``Route``.

Three generators share one load ledger convention: a per-channel counter that
every chosen route increments along its physical links. An edge weighs the
load of its link, so all routing-graph edges over one cable weigh the same.

* ``build_rt_bfs``: iterated breadth-first trees, sources ordered by a
  most-remote heuristic, each level's frontier expanded lightest arrival
  first. Every in-edge of a vertex crosses the same link, so the arrival
  load that orders a frontier is known from the ledger before the search:
  hop levels come from one level search per batch of sources, and each
  source's tree is picked in one array pass over the edges.
* ``build_rt_genetic``: a genetic search over per-pair minimal route variants
  with two-point crossover, panmictic parent selection, per-gene mutation and
  elitist truncation, scored by the deviation metric. A variant is the link
  chain of a shortest routing-graph path, read off the edges undecoded. Each
  individual keeps its channel loads as a row that moves with it; a kid's
  row is its first parent's, corrected over the genes where they differ, so
  a generation is bred with array masks and scored in one pass.
* ``build_rt_sssp``: unique minimal routes fixed first, the remaining pairs
  grouped by (turn count, length, source) and served by a repeated
  least-load dynamic program over the group's hop-level DAG (the edges that
  raise the hop level by one, into the ancestors of the group's end
  vertices), so hop count decides first and load only breaks ties. Stage 1
  needs no ledger, so one level search serves a batch of sources and one
  array walk reads every pair's canonical chain off the batch's parent
  trees. The DAG is built once per group as parallel tail/head/link lists
  over dense local vertex ids; each call runs the program over those lists
  and reads every chain back through its parents' tails and links.

Every hop-level search runs on one kernel, ``_levels``, over one or more
begin vertices at once; ``_hop_levels`` keeps only its levels and
``_bfs_count`` adds path counts and least-edge-id parents. Every
breadth-first parent tree is read back by one array walk, ``_tree_chains``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import UnroutablePairError
from .metrics import deviation, perfect_channel_load
from .routes import (Route, RoutingTable, _padded, _stack, encode_chains,
                     route_rows)
from .routing_graph import DUMMY_LINK, RoutingGraph
from .topology import most_remote

VARIANT_CAP = 128  # minimal route variants kept per pair


@dataclass
class GeneticParams:
    population: int = 100
    mutation: float = 0.02
    stagnation_limit: int = 30
    epsilon: float = 0.05
    seed: int = 0
    max_generations: int | None = None

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if not 0.0 <= self.mutation <= 1.0:
            raise ValueError("mutation probability must be in [0, 1]")
        # a negative epsilon would never let the search stagnate
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must be in [0, 1)")
        # a limit below 1 would stop the search before its first generation
        if self.stagnation_limit < 1:
            raise ValueError("stagnation limit must be >= 1")
        if self.max_generations is not None and self.max_generations < 0:
            raise ValueError("max generations must be >= 0")


@dataclass
class GenerationStats:
    algo: str
    link_increments: np.ndarray
    sssp_calls: int = 0
    generations: int = 0
    unique_pairs: int = 0
    total_pairs: int = 0
    fitness_history: list[float] = field(default_factory=list)


# -- shared search kernels ----------------------------------------------------

# (rows x n_vertices) cells of one source-batched level search: bounds the
# flat per-vertex arrays of a batch, whatever the topology's size
_BATCH_CELLS = 1 << 17


def _matrix(chains) -> np.ndarray:
    """Link chains (a list or dict view) as matrix rows padded with -1."""
    lens = np.array([len(c) for c in chains], dtype=np.intp)
    flat = np.fromiter(chain.from_iterable(chains), dtype=np.int32,
                       count=int(lens.sum()))
    return _padded(flat, lens, int(lens.max(initial=1)), np.int32)


def _routes(rg: RoutingGraph, source: int, chains: np.ndarray) -> list[Route]:
    """The Routes of one source's link chains, in their order."""
    return list(route_rows(encode_chains(
        rg.topology, np.full(len(chains), source), chains, rg.relaxed)[0]))


def _levels(rg: RoutingGraph, begins):
    """Hop levels of the routing graph from each of ``begins`` at once, one
    level per yield.

    Row r searches from ``begins[r]``, and its vertex v has the flat id
    ``r * n_vertices + v``, so rows never meet and with one begin flat ids
    are vertex ids. Yields (new flat ids ascending, open edge ids, open flat
    heads); the open edges leave the frontier for vertices their row has not
    reached before, so they are the in-edges of the new vertices from the
    level below.
    """
    nv = rg.n_vertices
    rows = len(begins)
    frontier = np.asarray(begins, dtype=np.int64) + nv * np.arange(rows)
    reached = np.zeros(rows * nv, dtype=bool)
    reached[frontier] = True
    while len(frontier):
        verts = frontier % nv if rows > 1 else frontier
        starts = rg.indptr[verts]
        counts = rg.indptr[verts + 1] - starts
        eids = np.arange(int(counts.sum()), dtype=np.int64)
        eids += np.repeat(starts - (np.cumsum(counts) - counts), counts)
        heads = rg.edge_head[eids].astype(np.int64)
        if rows > 1:  # into the tail's row
            heads += np.repeat(frontier - verts, counts)
        open_m = ~reached[heads]
        eids, heads = eids[open_m], heads[open_m]
        if not len(eids):
            return
        new = np.zeros_like(reached)
        new[heads] = True
        frontier = np.flatnonzero(new)
        reached[frontier] = True
        yield frontier, eids, heads


def _hop_levels(rg: RoutingGraph, sources) -> np.ndarray:
    """Hop levels from each of ``sources`` in one level search, one row of
    ``n_vertices`` per source, -1 where unreached."""
    begins = rg.begin_vid(np.asarray(sources, dtype=np.int64))
    dist = np.full((len(begins), rg.n_vertices), -1, dtype=np.int32)
    dist[np.arange(len(begins)), begins] = 0
    flat = dist.reshape(-1)
    for level, (new, _, _) in enumerate(_levels(rg, begins), 1):
        flat[new] = level
    return dist


def _bfs_count(rg: RoutingGraph, sources):
    """(hop levels, shortest-path counts, least-edge-id parent edges) from
    each of ``sources`` in one level search, one row of ``n_vertices`` per
    source. Levels and parents read -1 where unreached, and the begin
    vertex has no parent edge."""
    shape = (len(sources), rg.n_vertices)
    dist = np.full(shape, -1, dtype=np.int32)
    counts = np.zeros(shape, dtype=np.int64)
    parent_edge = np.full(shape, rg.n_edges, dtype=np.int64)  # none yet
    begins = rg.begin_vid(np.asarray(sources, dtype=np.int64))
    at_begin = (np.arange(len(begins)), begins)
    dist[at_begin] = 0
    counts[at_begin] = 1
    flat_dist, flat_counts, flat_parent = (
        a.reshape(-1) for a in (dist, counts, parent_edge))
    for level, (new, eids, heads) in enumerate(_levels(rg, begins), 1):
        flat_dist[new] = level
        # each open edge's flat tail: its head's row, its own tail vertex
        tails = heads - rg.edge_head[eids] + rg.edge_tail[eids]
        np.add.at(flat_counts, heads, flat_counts[tails])
        np.minimum.at(flat_parent, heads, eids)
    parent_edge[parent_edge == rg.n_edges] = -1
    return dist, counts, parent_edge


def _source_batches(rg: RoutingGraph, sources):
    """Consecutive slices of ``sources`` whose level searches hold at most
    ``_BATCH_CELLS`` cells each (one source at the least)."""
    step = max(1, _BATCH_CELLS // rg.n_vertices)
    return [sources[i:i + step] for i in range(0, len(sources), step)]


def _tree_chains(rg: RoutingGraph, sources, parent_edge: np.ndarray,
                 depth: int) -> np.ndarray:
    """Link chains of the parent-tree paths from each source to every other
    live node, in pair order, padded with -1.

    Row r of ``parent_edge`` holds the tree from ``sources[r]`` (flat, as
    ``_levels`` numbers vertices); no tree path has more than ``depth``
    edges. Every pair walks back from its end vertex at once, one gather of
    parent edge, link and tail per hop, filling its row from the right. A
    walk that has reached its begin vertex reads the sentinel edge -1, whose
    link and tail ``RoutingGraph.walk_edges`` holds: DUMMY_LINK, and vertex
    0 of the row, so the walk stays there. The DUMMY_LINKs are then dropped
    and the rows left-aligned. Raises UnroutablePairError naming every
    destination that the first source with one cannot reach, in destination
    order.
    """
    t = rg.topology
    sources = np.asarray(sources, dtype=np.int64)
    nodes = np.array(t.live_nodes, dtype=np.int64)
    src = np.repeat(sources, len(nodes))
    dst = np.tile(nodes, len(sources))
    row_base = np.repeat(np.arange(len(sources)) * rg.n_vertices, len(nodes))
    pair = dst != src
    src, dst, row_base = src[pair], dst[pair], row_base[pair]
    parent = parent_edge.reshape(-1)
    cur = row_base + rg.end_vid(dst)
    unreached = parent[cur] < 0
    if unreached.any():
        first = src[np.argmax(unreached)]
        raise UnroutablePairError(
            [(t.coord_str(first), t.coord_str(d))
             for d in dst[unreached & (src == first)].tolist()])
    link, tail = rg.walk_edges
    hops = np.empty((len(cur), depth), dtype=np.int32)
    for col in range(depth - 1, -1, -1):
        e = parent[cur]
        hops[:, col] = link[e]
        cur = row_base + tail[e]
    kept = hops != DUMMY_LINK
    lens = kept.sum(axis=1)
    return _padded(hops[kept], lens, int(lens.max(initial=1)), np.int32)


def _lightest_parents(rg: RoutingGraph, level: np.ndarray,
                      loads: np.ndarray) -> np.ndarray:
    """Per vertex, its in-edge from the hop level below with the least
    (load of the link its tail was entered by, edge id); -1 where none.

    ``level`` holds one source's hop levels (-1 where unreached). Every
    in-edge of a vertex crosses one link (``RoutingGraph.in_link``), so the
    key of an edge is known from the ledger alone, before any search. The
    begin vertex, which no edge enters, reads DUMMY_LINK (-1), so the ledger
    ends with one more entry, a 0.
    """
    tail, head, arrival = rg.wide_edges
    e = np.flatnonzero(level[tail] + 1 == level[head])
    key = loads[arrival[e]].astype(np.int64)
    # the least (key, edge id) as the least key * n_edges + edge id
    none = np.iinfo(np.int64).max
    best = np.full(rg.n_vertices, none)
    np.minimum.at(best, head[e], key * rg.n_edges + e)
    return np.where(best < none, best % rg.n_edges, -1)


def _bfs_chains(rg: RoutingGraph, source: int, level: np.ndarray,
                loads: np.ndarray) -> np.ndarray:
    """Breadth-first tree chains from one source, then weight bookkeeping.

    Lightest arrival first: a vertex's parent is its in-edge from the level
    below with the least (load of the link the tail arrived over, edge id),
    picked in one array pass (``_lightest_parents``). Edge ids are
    tail-major, so this is the first claimant when each frontier is
    expanded in ascending arrival load, ties by vertex id. ``level`` holds
    the source's hop levels, which no ledger changes; ``loads`` ends with
    the 0 that DUMMY_LINK reads. After the tree is read back, every chain
    adds one unit of load to each physical link it crosses; an unroutable
    pair raises before any load is added.
    """
    chains = _tree_chains(rg, [source], _lightest_parents(rg, level, loads),
                          int(level.max()))
    loads += np.bincount(chains[chains >= 0], minlength=len(loads))
    return chains


def build_bfs_routes(rg: RoutingGraph, source: int,
                     loads: np.ndarray) -> dict[int, Route]:
    """Breadth-first routes from one source; see ``_bfs_chains``."""
    rg.topology.check_nodes([source])
    ledger = np.append(loads, 0)
    chains = _bfs_chains(rg, source, _hop_levels(rg, [source])[0], ledger)
    loads[:] = ledger[:-1]
    return {r.dst: r for r in _routes(rg, source, chains)}


def _most_remote_order(t) -> list[int]:
    """The live nodes in ``build_rt_bfs``'s source order: the first live
    node, then each time the remaining node most remote from the last."""
    order = [t.live_nodes[0]]
    remaining = set(t.live_nodes[1:])
    while remaining:
        order.append(most_remote(t, remaining, order[-1]))
        remaining.discard(order[-1])
    return order


def build_rt_bfs(rg: RoutingGraph) -> RoutingTable:
    """Iterated-BFS routing table; the next source is the most remote node.

    Neither the source order nor the hop levels depend on the ledger, so one
    level search serves a batch of sources in that order
    (``_source_batches``); each source's tree is then picked against the
    ledger its predecessors left (``_bfs_chains``).
    """
    t = rg.topology
    loads = np.zeros(t.n_channels + 1, dtype=np.int64)  # DUMMY_LINK's 0 last
    chains = {}
    for part in _source_batches(rg, _most_remote_order(t)):
        for source, level in zip(part, _hop_levels(rg, part)):
            chains[source] = _bfs_chains(rg, source, level, loads)
    src = np.repeat(t.live_nodes, len(t.live_nodes) - 1)  # pair order
    cols = encode_chains(t, src, _stack([chains[s] for s in t.live_nodes]),
                         rg.relaxed)[0]
    return RoutingTable(t, columns=cols, stats=GenerationStats(
        "bfs", loads[:-1], total_pairs=len(cols.src)))


def _rg_chains(rg: RoutingGraph, dist: np.ndarray, end: int,
               budget: int) -> tuple[list[tuple[int, ...]], bool]:
    """(link chains, truncated) of the shortest paths into ``end``.

    ``dist`` holds one source's hop levels (-1 where unreached). The walk
    goes depth first back from ``end`` over the in-edges in edge-id order,
    onto tails one level lower, down to the begin vertex (the only one at
    level 0). One chain per path, in the order the walk finds them;
    truncated once ``budget`` paths are found. It does not use
    ``_level_dag``, so it can serve as a reference for that DAG.
    """
    ins, dist = rg.in_edges(), memoryview(dist)
    chains: list[tuple[int, ...]] = []
    # frames[k]: the in-edges left to try at the vertex k hops back from
    # ``end``; path[k]: the link of the one the walk is following
    frames = [iter(ins[end])]
    path: list[int] = []
    while frames:
        level = dist[end] - len(path) - 1  # of the top frame's tails
        e = next((e for e in frames[-1] if dist[e[0]] == level), None)
        if e is None:
            frames.pop()
            if path:
                path.pop()
        elif level:
            path.append(e[1])
            frames.append(iter(ins[e[0]]))
        else:
            chains.append(tuple(x for x in (e[1], *reversed(path))
                                if x != DUMMY_LINK))
            if len(chains) >= budget:
                return chains, True
    return chains, False


def _variant_chains(rg: RoutingGraph, dist: np.ndarray, src: int, dst: int,
                    cap: int) -> tuple[list[tuple[int, ...]], bool]:
    """(distinct minimal link chains src->dst, truncated), at most ``cap``.

    From one source equal chains mean equal physical steps, so the paths
    that encode one route (body vs first/last-step encodings, at most four)
    collapse to one chain; the path budget is 4*cap. Raises
    UnroutablePairError when ``dist`` does not reach ``dst``.
    """
    end = rg.end_vid(dst)
    if dist[end] < 0:
        raise UnroutablePairError([(rg.topology.coord_str(src),
                                    rg.topology.coord_str(dst))])
    chains, truncated = _rg_chains(rg, dist, end, 4 * cap)
    distinct = list(dict.fromkeys(chains))
    if len(distinct) > cap:
        del distinct[cap:]
        truncated = True
    return distinct, truncated


def enumerate_minimal_routes(rg: RoutingGraph, src: int, dst: int,
                             cap: int = VARIANT_CAP):
    """(variants, truncated): distinct minimal routes in deterministic order.

    One variant per distinct link chain of the shortest routing-graph paths
    (``_variant_chains``), in the order the walk back from the end vertex
    finds them, each in its least-non-standard legal encoding.
    """
    rg.topology.check_nodes((src, dst))
    if src == dst:
        raise ValueError(f"dst must differ from src, both are {src}")
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    chains, truncated = _variant_chains(rg, _hop_levels(rg, [src])[0], src,
                                        dst, cap)
    return _routes(rg, src, np.array(chains)), truncated


def _pair_stats(rg: RoutingGraph):
    """(hop levels per source, columns of every pair's canonical route in
    pair order, unique mask, their link chains padded with -1).

    One level search serves a batch of sources (``_source_batches``), and
    one array walk reads every pair's canonical chain off the batch's
    least-edge-id parent trees (``_tree_chains``). A pair's minimal route is
    unique exactly when its shortest routing-graph paths are as many as the
    canonical chain's legal splits, since a second physical route would add
    splits of its own.
    """
    t = rg.topology
    nodes = np.array(t.live_nodes, dtype=np.int64)
    ends = rg.end_vid(nodes)
    levels: dict[int, np.ndarray] = {}
    chains, paths = [], []
    for part in _source_batches(rg, nodes):
        dist, counts, parent_edge = _bfs_count(rg, part)
        deepest = int(dist.max(initial=0))
        chains.append(_tree_chains(rg, part, parent_edge, deepest))
        paths.append(counts[:, ends][nodes != part[:, None]])
        # the narrowest signed type that holds the deepest level
        narrow = np.min_scalar_type(-1 - deepest)
        levels.update(zip(part.tolist(), dist.astype(narrow)))
    links = _stack(chains)
    src = np.repeat(nodes, len(nodes) - 1)
    cols, legal = encode_chains(t, src, links, rg.relaxed)
    unique = np.concatenate(paths) == legal.sum(axis=1)
    return levels, cols, unique, links


def unique_route_stats(rg: RoutingGraph) -> tuple[int, int]:
    """(pairs with a single minimal route, total ordered pairs)."""
    unique = _pair_stats(rg)[2]
    return int(unique.sum()), len(unique)


def _level_dag(rg: RoutingGraph, level: np.ndarray, ends):
    """The ancestors of ``ends`` on one source's hop-level DAG, in local ids.

    ``level`` holds every vertex's hop level from the source, -1 where
    unreached. An edge lies on the DAG when its tail's level is one less
    than its head's. Returns ((tail, head, link, begin), end ids): the DAG
    edges as parallel lists over dense local vertex ids, the begin vertex's
    local id (-1 when no end is reached), and each end's local id in
    ``ends`` order (-1 where unreached). The walk goes back from the ends
    one level at a time, deepest first, and numbers vertices as it meets
    them, so the begin vertex, alone at level 0, comes last. The edges are
    listed level by level from the begin vertex up, so every tail is settled
    before the heads it leads to, and each head's in-edges are adjacent in
    edge-id order.
    """
    ins, level = rg.in_edges(), memoryview(level)
    local: dict[int, int] = {}  # vertex id -> local id
    todo = [[] for _ in range(max([0, *(level[v] for v in ends)]) + 1)]
    for v in ends:
        if level[v] > 0 and v not in local:
            local[v] = len(local)
            todo[level[v]].append(v)
    end_ids = [local.get(v, -1) for v in ends]
    tails, heads, links = [], [], []  # one list per level, deepest first
    for lv in range(len(todo) - 2, -1, -1):  # the tails' level
        below = todo[lv]
        tail, head, link = [], [], []
        for v in todo[lv + 1]:
            x = local[v]
            for u, l in ins[v]:
                if level[u] == lv:
                    i = local.get(u)
                    if i is None:
                        i = local[u] = len(local)
                        below.append(u)
                    tail.append(i)
                    head.append(x)
                    link.append(l)
        tails.append(tail)
        heads.append(head)
        links.append(link)
    dag = (list(chain.from_iterable(reversed(lists)))
           for lists in (tails, heads, links))
    return (*dag, len(local) - 1), end_ids


def _least_load_chains(dag: tuple, ends, load: list[int]) -> list[list[int]]:
    """Least-load minimal-hop link chains into the given ends of a DAG.

    A dynamic program over ``_level_dag``'s edges in their order: a vertex's
    parent is its in-edge with the least (load of the path to the tail plus
    the load of the edge's link, edge id). Every in-edge of a vertex leaves
    the level just below it, so the chains are hop-minimal and load only
    breaks ties. ``load`` is indexed by link id and reads 0 at DUMMY_LINK
    (-1). Each chain is read back from its end through the parents' tails
    and links; ``ends`` are reached END vertices, whose in-edges carry no
    link.
    """
    tail, head, link, begin = dag
    if begin < 0:  # no end reached, so none asked for
        return []
    cost = [1 << 62] * (begin + 1)
    cost[begin] = 0
    parent = [begin] * (begin + 1)  # the local id of the parent edge's tail
    via = [0] * (begin + 1)  # and its link
    for u, v, l in zip(tail, head, link):
        c = cost[u] + load[l]
        if c < cost[v]:  # ties keep the lower edge id, listed first
            cost[v] = c
            parent[v] = u
            via[v] = l
    out = []
    for x in ends:
        links = []
        x = parent[x]  # past the ejection
        while x != begin:
            links.append(via[x])
            x = parent[x]
        links.reverse()
        out.append(links)
    return out


def build_sssp(rg: RoutingGraph, source: int, dst_nodes,
               loads: np.ndarray) -> dict[int, Route]:
    """Least-load minimal-hop route tree slice for a destination set.

    A least-load dynamic program over the source's hop-level DAG, restricted
    to the ancestors of the destinations (``_level_dag``,
    ``_least_load_chains``): hop count decides first; among the in-edges of
    one vertex the least loaded path wins, ties by edge id. ``loads`` is
    read, not changed. Raises UnroutablePairError naming every unreached
    destination, in destination order.
    """
    dsts = [d for d in dst_nodes if d != source]
    rg.topology.check_nodes([source, *dsts])
    dag, ends = _level_dag(rg, _hop_levels(rg, [source])[0],
                           [rg.end_vid(d) for d in dsts])
    missing = [d for d, x in zip(dsts, ends) if x < 0]
    if missing:
        t = rg.topology
        raise UnroutablePairError(
            [(t.coord_str(source), t.coord_str(d)) for d in missing])
    chains = _least_load_chains(dag, ends, loads.tolist() + [0])
    return {r.dst: r for r in _routes(rg, source, _matrix(chains))}


def build_rt_sssp(rg: RoutingGraph,
                  skip_unique_stage: bool = False) -> RoutingTable:
    """Two-stage shortest-path routing table (unique routes, sort and group).

    Stage 1 fixes every pair with a single minimal route; the rest are
    pending, grouped by (turn count, length, source). It runs no ledger, so
    its searches go in batches of sources (``_pair_stats``): one level
    search and one array read-back per batch. Stage 2 builds each
    group's hop-level DAG from stage 1's hop levels when it reaches the
    group (``_level_dag``, in local vertex ids), then runs the least-load
    dynamic program on it against the live ledger, once per call
    (``_least_load_chains``), until every pair of the group is routed. A
    call routes, in pair order, each chain that shares no link with a chain
    routed before it in the same call.
    ``stats.sssp_calls`` counts stage 2's shortest-path trees: at least one
    per pending group, at most one per pending pair (each call routes at
    least one pair), and zero when stage 1 fixes every pair.

    ``skip_unique_stage`` keeps stage 1's measurements but routes every pair
    through stage 2, which is the instrumentation baseline for call counts.
    """
    t = rg.topology
    levels, cols, unique, links = _pair_stats(rg)
    fixed = unique & (not skip_unique_stage)
    fixed_links = links[fixed]
    # the ledger; DUMMY_LINK (-1) reads the 0 at its end
    load = np.bincount(fixed_links[fixed_links >= 0],
                       minlength=t.n_channels + 1).tolist()
    steps = cols.steps[~fixed]
    turns = ((steps[:, 1:] != steps[:, :-1]) & (steps[:, 1:] >= 0)).sum(axis=1)
    pending: dict[tuple[int, int, int], list[int]] = {}  # key -> rows
    for row, turn, length, src in zip(
            np.flatnonzero(~fixed).tolist(), turns.tolist(),
            cols.length[~fixed].tolist(), cols.src[~fixed].tolist()):
        pending.setdefault((turn, length, src), []).append(row)

    dst_of = cols.dst.tolist()
    calls = 0
    for key in sorted(pending):
        rows = pending[key]
        dag, ends = _level_dag(rg, levels[key[2]],
                               [rg.end_vid(dst_of[r]) for r in rows])
        while rows:
            calls += 1
            used, left = set(), []
            for row, end, chosen in zip(rows, ends,
                                        _least_load_chains(dag, ends, load)):
                if used.isdisjoint(chosen):
                    used.update(chosen)
                    links[row, :len(chosen)] = chosen  # as long as the old
                else:
                    left.append((row, end))
            for link in used:
                load[link] += 1
            rows, ends = [r for r, _ in left], [x for _, x in left]

    stats = GenerationStats("sssp", np.array(load[:-1], dtype=np.int64),
                            sssp_calls=calls, unique_pairs=int(unique.sum()),
                            total_pairs=len(unique))
    return RoutingTable(t, stats=stats, columns=encode_chains(
        t, cols.src, links, rg.relaxed)[0])


# -- genetic ------------------------------------------------------------------

def _variant_tables(rg: RoutingGraph):
    """(source, variant count and first variant row of every pair in pair
    order, every variant's link chain padded with -1).

    Raises UnroutablePairError naming every destination the first source
    with one cannot reach, in destination order.
    """
    t = rg.topology
    nodes = t.live_nodes
    counts, variants = [], []
    for part in _source_batches(rg, nodes):
        for source, dist in zip(part, _hop_levels(rg, part)):
            unreached = [(t.coord_str(source), t.coord_str(dst))
                         for dst in nodes
                         if dst != source and dist[rg.end_vid(dst)] < 0]
            if unreached:
                raise UnroutablePairError(unreached)
            rows = []
            for dst in nodes:
                if dst != source:
                    chains = _variant_chains(rg, dist, source, dst,
                                             VARIANT_CAP)[0]
                    counts.append(len(chains))
                    rows += chains
            variants.append(_matrix(rows))
    counts = np.array(counts, dtype=np.int64)
    return (np.repeat(nodes, len(nodes) - 1), counts,
            np.cumsum(counts) - counts, _stack(variants))


def build_rt_genetic(rg: RoutingGraph,
                     params: GeneticParams | None = None) -> RoutingTable:
    """Genetic search over minimal route variants, scored by deviation.

    Selection keeps the best individual first, and it is the result. With
    one live node there is no pair to route and no channel to score, and
    the table is empty.
    """
    t = rg.topology
    params = params or GeneticParams()
    src, counts, offsets, links = _variant_tables(rg)
    if not len(src):
        return RoutingTable(t, columns=encode_chains(t, src, links,
                                                     rg.relaxed)[0],
                            stats=GenerationStats("genetic", np.zeros(
                                t.n_channels, dtype=np.int64)))
    gp = perfect_channel_load(t)
    width = t.n_channels + 1  # pads count in the last column
    counted = np.where(links < 0, t.n_channels, links)
    rng = np.random.default_rng(params.seed)

    pop_n = params.population
    # genes fit in uint8: a pair has at most VARIANT_CAP (128) variants
    pop = rng.integers(0, counts, size=(pop_n, len(src)),
                       dtype=np.int64).astype(np.uint8)
    loads = np.array([np.bincount(counted[offsets + g].ravel(),
                                  minlength=width) for g in pop])
    fits = deviation(loads[:, :-1], gp, 4)
    order = np.argsort(fits, kind="stable")
    pop, loads, fits = pop[order], loads[order], fits[order]
    history = [float(fits[0])]
    # the stagnation bar re-anchors only on significant improvements, so
    # steady slow progress keeps the search alive
    anchor, stagnant, generations = history[0], 0, 0
    most = (float("inf") if params.max_generations is None
            else params.max_generations)
    half = pop_n // 2 + pop_n % 2
    locus = np.arange(len(src))
    while stagnant < params.stagnation_limit and generations < most:
        generations += 1
        parents = rng.integers(0, pop_n, size=(half, 2))
        cuts = np.sort(rng.integers(0, len(src) + 1, size=(half, 2)), axis=1)
        # pair i breeds kid 2i from its parents in order and kid 2i + 1 from
        # them swapped, each taking the other parent's genes between the
        # cuts; an odd population drops the last kid
        first = parents.reshape(-1)[:pop_n]
        other = parents[:, ::-1].reshape(-1)[:pop_n]
        lo, hi = (np.repeat(c, 2)[:pop_n, None] for c in cuts.T)
        base = pop[first]
        kids = np.where((lo <= locus) & (locus < hi), pop[other], base)
        mask = rng.random(kids.shape) < params.mutation
        redraw = rng.integers(0, counts, size=kids.shape, dtype=np.int64)
        kids[mask] = redraw[mask]
        # each kid's loads: its first-named parent's, plus the variants it
        # takes and minus those it drops where their genes differ
        kid, pair = np.nonzero(kids != base)
        taken, dropped = (np.bincount(
            (kid[:, None] * width + counted[offsets[pair] + g[kid, pair]])
            .ravel(), minlength=pop_n * width) for g in (kids, base))
        kid_loads = loads[first] + (taken - dropped).reshape(pop_n, width)
        kid_fits = deviation(kid_loads[:, :-1], gp, 4)

        order = np.argsort(np.concatenate([fits, kid_fits]),
                           kind="stable")[:pop_n]
        pop, loads, fits = (np.concatenate(both)[order] for both in (
            (pop, kids), (loads, kid_loads), (fits, kid_fits)))
        history.append(float(fits[0]))
        stagnant += 1
        if history[-1] < anchor * (1.0 - params.epsilon):
            anchor, stagnant = history[-1], 0

    cols = encode_chains(t, src, links[offsets + pop[0]], rg.relaxed)[0]
    stats = GenerationStats("genetic", loads[0, :-1],
                            generations=generations, total_pairs=len(src),
                            fitness_history=history)
    return RoutingTable(t, columns=cols, stats=stats)
