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
  hop levels come from one level search per batch of sources, they name
  the only edges that can be parents (``_parent_candidates``, read head by
  head off ``RoutingGraph.back_edges``), and every source's tree is picked
  in one array pass over its representative's (``_bfs_chains``).
* ``build_rt_genetic``: a genetic search over per-pair minimal route variants
  with two-point crossover, panmictic parent selection, per-gene mutation and
  elitist truncation, scored by the deviation metric. A variant is the link
  chain of a shortest routing-graph path, read off the edges undecoded, and
  one capped listing (``_variant_lists``) gives every pair its variants. Each
  individual keeps its channel loads as a row that moves with it; a kid's
  row is its first parent's, corrected over the genes where they differ.
  Both kids of a couple differ from their first-named parents at the same
  genes, the window genes where the parents differ, so one count of those
  genes' chains corrects both rows with opposite signs; a mutated site
  swaps the chain of the gene it overwrites for its new one, and one
  ``deviation`` call scores the generation. Mutation draws only what it
  uses: a binomial count of sites over the generation's genes, that many
  distinct sites, and one variant per site, uniform over its pair's; each
  gene still mutates alone with the mutation probability.
* ``build_rt_sssp``: unique minimal routes fixed first, the remaining pairs
  grouped by (turn count, length, source) and served by repeated calls that
  give each pair the first of its shortest routing-graph paths with the
  least summed load, so hop count decides first and load only breaks ties.
  Stage 1 needs no ledger, so one level search serves a batch of sources
  and one array walk reads every pair's canonical chain off the batch's
  parent trees; its encoding is already the final one of every pair it
  fixes. Stage 2 needs no search of its own: a pending pair has few
  shortest paths, and one array walk back from the end vertices over stage
  1's hop levels, ``_path_chains``, lists them all as link chains before
  the first call (``_pending_chains``); each call only sums their loads.
  Only the pending pairs' chosen chains are encoded again, into stage 1's
  columns.

Every hop-level search runs on one kernel, ``_levels``, over one or more
begin vertices at once; ``_hop_levels`` keeps only its levels and
``_bfs_count`` adds path counts and least-edge-id parents. Every consumer
reads only paths that end at an END vertex (Theorem 1), and no vertex on a
shortest path to an END lies deeper than that END, so a search stops once
each of its rows has reached the END of every live node; vertices past the
deepest END read as unreached. Every breadth-first parent tree is read
back by one array walk, ``_tree_chains``, and every list of shortest paths
by another, ``_path_chains``: the paths that ``build_sssp`` and stage 2
choose from, the capped variants of the genetic search and of
``enumerate_minimal_routes``, and the routes that
``oracle.oracle_equivalence`` holds against the rules.

Every step that reads no ledger runs once per translation orbit
(``_Orbits``): stage 1 of ``build_rt_sssp`` and its stage-2 path listing,
and the hop levels and parent candidates of ``build_rt_bfs``. Every source
takes the same path; a node that is its own orbit is the case where every
map is the identity. On a
topology with no failed node or link, shifting the whole system along its
wrap-around axes (size 3 or more) maps the routing graph onto itself, as
long as it maps the relaxed turns onto themselves: the block template is
wired the same at every node, and so is every turn of a shift-invariant
set. ``_orbit_axes`` does not assume that ``augment_cdg``'s turn set is
invariant: it moves every turn one step along each wrap-around axis, and
unless that gives back the same set it keeps every node its own orbit, as
it does under any fault. Edge ids survive the shift in order: every
in-edge of a vertex leaves one node (``RoutingGraph.in_link``), relaxed
edges among them, and no two share a tail, so edge-id order among a
vertex's in-edges is the order of their tails' offsets in that node's
block, which a shift keeps. Hop levels, path counts, least-edge-id parent
trees, canonical chains, their encodings and uniqueness, and the
depth-first lists of shortest paths are then the shifted copies of the
orbit's representative's. A ledger-driven pick stays per source but runs
in the representative's frame: ``bfs`` reads the ledger through the
source's link map, picks among its representative's parent candidates and
maps the chains back before they add load; stage 2's calls read the lists
mapped to each source. ``_Orbits`` holds the only two maps from a
representative's frame to a source's: the row of a pair's representatives'
pair in stage 1's pair order (``pair_rows``) and link ids
(``links_to_sources``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import UnroutablePairError
from .metrics import deviation, perfect_channel_load
from .routes import (Route, RoutingTable, _id_dtype, _padded, _stack,
                     encode_chains, route_rows)
from .routing_graph import DUMMY_LINK, RoutingGraph

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
        # numpy seeds its generator from non-negative integers only
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class GenerationStats:
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
# pairs per batch of ``_path_chains`` and of ``_pair_stats``' shifted rows:
# bounds their per-pair arrays
_PATH_BATCH = 2048


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

    The search stops before the first level at which every row has reached
    the END vertex of every live node (its own END, one edge from BEGIN,
    among them), so the last level yielded holds the batch's deepest END.
    Every level, count and parent on a shortest path to an END is complete
    by then. While some row has a live END unreached, the search runs until
    no vertex is left.
    """
    nv = rg.n_vertices
    rows = len(begins)
    row_base = nv * np.arange(rows)
    frontier = np.asarray(begins, dtype=np.int64) + row_base
    reached = np.zeros(rows * nv, dtype=bool)
    reached[frontier] = True
    # every row's END vertex of every live node, its own END among them
    ends = (row_base[:, None] + rg.end_vid(
        np.array(rg.topology.live_nodes, dtype=np.int64))).reshape(-1)
    while len(frontier) and not reached[ends].all():
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
    ``n_vertices`` per source, -1 where unreached or deeper than the
    search's deepest END vertex (``_levels``)."""
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
    source. Levels and parents read -1 and counts 0 where unreached or
    deeper than the search's deepest END vertex (``_levels``), and the
    begin vertex has no parent edge."""
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


def _orbit_axes(rg: RoutingGraph) -> np.ndarray:
    """Per axis, whether a shift along it maps the routing graph onto
    itself: a wrap-around axis (size 3 or more) of a topology with no failed
    node or link whose relaxed turns are shift-invariant. A mesh axis (size
    2) never shifts. The relaxed set is checked, not assumed: it must give
    itself back when every turn moves one step along each wrap-around axis,
    or no axis shifts."""
    t = rg.topology
    axes = np.array([size >= 3 for size in t.dims])
    if t.failed_nodes or t.failed_links or not axes.any():
        return np.zeros_like(axes)
    nbr = t.neighbor_rows
    for a in np.flatnonzero(axes).tolist():  # +a is direction a
        moved = {((nbr[ui][a], di), (nbr[uj][a], dj))
                 for (ui, di), (uj, dj) in rg.relaxed}
        if moved != rg.relaxed:
            return np.zeros_like(axes)
    return axes


class _Orbits:
    """The translation orbits of a routing graph's nodes, built once per
    generator call, and the one place that maps a representative's frame to
    a source's.

    ``rep`` gives every node id its representative: the node with its
    coordinates on the shifting axes (``_orbit_axes``) set to 0. The shift
    that takes the representative to the node maps the routing graph onto
    itself, so every search from the one is the other's, shifted. ``reps``
    holds the live nodes' representatives, ascending, and ``dests`` the
    number of destinations of every source. ``pair_rows`` maps pairs,
    through ``shift[s, u]``, node u as seen from source s's representative,
    and ``links_to_sources`` maps link ids, through its inverse
    ``unshift[s]``: two node tables of every source, built only where read.
    ``single`` says that no axis shifts: every node is then its own orbit
    and every map the identity, which the two steps that would only copy
    through one skip (``links_to_sources`` and ``_pair_stats``' reorder).
    Coordinates, strides and the node of each link id are read off the
    topology's layout arrays (``grid``, ``strides``, ``channel_node``).
    """

    def __init__(self, rg: RoutingGraph):
        t = self.topology = rg.topology
        moves = _orbit_axes(rg)
        self._moves = np.flatnonzero(moves)
        self.single = not len(self._moves)
        self.rep = t.strides @ np.where(moves[:, None], 0, t.grid)
        nodes = np.array(t.live_nodes, np.intp)
        self.reps = np.unique(self.rep[nodes])
        self.dests = len(nodes) - 1
        self._slot = np.zeros(t.num_coords, dtype=np.intp)  # among the live
        self._slot[nodes] = np.arange(len(nodes))

    def _frame(self, sign: int) -> np.ndarray:
        """Per node id s, one row over the node ids: each node as seen from
        s's representative (sign -1), or back (sign 1). With no shifting
        axis both are a read-only view of the identity."""
        t = self.topology
        # the axes that do not shift keep u's coordinates, as rep[u] does
        table = np.broadcast_to(self.rep, (t.num_coords, t.num_coords))
        for a in self._moves:
            moved = t.grid[a] + sign * t.grid[a, :, None]
            table = table + moved % t.dims[a] * t.strides[a]
        return table

    @cached_property
    def shift(self) -> np.ndarray:
        return self._frame(-1)

    @cached_property
    def unshift(self) -> np.ndarray:
        return self._frame(1)

    def pair_rows(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Per pair (``src[i]``, ``dst[i]``), the row of its representatives'
        pair (rep[s], shift[s, d]) in stage 1's pair order: the
        representatives ascending, each one's ``dests`` destinations, the
        other live nodes, ascending. A row // ``dests`` is its
        representative's index in ``reps``, and a row % ``dests`` its
        destination's index among that representative's."""
        rep = self.rep[src]
        u, r = self._slot[self.shift[src, dst]], self._slot[rep]
        return np.searchsorted(self.reps, rep) * self.dests + u - (u > r)

    @cached_property
    def _link_moves(self) -> np.ndarray:
        """Per source s and node v (flat, s-major): what to add to the id of
        a link of v to get the link as seen from s. Channel ids go node by
        node, and the nodes ``unshift`` pairs have the same links, since
        only mesh-axis coordinates (which no shift moves) decide which
        exist."""
        t = self.topology
        first = np.searchsorted(t.channel_node, np.arange(t.num_coords))
        return (first[self.unshift] - first).astype(np.int32).reshape(-1)

    def links_to_sources(self, src: np.ndarray,
                         links: np.ndarray) -> np.ndarray:
        """Row i of ``links`` (link ids padded with -1, as seen from the
        representative of ``src[i]``), as seen from ``src[i]``: ``links``
        itself when every node is its own orbit."""
        if self.single:
            return links
        size = self.topology.num_coords
        node, moves = self.topology.channel_node, self._link_moves
        out = np.empty_like(links)
        for i in range(0, len(links), _PATH_BATCH):
            rows = slice(i, i + _PATH_BATCH)
            hops = links[rows]
            at = node[hops] + src[rows, None].astype(np.intp) * size
            out[rows] = np.where(hops >= 0, hops + moves[at], -1)
        return out


def _pairs(t, sources) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(source, destination, the source's index in ``sources``) of every
    pair from each of ``sources`` to every other live node, in pair
    order."""
    nodes = np.array(t.live_nodes, dtype=np.int64)
    sources = np.asarray(sources, dtype=np.int64)
    at, to = np.nonzero(sources[:, None] != nodes)
    return sources[at], nodes[to], at


def _check_reached(t, src: np.ndarray, dst: np.ndarray,
                   reached: np.ndarray) -> None:
    """Raises UnroutablePairError naming every destination that the first
    source with an unreached pair cannot reach, in pair order; ``src``,
    ``dst`` and ``reached`` describe the pairs in that order."""
    if not reached.all():
        first = src[np.argmin(reached)]
        raise UnroutablePairError(
            [(t.coord_str(first), t.coord_str(d))
             for d in dst[~reached & (src == first)].tolist()])


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
    src, dst, row = _pairs(t, sources)
    row_base = row * rg.n_vertices
    parent = parent_edge.reshape(-1)
    cur = row_base + rg.end_vid(dst)
    _check_reached(t, src, dst, parent[cur] >= 0)
    link, tail = rg.walk_edges
    hops = np.empty((len(cur), depth), dtype=np.int32)
    for col in range(depth - 1, -1, -1):
        e = parent[cur]
        hops[:, col] = link[e]
        cur = row_base + tail[e]
    kept = hops != DUMMY_LINK
    lens = kept.sum(axis=1)
    return _padded(hops[kept], lens, int(lens.max(initial=1)), np.int32)


def _parent_candidates(rg: RoutingGraph, level: np.ndarray):
    """(edge ids, the link each one's tail was entered by, each head's first
    index, the heads, depth) of the edges from each hop level of ``level``
    to the next, head by head, each head's in edge-id order
    (``RoutingGraph.back_edges``); depth is ``level.max()``, the level of
    the search's deepest END vertex (``_levels``). No ledger changes them,
    so one listing serves every source of an orbit."""
    indptr, tail, _, edge = rg.back_edges
    at = np.flatnonzero(level[tail] == np.repeat(level - 1, np.diff(indptr)))
    e = edge[at]
    heads = rg.edge_head[e].astype(np.intp)
    new = np.ones(len(e), dtype=bool)
    np.not_equal(heads[1:], heads[:-1], out=new[1:])
    first = np.flatnonzero(new)
    return (e, rg.in_link[tail[at]].astype(np.intp), first, heads[first],
            int(level.max()))


def _pick_parents(rg: RoutingGraph, candidates,
                  ledger: np.ndarray) -> np.ndarray:
    """Per vertex, its ``_parent_candidates`` edge with the least (``ledger``
    load of the link its tail was entered by, edge id), in one minimum per
    head; -1 where none. DUMMY_LINK (-1), which a begin vertex reads, reads
    the 0 at the end of ``ledger``."""
    e, arrival, first, heads, _ = candidates
    parent = np.full(rg.n_vertices, -1, dtype=np.int64)
    key = ledger[arrival].astype(np.int64) * rg.n_edges + e
    parent[heads] = np.minimum.reduceat(key, first) % rg.n_edges
    return parent


def _bfs_chains(rg: RoutingGraph, rep: int, candidates, links: np.ndarray,
                rows, loads: np.ndarray) -> np.ndarray:
    """Breadth-first tree chains from one source, then weight bookkeeping.

    Lightest arrival first: a vertex's parent is its in-edge from the level
    below with the least (load of the link the tail arrived over, edge id).
    Edge ids are tail-major, so this is the first claimant when each
    frontier is expanded in ascending arrival load, ties by vertex id. The
    pick runs in the frame of the source's representative ``rep``, over its
    ``_parent_candidates``, against the ledger ``loads`` (which ends with
    DUMMY_LINK's 0) read through the source's link map ``links``; the
    chains are mapped back, add one unit of load to each physical link they
    cross, and go in the source's pair order by ``rows`` (``_Orbits``; a
    source that is its own representative reads identity maps). An
    unroutable pair raises before any load is added.
    """
    parent = _pick_parents(rg, candidates, loads[links])
    chains = links[_tree_chains(rg, [rep], parent, candidates[-1])]
    loads += np.bincount(chains[chains >= 0], minlength=len(loads))
    return chains[rows]


def _link_ids(t) -> np.ndarray:
    """Every channel id, then DUMMY_LINK: the identity link map."""
    return np.append(np.arange(t.n_channels, dtype=np.int32),
                     np.int32(DUMMY_LINK))


def build_bfs_routes(rg: RoutingGraph, source: int,
                     loads: np.ndarray) -> dict[int, Route]:
    """Breadth-first routes from one source, its own representative; see
    ``_bfs_chains``."""
    t = rg.topology
    t.check_nodes([source])
    ledger = np.append(loads, 0)
    candidates = _parent_candidates(rg, _hop_levels(rg, [source])[0])
    chains = _bfs_chains(rg, source, candidates, _link_ids(t),
                         np.arange(len(t.live_nodes) - 1), ledger)
    loads[:] = ledger[:-1]
    return {r.dst: r for r in _routes(rg, source, chains)}


def _source_order(t) -> np.ndarray:
    """The live nodes in ``build_rt_bfs``'s source order: the first live
    node, then each time the remaining node most remote from the last."""
    order = list(t.live_nodes[:1])
    remaining = np.zeros(t.num_coords, dtype=bool)
    remaining[list(t.live_nodes[1:])] = True
    for _ in range(len(t.live_nodes) - 1):
        # -2 sits below every hop count, an unreachable node's -1 among
        # them; argmax keeps the first of ties, the smallest node id
        at = int(np.argmax(np.where(remaining, t.distances[order[-1]], -2)))
        order.append(at)
        remaining[at] = False
    return np.array(order, dtype=np.int64)


def build_rt_bfs(rg: RoutingGraph) -> RoutingTable:
    """Iterated-BFS routing table; the next source is the most remote node.

    Neither the source order nor the hop levels depend on the ledger, so one
    level search serves a batch of sources in that order
    (``_source_batches``), and it searches only the representatives
    (``_Orbits``) that the batch's sources need and no earlier batch
    searched. Each representative's parent candidates are listed once and
    dropped after its last source. Every source's tree is then picked
    against the ledger its predecessors left, in its representative's frame
    (``_bfs_chains``), through the batch's link maps and pair rows.
    """
    t = rg.topology
    orb = _Orbits(rg)
    order = _source_order(t)
    last = {int(orb.rep[s]): s for s in order}  # each representative's last
    found = {}  # per representative still needed: its parent candidates
    loads = np.zeros(t.n_channels + 1, dtype=np.int64)  # DUMMY_LINK's 0 last
    chains = {}
    for part in _source_batches(rg, order):
        need = [r for r in dict.fromkeys(orb.rep[part].tolist())
                if r not in found]
        found.update((r, _parent_candidates(rg, level))
                     for r, level in zip(need, _hop_levels(rg, need)))
        maps = orb.links_to_sources(part, np.tile(_link_ids(t),
                                                  (len(part), 1)))
        rows = orb.pair_rows(*_pairs(t, part)[:2]).reshape(len(part), -1)
        for source, links, at in zip(part.tolist(), maps, rows % orb.dests):
            r = int(orb.rep[source])
            mine = found.pop(r) if last[r] == source else found[r]
            chains[source] = _bfs_chains(rg, r, mine, links, at, loads)
    src = np.repeat(t.live_nodes, len(t.live_nodes) - 1)  # pair order
    # popped, so that only the stacked copy lives on through the encoding
    links = _stack([chains.pop(s) for s in t.live_nodes])
    cols = encode_chains(t, src, links, rg.relaxed)[0]
    return RoutingTable(t, columns=cols, stats=GenerationStats(
        loads[:-1], total_pairs=len(cols.src)))


def enumerate_minimal_routes(rg: RoutingGraph, src: int, dst: int,
                             cap: int = VARIANT_CAP):
    """(variants, truncated): distinct minimal routes in deterministic order.

    One variant per distinct link chain of the shortest routing-graph paths
    (``_variant_lists``), in the order the walk back from the end vertex
    lists them, each in its least-non-standard legal encoding.
    """
    rg.topology.check_nodes((src, dst))
    if src == dst:
        raise ValueError(f"dst must differ from src, both are {src}")
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    level = _hop_levels(rg, [src])
    ends = rg.end_vid(np.array([dst], dtype=np.int64))
    _check_reached(rg.topology, np.array([src]), np.array([dst]),
                   level[0, ends] >= 0)
    chains, _, truncated = _variant_lists(rg, level, [0], ends, cap)
    return _routes(rg, src, chains), bool(truncated[0])


def _pair_stats(rg: RoutingGraph, orb: _Orbits | None = None):
    """(hop levels of the representatives, one row each in ``reps`` order,
    -1 where unreached; columns of every pair's canonical route in pair
    order; unique mask; their link chains padded with -1).

    Only the representatives (``orb``, or the graph's ``_Orbits``) are
    searched, read back and encoded. One level search serves a batch of
    them (``_source_batches``), and one array walk reads every pair's
    canonical chain off the batch's least-edge-id parent trees
    (``_tree_chains``). A pair's minimal route is unique exactly when its
    shortest routing-graph paths are as many as the canonical chain's legal
    splits, since a second physical route would add splits of its own.
    Every pair then reads the row of its representatives' pair
    (``_Orbits.pair_rows``), with the row's nodes and links mapped to its
    own source.
    """
    t = rg.topology
    orb = orb or _Orbits(rg)
    nodes = np.array(t.live_nodes, dtype=np.int64)
    ends = rg.end_vid(nodes)
    reps = orb.reps
    levels = np.full((len(reps), rg.n_vertices), -1, dtype=np.int8)
    chains, paths = [], [np.zeros(0, np.int64)]
    for part in _source_batches(rg, reps):
        dist, counts, parent_edge = _bfs_count(rg, part)
        deepest = int(dist.max(initial=0))
        chains.append(_tree_chains(rg, part, parent_edge, deepest))
        paths.append(counts[:, ends][nodes != part[:, None]])
        if deepest > np.iinfo(levels.dtype).max:
            levels = levels.astype(np.min_scalar_type(-1 - deepest))
        levels[np.searchsorted(reps, part)] = dist
    links = _stack(chains)
    cols, legal = encode_chains(t, np.repeat(reps, len(nodes) - 1), links,
                                rg.relaxed)
    unique = np.concatenate(paths) == legal.sum(axis=1)
    if orb.single:  # every pair's row is its own source's, in place
        return levels, cols, unique, links

    src, dst, _ = _pairs(t, nodes)
    at = orb.pair_rows(src, dst)
    cols, unique = cols.take(at), unique[at]
    links = orb.links_to_sources(src, links[at])
    unshift = orb.unshift
    for i in range(0, len(at), _PATH_BATCH):
        rows = slice(i, i + _PATH_BATCH)
        seq = cols.nodes[rows]
        seq[:] = np.where(seq >= 0, unshift[src[rows, None], seq], -1)
    cols.src[:], cols.dst[:] = src, dst
    return levels, cols, unique, links


def unique_route_stats(rg: RoutingGraph) -> tuple[int, int]:
    """(pairs with a single minimal route, total ordered pairs)."""
    unique = _pair_stats(rg)[2]
    return int(unique.sum()), len(unique)


def _path_chains(rg: RoutingGraph, levels: np.ndarray, rows,
                 ends) -> tuple[np.ndarray, np.ndarray]:
    """(link chains padded with -1, pair of each chain) of every shortest
    routing-graph path of each pair, pair by pair, each pair's in
    depth-first order. Link ids come in the table's id type
    (``routes._id_dtype``) and pair ids as int32.

    Pair i runs from the source whose hop levels are row ``rows[i]`` of
    ``levels`` to its reached end vertex ``ends[i]``. The walk goes back
    from every end at once, ``_PATH_BATCH`` pairs at a time, one gather per
    level: each walk branches over its vertex's in-edges in edge-id order
    (``RoutingGraph.back_edges``) onto the tails one level lower, so the
    paths of a pair come out in depth-first order. A walk that has reached
    its begin vertex stays there over DUMMY_LINK until the batch's deepest
    is done; the DUMMY_LINKs, the ejection's among them, are then dropped and
    the rows left-aligned, as in ``_tree_chains``.
    """
    nv = rg.n_vertices
    indptr, tail, link, _ = rg.back_edges
    flat = levels.reshape(-1)
    dtype = _id_dtype(rg.topology)
    chains, pair = [np.full((0, 1), -1, dtype=dtype)], [np.zeros(0, np.int32)]
    for i in range(0, len(ends), _PATH_BATCH):
        base = np.asarray(rows[i:i + _PATH_BATCH], dtype=np.intp) * nv
        cur = np.asarray(ends[i:i + _PATH_BATCH], dtype=np.intp)
        want = flat[base + cur].astype(np.intp)
        depth = int(want.max())
        steps = []  # per level: the walk each new walk branched from, link
        for _ in range(depth):
            want = np.maximum(want - 1, 0)  # the tails' level; BEGIN stays
            starts = indptr[cur]
            n = indptr[cur + 1] - starts
            parent = np.repeat(np.arange(len(cur)), n)
            e = np.arange(len(parent)) + np.repeat(starts - (np.cumsum(n) - n),
                                                   n)
            tails, base = tail[e], base[parent]
            keep = flat[base + tails] == want[parent]
            parent = parent[keep]
            steps.append((parent, link[e[keep]]))
            cur, base, want = tails[keep], base[keep], want[parent]
        hops = np.empty((len(cur), depth), dtype=dtype)
        walk = np.arange(len(cur))
        for col, (parent, links) in enumerate(reversed(steps)):
            hops[:, col] = links[walk]
            walk = parent[walk]
        kept = hops != DUMMY_LINK
        lens = kept.sum(axis=1)
        chains.append(_padded(hops[kept], lens, int(lens.max(initial=1)),
                              dtype))
        pair.append((walk + i).astype(np.int32))
    return _stack(chains), np.concatenate(pair)


def _variant_lists(rg: RoutingGraph, levels: np.ndarray, rows, ends,
                   cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(distinct link chains padded with -1, pair by pair; their count per
    pair; truncated per pair) of the shortest paths that ``_path_chains``
    lists for the same pairs, at most ``cap`` per pair.

    From one source equal chains mean equal physical steps, so the paths
    that encode one route (body vs first/last-step encodings, at most four)
    collapse to one chain. A pair keeps the first ``cap`` distinct chains
    in listing order, and is truncated when it has more than ``cap``.
    """
    chains, owner = _path_chains(rg, levels, rows, ends)
    # the first listing of each (pair, chain), in listing order
    at = np.unique(np.column_stack([owner, chains]), axis=0,
                   return_index=True)[1]
    distinct = np.sort(at)
    starts = np.searchsorted(owner[distinct], np.arange(len(ends) + 1))
    rank = np.arange(len(distinct)) - starts[owner[distinct]]
    kept = distinct[rank < cap]
    return (chains[kept], np.bincount(owner[kept], minlength=len(ends)),
            np.diff(starts) > cap)


def _lightest(chains: np.ndarray, first: np.ndarray,
              load: np.ndarray) -> np.ndarray:
    """Per pair, the row of its first chain with the least summed load.

    The rows of ``chains`` (padded with -1, which reads the 0 at the end of
    ``load``) go pair by pair, every pair with one row at the least, and
    ``first`` holds the first row of every pair. The least (load, row) of a
    pair is its least load * rows + row.
    """
    rows = len(chains)
    key = np.add.reduce(load[chains], 1) * rows + np.arange(rows)
    return np.minimum.reduceat(key, first) % rows


def build_sssp(rg: RoutingGraph, source: int, dst_nodes,
               loads: np.ndarray) -> dict[int, Route]:
    """Least-load minimal-hop route tree slice for a destination set.

    Hop count decides first: each destination takes the first of its
    shortest routing-graph paths (``_path_chains``, in its order) whose
    links carry the least summed load. ``loads`` is read, not changed.
    Raises UnroutablePairError naming every unreached destination, in
    destination order.
    """
    dsts = [d for d in dst_nodes if d != source]
    rg.topology.check_nodes([source, *dsts])
    level = _hop_levels(rg, [source])
    dst = np.array(dsts, dtype=np.int64)
    ends = rg.end_vid(dst)
    _check_reached(rg.topology, np.full(len(dst), source), dst,
                   level[0, ends] >= 0)
    chains, owner = _path_chains(rg, level, np.zeros(len(dsts), int), ends)
    first = np.searchsorted(owner, np.arange(len(dsts)))
    chains = chains[_lightest(chains, first, np.append(loads, 0))]
    return {r.dst: r for r in _routes(rg, source, chains)}


def _pending_chains(rg: RoutingGraph, orb: _Orbits, levels: np.ndarray,
                    src: np.ndarray, dst: np.ndarray):
    """(link chains padded with -1, first chain row of every pair and one
    past the last) of every shortest routing-graph path of each pair
    (``src[i]``, ``dst[i]``), pair by pair, each pair's in depth-first order
    (``_path_chains``); ``levels`` holds the hop levels of the
    representatives, one row each in ``orb.reps`` order (``_pair_stats``).

    The paths of (s, d) are the shifted paths of its representatives' pair
    (``_Orbits.pair_rows``), so each distinct representatives' pair is
    listed once, from its representative's levels, and each pair takes its
    chains with their links as seen from its own source.
    """
    nodes = np.array(rg.topology.live_nodes, dtype=np.int64)
    keys, inverse = np.unique(orb.pair_rows(src, dst), return_inverse=True)
    rep, j = np.divmod(keys, orb.dests)
    ends = rg.end_vid(nodes[j + (j >= np.searchsorted(nodes, orb.reps[rep]))])
    listed, owner = _path_chains(rg, levels, rep, ends)
    start = np.searchsorted(owner, np.arange(len(keys) + 1))
    n = np.diff(start)[inverse]
    first = np.concatenate([[0], np.cumsum(n)])
    at = np.arange(first[-1]) + np.repeat(start[inverse] - first[:-1], n)
    return orb.links_to_sources(np.repeat(src, n), listed[at]), first


def build_rt_sssp(rg: RoutingGraph,
                  skip_unique_stage: bool = False) -> RoutingTable:
    """Two-stage shortest-path routing table (unique routes, sort and group).

    Stage 1 fixes every pair with a single minimal route; the rest are
    pending, grouped by (turn count, length, source). It runs no ledger, so
    its searches go in batches of sources (``_pair_stats``): one level
    search and one array read-back per batch. Stage 2 lists every pending
    pair's shortest routing-graph paths as link chains, in group order, from
    stage 1's hop levels (``_pending_chains``). Each call then gives every
    remaining pair of a group the first of its chains with the least summed
    load on the live ledger and routes, in pair order, each chain that
    shares no link with a chain routed before it in the same call; calls
    repeat until every pair of the group is routed. A pair keeps the row of
    its chosen chain. Stage 1's columns already hold the final encoding of
    every fixed pair, so at the end only the pending pairs' chosen chains
    are encoded, in one call, and written over their rows.
    ``stats.sssp_calls`` counts stage 2's shortest-path trees: at least one
    per pending group, at most one per pending pair (each call routes at
    least one pair), and zero when stage 1 fixes every pair.

    ``skip_unique_stage`` keeps stage 1's measurements but routes every pair
    through stage 2, which is the instrumentation baseline for call counts.
    """
    t = rg.topology
    orb = _Orbits(rg)
    levels, cols, unique, links = _pair_stats(rg, orb)
    fixed = unique & (not skip_unique_stage)
    fixed_links = links[fixed]
    # the ledger; DUMMY_LINK (-1) reads the 0 at its end
    load = np.bincount(fixed_links[fixed_links >= 0],
                       minlength=t.n_channels + 1)
    steps = cols.steps[~fixed]
    turns = ((steps[:, 1:] != steps[:, :-1]) & (steps[:, 1:] >= 0)).sum(axis=1)
    rows = np.flatnonzero(~fixed)
    length, src = cols.length[rows], cols.src[rows]
    # the pending rows in group order: by (turn count, length, source), row
    order = np.lexsort((src, length, turns))
    rows, length, src, turns = (a[order] for a in (rows, length, src, turns))
    chains, first = _pending_chains(rg, orb, levels, src,
                                    cols.dst[rows].astype(np.int64))
    keys = np.stack([turns, length, src])
    new = np.flatnonzero((np.diff(keys, prepend=-1) != 0).any(axis=0))

    pick = [0] * len(rows)  # each pending pair's chain, a row of ``chains``
    calls = 0
    for lo, hi in zip(new.tolist(), new[1:].tolist() + [len(rows)]):
        at, to = int(first[lo]), int(first[hi])
        group, heads = chains[at:to, :length[lo]], first[lo:hi] - at
        cands = group.tolist()
        todo = range(hi - lo)
        while todo:
            calls += 1
            best = _lightest(group, heads, load).tolist()
            used, left = set(), []
            for j in todo:
                chosen = cands[best[j]]
                if used.isdisjoint(chosen):
                    used.update(chosen)
                    pick[lo + j] = at + best[j]
                else:
                    left.append(j)
            load[np.fromiter(used, np.intp, len(used))] += 1
            todo = left
    cols.put(rows, encode_chains(t, src, chains[pick], rg.relaxed)[0])

    stats = GenerationStats(load[:-1],
                            sssp_calls=calls, unique_pairs=int(unique.sum()),
                            total_pairs=len(unique))
    return RoutingTable(t, stats=stats, columns=cols)


# -- genetic ------------------------------------------------------------------

def _variant_tables(rg: RoutingGraph):
    """(source, variant count and first variant row of every pair in pair
    order, every variant's link chain padded with -1), ``VARIANT_CAP`` at
    most per pair (``_variant_lists``).

    Raises UnroutablePairError naming every destination the first source
    with one cannot reach, in destination order.
    """
    t = rg.topology
    nodes = np.array(t.live_nodes, dtype=np.int64)
    levels = np.full((t.num_coords, rg.n_vertices), -1, dtype=np.int32)
    for part in _source_batches(rg, nodes):
        levels[part] = _hop_levels(rg, part)
    src, dst, _ = _pairs(t, nodes)
    ends = rg.end_vid(dst)
    _check_reached(t, src, dst, levels[src, ends] >= 0)
    chains, counts, _ = _variant_lists(rg, levels, src, ends, VARIANT_CAP)
    return src, counts, np.cumsum(counts) - counts, chains


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
                            stats=GenerationStats(np.zeros(
                                t.n_channels, dtype=np.int64)))
    gp = perfect_channel_load(t)
    width = t.n_channels + 1  # pads count in the last column
    # chains[k, v]: the channel of variant v's k-th link, or the pad column;
    # position-major, so a gather of variants takes one run per position
    chains = np.ascontiguousarray(np.where(links < 0, t.n_channels, links).T)
    rng = np.random.default_rng(params.seed)

    def tally(rows, variants, n_rows):
        """Channel counts of the variants' chains, summed per row."""
        # widened first: row offsets overflow int16 link ids
        at = np.take(chains, variants, axis=1).astype(np.intp)
        at += rows * width
        return np.bincount(at.ravel(), minlength=n_rows * width).reshape(
            n_rows, width)

    pop_n = params.population
    # genes fit in uint8: a pair has at most VARIANT_CAP (128) variants
    pop = rng.integers(0, counts, size=(pop_n, len(src)),
                       dtype=np.int64).astype(np.uint8)
    loads = np.array([np.bincount(chains[:, offsets + g].ravel(),
                                  minlength=width) for g in pop])
    fits = deviation(loads[:, :-1], gp)
    order = np.argsort(fits, kind="stable")
    pop, loads, fits = pop[order], loads[order], fits[order]
    history = [float(fits[0])]
    # the stagnation bar re-anchors only on significant improvements, so
    # steady slow progress keeps the search alive
    anchor, stagnant, generations = history[0], 0, 0
    most = (float("inf") if params.max_generations is None
            else params.max_generations)
    half = pop_n // 2 + pop_n % 2
    while stagnant < params.stagnation_limit and generations < most:
        generations += 1
        parents = rng.integers(0, pop_n, size=(half, 2))
        cuts = np.sort(rng.integers(0, len(src) + 1, size=(half, 2)), axis=1)
        # couple i breeds kid 2i from its parents in order and kid 2i + 1
        # from them swapped, each taking the other parent's genes between
        # the cuts; an odd population drops the last kid. Both kids differ
        # from their first-named parent at the same genes, the window genes
        # where the parents differ, so their load corrections are opposite.
        # a and b: every couple's window genes of its first and second
        # parent, end to end; then the couple and pair of each that differs
        lo, hi = cuts.T
        ends = np.cumsum(hi - lo)
        a, b = (np.concatenate([pop[p, i:j] for p, i, j in zip(
            side.tolist(), lo.tolist(), hi.tolist())]) for side in parents.T)
        at = np.flatnonzero(a != b)
        couple = np.searchsorted(ends, at, side="right")
        pair = at - (ends - hi)[couple]
        a, b = a[at], b[at]
        # every kid (an odd population's dropped one too) starts as its
        # first-named parent and takes the other's differing window genes
        first = parents.reshape(-1)
        kids, kid_loads = pop[first], loads[first]
        genes = kids.reshape(-1)  # a view: gene s is kid s // pairs
        slot = 2 * len(src) * couple + pair
        genes[slot], genes[slot + len(src)] = b, a
        swap = (tally(couple, offsets[pair] + b, half)
                - tally(couple, offsets[pair] + a, half))
        kid_loads[0::2] += swap
        kid_loads[1::2] -= swap
        kids, kid_loads = kids[:pop_n], kid_loads[:pop_n]
        # each gene mutates with probability p: a binomial count of distinct
        # sites, and one gene drawn for each from its pair's variants; a
        # site's kid takes the new variant's chain and drops the old one's
        sites = rng.choice(kids.size, rng.binomial(kids.size, params.mutation),
                           replace=False)
        kid, pair = np.divmod(sites, len(src))
        old = genes[sites]
        new = rng.integers(0, counts[pair])
        genes[sites] = new
        kid_loads += (tally(kid, offsets[pair] + new, pop_n)
                      - tally(kid, offsets[pair] + old, pop_n))
        kid_fits = deviation(kid_loads[:, :-1], gp)

        order = np.argsort(np.concatenate([fits, kid_fits]),
                           kind="stable")[:pop_n]
        pop, loads, fits = (np.concatenate(both)[order] for both in (
            (pop, kids), (loads, kid_loads), (fits, kid_fits)))
        history.append(float(fits[0]))
        stagnant += 1
        if history[-1] < anchor * (1.0 - params.epsilon):
            anchor, stagnant = history[-1], 0

    cols = encode_chains(t, src, links[offsets + pop[0]], rg.relaxed)[0]
    stats = GenerationStats(loads[0, :-1],
                            generations=generations, total_pairs=len(src),
                            fitness_history=history)
    return RoutingTable(t, columns=cols, stats=stats)
