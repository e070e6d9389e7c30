"""Routing-table generators over the routing graph.

Three generators share one load ledger convention: a per-channel counter that
every chosen route increments along its physical links. An edge weighs the
load of its link, so all routing-graph edges over one cable weigh the same.

* ``build_rt_bfs``: iterated breadth-first trees, sources ordered by a
  most-remote heuristic, each level's frontier expanded lightest arrival
  first.
* ``build_rt_genetic``: a genetic search over per-pair minimal route variants
  with two-point crossover, panmictic parent selection, per-gene mutation and
  elitist truncation, scored by the deviation metric.
* ``build_rt_sssp``: unique minimal routes fixed first, the remaining pairs
  grouped by (turn count, length, source) and served by a repeated
  least-load dynamic program over the group's hop-level DAG (the edges that
  raise the hop level by one, into the ancestors of the group's end
  vertices), so hop count decides first and load only breaks ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UnroutablePairError
from .metrics import deviation, perfect_channel_load
from .routes import (Route, RoutingTable, decode_rg_path, legal_encodings,
                     preferred_encoding)
from .routing_graph import DUMMY_LINK, RoutingGraph
from .topology import most_remote


@dataclass
class GeneticParams:
    population: int = 100
    mutation: float = 0.02
    stagnation_limit: int = 30
    epsilon: float = 0.05
    seed: int = 0
    variant_cap: int = 128
    max_generations: int | None = None

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if not 0.0 <= self.mutation <= 1.0:
            raise ValueError("mutation probability must be in [0, 1]")


@dataclass
class GenerationStats:
    algo: str
    link_increments: np.ndarray
    sssp_calls: int = 0
    generations: int = 0
    unique_pairs: int = 0
    total_pairs: int = 0
    fitness_history: list[float] = field(default_factory=list)


def turn_count(r: Route) -> int:
    """Adjacent step pairs with differing directions; FS/LS transitions count."""
    steps = r.steps
    return sum(1 for a, b in zip(steps, steps[1:]) if a != b)


# -- shared search kernels ----------------------------------------------------

def _decode(rg: RoutingGraph, verts: list[int]) -> Route:
    """Decode a tree path, then store its least-non-standard legal encoding."""
    raw = decode_rg_path(rg, verts)
    return preferred_encoding(rg.topology, raw.src, raw.steps, rg.relaxed)


def _chains(rg: RoutingGraph, parent_edge: np.ndarray, source: int,
            dsts) -> dict[int, list[int]]:
    """Physical link ids of the tree path to every destination but ``source``.

    Raises UnroutablePairError naming every destination whose end vertex the
    parent tree does not reach, in destination order.
    """
    begin = rg.begin_vid(source)
    # memoryviews index to Python ints without copying the arrays
    parent, tail, link = (memoryview(a) for a in (parent_edge, rg.edge_tail,
                                                  rg.edge_link))
    out: dict[int, list[int]] = {}
    missing = []
    for dst in dsts:
        if dst == source:
            continue
        v = rg.end_vid(dst)
        links = []
        while v != begin:
            e = parent[v]
            if e < 0:
                missing.append(dst)
                break
            if link[e] != DUMMY_LINK:
                links.append(link[e])
            v = tail[e]
        else:
            links.reverse()
            out[dst] = links
    if missing:
        t = rg.topology
        raise UnroutablePairError(
            [(t.coord_str(source), t.coord_str(d)) for d in missing])
    return out


def _steps(t, links: list[int]) -> tuple[int, ...]:
    """Direction of every link in a chain."""
    return tuple(t.channels[link][1] for link in links)


def _route(rg: RoutingGraph, source: int, links: list[int]) -> Route:
    """The least-non-standard legal encoding of a chain's physical steps."""
    return preferred_encoding(rg.topology, source, _steps(rg.topology, links),
                              rg.relaxed)


def _levels(rg: RoutingGraph, begin: int, key=None):
    """Hop levels of the routing graph from ``begin``, one level per yield.

    Yields (new vertices, their parent edges, open edge ids, open heads); the
    open edges leave the frontier for vertices not reached before. A new
    vertex's parent is its open in-edge with the least (key, edge id).
    ``key`` maps edge ids to integer keys (all 0 when omitted) and runs once
    per level, after the caller has handled the previous yield, so it may
    read per-vertex state the caller keeps.
    """
    reached = np.zeros(rg.n_vertices, dtype=bool)
    reached[begin] = True
    frontier = np.array([begin], dtype=np.int64)
    while len(frontier):
        starts = rg.indptr[frontier]
        counts = rg.indptr[frontier + 1] - starts
        eids = np.arange(int(counts.sum()), dtype=np.int64)
        eids += np.repeat(starts - (np.cumsum(counts) - counts), counts)
        heads = rg.edge_head[eids].astype(np.int64)
        open_m = ~reached[heads]
        eids, heads = eids[open_m], heads[open_m]
        if not len(eids):
            return
        keys = (np.zeros(len(eids), dtype=np.int64) if key is None
                else key(eids))
        # the frontier ascends and edge ids are tail-major, so eids ascend
        # and a stable sort by (head, key) leaves ties in edge-id order
        span = int(keys.max()) + 1
        if (int(heads.max()) + 1) * span < 2 ** 62:
            order = np.argsort(heads * span + keys, kind="stable")
        else:
            order = np.lexsort((keys, heads))
        heads_s = heads[order]
        chosen = order[np.flatnonzero(np.diff(heads_s, prepend=-1))]
        frontier = heads[chosen]
        reached[frontier] = True
        yield frontier, eids[chosen], eids, heads


def build_bfs_routes(rg: RoutingGraph, source: int, loads: np.ndarray,
                     targets=None) -> dict[int, Route]:
    """Breadth-first route tree from one source, then weight bookkeeping.

    Lightest arrival first: a vertex's parent is its in-edge with the least
    (load of the link the tail arrived over, edge id). Edge ids are
    tail-major, so this is the first claimant when each frontier is expanded
    in ascending arrival load, ties by vertex id. After the tree is read
    back, every chosen route adds one unit of load to each physical link it
    crosses; an unroutable pair raises before any load is added.
    """
    if targets is None:
        targets = rg.topology.live_nodes
    loads_ext = np.append(loads, 0)  # DUMMY_LINK (-1) reads the 0
    parent_edge = np.full(rg.n_vertices, -1, dtype=np.int64)
    arrival = np.zeros(rg.n_vertices, dtype=np.int64)  # the source: load-free
    for new, parents, _, _ in _levels(
            rg, rg.begin_vid(source), lambda e: arrival[rg.edge_tail[e]]):
        parent_edge[new] = parents
        arrival[new] = loads_ext[rg.edge_link[parents]]

    routes: dict[int, Route] = {}
    for dst, links in _chains(rg, parent_edge, source, targets).items():
        routes[dst] = _route(rg, source, links)
        for link in links:
            loads[link] += 1
    return routes


def build_rt_bfs(rg: RoutingGraph, nodes=None) -> RoutingTable:
    """Iterated-BFS routing table; the next source is the most remote node."""
    t = rg.topology
    nodes = list(nodes) if nodes is not None else list(t.live_nodes)
    loads = np.zeros(t.n_channels, dtype=np.int64)
    routes = {}
    remaining = set(nodes)
    source = nodes[0]
    while True:
        for dst, r in build_bfs_routes(rg, source, loads, nodes).items():
            routes[(source, dst)] = r
        remaining.discard(source)
        if not remaining:
            break
        source = most_remote(t, remaining, source)
    table = RoutingTable(t, routes,
                         GenerationStats("bfs", loads,
                                         total_pairs=len(routes)))
    return table


def _bfs_count(rg: RoutingGraph, source: int):
    """Hop distances, shortest-path counts and a deterministic parent tree."""
    begin = rg.begin_vid(source)
    dist = np.full(rg.n_vertices, -1, dtype=np.int32)
    counts = np.zeros(rg.n_vertices, dtype=np.int64)
    parent_edge = np.full(rg.n_vertices, -1, dtype=np.int64)
    dist[begin] = 0
    counts[begin] = 1
    for level, (new, parents, eids, heads) in enumerate(
            _levels(rg, begin), 1):
        parent_edge[new] = parents
        dist[new] = level
        np.add.at(counts, heads, counts[rg.edge_tail[eids]])
    return dist, counts, parent_edge


def _enumerate_rg_paths(rg: RoutingGraph, dist: np.ndarray, begin_vid: int,
                        end_vid: int, budget: int):
    """All shortest begin->end vertex paths, in-edge order, capped by budget."""
    if dist[end_vid] < 0:
        return [], False
    rindptr, redges = rg.reverse_csr()
    paths: list[list[int]] = []
    truncated = False
    stack: list[int] = [end_vid]

    def rec(v: int):
        nonlocal truncated
        if truncated:
            return
        if v == begin_vid:
            paths.append(list(reversed(stack)))
            if len(paths) >= budget:
                truncated = True
            return
        dv = dist[v]
        for idx in range(int(rindptr[v]), int(rindptr[v + 1])):
            e = int(redges[idx])
            u = int(rg.edge_tail[e])
            if dist[u] == dv - 1:
                stack.append(u)
                rec(u)
                stack.pop()
                if truncated:
                    return

    rec(end_vid)
    return paths, truncated


def _dedupe_physical(rg: RoutingGraph, paths) -> list[Route]:
    seen = set()
    out = []
    for p in paths:
        r = _decode(rg, p)
        if r.steps not in seen:
            seen.add(r.steps)
            out.append(r)
    return out


def enumerate_minimal_routes(rg: RoutingGraph, src: int, dst: int,
                             cap: int = 128, _dist=None):
    """(variants, truncated): distinct minimal routes in deterministic order.

    Distinct routing-graph paths that encode the same physical step sequence
    (body vs first/last-step encodings) collapse to one variant. A physical
    route has at most four encodings, so the underlying path budget is 4*cap.
    """
    dist = _dist if _dist is not None else _bfs_count(rg, src)[0]
    evid = rg.end_vid(dst)
    if dist[evid] < 0:
        raise UnroutablePairError([(rg.topology.coord_str(src),
                                    rg.topology.coord_str(dst))])
    paths, truncated = _enumerate_rg_paths(rg, dist, rg.begin_vid(src), evid,
                                           budget=4 * cap)
    variants = _dedupe_physical(rg, paths)
    if len(variants) > cap:
        variants = variants[:cap]
        truncated = True
    return variants, truncated


def _pair_stats(rg: RoutingGraph, source: int, nodes):
    """(hop levels, per-destination (route, unique?)) from one counting pass.

    A pair has a single minimal physical route exactly when the number of
    shortest routing-graph paths equals the number of legal encodings of the
    canonical route, since any second physical route would add encodings of
    its own to the count.
    """
    t = rg.topology
    dist, counts, parent_edge = _bfs_count(rg, source)
    out = {}
    for dst, links in _chains(rg, parent_edge, source, nodes).items():
        seq, encodings = legal_encodings(t, source, _steps(t, links),
                                         rg.relaxed)
        fs, body, ls = encodings[0]
        canonical = Route(source, dst, fs, body, ls, tuple(seq))
        out[dst] = (canonical,
                    int(counts[rg.end_vid(dst)]) == len(encodings))
    return dist, out


def unique_route_stats(rg: RoutingGraph, nodes=None) -> tuple[int, int]:
    """(pairs with a single minimal route, total ordered pairs)."""
    t = rg.topology
    nodes = list(nodes) if nodes is not None else list(t.live_nodes)
    unique = total = 0
    for src in nodes:
        for _, is_unique in _pair_stats(rg, src, nodes)[1].values():
            total += 1
            unique += bool(is_unique)
    return unique, total


def rg_reachable_pairs(rg: RoutingGraph) -> set[tuple[int, int]]:
    """Ordered node pairs (i, j), i != j, with a begin->end path."""
    t = rg.topology
    pairs = set()
    ends = np.array([rg.end_vid(v) for v in t.live_nodes], dtype=np.int64)
    for src in t.live_nodes:
        dist = _bfs_count(rg, src)[0]
        for v, evid in zip(t.live_nodes, ends):
            if v != src and dist[evid] >= 0:
                pairs.add((src, v))
    return pairs


def _level_dag(rg: RoutingGraph, level: np.ndarray, ends) -> list[tuple]:
    """In-edges of the ancestors of ``ends`` on one source's hop-level DAG.

    ``level`` holds every vertex's hop level from the source, -1 where
    unreached. An edge lies on the DAG when its tail's level is one less
    than its head's; unreached ends are left out. Returns (tail level, head,
    edge id, tail, link) tuples in that order, so every tail is settled
    before the heads it leads to.
    """
    rindptr, redges = rg.reverse_csr()
    rindptr, redges, tail, link, level = (
        memoryview(a) for a in (rindptr, redges, rg.edge_tail, rg.edge_link,
                                level))
    seen = {v for v in ends if level[v] > 0}
    todo = list(seen)
    dag = []
    for v in todo:
        lv = level[v] - 1
        for e in redges[rindptr[v]:rindptr[v + 1]]:
            u = tail[e]
            if level[u] == lv:
                dag.append((lv, v, e, u, link[e]))
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
    dag.sort()
    return dag


def _least_load_chains(rg: RoutingGraph, source: int, dag: list[tuple],
                       dsts, load: list[int]) -> dict[int, list[int]]:
    """Least-load minimal-hop chains from one source (see ``_chains``).

    A dynamic program over ``_level_dag``'s edges: a vertex's parent is its
    DAG in-edge with the least (load of the path to the tail plus the load
    of the edge's link, edge id). Every DAG in-edge of a vertex leaves the
    level just below it, so the chains are hop-minimal and load only breaks
    ties. ``load`` is indexed by link id and reads 0 at DUMMY_LINK (-1).
    """
    cost = {rg.begin_vid(source): 0}
    best: dict[int, int] = {}
    for _, v, e, u, link in dag:
        k = cost[u] + load[link]
        if v not in best or k < cost[v]:  # ties keep the lower edge id
            cost[v] = k
            best[v] = e
    parent = np.full(rg.n_vertices, -1, dtype=np.int64)
    parent[list(best)] = list(best.values())
    return _chains(rg, parent, source, dsts)


def build_sssp(rg: RoutingGraph, source: int, dst_nodes,
               loads: np.ndarray) -> dict[int, Route]:
    """Least-load minimal-hop route tree slice for a destination set.

    A least-load dynamic program over the source's hop-level DAG, restricted
    to the ancestors of the destinations: hop count decides first; among the
    in-edges of one vertex the least loaded path wins, ties by edge id.
    ``loads`` is read, not changed.
    """
    dst_nodes = list(dst_nodes)
    dag = _level_dag(rg, _bfs_count(rg, source)[0],
                     [rg.end_vid(d) for d in dst_nodes if d != source])
    chains = _least_load_chains(rg, source, dag, dst_nodes,
                                loads.tolist() + [0])
    return {dst: _route(rg, source, links) for dst, links in chains.items()}


def build_rt_sssp(rg: RoutingGraph, nodes=None,
                  skip_unique_stage: bool = False) -> RoutingTable:
    """Two-stage shortest-path routing table (unique routes, sort and group).

    Stage 1 fixes every pair with a single minimal route; the rest are
    pending, grouped by (turn count, length, source). Stage 2 builds each
    group's hop-level DAG from stage 1's hop levels when it reaches the
    group, then runs the least-load dynamic program on it against the live
    ledger, once per call, until every pair of the group is routed.
    ``stats.sssp_calls`` counts stage 2's shortest-path trees: at least one
    per pending group, at most one per pending pair (each call routes at
    least one pair), and zero when stage 1 fixes every pair.

    ``skip_unique_stage`` keeps stage 1's measurements but routes every pair
    through stage 2, which is the instrumentation baseline for call counts.
    """
    t = rg.topology
    nodes = list(nodes) if nodes is not None else list(t.live_nodes)
    load = [0] * (t.n_channels + 1)  # the ledger; DUMMY_LINK (-1) reads 0
    routes: dict[tuple[int, int], Route] = {}
    pending: dict[tuple[int, int, int], list[int]] = {}
    levels: dict[int, np.ndarray] = {}
    unique_pairs = 0
    total_pairs = 0
    for src in nodes:
        dist, stats = _pair_stats(rg, src, nodes)
        for dst in sorted(stats):
            canonical, is_unique = stats[dst]
            total_pairs += 1
            if is_unique:
                unique_pairs += 1
            if is_unique and not skip_unique_stage:
                routes[(src, dst)] = canonical
                for link in t.walk(src, canonical.steps)[1]:
                    load[link] += 1
            else:
                key = (turn_count(canonical), len(canonical), src)
                pending.setdefault(key, []).append(dst)
                if src not in levels:
                    # the narrowest signed type that holds the deepest level
                    levels[src] = dist.astype(
                        np.min_scalar_type(-1 - int(dist.max())))

    calls = 0
    for key in sorted(pending):
        src = key[2]
        dsts = sorted(pending[key])
        dag = _level_dag(rg, levels[src], [rg.end_vid(d) for d in dsts])
        while dsts:
            calls += 1
            chains = _least_load_chains(rg, src, dag, dsts, load)
            used: set[int] = set()
            for dst in dsts:
                links = chains[dst]
                if used.isdisjoint(links):
                    used.update(links)
                    routes[(src, dst)] = _route(rg, src, links)
            for link in used:
                load[link] += 1
            dsts = [d for d in dsts if (src, d) not in routes]

    loads = np.array(load[:-1], dtype=np.int64)
    return RoutingTable(t, routes,
                        GenerationStats("sssp", loads, sssp_calls=calls,
                                        unique_pairs=unique_pairs,
                                        total_pairs=total_pairs))


# -- genetic ------------------------------------------------------------------

def _variant_tables(rg: RoutingGraph, nodes, cap: int):
    """Per-pair variant lists flattened into a padded link-id matrix."""
    t = rg.topology
    pairs = []
    variants: list[list[Route]] = []
    for src in nodes:
        dist = _bfs_count(rg, src)[0]
        for dst in nodes:
            if dst == src:
                continue
            vs, _ = enumerate_minimal_routes(rg, src, dst, cap, _dist=dist)
            if not vs:
                raise UnroutablePairError([(t.coord_str(src),
                                            t.coord_str(dst))])
            pairs.append((src, dst))
            variants.append(vs)
    counts = np.array([len(v) for v in variants], dtype=np.int64)
    offsets = np.zeros(len(variants), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    maxlen = max(len(r) for vs in variants for r in vs)
    links = np.full((int(counts.sum()), maxlen), t.n_channels, dtype=np.int64)
    row = 0
    for vs in variants:
        for r in vs:
            ls = t.walk(r.src, r.steps)[1]
            links[row, :len(ls)] = ls
            row += 1
    return pairs, variants, counts, offsets, links


def build_rt_genetic(rg: RoutingGraph, nodes=None,
                     params: GeneticParams | None = None) -> RoutingTable:
    """Genetic search over minimal route variants, scored by deviation."""
    t = rg.topology
    params = params or GeneticParams()
    nodes = list(nodes) if nodes is not None else list(t.live_nodes)
    pairs, variants, counts, offsets, links = _variant_tables(
        rg, nodes, params.variant_cap)
    gp = perfect_channel_load(t)
    n_channels = t.n_channels
    rng = np.random.default_rng(params.seed)

    def loads_of(genes: np.ndarray) -> np.ndarray:
        rows = offsets + genes
        return np.bincount(links[rows].ravel(),
                           minlength=n_channels + 1)[:n_channels]

    def fitness(genes: np.ndarray) -> float:
        return deviation(loads_of(genes), gp, 4)

    pop_n = params.population
    pop = rng.integers(0, counts, size=(pop_n, len(pairs)), dtype=np.int64)
    fits = np.array([fitness(g) for g in pop])
    order = np.argsort(fits, kind="stable")
    pop, fits = pop[order], fits[order]
    best_fit = float(fits[0])
    best_genes = pop[0].copy()
    history = [best_fit]
    # the stagnation bar re-anchors only on significant improvements, so
    # steady slow progress keeps the search alive
    anchor = best_fit
    stagnant = 0
    generations = 0
    while stagnant < params.stagnation_limit:
        if (params.max_generations is not None
                and generations >= params.max_generations):
            break
        generations += 1
        half = pop_n // 2 + pop_n % 2
        parents = rng.integers(0, pop_n, size=(half, 2))
        cuts = np.sort(rng.integers(0, len(pairs) + 1, size=(half, 2)), axis=1)
        kids = []
        for (a, b), (c1, c2) in zip(parents, cuts):
            k1 = pop[a].copy()
            k1[c1:c2] = pop[b][c1:c2]
            k2 = pop[b].copy()
            k2[c1:c2] = pop[a][c1:c2]
            kids.extend((k1, k2))
        kids = np.array(kids[:pop_n])
        mask = rng.random(kids.shape) < params.mutation
        redraw = rng.integers(0, counts, size=kids.shape, dtype=np.int64)
        kids[mask] = redraw[mask]
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

    routes = {pair: variants[i][int(best_genes[i])]
              for i, pair in enumerate(pairs)}
    stats = GenerationStats("genetic", loads_of(best_genes),
                            generations=generations,
                            total_pairs=len(pairs),
                            fitness_history=history)
    return RoutingTable(t, routes, stats)
