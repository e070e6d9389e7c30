"""Independent witnesses of Theorem 1 (routing-graph paths are exactly the
rule-legal routes), and per-route and per-node references and fixture
writers that only the tests use.

The library keeps shortest routing-graph paths as link chains and never
decodes a vertex path; these helpers read the vertex layout of
:class:`~torusroute.routing_graph.RoutingGraph` back into vertex kinds, so
that the tests can check an emitted route against the graph, and the graph
against the rules, without the library's encoder. The depth-first walk
``_rg_chains`` lists shortest paths without the library's array walk
``algorithms._path_chains``, and is the reference that walk is held to.
On the rules' side, ``pair_routes`` enumerates one pair's rule-legal routes
by its own recursive search, the reference of ``rules.source_routes``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Mapping

import numpy as np

from torusroute.algorithms import _hop_levels, _source_batches
from torusroute.errors import TopologyError, UnroutablePairError
from torusroute.routes import Route, RoutingTable, _columns
from torusroute.routing_graph import (DUMMY_LINK, RoutingGraph, code_to_vec,
                                      vec_last_direction)
from torusroute.topology import Topology, _torus_neighbors


class VKind(IntEnum):
    BEGIN = 0
    FS = 1
    DIRBIT = 2
    LS = 3
    END = 4


@dataclass(frozen=True)
class RGVertexInfo:
    node: int
    kind: VKind
    direction: int | None = None        # FS / LS
    vec: tuple[int, ...] | None = None  # DIRBIT


def vertex_info(rg: RoutingGraph, vid: int) -> RGVertexInfo:
    """Node and kind of a vertex id, read off the per-node block layout."""
    n = rg.topology.n
    node, off = divmod(vid, rg.block)
    if off == 0:
        return RGVertexInfo(node, VKind.BEGIN)
    if off < 3 ** n:  # DIRBIT codes ascending, the zero vector's left out
        code = off - (off <= (3 ** n - 1) // 2)
        return RGVertexInfo(node, VKind.DIRBIT, vec=code_to_vec(code, n))
    off -= 3 ** n
    if off < n:
        return RGVertexInfo(node, VKind.FS, direction=off)
    if off < 2 * n:
        return RGVertexInfo(node, VKind.LS, direction=off)
    return RGVertexInfo(node, VKind.END)


def decode_rg_path(rg: RoutingGraph, path: list[int]) -> Route:
    """Route encoded by a begin -> ... -> end vertex path.

    The step into a DIRBIT vertex always equals the greatest direction of its
    sign vector, so directions are read off the vertex kinds alone.
    """
    t = rg.topology
    infos = [vertex_info(rg, v) for v in path]
    kinds = [i.kind for i in infos]
    if (len(kinds) < 2 or kinds[0] is not VKind.BEGIN
            or kinds[-1] is not VKind.END):
        raise ValueError("path must run begin -> ... -> end")
    fs = None
    ls = None
    body: list[int] = []
    seq = [infos[0].node]
    state = VKind.BEGIN
    for info in infos[1:-1]:
        if info.kind is VKind.FS:
            if state is not VKind.BEGIN:
                raise ValueError("first-step vertex not directly after begin")
            fs = info.direction
        elif info.kind is VKind.DIRBIT:
            if state not in (VKind.BEGIN, VKind.FS, VKind.DIRBIT):
                raise ValueError("body vertex after a last step")
            body.append(vec_last_direction(info.vec, t.n))
        elif info.kind is VKind.LS:
            if state is not VKind.DIRBIT:
                raise ValueError("last-step vertex without a route body")
            ls = info.direction
        else:
            raise ValueError(f"unexpected {info.kind.name} vertex inside path")
        state = info.kind
        seq.append(info.node)
    if infos[-1].node != seq[-1]:
        raise ValueError("end vertex is not at the final node")
    return Route(infos[0].node, infos[-1].node, fs, tuple(body), ls,
                 tuple(seq))


def route_to_rg_path(rg: RoutingGraph, r: Route) -> list[int]:
    """Vertex path of a route in the routing graph (inverse of decode)."""
    t, nodes = rg.topology, r.node_seq
    path = [rg.begin_vid(r.src)]
    if r.fs is not None:
        path.append(rg.fs_vid(nodes[1], r.fs))
    vec = [0] * t.n
    for node, d in zip(nodes[1 + (r.fs is not None):], r.body):
        vec[d % t.n] = 1 if d < t.n else -1
        code = sum((s + 1) * 3 ** j for j, s in enumerate(vec))
        path.append(rg.dirbit_vid(node, code))
    if r.ls is not None:
        path.append(rg.ls_vid(nodes[-1], r.ls))
    path.append(rg.end_vid(nodes[-1]))
    return path


def rg_reachable_pairs(rg: RoutingGraph) -> set[tuple[int, int]]:
    """Ordered node pairs (i, j), i != j, with a begin->end path."""
    t = rg.topology
    nodes = np.array(t.live_nodes, dtype=np.int64)
    pairs = set()
    for part in _source_batches(rg, nodes):
        reached = _hop_levels(rg, part)[:, rg.end_vid(nodes)] >= 0
        reached &= nodes != part[:, None]
        rows, cols = np.nonzero(reached)
        pairs.update(zip(part[rows].tolist(), nodes[cols].tolist()))
    return pairs


def turn_count(r: Route) -> int:
    """Adjacent step pairs with differing directions; FS/LS transitions count.

    The per-route reference for the (turn count, length, source) groups of
    ``build_rt_sssp``, which counts turns in arrays."""
    steps = r.steps
    return sum(1 for a, b in zip(steps, steps[1:]) if a != b)


def make_route(t: Topology, src: int, fs: int | None, body: Iterable[int],
               ls: int | None) -> Route:
    """Build a Route by walking the steps from src (no rule checking)."""
    body = tuple(body)
    steps = (() if fs is None else (fs,)) + body + (() if ls is None else (ls,))
    if steps and src in t.failed_nodes:
        raise TopologyError(f"node {src} does not exist")
    nodes, channels = t.walk(src, steps)  # checks that src is a node id
    if len(channels) < len(steps):
        raise ValueError(f"step {t.dir_name(steps[len(channels)])} from "
                         f"{t.coord_str(nodes[-1])} is dead")
    return Route(src, nodes[-1], fs, body, ls, tuple(nodes))


def most_remote(t: Topology, candidates: Iterable[int], from_: int) -> int:
    """Candidate farthest from ``from_``; ties go to the smallest node id.
    One step of ``build_rt_bfs``'s source order, picked by a scan over
    ``from_``'s row of ``distances``: the reference for
    ``algorithms._source_order``."""
    order = sorted(candidates)
    if not order:
        raise TopologyError("most_remote requires a nonempty candidate set")
    t.check_nodes((order[0], order[-1]))
    if t.failed_nodes.intersection(order):
        raise TopologyError("distance between failed nodes is undefined")
    row = t.distances[t._live(from_)].tolist()
    return max(order, key=row.__getitem__)  # max keeps the first of ties


def table_of(t: Topology, routes: Mapping[tuple[int, int], Route]
             ) -> RoutingTable:
    """A table of ``routes``, each Route written into the columns under its
    key's pair, in sorted pair order."""
    keys = sorted(routes)
    rs = [routes[key] for key in keys]
    return RoutingTable(t, _columns(
        t, [s for s, _ in keys], [d for _, d in keys], [r.fs for r in rs],
        [r.body for r in rs], [r.ls for r in rs], [r.node_seq for r in rs]))


def _transpose_node(t: Topology, u: int) -> int:
    """Mixed-radix transpose: reversed coordinates ranked in reversed dims.

    Coincides with plain coordinate reversal when the dimension vector is a
    palindrome, and is a bijection on node ids for every dimension vector.
    """
    coords = t.coords(u)
    rev_dims = t.dims[::-1]
    rank = 0
    for c, d in zip(coords[::-1], rev_dims):
        rank = rank * d + c
    return rank


def loop_pattern_pairs(t: Topology, name: str) -> list[tuple[int, int]]:
    """Ordered (src, dst) pairs of a synthetic communication pattern, one
    node at a time: the reference for ``metrics.pattern_pairs``."""
    if name == "alltoall":
        return [(s, d) for s in t.live_nodes for d in t.live_nodes if s != d]
    pairs: list[tuple[int, int]] = []
    if name == "neighbor":
        for s in t.live_nodes:
            for d in range(t.ndirs):
                v = t.neighbor_table[s, d]
                if v >= 0:
                    pairs.append((s, int(v)))
    elif name == "tornado":
        shift = -(-t.dims[0] // 2) - 1  # ceil(d1/2) - 1 hops along dim 1
        if shift:
            for s in t.live_nodes:
                coords = list(t.coords(s))
                coords[0] = (coords[0] + shift) % t.dims[0]
                dst = t.node_id(coords)
                if dst == s:
                    continue
                if dst in t.failed_nodes:
                    raise TopologyError(
                        f"tornado pattern references failed node "
                        f"{t.coord_str(dst)}")
                pairs.append((s, dst))
    else:  # transpose
        for s in t.live_nodes:
            dst = _transpose_node(t, s)
            if dst == s:
                continue
            if dst in t.failed_nodes:
                raise TopologyError(
                    f"transpose pattern references failed node "
                    f"{t.coord_str(dst)}")
            pairs.append((s, dst))
    return pairs


def topology_to_text(t: Topology) -> str:
    """The topology file text of ``t``: its dims, then each failed node and
    each failed cable once, in id order."""
    lines = ["dims: " + " ".join(str(d) for d in t.dims)]
    for u in sorted(t.failed_nodes):
        lines.append("fail-node: " + " ".join(str(c) for c in t.coords(u)))
    torus = _torus_neighbors(t.dims)
    skip = set()
    for (u, d) in sorted(t.failed_links):
        if (u, d) in skip:
            continue
        skip.add((int(torus[u, d]), t.opposite(d)))  # emit each cable once
        lines.append("fail-link: " + " ".join(str(c) for c in t.coords(u))
                     + " " + t.dir_name(d))
    return "\n".join(lines) + "\n"


_IN_EDGES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def in_edges(rg: RoutingGraph) -> list[tuple[tuple[int, int], ...]]:
    """Per head vertex, the (tail, link) of its ``back_edges`` as tuples,
    cached per graph. Tuples of ints leave the garbage collector's lists at
    its first pass, where lists would stay and make every full collection
    longer."""
    if rg not in _IN_EDGES:
        indptr, tail, link, _ = rg.back_edges
        bounds = indptr.tolist()
        pairs = list(zip(tail.tolist(), link.tolist()))
        _IN_EDGES[rg] = [tuple(pairs[a:b]) for a, b in zip(bounds, bounds[1:])]
    return _IN_EDGES[rg]


def _rg_chains(rg: RoutingGraph, dist: np.ndarray, end: int,
               budget: float) -> tuple[list[tuple[int, ...]], bool]:
    """(link chains, truncated) of the shortest paths into ``end``.

    ``dist`` holds one source's hop levels (-1 where unreached). The walk
    goes depth first back from ``end`` over the in-edges in edge-id order,
    onto tails one level lower, down to the begin vertex (the only one at
    level 0). One chain per path, in the order the walk finds them;
    truncated once ``budget`` paths are found. It shares no code with the
    array walk ``algorithms._path_chains``, so it can serve as a reference
    for it.
    """
    ins, dist = in_edges(rg), memoryview(dist)
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
    """(distinct minimal link chains src->dst, truncated), at most ``cap``:
    the per-pair reference of ``algorithms._variant_lists``.

    From one source equal chains mean equal physical steps, so the paths
    that encode one route (body vs first/last-step encodings, at most four)
    collapse to one chain; every path is listed. Raises
    UnroutablePairError when ``dist`` does not reach ``dst``.
    """
    end = rg.end_vid(dst)
    if dist[end] < 0:
        raise UnroutablePairError([(rg.topology.coord_str(src),
                                    rg.topology.coord_str(dst))])
    distinct = list(dict.fromkeys(_rg_chains(rg, dist, end, math.inf)[0]))
    return distinct[:cap], len(distinct) > cap


def pair_routes(t: Topology, src: int, dst: int, rules,
                max_len: int) -> list[tuple[int, ...]]:
    """All rule-valid direction sequences src -> dst up to max_len hops,
    sorted: one recursive depth-first search for the one pair, pruned by
    ``dst``'s hop distance alone. It shares no code with the per-source
    search ``rules.source_routes`` and is the reference it is held to.

    Raises TopologyError when either end is out of range or failed."""
    t._live(src)
    n = t.n
    nbr = t.neighbor_rows
    opposite = [t.opposite(d) for d in range(2 * n)]
    dist_to_dst = t.distances[t._live(dst)].tolist()  # links are symmetric
    relaxed = rules.relaxed_turns
    found: set[tuple[int, ...]] = set()

    def feasible(node: int, used: int) -> bool:
        return 0 <= dist_to_dst[node] <= max_len - used

    def body(node: int, seq: list[int], vec: list[int], fs: int | None,
             fs_node: int, tail_node: int):
        prefix = () if fs is None else (fs,)
        total = len(prefix) + len(seq)
        if node == dst and seq:
            found.add(prefix + tuple(seq))
        if seq and total + 1 <= max_len:
            last = seq[-1]
            for ld in range(n, 2 * n):
                if nbr[node][ld] != dst:
                    continue
                ok = last < ld and ld != opposite[last]
                if not ok and ((tail_node, last), (node, ld)) not in relaxed:
                    continue
                found.add(prefix + tuple(seq) + (ld,))
        if total >= max_len:
            return
        last = seq[-1] if seq else None
        for d in range(2 * n):
            v = nbr[node][d]
            if v < 0 or not feasible(v, total + 1):
                continue
            if not seq:
                if fs is not None:
                    ok = fs < d and d != opposite[fs]
                    if not ok and ((fs_node, fs), (node, d)) not in relaxed:
                        continue
            else:
                if d < last:
                    continue
                if d != last and vec[d % n] != 0:
                    continue
            old = vec[d % n]
            vec[d % n] = 1 if d < n else -1
            seq.append(d)
            body(v, seq, vec, fs, fs_node, node)
            seq.pop()
            vec[d % n] = old

    if feasible(src, 0):
        body(src, [], [0] * n, None, -1, -1)
    if max_len >= 1:
        for fd in range(n):
            v = nbr[src][fd]
            if v < 0:
                continue
            if v == dst:
                found.add((fd,))  # a route may be a lone first step
            if feasible(v, 1):
                body(v, [], [0] * n, fd, src, src)
    return sorted(found)
