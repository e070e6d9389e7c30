"""Routing graph: an expanded graph whose paths are exactly the rule-legal routes.

Every network node owns one block of vertices encoding a packet's route
history: BEGIN (injection), FS(d) for each positive direction (arrived via a
non-standard first step d), DIRBIT(vec) for each nonzero per-dimension sign
vector (arrived via an order- and direction-bit-compliant step list), LS(d)
for each negative direction (arrived via a non-standard last step d), and END
(ejection). Per node that is 3^n + 2n + 1 vertices.

The rules fix a block's edges from the dimension count alone: one template,
:func:`_template`, lists them as (tail, direction, head) offsets, and the
topology only wires it, by the neighbour each direction reaches from a live
node. Baseline edges keep the global direction order and never step into the
immediate opposite of the previous direction; order-violating first/last-step
turns enter only through the constructor's ``relaxed``, fed by the channel
dependency graph analysis.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .topology import Topology

DUMMY_LINK = -1  # edges into END carry no physical link


def code_to_vec(code: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(code % 3 - 1)
        code //= 3
    return tuple(out)


def vec_last_direction(vec: Sequence[int], n: int) -> int:
    """Greatest direction (in the +X..-K order) with a nonzero sign."""
    last = -1
    for j, s in enumerate(vec):
        if s == +1:
            last = max(last, j)
        elif s == -1:
            last = max(last, j + n)
    return last


@lru_cache(maxsize=None)
def _template(n: int) -> tuple[np.ndarray, tuple[int, ...],
                               tuple[np.ndarray, ...]]:
    """The block layout that every graph of n dimensions reads, as offsets
    (vertex ids at node 0), read-only:

    - one node's baseline edges as rows (tail, direction or -1 for
      ejection, head), tails ascending: BEGIN, DIRBIT codes ascending, FS, LS;
    - per direction, the DIRBIT vertex that holds it alone;
    - per direction d, the DIRBIT vertices whose last direction is d, codes
      ascending.
    """
    zero, fs = (3 ** n - 1) // 2, 3 ** n  # FS(d) and LS(d) sit at fs + d
    end = fs + 2 * n

    def dirbit(code: int) -> int:
        return code + (code < zero)

    # a sign vector's DIRBIT code is sum (s_j + 1) * 3^j, so taking direction
    # d (sign s in dimension j = d % n) in a dimension of zero sign adds
    # step[d] = s * 3^j to the code
    step = [3 ** (d % n) if d < n else -3 ** (d % n) for d in range(2 * n)]
    single = tuple(dirbit(zero + s) for s in step)

    # BEGIN: single-direction steps, positive non-standard first steps, eject
    rows = [(0, d, single[d]) for d in range(2 * n)]
    rows += [(0, d, fs + d) for d in range(n)]
    rows.append((0, -1, end))

    # DIRBIT vertices: repeat the last direction, or take a later one in an
    # unused dimension (direction-bit rule), or leave by a negative last step
    by_last: list[list[int]] = [[] for _ in range(2 * n)]
    for c in range(3 ** n):
        if c == zero:
            continue
        vec = code_to_vec(c, n)
        last, src = vec_last_direction(vec, n), dirbit(c)
        by_last[last].append(src)
        rows.append((src, last, src))
        rows += [(src, k, dirbit(c + step[k]))
                 for k in range(last + 1, 2 * n) if vec[k % n] == 0]
        opp_last = (last + n) % (2 * n)
        rows += [(src, k, fs + k)
                 for k in range(max(n, last + 1), 2 * n) if k != opp_last]
        rows.append((src, -1, end))

    # FS vertices: continue with a strictly later, non-opposite direction
    for l in range(n):
        rows += [(fs + l, k, single[k])
                 for k in range(l + 1, 2 * n) if k != l + n]
        rows.append((fs + l, -1, end))

    # LS vertices only eject
    rows += [(fs + k, -1, end) for k in range(n, 2 * n)]
    arrays = (np.array(rows, dtype=np.int64), *map(np.array, by_last))
    for a in arrays:
        a.flags.writeable = False
    return arrays[0], single, arrays[1:]


class RoutingGraph:
    """CSR adjacency over the per-node vertex blocks of a topology."""

    def __init__(self, topology: Topology, relaxed=()):
        """The block template at every live node and the dependency-graph
        turns of ``relaxed`` (see :func:`_relaxed_edges`), in sorted order.
        Edge ids follow the tail, ties keep that order."""
        self.topology = t = topology
        self.block = 3 ** t.n + 2 * t.n + 1
        self.n_vertices = t.num_coords * self.block
        self.relaxed = frozenset(relaxed)
        edges = np.concatenate([_build_edges(self),
                                _relaxed_edges(self, sorted(self.relaxed))])
        edges = edges[np.argsort(edges[:, 0], kind="stable")]
        self.edge_tail = edges[:, 0].astype(np.int32)
        self.edge_head = edges[:, 1].astype(np.int32)
        self.edge_link = edges[:, 2].astype(np.int32)
        self.edge_aug = edges[:, 3].astype(bool)
        self.n_edges = len(edges)
        self.indptr = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.edge_tail, minlength=self.n_vertices),
                  out=self.indptr[1:])
        # every in-edge of a vertex crosses one link: a DIRBIT, FS or LS
        # vertex is entered by one direction only (a DIRBIT code's last, an
        # FS or LS vertex's own), from the one node whose step that way
        # reaches it, and END over DUMMY_LINK; BEGIN, entered by no edge,
        # reads DUMMY_LINK too
        self.in_link = np.full(self.n_vertices, DUMMY_LINK, dtype=np.int32)
        self.in_link[self.edge_head] = self.edge_link

    # -- vertex ids ----------------------------------------------------------
    # Per-node layout: begin, dirbit block, FS block, LS block, end. Standard
    # (dirbit) encodings carry smaller ids than the non-standard first/last
    # steps, so they win id tie-breaks and canonical routes prefer them.

    def begin_vid(self, node: int) -> int:
        return node * self.block

    def dirbit_vid(self, node: int, code: int) -> int:
        zero = (3 ** self.topology.n - 1) // 2  # the code no vertex holds
        return node * self.block + code + (code < zero)

    def fs_vid(self, node: int, d: int) -> int:
        return node * self.block + 3 ** self.topology.n + d

    ls_vid = fs_vid  # FS(d) and LS(d) share an offset: d says which

    def end_vid(self, node: int) -> int:
        return (node + 1) * self.block - 1

    # -- adjacency helpers ----------------------------------------------------

    @cached_property
    def walk_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(link, tail) of every edge, cached, each with one more entry that
        edge -1 reads: DUMMY_LINK, and vertex 0, a BEGIN vertex that no edge
        enters, so a walk back that reaches a begin vertex stays there."""
        return (np.append(self.edge_link, DUMMY_LINK),
                np.append(self.edge_tail, 0))

    @cached_property
    def back_edges(self) -> tuple[np.ndarray, ...]:
        """(indptr, tail, link, edge id) of every vertex's in-edges in
        edge-id order, cached, as CSR rows over head vertices. A BEGIN
        vertex, which no edge enters, reads one in-edge from itself over
        DUMMY_LINK, with edge id -1, so a walk back that reaches a begin
        vertex stays there."""
        begins = np.arange(0, self.n_vertices, self.block, dtype=np.int32)
        head = np.concatenate([self.edge_head, begins])
        order = np.argsort(head, kind="stable")
        indptr = np.zeros(self.n_vertices + 1, dtype=np.intp)
        np.cumsum(np.bincount(head, minlength=self.n_vertices),
                  out=indptr[1:])
        tail = np.concatenate([self.edge_tail, begins])[order]
        link = np.append(self.edge_link,
                         np.full(len(begins), DUMMY_LINK, np.int32))[order]
        edge = np.where(order < self.n_edges, order, -1)
        return indptr, tail.astype(np.intp), link, edge


def _build_edges(rg: RoutingGraph) -> np.ndarray:
    """Baseline edge rows (tail, head, link, aug) in tail order: the block
    template at every live node, without the steps whose link is absent."""
    t = rg.topology
    tail, k, head = _template(t.n)[0].T
    live = np.array(t.live_nodes, dtype=np.int64)[:, None]
    eject = k < 0  # an ejection row indexes the last direction, then drops it
    head_node = np.where(eject, live, t.neighbor_table[live, k])
    link = np.where(eject, DUMMY_LINK, t.channel_table[live, k])
    keep = head_node >= 0
    return np.stack([(live * rg.block + tail)[keep],
                     (head_node * rg.block + head)[keep], link[keep],
                     np.zeros(np.count_nonzero(keep), dtype=np.int64)], axis=1)


def build_routing_graph(t: Topology) -> RoutingGraph:
    """Baseline routing graph of a topology (no relaxed turns)."""
    return RoutingGraph(t)


def apply_augmentation(rg: RoutingGraph,
                       added: Iterable[tuple[tuple[int, int], tuple[int, int]]]
                       ) -> RoutingGraph:
    """The routing graph of ``rg``'s topology with the relaxed turns of
    ``rg`` and of ``added``: a turn already wired in is wired once."""
    return RoutingGraph(rg.topology, rg.relaxed | frozenset(added))


def _relaxed_edges(rg: RoutingGraph, turns) -> np.ndarray:
    """Edge rows (tail, head, link, aug) of the relaxed ``turns``, in order.

    Each dependency-graph edge [(u_i, D_i), (u_j, D_j)] has D_i > D_j and
    u_j = u_i + D_i. A positive D_i becomes a first-step turn
    FS(D_i)@u_j -> DIRBIT(D_j); a negative D_i with negative D_j becomes a
    last-step turn DIRBIT(last=D_i)@u_j -> LS(D_j). Anything else is rejected.
    """
    t = rg.topology
    _, single, by_last = _template(t.n)

    def reject(edge, why: str) -> ValueError:
        (ui, di), (uj, dj) = edge
        return ValueError(f"augmentation edge [({t.coord_str(ui)},"
                          f"{t.dir_name(di)}),({t.coord_str(uj)},"
                          f"{t.dir_name(dj)})] {why}")

    tails, heads, links = [], [], []  # per turn: its tails, head and link
    for edge in turns:
        (ui, di), (uj, dj) = edge
        if di <= dj:
            raise reject(edge, "does not violate the direction order")
        nodes, channels = t.walk(ui, (di, dj))
        if len(nodes) < 2 or nodes[1] != uj:
            raise reject(edge, "endpoints are not linked by its direction")
        if len(channels) < 2:
            raise reject(edge, "head channel is dead")
        uk = nodes[2]
        if di < t.n:  # usable as a first positive step
            tails.append([rg.fs_vid(uj, di)])
            heads.append(uk * rg.block + single[dj])
        elif dj >= t.n:  # usable as a last negative step
            tails.append(uj * rg.block + by_last[di])
            heads.append(rg.ls_vid(uk, dj))
        else:
            raise reject(edge, "matches neither a first-step nor a "
                               "last-step shape")
        links.append(channels[1])

    counts = [len(x) for x in tails]
    return np.stack([np.concatenate([[], *tails]), np.repeat(heads, counts),
                     np.repeat(links, counts), np.ones(sum(counts))],
                    axis=1).astype(np.int64)
