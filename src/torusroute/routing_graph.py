"""Routing graph: an expanded graph whose paths are exactly the rule-legal routes.

Every network node owns one block of vertices encoding a packet's route
history: BEGIN (injection), FS(d) for each positive direction (arrived via a
non-standard first step d), DIRBIT(vec) for each nonzero per-dimension sign
vector (arrived via an order- and direction-bit-compliant step list), LS(d)
for each negative direction (arrived via a non-standard last step d), and END
(ejection). Per node that is 3^n + 2n + 1 vertices.

The rules fix a block's edges from the dimension count alone: one template,
:func:`_block_edges`, lists them as (tail, direction, head) offsets, and the
topology only wires it, by the neighbour each direction reaches from a live
node. Baseline edges keep the global direction order and never step into the
immediate opposite of the previous direction; order-violating first/last-step
turns enter only through :func:`apply_augmentation`, fed by the channel
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
def _last_directions(n: int) -> tuple[tuple[int, ...], tuple[np.ndarray, ...]]:
    """(per DIRBIT code ascending, its last direction; per direction d, the
    block offsets of the DIRBIT vertices whose last direction is d, codes
    ascending), shared read-only by every graph of n dimensions. The
    template reads the first, and the last-step turns of
    :func:`apply_augmentation` leave the vertices of the second."""
    zero = (3 ** n - 1) // 2
    last = tuple(vec_last_direction(code_to_vec(c, n), n)
                 for c in range(3 ** n) if c != zero)
    by_last = tuple(1 + np.flatnonzero(np.array(last) == d)
                    for d in range(2 * n))
    for offsets in by_last:
        offsets.flags.writeable = False
    return last, by_last


class RoutingGraph:
    """CSR adjacency over the per-node vertex blocks of a topology."""

    def __init__(self, topology: Topology, edges=None, relaxed=frozenset()):
        """``edges`` holds rows (tail, head, link, aug), as an array or a
        list of 4-tuples, in any order; it defaults to the topology's
        baseline edges. Edge ids follow the tail, ties keep the row order.
        ``relaxed`` holds the dependency-graph turns the edges relax."""
        self.topology = t = topology
        n = t.n
        self.block = 3 ** n + 2 * n + 1
        self.n_vertices = t.num_coords * self.block
        # a sign vector's DIRBIT code is sum (s_j + 1) * 3^j, so taking
        # direction d (sign s in dimension j = d % n) in a dimension of zero
        # sign adds code_step[d] = s * 3^j to the code
        zero = (3 ** n - 1) // 2
        self.codes = [c for c in range(3 ** n) if c != zero]
        self._code_offset = {c: i for i, c in enumerate(self.codes)}
        self.code_step = [3 ** (d % n) if d < n else -3 ** (d % n)
                          for d in range(2 * n)]
        # code of the sign vector holding only direction d
        self.single_codes = [zero + step for step in self.code_step]
        self.code_last, self.dirbit_by_last = _last_directions(n)
        self.relaxed = frozenset(relaxed)
        if edges is None:
            edges = _build_edges(self)

        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 4)
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
        return node * self.block + 1 + self._code_offset[code]

    def fs_vid(self, node: int, d: int) -> int:
        return node * self.block + 1 + len(self.codes) + d

    def ls_vid(self, node: int, d: int) -> int:
        n = self.topology.n
        return node * self.block + 1 + len(self.codes) + n + (d - n)

    def end_vid(self, node: int) -> int:
        return (node + 1) * self.block - 1

    # -- adjacency helpers ----------------------------------------------------

    @cached_property
    def wide_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tail, head, the link the tail is entered by) of every edge as
        intp arrays, cached: NumPy gathers with intp indices without first
        casting them."""
        tail, head = (a.astype(np.intp) for a in (self.edge_tail,
                                                  self.edge_head))
        return tail, head, self.in_link[tail].astype(np.intp)

    @cached_property
    def walk_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(link, tail) of every edge, cached, each with one more entry that
        edge -1 reads: DUMMY_LINK, and vertex 0, a BEGIN vertex that no edge
        enters, so a walk back that reaches a begin vertex stays there."""
        return (np.append(self.edge_link, DUMMY_LINK),
                np.append(self.edge_tail, 0))

    @cached_property
    def back_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, tail, link) of every vertex's in-edges in edge-id order,
        cached, as CSR rows over head vertices. A BEGIN vertex, which no edge
        enters, reads one in-edge from itself over DUMMY_LINK, so a walk back
        that reaches a begin vertex stays there."""
        begins = np.arange(0, self.n_vertices, self.block, dtype=np.int32)
        head = np.concatenate([self.edge_head, begins])
        order = np.argsort(head, kind="stable")
        indptr = np.zeros(self.n_vertices + 1, dtype=np.intp)
        np.cumsum(np.bincount(head, minlength=self.n_vertices),
                  out=indptr[1:])
        tail = np.concatenate([self.edge_tail, begins])[order]
        link = np.append(self.edge_link,
                         np.full(len(begins), DUMMY_LINK, np.int32))[order]
        return indptr, tail.astype(np.intp), link


def _block_edges(rg: RoutingGraph) -> np.ndarray:
    """One node's baseline edges as rows (tail offset, direction or -1 for
    ejection, head offset), in tail-offset order: BEGIN, DIRBIT codes
    ascending, FS, LS. The offsets are the vertex ids at node 0."""
    n = rg.topology.n
    single = rg.single_codes
    end = rg.end_vid(0)
    rows: list[tuple[int, int, int]] = []

    # BEGIN: single-direction steps, positive non-standard first steps, eject
    begin = rg.begin_vid(0)
    rows += [(begin, d, rg.dirbit_vid(0, single[d])) for d in range(2 * n)]
    rows += [(begin, d, rg.fs_vid(0, d)) for d in range(n)]
    rows.append((begin, -1, end))

    # DIRBIT vertices: repeat the last direction, or take a later one in an
    # unused dimension (direction-bit rule), or leave by a negative last step
    for c, last in zip(rg.codes, rg.code_last):
        vec = code_to_vec(c, n)
        src = rg.dirbit_vid(0, c)
        rows.append((src, last, src))
        rows += [(src, k, rg.dirbit_vid(0, c + rg.code_step[k]))
                 for k in range(last + 1, 2 * n) if vec[k % n] == 0]
        opp_last = (last + n) % (2 * n)
        rows += [(src, k, rg.ls_vid(0, k))
                 for k in range(max(n, last + 1), 2 * n) if k != opp_last]
        rows.append((src, -1, end))

    # FS vertices: continue with a strictly later, non-opposite direction
    for l in range(n):
        src = rg.fs_vid(0, l)
        rows += [(src, k, rg.dirbit_vid(0, single[k]))
                 for k in range(l + 1, 2 * n) if k != l + n]
        rows.append((src, -1, end))

    # LS vertices only eject
    rows += [(rg.ls_vid(0, k), -1, end) for k in range(n, 2 * n)]
    return np.array(rows, dtype=np.int64)


def _build_edges(rg: RoutingGraph) -> np.ndarray:
    """Baseline edge rows (tail, head, link, aug) in tail order: the block
    template at every live node, without the steps whose link is absent."""
    t = rg.topology
    tail, k, head = _block_edges(rg).T
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
    """New routing graph with the relaxed turns of ``added`` wired in.

    Each added dependency-graph edge [(u_i, D_i), (u_j, D_j)] has D_i > D_j
    and u_j = u_i + D_i. A positive D_i becomes a first-step turn
    FS(D_i)@u_j -> DIRBIT(D_j); a negative D_i with negative D_j becomes a
    last-step turn DIRBIT(last=D_i)@u_j -> LS(D_j). Anything else is rejected.
    """
    t = rg.topology
    added = list(added)

    def reject(edge, why: str) -> ValueError:
        (ui, di), (uj, dj) = edge
        return ValueError(f"augmentation edge [({t.coord_str(ui)},"
                          f"{t.dir_name(di)}),({t.coord_str(uj)},"
                          f"{t.dir_name(dj)})] {why}")

    tails, heads, links = [], [], []  # per turn: its tails, head and link
    for edge in added:
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
            heads.append(rg.dirbit_vid(uk, rg.single_codes[dj]))
        elif dj >= t.n:  # usable as a last negative step
            tails.append(uj * rg.block + rg.dirbit_by_last[di])
            heads.append(rg.ls_vid(uk, dj))
        else:
            raise reject(edge, "matches neither a first-step nor a "
                               "last-step shape")
        links.append(channels[1])

    counts = [len(x) for x in tails]
    extra = np.stack([np.concatenate([[], *tails]), np.repeat(heads, counts),
                      np.repeat(links, counts), np.ones(sum(counts))],
                     axis=1).astype(np.int64)
    base = np.stack([rg.edge_tail, rg.edge_head, rg.edge_link, rg.edge_aug],
                    axis=1)
    return RoutingGraph(t, np.concatenate([base, extra]),
                        rg.relaxed | frozenset(added))
