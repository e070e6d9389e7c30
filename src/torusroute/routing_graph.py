"""Routing graph: an expanded graph whose paths are exactly the rule-legal routes.

Every network node owns one block of vertices encoding a packet's route
history: BEGIN (injection), FS(d) for each positive direction (arrived via a
non-standard first step d), DIRBIT(vec) for each nonzero per-dimension sign
vector (arrived via an order- and direction-bit-compliant step list), LS(d)
for each negative direction (arrived via a non-standard last step d), and END
(ejection). Per node that is 3^n + 2n + 1 vertices.

Baseline edges keep the global direction order and never step into the
immediate opposite of the previous direction; order-violating first/last-step
turns enter only through :func:`apply_augmentation`, fed by the channel
dependency graph analysis.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .topology import Topology

DUMMY_LINK = -1  # edges into END carry no physical link


def dirbit_codes(n: int) -> list[int]:
    """Dense ternary codes of all nonzero sign vectors, ascending."""
    zero = (3 ** n - 1) // 2
    return [c for c in range(3 ** n) if c != zero]


def vec_to_code(vec: Sequence[int]) -> int:
    return sum((s + 1) * 3 ** j for j, s in enumerate(vec))


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


class RoutingGraph:
    """CSR adjacency over the per-node vertex blocks of a topology."""

    def __init__(self, topology: Topology, edges=None, added=()):
        """``edges`` defaults to the topology's baseline edges."""
        t = topology
        self.topology = t
        n = t.n
        self.block = 3 ** n + 2 * n + 1
        self.n_vertices = t.num_coords * self.block
        self.codes = dirbit_codes(n)
        self._code_offset = {c: i for i, c in enumerate(self.codes)}
        # DIRBIT code of the sign vector holding only direction d
        self.single_codes = [
            vec_to_code([(1 if d < n else -1) if j == d % n else 0
                         for j in range(n)])
            for d in range(2 * n)]
        self.added = tuple(added)
        self.relaxed = frozenset(self.added)
        if edges is None:
            edges = _build_edges(self)

        order = sorted(range(len(edges)), key=lambda i: edges[i][0])
        self.edge_tail = np.array([edges[i][0] for i in order], dtype=np.int32)
        self.edge_head = np.array([edges[i][1] for i in order], dtype=np.int32)
        self.edge_link = np.array([edges[i][2] for i in order], dtype=np.int32)
        self.edge_aug = np.array([edges[i][3] for i in order], dtype=bool)
        self.n_edges = len(edges)
        self.indptr = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.add.at(self.indptr, self.edge_tail + 1, 1)
        np.cumsum(self.indptr, out=self.indptr)
        self._rev = None

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

    def in_edges(self) -> list[tuple[tuple[int, int], ...]]:
        """Per head vertex, the (tail, link) of its in-edges in edge-id
        order, for the pure-Python walks; cached. Tuples of ints leave the
        garbage collector's lists at its first pass, where lists would stay
        and make every full collection longer."""
        if self._rev is None:
            order = np.argsort(self.edge_head, kind="stable")
            bounds = np.searchsorted(self.edge_head[order],
                                     np.arange(self.n_vertices + 1)).tolist()
            pairs = list(zip(self.edge_tail[order].tolist(),
                             self.edge_link[order].tolist()))
            self._rev = [tuple(pairs[a:b]) for a, b in zip(bounds, bounds[1:])]
        return self._rev

def _build_edges(rg: RoutingGraph) -> list[tuple[int, int, int, bool]]:
    t = rg.topology
    n = t.n
    nbr = t.neighbor_rows
    chan = t.channel_rows
    begin, dirbit, fs, ls, end = (rg.begin_vid, rg.dirbit_vid, rg.fs_vid,
                                  rg.ls_vid, rg.end_vid)
    single = rg.single_codes
    lasts = {c: vec_last_direction(code_to_vec(c, n), n) for c in rg.codes}

    edges: list[tuple[int, int, int, bool]] = []
    for u in t.live_nodes:
        # BEGIN: single-direction steps, positive non-standard first steps, eject
        for d in range(2 * n):
            v = nbr[u][d]
            if v >= 0:
                edges.append((begin(u), dirbit(v, single[d]), chan[u][d], False))
        for d in range(n):
            v = nbr[u][d]
            if v >= 0:
                edges.append((begin(u), fs(v, d), chan[u][d], False))
        edges.append((begin(u), end(u), DUMMY_LINK, False))

        # FS vertices: continue with a strictly later, non-opposite direction
        for l in range(n):
            opp = l + n
            for k in range(l + 1, 2 * n):
                if k == opp:
                    continue
                v = nbr[u][k]
                if v >= 0:
                    edges.append((fs(u, l), dirbit(v, single[k]), chan[u][k],
                                  False))
            edges.append((fs(u, l), end(u), DUMMY_LINK, False))

        # DIRBIT vertices
        for c in rg.codes:
            vec = code_to_vec(c, n)
            last = lasts[c]
            src = dirbit(u, c)
            for k in range(last, 2 * n):
                if k != last and vec[k % n] != 0:
                    continue  # direction-bit rule: dimension already used
                v = nbr[u][k]
                if v < 0:
                    continue
                if k == last:
                    nc = c
                else:
                    nvec = list(vec)
                    nvec[k % n] = 1 if k < n else -1
                    nc = vec_to_code(nvec)
                edges.append((src, dirbit(v, nc), chan[u][k], False))
            opp_last = (last + n) % (2 * n)
            for k in range(max(n, last + 1), 2 * n):
                if k == opp_last:
                    continue
                v = nbr[u][k]
                if v >= 0:
                    edges.append((src, ls(v, k), chan[u][k], False))
            edges.append((src, end(u), DUMMY_LINK, False))

        # LS vertices only eject
        for k in range(n, 2 * n):
            edges.append((ls(u, k), end(u), DUMMY_LINK, False))
    return edges


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
    n = t.n
    added = list(added)
    extra: list[tuple[int, int, int, bool]] = []
    for edge in added:
        (ui, di), (uj, dj) = edge
        desc = (f"[({t.coord_str(ui)},{t.dir_name(di)}),"
                f"({t.coord_str(uj)},{t.dir_name(dj)})]")
        if di <= dj:
            raise ValueError(f"augmentation edge {desc} does not violate the "
                             "direction order")
        nodes, channels = t.walk(ui, (di, dj))
        if len(nodes) < 2 or nodes[1] != uj:
            raise ValueError(f"augmentation edge {desc} endpoints are not "
                             "linked by its direction")
        if len(channels) < 2:
            raise ValueError(f"augmentation edge {desc} head channel is dead")
        uk, link = nodes[2], channels[1]
        if di < n:  # usable as a first positive step
            extra.append((rg.fs_vid(uj, di),
                          rg.dirbit_vid(uk, rg.single_codes[dj]), link, True))
        elif dj >= n:  # usable as a last negative step
            for c in rg.codes:
                if vec_last_direction(code_to_vec(c, n), n) == di:
                    extra.append((rg.dirbit_vid(uj, c), rg.ls_vid(uk, dj),
                                  link, True))
        else:
            raise ValueError(f"augmentation edge {desc} matches neither a "
                             "first-step nor a last-step shape")

    base = list(zip(rg.edge_tail.tolist(), rg.edge_head.tolist(),
                    rg.edge_link.tolist(), rg.edge_aug.tolist()))
    return RoutingGraph(t, base + extra, added=tuple(rg.added) + tuple(added))
