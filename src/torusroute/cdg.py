"""Channel dependency graph: safe-turn analysis and deadlock certification.

Vertices are the directed channels (node, direction) of a topology. Baseline
edges are the consecutive-channel holds that order-preserving routes can
create: [(v, D_i), (u, D_j)] with u = v + D_i, D_i <= D_j and D_j not the
opposite of D_i. An edge whose two channels share a direction stays on one
ring, and cycles confined to one ring are tolerated by bubble flow control,
so the deadlock criterion is that every strongly connected component is
direction-homogeneous.

Order-violating turns are added one by one while they provably cannot close
a cycle: a candidate [(u_j, D_j), (u_k, D_k)] with D_j > D_k is safe while
D_j is absent from the used direction set B(u_k, D_k), the set of directions
reachable from that channel.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import DeadlockCycleError
from .topology import Topology

Channel = tuple[int, int]
CdgEdge = tuple[Channel, Channel]


class CDG:
    def __init__(self, topology: Topology):
        t = topology
        self.topology = t
        self.channels = t.channels
        self.n_channels = t.n_channels
        self.edges: list[tuple[int, int]] = []   # (tail cid, head cid)
        self.adj: list[list[int]] = [[] for _ in range(t.n_channels)]
        self.radj: list[list[int]] = [[] for _ in range(t.n_channels)]
        self.used_dirs: np.ndarray | None = None  # bitmask per channel

    def add_edge(self, tail: int, head: int):
        self.edges.append((tail, head))
        self.adj[tail].append(head)
        self.radj[head].append(tail)

    def has_edge(self, tail: int, head: int) -> bool:
        return head in self.adj[tail]

    def direction_of(self, cid: int) -> int:
        return self.channels[cid][1]

    def used_set(self, channel: Channel) -> frozenset[int]:
        if self.used_dirs is None:
            raise RuntimeError("used_direction_sets has not run")
        mask = int(self.used_dirs[self.topology.channel_id[channel]])
        return frozenset(d for d in range(self.topology.ndirs)
                         if mask >> d & 1)


def build_cdg(t: Topology) -> CDG:
    """Baseline dependency graph of the order-preserving turns."""
    g = CDG(t)
    for cid, (u, di) in enumerate(t.channels):
        v = t.neighbor_table[u, di]
        opp = t.opposite(di)
        for dj in range(di, t.ndirs):
            if dj == opp:
                continue
            head = t.channel_table[v, dj]
            if head >= 0:
                g.add_edge(cid, int(head))
    return g


def used_direction_sets(g: CDG) -> np.ndarray:
    """Bitmask of reachable-channel directions per channel (self included)."""
    t = g.topology
    masks = np.zeros(g.n_channels, dtype=np.uint32)
    for cid in range(g.n_channels):
        masks[cid] = 1 << g.direction_of(cid)
    # monotone dataflow to the fixed point B(v) = bit(D_v) | U B(heads)
    queue = deque(range(g.n_channels))
    queued = [True] * g.n_channels
    while queue:
        w = queue.popleft()
        queued[w] = False
        m = int(masks[w])
        for p in g.radj[w]:
            new = m & ~int(masks[p])
            if new:
                masks[p] |= new
                if not queued[p]:
                    queued[p] = True
                    queue.append(p)
    g.used_dirs = masks
    return masks


def _propagate(g: CDG, start: int, mask: int):
    """Fold ``mask`` into B over every channel with a path to ``start``."""
    masks = g.used_dirs
    stack = [(start, mask)]
    while stack:
        w, m = stack.pop()
        new = m & ~int(masks[w])
        if not new:
            continue
        masks[w] |= new
        for p in g.radj[w]:
            stack.append((p, new))


def augment_cdg(g: CDG) -> tuple[CDG, list[CdgEdge]]:
    """Add every order-violating turn that Theorem-2 style analysis allows.

    Candidates are scanned once, in ascending (node id, D_j, D_k) order, and
    must be realizable as a first positive step (D_j positive) or a last
    negative step (D_k negative). After each addition the head's used
    direction set is propagated backward. One scan suffices: the sets only
    grow and an added turn stays in the graph, so a second scan would skip
    every candidate again.
    """
    t = g.topology
    if g.used_dirs is None:
        used_direction_sets(g)
    masks = g.used_dirs
    added: list[CdgEdge] = []
    for tail_cid, (uj, dj) in enumerate(t.channels):
        uk = t.neighbor_table[uj, dj]
        for dk in range(dj):
            if dj >= t.n and dk < t.n:
                continue  # not expressible as a first or last step
            head = t.channel_table[uk, dk]
            if head < 0:
                continue
            head_cid = int(head)
            if masks[head_cid] >> dj & 1:
                continue
            if g.has_edge(tail_cid, head_cid):
                continue
            g.add_edge(tail_cid, head_cid)
            added.append(((uj, dj), (int(uk), dk)))
            _propagate(g, tail_cid, int(masks[head_cid]) | (1 << dj))
    return g, added


# -- deadlock certification ---------------------------------------------------


def _tarjan_sccs(n: int, adj: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; components are emitted in reverse topological order."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] < 0:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sccs


def _shortest_path(g: CDG, comp_set: set[int], src: int,
                   dst: int) -> list[int]:
    """Fewest-edge walk src .. dst, of one edge or more, inside one SCC."""
    parent: dict[int, int | None] = {src: None}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for w in g.adj[v]:
            if w == dst:
                walk = [dst]
                while v is not None:
                    walk.append(v)
                    v = parent[v]
                return walk[::-1]
            if w in comp_set and w not in parent:
                parent[w] = v
                queue.append(w)
    raise AssertionError("SCC without a path")


def _find_cycle_in(g: CDG, comp: list[int]) -> list[int]:
    """A direction-changing cycle inside one SCC that mixes directions.

    The shortest cycle through ``comp[0]`` when it changes direction;
    otherwise (it runs round one bubble-protected ring) the component's first
    direction-changing edge a->b closed by a shortest path from b back to a.
    """
    comp_set = set(comp)
    cycle = _shortest_path(g, comp_set, comp[0], comp[0])
    if len({g.direction_of(c) for c in cycle}) > 1:
        return cycle
    a, b = next((a, b) for a in comp for b in g.adj[a]
                if b in comp_set and g.direction_of(b) != g.direction_of(a))
    return [a] + _shortest_path(g, comp_set, b, a)


def assert_deadlock_free(g: CDG) -> list[Channel]:
    """Channels in a topological order of the ring-contracted dependency graph.

    Raises :class:`DeadlockCycleError` with an explicit channel cycle when a
    strongly connected component mixes directions, i.e. some dependency cycle
    is not confined to a single bubble-protected ring.
    """
    sccs = _tarjan_sccs(g.n_channels, g.adj)
    for comp in sccs:
        dirs = {g.direction_of(c) for c in comp}
        if len(dirs) > 1:
            cycle = _find_cycle_in(g, comp)
            raise DeadlockCycleError([g.channels[c] for c in cycle])
    order: list[Channel] = []
    for comp in reversed(sccs):  # reverse topological over the condensation
        for c in sorted(comp):
            order.append(g.channels[c])
    return order
