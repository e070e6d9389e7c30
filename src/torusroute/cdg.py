"""Channel dependency graph: safe-turn analysis and deadlock certification.

Vertices are the directed channels (node, direction) of a topology. Baseline
edges are the consecutive-channel holds that order-preserving routes can
create: [(v, D_i), (u, D_j)] with u = v + D_i, D_i <= D_j and D_j not the
opposite of D_i. An edge whose two channels share a direction stays on one
ring, and cycles confined to one ring are tolerated by bubble flow control,
so the deadlock criterion is that every strongly connected component is
direction-homogeneous.

Order-violating turns are added one by one while they provably cannot close
a cycle: a candidate [(u_j, D_j), (u_k, D_k)] with D_j > D_k, usable as a
first positive step or a last negative step, is safe while D_j is absent
from the used direction set B(u_k, D_k), the set of directions reachable
from that channel.

Both turn rules depend on the dimension count alone: one template per rule,
:func:`_template`, marks the directions a turn out of each direction may
take, and :func:`_turns` wires it at every channel in one array pass.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

import numpy as np

from .errors import DeadlockCycleError
from .topology import Topology

Channel = tuple[int, int]
CdgEdge = tuple[Channel, Channel]


class CDG:
    def __init__(self, topology: Topology, tail=(), head=()):
        """``tail`` and ``head`` hold the channel ids of the edges, in the
        order ``edges``, ``adj`` and ``radj`` keep them."""
        self.topology = t = topology
        self.channels = t.channels
        self.n_channels = t.n_channels
        tail, head = (np.asarray(a, dtype=np.int64) for a in (tail, head))
        self.edges = list(zip(tail.tolist(), head.tolist()))  # (tail, head)
        self.adj: list[list[int]] = _split(tail, head, t.n_channels)
        self.radj: list[list[int]] = _split(head, tail, t.n_channels)
        self.used_dirs: np.ndarray | None = None  # bitmask per channel

    def add_edge(self, tail: int, head: int):
        self.edges.append((tail, head))
        self.adj[tail].append(head)
        self.radj[head].append(tail)

    def has_edge(self, tail: int, head: int) -> bool:
        return head in self.adj[tail]

    def direction_of(self, cid: int) -> int:
        return self.channels[cid][1]


def _split(key: np.ndarray, value: np.ndarray, n: int) -> list[list[int]]:
    """Per key 0..n-1, the values of its rows in row order."""
    order = np.argsort(key, kind="stable")
    bounds = np.searchsorted(key[order], np.arange(n + 1)).tolist()
    values = value[order].tolist()
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


@lru_cache(maxsize=None)
def _template(n: int, kind: str) -> np.ndarray:
    """Read-only (2n x 2n) mask of the turns a -> b of ``kind``: a
    ``"baseline"`` turn keeps the direction order and makes no U-turn, a
    ``"candidate"`` breaks it as a first positive or a last negative step."""
    a, b = np.indices((2 * n, 2 * n))
    mask = {"baseline": (a <= b) & (b != (a + n) % (2 * n)),
            "candidate": (b < a) & ((a < n) | (b >= n))}[kind]
    mask.flags.writeable = False
    return mask


def _turns(t: Topology, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(tail, head) channel ids of every turn of ``kind`` whose channels
    exist, ordered by tail, then by head direction."""
    node, d = np.nonzero(t.channel_table >= 0)  # the channels in id order
    heads = t.channel_table[t.neighbor_table[node, d]]
    tail, k = np.nonzero(_template(t.n, kind)[d] & (heads >= 0))
    return tail, heads[tail, k]


def build_cdg(t: Topology) -> CDG:
    """Baseline dependency graph of the order-preserving turns."""
    return CDG(t, *_turns(t, "baseline"))


def _fold(radj: list[list[int]], masks: list[int], queue: deque,
          queued: list[bool]):
    """Grow ``masks`` to the least fixed point where B(p) contains B(w) for
    every edge p -> w, from the channels in ``queue`` (FIFO), which
    ``queued`` flags; every flag is False again on return."""
    while queue:
        w = queue.popleft()
        queued[w] = False
        m = masks[w]
        for p in radj[w]:
            new = m & ~masks[p]
            if new:
                masks[p] |= new
                if not queued[p]:
                    queued[p] = True
                    queue.append(p)


def used_direction_sets(g: CDG) -> np.ndarray:
    """Bitmask of reachable-channel directions per channel (self included)."""
    masks = [1 << d for _, d in g.channels]
    _fold(g.radj, masks, deque(range(g.n_channels)), [True] * g.n_channels)
    g.used_dirs = np.array(masks, dtype=np.uint32)
    return g.used_dirs


def augment_cdg(g: CDG) -> tuple[CDG, list[CdgEdge]]:
    """Add every order-violating turn that Theorem-2 style analysis allows.

    Candidates are scanned once, in ascending (node id, D_j, D_k) order.
    After each addition the tail's used direction set takes in the head's,
    and that is folded backward. One scan suffices: the sets only grow and
    an added turn stays in the graph, so a second scan would skip every
    candidate again.
    """
    if g.used_dirs is None:
        used_direction_sets(g)
    masks = g.used_dirs.tolist()
    queued = [False] * g.n_channels
    added: list[CdgEdge] = []
    for tail, head in zip(*(a.tolist() for a in _turns(g.topology,
                                                        "candidate"))):
        if masks[head] >> g.direction_of(tail) & 1 or g.has_edge(tail, head):
            continue
        g.add_edge(tail, head)
        added.append((g.channels[tail], g.channels[head]))
        masks[tail] |= masks[head]
        queued[tail] = True
        _fold(g.radj, masks, deque((tail,)), queued)
    g.used_dirs[:] = masks
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
        if len({g.direction_of(c) for c in comp}) > 1:
            cycle = _find_cycle_in(g, comp)
            raise DeadlockCycleError([g.channels[c] for c in cycle])
    # reverse topological over the condensation
    return [g.channels[c] for comp in reversed(sccs) for c in sorted(comp)]
