"""n-dimensional torus model: nodes, directions, links, faults, distances.

Dimensions of size 2 degenerate to a mesh along that axis: there is a single
physical cable per node pair, exposed as one +dir channel and one -dir channel
(no wraparound duplicate). Directions are ordered +X +Y +Z +K -X -Y -Z -K and
are represented as integers 0..2n-1 (0..n-1 positive, n..2n-1 negative).
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .errors import DisconnectedError, ParseError, TopologyError

MAX_DIMS = 4
DIM_NAMES = "XYZK"


def opposite_direction(d: int, n: int) -> int:
    return (d + n) % (2 * n)


def direction_name(d: int, n: int) -> str:
    sign = "+" if d < n else "-"
    return sign + DIM_NAMES[d % n]


def parse_direction(token: str, n: int) -> int:
    # U+2212 minus is accepted for convenience; output always uses ASCII.
    token = token.strip().replace("−", "-")
    if len(token) != 2 or token[0] not in "+-" or token[1] not in DIM_NAMES[:n]:
        raise ParseError(f"bad direction {token!r} for {n} dimensions")
    dim = DIM_NAMES.index(token[1])
    return dim if token[0] == "+" else dim + n


class Topology:
    """Immutable torus/mesh topology with precomputed link tables.

    Table text is written and read through name tables: ``dir_names[d]``
    (``"+X"``) with its inverse ``dir_of_name``, and ``coord_names[u]``
    (``"(x,y,z)"``, failed nodes included, built on first use) with its
    inverse ``node_of_name``. :meth:`distance_row` gives one source's
    distances to every node.

    Construct through :func:`make_torus`.
    """

    def __init__(self, dims: Sequence[int], failed_nodes: frozenset[int],
                 failed_links: frozenset[tuple[int, int]]):
        self.dims = tuple(int(d) for d in dims)
        self.n = len(self.dims)
        self.ndirs = 2 * self.n
        self.num_coords = int(np.prod(self.dims))
        self.failed_nodes = failed_nodes
        self.failed_links = failed_links
        self._strides = tuple(
            int(np.prod(self.dims[j + 1:])) for j in range(self.n))
        self.neighbor_table = self._build_neighbor_table()
        self.live_nodes = tuple(
            u for u in range(self.num_coords) if u not in failed_nodes)
        self.channels: tuple[tuple[int, int], ...] = tuple(
            (u, d) for u in self.live_nodes for d in range(self.ndirs)
            if self.neighbor_table[u, d] >= 0)
        self.channel_id = {c: i for i, c in enumerate(self.channels)}
        self.n_channels = len(self.channels)
        self.channel_table = np.full((self.num_coords, self.ndirs), -1,
                                     dtype=np.int32)
        for i, (u, d) in enumerate(self.channels):
            self.channel_table[u, d] = i
        # plain-list rows: indexing them is cheaper than numpy scalar access
        self.neighbor_rows = self.neighbor_table.tolist()
        self.channel_rows = self.channel_table.tolist()
        self.dir_names = tuple(direction_name(d, self.n)
                               for d in range(self.ndirs))
        self.dir_of_name = {name: d for d, name in enumerate(self.dir_names)}
        self._dist_cache: dict[int, np.ndarray] = {}

    # -- construction ------------------------------------------------------

    def _build_neighbor_table(self) -> np.ndarray:
        n = self.n
        table = np.full((self.num_coords, self.ndirs), -1, dtype=np.int32)
        for u in range(self.num_coords):
            if u in self.failed_nodes:
                continue
            cu = self.coords(u)
            for d in range(self.ndirs):
                j = d % n
                step = 1 if d < n else -1
                size = self.dims[j]
                if size == 2:  # mesh axis: no wraparound
                    nj = cu[j] + step
                    if not 0 <= nj < size:
                        continue
                else:
                    nj = (cu[j] + step) % size
                v = u + (nj - cu[j]) * self._strides[j]
                if v in self.failed_nodes or (u, d) in self.failed_links:
                    continue
                table[u, d] = v
        return table

    # -- coordinates -------------------------------------------------------

    def coords(self, u: int) -> tuple[int, ...]:
        if not 0 <= u < self.num_coords:
            raise TopologyError(f"node id {u} out of range")
        out = []
        for s in self._strides:
            out.append(u // s)
            u %= s
        return tuple(out)

    def node_id(self, coords: Sequence[int]) -> int:
        if len(coords) != self.n:
            raise TopologyError(f"expected {self.n} coordinates, got {coords}")
        for c, d in zip(coords, self.dims):
            if not 0 <= c < d:
                raise TopologyError(f"coordinate {coords} out of range")
        return sum(c * s for c, s in zip(coords, self._strides))

    @cached_property
    def _coord_array(self) -> np.ndarray:
        """Coordinates of every node id, one row each (ids are row-major)."""
        return np.array(list(product(*map(range, self.dims))),
                        dtype=np.int64)

    @cached_property
    def coord_names(self) -> tuple[str, ...]:
        return tuple("(" + ",".join(map(str, row)) + ")"
                     for row in self._coord_array.tolist())

    @cached_property
    def node_of_name(self) -> dict[str, int]:
        return {name: u for u, name in enumerate(self.coord_names)}

    def coord_str(self, u: int) -> str:
        if not 0 <= u < self.num_coords:
            raise TopologyError(f"node id {u} out of range")
        return self.coord_names[u]

    def opposite(self, d: int) -> int:
        return opposite_direction(d, self.n)

    def dir_name(self, d: int) -> str:
        return self.dir_names[d]

    # -- queries -----------------------------------------------------------

    def neighbor(self, u: int, d: int) -> int | None:
        """Node reached from u along d, or None if the link is absent."""
        if u in self.failed_nodes or not 0 <= u < self.num_coords:
            raise TopologyError(f"node {u} does not exist")
        v = int(self.neighbor_table[u, d])
        return v if v >= 0 else None

    def walk(self, src: int, steps: Iterable[int]
             ) -> tuple[list[int], list[int]]:
        """(nodes, channel ids) crossed by following ``steps`` from ``src``.

        The walk stops at the first dead link and returns the prefix it
        walked, so it failed exactly when fewer channels than steps come
        back. A failed source has no live link and walks no step.
        """
        nbr, chan = self.neighbor_rows, self.channel_rows
        node = src
        nodes = [src]
        channels = []
        for d in steps:
            c = chan[node][d]
            if c < 0:
                break
            node = nbr[node][d]
            nodes.append(node)
            channels.append(c)
        return nodes, channels

    def distance(self, a: int, b: int) -> int | None:
        """Minimal hop count between live nodes, None when unreachable."""
        if a in self.failed_nodes or b in self.failed_nodes:
            raise TopologyError("distance between failed nodes is undefined")
        if not self.failed_nodes and not self.failed_links:
            total = 0
            ca, cb = self.coords(a), self.coords(b)
            for x, y, size in zip(ca, cb, self.dims):
                delta = abs(x - y)
                total += delta if size == 2 else min(delta, size - delta)
            return total
        row = self._bfs_distances(a)
        dist = int(row[b])
        return dist if dist >= 0 else None

    def distance_row(self, a: int) -> list[int]:
        """Minimal hop count from live node ``a`` to every node id.

        Failed and unreachable nodes read -1.
        """
        if a in self.failed_nodes:
            raise TopologyError("distance between failed nodes is undefined")
        if self.failed_nodes or self.failed_links:
            return self._bfs_distances(a).tolist()
        coords = self._coord_array
        delta = np.abs(coords - coords[a])
        # a size-2 axis has delta 0 or 1, where the ring formula agrees
        return np.minimum(delta, np.array(self.dims) - delta).sum(
            axis=1).tolist()

    def _bfs_distances(self, src: int) -> np.ndarray:
        cached = self._dist_cache.get(src)
        if cached is not None:
            return cached
        dist = np.full(self.num_coords, -1, dtype=np.int32)
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in self.neighbor_table[u]:
                if v >= 0 and dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(int(v))
        self._dist_cache[src] = dist
        return dist

    def diameter(self) -> int:
        best = 0
        for u in self.live_nodes:
            for v in self.live_nodes:
                d = self.distance(u, v)
                if d is not None:
                    best = max(best, d)
        return best

    def is_connected(self) -> bool:
        if not self.live_nodes:
            return False
        row = self._bfs_distances(self.live_nodes[0])
        return all(row[v] >= 0 for v in self.live_nodes)


def make_torus(dims: Sequence[int],
               failed_nodes: Iterable[int | Sequence[int]] = (),
               failed_links: Iterable[tuple[int | Sequence[int], int]] = ()
               ) -> Topology:
    """Build a topology, validating faults and symmetrizing failed links."""
    dims = tuple(int(d) for d in dims)
    if not 1 <= len(dims) <= MAX_DIMS:
        raise TopologyError(f"dimension count {len(dims)} outside 1..{MAX_DIMS}")
    if any(d < 2 for d in dims):
        raise TopologyError(f"every dimension size must be >= 2, got {dims}")

    clean = Topology(dims, frozenset(), frozenset())

    def as_node(ref) -> int:
        if isinstance(ref, (tuple, list)):
            return clean.node_id(ref)
        u = int(ref)
        if not 0 <= u < clean.num_coords:
            raise TopologyError(f"failed node {ref} out of range")
        return u

    nodes = frozenset(as_node(r) for r in failed_nodes)

    links = set()
    for ref, d in failed_links:
        u = as_node(ref)
        d = int(d)
        if not 0 <= d < clean.ndirs:
            raise TopologyError(f"direction index {d} out of range")
        v = clean.neighbor(u, d)
        if v is None:
            raise TopologyError(
                f"failed link ({clean.coord_str(u)},{clean.dir_name(d)}) "
                "does not exist")
        links.add((u, d))
        links.add((v, clean.opposite(d)))

    return Topology(dims, nodes, frozenset(links))


def most_remote(t: Topology, candidates: Iterable[int], from_: int) -> int:
    """Candidate farthest from ``from_``; ties go to the smallest node id."""
    order = sorted(candidates)
    if not order:
        raise TopologyError("most_remote requires a nonempty candidate set")
    if t.failed_nodes.intersection(order):
        raise TopologyError("distance between failed nodes is undefined")
    row = t.distance_row(from_)
    return max(order, key=row.__getitem__)  # max keeps the first of ties


# -- topology spec files ---------------------------------------------------

def parse_topology(text: str) -> Topology:
    """Parse the text topology format.

    Line 1: ``dims: d1 d2 ...``. Optional lines: ``fail-node: <coords>`` and
    ``fail-link: <coords> <dir>`` with dir in {+X,+Y,+Z,+K,-X,-Y,-Z,-K}.
    ``#`` starts a comment.
    """
    dims = None
    failed_nodes = []
    failed_links = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"expected 'key: value' line, got {raw!r}")
        key, _, value = line.partition(":")
        key = key.strip().lower()
        fields = value.replace(",", " ").replace("(", " ").replace(")", " ").split()
        if key == "dims":
            if dims is not None:
                raise ParseError("duplicate dims line")
            try:
                dims = [int(f) for f in fields]
            except ValueError as exc:
                raise ParseError(f"bad dims line {raw!r}") from exc
        elif key == "fail-node":
            if dims is None:
                raise ParseError("fail-node before dims line")
            try:
                failed_nodes.append(tuple(int(f) for f in fields))
            except ValueError as exc:
                raise ParseError(f"bad fail-node line {raw!r}") from exc
        elif key == "fail-link":
            if dims is None:
                raise ParseError("fail-link before dims line")
            if len(fields) != len(dims) + 1:
                raise ParseError(f"bad fail-link line {raw!r}")
            try:
                coords = tuple(int(f) for f in fields[:-1])
            except ValueError as exc:
                raise ParseError(f"bad fail-link line {raw!r}") from exc
            failed_links.append((coords, parse_direction(fields[-1], len(dims))))
        else:
            raise ParseError(f"unknown key {key!r}")
    if dims is None:
        raise ParseError("missing dims line")
    try:
        return make_torus(dims, failed_nodes, failed_links)
    except TopologyError as exc:
        raise ParseError(str(exc)) from exc


def topology_to_text(t: Topology) -> str:
    lines = ["dims: " + " ".join(str(d) for d in t.dims)]
    for u in sorted(t.failed_nodes):
        lines.append("fail-node: " + " ".join(str(c) for c in t.coords(u)))
    probe = Topology(t.dims, frozenset(), frozenset())
    skip = set()
    for (u, d) in sorted(t.failed_links):
        if (u, d) in skip:
            continue
        v = probe.neighbor(u, d)
        if v is not None:
            skip.add((v, t.opposite(d)))  # emit each cable once
        lines.append("fail-link: " + " ".join(str(c) for c in t.coords(u))
                     + " " + t.dir_name(d))
    return "\n".join(lines) + "\n"


def load_topology(path) -> Topology:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_topology(fh.read())


def sum_pair_distances(t: Topology) -> int:
    """Sum of minimal hop counts over all ordered live node pairs."""
    if not t.failed_nodes and not t.failed_links:
        total = 0
        for j, size in enumerate(t.dims):
            if size == 2:
                pair_sum = 2
            else:
                pair_sum = sum(min(abs(a - b), size - abs(a - b))
                               for a in range(size) for b in range(size))
            mult = (t.num_coords // size) ** 2
            total += pair_sum * mult
        return total
    total = 0
    for u in t.live_nodes:
        row = t._bfs_distances(u)
        for v in t.live_nodes:
            if v == u:
                continue
            if row[v] < 0:
                raise DisconnectedError(
                    f"nodes {t.coord_str(u)} and {t.coord_str(v)} are disconnected")
            total += int(row[v])
    return total
