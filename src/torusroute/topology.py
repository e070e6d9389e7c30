"""n-dimensional torus model: nodes, directions, links, faults, distances.

Dimensions of size 2 degenerate to a mesh along that axis: there is a single
physical cable per node pair, exposed as one +dir channel and one -dir channel
(no wraparound duplicate). Directions are ordered +X +Y +Z +K -X -Y -Z -K and
are represented as integers 0..2n-1 (0..n-1 positive, n..2n-1 negative).
Every hop distance is read from one table, ``Topology.distances``.

Both id layouts are worked out here alone, and every other module reads
them off a topology's read-only arrays: node ids are row-major over the
coordinate grid (``Topology.grid``, one row per axis and one column per node
id, with its ``strides``), and channel ids go node by node in direction
order (``channel_node`` and ``channel_dir`` per channel id).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
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
    inverse ``node_of_name``. :attr:`distances` (built on first use) is the
    single source of hop distance: :meth:`distance`, :meth:`is_connected`
    and :func:`sum_pair_distances` read it, and other readers index it.
    ``grid`` and ``strides`` are the single source of the node layout, and
    ``channel_node`` and ``channel_dir`` of the channel layout.

    Construct through :func:`make_torus`.
    """

    def __init__(self, dims: Sequence[int], failed_nodes: frozenset[int],
                 failed_links: frozenset[tuple[int, int]]):
        self.dims = tuple(int(d) for d in dims)
        self.n = len(self.dims)
        self.ndirs = 2 * self.n
        self.num_coords = int(np.prod(self.dims))
        self.grid, self.strides = _grid(self.dims)
        self.failed_nodes = failed_nodes
        self.failed_links = failed_links
        self.neighbor_table = self._build_neighbor_table()
        self.live_nodes = tuple(
            u for u in range(self.num_coords) if u not in failed_nodes)
        # the live links, node by node (a failed node has none)
        node, d = np.nonzero(self.neighbor_table >= 0)
        node.flags.writeable = d.flags.writeable = False
        self.channel_node, self.channel_dir = node, d
        self.channels: tuple[tuple[int, int], ...] = tuple(
            zip(node.tolist(), d.tolist()))
        self.channel_id = {c: i for i, c in enumerate(self.channels)}
        self.n_channels = len(self.channels)
        self.channel_table = np.full(self.neighbor_table.shape, -1, np.int32)
        self.channel_table[node, d] = np.arange(self.n_channels)
        # plain-list rows: indexing them is cheaper than numpy scalar access
        self.neighbor_rows = self.neighbor_table.tolist()
        self.channel_rows = self.channel_table.tolist()
        self.dir_names = tuple(direction_name(d, self.n)
                               for d in range(self.ndirs))
        self.dir_of_name = {name: d for d, name in enumerate(self.dir_names)}

    # -- construction ------------------------------------------------------

    def _build_neighbor_table(self) -> np.ndarray:
        """Node reached from each node along each direction, or -1: a mesh
        axis does not wrap, and a failed node or a failed link has no link."""
        size = self.num_coords
        table = _torus_neighbors(self.dims).copy()
        failed = np.zeros(size + 1, dtype=bool)  # index -1 stays False
        failed[list(self.failed_nodes)] = True
        table[failed[table] | failed[:size, None]] = -1
        if self.failed_links:
            table[tuple(np.array(list(self.failed_links)).T)] = -1
        return table

    # -- coordinates -------------------------------------------------------

    def coords(self, u: int) -> tuple[int, ...]:
        self.check_nodes((u,))
        return tuple(self.grid[:, u].tolist())

    def node_id(self, coords: Sequence[int]) -> int:
        return _node_id(self.dims, coords)

    @cached_property
    def coord_names(self) -> tuple[str, ...]:
        return tuple("(" + ",".join(map(str, row)) + ")"
                     for row in self.grid.T.tolist())

    @cached_property
    def node_of_name(self) -> dict[str, int]:
        return {name: u for u, name in enumerate(self.coord_names)}

    def check_nodes(self, nodes: Iterable[int]) -> None:
        """Raise TopologyError on the first node id outside the topology."""
        for u in nodes:
            if not 0 <= u < self.num_coords:
                raise TopologyError(f"node id {u} out of range")

    def coord_str(self, u: int) -> str:
        self.check_nodes((u,))
        return self.coord_names[u]

    def opposite(self, d: int) -> int:
        return opposite_direction(d, self.n)

    def dir_name(self, d: int) -> str:
        return self.dir_names[d]

    # -- queries -----------------------------------------------------------

    def walk(self, src: int, steps: Iterable[int]
             ) -> tuple[list[int], list[int]]:
        """(nodes, channel ids) crossed by following ``steps`` from ``src``.

        The walk stops at the first dead link and returns the prefix it
        walked, so it failed exactly when fewer channels than steps come
        back. A failed source has no live link and walks no step; a source
        outside the topology raises TopologyError.
        """
        self.check_nodes((src,))
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

    @cached_property
    def distances(self) -> np.ndarray:
        """Hops between every pair of node ids (read-only, symmetric), -1
        where either endpoint failed or no path joins them.

        One breadth-first search from every live node at once: row ``v`` of
        the frontier holds the sources that reach ``v`` at the current level.
        Failed links are symmetric, so a node's in-neighbours are its
        out-neighbours and each level gathers the previous one's rows once
        per direction.
        """
        size = self.num_coords
        # a missing link gathers row ``size``, which stays all False
        nbr = np.where(self.neighbor_table < 0, size, self.neighbor_table)
        dist = np.full((size, size), -1,
                       dtype=np.int16 if size <= 1 << 15 else np.int32)
        frontier = np.zeros((size + 1, size), dtype=bool)
        frontier[self.live_nodes, self.live_nodes] = True
        level = 0
        while frontier.any():
            dist[frontier[:size]] = level
            level += 1
            reach = frontier[nbr[:, 0]]
            for d in range(1, self.ndirs):
                reach |= frontier[nbr[:, d]]
            frontier[:size] = reach & (dist < 0)
        dist.flags.writeable = False
        return dist

    def _live(self, u: int) -> int:
        self.check_nodes((u,))
        if u in self.failed_nodes:
            raise TopologyError("distance between failed nodes is undefined")
        return u

    def distance(self, a: int, b: int) -> int | None:
        """Minimal hop count between live nodes, None when unreachable."""
        dist = int(self.distances[self._live(a), self._live(b)])
        return dist if dist >= 0 else None

    def is_connected(self) -> bool:
        live = len(self.live_nodes)
        return live > 0 and np.count_nonzero(self.distances >= 0) == live ** 2


def _node_id(dims: Sequence[int], coords: Sequence[int]) -> int:
    """Row-major node id of ``coords``; TopologyError when out of range."""
    if len(coords) != len(dims):
        raise TopologyError(f"expected {len(dims)} coordinates, got {coords}")
    u = 0
    for c, d in zip(coords, dims):
        if not 0 <= c < d:
            raise TopologyError(f"coordinate {coords} out of range")
        u = u * d + c
    return u


@lru_cache(maxsize=64)
def _grid(dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only coordinate grid (one row per axis, one column per node id)
    and its row-major strides: node id u is ``strides @ grid[:, u]``."""
    grid = np.indices(dims).reshape(len(dims), -1)
    strides = np.cumprod((1,) + dims[:0:-1])[::-1].copy()
    grid.flags.writeable = strides.flags.writeable = False
    return grid, strides


@lru_cache(maxsize=64)
def _torus_neighbors(dims: tuple[int, ...]) -> np.ndarray:
    """Read-only (node x direction) table of the node reached when nothing
    has failed, or -1 past the end of a mesh axis (size 2), which does not
    wrap. One broadcast over the coordinate grid."""
    grid, strides = _grid(dims)
    n = len(dims)
    shape, eye = np.array(dims), np.eye(n, dtype=np.int64)
    # per (node, direction, axis), the coordinates one step on
    moved = grid.T[:, None] + np.concatenate([eye, -eye])
    table = ((moved % shape) @ strides).astype(np.int32)
    table[((shape == 2) & ((moved < 0) | (moved >= shape))).any(axis=2)] = -1
    table.flags.writeable = False
    return table


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

    n, size = len(dims), math.prod(dims)

    def as_node(ref) -> int:
        if isinstance(ref, (tuple, list)):
            return _node_id(dims, ref)
        u = int(ref)
        if not 0 <= u < size:
            raise TopologyError(f"failed node {ref} out of range")
        return u

    nodes = frozenset(as_node(r) for r in failed_nodes)

    torus = _torus_neighbors(dims)
    links = set()
    for ref, d in failed_links:
        u = as_node(ref)
        d = int(d)
        if not 0 <= d < 2 * n:  # -1 would wrap to the last direction
            raise TopologyError(f"direction index {d} out of range")
        v = int(torus[u, d])
        if v < 0:
            name = ",".join(map(str, _grid(dims)[0][:, u].tolist()))
            raise TopologyError(f"failed link (({name}),"
                                f"{direction_name(d, n)}) does not exist")
        links.add((u, d))
        links.add((v, opposite_direction(d, n)))

    return Topology(dims, nodes, frozenset(links))


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


def read_text(path) -> str:
    """A file's text; ParseError names the byte offset of the first byte
    that is not UTF-8. Line ends are left as they are: every reader splits
    lines with ``str.splitlines``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8 at byte {exc.start}") from exc


def load_topology(path) -> Topology:
    return parse_topology(read_text(path))


def sum_pair_distances(t: Topology) -> int:
    """Sum of minimal hop counts over all ordered live node pairs."""
    live = t.live_nodes
    dist = t.distances[np.ix_(live, live)]
    if (dist < 0).any():
        i, j = np.argwhere(dist < 0)[0]
        raise DisconnectedError(f"nodes {t.coord_str(live[i])} and "
                                f"{t.coord_str(live[j])} are disconnected")
    return int(dist.sum(dtype=np.int64))
