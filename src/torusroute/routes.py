"""Routes in first-step / body / last-step decomposed form, and routing tables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import IntegrityError, ParseError, TopologyError
from .routing_graph import RoutingGraph, VKind, vec_last_direction, vec_to_code
from .topology import Topology, parse_direction

CdgEdge = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class Route:
    src: int
    dst: int
    fs: int | None
    body: tuple[int, ...]
    ls: int | None
    node_seq: tuple[int, ...]

    @property
    def steps(self) -> tuple[int, ...]:
        out = () if self.fs is None else (self.fs,)
        out += self.body
        if self.ls is not None:
            out += (self.ls,)
        return out

    def __len__(self) -> int:
        return len(self.node_seq) - 1


def make_route(t: Topology, src: int, fs: int | None, body: Iterable[int],
               ls: int | None) -> Route:
    """Build a Route by walking the steps from src (no rule checking)."""
    body = tuple(body)
    steps = (() if fs is None else (fs,)) + body + (() if ls is None else (ls,))
    if steps and (src in t.failed_nodes or not 0 <= src < t.num_coords):
        raise TopologyError(f"node {src} does not exist")
    seq = _live_walk(t, src, steps)
    return Route(src, seq[-1], fs, body, ls, tuple(seq))


def _live_walk(t: Topology, src: int, steps: tuple[int, ...]) -> list[int]:
    """Nodes visited by ``steps`` from ``src``; ValueError at a dead step."""
    nodes, channels = t.walk(src, steps)
    if len(channels) < len(steps):
        raise ValueError(f"step {t.dir_name(steps[len(channels)])} from "
                         f"{t.coord_str(nodes[-1])} is dead")
    return nodes


def route_channels(t: Topology, r: Route) -> list[int]:
    """Channel ids a route crosses; IntegrityError at its first dead one."""
    steps = r.steps
    nodes, channels = t.walk(r.src, steps)
    if len(channels) < len(steps):
        raise IntegrityError(
            f"route {t.coord_str(r.src)}->{t.coord_str(r.dst)} crosses dead "
            f"channel {t.coord_str(nodes[-1])}"
            f"{t.dir_name(steps[len(channels)])}")
    return channels


def decode_rg_path(rg: RoutingGraph, path: list[int]) -> Route:
    """Route encoded by a begin -> ... -> end vertex path.

    The step into a DIRBIT vertex always equals the greatest direction of its
    sign vector, so directions are read off the vertex kinds alone.
    """
    t = rg.topology
    infos = [rg.vertex_info(v) for v in path]
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


def _violations(t: Topology, seq, fs: int | None, body: tuple[int, ...],
                ls: int | None, relaxed):
    """Rule violations, lazily, of one (fs, body, ls) split of a route.

    ``seq`` is the route's walked node sequence and ``relaxed`` the set of
    registered relaxed turns.
    """
    n = t.n
    if fs is not None and fs >= n:
        yield "first step must be a positive direction"
    if ls is not None and ls < n:
        yield "last step must be a negative direction"

    # body: non-decreasing order, one sign per dimension
    vec = [0] * n
    prev = None
    for i, d in enumerate(body):
        sign = 1 if d < n else -1
        if vec[d % n] not in (0, sign):
            yield (f"body step {i + 1} ({t.dir_name(d)}) reuses dimension "
                   f"{d % n + 1} with the opposite sign")
        if prev is not None and d < prev:
            yield (f"body step {i + 1} ({t.dir_name(d)}) violates the "
                   "direction order")
        vec[d % n] = sign
        prev = d

    # first-step turn: strictly ascending and not a U-turn, else registered
    if fs is not None and body:
        b1 = body[0]
        if (not (fs < b1 and b1 != t.opposite(fs))
                and ((seq[0], fs), (seq[1], b1)) not in relaxed):
            yield (f"first-step turn {t.dir_name(fs)}->{t.dir_name(b1)} "
                   "is not a registered relaxed turn")

    # last-step turn, symmetric
    if ls is not None:
        last = body[-1]
        if (not (last < ls and ls != t.opposite(last))
                and ((seq[-3], last), (seq[-2], ls)) not in relaxed):
            yield (f"last-step turn {t.dir_name(last)}->{t.dir_name(ls)} "
                   "is not a registered relaxed turn")


def legal_encodings(t: Topology, src: int, steps: tuple[int, ...],
                    relaxed=frozenset(), first_only: bool = False):
    """(node sequence, every legal (fs, body, ls) decomposition of ``steps``).

    Decompositions are ordered by how many non-standard steps they spend:
    plain body first, then first step, last step, both. Encoding-count
    analysis relies on this list being exactly the routing-graph encodings.
    """
    n = t.n
    seq = _live_walk(t, src, steps)
    k = len(steps)
    candidates = [(None, steps, None)]
    if k == 1 and steps[0] < n:
        candidates.append((steps[0], (), None))  # lone first step
    if k >= 2 and steps[0] < n:
        candidates.append((steps[0], steps[1:], None))
    if k >= 2 and steps[-1] >= n:
        candidates.append((None, steps[:-1], steps[-1]))
    if k >= 3 and steps[0] < n and steps[-1] >= n:
        candidates.append((steps[0], steps[1:-1], steps[-1]))
    out = []
    for fs, body, ls in candidates:
        if next(_violations(t, seq, fs, body, ls, relaxed), None) is None:
            out.append((fs, tuple(body), ls))
            if first_only:
                break
    return seq, out


def preferred_encoding(t: Topology, src: int, steps: tuple[int, ...],
                       relaxed: Iterable[CdgEdge] = ()) -> Route:
    """Route with the fewest non-standard steps that legally encodes ``steps``.

    A plain body is preferred; a first or last step is used only when the
    direction order or the direction-bit rule forces it. Raises ValueError
    when no decomposition is rule-legal.
    """
    relaxed = relaxed if isinstance(relaxed, (set, frozenset)) else set(relaxed)
    seq, encodings = legal_encodings(t, src, tuple(steps), relaxed,
                                     first_only=True)
    if not encodings:
        raise ValueError(
            f"steps {[t.dir_name(d) for d in steps]} admit no rule-legal "
            "encoding")
    fs, body, ls = encodings[0]
    return Route(src, seq[-1], fs, body, ls, tuple(seq))


def route_to_rg_path(rg: RoutingGraph, r: Route) -> list[int]:
    """Vertex path of a route in the routing graph (inverse of decode)."""
    t = rg.topology
    nodes = _live_walk(t, r.src, r.steps)
    path = [rg.begin_vid(r.src)]
    if r.fs is not None:
        path.append(rg.fs_vid(nodes[1], r.fs))
    vec = [0] * t.n
    for node, d in zip(nodes[1 + (r.fs is not None):], r.body):
        vec[d % t.n] = 1 if d < t.n else -1
        path.append(rg.dirbit_vid(node, vec_to_code(vec)))
    if r.ls is not None:
        path.append(rg.ls_vid(nodes[-1], r.ls))
    path.append(rg.end_vid(nodes[-1]))
    return path


def validate_route(t: Topology, r: Route,
                   relaxed_turns: Iterable[CdgEdge] = ()) -> list[str]:
    """Rule violations of a route; empty list means the route is valid.

    ``relaxed_turns`` are the dependency-graph edges added by augmentation;
    an order-violating first or last step is legal only when its exact turn
    is registered there.
    """
    relaxed = (relaxed_turns if isinstance(relaxed_turns, (set, frozenset))
               else set(relaxed_turns))
    problems: list[str] = []

    # shape
    if not r.body and not (r.fs is not None and r.ls is None):
        if r.fs is None and r.ls is None:
            problems.append("empty route (src == dst forms no table entry)")
        else:
            problems.append("last step requires a nonempty body")
        return problems

    # liveness of the node sequence
    steps = r.steps
    seq, channels = t.walk(r.src, steps)
    if len(channels) < len(steps):
        i = len(channels)
        problems.append(
            f"step {i + 1} ({t.dir_name(steps[i])} from "
            f"{t.coord_str(seq[-1])}) uses a dead link")
        return problems
    if tuple(seq) != r.node_seq:
        problems.append("node_seq does not match the steps")
    if seq[-1] != r.dst:
        problems.append("route does not end at dst")

    problems.extend(_violations(t, seq, r.fs, r.body, r.ls, relaxed))
    return problems


class RoutingTable:
    """Exactly one route per ordered node pair, plus generation statistics."""

    def __init__(self, topology: Topology, routes: Mapping[tuple[int, int], Route],
                 stats=None):
        self.topology = topology
        self.routes = dict(routes)
        self.stats = stats
        self._link_ids = None

    def __len__(self):
        return len(self.routes)

    def link_ids(self):
        """Channel ids crossed by every route, concatenated (cached)."""
        if self._link_ids is None:
            t = self.topology
            ids = []
            for (_, _), r in sorted(self.routes.items()):
                ids.extend(route_channels(t, r))
            self._link_ids = np.asarray(ids, dtype=np.int64)
        return self._link_ids


def check_table(t: Topology, rt: RoutingTable,
                relaxed_turns: Iterable[CdgEdge] = ()) -> dict[str, list[str]]:
    """Completeness, minimality and rule validity; empty lists mean pass."""
    relaxed = set(relaxed_turns)
    report = {"completeness": [], "minimality": [], "validity": []}
    live = t.live_nodes
    for s in live:
        for d in live:
            if s != d and (s, d) not in rt.routes:
                report["completeness"].append(
                    f"missing pair {t.coord_str(s)}->{t.coord_str(d)}")
    row_src, row = None, None
    for (s, d), r in sorted(rt.routes.items()):
        if (s, d) != (r.src, r.dst):
            report["validity"].append(f"route stored under wrong pair {s}->{d}")
        if s in t.failed_nodes or d in t.failed_nodes:
            dead = s if s in t.failed_nodes else d
            report["validity"].append(
                f"{t.coord_str(s)}->{t.coord_str(d)}: endpoint "
                f"{t.coord_str(dead)} is a failed node")
            continue
        if s != row_src:  # routes come sorted, so one row per source
            row_src, row = s, t.distance_row(s)
        want = row[d]
        if want < 0 or len(r) != want:
            report["minimality"].append(
                f"{t.coord_str(s)}->{t.coord_str(d)}: length {len(r)}, "
                f"minimal {want if want >= 0 else None}")
        for msg in validate_route(t, r, relaxed):
            report["validity"].append(
                f"{t.coord_str(s)}->{t.coord_str(d)}: {msg}")
    return report


# -- table files -------------------------------------------------------------

def _route_line(t: Topology, r: Route) -> str:
    names, dirs = t.coord_names, t.dir_names
    parts = [dirs[d] for d in r.body]
    if r.fs is not None:
        parts.insert(0, "FS" + dirs[r.fs])
    if r.ls is not None:
        parts.append("LS" + dirs[r.ls])
    nodes = " ".join([names[u] for u in r.node_seq])
    return (f"{names[r.src]} -> {names[r.dst]} : "
            f"{' '.join(parts)} | nodes: {nodes}")


def table_to_text(rt: RoutingTable) -> str:
    t = rt.topology
    lines = [_route_line(t, rt.routes[key]) for key in sorted(rt.routes)]
    return "\n".join(lines) + "\n"


def write_table(rt: RoutingTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(table_to_text(rt))


def _parse_coord(token: str, t: Topology) -> int:
    u = t.node_of_name.get(token)  # the written form
    if u is not None:
        return u
    token = token.strip()
    if not (token.startswith("(") and token.endswith(")")):
        raise ParseError(f"bad coordinate {token!r}")
    try:
        coords = tuple(int(x) for x in token[1:-1].split(","))
        return t.node_id(coords)
    except Exception as exc:
        raise ParseError(f"bad coordinate {token!r}") from exc


def parse_table(text: str, t: Topology) -> RoutingTable:
    """Routing table from its text; the written forms are looked up by name.

    A token that is not exactly a name falls back to the lenient parsers,
    which accept forms like ``( 0,1)``, ``(+1,01)`` and U+2212 ``−X``.
    """
    node_of, dir_of = t.node_of_name, t.dir_of_name

    def direction(token: str) -> int:
        d = dir_of.get(token)
        return parse_direction(token, t.n) if d is None else d

    routes = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            head, _, nodes_part = line.partition(" | nodes: ")
            pair_part, _, steps_part = head.partition(" : ")
            src_s, _, dst_s = pair_part.partition(" -> ")
            src = _parse_coord(src_s, t)
            dst = _parse_coord(dst_s, t)
            fs = ls = None
            body = []
            for tok in steps_part.split():
                d = dir_of.get(tok)
                if d is not None:
                    body.append(d)
                elif tok.startswith("FS"):
                    fs = direction(tok[2:])
                elif tok.startswith("LS"):
                    ls = direction(tok[2:])
                else:
                    body.append(parse_direction(tok, t.n))
            tokens = nodes_part.split()
            try:
                seq = tuple(map(node_of.__getitem__, tokens))
            except KeyError:
                seq = tuple(_parse_coord(tok, t) for tok in tokens)
            if not seq:
                raise ParseError("missing node sequence")
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        routes[(src, dst)] = Route(src, dst, fs, tuple(body), ls, seq)
    return RoutingTable(t, routes)


def load_table(path, t: Topology) -> RoutingTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_table(fh.read(), t)
