"""Routes in first-step / body / last-step decomposed form, and routing tables.

A :class:`RoutingTable` holds one form, its :class:`Columns`: one row per
route in sorted (src, dst) order, with ``src``, ``dst``, ``fs``, ``ls``, a
padded ``steps`` matrix, a padded ``nodes`` matrix and ``length``. The
generators encode their link chains into columns (:func:`encode_chains`),
:func:`parse_table` fills them from text, and :func:`table_to_text` writes
every table from them. A :class:`Route` is a row read back
(:func:`route_rows`).

Text is read back a chunk of lines at a time, as bytes: each chunk is
encoded to UTF-8 once and cut into tokens at its 0x20 bytes, and every token
is looked up in one pass of array operations (:class:`_Vocabulary`). A token
of up to 16 bytes is keyed on its first and last 8-byte words; the key picks
one candidate name, direction or separator in a table built once per
topology, and the token takes the candidate's code only when its length and
both words are the candidate's. A line in the written form is read from the
codes; any other line goes to the per-line reader, :func:`_parse_line`.

The rules are written twice: :func:`_violations`, the per-route reference,
and the array kernel :func:`_split_breaks`, which judges every row in all
four first/last-step splits at once from facts it works out once per row.
The encoder takes each chain's first legal split from it, and the checks
read each row's own split. The checks flag, then explain: only flagged rows
go, in pair order, through :func:`validate_route` and
:func:`route_channels`, which write the messages.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain
from typing import Iterable
from weakref import WeakKeyDictionary

import numpy as np

from .errors import IntegrityError, ParseError, TopologyError
from .topology import Topology, parse_direction, read_text

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


_CHUNK = 4096  # rows or lines at a time, which bounds the Python lists


@dataclass(frozen=True)
class Columns:
    """A routing table as arrays, one row per route in sorted pair order.

    ``steps`` holds every step of a route (first step, body, last step) and
    ``nodes`` its node sequence, both padded with -1. ``fs`` and ``ls`` are
    -1 for none, and ``length`` is the node count minus one.
    """
    src: np.ndarray
    dst: np.ndarray
    fs: np.ndarray
    ls: np.ndarray
    steps: np.ndarray
    nodes: np.ndarray
    length: np.ndarray

    def take(self, rows) -> Columns:
        return Columns(*(getattr(self, f.name)[rows] for f in fields(self)))

    def put(self, rows, part: Columns) -> None:
        """Write the rows of ``part``, whose matrices may be narrower, over
        ``rows``, in place."""
        for f in fields(self):
            into, new = getattr(self, f.name), getattr(part, f.name)
            into[rows] = new if new.ndim == 1 else _widen(new, into.shape[1])


def _widen(a: np.ndarray, width: int) -> np.ndarray:
    if width == a.shape[1]:
        return a
    return np.pad(a, ((0, 0), (0, width - a.shape[1])), constant_values=-1)


def _stack(blocks: list[np.ndarray]) -> np.ndarray:
    """Matrices one below the other, each padded with -1 to the widest; no
    matrix at all stacks to an empty one of width 1."""
    if not blocks:
        return np.full((0, 1), -1, dtype=np.int32)
    width = max(b.shape[1] for b in blocks)
    return np.concatenate([_widen(b, width) for b in blocks])


def _id_dtype(t: Topology):
    """A signed type that holds every node id, direction and channel id."""
    return np.int16 if t.num_coords * t.ndirs < 2 ** 15 else np.int32


def _padded(flat: np.ndarray, lens: np.ndarray, width: int, dtype,
            shift=0) -> np.ndarray:
    """Row i holds the next ``lens[i]`` values of ``flat`` from column
    ``shift`` (or ``shift[i]``) on; the rest is -1."""
    col = np.arange(width)
    start = np.asarray(shift).reshape(-1, 1)
    out = np.full((len(lens), width), -1, dtype=dtype)
    out[(col >= start) & (col < start + lens[:, None])] = flat
    return out


def _columns(t: Topology, src, dst, fs, body, ls, seq) -> Columns:
    """Columns of routes given field by field, in their order."""
    count, dtype = len(src), _id_dtype(t)
    fs = np.array([-1 if d is None else d for d in fs], dtype=dtype)
    ls = np.array([-1 if d is None else d for d in ls], dtype=dtype)
    has_fs, has_ls = fs >= 0, ls >= 0
    nbody = np.fromiter(map(len, body), dtype=np.intp, count=count)
    nsteps = has_fs + nbody + has_ls
    steps = _padded(np.fromiter(chain.from_iterable(body), dtype=dtype,
                                count=int(nbody.sum())),
                    nbody, int(nsteps.max(initial=1)), dtype, has_fs)
    rows = np.arange(count)
    steps[rows[has_fs], 0] = fs[has_fs]
    steps[rows[has_ls], nsteps[has_ls] - 1] = ls[has_ls]
    nseq = np.fromiter(map(len, seq), dtype=np.intp, count=count)
    nodes = _padded(np.fromiter(chain.from_iterable(seq), dtype=dtype,
                                count=int(nseq.sum())),
                    nseq, int(nseq.max(initial=0)), dtype)
    return Columns(np.array(src, dtype=dtype), np.array(dst, dtype=dtype),
                   fs, ls, steps, nodes, (nseq - 1).astype(np.int32))


def _concat(parts: list[Columns]) -> Columns:
    if len(parts) == 1:
        return parts[0]
    out = []
    for f in fields(Columns):
        arrays = [getattr(p, f.name) for p in parts]
        out.append(_stack(arrays) if arrays[0].ndim == 2
                   else np.concatenate(arrays))
    return Columns(*out)


def route_rows(c: Columns):
    """One Route, of Python ints, per row, in row order."""
    nsteps = (c.steps >= 0).sum(axis=1)
    for i in range(0, len(nsteps), _CHUNK):  # bounds the row lists
        rows = slice(i, i + _CHUNK)
        for s, d, fs, ls, steps, k, nodes, length in zip(
                c.src[rows].tolist(), c.dst[rows].tolist(),
                c.fs[rows].tolist(), c.ls[rows].tolist(),
                c.steps[rows].tolist(), nsteps[rows].tolist(),
                c.nodes[rows].tolist(), c.length[rows].tolist()):
            yield Route(s, d, None if fs < 0 else fs,
                        tuple(steps[fs >= 0:k - (ls >= 0)]),
                        None if ls < 0 else ls, tuple(nodes[:length + 1]))


def _turn_ids(t: Topology, relaxed) -> np.ndarray:
    """Ids ``a * n_channels + b`` of the relaxed turns (a, b) that exist."""
    nch, cid = t.n_channels, t.channel_id
    return np.array(sorted({cid[a] * nch + cid[b] for a, b in relaxed
                            if a in cid and b in cid}), dtype=np.int64)


# (first steps, last steps) of the candidate splits, in the order preferred;
# split j takes ``j % 2`` first steps and ``j // 2`` last steps
_SPLITS = np.array([(0, 0), (1, 0), (0, 1), (1, 1)])


def _split_breaks(t: Topology, steps: np.ndarray, chan: np.ndarray,
                  turns: np.ndarray) -> np.ndarray:
    """Rows x 4 mask: whether row i, split as ``_SPLITS[j]``, breaks a rule
    of :func:`_violations` or the shape check of :func:`validate_route`.

    Row i's steps are ``steps[i]``, padded with -1. ``chan`` holds every
    step's channel id (-1 for none), so a relaxed turn is a pair of
    consecutive channel ids, one of ``turns`` (:func:`_turn_ids`). The four
    splits differ only at the two ends, so each row's facts are worked out
    once, a step column at a time: its step count, its descents (and whether
    one sits at either end), the direction bits of its interior and of its
    two end steps, and the verdicts of its first and last turn. Each split's
    verdict is then a 1-D combination of them.
    """
    n, nch = t.n, t.n_channels
    # a row per step column, at least one; blanked below
    by_col = _widen(steps, max(steps.shape[1], 1)).T.copy()
    k = (by_col >= 0).sum(axis=0)
    rows = np.arange(len(k))
    # the steps into and out of the first turn and the last turn
    first, second = by_col[0], by_col[min(1, len(by_col) - 1)]
    before, last = by_col[np.maximum(k - 2, 0), rows], by_col[k - 1, rows]
    a, b = np.stack([first, before]), np.stack([second, last])
    # a turn ascends without a U-turn, or else it is registered
    turn_bad = (k >= 2) & ~((a < b) & (b != (a + n) % (2 * n)))
    if len(turns) and turn_bad.any():
        which, r = np.nonzero(turn_bad)
        at = np.where(which == 0, 0, k[r] - 2)
        ca, cb = chan[r, at].astype(np.int64), chan[r, at + 1]
        turn_bad[which, r] = ~((ca >= 0) & (cb >= 0)
                               & np.isin(ca * nch + cb, turns))
    first_bad = (first >= n) | turn_bad[0]  # the first step is positive
    last_bad = (last < n) | turn_bad[1]  # the last step is negative
    down = ((by_col[1:] < by_col[:-1]) & (by_col[1:] >= 0)).sum(axis=0)
    down_first, down_last = (k >= 2) & (b < a)
    # direction bits, 0 for the padding -1; the interior's once the last
    # step is blanked out of the columns after the first
    bit = np.append(np.int64(1) << np.arange(2 * n), 0)
    first_bit, last_bit = bit[first], bit[last]
    by_col[k - 1, rows] = -1
    inner = np.zeros(len(k), dtype=np.int64)
    for column in by_col[1:]:
        inner |= bit[column]

    def mixed(used):  # a dimension used both ways
        return (used & (used >> n) & ((1 << n) - 1)) != 0

    return np.column_stack([
        (k < 1) | (down > 0) | mixed(inner | first_bit | last_bit),
        first_bad | (down - down_first > 0) | mixed(inner | last_bit),
        (k < 2) | last_bad | (down - down_last > 0) | mixed(inner | first_bit),
        (k < 3) | first_bad | last_bad
        | (down - down_first - down_last > 0) | mixed(inner)])


def encode_chains(t: Topology, src: np.ndarray, links: np.ndarray,
                  relaxed) -> tuple[Columns, np.ndarray]:
    """(columns, legal): every link chain in its first legal split.

    Row i is the chain of channel ids ``links[i]`` (padded with -1) from
    ``src[i]``, ``_CHUNK`` rows at a time, each chunk judged in one pass of
    :func:`_split_breaks` with the relaxed turns ``relaxed`` (the
    dependency-graph edges augmentation added). ``legal[i, j]`` is whether
    split ``_SPLITS[j]`` breaks no rule. A chain read off a shortest
    routing-graph path has one (Theorem 1); a row without one is written
    plain.
    """
    turns = _turn_ids(t, relaxed)
    owner, direction = np.array(t.channels, dtype=np.intp).reshape(-1, 2).T
    head = t.neighbor_table[owner, direction]
    dtype = _id_dtype(t)
    parts, legal = [], []
    for i in range(0, max(len(src), 1), _CHUNK):
        chan = links[i:i + _CHUNK]
        on = chan >= 0
        k, rows = on.sum(axis=1), np.arange(len(chan))
        steps = np.where(on, direction[chan], -1).astype(dtype)
        nodes = np.column_stack([src[i:i + _CHUNK],
                                 np.where(on, head[chan], -1)]).astype(dtype)
        ok = ~_split_breaks(t, steps, chan, turns)
        f, l = _SPLITS[ok.argmax(axis=1)].T
        parts.append(Columns(
            nodes[:, 0], nodes[rows, k],
            np.where(f > 0, steps[:, 0], -1).astype(dtype),
            np.where(l > 0, steps[rows, k - 1], -1).astype(dtype),
            steps, nodes, k.astype(np.int32)))
        legal.append(ok)
    return _concat(parts), np.concatenate(legal)


class RoutingTable:
    """Exactly one route per ordered node pair, plus generation statistics.

    The table holds only its :class:`Columns`, so a table reports alike
    whether it was generated or parsed from its own text. Its ``routes``
    view is read back from the columns when something asks for it.
    """

    def __init__(self, topology: Topology, columns: Columns, stats=None):
        self.topology = topology
        self.columns = columns
        self.stats = stats
        self._routes = None
        self._walked = None

    def __len__(self):
        return len(self.columns.src)

    @property
    def routes(self) -> dict[tuple[int, int], Route]:
        if self._routes is None:
            self._routes = {(r.src, r.dst): r for r in route_rows(self.columns)}
        return self._routes

    def route_at(self, i: int) -> Route:
        """The route in row ``i`` of the columns."""
        return next(route_rows(self.columns.take([i])))

    def _walk(self):
        """(channel matrix, clean rows, live rows), computed once.

        Every row is walked from its source along its steps, one step column
        at a time for all rows at once. A row is live while each step crosses
        an existing channel, and clean when it is live and its node sequence
        is that walk, ending at its destination.
        """
        if self._walked is None:
            t, c = self.topology, self.columns
            channel = t.channel_table.ravel()
            neighbor = t.neighbor_table.ravel()
            nodes = _widen(c.nodes,
                           max(c.nodes.shape[1], c.steps.shape[1] + 1))
            chan = np.full(c.steps.shape, -1, dtype=c.steps.dtype)
            at = c.src.astype(np.intp)
            live = np.ones(len(at), dtype=bool)
            clean = nodes[:, 0] == at
            for j, step in enumerate(c.steps.T):
                on = live & (step >= 0)
                flat = at * t.ndirs + np.where(on, step, 0)  # (node, dir)
                chan[:, j] = np.where(on, channel[flat], -1)
                moved = chan[:, j] >= 0
                live &= moved | ~on
                at = np.where(moved, neighbor[flat], at)
                clean &= nodes[:, j + 1] == np.where(moved, at, -1)
            clean &= (live & (at == c.dst)
                      & ((c.steps >= 0).sum(axis=1) == c.length))
            self._walked = chan, clean, live
        return self._walked

    def channels(self) -> tuple[np.ndarray, np.ndarray]:
        """(channel ids of every row, padded with -1; the rows whose every
        step crosses an existing channel)."""
        chan, _, live = self._walk()
        return chan, live

    def channel_matrix(self, rows=slice(None)) -> np.ndarray:
        """Channel ids of the given rows, padded with -1.

        IntegrityError names the first route among ``rows`` that crosses a
        dead channel.
        """
        chan, live = self.channels()
        dead = np.arange(len(live))[rows][~live[rows]]
        if dead.size:
            route_channels(self.topology, self.route_at(dead[0]))  # raises
        return chan[rows]


def _suspects(t: Topology, rt: RoutingTable, relaxed) -> np.ndarray:
    """Mask of the rows that may hold a problem, every row that holds one:
    endpoints, minimal length, the walk and the rules, which one pass of
    :func:`_split_breaks` judges in all four splits; each row reads the
    verdict of its own split, ``(fs >= 0) + 2 * (ls >= 0)``."""
    c = rt.columns
    chan, clean, _ = rt._walk()
    dist = t.distances[c.src, c.dst]  # -1 at a failed endpoint
    split = (c.fs >= 0) + 2 * (c.ls >= 0)
    breaks = _split_breaks(t, c.steps, chan, _turn_ids(t, relaxed))
    return (~clean | (dist < 0) | (dist != c.length)
            | breaks[np.arange(len(split)), split])


def check_table(t: Topology, rt: RoutingTable,
                relaxed_turns: Iterable[CdgEdge] = ()) -> dict[str, list[str]]:
    """Completeness, minimality and rule validity; empty lists mean pass.

    Array predicates flag the rows that may hold a problem; only those go
    through the per-route checks, in pair order, which write every message.
    """
    relaxed = set(relaxed_turns)
    report = {"completeness": [], "minimality": [], "validity": []}
    c = rt.columns
    names = t.coord_names
    live = np.zeros(t.num_coords, dtype=bool)
    live[list(t.live_nodes)] = True
    missing = np.outer(live, live)
    np.fill_diagonal(missing, False)
    missing[c.src, c.dst] = False
    for s, d in zip(*(a.tolist() for a in np.nonzero(missing))):
        report["completeness"].append(f"missing pair {names[s]}->{names[d]}")
    for i in np.flatnonzero(_suspects(t, rt, relaxed)).tolist():
        s, d = int(c.src[i]), int(c.dst[i])
        r = rt.route_at(i)
        if s in t.failed_nodes or d in t.failed_nodes:
            dead = s if s in t.failed_nodes else d
            report["validity"].append(
                f"{t.coord_str(s)}->{t.coord_str(d)}: endpoint "
                f"{t.coord_str(dead)} is a failed node")
            continue
        want = t.distance(s, d)  # None when unreachable
        if len(r) != want:
            report["minimality"].append(
                f"{t.coord_str(s)}->{t.coord_str(d)}: length {len(r)}, "
                + ("but no path joins the pair" if want is None
                   else f"minimal {want}"))
        for msg in validate_route(t, r, relaxed):
            report["validity"].append(
                f"{t.coord_str(s)}->{t.coord_str(d)}: {msg}")
    return report


# -- table files -------------------------------------------------------------

def table_to_text(rt: RoutingTable) -> str:
    """One ``src -> dst : steps | nodes: node...`` line per row: object
    matrices of text pieces, empty where padded, ``_CHUNK`` rows each."""
    t, c = rt.topology, rt.columns
    names = np.array(t.coord_names, dtype=object)
    # a -1 pad reads the empty piece at the end of each table
    spaced = np.array([" " + x for x in t.coord_names] + [""], dtype=object)
    dirs = np.array([" " + kind + d for kind in ("", "FS", "LS")
                     for d in t.dir_names] + [""], dtype=object)
    code = c.steps.astype(np.intp)
    nsteps = (code >= 0).sum(axis=1)
    code[c.fs >= 0, 0] += t.ndirs
    code[c.ls >= 0, nsteps[c.ls >= 0] - 1] += 2 * t.ndirs
    # an empty step or node list still leaves its separating space
    chunks = (slice(i, i + _CHUNK) for i in range(0, len(code), _CHUNK))
    return "".join("".join(np.column_stack([
        names[c.src[r]] + " -> " + names[c.dst[r]] + " :", dirs[code[r]],
        np.where(nsteps[r] == 0, "  | nodes:", " | nodes:"),
        spaced[c.nodes[r]], np.where(c.length[r] < 0, " \n", "\n")
    ]).ravel().tolist()) for r in chunks) or "\n"


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
    except (ValueError, TopologyError) as exc:
        raise ParseError(f"bad coordinate {token!r}") from exc


def _parse_line(line: str, t: Topology):
    """(src, dst, fs, body, ls, node_seq) of one line, or None for a blank or
    comment line; accepts the lenient forms."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    node_of, dir_of = t.node_of_name, t.dir_of_name

    def direction(token: str) -> int:
        d = dir_of.get(token)
        return parse_direction(token, t.n) if d is None else d

    # an empty node list leaves the stripped line ending in "| nodes:"
    head, _, nodes_part = f"{line} ".partition(" | nodes: ")
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
            if fs is not None:
                raise ParseError("more than one first step")
            fs = direction(tok[2:])
        elif tok.startswith("LS"):
            if ls is not None:
                raise ParseError("more than one last step")
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
    return src, dst, fs, tuple(body), ls, seq


# token classes of the written form: a node, a body, first or last step, the
# separators "->", ":", "|" and "nodes:", and the end of a line
_NODE, _STEP, _FIRST, _LAST, _ARROW, _COLON, _BAR, _NODES, _END = range(9)


def _token_codes(t: Topology) -> tuple[dict[str, int], int]:
    """(code of every token of the written form, ``m``): a token of class
    ``k`` whose value is ``v`` (a node id or a direction) has code
    ``k * m + v``."""
    m = max(t.num_coords, t.ndirs)
    codes = dict(t.node_of_name)
    for d, name in enumerate(t.dir_names):
        codes[name] = _STEP * m + d
        codes["FS" + name] = _FIRST * m + d
        codes["LS" + name] = _LAST * m + d
    for kind, sep in ((_ARROW, "->"), (_COLON, ":"), (_BAR, "|"),
                      (_NODES, "nodes:"), (_END, "\n")):
        codes[sep] = kind * m
    return codes, m


# a token of at most 16 bytes is spelled by its length and its first and last
# little-endian 8-byte words; no name of the written form is longer
_KEYED = 16
_LOW = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_MIX = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9],
                dtype=np.uint64)
_TRIES = 256  # displacements tried per bucket before its tokens go unplaced


def _token_keys(buf: bytes):
    """(length, first word, last word, key) of every token of ``buf``
    between 0x20 bytes.

    The tokens are ``str.split(" ")``'s: UTF-8 puts no 0x20 byte inside a
    character. The first word holds a token's first bytes, at most 8, with
    zeros above a shorter token; the last word is its last 8 bytes, or 0 if
    it has at most 8. With its length they spell a token of up to 16 bytes
    exactly. ``key`` mixes the two words only: tokens that differ in
    trailing NUL bytes alone share it, and only their lengths tell them
    apart.
    """
    bounds = np.flatnonzero(np.frombuffer(buf, dtype=np.uint8) == 0x20)
    bounds = np.concatenate(([-1], bounds, [len(buf)]))
    start, end = bounds[:-1] + 1, bounds[1:]
    size = end - start
    # the 8-byte word at every byte offset, read past the end as zeros
    words = np.ndarray(len(buf) + 1, dtype="<u8", buffer=buf + bytes(8),
                       strides=(1,))
    first = words[start] & _LOW[np.minimum(size, 8)]
    last = np.zeros_like(first)
    longer = np.flatnonzero(size > 8)
    last[longer] = words[end[longer] - 8]
    return size, first, last, first * _MIX[0] ^ last * _MIX[1]


@dataclass(frozen=True)
class _Vocabulary:
    """The token codes of one topology's written form, looked up by bytes.

    A token's key picks one slot in two steps (hash and displace): its top
    bits pick a bucket, and the key xor the bucket's displacement, mixed,
    picks the slot. A slot holds one token of up to 16 bytes, its length,
    two words and code, or length -1 when free; there are at most four
    slots per token, so the arrays are linear in the vocabulary. The slot's
    token is only a candidate: a token takes its code when its length and
    both words are the slot's. A token the table does not place (a bucket
    that found no free slots, never seen, or a name over 16 bytes, which
    needs 10**8 nodes) reads -1 like an unknown one, which sends its line
    to :func:`_parse_line`; only a line end is read from its byte.
    """
    m: int
    bits: int  # 2 ** bits buckets and twice as many slots
    displace: np.ndarray  # per bucket
    size: np.ndarray  # per slot
    first: np.ndarray
    last: np.ndarray
    code: np.ndarray

    @classmethod
    def of(cls, t: Topology) -> _Vocabulary:
        """The lookup of ``t``, built once per topology."""
        built = _VOCABULARIES.get(t)
        if built is None:
            built = _VOCABULARIES[t] = cls._build(*_token_codes(t))
        return built

    @classmethod
    def _build(cls, codes: dict[str, int], m: int) -> _Vocabulary:
        words = [w for w in codes if len(w.encode()) <= _KEYED]
        size, first, last, key = _token_keys(" ".join(words).encode())
        keys = key.tolist()
        bits = len(words).bit_length()
        buckets: dict[int, list[int]] = {}  # token numbers by bucket
        for i, x in enumerate(keys):
            buckets.setdefault(x >> 64 - bits, []).append(i)
        displace = np.zeros(1 << bits, dtype=np.uint64)
        held = [-1] * (2 << bits)  # token number per slot
        mix, whole = int(_MIX[2]), (1 << 64) - 1
        # the largest buckets first, while the most slots are free
        for b, group in sorted(buckets.items(), key=lambda kv: -len(kv[1])):
            for d in range(_TRIES):
                at = [((keys[i] ^ d) * mix & whole) >> 63 - bits
                      for i in group]
                if len(set(at)) == len(at) and all(held[s] < 0 for s in at):
                    displace[b] = d
                    for s, i in zip(at, group):
                        held[s] = i
                    break
        held = np.array(held)
        free = held < 0
        code = np.array([codes[w] for w in words], dtype=np.int32)[held]
        return cls(m, bits, displace,
                   np.where(free, -1, size[held]), first[held], last[held],
                   np.where(free, -1, code))

    def lookup(self, buf: bytes) -> np.ndarray:
        """Code of every token of ``buf`` (UTF-8, cut at 0x20 bytes), -1 for
        a token the table does not hold, which no line end is."""
        size, first, last, key = _token_keys(buf)
        bucket = key >> np.uint64(64 - self.bits)
        at = (((key ^ self.displace[bucket]) * _MIX[2])
              >> np.uint64(63 - self.bits))
        hit = ((self.size[at] == size) & (self.first[at] == first)
               & (self.last[at] == last))
        code = np.where(hit, self.code[at], np.int32(-1))
        # the chunk reader cuts lines at the line ends, placed or not
        code[(size == 1) & (first == 0x0A)] = _END * self.m
        return code


_VOCABULARIES: WeakKeyDictionary[Topology, _Vocabulary] = WeakKeyDictionary()


def _runs(values: np.ndarray, start: np.ndarray, lens: np.ndarray,
          dtype) -> np.ndarray:
    """Row i holds ``values[start[i]:start[i] + lens[i]]``, padded with -1."""
    col = np.arange(lens.max(initial=0))
    held = col < lens[:, None]
    return np.where(held, values[np.where(held, start[:, None] + col, 0)],
                    -1).astype(dtype)


def _parse_chunk(lines: list[str], first: int, t: Topology,
                 vocabulary: _Vocabulary):
    """[(columns, line numbers)] of the routes on ``lines``, the first of
    which is line ``first + 1``.

    A line is read from its token codes when it is exactly the written form:
    ``src -> dst : steps | nodes: node...``, single spaces, a first step only
    in front and a last step only at the end. Any other line goes to the
    lenient per-line reader.
    """
    # a lone surrogate passes through, to the per-line reader's ParseError
    code = vocabulary.lookup(
        (" \n ".join(lines) + " \n").encode("utf-8", "surrogatepass"))
    m = vocabulary.m
    kind, value = np.divmod(code, m)  # an unknown token is of class -1
    ends = np.flatnonzero(kind == _END)
    starts = np.concatenate(([0], ends[:-1] + 1))
    bars = np.flatnonzero(kind == _BAR)
    barred, first_bar = np.unique(np.searchsorted(ends, bars),
                                  return_index=True)
    bar = np.full(len(lines), -1)
    bar[barred] = bars[first_bar]
    nsteps, nnodes = bar - starts - 4, ends - bar - 2
    shaped = (bar >= 0) & (nsteps >= 1) & (nnodes >= 1)
    head, tail = starts[shaped] + 4, bar[shaped] - 1
    kind[head[kind[head] == _FIRST]] = _STEP
    kind[tail[kind[tail] == _LAST]] = _STEP
    want = np.zeros(len(code), dtype=np.int8)  # the class each token needs
    want[head], want[tail + 1] = _STEP, -_STEP
    want = np.cumsum(want, dtype=np.int8)
    for at, k in ((starts + 1, _ARROW), (starts + 3, _COLON), (bar, _BAR),
                  (bar + 1, _NODES), (ends, _END)):
        want[at[shaped]] = k
    good = shaped & np.logical_and.reduceat(kind == want, starts)

    rows = np.flatnonzero(good)
    at, nsteps, last = starts[rows], nsteps[rows], bar[rows] - 1
    fs = np.where(code[at + 4] // m == _FIRST, value[at + 4], -1)
    ls = np.where(code[last] // m == _LAST, value[last], -1)
    dtype = _id_dtype(t)
    parts = [(Columns(value[at].astype(dtype), value[at + 2].astype(dtype),
                      fs.astype(dtype), ls.astype(dtype),
                      _runs(value, at + 4, nsteps, dtype),
                      _runs(value, bar[rows] + 2, nnodes[rows], dtype),
                      (nnodes[rows] - 1).astype(np.int32)), first + 1 + rows)]

    records, numbers = [], []
    for i in np.flatnonzero(~good).tolist():
        try:
            record = _parse_line(lines[i], t)
        except ParseError as exc:
            raise ParseError(f"line {first + 1 + i}: {exc}") from exc
        if record is not None:
            records.append(record)
            numbers.append(first + 1 + i)
    if records:
        parts.append((_columns(t, *zip(*records)), np.array(numbers)))
    return parts


def parse_table(text: str, t: Topology) -> RoutingTable:
    """Routing table from its text, straight into columns.

    A bounded chunk of lines at a time is encoded to UTF-8 and cut at its
    0x20 bytes, which gives ``str.split(" ")``'s tokens, and each token is
    matched on its bytes against the names of the written form: its length
    and first and last 8-byte words must equal those of the one candidate
    its key picks (:class:`_Vocabulary`). A line in the written form is
    read from the codes. Any other line falls back to a per-line reader,
    which accepts forms like ``( 0,1)``, ``(+1,01)`` and U+2212 ``−X`` and
    words every ParseError; it takes a first or last step marker anywhere in
    the step list, but refuses a second one. A pair given twice is a
    ParseError that names both lines.
    """
    vocabulary = _Vocabulary.of(t)
    lines = text.splitlines()
    parts = [part for i in range(0, len(lines), _CHUNK)
             for part in _parse_chunk(lines[i:i + _CHUNK], i, t, vocabulary)]
    if not parts:
        return RoutingTable(t, columns=_columns(t, *[()] * 6))
    cols = _concat([p[0] for p in parts])
    linenos = np.concatenate([p[1] for p in parts])
    key = cols.src.astype(np.int64) * t.num_coords + cols.dst
    if not (key[1:] > key[:-1]).all():
        order = np.lexsort((linenos, key))
        cols, key, linenos = cols.take(order), key[order], linenos[order]
        again = np.flatnonzero(key[1:] == key[:-1]) + 1
        if again.size:
            i = again[np.argmin(linenos[again])]
            names = t.coord_names
            raise ParseError(
                f"line {linenos[i]}: pair {names[cols.src[i]]}->"
                f"{names[cols.dst[i]]} already given on line {linenos[i - 1]}")
    return RoutingTable(t, columns=cols)


def load_table(path, t: Topology) -> RoutingTable:
    return parse_table(read_text(path), t)
