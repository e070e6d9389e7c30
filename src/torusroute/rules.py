"""Rule-legal routes enumerated directly on the topology.

This is the independent side of the differential check of Theorem 1: it
reads only the topology (its neighbour rows and hop table), never the
routing graph. A route is a direction sequence in rule shape: an optional
positive first step (FS), a body whose directions never decrease and that
uses each axis in one sign only, and an optional negative last step (LS);
a relaxed turn of ``RuleConfig`` admits a first- or last-step turn out of
order. Routes are deduplicated by their physical step sequence, so a lone
first step and the one-step body it equals count once.

``source_routes`` lists the routes from one source to every destination in
one depth-first search. Each destination ``d`` has a hop budget
``budgets[d]``, and the search carries a bit mask of the destinations still
feasible after ``u`` hops at node ``v``: those with
``0 <= dist[v, d] <= budgets[d] - u``. A prefix is extended while its mask
is nonzero, and a route is recorded for ``d`` only while ``d``'s bit is
set, so every destination gets exactly the routes of at most its budget.
Links are symmetric, so a destination feasible at a node is feasible at
every node before it on the prefix: its bit is set on exactly the prefixes
that a search for that destination alone would extend.
``brute_force_routes`` and ``min_routes`` are the one-destination queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import Topology

CdgEdge = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class RuleConfig:
    relaxed_turns: frozenset[CdgEdge] = frozenset()

    @staticmethod
    def augmented(added) -> "RuleConfig":
        return RuleConfig(relaxed_turns=frozenset(added))


def _feasible_masks(t: Topology, budgets: np.ndarray
                    ) -> tuple[list[list[int]], list[int]]:
    """(per hop count ``u`` and node ``v``, the mask of the destinations
    feasible at ``v`` after ``u`` hops; per node, its bit or 0 when it has
    a negative budget). Only destinations with a budget get a bit."""
    targets = np.flatnonzero(budgets >= 0)
    bit = [0] * t.num_coords
    if not len(targets):
        return [], bit
    for i, d in enumerate(targets.tolist()):
        bit[d] = 1 << i
    dist = t.distances[:, targets].astype(np.int64)  # links are symmetric
    hops = np.arange(int(budgets.max(initial=-1)) + 1)[:, None, None]
    feasible = (dist >= 0) & (dist + hops <= budgets[targets])
    packed = np.packbits(feasible, axis=2, bitorder="little")
    words = np.zeros(packed.shape[:2] + (-(-len(targets) // 64) * 8,),
                     dtype=np.uint8)
    words[:, :, :packed.shape[2]] = packed
    words = words.view("<u8")  # 64 destinations a word, the first lowest
    masks = words[:, :, 0].tolist()
    for k in range(1, words.shape[2]):
        masks = [[m | x << 64 * k for m, x in zip(row, more)]
                 for row, more in zip(masks, words[:, :, k].tolist())]
    return masks, bit


def source_routes(t: Topology, src: int, rules: RuleConfig,
                  budgets) -> dict[int, set[tuple[int, ...]]]:
    """Per node id ``d`` with ``budgets[d] >= 0``, every rule-valid
    direction sequence src -> d of at most ``budgets[d]`` hops, from one
    depth-first search; a node with a negative budget has no entry. A route
    back to ``src`` has at least one step.

    Raises TopologyError when ``src`` is out of range or failed."""
    t._live(src)
    n = t.n
    nbr = t.neighbor_rows  # plain lists: cheaper than numpy scalar access
    opposite = [t.opposite(d) for d in range(2 * n)]
    relaxed = rules.relaxed_turns
    budgets = np.asarray(budgets, dtype=np.int64)
    feas, bit = _feasible_masks(t, budgets)
    top = len(feas) - 1  # the largest budget; no route is longer
    found = {d: set() for d in np.flatnonzero(budgets >= 0).tolist()}

    def body(node: int, path: list[int], start: int, vec: list[int],
             fs_node: int, tail_node: int, mask: int):
        # path[:start] is the first step, if any; path[start:] the body
        total = len(path)
        last = path[-1] if total > start else None
        if last is not None:
            if mask & bit[node]:
                found[node].add(tuple(path))
            for ld in range(n, 2 * n):
                w = nbr[node][ld]
                if w < 0 or not mask & bit[w]:
                    continue
                ok = last < ld and ld != opposite[last]
                if not ok and ((tail_node, last), (node, ld)) not in relaxed:
                    continue
                found[w].add((*path, ld))
        if total >= top:
            return
        ahead = feas[total + 1]
        for d in range(2 * n):
            v = nbr[node][d]
            if v < 0:
                continue
            sub = mask & ahead[v]
            if not sub:
                continue
            if last is None:
                if start:  # the turn out of the first step
                    fs = path[0]
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
            path.append(d)
            body(v, path, start, vec, fs_node, node, sub)
            path.pop()
            vec[d % n] = old

    if top < 0:
        return found
    if feas[0][src]:
        body(src, [], 0, [0] * n, -1, -1, feas[0][src])
    if top >= 1:  # a lone first step is the one-step body's route, above
        for fd in range(n):
            v = nbr[src][fd]
            if v >= 0 and feas[1][v]:
                body(v, [fd], 1, [0] * n, src, src, feas[1][v])
    return found


def brute_force_routes(t: Topology, src: int, dst: int, rules: RuleConfig,
                       max_len: int) -> list[tuple[int, ...]]:
    """All rule-valid direction sequences src -> dst up to max_len hops,
    sorted: ``source_routes`` with one destination.

    Raises TopologyError when either end is out of range or failed."""
    t._live(src)
    budgets = np.full(t.num_coords, -1, dtype=np.int64)
    budgets[t._live(dst)] = max_len
    return sorted(source_routes(t, src, rules, budgets).get(dst, ()))


def min_routes(t: Topology, src: int, dst: int, rules: RuleConfig,
               max_len: int):
    """(minimal length, minimal route set) within max_len, or (None, [])."""
    all_routes = brute_force_routes(t, src, dst, rules, max_len)
    if not all_routes:
        return None, []
    best = min(len(r) for r in all_routes)
    return best, [r for r in all_routes if len(r) == best]
