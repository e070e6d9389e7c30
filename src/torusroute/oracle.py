"""Brute-force route enumeration directly on the topology.

``brute_force_routes`` and ``min_routes`` are the independent side of the
differential check: they never touch the routing graph. Routes are
enumerated as direction sequences in rule shape (optional positive first
step, a non-decreasing direction-bit-compliant body, optional negative last
step), pruned by link-graph distance, and deduplicated by their physical
step sequence. ``oracle_equivalence`` holds the routing graph's listing of
shortest paths against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algorithms import _hop_levels, _path_chains
from .routing_graph import RoutingGraph
from .topology import Topology

CdgEdge = tuple[tuple[int, int], tuple[int, int]]

MAX_EXTRA = 2  # hops past the diameter searched for an unrouted pair


@dataclass(frozen=True)
class RuleConfig:
    relaxed_turns: frozenset[CdgEdge] = frozenset()

    @staticmethod
    def augmented(added) -> "RuleConfig":
        return RuleConfig(relaxed_turns=frozenset(added))


def brute_force_routes(t: Topology, src: int, dst: int, rules: RuleConfig,
                       max_len: int) -> list[tuple[int, ...]]:
    """All rule-valid direction sequences src -> dst up to max_len hops.

    Raises TopologyError when either end is out of range or failed."""
    t._live(src)
    n = t.n
    nbr = t.neighbor_rows  # plain lists: cheaper than numpy scalar access
    opposite = [t.opposite(d) for d in range(2 * n)]
    dist_to_dst = t.distances[t._live(dst)].tolist()  # links are symmetric
    relaxed = rules.relaxed_turns
    found: set[tuple[int, ...]] = set()

    def feasible(node: int, used: int) -> bool:
        return 0 <= dist_to_dst[node] <= max_len - used

    def body(node: int, seq: list[int], vec: list[int], fs: int | None,
             fs_node: int, tail_node: int):
        prefix = () if fs is None else (fs,)
        total = len(prefix) + len(seq)
        if node == dst and seq:
            found.add(prefix + tuple(seq))
        if seq and total + 1 <= max_len:
            last = seq[-1]
            for ld in range(n, 2 * n):
                if nbr[node][ld] != dst:
                    continue
                ok = last < ld and ld != opposite[last]
                if not ok and ((tail_node, last), (node, ld)) not in relaxed:
                    continue
                found.add(prefix + tuple(seq) + (ld,))
        if total >= max_len:
            return
        last = seq[-1] if seq else None
        for d in range(2 * n):
            v = nbr[node][d]
            if v < 0 or not feasible(v, total + 1):
                continue
            if not seq:
                if fs is not None:
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
            seq.append(d)
            body(v, seq, vec, fs, fs_node, node)
            seq.pop()
            vec[d % n] = old

    if feasible(src, 0):
        body(src, [], [0] * n, None, -1, -1)
    if max_len >= 1:
        for fd in range(n):
            v = nbr[src][fd]
            if v < 0:
                continue
            if v == dst:
                found.add((fd,))  # a route may be a lone first step
            if feasible(v, 1):
                body(v, [], [0] * n, fd, src, src)
    return sorted(found)


def min_routes(t: Topology, src: int, dst: int, rules: RuleConfig,
               max_len: int):
    """(minimal length, minimal route set) within max_len, or (None, [])."""
    all_routes = brute_force_routes(t, src, dst, rules, max_len)
    if not all_routes:
        return None, []
    best = min(len(r) for r in all_routes)
    return best, [r for r in all_routes if len(r) == best]


@dataclass
class EquivalenceReport:
    pairs_checked: int = 0
    mismatches: list[str] = field(default_factory=list)


def oracle_equivalence(t: Topology, rules: RuleConfig,
                       rg: RoutingGraph) -> EquivalenceReport:
    """Compare existence, minimal length and minimal route count per pair
    between the rules and ``rg``, the routing graph of ``t`` built with the
    same relaxed turns."""
    if len(t.live_nodes) > 64:
        raise ValueError("oracle equivalence is guarded to <= 64 nodes")
    max_len = int(t.distances.max()) + MAX_EXTRA  # past the diameter
    dirs = t.channel_dir
    report = EquivalenceReport()
    for src in t.live_nodes:
        dist = _hop_levels(rg, [src])
        dsts = np.array([d for d in t.live_nodes if d != src], dtype=np.int64)
        ends = rg.end_vid(dsts)
        hops = dist[0, ends] - 1  # the ejection adds no hop
        reached = hops >= 0
        # every reached pair's shortest paths, in one listing
        chains, owner = _path_chains(rg, dist, np.zeros(reached.sum(), int),
                                     ends[reached])
        listed = iter(np.split(chains, np.searchsorted(
            owner, np.arange(1, reached.sum()))))
        for dst, rg_len in zip(dsts.tolist(), hops.tolist()):
            report.pairs_checked += 1
            pair = f"{t.coord_str(src)}->{t.coord_str(dst)}"
            if rg_len < 0:
                routes = brute_force_routes(t, src, dst, rules, max_len)
                if routes:
                    report.mismatches.append(
                        f"{pair}: oracle finds length {min(map(len, routes))}"
                        " but the routing graph finds nothing")
                continue
            # every shortest path of a pair has rg_len links
            rg_routes = set(map(tuple, dirs[next(listed)[:, :rg_len]].tolist()))
            o_len, o_routes = min_routes(t, src, dst, rules, rg_len)
            if o_len != rg_len:
                report.mismatches.append(
                    f"{pair}: oracle minimal {o_len} vs routing graph {rg_len}")
                continue
            if set(o_routes) != rg_routes:
                report.mismatches.append(
                    f"{pair}: oracle {len(o_routes)} minimal routes vs "
                    f"routing graph {len(rg_routes)}")
    return report
