"""The differential check of Theorem 1: the routing graph's shortest paths
against the rule-legal routes that ``rules`` enumerates on the topology.

``oracle_equivalence`` takes the routing graph's side in arrays: one hop
level search over every live source (``algorithms._hop_levels``, batched
by ``_source_batches``) and one listing of every reached pair's shortest
paths (``algorithms._path_chains``). The rules' side is one depth-first
search per source (``rules.source_routes``), which never touches the
routing graph. Each destination's hop budget is the routing graph's length
for a reached pair, and the diameter plus ``MAX_EXTRA`` for an unreached
one, so the search finds a shorter route, a route the graph lacks, or a
route to a pair the graph cannot reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algorithms import _hop_levels, _pairs, _path_chains, _source_batches
from .routing_graph import RoutingGraph
from .rules import RuleConfig, source_routes
from .topology import Topology

MAX_EXTRA = 2  # hops past the diameter searched for an unrouted pair


@dataclass
class EquivalenceReport:
    pairs_checked: int = 0
    mismatches: list[str] = field(default_factory=list)


def oracle_equivalence(t: Topology, rules: RuleConfig,
                       rg: RoutingGraph) -> EquivalenceReport:
    """Compare existence, minimal length and minimal route count per pair
    between the rules and ``rg``, the routing graph of ``t`` built with the
    same relaxed turns. Pairs are checked source by source, destinations
    ascending, and a mismatch names its pair."""
    if len(t.live_nodes) > 64:
        raise ValueError("oracle equivalence is guarded to <= 64 nodes")
    max_len = int(t.distances.max()) + MAX_EXTRA  # past the diameter
    nodes = np.array(t.live_nodes, dtype=np.int64)
    levels = np.full((t.num_coords, rg.n_vertices), -1, dtype=np.int32)
    for part in _source_batches(rg, nodes):
        levels[part] = _hop_levels(rg, part)
    src, dst, _ = _pairs(t, nodes)
    ends = rg.end_vid(dst)
    hops = levels[src, ends] - 1  # the ejection adds no hop
    reached = hops >= 0
    # every reached pair's shortest paths, in one listing
    chains, owner = _path_chains(rg, levels, src[reached], ends[reached])
    steps = t.channel_dir[chains].tolist()  # padding reads past rg_len
    bounds = np.searchsorted(owner, np.arange(reached.sum() + 1)).tolist()
    report = EquivalenceReport(pairs_checked=len(src))
    budgets = np.full(t.num_coords, -1, dtype=np.int64)
    first = np.searchsorted(src, nodes).tolist() + [len(src)]
    listed = 0
    for s, a, b in zip(nodes.tolist(), first, first[1:]):
        budgets[:] = -1
        budgets[dst[a:b]] = np.where(reached[a:b], hops[a:b], max_len)
        found = source_routes(t, s, rules, budgets)
        for d, rg_len in zip(dst[a:b].tolist(), hops[a:b].tolist()):
            routes = found[d]
            if rg_len < 0:
                if routes:
                    report.mismatches.append(
                        f"{_pair(t, s, d)}: oracle finds length "
                        f"{min(map(len, routes))} but the routing graph "
                        "finds nothing")
                continue
            # every shortest path of a pair has rg_len links
            rg_routes = {tuple(row[:rg_len])
                         for row in steps[bounds[listed]:bounds[listed + 1]]}
            listed += 1
            o_len = min(map(len, routes), default=None)
            if o_len != rg_len:
                report.mismatches.append(
                    f"{_pair(t, s, d)}: oracle minimal {o_len} vs routing "
                    f"graph {rg_len}")
                continue
            o_routes = {r for r in routes if len(r) == o_len}
            if o_routes != rg_routes:
                report.mismatches.append(
                    f"{_pair(t, s, d)}: oracle {len(o_routes)} minimal "
                    f"routes vs routing graph {len(rg_routes)}")
    return report


def _pair(t: Topology, src: int, dst: int) -> str:
    return f"{t.coord_str(src)}->{t.coord_str(dst)}"
