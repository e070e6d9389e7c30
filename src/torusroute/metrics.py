"""Channel loads, edge-forwarding index, deviation, and traffic patterns."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedError, TopologyError
from .routes import RoutingTable
from .topology import Topology, sum_pair_distances

PATTERNS = ("transpose", "neighbor", "tornado", "alltoall")


@dataclass
class LoadReport:
    pi: int                    # max channel load
    min_load: int
    gamma_perfect: float
    sigma: dict[int, float]    # {4: σ₄}
    max_d: int
    loads: np.ndarray | None = None

    def to_json(self, extra: dict | None = None) -> str:
        doc = {
            "pi": self.pi,
            "min_load": self.min_load,
            "gamma_perfect": self.gamma_perfect,
            "sigma": {str(k): v for k, v in self.sigma.items()},
            "max_d": self.max_d,
        }
        if self.loads is not None:
            doc["per_channel"] = self.loads.tolist()
        if extra:
            doc.update(extra)
        return json.dumps(doc, sort_keys=True, indent=2)


def channel_loads(rt: RoutingTable) -> np.ndarray:
    """Number of table routes crossing each directed channel."""
    chan = rt.channel_matrix()
    return np.bincount(chan[chan >= 0], minlength=rt.topology.n_channels)


def deviation(loads: np.ndarray, gamma_perfect: float) -> float | np.ndarray:
    """σ₄, the fourth-power mean deviation of channel loads from the perfect
    load.

    A float for one load vector; for a matrix, an array of one deviation
    per row, each bitwise equal to the float of that row alone.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if loads.size == 0:
        raise ValueError("deviation over an empty channel set")
    means = np.mean(np.abs(gamma_perfect - loads) ** 4, axis=-1)
    if loads.ndim == 1:
        return float(means ** 0.25)
    # the root one scalar at a time: an array power may round differently
    return np.array([m ** 0.25 for m in means])


def perfect_channel_load(t: Topology) -> float:
    """Total minimal route length over all ordered pairs, per channel; 0.0
    on a system with fewer than two live nodes, which has no pair."""
    if len(t.live_nodes) > 1 and not t.is_connected():
        raise DisconnectedError("perfect channel load needs a connected system")
    return _per_channel(sum_pair_distances(t), t)


def _per_channel(total: int, t: Topology) -> float:
    """``total`` spread over the channels; 0.0 on a system with none."""
    return total / t.n_channels if t.n_channels else 0.0


# -- traffic patterns ---------------------------------------------------------

def _transpose_node(t: Topology, u: int) -> int:
    """Mixed-radix transpose: reversed coordinates ranked in reversed dims.

    Coincides with plain coordinate reversal when the dimension vector is a
    palindrome, and is a bijection on node ids for every dimension vector.
    """
    coords = t.coords(u)
    rev_dims = t.dims[::-1]
    rank = 0
    for c, d in zip(coords[::-1], rev_dims):
        rank = rank * d + c
    return rank


def pattern_pairs(t: Topology, name: str) -> list[tuple[int, int]]:
    """Ordered (src, dst) pairs of a synthetic communication pattern."""
    name = name.lower()
    if name not in PATTERNS:
        raise ValueError(f"unknown pattern {name!r}")
    if name == "alltoall":
        return [(s, d) for s in t.live_nodes for d in t.live_nodes if s != d]
    pairs: list[tuple[int, int]] = []
    if name == "neighbor":
        for s in t.live_nodes:
            for d in range(t.ndirs):
                v = t.neighbor_table[s, d]
                if v >= 0:
                    pairs.append((s, int(v)))
    elif name == "tornado":
        shift = -(-t.dims[0] // 2) - 1  # ceil(d1/2) - 1 hops along dim 1
        if shift:
            for s in t.live_nodes:
                coords = list(t.coords(s))
                coords[0] = (coords[0] + shift) % t.dims[0]
                dst = t.node_id(coords)
                if dst == s:
                    continue
                if dst in t.failed_nodes:
                    raise TopologyError(
                        f"tornado pattern references failed node "
                        f"{t.coord_str(dst)}")
                pairs.append((s, dst))
    else:  # transpose
        for s in t.live_nodes:
            dst = _transpose_node(t, s)
            if dst == s:
                continue
            if dst in t.failed_nodes:
                raise TopologyError(
                    f"transpose pattern references failed node "
                    f"{t.coord_str(dst)}")
            pairs.append((s, dst))
    return pairs


def _report(loads: np.ndarray, gamma_perfect: float, lengths: np.ndarray,
            include_loads: bool) -> LoadReport:
    return LoadReport(
        pi=int(loads.max()) if loads.size else 0,
        min_load=int(loads.min()) if loads.size else 0,
        gamma_perfect=gamma_perfect,
        sigma={4: deviation(loads, gamma_perfect) if loads.size else 0.0},
        max_d=int(lengths.max(initial=0)),
        loads=loads if include_loads else None,
    )


def load_report(rt: RoutingTable, include_loads=False) -> LoadReport:
    """Full-table report: loads, edge-forwarding index, deviation, diameter."""
    return _report(channel_loads(rt), perfect_channel_load(rt.topology),
                   rt.columns.length, include_loads)


def pattern_loads(rt: RoutingTable, pattern: str,
                  include_loads=False) -> LoadReport:
    """Report restricted to one pattern's routes.

    The perfect load generalizes to the pattern's minimal total length over
    the channel count, so alltoall reduces to the full-table report.
    """
    t = rt.topology
    pairs = pattern_pairs(t, pattern)
    c = rt.columns
    keys = c.src.astype(np.int64) * t.num_coords + c.dst  # sorted
    src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    want = src * t.num_coords + dst
    rows = np.searchsorted(keys, want)
    found = rows < len(keys)
    found[found] = keys[rows[found]] == want[found]
    if not found.all():
        s, d = pairs[int(np.argmin(found))]
        raise KeyError(f"no route for pattern pair "
                       f"{t.coord_str(s)}->{t.coord_str(d)}")
    ids = rt.channel_matrix(rows)
    loads = np.bincount(ids[ids >= 0], minlength=t.n_channels)
    dist = t.distances[src, dst]
    if (dist < 0).any():
        s, d = pairs[int(np.argmax(dist < 0))]
        raise DisconnectedError(
            f"pattern pair {t.coord_str(s)}->{t.coord_str(d)} unreachable")
    return _report(loads, _per_channel(int(dist.sum(dtype=np.int64)), t),
                   c.length[rows], include_loads)
