"""Benchmark workloads: the topologies each one routes, drawn from a seed.

The library only ever receives the topologies built from these cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np


@dataclass(frozen=True)
class Case:
    """One topology and the jobs run on it in every pass."""

    label: str
    dims: tuple[int, ...]
    failed_nodes: tuple[tuple[int, ...], ...] = ()
    failed_links: tuple[tuple[tuple[int, ...], int], ...] = ()
    algos: tuple[str, ...] = ("bfs", "sssp")
    certify: bool = False       # oracle_equivalence against the added turns
    sweep_checks: bool = False  # the extra work of cli.sweep_one
    genetic_seed: int = 0


def _label(dims) -> str:
    return "x".join(str(d) for d in dims)


def _coords(c) -> str:
    return "(" + ",".join(str(x) for x in c) + ")"


def torus3d_216(seed: int) -> list[Case]:
    """One pure 6x6x6 torus; a pure torus leaves the seed nothing to draw."""
    return [Case("6x6x6", (6, 6, 6))]


# The mesh-axis base systems: 4x2x2x2 is the 32-node reference system with
# 144 relaxed turns; 6x2x2 and 4x4x2 add turns of their own.
MESH_BASES = ((4, 2, 2, 2), (6, 2, 2), (4, 4, 2))
MESH_ALGOS = ("bfs", "sssp", "genetic")


def _mesh_case(name, dims, seed, **faults) -> Case:
    return Case(name, dims, algos=MESH_ALGOS, certify=True,
                genetic_seed=seed, **faults)


def mesh(seed: int) -> list[Case]:
    """The fault-free base systems; the seed seeds the genetic search."""
    return [_mesh_case(_label(dims), dims, seed) for dims in MESH_BASES]


def single_faults(dims):
    """(failed nodes, failed links): every single fault that exists and
    leaves the system connected. A link is a cable, named by the node its
    positive direction leaves; on a mesh axis only coordinate 0 has one."""
    from torusroute import make_torus  # run.py puts the library on the path

    def connected(**faults) -> bool:
        return make_torus(dims, **faults).is_connected()

    t = make_torus(dims)
    nodes = [t.coords(u) for u in t.live_nodes
             if connected(failed_nodes=(u,))]
    links = [(t.coords(u), d, t.dir_name(d)) for u, d in t.channels
             if d < t.n and connected(failed_links=((u, d),))]
    return nodes, links


def mesh_faults(seed: int) -> list[Case]:
    """The base systems plus, for each, one failed node and one failed link
    drawn from every single fault that leaves it connected.

    Most such faults leave some pair without a rule-legal route of minimal
    hop count, and the tables fail check_table (README.md, "Known issue"):
    the failures are counted and listed, and the run exits 1.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for dims in MESH_BASES:
        nodes, links = single_faults(dims)
        node = nodes[rng.integers(len(nodes))]
        link, d, dname = links[rng.integers(len(links))]
        name = _label(dims)
        cases += [
            _mesh_case(name, dims, seed),
            _mesh_case(f"{name}-node{_coords(node)}", dims, seed,
                       failed_nodes=(node,)),
            _mesh_case(f"{name}-link{_coords(link)}{dname}", dims, seed,
                       failed_links=((link, d),)),
        ]
    return cases


# (dimensions, smallest size, largest size). Every multiset of sizes appears
# once and the seed draws its axis order. Drawing whole tuples at random
# instead (as cli.sample_dims does) changes the size mix from seed to seed,
# which moved the per-table medians by 30-50% between seeds.
SWEEP_GROUPS = ((2, 2, 6), (3, 2, 4), (4, 2, 3))


def sweep_small(seed: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    cases = []
    for n, lo, hi in SWEEP_GROUPS:
        for sizes in combinations_with_replacement(range(lo, hi + 1), n):
            dims = tuple(int(x) for x in rng.permutation(sizes))
            cases.append(Case(_label(dims), dims, sweep_checks=True))
    return cases


def smoke(seed: int) -> list[Case]:
    """Tiny inputs that take every workload's code path in a few seconds."""
    return [
        Case("4", (4,)),
        Case("2x2", (2, 2), sweep_checks=True),
        Case("3x3", (3, 3), sweep_checks=True),
        # a fault the library routes minimally (README.md, "Known issue"),
        # so that the injected bad table is the only expected failure
        Case("4x2x2x2-node(1,0,0,0)", (4, 2, 2, 2),
             failed_nodes=((1, 0, 0, 0),),
             algos=("bfs", "sssp", "genetic"), certify=True,
             genetic_seed=seed),
    ]


WORKLOADS = {
    "torus3d-216": torus3d_216,
    "mesh": mesh,
    "sweep-small": sweep_small,
    # Not in BENCHMARK.json while its faulted tables fail (README.md)
    "mesh-faults": mesh_faults,
}
