import pytest

from torusroute import make_torus, turn_count
from torusroute.algorithms import _pair_stats
from torusroute.cli import prepare

_BUNDLES = {}


def prepared(dims, failed_nodes=(), failed_links=()):
    """Cached (topology, routing graph, cdg, added turns) per configuration."""
    key = (tuple(dims), tuple(sorted(failed_nodes)),
           tuple(sorted(failed_links)))
    if key not in _BUNDLES:
        t = make_torus(dims, failed_nodes, failed_links)
        rg, g, added = prepare(t)
        _BUNDLES[key] = (t, rg, g, added)
    return _BUNDLES[key]


def pending_groups(rg):
    """Number of (turn count, length, source) groups that ``build_rt_sssp``
    hands to stage 2: the keys of the pairs without a unique minimal route."""
    nodes = rg.topology.live_nodes
    return len({(turn_count(canonical), len(canonical), src)
                for src in nodes
                for canonical, is_unique
                in _pair_stats(rg, src, nodes)[1].values()
                if not is_unique})


@pytest.fixture(scope="session")
def desmos():
    return prepared([4, 2, 2, 2])


@pytest.fixture(scope="session")
def grid33():
    return prepared([3, 3])


@pytest.fixture(scope="session")
def ring4():
    return prepared([4])


@pytest.fixture(scope="session")
def mesh22():
    return prepared([2, 2])
