import math

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from torusroute import RoutingTable, make_torus
from torusroute.algorithms import _pair_stats
from torusroute.cli import prepare
from torusroute.errors import TopologyError

from witnesses import turn_count

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
    _, canonical, unique, _ = _pair_stats(rg)
    pending = RoutingTable(rg.topology, columns=canonical.take(~unique))
    return len({(turn_count(r), len(r), r.src)
                for r in pending.routes.values()})


@st.composite
def small_faulted_systems(draw):
    """make_torus arguments with at most 40 nodes and 0-2 faults, a live
    source and a ledger seed."""
    dims = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3)
                .filter(lambda d: math.prod(d) <= 40))
    size = math.prod(dims)
    faults = draw(st.lists(st.tuples(st.booleans(), st.integers(0, size - 1),
                                     st.integers(0, 2 * len(dims) - 1)),
                           max_size=2))
    nodes = [u for link, u, _ in faults if not link]
    links = [(u, d) for link, u, d in faults if link]
    try:
        t = make_torus(dims, nodes, links)
    except TopologyError:  # a link a mesh axis lacks, or on a failed node
        assume(False)
    assume(t.live_nodes)
    return (dims, nodes, links, draw(st.sampled_from(t.live_nodes)),
            draw(st.integers(0, 2 ** 32 - 1)))


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
