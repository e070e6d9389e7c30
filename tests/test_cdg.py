import networkx as nx
import pytest

from torusroute import (assert_deadlock_free, augment_cdg, build_cdg,
                        make_torus, used_direction_sets)
from torusroute.cdg import CDG, _shortest_path, _tarjan_sccs
from torusroute.errors import DeadlockCycleError


def nx_graph(g):
    G = nx.DiGraph()
    G.add_nodes_from(range(g.n_channels))
    G.add_edges_from(g.edges)
    return G


def independent_ok(g):
    """Independent criterion: every cycle stays inside one direction."""
    G = nx_graph(g)
    for comp in nx.strongly_connected_components(G):
        if len({g.direction_of(c) for c in comp}) > 1:
            return False
    return True


def test_ring_cdg_structure():
    t = make_torus([3])
    g = build_cdg(t)
    assert g.n_channels == 6
    # only same-direction edges in one dimension
    assert all(g.direction_of(a) == g.direction_of(b) for a, b in g.edges)
    G = nx_graph(g)
    cycles = list(nx.simple_cycles(G))
    assert sorted(len(c) for c in cycles) == [3, 3]


def test_dor_edge_presence():
    t = make_torus([3, 3])
    g = build_cdg(t)
    c = t.channel_id
    assert g.has_edge(c[(t.node_id((0, 0)), 0)], c[(t.node_id((1, 0)), 1)])
    assert not g.has_edge(c[(t.node_id((0, 0)), 1)], c[(t.node_id((0, 1)), 0)])
    assert not g.has_edge(c[(t.node_id((0, 0)), 0)], c[(t.node_id((1, 0)), 2)])


def test_used_direction_sets_examples():
    r3 = make_torus([3])
    g = build_cdg(r3)
    used_direction_sets(g)
    assert g.used_set((0, 0)) == {0}

    t = make_torus([3, 3])
    g = build_cdg(t)
    used_direction_sets(g)
    assert g.used_set((t.node_id((0, 0)), 0)) == {0, 1, 2, 3}
    assert g.used_set((t.node_id((0, 0)), 3)) == {3}  # -Y is the final direction


@pytest.mark.parametrize("dims", [[3], [2, 2], [3, 3], [2, 3], [2, 2, 2]])
def test_used_sets_match_transitive_closure(dims):
    t = make_torus(dims)
    g = build_cdg(t)
    used_direction_sets(g)
    G = nx_graph(g)
    for cid, chan in enumerate(t.channels):
        reach = nx.descendants(G, cid) | {cid}
        expect = {g.direction_of(c) for c in reach}
        assert g.used_set(chan) == expect


def test_augment_ring_and_fixed_point():
    g = build_cdg(make_torus([3]))
    used_direction_sets(g)
    g, added = augment_cdg(g)
    assert added == []
    g, again = augment_cdg(g)
    assert again == []


def _classify_blocked_candidates(t):
    """(truly cyclic, safe but blocked) counts over unadded candidates."""
    g = build_cdg(t)
    used_direction_sets(g)
    g, added = augment_cdg(g)
    added_set = set(added)
    cyclic = safe = 0
    for tail_cid, (uj, dj) in enumerate(t.channels):
        uk = int(t.neighbor_table[uj, dj])
        for dk in range(dj):
            if dj >= t.n and dk < t.n:
                continue
            head = int(t.channel_table[uk, dk])
            if head < 0 or ((uj, dj), (uk, dk)) in added_set:
                continue
            assert dj in g.used_set(t.channels[head])  # why it stayed blocked
            trial = nx_graph(g)
            trial.add_edge(tail_cid, head)
            if any(len({g.direction_of(c) for c in comp}) > 1
                   for comp in nx.strongly_connected_components(trial)):
                cyclic += 1
            else:
                safe += 1
    return cyclic, safe


def test_full_torus_blocks_are_truly_cyclic():
    """Ring wraparound makes every blocked candidate close a real cycle."""
    cyclic, safe = _classify_blocked_candidates(make_torus([3, 3]))
    assert cyclic == 18 and safe == 0


def test_mesh_blocks_can_be_conservative():
    """On mesh-degenerate dimensions the used-set criterion over-blocks;
    those candidates are logged, never added."""
    cyclic, safe = _classify_blocked_candidates(make_torus([2, 3]))
    assert safe > 0


def test_augment_mesh_adds_exact_edges(mesh22):
    t, rg, g, added = mesh22
    a = t.node_id
    assert added == [
        ((a((0, 0)), 1), (a((0, 1)), 0)),   # first step +Y then +X
        ((a((1, 1)), 3), (a((1, 0)), 2)),   # body -Y then last step -X
    ]


@pytest.mark.parametrize("dims", [[2, 2], [2, 3], [4, 2], [2, 2, 2], [3, 2, 4]])
def test_augment_soundness_stepwise(dims):
    """Re-adding the accepted edges one by one keeps every prefix acyclic."""
    t = make_torus(dims)
    g = build_cdg(t)
    used_direction_sets(g)
    _, added = augment_cdg(g)
    base = build_cdg(t)
    G = nx_graph(base)
    for (u, di), (v, dj) in added:
        G.add_edge(t.channel_id[(u, di)], t.channel_id[(v, dj)])
        for comp in nx.strongly_connected_components(G):
            assert len({base.direction_of(c) for c in comp}) <= 1


@pytest.mark.parametrize("dims", [[2, 2], [2, 3], [4, 2], [2, 2, 2]])
def test_theorem_completeness_at_fixed_point(dims):
    """Every unadded candidate is blocked by its used direction set."""
    t = make_torus(dims)
    g = build_cdg(t)
    used_direction_sets(g)
    g, added = augment_cdg(g)
    added_set = set(added)
    for tail_cid, (uj, dj) in enumerate(t.channels):
        uk = int(t.neighbor_table[uj, dj])
        for dk in range(dj):
            if dj >= t.n and dk < t.n:
                continue
            head = int(t.channel_table[uk, dk])
            if head < 0:
                continue
            if ((uj, dj), (uk, dk)) in added_set:
                continue
            assert dj in g.used_set(t.channels[head])


def test_certificate_on_baseline_and_augmented():
    for dims in ([3, 3], [2, 2], [4, 2, 3]):
        t = make_torus(dims)
        g = build_cdg(t)
        order = assert_deadlock_free(g)
        assert sorted(order) == sorted(t.channels)
        used_direction_sets(g)
        g, _ = augment_cdg(g)
        order = assert_deadlock_free(g)
        assert independent_ok(g)
        # the certificate is a genuine topological key for direction changes
        position = {c: i for i, c in enumerate(order)}
        for a, b in g.edges:
            if g.direction_of(a) != g.direction_of(b):
                assert position[g.channels[a]] < position[g.channels[b]]


def test_injected_violation_is_caught():
    """A turn whose tail direction is in the head's used set closes a cycle
    threading ring edges; the certifier must return a witness."""
    t = make_torus([3, 3])
    g = build_cdg(t)
    used_direction_sets(g)
    u = t.node_id((1, 0))
    v = t.node_id((1, 1))
    tail = t.channel_id[(u, 1)]   # (1,0)+Y
    head = t.channel_id[(v, 0)]   # (1,1)+X
    assert 1 in g.used_set((v, 0))
    g.add_edge(tail, head)
    with pytest.raises(DeadlockCycleError) as err:
        assert_deadlock_free(g)
    cycle = err.value.cycle
    assert len(cycle) >= 3
    # the witness is a real cycle of consecutive-channel dependencies
    ids = [t.channel_id[c] for c in cycle]
    for a, b in zip(ids, ids[1:]):
        assert b in g.adj[a]
    assert cycle[0] == cycle[-1] or ids[0] in g.adj[ids[-1]]


def test_exhaustive_injection_sweep():
    """Every candidate that trial-addition shows cyclic is rejected by the
    builder, and injecting it trips the certifier."""
    t = make_torus([3, 3])
    g = build_cdg(t)
    used_direction_sets(g)
    g, added = augment_cdg(g)
    added_set = set(added)
    tested = 0
    for tail_cid, (uj, dj) in enumerate(t.channels):
        uk = int(t.neighbor_table[uj, dj])
        for dk in range(dj):
            if dj >= t.n and dk < t.n:
                continue
            head = int(t.channel_table[uk, dk])
            if head < 0 or ((uj, dj), (uk, dk)) in added_set:
                continue
            trial = nx_graph(g)
            trial.add_edge(tail_cid, int(head))
            cyclic = any(len({g.direction_of(c) for c in comp}) > 1
                         for comp in nx.strongly_connected_components(trial))
            if not cyclic:
                continue
            tested += 1
            probe = build_cdg(t)
            used_direction_sets(probe)
            probe, _ = augment_cdg(probe)
            probe.add_edge(tail_cid, int(head))
            with pytest.raises(DeadlockCycleError):
                assert_deadlock_free(probe)
    assert tested > 0


def test_used_set_monotone_under_augmentation():
    t = make_torus([2, 2, 3])
    g = build_cdg(t)
    before = used_direction_sets(g).copy()
    g, _ = augment_cdg(g)
    assert all(int(b) & int(a) == int(b)
               for a, b in zip(g.used_dirs, before))


def test_reported_cycle_changes_direction():
    """A hand-built component whose first channel closes a +Y ring before
    any direction-changing cycle: the witness is the first direction change
    closed by a shortest path back, not the ring bubble flow control
    tolerates."""
    t = make_torus([3, 3])
    c = {(x, y, d): t.channel_id[(t.node_id((x, y)), d)]
         for x in range(3) for y in range(3) for d in range(t.ndirs)}
    g = CDG(t)
    for x in range(3):  # the +X ring of row 0
        g.add_edge(c[x, 0, 0], c[(x + 1) % 3, 0, 0])
    g.add_edge(c[1, 0, 0], c[2, 0, 1])  # +X then +Y
    for y in range(3):  # the +Y ring of column 2
        g.add_edge(c[2, y, 1], c[2, (y + 1) % 3, 1])
    g.add_edge(c[2, 2, 1], c[2, 0, 0])  # +Y back onto +X
    (comp,) = [s for s in _tarjan_sccs(g.n_channels, g.adj) if len(s) > 1]
    first = _shortest_path(g, set(comp), comp[0], comp[0])
    assert len({g.direction_of(x) for x in first}) == 1  # a ring comes first
    with pytest.raises(DeadlockCycleError) as err:
        assert_deadlock_free(g)
    cycle = err.value.cycle
    ids = [t.channel_id[x] for x in cycle]
    assert ids[0] == ids[-1]
    for a, b in zip(ids, ids[1:]):
        assert b in g.adj[a]
    assert len({d for _, d in cycle}) == 2
    assert ids == [c[2, 2, 1], c[2, 0, 0], c[0, 0, 0], c[1, 0, 0],
                   c[2, 0, 1], c[2, 1, 1], c[2, 2, 1]]
