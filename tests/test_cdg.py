import hashlib

import networkx as nx
import pytest

from torusroute import (assert_deadlock_free, augment_cdg, build_cdg,
                        make_torus, used_direction_sets)
from torusroute.cdg import CDG, _shortest_path, _tarjan_sccs, _turns
from torusroute.errors import DeadlockCycleError


def nx_graph(g):
    G = nx.DiGraph()
    G.add_nodes_from(range(g.n_channels))
    G.add_edges_from(g.edges)
    return G


def used_set(g, chan):
    """The directions of ``chan``'s used set: the bits of its mask in
    ``g.used_dirs``."""
    mask = int(g.used_dirs[g.topology.channel_id[chan]])
    return {d for d in range(g.topology.ndirs) if mask >> d & 1}


def plain_turns(t, kind):
    """(tail, head) channel ids of every turn of ``kind`` whose channels
    exist, written per channel from the turn rules, in ascending (tail
    channel, head direction) order. ``"baseline"``: D_i <= D_j and D_j not
    the opposite of D_i. ``"candidate"``: D_j < D_i, usable as a first
    positive step (D_i positive) or a last negative step (D_j negative)."""
    n = t.n
    rules = {"baseline": lambda di, dj: di <= dj and dj != t.opposite(di),
             "candidate": lambda di, dj: dj < di and (di < n or dj >= n)}
    rule = rules[kind]
    turns = []
    for tail, (u, di) in enumerate(t.channels):
        v = int(t.neighbor_table[u, di])
        for dj in range(t.ndirs):
            head = t.channel_id.get((v, dj))
            if rule(di, dj) and head is not None:
                turns.append((tail, head))
    return turns


def unadded_candidates(t, added):
    """The candidate turns of ``t`` outside ``added``, as (tail, head)."""
    added = set(added)
    return [(tail, head) for tail, head in plain_turns(t, "candidate")
            if (t.channels[tail], t.channels[head]) not in added]


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
    assert used_set(g, (0, 0)) == {0}

    t = make_torus([3, 3])
    g = build_cdg(t)
    used_direction_sets(g)
    assert used_set(g, (t.node_id((0, 0)), 0)) == {0, 1, 2, 3}
    # -Y is the final direction
    assert used_set(g, (t.node_id((0, 0)), 3)) == {3}


CLOSURE_SYSTEMS = [([3], ()), ([2, 2], ()), ([3, 3], ()), ([2, 3], ()),
                   ([2, 2, 2], ()), ([4, 2, 2, 2], ()), ([6, 2, 2], ()),
                   ([4, 4, 2], ()), ([4, 4, 2], [(0, 0, 1)])]


@pytest.mark.parametrize("dims, failed", CLOSURE_SYSTEMS,
                         ids=[f"dims{i}" for i in range(len(CLOSURE_SYSTEMS))])
def test_used_sets_match_transitive_closure(dims, failed):
    """B of every channel is the set of directions it reaches, on the
    baseline graph and again once augmentation has added its turns."""
    t = make_torus(dims, failed)

    def check(g):
        G = nx_graph(g)
        for cid, chan in enumerate(t.channels):
            reach = nx.descendants(G, cid) | {cid}
            expect = {g.direction_of(c) for c in reach}
            assert used_set(g, chan) == expect

    g = build_cdg(t)
    used_direction_sets(g)
    check(g)
    check(augment_cdg(g)[0])


@pytest.mark.parametrize("kind", ["baseline", "candidate"])
@pytest.mark.parametrize("key", [([3, 3], (), [((0, 0), 0)]),
                                 ([4, 4, 2], [(0, 0, 1)], []),
                                 ([2, 5, 3], [18], [((1, 1, 1), 4)]),
                                 ([4, 2, 2, 2], [], [])], ids=repr)
def test_turns_match_plain_rules(key, kind):
    t = make_torus(*key)
    tail, head = _turns(t, kind)
    assert list(zip(tail.tolist(), head.tolist())) == plain_turns(t, kind)


# SHA-256 of the dependency graph's edges, adjacency and reverse-adjacency
# orders and used direction sets, after used_direction_sets on the baseline
# graph and again after augment_cdg, with its added turns: the adjacency
# order decides which deadlock witness a cycle check reports. Key: (dims,
# failed nodes, failed links); value: (added turns, baseline digest,
# augmented digest).
CDG_DIGESTS = {
    ((5,), (), ()): (0,
        "2389017506065978a1df836c318c38c0d4751b5ec19f28bb74723452db0c1ec5",
        "d98c83a3f702f11f70a70a2895fbf76a905a73c6295e41fcc1237fd9705dd721"),
    ((2, 2), (), ()): (2,
        "715036b8f1ecfd3974d517e5e6e6ba2cdf59eb480785361558aa708d7aee03cc",
        "afcda9565a60ca6d54b39990d098713ec423c64f47b23bd3549d797e9d245c32"),
    ((3, 3), (), (((0, 0), 0),)): (0,
        "dcbc268f5777e52d1112833ff3f2e075c5259ac01ca6d821201e82b056c2c773",
        "c0305aa9f11938c575f73f8a1cc28285e84848f25149d7ec5b3dd955491fcd6d"),
    ((4, 4, 2), ((0, 0, 1),), ()): (58,
        "1d939e28d55cac98f163abddcde6296774b7e559562512a3d5a4d476138c113b",
        "a791f980a8aaf785ba244de871bb01d74daa7811f1e92234262f3a8cb9b71982"),
    ((3, 3, 3, 3), (), ()): (0,
        "ffb1f9ccf0293883989c22255fbba53df0da3cd31c274909b3d1f4b7ec7b556b",
        "2f131ac0fb0d78b8ac447956b71030e60d4340b4a98b27184db7186349cbc74b"),
    ((4, 2, 2, 2), (), ()): (144,
        "8c2a53a89c10b08206a4c733121d80f84963a121041aa3636faa705d41bbb5fb",
        "10c0cbbb388e6b93ebd4fa6cec16d0712c0af06232fef448ee7b1828df769449"),
    ((2, 5, 3), (18,), ()): (1,
        "61b177a32845bda99d21141d44cc7300089a2325d43a7d5e4a607a3c3b8a4c0c",
        "baae25ec344a50184a5fae2c11b0dcee5afbe7ff1e71a5b8c94b23419e7a41fa"),
    ((6, 6, 6), (), ()): (0,
        "61db66dfe1df7461977c1597a29bf4583f93a4bc06e034ecfdfc9b3545d282ce",
        "8133780872f79554b3a5a5942a468e95339bfd64c83bbeb1605520f6f9548dd3"),
}


def _cdg_digest(g, *extra):
    h = hashlib.sha256()
    for part in (g.edges, g.adj, g.radj, g.used_dirs.tolist(), *extra):
        h.update(repr(part).encode())
    return h.hexdigest()


@pytest.mark.parametrize("key", CDG_DIGESTS, ids=repr)
def test_cdg_pinned(key):
    n_added, base, augmented = CDG_DIGESTS[key]
    g = build_cdg(make_torus(*key))
    used_direction_sets(g)
    assert _cdg_digest(g) == base
    g, added = augment_cdg(g)
    assert len(added) == n_added
    assert _cdg_digest(g, added) == augmented


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
    cyclic = safe = 0
    for tail_cid, head in unadded_candidates(t, added):
        # why it stayed blocked
        assert g.direction_of(tail_cid) in used_set(g, t.channels[head])
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
    for tail_cid, head in unadded_candidates(t, added):
        assert g.direction_of(tail_cid) in used_set(g, t.channels[head])


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
    assert 1 in used_set(g, (v, 0))
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
    tested = 0
    for tail_cid, head in unadded_candidates(t, added):
        trial = nx_graph(g)
        trial.add_edge(tail_cid, head)
        cyclic = any(len({g.direction_of(c) for c in comp}) > 1
                     for comp in nx.strongly_connected_components(trial))
        if not cyclic:
            continue
        tested += 1
        probe = build_cdg(t)
        used_direction_sets(probe)
        probe, _ = augment_cdg(probe)
        probe.add_edge(tail_cid, head)
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
