import pytest

from conftest import build, edge_alive, random_graphs
from dsreduce.graph import CheckedEnds, Graph, first_undominated, load_check
from dsreduce.oracle import (
    check_graph,
    copy_state,
    delete_node,
    live_neighbors,
    one_round,
    state_consistent,
)
from dsreduce.state import ReductionState, compact


def test_load_check_drops_loops_and_duplicates():
    g = load_check(4, [(0, 1), (1, 0), (2, 2), (1, 3), (3, 1), (1, 3)])
    assert g.n == 4 and g.m == 2
    assert g.adj[1] == [0, 3]
    assert g.adj[2] == []
    check_graph(g)


def test_load_check_rejects_out_of_range():
    with pytest.raises(ValueError):
        load_check(3, [(0, 3)])
    with pytest.raises(ValueError):
        load_check(2, [(-1, 0)])


def test_load_check_rejects_a_negative_vertex_count():
    with pytest.raises(ValueError, match="negative vertex count"):
        load_check(-1, [])


def test_load_check_rejects_out_of_range_loops():
    for loop in [(3, 3), (-1, -1)]:
        with pytest.raises(ValueError, match="outside 0..2"):
            load_check(3, [(0, 1), loop])


def test_load_check_matches_pair_set_reference():
    import random

    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(0, 30)
        edges = []
        if n:
            for _ in range(rng.randint(0, 3 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                edges += [(u, v)] * rng.randint(1, 2)
                if rng.random() < 0.3:
                    edges.append((v, u))
        rng.shuffle(edges)
        pairs = {(min(u, v), max(u, v)) for u, v in edges if u != v}
        adj = [[] for _ in range(n)]
        for u, v in sorted(pairs):
            adj[u].append(v)
            adj[v].append(u)
        g = load_check(n, iter(edges))
        check_graph(g)
        assert (g.n, g.m, g.adj) == (n, len(pairs), [sorted(a) for a in adj])


def test_checked_ends_build_the_graph_the_pairs_give():
    # The readers hand load_check their ids flat and already range-checked;
    # only the range test is skipped, loops and duplicates still go.
    import random

    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(0, 30)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))] if n else []
        want = load_check(n, edges)
        got = load_check(n, CheckedEnds(v for e in edges for v in e))
        check_graph(got)
        assert (got.n, got.m, got.adj, got.deg) == (want.n, want.m, want.adj, want.deg)


def test_validate_catches_asymmetry():
    g = Graph(3, [[1], [], []], 1)
    with pytest.raises(ValueError, match="symmetric"):
        check_graph(g)


def test_has_edge_and_edges_iteration():
    g = build(5, [(0, 1), (0, 4), (2, 3)])
    assert 4 in g.adj[0] and 0 in g.adj[4]
    assert 2 not in g.adj[1]
    assert list(g.edges()) == [(0, 1), (0, 4), (2, 3)]


def test_first_undominated():
    g = build(5, [(0, 1), (1, 2), (3, 4)])
    assert first_undominated(g, []) == 0
    assert first_undominated(g, [1]) == 3
    assert first_undominated(g, [1, 4]) == -1
    assert first_undominated(g, [1], bytearray([0, 0, 0, 1, 1])) == -1
    assert first_undominated(g, [3], bytearray([1, 0, 1, 0, 0])) == 1


def test_state_node_deletion_updates_degrees():
    g = build(4, [(0, 1), (1, 2), (2, 3)])
    st = ReductionState(g)
    assert delete_node(st, 1) == 2
    assert st.deg == [0, 0, 1, 1]
    assert live_neighbors(st, 2) == [3]
    assert delete_node(st, 1) == 0
    assert state_consistent(st)


def test_state_edge_deletion():
    g = build(3, [(0, 1), (1, 2)])
    st = ReductionState(g)
    assert st.cut_within({2, 1}) == [(1, 2)]
    assert st.cut_within({1, 2}) == []
    assert not edge_alive(st, 1, 2)
    assert edge_alive(st, 0, 1)
    assert st.deg == [1, 1, 0]
    assert state_consistent(st)


def test_state_cut_within_deletes_inner_edges():
    g = build(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    st = ReductionState(g)
    assert st.cut_within({0: None, 2: None, 3: None}) == [(0, 2), (2, 3)]
    assert st.deg == [1, 2, 1, 1, 1]
    assert live_neighbors(st, 2) == [1]
    assert not edge_alive(st, 0, 2) and edge_alive(st, 0, 1)
    assert state_consistent(st)


def test_is_consistent_catches_foreign_and_one_sided_edges():
    g = build(3, [(0, 1), (1, 2)])
    foreign = ReductionState(g)
    foreign.adj[0] = [1, 2]  # 0-2 is no input edge, though 2 names 0 back
    foreign.adj[2] = [0, 1]
    foreign.deg = [2, 2, 2]
    assert not state_consistent(foreign)
    one_sided = ReductionState(g)
    one_sided.adj[0] = []  # 1 still names 0
    one_sided.deg[0] = 0
    assert not state_consistent(one_sided)
    stale_degree = ReductionState(g)
    stale_degree.deg[1] = 1
    assert not state_consistent(stale_degree)
    fixed_alive = ReductionState(g)  # a committed vertex is gone
    fixed_alive.fixed.add(1)
    assert not state_consistent(fixed_alive)
    delete_node(fixed_alive, 1)
    assert state_consistent(fixed_alive)


def test_state_copy_is_independent():
    g = build(3, [(0, 1), (1, 2)])
    st = ReductionState(g)
    cp = copy_state(st)
    delete_node(cp, 0)
    cp.covered[1] = 1
    cp.fixed.add(2)
    assert cp.cut_within({1, 2}) == [(1, 2)]
    assert st.alive[0] == 1 and not any(st.covered) and len(st.fixed) == 0
    assert st.adj == [[1], [0, 2], [1]] and st.deg == [1, 2, 1]
    cut = copy_state(st)
    assert cut.cut_within({0: None, 1: None, 2: None}) == [(0, 1), (1, 2)]
    assert st.adj == [[1], [0, 2], [1]] and st.deg == [1, 2, 1]
    assert edge_alive(st, 1, 2) and edge_alive(cp, 0, 1) is False


def test_compact_remaps_flags():
    g = build(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    st = ReductionState(g)
    st.covered[:3] = b"\x01\x01\x01"
    delete_node(st, 0)
    st.cut_within({2, 3})
    comp = compact(st)
    assert comp.graph.n == 4 and comp.graph.m == 2
    assert comp.new_to_old == [1, 2, 3, 4]
    assert comp.old_to_new == [-1, 0, 1, 2, 3]
    assert bytes(comp.covered) == bytes([1, 1, 0, 0])
    check_graph(comp.graph)


def test_compact_of_an_untouched_state_is_the_identity():
    g = build(4, [(0, 1), (1, 2), (2, 3)])
    st = ReductionState(g)
    st.covered[:3] = b"\x01\x01\x01"
    comp = compact(st)
    assert comp.old_to_new == comp.new_to_old == [0, 1, 2, 3]
    assert comp.graph.adj == g.adj and comp.graph.m == g.m
    assert bytes(comp.covered) == bytes([1, 1, 1, 0])
    check_graph(comp.graph)


def test_compact_shows_cut_edges_when_no_vertex_died():
    # cut_within is how Extra deletes edges; it replaces lists in the
    # state and leaves the input graph's lists alone
    g = build(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    st = ReductionState(g)
    st.cut_within({0: None, 1: None, 2: None})
    comp = compact(st)
    assert comp.new_to_old == [0, 1, 2, 3]
    assert comp.graph.adj == [[], [], [3], [2]] and comp.graph.m == 1
    assert g.adj == [[1, 2], [0, 2], [0, 1, 3], [2]]
    check_graph(comp.graph)


def test_compact_roundtrip_random():
    import random

    rng = random.Random(11)
    for g in random_graphs(30, (1, 12), [0.3, 0.6], seed_base=30):
        st = ReductionState(g)
        for v in range(g.n):
            if rng.random() < 0.3:
                delete_node(st, v)
        for u, v in list(g.edges()):
            if st.alive[u] and st.alive[v] and rng.random() < 0.2:
                st.cut_within({u, v})
        comp = compact(st)
        check_graph(comp.graph)
        # Edges survive exactly when both ends are alive and the edge
        # was not deleted on its own.
        expect = sorted(
            (comp.old_to_new[u], comp.old_to_new[v])
            for u, v in g.edges()
            if edge_alive(st, u, v)
        )
        assert sorted(comp.graph.edges()) == [
            (min(a, b), max(a, b)) for a, b in expect
        ]


def test_compact_maps_the_lists_a_round_leaves_whole():
    # one non-iterated round deletes vertices and drops them from the lists
    # of their alive neighbors, so compact maps each alive list whole
    from dsreduce.reducer import Variant

    removed = 0
    for g in random_graphs(30, (6, 40), [0.1, 0.2], seed_base=90):
        st = ReductionState(g)
        removed += len(one_round(st, Variant.LINEAR).removed_nodes)
        alive = st.alive
        assert all(alive[v] for u in range(g.n) if alive[u] for v in st.adj[u])
        comp = compact(st)
        check_graph(comp.graph)
        expect = [[comp.old_to_new[v] for v in st.adj[u]] for u in comp.new_to_old]
        assert comp.graph.adj == expect
    assert removed
