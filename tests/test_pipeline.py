"""The three-pass witness pipeline against the direct oracle."""

import random

import pytest

from conftest import annotated, build, random_graphs
from dsreduce.generators import complete, fig4_family, gnp, path, star
from dsreduce.oracle import classify_types, suitable_set_direct
from dsreduce.pipeline import (
    RelationSet,
    WorkCounter,
    canonical_reference,
    compute_proper_partition,
    compute_superset,
    filter_suitable,
    suitable_set,
)
from dsreduce.state import ReductionState


def test_canonical_reference_fixtures(fig3_graph):
    for u in range(6):
        assert canonical_reference(fig3_graph, u) == 3
    g = complete(3)
    for u in range(3):
        assert canonical_reference(g, u) == 2
    g = build(3, [(0, 1)])
    assert canonical_reference(g, 2) == 2
    # Equal degrees: the larger id wins, including the vertex itself.
    g = path(2)
    assert canonical_reference(g, 0) == 1
    assert canonical_reference(g, 1) == 1


def test_superset_fixtures(fig3_graph):
    assert compute_superset(ReductionState(fig3_graph)).sorted_pairs() == [
        (0, 3), (1, 3), (2, 3), (4, 3), (5, 3),
    ]
    assert compute_superset(ReductionState(path(6))).sorted_pairs() == [(0, 1), (5, 4)]


def test_superset_fig4():
    # Left-clique vertices point at the top right vertex, each b at its
    # own hub; nothing else fits inside its reference's neighborhood.
    k = 3
    g = fig4_family(k)
    top = 2 * k - 1
    expect = [(i, top) for i in range(k)]
    expect += [(2 * k + 5 * i + 1, k + i) for i in range(k)]
    assert compute_superset(ReductionState(g)).sorted_pairs() == sorted(expect)


def test_superset_matches_definition():
    for g in random_graphs(120, (1, 12), [0.15, 0.35, 0.6, 0.85], seed_base=100):
        got = compute_superset(ReductionState(g)).sorted_pairs()
        expect = []
        for u in range(g.n):
            rho = canonical_reference(g, u)
            if rho == u:
                continue
            closed = set(g.adj[rho]) | {rho}
            if all(w in closed for w in g.adj[u]):
                expect.append((u, rho))
        assert got == sorted(expect)


def test_partition_map_prefers_small_degree_then_small_id():
    # Hub 0 has two witnesses pointing at it; vertex 4 also neighbors
    # reference 5 of smaller degree, which must win the f-slot.
    g = build(7, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6), (0, 5)])
    st = ReductionState(g)
    sprime = compute_superset(st)
    refs = dict(sprime.sorted_pairs())
    f = compute_proper_partition(st, sprime, pairs=sprime)
    for x, r in f.items():
        if r < 0:
            continue
        # f only proposes adjacent references that some closed neighbor
        # nominated.
        assert g.has_edge(x, r)
        nominated = {refs.get(y) for y in ([x] + list(g.adj[x]))}
        cands = {c for c in nominated if c is not None and g.has_edge(x, c)}
        assert r in cands
        assert all(
            (g.deg[r], r) <= (g.deg[c], c) for c in cands
        ), f"{x} got {r} over {cands}"


def test_partition_map_unmapped_far_from_witnesses():
    st = ReductionState(path(9))
    sprime = compute_superset(st)
    assert sprime.sorted_pairs() == [(0, 1), (8, 7)]
    f = compute_proper_partition(st, sprime, pairs=sprime)
    # Domain is the closed neighborhoods of witnesses; 2 sits outside.
    assert f[2] == -1 and f[4] == -1
    assert f[0] == 1
    # A vertex never takes itself: 1 has no adjacent reference.
    assert f[1] == -1


def test_filter_fixtures(fig3_graph):
    def pairs(g):
        return suitable_set(ReductionState(g)).sorted_pairs()

    assert pairs(fig3_graph) == [(0, 3), (1, 3), (2, 3), (4, 3), (5, 3)]
    assert pairs(path(6)) == [(0, 1), (5, 4)]
    assert pairs(fig4_family(3)) == []
    assert pairs(fig4_family(5)) == []
    assert pairs(star(5)) == [(i, 0) for i in range(1, 6)]


def test_pipeline_matches_direct_oracle():
    for g in random_graphs(250, (1, 12), [0.1, 0.25, 0.5, 0.75, 0.9], seed_base=200):
        got = suitable_set(ReductionState(g)).sorted_pairs()
        expect = suitable_set_direct(g).sorted_pairs()
        assert got == expect, f"n={g.n} m={g.m}"


def test_pipeline_matches_direct_on_structured():
    for g in [path(1), path(2), path(7), complete(6), star(8), fig4_family(4)]:
        got = suitable_set(ReductionState(g)).sorted_pairs()
        assert got == suitable_set_direct(g).sorted_pairs()


def test_witness_uniqueness_enforced():
    with pytest.raises(ValueError, match="twice"):
        RelationSet([(0, 1), (0, 2)])
    with pytest.raises(ValueError, match="itself"):
        RelationSet([(1, 1)])


def test_relation_set_accessors():
    rs = RelationSet([(4, 2), (0, 2), (3, 5)])
    assert rs.references() == [2, 5]
    assert rs.witnesses() == [0, 3, 4]
    assert rs.by_witness[4] == 2 and rs.by_witness[1] == -1
    assert len(rs) == 3


def assert_safe_pairs(g, rels, covered, fixed):
    """Every pair of ``rels`` satisfies the exchange argument: uncovered
    unfixed witness, neighborhood inside N[reference], and every
    neighbor's uncovered reach inside N[reference] too.  This is what
    makes fixing the reference preserve the annotated domination number."""
    for u, rho in rels:
        assert not covered[u] and not fixed[u]
        assert g.has_edge(u, rho)
        closed_rho = set(g.adj[rho]) | {rho}
        for w in g.adj[u]:
            assert w in closed_rho, f"witness {u} leaves N[{rho}]"
            if w == rho:
                continue
            assert not fixed[w]
            assert all(
                x in closed_rho or covered[x] for x in g.adj[w]
            ), f"witness {u} ref {rho} neighbor {w} escapes"


def test_aware_pipeline_safety_predicates():
    # With covered flags the pipeline result need not equal the ideal
    # definition pair-for-pair, but every emitted pair must be safe.
    rng = random.Random(4242)
    for g in random_graphs(150, (2, 12), [0.2, 0.4, 0.7], seed_base=300):
        covered = bytearray(rng.random() < 0.35 for _ in range(g.n))
        fixed = bytearray(g.n)
        for v in range(g.n):
            if covered[v] and rng.random() < 0.2:
                fixed[v] = 1
        rels = suitable_set(annotated(g, covered, fixed))
        assert_safe_pairs(g, rels, covered, fixed)


def test_aware_pipeline_covers_direct_enclosed():
    # Soundness direction against the aware oracle: anything the direct
    # computation finds, the pipeline finds too.
    rng = random.Random(999)
    for g in random_graphs(120, (2, 12), [0.25, 0.5], seed_base=410):
        covered = bytearray(rng.random() < 0.3 for _ in range(g.n))
        got = set(suitable_set(annotated(g, covered)).sorted_pairs())
        expect = set(suitable_set_direct(g, covered).sorted_pairs())
        assert expect <= got


def test_fixed_vertices_never_witness():
    g = star(4)
    fixed = bytearray(5)
    fixed[2] = 1
    rels = suitable_set(annotated(g, fixed=fixed))
    assert rels.sorted_pairs() == [(1, 0), (3, 0), (4, 0)]


def test_work_counter_linear_budget():
    for g in random_graphs(60, (1, 12), [0.2, 0.5, 0.8], seed_base=700):
        wc = WorkCounter()
        suitable_set(ReductionState(g), work=wc)
        assert wc.visits <= 64 * (g.n + g.m)
    for k in (5, 20):
        g = fig4_family(k)
        wc = WorkCounter()
        suitable_set(ReductionState(g), work=wc)
        assert wc.visits <= 64 * (g.n + g.m)


def test_stage_work_is_attributed():
    st = ReductionState(fig4_family(4))
    wc = WorkCounter()
    sprime = compute_superset(st, work=wc)
    after1 = wc.visits
    assert after1 > 0
    f = compute_proper_partition(st, sprime, pairs=sprime, work=wc)
    after2 = wc.visits
    assert after2 > after1
    filter_suitable(st, sprime, f, work=wc)
    assert wc.visits > after2


def test_scoped_passes_match_full_result_restricted():
    rng = random.Random(4100)
    for g in random_graphs(150, (1, 30), [0.05, 0.1, 0.2, 0.4], seed_base=4100):
        covered = bytearray(rng.random() < 0.25 for _ in range(g.n))
        fixed = bytearray(rng.random() < 0.1 for _ in range(g.n))
        for cov, fix in ((None, None), (covered, None), (covered, fixed)):
            st = annotated(g, cov, fix)
            full = suitable_set(st).sorted_pairs()
            sup = compute_superset(st)
            for p in (0.0, 0.1, 0.3, 0.7, 1.0):
                scope = {v for v in range(g.n) if rng.random() < p}
                # partition and filter test exactly the pairs they are given
                pairs = [(u, r) for u, r in sup if u in scope]
                f = compute_proper_partition(st, sup, pairs=pairs)
                got = filter_suitable(st, pairs, f)
                assert got.sorted_pairs() == [(u, r) for u, r in full if u in scope]
                # the superset pass evaluates exactly its scope
                part = compute_superset(st, scope=scope)
                assert part.sorted_pairs() == [
                    (u, r) for u, r in sup.sorted_pairs() if u in scope
                ]
                assert part.canonical == {u: sup.canonical[u] for u in scope}


def test_scoped_passes_stay_local():
    # work near a small scope does not depend on the size of the graph
    visits = []
    for n in (1_000, 100_000):
        st = ReductionState(path(n))
        wc = WorkCounter()
        got = compute_superset(st, scope={0, n // 2}, work=wc)
        assert got.sorted_pairs() == [(0, 1)]
        visits.append(wc.visits)
    assert visits[0] == visits[1] < 100
