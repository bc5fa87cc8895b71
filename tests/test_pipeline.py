"""The three-pass witness pipeline against the direct oracle."""

import random

from conftest import annotated, build, committed, members, random_graphs
from dsreduce.generators import complete, fig4_family, gadget_path, gnp, path, star
from dsreduce.oracle import (
    canonical_reference,
    copy_state,
    delete_node,
    suitable_set_direct,
)
from dsreduce.pipeline import (
    _SHORT_LIST,
    WorkCounter,
    compute_proper_partition,
    compute_superset,
    filter_suitable,
    suitable_pairs,
    suitable_set,
)
from dsreduce.reducer import Variant, apply_reduction
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
    assert sorted(compute_superset(ReductionState(fig3_graph)).items()) == [
        (0, 3), (1, 3), (2, 3), (4, 3), (5, 3),
    ]
    assert sorted(compute_superset(ReductionState(path(6))).items()) == [(0, 1), (5, 4)]


def test_superset_fig4():
    # Left-clique vertices point at the top right vertex, each b at its
    # own hub; nothing else fits inside its reference's neighborhood.
    k = 3
    g = fig4_family(k)
    top = 2 * k - 1
    expect = [(i, top) for i in range(k)]
    expect += [(2 * k + 5 * i + 1, k + i) for i in range(k)]
    assert sorted(compute_superset(ReductionState(g)).items()) == sorted(expect)


def k2n(k, triangles=0):
    """K_{2,k} with hubs 0 and 1, plus ``triangles`` pendant triangles
    on hub 1, numbered after the leaves."""
    edges = [(h, v) for v in range(2, k + 2) for h in (0, 1)]
    for i in range(triangles):
        x = k + 2 + 2 * i
        edges += [(1, x), (1, x + 1), (x, x + 1)]
    return build(k + 2 + 2 * triangles, edges)


def probe_graphs():
    """Graphs aimed at the superset pass's probe of u's lowest neighbor
    other than its reference."""
    # u = 1 takes rho = 0: its probe (2, the triangle's third vertex)
    # lies in N(0), its later neighbor 3 does not.
    out = [build(7, [(0, 1), (0, 2), (1, 2), (1, 3), (0, 4), (0, 5), (0, 6)])]
    # a reference list on both sides of the short-list bound
    rng = random.Random(2500)
    for k in range(_SHORT_LIST - 2, _SHORT_LIST + 4):
        for _ in range(4):
            n = k + 1 + rng.randint(2, 10)
            edges = {(0, v) for v in rng.sample(range(1, n), k)}
            edges |= {
                (a, b) for a in range(1, n) for b in range(a + 1, n) if rng.random() < 0.15
            }
            out.append(build(n, sorted(edges)))
    out += [complete(k) for k in range(1, 21)]
    out += [k2n(k, t) for k in range(1, 21) for t in (0, 1, 3)]
    return out


def test_superset_matches_definition():
    rng = random.Random(100)
    graphs = random_graphs(120, (1, 12), [0.15, 0.35, 0.6, 0.85], seed_base=100)
    for g in graphs + probe_graphs():
        covered = bytearray(rng.random() < 0.2 for _ in range(g.n))
        fixed = bytearray(rng.random() < 0.1 for _ in range(g.n))
        for cov, fix in ((None, None), (covered, None), (None, fixed), (covered, fixed)):
            st = committed(g, members(cov), members(fix))
            h = st.g
            got = sorted(compute_superset(st).items())
            expect = []
            for u in range(h.n):
                rho = canonical_reference(h, u)
                if rho == u or st.covered[u]:
                    continue
                closed = set(h.adj[rho]) | {rho}
                if all(w in closed for w in h.adj[u]):
                    expect.append((u, rho))
            assert got == sorted(expect), (g.n, g.m)


def test_pipeline_on_partly_reduced_states_names_only_alive_vertices():
    # A dead vertex keeps its list as it was when it died, which could
    # make it a witness of an alive reference, or make an alive vertex the
    # reference of a dead witness; ``apply_reduction`` rejects a dead
    # reference.
    rng = random.Random(2501)
    old_fits = 0
    for g in random_graphs(200, (5, 30), [0.1, 0.2, 0.4], seed_base=2501):
        st = ReductionState(g)
        for v in rng.sample(range(g.n), g.n // 5):
            delete_node(st, v)
        # dead vertices whose old list fits their reference's, by the
        # superset definition
        old_fits += any(
            v != rho and set(st.adj[v]) <= {rho, *st.adj[rho]}
            for v in range(g.n)
            if not st.alive[v]
            for rho in [canonical_reference(st, v)]
        )
        pairs = suitable_set(st)
        assert all(st.alive[u] and st.alive[rho] for u, rho in pairs), pairs
        refs = sorted({rho for _u, rho in pairs})
        for variant in (Variant.LINEAR, Variant.PLUS, Variant.EXTRA):
            apply_reduction(copy_state(st), refs, variant)
    assert old_fits > 30, old_fits


def test_partition_map_prefers_small_degree_then_small_id():
    # Hub 0 has two witnesses pointing at it; vertex 4 also neighbors
    # reference 5 of smaller degree, which must win the f-slot.
    g = build(7, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6), (0, 5)])
    st = ReductionState(g)
    sprime = compute_superset(st)
    refs = dict(sorted(sprime.items()))
    f = compute_proper_partition(st, sprime, pairs=sprime.items())
    for x, r in f.items():
        if r < 0:
            continue
        # f only proposes adjacent references that some closed neighbor
        # nominated.
        assert r in g.adj[x]
        nominated = {refs.get(y) for y in ([x] + list(g.adj[x]))}
        cands = {c for c in nominated if c is not None and c in g.adj[x]}
        assert r in cands
        assert all(
            (g.deg[r], r) <= (g.deg[c], c) for c in cands
        ), f"{x} got {r} over {cands}"


def test_partition_map_unmapped_far_from_witnesses():
    st = ReductionState(path(9))
    sprime = compute_superset(st)
    assert sorted(sprime.items()) == [(0, 1), (8, 7)]
    f = compute_proper_partition(st, sprime, pairs=sprime.items())
    # Domain is the closed neighborhoods of witnesses; 2 sits outside.
    assert f.get(2, -1) == -1 and f.get(4, -1) == -1
    assert f[0] == 1
    # A vertex never takes itself: 1 has no adjacent reference.
    assert f[1] == -1


def test_filter_fixtures(fig3_graph):
    def pairs(g):
        return sorted(suitable_set(ReductionState(g)))

    assert pairs(fig3_graph) == [(0, 3), (1, 3), (2, 3), (4, 3), (5, 3)]
    assert pairs(path(6)) == [(0, 1), (5, 4)]
    assert pairs(fig4_family(3)) == []
    assert pairs(fig4_family(5)) == []
    assert pairs(star(5)) == [(i, 0) for i in range(1, 6)]


def test_pipeline_matches_direct_oracle():
    for g in random_graphs(250, (1, 12), [0.1, 0.25, 0.5, 0.75, 0.9], seed_base=200):
        got = sorted(suitable_set(ReductionState(g)))
        expect = sorted(suitable_set_direct(g))
        assert got == expect, f"n={g.n} m={g.m}"


def test_pipeline_matches_direct_on_structured():
    for g in [path(1), path(2), path(7), complete(6), star(8), fig4_family(4)]:
        got = sorted(suitable_set(ReductionState(g)))
        assert got == sorted(suitable_set_direct(g))


def assert_safe_pairs(g, rels, covered):
    """Every pair of ``rels`` satisfies the exchange argument: uncovered
    witness, neighborhood inside N[reference], and every neighbor's
    uncovered reach inside N[reference] too.  This is what makes fixing
    the reference preserve the annotated domination number."""
    for u, rho in rels:
        assert not covered[u]
        assert rho in g.adj[u]
        closed_rho = set(g.adj[rho]) | {rho}
        for w in g.adj[u]:
            assert w in closed_rho, f"witness {u} leaves N[{rho}]"
            if w == rho:
                continue
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
        st = committed(g, members(covered), members(fixed))
        assert_safe_pairs(st.g, suitable_set(st), st.covered)


def test_aware_pipeline_covers_direct_enclosed():
    # Soundness direction against the aware oracle: anything the direct
    # computation finds, the pipeline finds too.
    rng = random.Random(999)
    for g in random_graphs(120, (2, 12), [0.25, 0.5], seed_base=410):
        covered = bytearray(rng.random() < 0.3 for _ in range(g.n))
        got = set(suitable_set(annotated(g, covered)))
        expect = set(suitable_set_direct(g, covered))
        assert expect <= got


def test_fixed_vertices_never_witness():
    # A committed vertex is no vertex of the instance it leaves: committing
    # the leaf 2 of a star removes it and covers the center, and the
    # other leaves still witness the center.
    g = star(4)
    fixed = bytearray(5)
    fixed[2] = 1
    st = committed(g, fixed=members(fixed))
    back = [0, 1, 3, 4]
    rels = [(back[u], back[rho]) for u, rho in suitable_set(st)]
    assert sorted(rels) == [(1, 0), (3, 0), (4, 0)]


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


def test_superset_work_is_linear_with_a_shared_long_reference():
    # Every leaf of K_{2,k} takes hub 1 as its canonical reference, and
    # its probe (hub 0) fails; the pendant triangles' vertices pass it
    # and are witnesses.  A probe that scanned a hub's list would read k
    # entries per leaf.  Counts are exact, not timed.
    per_nm = []
    for k in (400, 1600):
        t = k // 4
        g = k2n(k, t)
        wc = WorkCounter()
        sup = compute_superset(ReductionState(g), work=wc)
        assert sorted(sup) == list(range(k + 2, g.n))
        # the canonical references read every list; then hub 1's set is
        # built once, a leaf's failed probe costs 1 and a triangle
        # vertex 1 plus its degree
        assert wc.visits == (2 * g.m + g.n) + (k + 2 * t + 1) + k + 3 * (2 * t)
        per_nm.append(wc.visits / (g.n + g.m))
    assert per_nm[1] < 1.5 * per_nm[0], per_nm
    # Short reference lists: a failed probe scans the probed neighbor's
    # list (1, 2 and 2 entries for vertices 1, 2 and 3); the ends have
    # degree 1 and need no test.
    wc = WorkCounter()
    assert sorted(compute_superset(ReductionState(path(6)), work=wc).items()) == [(0, 1), (5, 4)]
    assert wc.visits == (2 * 5 + 6) + 1 + 2 + 2


def test_stage_work_is_attributed():
    st = ReductionState(fig4_family(4))
    wc = WorkCounter()
    sprime = compute_superset(st, work=wc)
    after1 = wc.visits
    assert after1 > 0
    f = compute_proper_partition(st, sprime, pairs=sprime.items(), work=wc)
    after2 = wc.visits
    assert after2 > after1
    filter_suitable(st, sprime.items(), f, work=wc)
    assert wc.visits > after2


def test_scoped_passes_match_full_result_restricted():
    rng = random.Random(4100)
    graphs = random_graphs(150, (1, 30), [0.05, 0.1, 0.2, 0.4], seed_base=4100)
    for g in graphs + probe_graphs():
        covered = bytearray(rng.random() < 0.25 for _ in range(g.n))
        fixed = bytearray(rng.random() < 0.1 for _ in range(g.n))
        for cov, fix in ((None, None), (covered, None), (covered, fixed)):
            st = committed(g, members(cov), members(fix))
            full = sorted(suitable_set(st))
            sup = compute_superset(st)
            for p in (0.0, 0.1, 0.3, 0.7, 1.0):
                scope = {v for v in range(st.n) if rng.random() < p}
                # partition and filter test exactly the pairs they are given
                pairs = [(u, r) for u, r in sup.items() if u in scope]
                f = compute_proper_partition(st, sup, pairs=pairs)
                got = filter_suitable(st, pairs, f)
                assert sorted(got) == [(u, r) for u, r in full if u in scope]
                # the superset pass evaluates exactly its scope
                part = compute_superset(
                    st, canonical={u: canonical_reference(st, u) for u in scope}
                )
                assert sorted(part.items()) == [
                    (u, r) for u, r in sorted(sup.items()) if u in scope
                ]
                assert part.canonical == {u: sup.canonical[u] for u in scope}


def test_scoped_passes_stay_local():
    # work near a small scope does not depend on the size of the graph
    visits = []
    for n in (1_000, 100_000):
        st = ReductionState(path(n))
        wc = WorkCounter()
        scope = {0, n // 2}
        got = compute_superset(
            st, canonical={u: canonical_reference(st, u) for u in scope}, work=wc
        )
        assert sorted(got.items()) == [(0, 1)]
        visits.append(wc.visits)
    assert visits[0] == visits[1] < 100


def lemma_states():
    """Annotated states of G(n, p), G(n, m), random trees and gadget
    paths, with covered masks, some partly reduced: random vertices
    deleted, as in a round after the first."""
    rng = random.Random(4400)
    graphs = random_graphs(120, (1, 40), [0.03, 0.08, 0.15, 0.3], seed_base=4400)
    for _ in range(60):
        n = rng.randint(2, 60)
        m = min(n * rng.randint(1, 4) // 2, n * (n - 1) // 2)
        edges = set()
        while len(edges) < m:
            a, b = sorted(rng.sample(range(n), 2))
            edges.add((a, b))
        graphs.append(build(n, sorted(edges)))
    for _ in range(60):
        n = rng.randint(1, 60)
        graphs.append(build(n, [(v, rng.randrange(v)) for v in range(1, n)]))
    graphs += [gadget_path(fig, k) for fig in ("fig5", "fig6") for k in (1, 2, 5, 12)]
    for g in graphs:
        for p_cov in (0.0, 0.2):
            for p_dead in (0.0, 0.25):
                st = ReductionState(g)
                for v in range(g.n):
                    if rng.random() < p_dead:
                        delete_node(st, v)
                for v in range(g.n):
                    if st.alive[v]:
                        st.covered[v] = rng.random() < p_cov
                yield st


def test_leaf_witnesses_need_no_partition():
    # The lemma in ``filter_suitable``: a pair whose witness u has one
    # live neighbor passes the slot test, since the partition over all
    # pairs maps u to its reference, and the other pairs' verdicts read
    # the partition only on their witnesses' closed neighborhoods.  So
    # the partition over the other pairs alone gives the same result.
    leaves = inner_kept = 0
    for st in lemma_states():
        sup = compute_superset(st)
        pairs = list(sup.items())
        inner = [(u, rho) for u, rho in pairs if st.deg[u] != 1]
        f_all = compute_proper_partition(st, sup, pairs=pairs)
        f_inner = compute_proper_partition(st, sup, pairs=inner)
        want = filter_suitable(st, pairs, f_all)
        assert filter_suitable(st, pairs, f_inner) == want
        assert suitable_pairs(st, sup, pairs) == want
        for u, rho in pairs:
            if st.deg[u] == 1:
                leaves += 1
                # u's one neighbor rho lies in N[rho], so u joins rho's
                # second slot, and N[u] less rho is {u}
                assert f_all[u] == rho and (u, rho) in want
        inner_kept += sum(st.deg[u] != 1 for u, _rho in want)
    assert leaves > 4000 and inner_kept > 80, (leaves, inner_kept)
