import random
from collections import Counter

import pytest

from conftest import build, committed, covered_by, edge_alive, random_graphs
from dsreduce.generators import (
    barbell_cycle,
    complete,
    fig4_family,
    gadget_path,
    gnp,
    path,
    star,
)
from dsreduce.oracle import (
    apply_reference,
    check_graph,
    copy_state,
    delete_node,
    exact_annotated_gamma,
    exhaustive_original_rule1,
    live_neighbors,
    naive_reduce,
    one_round,
    reduce_iterate_reference,
    state_consistent,
)
from dsreduce.pipeline import WorkCounter, suitable_set
from dsreduce.reducer import (
    ReductionReport,
    Variant,
    apply_reduction,
    export_residual,
    fix_isolated_uncovered,
    reduce_iterate,
)
from dsreduce.state import ReductionState, compact


def dead(g, st):
    """The removed vertices: dead and not committed."""
    return sorted(v for v in range(g.n) if not st.alive[v] and v not in st.fixed)


def run(g, variant, *, iterate=False, max_rounds=1024):
    """Reduce a fresh state of ``g``; without ``iterate`` the state is
    left as one round leaves it, before the export drops the covered
    vertices left isolated."""
    st = ReductionState(g)
    if variant is None:
        rep = naive_reduce(st)
    elif iterate:
        rep = reduce_iterate(st, variant, max_rounds=max_rounds)
    else:
        rep = one_round(st, variant)
    return st, rep


# ---------------------------------------------------------------- fixtures


def test_six_path_linear():
    g = gadget_path("fig5", 1)
    st, rep = run(g, Variant.LINEAR)
    assert sorted(st.fixed) == [1, 4]
    assert dead(g, st) == [0, 2, 3, 5]
    assert rep.removed_edges == 5


def test_six_path_naive_leaves_middle():
    g = gadget_path("fig5", 1)
    st, rep = run(g, None)
    assert sorted(st.fixed) == [1, 4]
    assert dead(g, st) == [0, 5]
    # 0-1 and 4-5 go with the deleted ends, 1-2 and 3-4 with the commits
    assert rep.removed_edges == 4


def test_seven_path_linear_blocked_by_center():
    g = gadget_path("fig6", 1)
    st, _ = run(g, Variant.LINEAR)
    assert sorted(st.fixed) == [1, 5]
    # 2 and 4 survive because the unmarked center 3 still needs them
    assert dead(g, st) == [0, 6]


def test_seven_path_plus_drops_inner_pair():
    g = gadget_path("fig6", 1)
    st, _ = run(g, Variant.PLUS)
    assert sorted(st.fixed) == [1, 5]
    assert dead(g, st) == [0, 2, 4, 6]


def test_dense_example_single_commit(fig3_graph):
    st, rep = run(fig3_graph, Variant.LINEAR)
    assert sorted(st.fixed) == [3]
    assert dead(fig3_graph, st) == [0, 1, 2, 4, 5]
    assert rep.removed_edges == 10


def test_four_path_commits_ends_and_strips_bridge():
    g = path(4)
    st, rep = run(g, Variant.LINEAR)
    assert sorted(st.fixed) == [1, 2]
    assert dead(g, st) == [0, 3]
    # the 1-2 edge joins two committed vertices: the call removes it with
    # the first of them and counts it once
    assert rep.removed_edges == 3
    assert export_residual(st) == []
    comp = compact(st)
    assert comp.graph.n == 0


def test_edge_from_a_reference_to_a_deleted_vertex_counts_once():
    # The triangle's reference 0 takes 0-1 and 0-2 as it is committed;
    # deleting 1 then takes only 1-2, and deleting 2 nothing more.
    g = complete(3)
    st = ReductionState(g)
    rep = apply_reduction(st, [0], Variant.LINEAR)
    assert (rep.fixed, rep.removed_nodes, rep.removed_edges) == ([0], [1, 2], 3)
    assert list(st.deg) == [0, 0, 0] and not any(st.alive)
    assert state_consistent(st)


def test_five_path_naive():
    g = path(5)
    st, _ = run(g, None)
    assert sorted(st.fixed) == [1, 3]
    assert dead(g, st) == [0, 4]


def test_triangle_tiebreak():
    st, _ = run(complete(3), Variant.LINEAR)
    assert sorted(st.fixed) == [2]
    assert dead(complete(3), st) == [0, 1]


def test_single_vertex_untouched():
    g = build(1, [])
    st, rep = run(g, Variant.LINEAR)
    assert rep == ReductionReport()
    assert len(st.fixed) == 0


def test_naive_visits_on_the_five_path():
    # Counted by hand, per swept vertex: its closed live neighborhood, then
    # the neighbor scans up to the first escape and the enclosure tests.
    # 0: 2 + 2 (1 escapes via 2) + 0.  1: 3 + 1 + 2 (2 escapes via 3)
    # + 1 (0 is enclosed: commit 1, delete 0).  2: 3 + 0 (1 is fixed)
    # + 2 + 0.  3: 3 + 1 (2 escapes via 1) + 1 + 1 (4 is enclosed:
    # commit 3, delete 4).
    # 4 is dead.  4 + 7 + 5 + 6 = 22.
    work = WorkCounter()
    rep = naive_reduce(ReductionState(path(5)), work=work)
    assert (rep.fixed, rep.removed_nodes, rep.removed_edges) == ([1, 3], [0, 4], 4)
    assert work.visits == 22


def test_naive_complete_graph_first_vertex():
    for n in (2, 3, 5, 9):
        g = complete(n)
        st, _ = run(g, None)
        assert sorted(st.fixed) == [0]
        assert dead(g, st) == list(range(1, n))


def test_naive_star_center():
    g = star(6)
    st, _ = run(g, None)
    assert sorted(st.fixed) == [0]
    assert dead(g, st) == list(range(1, 7))


def test_adversarial_family_is_irreducible():
    for k in (2, 3, 4):
        g = fig4_family(k)
        stn, repn = run(g, None)
        assert repn == ReductionReport()
        stl, repl = run(g, Variant.LINEAR)
        assert repl == ReductionReport()


def test_barbell_plus_keeps_bridge():
    g = barbell_cycle()
    st, rep = run(g, Variant.PLUS)
    assert sorted(st.fixed) == [1, 10]
    assert dead(g, st) == [0, 11]
    assert rep.extra_edges == []


def test_barbell_extra_cuts_bridge():
    g = barbell_cycle()
    st, rep = run(g, Variant.EXTRA)
    assert sorted(st.fixed) == [1, 10]
    assert dead(g, st) == [0, 11]
    # both bridge endpoints are marked and neither is committed
    assert rep.extra_edges == [(2, 9)]
    assert not edge_alive(st, 2, 9)


# ------------------------------------------------------------- iteration


def test_seven_path_chain_iterated_rounds():
    expect = {
        1: (2, [1, 5], [0, 2, 4, 6]),
        2: (3, [1, 4, 8, 11], [0, 2, 3, 5, 7, 9, 10, 12]),
        3: (4, [1, 4, 7, 11, 14, 17], [0, 2, 3, 5, 6, 8, 10, 12, 13, 15, 16, 18]),
    }
    for copies, (rounds, fixed, removed) in expect.items():
        g = gadget_path("fig6", copies)
        st, rep = run(g, Variant.PLUS, iterate=True)
        assert rep.rounds == rounds
        assert sorted(st.fixed) == fixed
        # committed vertices leave the residual as they are committed,
        # without being counted as removals
        assert sorted(rep.removed_nodes) == removed


def test_barbell_extra_iterated():
    g = barbell_cycle()
    st, rep = run(g, Variant.EXTRA, iterate=True)
    assert rep.rounds == 2
    assert sorted(st.fixed) == [1, 10]
    assert sorted(rep.removed_nodes) == [0, 11]
    assert rep.extra_edges == [(2, 9)]


def test_iterate_reports_single_idle_round_on_fixpoint():
    g = fig4_family(3)
    st, rep = run(g, Variant.EXTRA, iterate=True)
    assert rep.rounds == 1
    assert rep == ReductionReport()


def test_iterate_caps_rounds():
    g = gadget_path("fig6", 3)
    st, rep = run(g, Variant.PLUS, iterate=True, max_rounds=2)
    assert rep.rounds == 2 and not rep.converged
    st2, rep2 = run(g, Variant.PLUS, iterate=True)
    assert rep2.rounds == 4 and rep2.converged
    assert len(st.fixed) < len(st2.fixed)
    # the fourth round is idle, so a cap of 4 still converges
    _st, rep4 = run(g, Variant.PLUS, iterate=True, max_rounds=4)
    assert rep4.rounds == 4 and rep4.converged


def test_iterate_mirrors_original_ids():
    # events reported against round-local graphs must come back in the
    # caller's numbering
    g = gadget_path("fig6", 2)
    st, rep = run(g, Variant.PLUS, iterate=True)
    assert set(rep.fixed) == set(st.fixed)
    assert all(0 <= v < g.n for v in rep.fixed + rep.removed_nodes)
    assert set(rep.removed_nodes).isdisjoint(set(rep.fixed))


# ------------------------------------------------- safety and dominance


def variants_all(g):
    yield run(g, None)
    for v in (Variant.LINEAR, Variant.PLUS, Variant.EXTRA):
        yield run(g, v)
    for v in (Variant.LINEAR, Variant.PLUS, Variant.EXTRA):
        yield run(g, v, iterate=True)


def committed_plus_residual_gamma(st):
    nfixed = len(st.fixed)
    export_residual(st)
    comp = compact(st)
    got, _ = exact_annotated_gamma(comp.graph, comp.covered)
    return nfixed + got


def test_gamma_identity_all_variants():
    # Each graph runs fresh, then with given covered vertices and given
    # fixed ones F, whose optimum is |F| + γ(G, covered ∪ N[F]).  No
    # driver takes a fixed vertex, so they run on what committing F
    # leaves.  The naive sweep reads no covered flags, so it must refuse
    # that instance when it has any.
    rng = random.Random(8800)
    for g in random_graphs(90, (2, 13), [0.15, 0.3, 0.5, 0.8], seed_base=8800):
        want, _ = exact_annotated_gamma(g, bytearray(g.n))
        for st, rep in variants_all(g):
            assert want == committed_plus_residual_gamma(st)

        covered = [v for v in range(g.n) if rng.random() < 0.3]
        fixed = [v for v in range(g.n) if rng.random() < 0.08]
        dominated = covered_by(g, covered, fixed)
        want = len(fixed) + exact_annotated_gamma(g, dominated)[0]
        for variant in (Variant.LINEAR, Variant.PLUS, Variant.EXTRA):
            for cap in (1, None):
                st = committed(g, covered, fixed)
                reduce_iterate(st, variant, cap)
                where = (g.n, list(g.edges()), covered, fixed, cap, variant)
                got = len(fixed) + committed_plus_residual_gamma(st)
                assert want == got, where
        inst = committed(g, covered, fixed)
        if any(inst.covered):
            with pytest.raises(ValueError):
                naive_reduce(inst)


def test_variant_monotonicity():
    for g in random_graphs(120, (3, 14), [0.2, 0.4, 0.6], seed_base=8950):
        stl, _ = run(g, Variant.LINEAR)
        stp, repp = run(g, Variant.PLUS)
        ste, repe = run(g, Variant.EXTRA)
        assert set(dead(g, stl)) <= set(dead(g, stp))
        assert dead(g, stp) == dead(g, ste)
        assert sorted(stl.fixed) == sorted(stp.fixed) == sorted(ste.fixed)
        assert repe.removed_edges >= repp.removed_edges


@pytest.mark.xfail(
    strict=True,
    reason="single-sweep chaining can outperform one simultaneous round; "
    "gnp(10, 0.5, seed=2022) is a counterexample, see the acceptance "
    "paragraph of README.md",
)
def test_naive_never_beats_linear_round():
    for i in range(40):
        rng = random.Random(2000 + i)
        n = rng.randint(2, 14)
        p = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9])
        g = gnp(n, p, seed=2000 + i)
        stn, _ = run(g, None)
        stl, _ = run(g, Variant.LINEAR)
        assert len(stl.fixed) >= len(stn.fixed)
        assert len(dead(g, stl)) >= len(dead(g, stn))


def test_naive_chaining_counterexample_pinned():
    # while the vertex before it is being reduced, 4 gains an enclosed
    # neighbor mid-sweep; one simultaneous round cannot see it
    g = gnp(10, 0.5, seed=2022)
    assert list(suitable_set(ReductionState(g))) == [(7, 3)]
    stn, _ = run(g, None)
    stl, _ = run(g, Variant.LINEAR)
    assert sorted(stn.fixed) == [3, 4]
    assert sorted(stl.fixed) == [3]
    assert dead(g, stn) == [0, 1, 2, 5, 6, 7, 8, 9]
    assert dead(g, stl) == [0, 2, 5, 6, 7, 9]


def test_naive_matches_sequential_original_rule():
    # same order, same trigger: the sweep agrees with the reference
    # implementation unless chaining order diverges
    for seed in (0, 1, 2):
        g = gnp(8, 0.4, seed=seed)
        st, _ = run(g, None)
        fixed, removed = exhaustive_original_rule1(g)
        assert sorted(st.fixed) == sorted(fixed)
        assert dead(g, st) == sorted(removed)


def test_naive_single_sweep_stops_early():
    # the reference process loops to a fixpoint; one sweep does not
    g = gnp(8, 0.4, seed=39)
    st, _ = run(g, None)
    fixed, removed = exhaustive_original_rule1(g)
    assert sorted(st.fixed) == [7]
    assert sorted(fixed) == [1, 7]
    assert dead(g, st) == [4, 6]
    assert sorted(removed) == [0, 2, 3, 4, 5, 6]


def test_apply_reduction_order_independent():
    for i in range(60):
        g = gnp(random.Random(100 + i).randint(3, 13), 0.4, seed=100 + i)
        refs = sorted({r for _, r in suitable_set(ReductionState(g))})
        if not refs:
            continue
        baseline = None
        for trial in range(5):
            order = list(refs)
            random.Random(trial).shuffle(order)
            st = ReductionState(g)
            rep = apply_reduction(st, order, Variant.PLUS)
            key = (sorted(st.fixed), dead(g, st), rep.extra_edges)
            if baseline is None:
                baseline = key
            assert key == baseline


def apply_outcome(st, rep):
    return (
        (rep.fixed, rep.removed_nodes, rep.removed_edges, rep.rounds,
         rep.extra_edges, rep.converged, set(rep.dirty)),
        bytes(st.alive),
        bytes(st.covered),
        sorted(st.fixed),
        list(st.deg),
        [set(live_neighbors(st, v)) if st.alive[v] else None for v in range(st.n)],
    )


def test_apply_reduction_matches_its_definition():
    # ``oracle.apply_reference`` applies a reference set straight from
    # the definition, without apply_reduction or cut_within.  Both run on
    # fresh states and on partly reduced ones (deleted vertices and cut
    # edges), with covered masks, for reference sets from the pipeline
    # and drawn at random.  Both drop the covered vertices they isolate,
    # some of which are no neighbor of a reference.
    rng = random.Random(9700)
    graphs = random_graphs(70, (3, 40), [0.06, 0.12, 0.25, 0.5], seed_base=9700)
    graphs += [build(L + 1, [(v, v + 1) for v in range(L - 1)] + [(v, L) for v in range(0, L, 3)])
               for L in (8, 14, 29)]
    cases = cut_by_long = isolated_far = 0
    for g in graphs:
        for _ in range(10):
            st = ReductionState(g)
            if rng.random() < 0.6:
                for v in range(g.n):
                    if rng.random() < 0.15:
                        delete_node(st, v)
                for u, v in list(g.edges()):
                    if st.alive[u] and st.alive[v] and rng.random() < 0.05:
                        st.cut_within({u, v})
            alive = [v for v in range(g.n) if st.alive[v]]
            for v in alive:
                if rng.random() < 0.2:
                    st.covered[v] = 1
            if not alive:
                continue
            picks = [
                rng.sample(alive, min(len(alive), rng.randint(1, 4))),
                sorted({r for _u, r in suitable_set(st)}),
            ]
            for refs in picks:
                for variant in (Variant.LINEAR, Variant.PLUS, Variant.EXTRA):
                    got = copy_state(st)
                    want = copy_state(st)
                    rep = apply_reduction(got, refs, variant)
                    ref = apply_reference(want, refs, variant)
                    assert apply_outcome(got, rep) == apply_outcome(want, ref), (g.n, refs, variant)
                    assert state_consistent(got) and state_consistent(want)
                    cases += 1
                    # Extra's cut set: the marked neighbors that survived
                    marked = {w for r in refs for w in live_neighbors(st, r)}
                    inner = {w for w in marked if got.alive[w]}.difference(refs)
                    isolated_far += not marked.issuperset(rep.removed_nodes)
                    ends = Counter(v for e in rep.extra_edges for v in e)
                    cut_by_long += any(
                        got.deg[v] + k > len(inner) for v, k in ends.items()
                    )
    assert cases > 2500 and cut_by_long > 100 and isolated_far > 100, (
        cases, cut_by_long, isolated_far)


def test_apply_reference_is_independent_of_the_production_apply():
    names = apply_reference.__code__.co_names
    assert "apply_reduction" not in names and "cut_within" not in names


def test_cut_within_probes_long_lists():
    # A member whose degree exceeds the set's size is probed by bisection
    # and keeps its very list when nothing is cut; the cuts and the lists
    # after them are those of the definition.
    rng = random.Random(9800)
    probed_and_kept = 0
    for g in random_graphs(60, (4, 40), [0.1, 0.3, 0.6], seed_base=9800):
        for _ in range(10):
            st = ReductionState(g)
            verts = set(rng.sample(range(g.n), rng.randint(1, min(g.n, 6))))
            before = {u: st.adj[u] for u in verts}
            want = sorted((u, w) for u in verts for w in g.adj[u] if w in verts and u < w)
            got = st.cut_within(verts)
            assert sorted(got) == want
            for u in verts:
                assert st.adj[u] == [w for w in g.adj[u] if w not in verts]
                if g.deg[u] > len(verts) and not any(u in e for e in want):
                    assert st.adj[u] is before[u]
                    probed_and_kept += 1
            assert state_consistent(st)
    assert probed_and_kept > 100, probed_and_kept


def covered_isolated(st):
    """The alive covered vertices with no live neighbor."""
    return {v for v in range(st.n) if st.alive[v] and st.covered[v] and not st.deg[v]}


def test_every_mutator_leaves_each_alive_list_exact():
    # After every public call that changes a state, each alive vertex's
    # list is exactly its live neighbors (``state_consistent``);
    # ``reduce_iterate`` leaves no covered vertex isolated, and apply none
    # that was not handed in so.
    # The states are annotated G(n, p) graphs, fresh or partly reduced by
    # earlier calls; apply takes pipeline references and random ones.
    rng = random.Random(9900)
    far = 0  # apply calls that dropped a covered vertex next to no reference
    for g in random_graphs(80, (2, 40), [0.05, 0.1, 0.2, 0.4], seed_base=9900):
        for p_cov in (0.0, 0.3):
            given = ReductionState(g)
            given.covered[:] = bytearray(rng.random() < p_cov for _ in range(g.n))
            for cap in (None, 1, 2):
                for variant in Variant:
                    st = copy_state(given)
                    reduce_iterate(st, variant, cap)
                    assert state_consistent(st)
                    assert not covered_isolated(st)
            st = copy_state(given)
            for step in range(4):
                alive = [v for v in range(g.n) if st.alive[v]]
                if not alive:
                    break
                if step == 2:
                    st.cut_within(set(rng.sample(alive, min(len(alive), 4))))
                    assert state_consistent(st)
                    continue
                if step == 1:
                    refs = rng.sample(alive, min(len(alive), rng.randint(1, 3)))
                else:
                    refs = sorted({r for _u, r in suitable_set(st)})
                before = covered_isolated(st)
                marked = {w for r in refs for w in live_neighbors(st, r)}
                rep = apply_reduction(st, refs, rng.choice(list(Variant)))
                assert state_consistent(st)
                assert covered_isolated(st) <= before
                far += not marked.issuperset(rep.removed_nodes)
            fix_isolated_uncovered(st)
            assert state_consistent(st)
            export_residual(st)
            assert state_consistent(st) and not covered_isolated(st)
    assert far > 20, far


def test_apply_reduction_accepts_subset_of_refs():
    g = gadget_path("fig5", 1)
    st = ReductionState(g)
    rep = apply_reduction(st, [1], Variant.LINEAR)
    assert sorted(st.fixed) == [1]
    # 2 keeps its unmarked neighbor 3, only the pendant 0 goes; 0-1 and
    # 1-2 go with the commit of 1
    assert dead(g, st) == [0]
    assert rep.removed_edges == 2


# ------------------------------------------------------------ accounting


def test_report_identities_on_corpus():
    for g in random_graphs(80, (2, 14), [0.2, 0.5, 0.8], seed_base=9100):
        for variant, iterate in (
            (Variant.LINEAR, False),
            (Variant.PLUS, True),
            (Variant.EXTRA, True),
        ):
            st, rep = run(g, variant, iterate=iterate)
            assert state_consistent(st)
            nfixed = len(st.fixed)
            assert set(rep.fixed).isdisjoint(rep.removed_nodes)
            dropped = export_residual(st)
            comp = compact(st)
            assert g.n == comp.graph.n + len(rep.removed_nodes) + len(dropped) + nfixed
            assert g.m == comp.graph.m + rep.removed_edges
            assert check_graph(comp.graph) is None


def test_round_cap_keeps_accounting_and_gamma():
    # every cap k up to the uncapped round count R stops after k rounds
    # and leaves nothing for the export to drop, so the report alone
    # accounts for n and m and the committed set still extends to an optimum
    graphs = [gadget_path(fig, c) for fig in ("fig5", "fig6") for c in (1, 2, 3)]
    graphs += random_graphs(24, (4, 14), [0.15, 0.3, 0.5], seed_base=9300)
    for g in graphs:
        want, _ = exact_annotated_gamma(g, bytearray(g.n))
        for variant in (Variant.LINEAR, Variant.PLUS, Variant.EXTRA):
            full = run(g, variant, iterate=True)[1].rounds
            for k in range(1, full + 1):
                st, rep = run(g, variant, iterate=True, max_rounds=k)
                assert rep.rounds == k
                nfixed = len(st.fixed)
                dropped = export_residual(st)
                comp = compact(st)
                assert dropped == []
                assert g.n == comp.graph.n + len(rep.removed_nodes) + nfixed
                assert g.m == comp.graph.m + rep.removed_edges
                got, _ = exact_annotated_gamma(comp.graph, comp.covered)
                assert want == nfixed + got


def test_isolated_uncovered_needs_opt_in():
    g = build(4, [(1, 2), (2, 3)])
    st, rep = run(g, Variant.LINEAR)
    assert 0 not in st.fixed
    assert st.alive[0]
    added = fix_isolated_uncovered(st)
    assert added == [0]
    # committed and stripped at once: it has no edges
    assert 0 in st.fixed and not st.alive[0]


def test_isolated_helper_skips_covered():
    g = build(2, [])
    st = ReductionState(g)
    st.covered[1] = 1
    assert fix_isolated_uncovered(st) == [0]


# ---------------------------------------------------------------- errors


def test_apply_reduction_rejects_dead_reference():
    g = path(4)
    st = ReductionState(g)
    delete_node(st, 1)
    with pytest.raises(ValueError):
        apply_reduction(st, [1], Variant.LINEAR)


def test_iterate_rejects_bad_round_cap():
    g = path(6)
    with pytest.raises(ValueError):
        reduce_iterate(ReductionState(g), Variant.PLUS, max_rounds=0)


def test_reducers_require_compact_state():
    g = path(6)
    with_dead_vertex = ReductionState(g)
    delete_node(with_dead_vertex, 0)
    with_cut_edge = ReductionState(g)
    with_cut_edge.cut_within({2, 3})
    for st in (with_dead_vertex, with_cut_edge):
        with pytest.raises(ValueError):
            reduce_iterate(st, Variant.LINEAR, max_rounds=1)
        with pytest.raises(ValueError):
            naive_reduce(st)
        with pytest.raises(ValueError):
            reduce_iterate(st, Variant.EXTRA)


def test_drivers_refuse_a_fixed_vertex():
    # No alive vertex is fixed: every driver starts from an empty fixed
    # set and removes what it commits, so a fresh state that holds a fixed
    # vertex is refused, and left as it was.
    g = path(6)
    st = ReductionState(g)
    st.fixed.add(2)
    drivers = (
        lambda s: reduce_iterate(s, Variant.LINEAR, max_rounds=1),
        lambda s: reduce_iterate(s, Variant.EXTRA),
        lambda s: reduce_iterate_reference(s, Variant.PLUS),
        naive_reduce,
    )
    for driver in drivers:
        cp = copy_state(st)
        with pytest.raises(ValueError, match=r"^state must be fresh \(no vertex fixed\)$"):
            driver(cp)
        assert cp.fixed == {2} and all(cp.alive) and not any(cp.covered)


def test_input_graph_and_state_copies_are_never_mutated():
    # A state replaces lists rather than editing them, so neither the
    # input graph nor the state a copy was taken from ever changes.
    rng = random.Random(9600)

    def lists(x):
        return [list(a) for a in x.adj], list(x.deg)

    for g in random_graphs(40, (4, 40), [0.08, 0.15, 0.3], seed_base=9600):
        snapshot = lists(g)
        base = ReductionState(g)
        for v in range(g.n):
            if rng.random() < 0.2:
                base.covered[v] = 1
        before = lists(base), bytes(base.alive), bytes(base.covered)
        reduce_iterate(copy_state(base), Variant.EXTRA, max_rounds=1)
        st = copy_state(base)
        reduce_iterate(st, Variant.EXTRA)
        mid = copy_state(st)
        export_residual(st)
        cut = copy_state(base)
        for u, v in list(g.edges())[::3]:
            assert cut.cut_within({u, v}) == [(u, v)]
        export_residual(cut)
        assert lists(g) == snapshot
        assert (lists(base), bytes(base.alive), bytes(base.covered)) == before
        assert state_consistent(mid)
