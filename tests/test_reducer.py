import random

import pytest

from conftest import build, prepared, random_graphs
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
    AnnotatedInstance,
    exact_annotated_gamma,
    exhaustive_original_rule1,
)
from dsreduce.pipeline import suitable_set
from dsreduce.reducer import (
    Variant,
    apply_reduction,
    export_residual,
    fix_isolated_uncovered,
    naive_reduce,
    reduce_iterate,
    reduce_once,
)
from dsreduce.state import ReductionState, compact


def dead(g, st):
    return sorted(v for v in range(g.n) if not st.alive[v])


def run(g, variant, *, iterate=False, max_rounds=1024):
    st = ReductionState(g)
    if variant is None:
        rep = naive_reduce(st)
    elif iterate:
        rep = reduce_iterate(st, variant, max_rounds=max_rounds)
    else:
        rep = reduce_once(st, variant)
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
    assert rep.removed_edges == 2


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
    assert rep.removed_edges == 2
    # the 1-2 edge joins two committed vertices; it stays alive until
    # export, which strips it and reports the count
    comp, strips, dropped = export_residual(st)
    assert strips == 1
    assert comp.graph.n == 0


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
    assert not rep.changed
    assert len(st.fixed) == 0


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
        assert not repn.changed
        stl, repl = run(g, Variant.LINEAR)
        assert not repl.changed


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
    assert not st.edge_alive(2, 9)


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
        # committed vertices are isolated by round cleanup and leave the
        # residual without being counted as removals
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
    assert not rep.changed


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
    yield run(g, Variant.PLUS, iterate=True)
    yield run(g, Variant.EXTRA, iterate=True)


def committed_plus_residual_gamma(st):
    nfixed = len(st.fixed)
    comp, _strips, _dropped = export_residual(st)
    got, _ = exact_annotated_gamma(AnnotatedInstance(comp.graph, comp.covered))
    return nfixed + got


def test_gamma_identity_all_variants():
    # Each graph runs fresh, then with given covered vertices and given
    # fixed ones F, whose optimum is |F| + γ(G, covered ∪ N[F]).  The
    # naive sweep reads no covered flags, so it must refuse the latter.
    rng = random.Random(8800)
    for g in random_graphs(90, (2, 13), [0.15, 0.3, 0.5, 0.8], seed_base=8800):
        want, _ = exact_annotated_gamma(AnnotatedInstance.fresh(g))
        for st, rep in variants_all(g):
            assert want == committed_plus_residual_gamma(st)

        covered = [v for v in range(g.n) if rng.random() < 0.3]
        fixed = [v for v in range(g.n) if rng.random() < 0.08]
        dominated = prepared(g, covered, fixed).covered
        want = len(fixed) + exact_annotated_gamma(AnnotatedInstance(g, dominated))[0]
        runs = [(reduce_once, v) for v in (Variant.LINEAR, Variant.PLUS, Variant.EXTRA)]
        runs += [(reduce_iterate, v) for v in (Variant.PLUS, Variant.EXTRA)]
        for driver, variant in runs:
            st = prepared(g, covered, fixed)
            driver(st, variant)
            where = (g.n, list(g.edges()), covered, fixed, driver.__name__, variant)
            assert want == committed_plus_residual_gamma(st), where
        if any(dominated):
            with pytest.raises(ValueError):
                naive_reduce(prepared(g, covered, fixed))
            with pytest.raises(ValueError):
                reduce_once(prepared(g, covered, fixed), Variant.NAIVE)


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


def test_apply_reduction_accepts_subset_of_refs():
    g = gadget_path("fig5", 1)
    st = ReductionState(g)
    rep = apply_reduction(st, [1], Variant.LINEAR)
    assert sorted(st.fixed) == [1]
    # 2 keeps its unmarked neighbor 3, only the pendant 0 goes
    assert dead(g, st) == [0]
    assert rep.removed_edges == 1


# ------------------------------------------------------------ accounting


def test_report_identities_on_corpus():
    for g in random_graphs(80, (2, 14), [0.2, 0.5, 0.8], seed_base=9100):
        for variant, iterate in (
            (Variant.LINEAR, False),
            (Variant.PLUS, True),
            (Variant.EXTRA, True),
        ):
            st, rep = run(g, variant, iterate=iterate)
            assert st.is_consistent()
            nfixed = len(st.fixed)
            assert set(rep.fixed).isdisjoint(rep.removed_nodes)
            comp, strips, dropped = export_residual(st)
            assert g.n == comp.graph.n + len(rep.removed_nodes) + len(dropped) + nfixed
            assert g.m == comp.graph.m + rep.removed_edges + strips
            assert comp.graph.validate() is None


def test_round_cap_keeps_accounting_and_gamma():
    # every cap k up to the uncapped round count R stops after k rounds
    # and leaves the caller's state fully stripped, so the report alone
    # accounts for n and m and the committed set still extends to an optimum
    graphs = [gadget_path(fig, c) for fig in ("fig5", "fig6") for c in (1, 2, 3)]
    graphs += random_graphs(24, (4, 14), [0.15, 0.3, 0.5], seed_base=9300)
    for g in graphs:
        want, _ = exact_annotated_gamma(AnnotatedInstance.fresh(g))
        for variant in (Variant.PLUS, Variant.EXTRA):
            full = run(g, variant, iterate=True)[1].rounds
            for k in range(1, full + 1):
                st, rep = run(g, variant, iterate=True, max_rounds=k)
                assert rep.rounds == k
                nfixed = len(st.fixed)
                comp, strips, dropped = export_residual(st)
                assert strips == 0 and dropped == []
                assert g.n == comp.graph.n + len(rep.removed_nodes) + nfixed
                assert g.m == comp.graph.m + rep.removed_edges
                got, _ = exact_annotated_gamma(
                    AnnotatedInstance(comp.graph, comp.covered)
                )
                assert want == nfixed + got


def test_isolated_uncovered_needs_opt_in():
    g = build(4, [(1, 2), (2, 3)])
    st, rep = run(g, Variant.LINEAR)
    assert 0 not in st.fixed
    assert st.alive[0]
    added = fix_isolated_uncovered(st)
    assert added == [0]
    assert 0 in st.fixed


def test_isolated_helper_skips_covered():
    g = build(2, [])
    st = ReductionState(g)
    st.cover(1)
    assert fix_isolated_uncovered(st) == [0]


# ---------------------------------------------------------------- errors


def test_apply_reduction_rejects_naive_variant():
    g = path(4)
    with pytest.raises(ValueError):
        apply_reduction(ReductionState(g), [1], Variant.NAIVE)


def test_apply_reduction_rejects_dead_reference():
    g = path(4)
    st = ReductionState(g)
    st.delete_node(1)
    with pytest.raises(ValueError):
        apply_reduction(st, [1], Variant.LINEAR)


def test_iterate_rejects_single_round_variants():
    g = path(6)
    for v in (Variant.LINEAR, Variant.NAIVE):
        with pytest.raises(ValueError):
            reduce_iterate(ReductionState(g), v)


def test_iterate_rejects_bad_round_cap():
    g = path(6)
    with pytest.raises(ValueError):
        reduce_iterate(ReductionState(g), Variant.PLUS, max_rounds=0)


def test_reducers_require_compact_state():
    g = path(6)
    with_dead_vertex = ReductionState(g)
    with_dead_vertex.delete_node(0)
    with_cut_edge = ReductionState(g)
    with_cut_edge.delete_edge(2, 3)
    for st in (with_dead_vertex, with_cut_edge):
        with pytest.raises(ValueError):
            reduce_once(st, Variant.LINEAR)
        with pytest.raises(ValueError):
            naive_reduce(st)
        with pytest.raises(ValueError):
            reduce_iterate(st, Variant.EXTRA)


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
                base.cover(v)
        before = lists(base), bytes(base.alive), bytes(base.covered)
        reduce_once(base.copy(), Variant.EXTRA)
        st = base.copy()
        reduce_iterate(st, Variant.EXTRA)
        mid = st.copy()
        export_residual(st)
        cut = base.copy()
        for u, v in list(g.edges())[::3]:
            assert cut.delete_edge(u, v)
        export_residual(cut)
        assert lists(g) == snapshot
        assert (lists(base), bytes(base.alive), bytes(base.covered)) == before
        assert mid.is_consistent()
