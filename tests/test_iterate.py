"""The incremental iterated driver against the compact-every-round one.

``reducer.reduce_iterate`` runs every round on the caller's state and
rescans only near the previous round's changes;
``oracle.reduce_iterate_reference`` reruns the full pipeline on a freshly
compacted graph each round.  Their reports, the caller's state afterwards
and the exported residual must agree, and one capped round must leave
what ``oracle.one_round`` and the export leave.  The superset map the driver
carries across rounds must match a fresh pass in every round, and two
count gates bound the driver's work.
"""

import io
import random
import sys
from collections import Counter
from functools import partial
from itertools import compress

from conftest import build, committed, prepared, random_graphs
from dsreduce import pipeline, reducer
from dsreduce.generators import fig4_family, gadget_path, gnp, path
from dsreduce.graphio import write_gr
from dsreduce.oracle import (
    delete_node,
    live_neighbors,
    one_round,
    reduce_iterate_reference,
    state_consistent,
)
from dsreduce.pipeline import WorkCounter, ball
from dsreduce.reducer import (
    Variant,
    _pairs_by_ball,
    _pairs_by_witness,
    export_residual,
    reduce_iterate,
)
from dsreduce.state import ReductionState, compact

VARIANTS = (Variant.LINEAR, Variant.PLUS, Variant.EXTRA)
# Linear keeps a marked vertex next to an unmarked one, so a path stops
# after one acting round under it; the long-run work gates run these.
SHEDDING = (Variant.PLUS, Variant.EXTRA)


def report_fields(rep):
    # every field but ``converged``, which check_same tests on its own
    return (
        rep.fixed,
        rep.removed_nodes,
        rep.removed_edges,
        rep.rounds,
        rep.extra_edges,
    )


def state_and_residual(g, st):
    fields = (
        bytes(st.alive),
        bytes(st.covered),
        sorted(st.fixed),
        [live_neighbors(st, v) for v in range(g.n) if st.alive[v]],
        list(st.deg),
    )
    dropped = export_residual(st)
    comp = compact(st)
    residual = (
        comp.graph.adj,
        comp.new_to_old,
        bytes(comp.covered),
        dropped,
    )
    return fields, residual


def reference_converged(g, variant, max_rounds, covered):
    """Whether the reference would stop by itself within ``max_rounds``.

    A capped run and one that converged exactly at the cap report the same
    round count, so look one round further.
    """
    st = prepared(g, covered)
    rep = reduce_iterate_reference(st, variant, max_rounds + 1)
    return rep.rounds <= max_rounds


def check_same(g, variant, max_rounds=None, covered=(), fixed=()):
    # Neither driver takes a fixed vertex: given fixed vertices F are
    # committed first, and both run on G - F with N(F) covered.
    if fixed:
        inst = committed(g, covered, fixed)
        g, covered = inst.g, list(compress(range(inst.n), inst.covered))
    st = prepared(g, covered)
    ref_st = prepared(g, covered)
    rep = reduce_iterate(st, variant, max_rounds)
    ref = reduce_iterate_reference(ref_st, variant, max_rounds)
    where = f"n={g.n} m={g.m} {variant.value} cap={max_rounds}"
    assert report_fields(rep) == report_fields(ref), where
    # the termination bound proved in reduce_iterate's docstring
    assert rep.rounds <= g.n + 1, where
    assert rep.converged == (
        max_rounds is None
        or ref.rounds < max_rounds
        or reference_converged(g, variant, max_rounds, covered)
    ), where
    assert state_consistent(st) and state_consistent(ref_st), where
    assert state_and_residual(g, st) == state_and_residual(g, ref_st), where



def random_tree_plus(rng, n, extra):
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(extra)]
    return build(n, edges)


def random_subset(rng, n, p):
    return [v for v in range(n) if rng.random() < p]


def gnm(rng, n, m):
    """G(n, m): ``m`` distinct edges drawn uniformly, no loops."""
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build(n, sorted(edges))


# A G(12, 15) graph without flags whose round 2 has a witness 2 edges from
# the re-evaluated set: testing only 1 edge around it never commits 11.
WITNESS_TWO_EDGES_OUT = build(12, [
    (0, 5), (0, 8), (0, 11), (1, 8), (1, 11), (2, 6), (2, 7), (2, 11),
    (3, 6), (3, 11), (4, 7), (4, 8), (5, 11), (7, 8), (7, 10),
])


def test_matches_reference_on_random_graphs():
    graphs = random_graphs(200, (1, 80), [0.02, 0.04, 0.07, 0.12, 0.25], 31000)
    graphs.append(WITNESS_TWO_EDGES_OUT)
    for g in graphs:
        for variant in VARIANTS:
            check_same(g, variant)


def test_one_capped_round_matches_one_plain_round():
    # A plain rule runs as round 1 of reduce_iterate, which first drops
    # the covered vertices isolated on entry, as the export of one round
    # does.
    # After the export both must agree on the totals, the flags,
    # the visits, the live degrees (reduce prints their sum) and the
    # written residual.
    rng = random.Random(35000)
    for i in range(200):
        n = rng.randint(8, 60)
        g = gnp(n, rng.choice((0.03, 0.06, 0.1, 0.2)), seed=35000 + i)
        covered = random_subset(rng, n, 0.2)
        for cov in ((), covered):
            for variant in VARIANTS:
                outs = []
                for driver in (partial(reduce_iterate, max_rounds=1), one_round):
                    st = prepared(g, cov)
                    work = WorkCounter()
                    rep = driver(st, variant, work=work)
                    assert state_consistent(st)
                    dropped = export_residual(st)
                    buf = io.StringIO()
                    write_gr(st, buf, alive=st.alive)
                    outs.append((
                        rep.fixed,
                        sorted(rep.removed_nodes + dropped),
                        rep.removed_edges,
                        rep.rounds,
                        rep.extra_edges,
                        work.visits,
                        bytes(st.alive),
                        bytes(st.covered),
                        sorted(st.fixed),
                        list(compress(st.deg, st.alive)),
                        buf.getvalue(),
                    ))
                assert outs[0] == outs[1], (i, cov, variant)


def test_matches_reference_on_trees_with_extra_edges():
    rng = random.Random(32000)
    for _ in range(100):
        g = random_tree_plus(rng, rng.randint(2, 80), rng.randint(0, 6))
        for variant in VARIANTS:
            check_same(g, variant)


def test_matches_reference_with_given_covered_and_fixed():
    rng = random.Random(33000)
    graphs = random_graphs(60, (2, 60), [0.04, 0.08, 0.15, 0.3], 33000)
    graphs += [random_tree_plus(rng, rng.randint(2, 60), 3) for _ in range(40)]
    for g in graphs:
        covered = random_subset(rng, g.n, 0.2)
        fixed = random_subset(rng, g.n, 0.1)
        for variant in VARIANTS:
            check_same(g, variant, covered=covered)
            check_same(g, variant, fixed=fixed)
            check_same(g, variant, covered=covered, fixed=fixed)


def test_given_covered_vertices_seed_round_two():
    # Every round reads the given covered flags, round 1 included.  Round 2
    # tests only the witnesses near round 1's changes, so the reference,
    # which retests every pair, must find nothing more in a part that
    # round 1 left alone.  A 6-path makes round 1 act; each random part
    # carries given covered vertices.
    rng = random.Random(36000)
    for part in random_graphs(400, (3, 14), [0.15, 0.3, 0.5], 36000):
        k = part.n
        g = build(k + 6, list(part.edges()) + [(k + i, k + i + 1) for i in range(5)])
        covered = random_subset(rng, k, 0.3)
        for variant in VARIANTS:
            check_same(g, variant, covered=covered)


def test_covered_vertices_isolated_on_entry_go_before_round_one():
    # The 4-cycle reduces under no rule: each vertex's canonical reference
    # misses its other neighbor.  So no round acts, and the covered vertex
    # 4, next to nothing, must go all the same, as it does when a round
    # acts (the path 5-6-7), under every cap and in both drivers.
    cycle = [(0, 1), (1, 2), (2, 3), (0, 3)]
    cases = (
        (5, cycle, ([], [4], 1)),
        (8, cycle + [(5, 6), (6, 7)], ([6], [4, 5, 7], 2)),
    )
    for n, edges, want in cases:
        g = build(n, edges)
        for variant in VARIANTS:
            for driver in (reduce_iterate, reduce_iterate_reference):
                for cap in (None, 1):
                    st = ReductionState(g)
                    st.covered[4] = 1
                    rep = driver(st, variant, cap)
                    assert (rep.fixed, rep.removed_nodes, rep.rounds) == (
                        want[0], want[1], min(want[2], cap or want[2]),
                    ), (edges, variant, driver, cap)
                    assert not st.alive[4] and all(st.alive[:4])
                    assert state_consistent(st)


def test_matches_reference_under_round_caps():
    rng = random.Random(34000)
    graphs = random_graphs(40, (5, 60), [0.04, 0.08], 34000)
    graphs += [gadget_path("fig6", 4), gadget_path("fig5", 4), path(40)]
    for g in graphs:
        covered = random_subset(rng, g.n, 0.1)
        for cap in (1, 2, 3):
            for variant in VARIANTS:
                check_same(g, variant, max_rounds=cap)
                check_same(g, variant, max_rounds=cap, covered=covered)


def test_matches_reference_on_gadget_chains():
    for copies in range(1, 51):
        for fig in ("fig5", "fig6"):
            g = gadget_path(fig, copies)
            for variant in VARIANTS:
                check_same(g, variant)


def with_fig4_component(g, k):
    """``g`` with a disjoint ``fig4_family(k)`` appended after its ids."""
    h = fig4_family(k)
    return build(g.n + h.n, list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()])


def partly_reduced(rng, n):
    """A G(n, m) state with random vertices deleted and covered, as in a
    round after the first."""
    g = gnm(rng, n, min(n * rng.randint(1, 4) // 2, n * (n - 1) // 2))
    st = ReductionState(g)
    for v in random_subset(rng, n, 0.3):
        delete_node(st, v)
    for v in random_subset(rng, n, 0.2):
        st.covered[v] = 1
    return st


def test_pair_search_sides_agree():
    # A later round finds the carried witnesses within 2 edges of its
    # seeds by a search from the seeds or by testing each witness,
    # whichever side is smaller.  Both must give the same pairs, also
    # where a witness is exactly 2 edges out.
    rng = random.Random(39000)
    two_out = 0
    for _ in range(300):
        n = rng.randint(2, 120)
        st = partly_reduced(rng, n)
        ref_of = pipeline.compute_superset(st)
        p = rng.choice((0.02, 0.1, 0.3))
        seeds = dict.fromkeys(v for v in random_subset(rng, n, p) if st.alive[v])
        got = _pairs_by_witness(st, ref_of, seeds, None)
        want = _pairs_by_ball(st, ref_of, seeds, None)
        assert sorted(got) == sorted(want), n
        one_out = ball(st, seeds, 1)
        two_out += any(u not in one_out for u, _ in want)
    assert two_out > 30, two_out


def test_work_grows_linearly_on_paths():
    # A path loses a few vertices at each end per round, so it takes about
    # n/6 rounds; rescanning the whole graph each round would make the
    # visits per (n + m) grow linearly in n.  The fig4_family(40) component
    # holds superset pairs that never pass the filter: 7.9 visits per
    # (n + m) at n = 3000 (9.7 when leaf witnesses went through the
    # partition pass), while testing every carried pair each round cost
    # 1554.  Counts are exact, not timed.
    per_nm = {}
    for n in (3000, 6000, 12000):
        for idle in (0, 40):
            g = with_fig4_component(path(n), idle) if idle else path(n)
            for variant in SHEDDING:
                work = WorkCounter()
                rep = reduce_iterate(ReductionState(g), variant, 10**6, work=work)
                assert rep.converged and rep.rounds > n // 8
                per_nm[n, idle, variant] = work.visits / (g.n + g.m)
    assert max(per_nm.values()) < 13, per_nm
    for idle in (0, 40):
        for variant in SHEDDING:
            assert per_nm[12000, idle, variant] < 1.25 * per_nm[3000, idle, variant], per_nm


def test_work_scales_linearly_on_chains():
    # Paths and fig5 / fig6 gadget chains shed a few vertices at each end
    # per round, so they run about n / 6 rounds.  At two sizes 4x apart
    # the visits per (n + m) may grow at most 1.5x, and stay under 5.5:
    # every tested pair has a leaf witness, which skips the partition
    # pass, so they read 4.58 (7.42 when leaf witnesses went through it).
    # The smaller size must match the compact-every-round reference.
    # Counts are exact, not timed.
    families = {
        "path": (path(1000), path(4000)),
        "fig5": (gadget_path("fig5", 200), gadget_path("fig5", 800)),
        "fig6": (gadget_path("fig6", 150), gadget_path("fig6", 600)),
    }
    for name, (small, large) in families.items():
        for variant in SHEDDING:
            per_nm = []
            for g in (small, large):
                work = WorkCounter()
                rep = reduce_iterate(ReductionState(g), variant, work=work)
                assert rep.converged and rep.rounds > g.n // 8, (name, g.n)
                per_nm.append(work.visits / (g.n + g.m))
            assert per_nm[1] <= 1.5 * per_nm[0], (name, variant, per_nm)
            assert max(per_nm) < 5.5, (name, variant, per_nm)
            check_same(small, variant)


def test_each_pass_runs_once_per_round(monkeypatch):
    # A round calls each pipeline pass and apply_reduction once, through
    # the module attributes that a tracer such as perfbench/spans.py
    # wraps, and the superset pass is scoped (``canonical=``) in every
    # round after the first.  The wrappers read what the tracer reads:
    # len() of the pass results and the report's fixed and removed nodes.
    calls = Counter()

    def count(owner, name, read):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            out = real(*args, **kwargs)
            scoped = kwargs.get("canonical") is not None
            calls[name + (" scoped" if scoped else "")] += 1
            read(out)
            return out

        monkeypatch.setattr(owner, name, counted)

    count(pipeline, "compute_superset", len)
    count(pipeline, "compute_proper_partition", len)
    count(pipeline, "filter_suitable", len)
    count(reducer, "apply_reduction", lambda rep: (rep.fixed, rep.removed_nodes))
    g = gadget_path("fig6", 40)
    rep = reduce_iterate(ReductionState(g), Variant.EXTRA)
    assert rep.rounds > 30
    assert calls == {
        "compute_superset": 1,
        "compute_superset scoped": rep.rounds - 1,
        "compute_proper_partition": rep.rounds,
        "filter_suitable": rep.rounds,
        "apply_reduction": rep.rounds,
    }
    # perfbench/spans.py also wraps reducer.compact, which no command calls
    assert reducer.compact is compact


def test_a_round_makes_eight_python_calls():
    # A round's fixed cost, counted without a clock: the Python-level calls
    # (``call`` events of ``sys.setprofile``; calls into C are not
    # counted) of a whole run.  A round after the first makes eight:
    # _reevaluate_superset, the scoped superset pass, the pair search, the
    # find step, its partition and filter passes, apply and apply's
    # report.  With round 1's ten and the run's own call, this chain of
    # 41 rounds makes 8.05 per round on Python 3.10 to 3.13.  A helper
    # called per re-evaluated vertex (about three per round here) breaks
    # the bound, and so does a comprehension in the round's path on
    # Python 3.10 and 3.11, which run each as a call of its own (PEP 709
    # inlines them from 3.12 on).
    g = gadget_path("fig6", 40)
    calls = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    st = ReductionState(g)
    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        rep = reduce_iterate(st, Variant.EXTRA)
    finally:
        sys.setprofile(old)
    assert rep.rounds == 41
    per_round = sum(calls.values()) / rep.rounds
    assert per_round < 9, (per_round, calls)


def test_work_per_edge_on_a_sparse_random_graph():
    # Later rounds re-evaluate the superset pass only where a verdict can
    # change, test the carried witnesses from the smaller side, and hand
    # the partition pass no leaf witness: 4.41 visits per (n + m) on this
    # graph, bounded with 22% headroom; 5.02 when leaf witnesses went
    # through the partition pass.  Before that, re-evaluating every dirty
    # vertex and every neighbor with a dirty reference, then searching a
    # radius-2 ball around them, cost 7.74; rerunning the pass on the
    # whole radius-5 reach of the changes cost 16.1.  Counts are exact,
    # not timed.
    g = gnm(random.Random(38001), 6000, 12000)
    work = WorkCounter()
    rep = reduce_iterate(ReductionState(g), Variant.EXTRA, work=work)
    assert rep.rounds == 4
    assert work.visits / (g.n + g.m) < 5.4, work.visits / (g.n + g.m)


def with_hub(g, step, start=0):
    """``g`` plus a hub, the new last vertex, joined to every ``step``-th
    vertex from ``start`` on."""
    hub = g.n
    spokes = [(v, hub) for v in range(start, g.n, step)]
    return build(g.n + 1, list(g.edges()) + spokes)


def test_work_on_the_hub_path():
    # A path of L = 2000 vertices with a hub joined to every third one
    # sheds one reference per round.  The hub loses a neighbor every
    # round, so it is dirty every round and its list is scanned each
    # time: the total work is still quadratic in L (123, 242 and 480
    # visits per (n + m) at L = 1001, 2000 and 4001).  Only the
    # neighbors whose verdict can change are re-evaluated, and the
    # carried witnesses are found from the smaller side; without that
    # it cost 912 here (measured before the superset pass probed).
    # Counts are exact, not timed.
    g = with_hub(path(2000), 3)
    work = WorkCounter()
    rep = reduce_iterate(ReductionState(g), Variant.EXTRA, work=work)
    assert rep.converged and rep.rounds == 668
    assert work.visits / (g.n + g.m) < 360, work.visits / (g.n + g.m)


def test_apply_work_on_the_hub_path(monkeypatch):
    # Extra cuts the edges among the marked survivors next to each round's
    # reference, and the hub is one of them in every round.  The hub's
    # list is longer than that set, so ``cut_within`` probes it once per
    # other member instead of scanning it: apply's visits per (n + m) read
    # 1.28 here, against 49.0 when every list was scanned.  Counts are
    # exact, not timed.
    g = with_hub(path(2000), 3)
    applied = WorkCounter()
    real = reducer.apply_reduction

    def counted(st, refs, variant, *, work):
        own = WorkCounter()
        out = real(st, refs, variant, work=own)
        applied.add(own.visits)
        work.add(own.visits)
        return out

    monkeypatch.setattr(reducer, "apply_reduction", counted)
    rep = reduce_iterate(ReductionState(g), Variant.EXTRA, work=WorkCounter())
    assert rep.converged and rep.rounds == 668
    assert applied.visits / (g.n + g.m) < 5, applied.visits / (g.n + g.m)


def test_every_round_leaves_a_consistent_state(monkeypatch):
    # ``cut_within`` bisects lists, so every alive list must stay sorted;
    # each round's find starts from a consistent state, and so does each
    # round's apply.  Apply leaves one too: the references it commits are
    # gone when it returns.
    checked = []

    def consistent_around(owner, name):
        real = getattr(owner, name)

        def checking(st, *args, **kwargs):
            assert state_consistent(st), name
            checked.append(name)
            out = real(st, *args, **kwargs)
            assert state_consistent(st), name
            return out

        monkeypatch.setattr(owner, name, checking)

    consistent_around(pipeline, "compute_proper_partition")
    consistent_around(reducer, "apply_reduction")
    rng = random.Random(39500)
    graphs = [with_hub(path(L), 3) for L in (29, 62, 200)]
    graphs += [gadget_path("fig5", 12), gadget_path("fig6", 12)]
    graphs += [gnm(rng, n, n * rng.randint(2, 5) // 2) for n in range(20, 80, 4)]
    for g in graphs:
        covered = random_subset(rng, g.n, rng.choice((0.0, 0.2)))
        fixed = random_subset(rng, g.n, rng.choice((0.0, 0.05)))
        for variant in VARIANTS:
            st = committed(g, covered, fixed)
            reduce_iterate(st, variant)
            assert state_consistent(st)
    assert len(checked) > 600, len(checked)


def test_leaf_witnesses_skip_the_partition_pass(monkeypatch):
    # A pair whose witness has one live neighbor is suitable by
    # definition (the lemma in ``pipeline.filter_suitable``), so no round
    # hands one to the partition pass; the filter still tests every pair.
    real_partition = pipeline.compute_proper_partition
    real_filter = pipeline.filter_suitable
    seen = Counter()

    def partition(st, sprime, *, pairs, **kwargs):
        pairs = list(pairs)
        for u, rho in pairs:
            assert st.deg[u] != 1, (u, rho)
        seen["partitioned"] += len(pairs)
        return real_partition(st, sprime, pairs=pairs, **kwargs)

    def filtered(st, pairs, f, **kwargs):
        pairs = list(pairs)
        seen["leaf"] += sum(st.deg[u] == 1 for u, _rho in pairs)
        return real_filter(st, pairs, f, **kwargs)

    monkeypatch.setattr(pipeline, "compute_proper_partition", partition)
    monkeypatch.setattr(pipeline, "filter_suitable", filtered)
    rng = random.Random(39700)
    graphs = [path(60), with_hub(path(62), 3)]
    graphs += [gadget_path(fig, 8) for fig in ("fig5", "fig6")]
    graphs += [gnm(rng, n, n * rng.randint(2, 5) // 2) for n in range(20, 100, 8)]
    graphs += random_graphs(30, (5, 20), [0.3, 0.5], 39700)
    for g in graphs:
        covered = random_subset(rng, g.n, rng.choice((0.0, 0.2)))
        for variant in VARIANTS:
            reduce_iterate(prepared(g, covered), variant)
    assert seen["leaf"] > 200 and seen["partitioned"] > 100, seen


def check_carried_maps(monkeypatch):
    """Make each round check the superset map it hands to the partition
    pass against an unscoped superset pass on the live state: the same
    witness verdict at every alive vertex, the same canonical reference
    at every alive uncovered one, and no dead witness.  A covered vertex
    is never a witness again, so its canonical reference is not kept.

    Returns a list to which each round appends whether it is a round 1;
    append None before each ``reduce_iterate`` call.
    """
    real = pipeline.compute_proper_partition
    rounds = []

    def checked(st, sprime, **kwargs):
        first = rounds[-1] is None
        assert all(st.alive[u] for u in sprime), len(rounds)
        fresh = pipeline.compute_superset(st)
        for v in range(st.n):
            if st.alive[v]:
                got = sprime.get(v)
                assert got == fresh.get(v), (v, len(rounds))
                if not st.covered[v]:
                    got = sprime.canonical[v]
                    assert got == fresh.canonical[v], (v, len(rounds))
        rounds.append(first)
        return real(st, sprime, **kwargs)

    monkeypatch.setattr(pipeline, "compute_proper_partition", checked)
    return rounds


def test_carried_superset_map_matches_a_fresh_pass(monkeypatch):
    rounds = check_carried_maps(monkeypatch)
    rng = random.Random(37000)
    for _ in range(60):
        n = rng.randint(20, 300)
        g = gnm(rng, n, n * rng.randint(2, 6) // 2)
        covered = random_subset(rng, n, rng.choice((0.0, 0.1, 0.3)))
        fixed = random_subset(rng, n, rng.choice((0.0, 0.05)))
        for variant in VARIANTS:
            rounds.append(None)
            reduce_iterate(committed(g, covered, fixed), variant)
    assert rounds.count(False) > rounds.count(True), "later rounds rarely ran"


# A G(21, 29) graph on which Extra cuts an edge between the canonical
# reference of the carried witness 12 and a neighbor of 12, while 12
# itself stays untouched: its witness entry must be re-evaluated.
EXTRA_CUT_BREAKS_A_WITNESS = build(21, [
    (0, 1), (0, 8), (1, 8), (1, 9), (2, 4), (2, 18), (3, 7), (3, 12),
    (3, 15), (3, 20), (4, 9), (4, 13), (4, 14), (4, 15), (4, 20), (5, 11),
    (7, 17), (8, 15), (8, 18), (8, 19), (9, 16), (9, 19), (9, 20), (10, 18),
    (12, 20), (13, 14), (13, 15), (14, 19), (14, 20),
])


def test_extra_cut_next_to_a_carried_witness(monkeypatch):
    rounds = check_carried_maps(monkeypatch)
    rounds.append(None)
    reduce_iterate(ReductionState(EXTRA_CUT_BREAKS_A_WITNESS), Variant.EXTRA)
    assert rounds.count(False) >= 2, rounds
