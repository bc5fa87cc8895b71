"""The incremental iterated driver against the compact-every-round one.

``reducer.reduce_iterate`` runs every round on the caller's state and
rescans only near the previous round's changes;
``oracle.reduce_iterate_reference`` reruns the full pipeline on a freshly
compacted graph each round.  Their reports, the caller's state afterwards
and the exported residual must agree.  The superset map the driver
carries across rounds must match a fresh pass in every round, and two
count gates bound the driver's work.
"""

import random

from conftest import build, prepared, random_graphs
from dsreduce import pipeline
from dsreduce.generators import fig4_family, gadget_path, path
from dsreduce.oracle import reduce_iterate_reference
from dsreduce.pipeline import WorkCounter
from dsreduce.reducer import Variant, export_residual, reduce_iterate, reduce_once
from dsreduce.state import ReductionState

VARIANTS = (Variant.PLUS, Variant.EXTRA)


def report_fields(rep):
    # everything but the wall times and the visit count, which differ by design
    return (
        rep.variant,
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
        list(st.fixed),
        [list(st.live_neighbors(v)) for v in range(g.n) if st.alive[v]],
        list(st.deg),
    )
    comp, strips, dropped = export_residual(st)
    residual = (
        comp.graph.adj,
        comp.new_to_old,
        bytes(comp.covered),
        comp.fixed,
        strips,
        dropped,
    )
    return fields, residual


def reference_converged(g, variant, max_rounds, covered, fixed):
    """Whether the reference would stop by itself within ``max_rounds``.

    A capped run and one that converged exactly at the cap report the same
    round count, so look one round further.
    """
    st = prepared(g, covered, fixed)
    rep = reduce_iterate_reference(st, variant, max_rounds + 1)
    return rep.rounds <= max_rounds


def check_same(g, variant, max_rounds=1024, covered=(), fixed=()):
    st = prepared(g, covered, fixed)
    ref_st = prepared(g, covered, fixed)
    rep = reduce_iterate(st, variant, max_rounds)
    ref = reduce_iterate_reference(ref_st, variant, max_rounds)
    where = f"n={g.n} m={g.m} {variant.value} cap={max_rounds}"
    assert report_fields(rep) == report_fields(ref), where
    assert rep.converged == (
        ref.rounds < max_rounds
        or reference_converged(g, variant, max_rounds, covered, fixed)
    ), where

    # The reference copies only reported deletions into the caller's state,
    # so a given fixed vertex that its first round deletes stays alive
    # there.  Delete those before comparing; they are found by running that
    # first round on its own.
    if fixed:
        once = prepared(g, covered, fixed)
        reduce_once(once, variant)
        for v in fixed:
            if not once.alive[v]:
                ref_st.delete_node(v)
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


def test_work_grows_linearly_on_paths():
    # A path loses a few vertices at each end per round, so it takes about
    # n/6 rounds; rescanning the whole graph each round would make the
    # visits per (n + m) grow linearly in n.  The fig4_family(40) component
    # holds superset pairs that never pass the filter: 11.0 visits per
    # (n + m) at n = 3000, while testing every carried pair each round
    # costs 1554.  Counts are exact, not timed.
    per_nm = {}
    for n in (3000, 6000, 12000):
        for idle in (0, 40):
            g = with_fig4_component(path(n), idle) if idle else path(n)
            for variant in VARIANTS:
                rep = reduce_iterate(
                    ReductionState(g), variant, 10**6, work=WorkCounter()
                )
                assert rep.converged and rep.rounds > n // 8
                per_nm[n, idle, variant] = rep.work_visits / (g.n + g.m)
    assert max(per_nm.values()) < 13, per_nm
    for idle in (0, 40):
        for variant in VARIANTS:
            assert per_nm[12000, idle, variant] < 1.25 * per_nm[3000, idle, variant], per_nm


def test_work_per_edge_on_a_sparse_random_graph():
    # Later rounds re-evaluate the superset pass only where a degree or a
    # canonical reference changed: 7.74 visits per (n + m) on this graph,
    # bounded with 19% headroom.  Rerunning it on the whole radius-5 reach
    # of the changes costs 16.1.  Counts are exact, not timed.
    g = gnm(random.Random(38001), 6000, 12000)
    rep = reduce_iterate(ReductionState(g), Variant.EXTRA, work=WorkCounter())
    assert rep.rounds == 4
    assert rep.work_visits / (g.n + g.m) < 9.2, rep.work_visits / (g.n + g.m)


def test_carried_superset_map_matches_a_fresh_pass(monkeypatch):
    # Every round hands its superset map to the partition pass; at each
    # alive vertex it must equal an unscoped superset pass on the live state,
    # and it holds no dead witness.
    # Round 1 is the first partition call of each reduce_iterate call.
    real = pipeline.compute_proper_partition
    rounds = []

    def checked(st, sprime, **kwargs):
        first = rounds[-1] is None
        assert all(st.alive[u] for u in sprime.by_witness), len(rounds)
        fresh = pipeline.compute_superset(st)
        for v in range(st.n):
            if st.alive[v]:
                got = (sprime.canonical[v], sprime.by_witness[v])
                assert got == (fresh.canonical[v], fresh.by_witness[v]), (v, len(rounds))
        rounds.append(first)
        return real(st, sprime, **kwargs)

    monkeypatch.setattr(pipeline, "compute_proper_partition", checked)
    rng = random.Random(37000)
    for _ in range(60):
        n = rng.randint(20, 300)
        g = gnm(rng, n, n * rng.randint(2, 6) // 2)
        covered = random_subset(rng, n, rng.choice((0.0, 0.1, 0.3)))
        fixed = random_subset(rng, n, rng.choice((0.0, 0.05)))
        for variant in VARIANTS:
            rounds.append(None)
            reduce_iterate(prepared(g, covered, fixed), variant)
    assert rounds.count(False) > rounds.count(True), "later rounds rarely ran"
