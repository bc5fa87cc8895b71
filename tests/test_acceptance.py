"""Acceptance suite: ten numbered criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Two criteria contain a clause that is false of the algorithms themselves;
those clauses are split out as strict xfail tests that print the measured
counterexample instead of passing vacuously.  The acceptance paragraph
of README.md records both counterexamples.
"""

import contextlib
import gc
import io
import math
import random
import time

import pytest

from dsreduce.cli import main as cli_main
from dsreduce.generators import barbell_cycle, fig4_family, gadget_path, gnp
from dsreduce.graphio import write_gr, write_sidecar
from dsreduce.greedy import default_seed_list, greedy_best_of
from dsreduce.oracle import (
    AnnotatedInstance,
    exact_annotated_gamma,
    suitable_set_direct,
)
from dsreduce.pipeline import (
    WorkCounter,
    compute_proper_partition,
    compute_superset,
    filter_suitable,
    suitable_set,
)
from dsreduce.reducer import (
    Variant,
    apply_reduction,
    export_residual,
    naive_reduce,
    reduce_iterate,
    reduce_once,
)
from dsreduce.state import ReductionState

GAMMA_PS = [0.1, 0.25, 0.5, 0.75, 0.9]


def _corpus(count, seed_base, n_range, p_choices):
    out = []
    lo, hi = n_range
    for i in range(count):
        seed = seed_base + i
        rng = random.Random(seed)
        n = rng.randint(lo, hi)
        p = rng.choice(p_choices)
        out.append((seed, gnp(n, p, seed=seed)))
    return out


def _dead(g, st):
    return sorted(v for v in range(g.n) if not st.alive[v])


def _check(label, ok, detail):
    print(f"{label} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{label}: {detail}"


# ------------------------------------------------------- shared fixtures


@pytest.fixture(scope="module")
def gamma_runs():
    """300 random instances under all five reduction modes.

    Each record carries the full dominating set (committed vertices plus
    an optimal residual completion, in original ids) so the verification
    gate can replay it.
    """
    records = []
    t0 = time.perf_counter()
    for seed, g in _corpus(300, 2000, (2, 14), GAMMA_PS):
        want, _ = exact_annotated_gamma(AnnotatedInstance.fresh(g))
        runs = []
        for label in ("naive", "linear", "plus", "extra", "extra-iterated"):
            st = ReductionState(g)
            if label == "naive":
                naive_reduce(st)
            elif label == "extra-iterated":
                reduce_iterate(st, Variant.EXTRA)
            else:
                reduce_once(st, Variant[label.upper()])
            fixed = sorted(st.fixed)
            comp, _strips, _dropped = export_residual(st)
            size, picks = exact_annotated_gamma(
                AnnotatedInstance(comp.graph, comp.covered)
            )
            solution = fixed + [comp.new_to_old[v] for v in picks]
            runs.append((label, len(fixed) + size, solution))
        records.append((seed, g, want, runs))
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def greedy_runs():
    """100 pinned 200-vertex instances, 10-seed best-of, with and without
    a single extra-variant round in front."""
    records = []
    t0 = time.perf_counter()
    for i in range(100):
        seed = 5000 + i
        g = gnp(200, 0.05, seed=seed)
        seeds = default_seed_list(seed, 10)
        base = len(greedy_best_of(AnnotatedInstance.fresh(g), seeds))
        st = ReductionState(g)
        reduce_once(st, Variant.EXTRA)
        fixed = sorted(st.fixed)
        comp, _strips, _dropped = export_residual(st)
        picks = greedy_best_of(AnnotatedInstance(comp.graph, comp.covered), seeds)
        solution = fixed + [comp.new_to_old[v] for v in picks]
        records.append((seed, g, base, len(fixed) + len(picks), solution))
    return records, time.perf_counter() - t0


# ------------------------------------------------------------- criteria


def test_criterion_01_pipeline_matches_direct_construction():
    t0 = time.perf_counter()
    for seed, g in _corpus(500, 1000, (1, 12), GAMMA_PS):
        st = ReductionState(g)
        sprime = compute_superset(st)
        f = compute_proper_partition(st, sprime, pairs=sprime)
        got = sorted(filter_suitable(st, sprime, f))
        want = sorted(suitable_set_direct(g))
        assert got == want, f"seed {seed}: pipeline {got} vs direct {want}"
    elapsed = time.perf_counter() - t0
    _check(
        "criterion 1",
        elapsed < 30.0,
        "three-pass pipeline equals the direct witness construction on "
        f"500 seeded graphs, element-wise exact, {elapsed:.1f}s < 30s",
    )


def test_criterion_02_domination_number_preserved(gamma_runs):
    records, elapsed = gamma_runs
    bad = [
        (seed, label, want, got)
        for seed, _g, want, runs in records
        for label, got, _solution in runs
        if got != want
    ]
    detail = (
        "committed size plus residual optimum equals the original optimum "
        f"on 300 graphs x 5 modes, exact, {elapsed:.1f}s < 300s"
    )
    if bad:
        detail += f"; first mismatches {bad[:3]}"
    _check("criterion 2", not bad and elapsed < 300.0, detail)


def test_criterion_03_pinned_fixtures(fig3_graph):
    bad = []

    g5 = gadget_path("fig5", 1)
    st = ReductionState(g5)
    reduce_once(st, Variant.LINEAR)
    if sorted(st.fixed) != [1, 4] or _dead(g5, st) != [0, 2, 3, 5]:
        bad.append("6-path linear")
    st = ReductionState(g5)
    naive_reduce(st)
    if _dead(g5, st) != [0, 5]:
        bad.append("6-path naive")

    g6 = gadget_path("fig6", 1)
    st = ReductionState(g6)
    reduce_once(st, Variant.LINEAR)
    if _dead(g6, st) != [0, 6]:
        bad.append("7-path linear")
    st = ReductionState(g6)
    reduce_once(st, Variant.PLUS)
    if _dead(g6, st) != [0, 2, 4, 6]:
        bad.append("7-path plus")

    st = ReductionState(fig3_graph)
    reduce_once(st, Variant.LINEAR)
    if sorted(st.fixed) != [3] or _dead(fig3_graph, st) != [0, 1, 2, 4, 5]:
        bad.append("dense 6-vertex example")

    for k in (2, 3, 4):
        g = fig4_family(k)
        if sorted(suitable_set(ReductionState(g))) or sorted(suitable_set_direct(g)):
            bad.append(f"clique family k={k} witness set")
        st = ReductionState(g)
        rep = naive_reduce(st)
        if rep.changed or st.fixed:
            bad.append(f"clique family k={k} naive no-op")

    _check(
        "criterion 3",
        not bad,
        "all pinned fixtures reduce to their exact frozen sets"
        + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_04_variant_monotonicity():
    bad = []
    for seed, g in _corpus(300, 2000, (2, 14), GAMMA_PS):
        stl = ReductionState(g)
        reduce_once(stl, Variant.LINEAR)
        stp = ReductionState(g)
        repp = reduce_once(stp, Variant.PLUS)
        ste = ReductionState(g)
        repe = reduce_once(ste, Variant.EXTRA)
        if not set(_dead(g, stl)) <= set(_dead(g, stp)):
            bad.append((seed, "linear removals escape plus"))
        if repp.removed_edges > repe.removed_edges:
            bad.append((seed, "plus removed more edges than extra"))
    _check(
        "criterion 4 (monotonicity clauses)",
        not bad,
        "linear removals are a subset of plus removals and plus never "
        "removes more edges than extra, 300 graphs, exact"
        + (f"; violations {bad[:3]}" if bad else ""),
    )


@pytest.mark.xfail(
    strict=True,
    reason="a naive sweep deletes as it scans, so later vertices can become "
    "enclosed mid-sweep and fire when no simultaneous round would; "
    "gnp(10, 0.5, seed=2022) is a counterexample, see the acceptance "
    "paragraph of README.md",
)
def test_criterion_04_linear_fixes_at_least_as_many_as_naive():
    bad = []
    for seed, g in _corpus(300, 2000, (2, 14), GAMMA_PS):
        stn = ReductionState(g)
        naive_reduce(stn)
        stl = ReductionState(g)
        reduce_once(stl, Variant.LINEAR)
        if len(stl.fixed) < len(stn.fixed):
            bad.append((seed, sorted(stn.fixed), sorted(stl.fixed)))
    first = bad[0] if bad else None
    print(
        "criterion 4 (naive dominance clause) FAIL (expected): "
        f"{len(bad)}/300 instances commit more under the naive sweep"
        + (
            f", e.g. seed {first[0]} naive fixes {first[1]} vs linear {first[2]}"
            if first
            else ""
        )
        + "; mid-sweep deletions create second-generation witnesses"
    )
    assert not bad


def test_criterion_05_application_order_independence():
    shuffler = random.Random(31415)
    for seed, g in _corpus(100, 3000, (1, 12), GAMMA_PS):
        refs = sorted({r for _u, r in suitable_set(ReductionState(g))})
        for variant in (Variant.LINEAR, Variant.PLUS, Variant.EXTRA):
            outcomes = set()
            for _trial in range(5):
                order = refs[:]
                shuffler.shuffle(order)
                st = ReductionState(g)
                rep = apply_reduction(st, order, variant)
                assert st.is_consistent()
                outcomes.add(
                    (
                        tuple(sorted(rep.fixed)),
                        tuple(sorted(rep.removed_nodes)),
                        rep.removed_edges,
                        tuple(sorted(tuple(sorted(e)) for e in rep.extra_edges)),
                    )
                )
            assert len(outcomes) == 1, f"seed {seed} {variant}: {outcomes}"
    _check(
        "criterion 5",
        True,
        "5 shuffled reference orders yield identical reports on 100 graphs "
        "x 3 variants, exact",
    )


def test_criterion_06_runtime_scaling():
    ks = (50, 100, 200)
    graphs = {k: fig4_family(k) for k in ks}

    def measure(k, runner, repeats):
        best = math.inf
        for _ in range(repeats):
            st = ReductionState(graphs[k])
            t0 = time.perf_counter()
            runner(st)
            best = min(best, time.perf_counter() - t0)
        return best

    gc.disable()
    try:
        tn = {k: measure(k, naive_reduce, 2 if k == 200 else 3) for k in ks}
        tl = {
            k: measure(k, lambda st: reduce_once(st, Variant.LINEAR), 3)
            for k in ks
        }
    finally:
        gc.enable()

    rn = (tn[100] / tn[50], tn[200] / tn[100])
    rl = (tl[100] / tl[50], tl[200] / tl[100])
    # single doublings jitter with cache effects at the small end, so the
    # growth gate is the geometric mean across the measured range
    geo_n = math.sqrt(rn[0] * rn[1])
    geo_l = math.sqrt(rl[0] * rl[1])
    speedup = tn[200] / tl[200]
    ok = (
        geo_n >= 6.0
        and geo_l <= 5.0
        and speedup >= 10.0
        and all(t < 60.0 for t in (*tn.values(), *tl.values()))
    )
    _check(
        "criterion 6",
        ok,
        f"naive doubling x{rn[0]:.2f} then x{rn[1]:.2f} (geo mean "
        f"{geo_n:.2f} >= 6.0), linear x{rl[0]:.2f} then x{rl[1]:.2f} "
        f"(geo mean {geo_l:.2f} <= 5.0), k=200 speedup {speedup:.1f}x >= 10, "
        f"slowest run {max(*tn.values(), *tl.values()):.2f}s < 60s",
    )


def test_criterion_07_work_linear_in_graph_size():
    graphs = [g for _seed, g in _corpus(300, 2000, (2, 14), GAMMA_PS)]
    graphs += [gadget_path("fig5", 3), gadget_path("fig6", 3), barbell_cycle()]
    graphs += [fig4_family(k) for k in (2, 3, 4, 200)]
    worst = 0.0
    for g in graphs:
        for variant in (Variant.LINEAR, Variant.PLUS, Variant.EXTRA):
            wc = WorkCounter()
            reduce_once(ReductionState(g), variant, work=wc)
            worst = max(worst, wc.visits / (g.n + g.m))
    _check(
        "criterion 7",
        worst <= 64.0,
        f"peak instrumented visits per (n+m) is {worst:.1f} <= 64 across "
        f"{len(graphs)} graphs x 3 variants including the k=200 clique family",
    )


def test_criterion_08_iteration_reaches_a_fixpoint():
    g = gadget_path("fig6", 3)
    details = []
    ok = True
    for variant in (Variant.PLUS, Variant.EXTRA):
        st = ReductionState(g)
        rep = reduce_iterate(st, variant)
        comp, _strips, _dropped = export_residual(st)
        st2 = ReductionState(comp.graph)
        st2.covered[:] = comp.covered
        again = reduce_iterate(st2, variant)
        ok = ok and 2 <= rep.rounds <= 1024 and again.rounds == 1 and not again.changed
        details.append(f"{variant.name.lower()} rounds={rep.rounds}")
    _check(
        "criterion 8 (iterated fixpoint)",
        ok,
        "3-copy 7-path chain: " + ", ".join(details) + " within [2, 1024] "
        "and a re-run on the residual is idle",
    )


@pytest.mark.xfail(
    strict=True,
    reason="removing enclosed neighborhoods shrinks other neighborhoods, so "
    "one simultaneous round is not idempotent across compaction; "
    "see the acceptance paragraph of README.md",
)
def test_criterion_08_second_round_after_compaction_is_idle():
    hits = []
    for seed, g in _corpus(100, 4000, (2, 14), [0.1, 0.3, 0.5, 0.7, 0.9]):
        st = ReductionState(g)
        reduce_once(st, Variant.LINEAR)
        comp, _strips, _dropped = export_residual(st)
        st2 = ReductionState(comp.graph)
        st2.covered[:] = comp.covered
        rep2 = reduce_once(st2, Variant.LINEAR)
        if rep2.fixed:
            hits.append((seed, sorted(rep2.fixed)))
    first = hits[0] if hits else None
    print(
        "criterion 8 (single-round idempotence) FAIL (expected): "
        f"{len(hits)}/100 graphs commit again on the compacted residual"
        + (f", first seed {first[0]} fixes residual vertex {first[1]}" if first else "")
        + "; first-round deletions create new enclosed neighborhoods"
    )
    assert not hits


def test_criterion_09_reduction_does_not_hurt_greedy(greedy_runs):
    records, elapsed = greedy_runs
    mean_base = sum(r[2] for r in records) / len(records)
    mean_reduced = sum(r[3] for r in records) / len(records)
    ratio = mean_reduced / mean_base
    _check(
        "criterion 9",
        ratio <= 1.005,
        f"mean best-of-10 greedy size {mean_base:.2f} unreduced vs "
        f"{mean_reduced:.2f} after one extra-variant round, ratio "
        f"{ratio:.4f} <= 1.005, {elapsed:.1f}s",
    )


def test_criterion_10_verification_gate(gamma_runs, greedy_runs, tmp_path):
    inst = tmp_path / "inst.gr"
    side = tmp_path / "inst.side"
    failures = []
    checked = 0

    def verify(g, solution, tag):
        nonlocal checked
        with open(inst, "w", encoding="utf-8") as fh:
            write_gr(g, fh)
        with open(side, "w", encoding="utf-8") as fh:
            write_sidecar(fh, [], [], [], solution=[v + 1 for v in solution])
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli_main(["verify", str(inst), "--solution", str(side)])
        checked += 1
        if rc != 0 or not buf.getvalue().startswith("valid:"):
            failures.append((tag, rc, buf.getvalue().strip()))

    for seed, g, _want, runs in gamma_runs[0]:
        for label, _got, solution in runs:
            verify(g, solution, (seed, label))
    for seed, g, _base, _reduced, solution in greedy_runs[0]:
        verify(g, solution, (seed, "greedy"))

    _check(
        "criterion 10",
        not failures,
        f"the verify command accepted all {checked} reduce-and-complete "
        "solutions from criteria 2 and 9"
        + (f"; rejected {failures[:3]}" if failures else ""),
    )
