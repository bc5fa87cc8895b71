"""Reduction drivers: apply a reference set, run rounds.

Each driver takes the ``ReductionState`` alone.  A round is find
(pipeline) then apply (this module); a plain rule is one round of
``reduce_iterate``.  Apply commits every reference to the solution,
covers its closed neighborhood and deletes whatever the chosen variant
allows.  A committed vertex is gone: the call that commits it removes
it and its edges from the state, so no alive vertex is ever fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import compress
from typing import Iterable, Optional

# The passes are called as attributes of ``pipeline``, so a wrapper set
# there (a tracer, a test) sees every call.
from . import pipeline
from .pipeline import Superset, WorkCounter, ball, canonical_reference
# nothing here calls ``compact``; perfbench/spans.py wraps ``reducer.compact``
from .state import ReductionState, compact  # noqa: F401

# Rounds after the first test only the witnesses within this many edges of
# the round's seeds, the dirty and the re-evaluated vertices;
# ``reduce_iterate`` proves that no witness lies farther out.
DIRTY_RADIUS = 2


class Variant(Enum):
    LINEAR = "linear"
    PLUS = "plus"
    EXTRA = "extra"


@dataclass
class ReductionReport:
    # What a driver did, in the input's ids.  Visits go to the caller's
    # WorkCounter, not here.
    fixed: list[int] = field(default_factory=list)
    removed_nodes: list[int] = field(default_factory=list)
    removed_edges: int = 0
    rounds: int = 1
    extra_edges: list[tuple[int, int]] = field(default_factory=list)
    # False only when the caller's max_rounds ended reduce_iterate after a
    # round that still committed something.
    converged: bool = True


def _require_fresh(state: ReductionState) -> None:
    if not all(state.alive) or sum(state.deg) != 2 * state.g.m:
        raise ValueError("state must be fresh (no vertex or edge deleted)")
    if state.fixed:
        raise ValueError("state must be fresh (no vertex fixed)")


def apply_reduction(
    state: ReductionState,
    refs: Iterable[int],
    variant: Variant,
    *,
    work: Optional[WorkCounter] = None,
) -> ReductionReport:
    """Commit ``refs`` and delete around them according to ``variant``.

    The references must be alive, hence not yet fixed, and the report
    lists each of them as newly fixed.  A committed reference is gone
    when the call returns, and its live edges with it.  So is each
    covered vertex the call leaves isolated, which the report lists as
    removed.  The call expects each alive vertex's list to name exactly
    its live neighbors, and leaves them so: a list that would name a
    vertex the call removed is replaced by its alive members.  Marking is
    unioned over all references before any deletion, so the outcome does
    not depend on the order of ``refs``.  The cost is proportional to
    the live closed neighborhoods of the references and of their
    neighbors, whatever the size of the graph.  A neighbor is deletable
    when at most ``allow`` of its live neighbors still need domination:
    0 for Linear, 1 for Plus and Extra.  Extra additionally drops
    surviving edges whose endpoints are both marked and neither
    committed.  The report counts every edge the call removed: those of
    the references and of the deleted nodes, and Extra's cuts.
    """
    refs = sorted(set(refs))
    adj = state.adj
    deg = state.deg
    alive = state.alive
    covered = state.covered

    for rho in refs:
        if not alive[rho]:
            raise ValueError(f"reference {rho} is not alive")

    # Commit and cover each reference and mark N(refs); ``marked`` then
    # narrows to the neighbors that are no reference.
    marked: set[int] = set()
    visits = 0
    for rho in refs:
        visits += deg[rho] + 1
        marked.update(adj[rho])
        covered[rho] = 1
    state.fixed.update(refs)
    marked.difference_update(refs)
    # One walk over the marked neighbors covers each and classifies it: a
    # neighbor still needs domination unless covered or marked.
    allow = 0 if variant is Variant.LINEAR else 1
    deletable: list[int] = []
    for u in marked:
        covered[u] = 1
        bad = 0
        d = 0
        for w in adj[u]:
            d += 1
            if not covered[w] and w not in marked:
                if bad == allow:
                    break
                bad += 1
        else:
            deletable.append(u)
        visits += d

    # The references go, then the deleted vertices: each takes its live
    # degree's worth of edges with it, so an edge between two counts once.
    # A reference is covered, so it made no neighbor's verdict.  The live
    # neighbors they leave behind are the touched vertices, listed once per
    # removed neighbor.
    removed_edges = 0
    touched: list[int] = []
    touch = touched.append
    for u in (*refs, *deletable):
        alive[u] = 0
        removed_edges += deg[u]
        deg[u] = 0
        for w in adj[u]:
            if alive[w]:
                deg[w] -= 1
                touch(w)

    extra_edges: list[tuple[int, int]] = []
    if variant is Variant.EXTRA:
        # the marked survivors lose their edges to each other
        marked.difference_update(deletable)
        if marked:
            if work is not None:
                # ``cut_within`` scans a list no longer than the set and
                # probes a longer one once per other member; a cut edge
                # counts once
                k = len(marked)
                for u in marked:
                    d = deg[u]
                    visits += d if d <= k else k - 1
            extra_edges = state.cut_within(marked)
            visits -= len(extra_edges)
            removed_edges += len(extra_edges)
            extra_edges.sort()

    # Only a touched vertex lost a live neighbor (Extra's cut partners
    # are next to a reference).  Its list drops the dead vertices (it names
    # one when it is longer than the degree, so a repeat finds it clean);
    # a covered one left isolated goes too, and no live list names it.
    for t in touched:
        if alive[t]:
            d = deg[t]
            if d or not covered[t]:
                at = adj[t]
                if len(at) != d:
                    adj[t] = list(filter(alive.__getitem__, at))
            else:
                alive[t] = 0
                deletable.append(t)

    if work is not None:
        work.add(visits)
    deletable.sort()
    # positional: the keyword call costs a round about a microsecond
    return ReductionReport(refs, deletable, removed_edges, 1, extra_edges)


def reduce_iterate(
    state: ReductionState,
    variant: Variant,
    max_rounds: Optional[int] = None,
    *,
    work: Optional[WorkCounter] = None,
) -> ReductionReport:
    """Repeat find+apply rounds on ``state`` until nothing changes.

    A plain Linear, Plus or Extra round is this driver under
    ``max_rounds`` 1.
    Every round acts on the caller's state in the input's ids and
    classifies covered-aware.  Apply removes each vertex it commits and
    each covered vertex it leaves isolated, and the first acting round
    also drops the vertices covered and isolated on entry, so a capped
    run that acts, a single round included, leaves no covered vertex
    isolated.  The terminating idle round is included
    in the round count.  ``max_rounds`` None runs to that idle round;
    ``converged`` is False only when a given ``max_rounds`` ended the
    loop instead.

    The loop ends by itself, within n + 1 rounds.  The state starts with
    no vertex fixed (``_require_fresh`` refuses one), and apply strips
    each reference as it commits it, so no alive vertex is ever fixed:
    each reference is alive and new, and dies in the round that commits
    it.  A round without references changes nothing, so an
    acting round commits, and the report lists, at least one, and a
    round acts exactly when its report's ``fixed`` is non-empty.  So
    every acting round removes at least one of the n vertices for good:
    at most n acting rounds, then one idle round.

    Every round runs the passes on ``state`` itself; round 1 tests every
    pair, while its lists and degrees are still the input's.  An alive
    vertex x loses a live neighbor y only when y is committed or deleted
    next to a reference, so y's list names x, or when Extra cuts xy: both
    ends are then neighbors of a committed reference.  Either way x is
    touched, a live neighbor of a vertex that died in the round (a
    covered vertex dropped for isolation has no live neighbor left to
    lose).  Apply leaves each alive list naming exactly the live
    neighbors, so searches from alive vertices (``ball`` and the passes)
    never reach a dead one.  The boundary reads the touched vertices off
    the lists of the references and deleted vertices, which apply leaves
    as the round found them (Extra replaces none of them); a vertex
    dropped for isolation lists no live vertex.

    Apply drops each touched vertex left covered and isolated.  No other
    vertex needs the look, save those covered and isolated on entry,
    which the boundary drops after round 1.  A vertex covered during a
    round is a reference, which apply strips, or a neighbor of one that
    apply covered; if it survives apply, it is touched.  A covered
    vertex that loses a live neighbor later is touched, as shown above.

    The superset pass is not rerun on every round.  Its result is carried
    across rounds in two maps over the input's ids: the canonical
    reference R(u) of every alive uncovered vertex and the
    witness-to-reference map.  Round 1 fills both.  After an acting
    round, with T the alive touched vertices, whose lists apply
    refreshed, the witness entries of T are dropped and U is
    re-evaluated: the uncovered members of T, and each uncovered u in
    N(T) outside T with R(u) in T that is a carried witness or whose
    canonical reference, recomputed, is not R(u).  The round's seeds are
    S = T + U.  The carried maps are then right at every alive vertex:

    (i) The verdict on u reads N[u], the degrees on it, N[R(u)] and the
        covered flag of u.  Deletions only lower degrees, and only on T:
        an alive vertex that loses a live neighbor is touched, as shown
        above.  Lists only ever lose members.  u's covered flag is only
        ever set, and only when u is next to a committed vertex, hence
        in T.  Take an alive u outside U.
        - u is covered.  The pass never takes a covered witness, so u
          has no entry: dropped if u is in T, and never made if u was
          covered a round earlier.  R(u) is never read again.
        - R(u) is not in T.  Then neither is u: u in T is uncovered
          here, hence in U.  So N[u] and N[R(u)] are the lists of one
          round earlier, and R(u) kept its degree while every other
          member of N[u] kept or lowered its own, so R(u) is still the
          maximum, and u's verdict is that of one round earlier.
        - R(u) is in T, u is not.  Then u is no carried witness, and
          its canonical reference is still R(u).  One round earlier u
          was uncovered, and R(u) is not u, so the
          containment N(u) in N[R(u)] failed.  N(u) is unchanged and
          N[R(u)] only lost members, so it still fails.  (A carried
          witness is re-evaluated: Extra may cut the edge from R(u) to
          a neighbor of u and leave u itself untouched.)

    (ii) Partition and filter then test only the carried pairs whose
        witness lies within ``DIRTY_RADIUS`` = 2 edges of S, and no
        witness lies farther out.  A pair whose witness has one live
        neighbor passes at once and skips the partition pass, which
        changes no verdict (``pipeline.filter_suitable`` proves it).
        The verdict on a pair (u, rho) reads the lists of N[u], rho
        among them, and the degrees, covered flags and carried witness
        entries of the vertices within 2 edges of u, but no canonical
        reference.  Between rounds all of these change only on S:
        lists, degrees and covered flags only on T, and witness entries
        only on T and U by (i).  Now take u more
        than 2 edges from S.  The search from u reads the same lists as
        one round earlier, and the same values on them, so the verdict
        is that of one round earlier: the verdict of that round's test,
        or, when that round did not test (u, rho), a failure, by
        induction over the rounds.  Had it passed, rho would have been
        committed and stripped, and u, alive and next to rho, would be
        in T.  So (u, rho) fails.

    Those pairs are found from the smaller side: a breadth-first search
    out to 2 edges from S when S has no more vertices than the carried
    map has witnesses, otherwise a test of each carried witness's
    closed neighborhood and its members' lists against S.  Both find the
    same pairs, and ``apply_reduction`` sorts the references, so their
    order does not matter.  Nor does the order in which the boundary
    lists T: every pass decides and counts visits per vertex and per
    pair.

    Cost.  A round after the first reads the lists of T, one closed
    neighborhood per uncovered neighbor of T whose reference is in T,
    and those of U; then the adjacency within 2 edges of S, or, when
    the witnesses are fewer than the seeds, the lists of the witnesses'
    closed neighborhoods; then the lists around the pairs it tests.  So
    the total work is the sum over rounds of the adjacency within 2
    edges of the seeds.  That is linear on a path, which sheds a few
    vertices at each end per round, but not on every input: a hub that
    loses a neighbor every round is a seed every round, and its list is
    read every time.  The worst case known is the hub path: a path of L
    vertices, L = 2 mod 3, plus a hub joined to every third one, which
    sheds one reference per round.  At L = 8000 it runs 2,668 rounds at
    956.5 visits per (n + m), in 1.24-1.45 s, median 1.31 s over 25
    runs (Python 3.11.7 on a shared 2-core Xeon container whose speed
    drifts); apply's share is 1.3 of those visits, since Extra's cut
    probes the hub's list instead of scanning it.

    On top of that work a round has a fixed cost, which dominates when a
    round sheds only a few vertices.  A round after the first calls each
    pass and ``apply_reduction`` once, and apply refreshes the lists of
    T and drops its isolated covered vertices; then the boundary walks
    the lists of the vertices that died in the round, which list T.  On
    the benchmark's
    ``chains`` corpus (two paths of about 1,800 vertices, 602 rounds in
    all) a round of Extra takes 14.5-14.9 us (best of 30 runs of a whole
    instance less a one-round run, Python 3.11.7 on a shared 2-core Xeon
    container); every pair it tests has a leaf witness, so its
    partition pass gets no pair.
    """
    if max_rounds is not None and max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    _require_fresh(state)

    adj = state.adj
    deg = state.deg
    alive = state.alive
    covered = state.covered
    # the vertices covered and isolated on entry; ``1 in`` scans the flags
    # in C, and spares a fresh state the list's tens of microseconds
    given = [v for v in compress(range(state.n), covered) if not deg[v]] if 1 in covered else ()
    sup: Optional[Superset] = None
    fixed_all: list[int] = []
    removed_all: list[int] = []
    extra_all: list[tuple[int, int]] = []
    removed_edges = 0
    rounds = 0
    converged = True

    while True:
        if sup is None:
            sup = pipeline.compute_superset(state, work=work)
            pairs = sup.items()
        else:
            seeds = _reevaluate_superset(state, sup, dirty, work)
            # search from the smaller side; both find the same pairs
            near = _pairs_by_ball if len(seeds) <= len(sup) else _pairs_by_witness
            pairs = near(state, sup, seeds, work)
        kept = pipeline.suitable_pairs(state, sup, pairs, work=work)
        refs = {rho for _u, rho in kept}
        rep = apply_reduction(state, refs, variant, work=work)
        rounds += 1
        # every reference is committed anew, so a round without one is idle
        if not rep.fixed:
            break
        fixed_all += rep.fixed
        removed_all += rep.removed_nodes
        extra_all += rep.extra_edges
        removed_edges += rep.removed_edges

        # The boundary.  Drop the witness entries of every vertex that died
        # in the round; the alive vertices it lists are the dirty ones
        # (Extra's cut partners are in a reference's list).
        dirty: dict[int, None] = {}
        for u in (*rep.fixed, *rep.removed_nodes):
            sup.pop(u, None)
            for x in adj[u]:
                if alive[x]:
                    dirty[x] = None
        if rounds == 1:
            # the vertices covered and isolated on entry are next to
            # nothing, so apply never drops them
            for v in given:
                alive[v] = 0
                removed_all.append(v)
                sup.pop(v, None)
        if rounds == max_rounds:
            converged = False
            break

    return ReductionReport(
        fixed=sorted(fixed_all),
        removed_nodes=sorted(removed_all),
        removed_edges=removed_edges,
        rounds=rounds,
        extra_edges=sorted(extra_all),
        converged=converged,
    )


def _reevaluate_superset(
    state: ReductionState,
    sup: Superset,
    dirty: dict[int, None],
    work: Optional[WorkCounter],
) -> dict:
    """Bring the carried superset map ``sup`` up to date after a round.

    Drops the witness entries of the dirty vertices, then re-evaluates
    the uncovered ones and the uncovered neighbors whose canonical
    reference is dirty and that are carried witnesses or get another
    canonical reference; see (i) in ``reduce_iterate``.  Each of those
    canonical references is computed once, here, and handed to the
    scoped superset pass, whose verdicts then replace the entries of the
    re-evaluated vertices in ``sup``.  Returns the seeds of the round's
    pair search: ``dirty`` itself, to which the re-evaluated vertices
    outside it are added.
    """
    adj = state.adj
    deg = state.deg
    covered = state.covered
    canonical = sup.canonical
    redo: dict[int, int] = {}
    moved: list[int] = []
    visits = 0
    for t in dirty:
        sup.pop(t, None)
        at = adj[t]
        visits += len(at)
        if not covered[t]:
            # the loop reads canonical[u] only for u outside ``dirty``
            redo[t] = canonical[t] = canonical_reference(state, t)
            visits += deg[t] + 1
        # R(u) lies in N(u), so each such u is looked at from R(u) only
        for u in at:
            if covered[u] or u in dirty or canonical[u] != t:
                continue
            visits += deg[u] + 1
            rho = canonical_reference(state, u)
            if rho != t or u in sup:
                redo[u] = rho
                moved.append(u)
    if work is not None:
        work.add(visits)
    part = pipeline.compute_superset(state, work=work, canonical=redo)
    # the loop above reads the old canonical references of these
    for u in moved:
        canonical[u] = redo[u]
        sup.pop(u, None)
        dirty[u] = None
    sup.update(part)
    return dirty


def _pairs_by_ball(
    state: ReductionState,
    ref_of: dict[int, int],
    seeds: dict[int, None],
    work: Optional[WorkCounter],
) -> list[tuple[int, int]]:
    """The carried pairs whose witness lies within ``DIRTY_RADIUS``
    edges of ``seeds``, found by a search outward from the seeds."""
    near = ball(state, seeds, DIRTY_RADIUS, work=work)
    return [(u, ref_of[u]) for u in near if u in ref_of]


def _pairs_by_witness(
    state: ReductionState,
    ref_of: dict[int, int],
    seeds: dict[int, None],
    work: Optional[WorkCounter],
) -> list[tuple[int, int]]:
    """The same pairs as ``_pairs_by_ball``, found by testing each
    carried witness's closed neighborhood and its neighbors' lists
    (``DIRTY_RADIUS`` = 2 edges) against the seeds, up to the first hit."""
    adj = state.adj
    apart = seeds.keys().isdisjoint
    visits = 0
    pairs = []
    for u, rho in ref_of.items():
        au = adj[u]
        visits += len(au) + 1
        near = u in seeds or not apart(au)
        if not near:
            for x in au:
                ax = adj[x]
                visits += len(ax)
                if not apart(ax):
                    near = True
                    break
        if near:
            pairs.append((u, rho))
    if work is not None:
        work.add(visits)
    return pairs


def fix_isolated_uncovered(state: ReductionState) -> list[int]:
    """Commit alive degree-zero vertices that nothing dominates; like
    every committed vertex, each is gone at once.

    Opt-in: the plain rules leave such vertices for the residual solver.
    """
    alive = state.alive
    covered = state.covered
    deg = state.deg
    out = []
    for v in range(state.n):
        if alive[v] and not covered[v] and not deg[v]:
            covered[v] = 1
            alive[v] = 0
            out.append(v)
    state.fixed.update(out)
    return out


def export_residual(state: ReductionState) -> list[int]:
    """Drop the covered vertices ``state`` leaves isolated; its alive
    vertices are then the residual that ``graphio.write_gr`` writes.

    Returns the dropped vertices in ascending order.  Mutates ``state``;
    pass a copy to keep the original.  ``apply_reduction`` drops each
    covered vertex it isolates, so only a vertex covered and isolated
    when handed in can be left for this; ``reduce_iterate`` drops those
    too once a round acts, and the command line hands in none.
    """
    dropped: list[int] = []
    # only covered vertices can be dropped; compress keeps ascending order
    for v in compress(range(state.n), state.covered):
        if state.alive[v] and state.deg[v] == 0:
            state.alive[v] = 0
            dropped.append(v)
    return dropped
