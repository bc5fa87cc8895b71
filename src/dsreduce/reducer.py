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
from operator import itemgetter
from typing import Iterable, Optional

# The passes are called as attributes of ``pipeline``, so a wrapper set
# there (a tracer, a test) sees every call.
from . import pipeline
from .pipeline import Superset, WorkCounter, ball
# nothing here calls ``compact``; perfbench/spans.py wraps ``reducer.compact``
from .state import ReductionState, compact  # noqa: F401

# Rounds after the first test only the witnesses within this many edges of
# the round's seeds, the dirty and the re-evaluated vertices;
# ``reduce_iterate`` proves that no witness lies farther out.
DIRTY_RADIUS = 2

# the reference of a (witness, reference) pair
_reference = itemgetter(1)


class Variant(Enum):
    LINEAR = "linear"
    PLUS = "plus"
    EXTRA = "extra"


# Reading a member off an Enum class runs a descriptor on Python 3.11,
# about 0.1 us a read; apply, called once per round, reads these instead.
_LINEAR = Variant.LINEAR
_EXTRA = Variant.EXTRA


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
    # apply_reduction's alone: the alive vertices whose live degree fell
    dirty: dict[int, None] = field(default_factory=dict)


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

    The report's ``dirty`` holds exactly the alive vertices whose live
    degree fell in the call, in the order the call meets them.  A live
    degree falls when a live neighbor is removed or Extra cuts the edge
    to it.  A vertex dropped for isolation has no live neighbor, and
    Extra's cut partners are next to a reference, so these are the live
    neighbors of the references and the deleted nodes that stay alive.
    A vertex the call covers and leaves alive is next to a reference, so
    it is among them.
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
    allow = 0 if variant is _LINEAR else 1
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
    if variant is _EXTRA:
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

    # The touched vertices left alive are the dirty ones.  The list of
    # each drops the dead vertices (it names one when it is longer than
    # the degree, so a repeat finds it clean); a covered one left isolated
    # goes instead, and no live list names it.
    dirty: dict[int, None] = {}
    for t in touched:
        if alive[t]:
            d = deg[t]
            if d or not covered[t]:
                dirty[t] = None
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
    return ReductionReport(refs, deletable, removed_edges, 1, extra_edges, True, dirty)


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
    classifies covered-aware.  The vertices covered and isolated on entry
    go before round 1, and apply removes each vertex it commits and each
    covered vertex it leaves isolated, so every run, capped or not and
    whether or not a round acts, leaves no covered vertex isolated.  The
    dropped vertices are next to nothing, so they are never a witness, a
    reference or a marked vertex, and no verdict changes.  The
    terminating idle round is included in the round count.
    ``max_rounds`` None runs to that idle round; ``converged`` is False
    only when a given ``max_rounds`` ended the loop instead.

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
    pair, while its lists and degrees are still the input's.  The
    round's dirty set T is the one apply reports: the alive vertices
    whose live degree fell in the round.  Apply leaves each alive list
    naming exactly the live neighbors, so searches from alive vertices
    (``ball`` and the passes) never reach a dead one, and only the lists
    of T change.  A covered vertex isolated after a round was so on
    entry, and went before round 1, or lost its last live neighbor in
    the round; then apply dropped it.

    The superset pass is not rerun on every round.  Its result is carried
    across rounds in two maps over the input's ids: the canonical
    reference R(u) of every alive uncovered vertex and the
    witness-to-reference map.  Round 1 fills both.  After an acting
    round, the witness entries of T are dropped and U is
    re-evaluated: the uncovered members of T, and each uncovered u in
    N(T) outside T with R(u) in T that is a carried witness or whose
    canonical reference, recomputed, is not R(u).  The round's seeds are
    S = T + U.  The carried maps are then right at every alive vertex:

    (i) The verdict on u reads N[u], the degrees on it, N[R(u)] and the
        covered flag of u.  Deletions only lower degrees, and only on T,
        by apply's contract.  Lists only ever lose members.  u's covered
        flag is only ever set, and only when u is next to a committed
        vertex, hence in T.  Take an alive u outside U.
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
    out to 2 edges from S when S has fewer vertices than the carried map
    has witnesses, otherwise, ties included, a test of each carried
    witness's closed neighborhood and its members' lists against S,
    which costs less per vertex.  Both find the same pairs, and
    ``apply_reduction`` sorts the references, so their order does not
    matter.  Nor does the order in which apply lists T: every pass
    decides and counts visits per vertex and per pair.

    Cost.  A round after the first reads the lists of T, one closed
    neighborhood per uncovered neighbor of T whose reference is in T,
    and those of U; then the adjacency within 2 edges of S, or, when
    the witnesses are no more than the seeds, the lists of the
    witnesses' closed neighborhoods; then the lists around the pairs it
    tests.  So the total work is the sum over rounds of the adjacency within 2
    edges of the seeds.  That is linear on a path, which sheds a few
    vertices at each end per round, but not on every input: a hub that
    loses a neighbor every round is a seed every round, and its list is
    read every time.  The worst case known is the hub path: a path of L
    vertices, L = 2 mod 3, plus a hub joined to every third one, which
    sheds one reference per round.  The README quotes its rounds and
    visits per (n + m), which ``tests/test_docs.py`` recomputes.  Apply's
    share stays small (``test_apply_work_on_the_hub_path``), since
    Extra's cut probes the hub's list instead of scanning it.

    On top of that work a round has a fixed cost, which dominates when a
    round sheds only a few vertices.  A round after the first makes eight
    Python calls: the re-evaluation with its scoped superset pass, the
    pair search, the find step with its partition and filter passes,
    and ``apply_reduction`` with its report.  Apply refreshes the lists
    of T, drops its isolated covered vertices and reports T; then the
    boundary drops the witness entries of the vertices that died in the
    round.  On the benchmark's ``chains`` corpus (two paths of about 1,800
    vertices, 602 rounds in all) a round of Extra took 13.09 us as
    measured for ``BENCH_35.json``, against 15.90 us before a round's
    calls were cut to eight (the median over 20 alternations of both
    versions in one process of the best of 30 runs of a whole instance
    less a one-round run, Python 3.11.7 on a shared 2-core container;
    ``BENCH_35.json`` keys ``per_round_us.change`` and
    ``per_round_us.parent``).  Every pair it tests has a leaf witness,
    so its partition pass gets no pair.
    """
    if max_rounds is not None and max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    _require_fresh(state)

    sup: Optional[Superset] = None
    fixed_all: list[int] = []
    # the vertices covered and isolated on entry go first; they are next to
    # nothing, so no round reads them
    removed_all = export_residual(state)
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
            # search from the smaller side, on a tie from the witnesses,
            # whose test is the cheaper; both find the same pairs
            near = _pairs_by_ball if len(seeds) < len(sup) else _pairs_by_witness
            pairs = near(state, sup, seeds, work)
        kept = pipeline.suitable_pairs(state, sup, pairs, work=work)
        # C-level, where Python 3.10 and 3.11 would call a set comprehension
        refs = set(map(_reference, kept))
        rep = apply_reduction(state, refs, variant, work=work)
        rounds += 1
        # every reference is committed anew, so a round without one is idle
        if not rep.fixed:
            break
        fixed_all += rep.fixed
        removed_all += rep.removed_nodes
        extra_all += rep.extra_edges
        removed_edges += rep.removed_edges

        # The boundary: every vertex that died in the round loses its
        # witness entry, and apply's dirty set is the next round's T.
        for u in (*rep.fixed, *rep.removed_nodes):
            sup.pop(u, None)
        dirty = rep.dirty
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
    canonical reference; see (i) in ``reduce_iterate``.  The candidates
    go to the scoped superset pass: the uncovered dirty vertices and the
    carried witnesses with -1, every other neighbor with its old
    reference, under which its verdict is known.  The pass computes each
    candidate's reference and skips the neighbors whose reference is
    unchanged.  The references and verdicts of the vertices it evaluated
    then replace theirs in ``sup``.  Returns the seeds of the round's
    pair search: ``dirty`` itself, to which the re-evaluated vertices
    outside it are added.  ``dirty`` is the dirty set of the round's
    apply report, which ``reduce_iterate`` keeps to itself and never
    returns, so extending it in place reaches no caller.
    """
    adj = state.adj
    covered = state.covered
    canonical = sup.canonical
    scope: dict[int, int] = {}
    visits = 0
    for t in dirty:
        sup.pop(t, None)
        at = adj[t]
        visits += len(at)
        if not covered[t]:
            scope[t] = -1
        # R(u) lies in N(u), so each such u is looked at from R(u) only
        for u in at:
            if covered[u] or u in dirty or canonical[u] != t:
                continue
            if u in sup:
                # a carried witness is re-evaluated whatever its reference
                del sup[u]
                scope[u] = -1
            else:
                scope[u] = t
    if work is not None:
        work.add(visits)
    part = pipeline.compute_superset(state, work=work, scope=scope)
    # the loop above reads the old canonical references
    for u, rho in part.canonical.items():
        canonical[u] = rho
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
    when handed in can be left for this.  ``reduce_iterate`` calls this
    before its first round, so it leaves none either, and the command
    line hands in none.
    """
    dropped: list[int] = []
    if 1 not in state.covered:
        # a scan in C, which spares a state with nothing covered the loop
        return dropped
    # only covered vertices can be dropped; compress keeps ascending order
    for v in compress(range(state.n), state.covered):
        if state.alive[v] and state.deg[v] == 0:
            state.alive[v] = 0
            dropped.append(v)
    return dropped
