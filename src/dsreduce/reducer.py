"""Reduction drivers: apply a reference set, run single rounds, iterate.

Each driver takes the ``ReductionState`` alone.  A round is find
(pipeline) then apply (this module).  Apply commits every reference to
the solution, covers its closed neighborhood and deletes whatever the
chosen variant allows.  Edges incident to a committed vertex are doomed
from that moment on, but leave the state only at round boundaries
(iterated driver) or when the residual is exported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress
from typing import Iterable, Optional

# The passes are called as attributes of ``pipeline``, so a wrapper set
# there (a tracer, a test) sees every call.
from . import pipeline
from .pipeline import RelationSet, WorkCounter, ball, suitable_set
from .state import CompactResult, ReductionState, compact

# Rounds after the first test only the witnesses within this many edges of
# the vertices whose superset verdict was re-evaluated; ``reduce_iterate``
# proves that no witness lies farther out.
DIRTY_RADIUS = 2

# ``reduce_iterate``'s round cap unless the caller passes another.
MAX_ROUNDS = 1024


class Variant(Enum):
    NAIVE = "naive"
    LINEAR = "linear"
    PLUS = "plus"
    EXTRA = "extra"


# The variants that profit from repetition, the only ones reduce_iterate runs.
ITERATED = (Variant.PLUS, Variant.EXTRA)


@dataclass
class ReductionReport:
    variant: str
    fixed: list[int] = field(default_factory=list)
    removed_nodes: list[int] = field(default_factory=list)
    removed_edges: int = 0
    rounds: int = 1
    # Find: the pipeline passes, and in reduce_iterate also the superset
    # re-evaluation and the witness search.  Apply: apply_reduction, and in
    # reduce_iterate also the boundary strip, the dirty-set scan and the
    # refresh of the dirty vertices' lists.
    time_find_s: float = 0.0
    time_apply_s: float = 0.0
    work_visits: int = 0
    extra_edges: list[tuple[int, int]] = field(default_factory=list)
    # False when reduce_iterate stopped at max_rounds after a round that
    # still changed something.
    converged: bool = True

    @property
    def changed(self) -> bool:
        return bool(
            self.fixed or self.removed_nodes or self.removed_edges or self.extra_edges
        )


def _require_fresh(state: ReductionState) -> None:
    if not all(state.alive) or sum(state.deg) != 2 * state.g.m:
        raise ValueError("state must be fresh (no vertex or edge deleted)")


def apply_reduction(
    state: ReductionState,
    refs: Iterable[int],
    variant: Variant,
    *,
    work: Optional[WorkCounter] = None,
) -> ReductionReport:
    """Commit ``refs`` and delete around them according to ``variant``.

    Marking is unioned over all references before any deletion, so the
    outcome does not depend on the order of ``refs``.  The cost is
    proportional to the live closed neighborhoods of the references and
    of their neighbors, whatever the size of the graph.  A neighbor is
    deletable when at most ``allow`` of its live neighbors still need
    domination: 0 for Linear, 1 for Plus and Extra.  Extra additionally
    drops surviving edges whose endpoints are both marked and neither
    committed.  Deleted counts cover live edges lost with deleted nodes
    plus Extra's edge removals; edges pending around committed vertices
    are accounted when they are physically stripped later.
    """
    if variant is Variant.NAIVE:
        raise ValueError("naive reduction does not take a precomputed reference set")
    refs = list(refs)
    for rho in refs:
        if not state.alive[rho]:
            raise ValueError(f"reference {rho} is not alive")

    covered = state.covered
    in_r = set(refs)
    marked: set[int] = set()  # N[refs]
    visits = 0
    new_fixed: list[int] = []

    for rho in refs:
        if rho not in state.fixed:
            new_fixed.append(rho)
        state.fix(rho)
        marked.add(rho)
        d = 0
        for w in state.live_neighbors(rho):
            marked.add(w)
            d += 1
        visits += d + 1

    allow = 0 if variant is Variant.LINEAR else 1
    seen: set[int] = set()
    deletable: list[int] = []
    for rho in refs:
        for u in state.live_neighbors(rho):
            if u in in_r or u in seen:
                continue
            seen.add(u)
            bad = 0
            ok = True
            d = 0
            for w in state.live_neighbors(u):
                d += 1
                if not covered[w]:
                    bad += 1
                    if bad > allow:
                        ok = False
                        break
            visits += d
            if ok:
                deletable.append(u)

    removed_nodes: list[int] = []
    removed_edges = 0
    for u in deletable:
        removed_edges += state.delete_node(u)
        if u not in state.fixed:
            removed_nodes.append(u)

    extra_edges: list[tuple[int, int]] = []
    if variant is Variant.EXTRA:
        inner = {u for u in marked if state.alive[u] and u not in in_r}
        extra_edges = state.cut_within(inner)
        # a cut edge is visited from one end only
        visits += sum(state.deg[u] for u in inner) + len(extra_edges)
        removed_edges += len(extra_edges)

    if work is not None:
        work.add(visits)
    return ReductionReport(
        variant=variant.value,
        fixed=sorted(new_fixed),
        removed_nodes=sorted(removed_nodes),
        removed_edges=removed_edges,
        extra_edges=sorted(extra_edges),
    )


def naive_reduce(
    state: ReductionState, *, work: Optional[WorkCounter] = None
) -> ReductionReport:
    """Single sweep in id order, reducing around each vertex in turn.

    For each alive vertex the neighbors are classified by direct scan
    with early abort; when an enclosed neighbor exists the vertex is
    committed and every non-escaping neighbor deleted on the spot, so
    later iterations see the mutated graph.  Vertices committed earlier
    in the sweep count as escaping and are never deleted.

    The sweep reads no covered flags, so it refuses a state with any
    covered flag set (given fixed vertices cover their neighborhoods,
    so those are refused too): it would commit vertices that no
    optimum needs.
    """
    _require_fresh(state)
    if any(state.covered):
        raise ValueError("naive reduction does not take covered or fixed vertices")
    n = state.n
    adj = state.adj
    alive = state.alive
    fixed_mask = state.fixed.mask
    nst = [-1] * n
    t1st = [-1] * n
    visits = 0
    t0 = time.perf_counter()

    fixed: list[int] = []
    removed: list[int] = []
    removed_edges = 0

    for u in range(n):
        if not alive[u] or fixed_mask[u]:
            continue
        au = adj[u]
        nst[u] = u
        d = 0
        for w in au:
            if alive[w]:
                nst[w] = u
                d += 1
        visits += d + 1

        for w in au:
            if not alive[w]:
                continue
            if fixed_mask[w]:
                t1st[w] = u
                continue
            k = 0
            for x in adj[w]:
                k += 1
                if alive[x] and nst[x] != u:
                    t1st[w] = u
                    break
            visits += k

        saw_enclosed = False
        for w in au:
            if not alive[w] or t1st[w] == u:
                continue
            near_escape = False
            k = 0
            for x in adj[w]:
                k += 1
                if alive[x] and t1st[x] == u:
                    near_escape = True
                    break
            visits += k
            if not near_escape:
                saw_enclosed = True
                break

        if saw_enclosed:
            state.fix(u)
            fixed.append(u)
            for w in au:
                if alive[w] and t1st[w] != u:
                    removed_edges += state.delete_node(w)
                    removed.append(w)

    if work is not None:
        work.add(visits)
    return ReductionReport(
        variant=Variant.NAIVE.value,
        fixed=fixed,
        removed_nodes=sorted(removed),
        removed_edges=removed_edges,
        time_apply_s=time.perf_counter() - t0,
    )


def reduce_once(
    state: ReductionState, variant: Variant, *, work: Optional[WorkCounter] = None
) -> ReductionReport:
    """One find+apply round on a fresh state.

    The witness search reads the covered flags: a vertex already
    dominated does not need domination, so it is never a witness and
    never makes a neighbor escape.
    """
    _require_fresh(state)
    if variant is Variant.NAIVE:
        return naive_reduce(state, work=work)

    before = work.visits if work is not None else 0
    t0 = time.perf_counter()
    rels = suitable_set(state, work=work)
    t1 = time.perf_counter()
    rep = apply_reduction(state, rels.references(), variant, work=work)
    rep.time_find_s = t1 - t0
    rep.time_apply_s = time.perf_counter() - t1
    if work is not None:
        rep.work_visits = work.visits - before
    return rep


def reduce_iterate(
    state: ReductionState,
    variant: Variant,
    max_rounds: int = MAX_ROUNDS,
    *,
    work: Optional[WorkCounter] = None,
) -> ReductionReport:
    """Repeat find+apply rounds on ``state`` until nothing changes.

    Variants outside ``ITERATED`` are rejected.  Every round acts on the
    caller's state in the input's ids and classifies covered-aware.
    After each acting round the committed vertices are stripped (their
    doomed edges are only then counted) and covered vertices left
    isolated are dropped.  The terminating idle round is included in the
    round count; ``converged`` is False when ``max_rounds`` ended the
    loop instead.

    Every round runs the passes on ``state`` itself; round 1 tests every
    pair, while its lists and degrees are still the input's.  Deleting a
    vertex leaves the lists that name it alone, so after an acting round
    the driver drops the dead vertices from the lists of the alive
    vertices listed next to a vertex that died in the round (touched
    ones); the stale lists of dead vertices are never read.  An alive
    vertex x loses a live neighbor y only when y is committed or deleted
    next to a reference, so y was alive when the round read the lists and
    its list names x, or when Extra cuts xy: both ends are then
    neighbors of a committed reference, so x is touched either way.  (A
    covered vertex dropped for isolation has no live neighbor left to
    lose.)  So no alive vertex's list names a dead vertex: searches from
    alive vertices (``ball`` and the passes) never reach one, and the
    dirty set is read off the lists of vertices alive at find time.

    The superset pass is not rerun on every round.  Its result is carried
    across rounds in two maps over the input's ids: each vertex's
    canonical reference R(u) and the witness-to-reference map.  Round 1
    fills both.  After an acting round, with T the alive touched
    vertices, whose lists the round refreshed, only
    U = T + {u in N(T) : R(u) in T} is re-evaluated.  The carried map is
    then right at every alive vertex:

    (i) The verdict on u reads N[u], the degrees on it, N[R(u)] and the
        covered and fixed flags of u.  Deletions only lower degrees, and
        only on T: an alive vertex that loses a live neighbor is touched,
        as shown above.  Take an alive u outside U.  Then u is not in T,
        and neither is R(u): by the definition of U when u has a
        neighbor in T, and because R(u) lies in N[u] when it has none.
        So N[u] and N[R(u)] are the lists of one round earlier, and R(u)
        kept its degree while every other member of N[u] kept or lowered
        its own, so R(u) is still the maximum.  u's covered flag changes
        only when u is next to a committed vertex, hence in T.  No alive
        vertex is fixed after round 1: committed vertices, given ones
        included, are stripped at every boundary.  So R(u) and u's
        verdict are those of one round earlier.

    (ii) Partition and filter then test only the carried pairs whose
        witness lies within ``DIRTY_RADIUS`` = 2 edges of U, and no
        witness lies farther out.  Their verdict on a pair (u, rho) reads
        the lists of N[u], rho among them, and the degrees, covered flags
        and carried superset entries of the vertices within 2 edges of
        u, fixed flags included.  Between rounds all of these change only
        on U: lists, degrees and covered flags only on T, the carried map
        only on U by (i), and fixed flags only on vertices that die, whose
        alive neighbors are touched.  Now take u more
        than 2 edges from U.  The search from u reads the same lists as
        one round earlier, and the same values on them, so the verdict
        is that of one round earlier: the verdict of that round's test,
        or, when that round did not test (u, rho), a failure, by
        induction over the rounds.  Had it passed, rho would have been
        committed and stripped, and u, alive and next to rho, would be
        in T.  So (u, rho) fails.
    """
    if variant not in ITERATED:
        raise ValueError("iterated reduction requires the plus or extra variant")
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    _require_fresh(state)

    alive = state.alive
    sup: Optional[RelationSet] = None
    dirty: dict[int, None] = {}
    fixed_all: list[int] = []
    removed_all: list[int] = []
    extra_all: list[tuple[int, int]] = []
    removed_edges = 0
    rounds = 0
    converged = True
    t_find = 0.0
    t_apply = 0.0
    before = work.visits if work is not None else 0

    while True:
        t0 = time.perf_counter()
        if sup is None:
            sup = pipeline.compute_superset(state, work=work)
            pairs = list(sup)
        else:
            redo = _reevaluate_superset(state, sup, dirty, work)
            ref_of = sup.by_witness
            pairs = [
                (u, ref_of[u])
                for u in ball(state, redo, DIRTY_RADIUS, work=work)
                if u in ref_of
            ]
        f = pipeline.compute_proper_partition(state, sup, pairs=pairs, work=work)
        rels = pipeline.filter_suitable(state, pairs, f, work=work)
        t1 = time.perf_counter()
        refs = rels.references()
        rep = apply_reduction(state, refs, variant, work=work)
        rounds += 1
        fixed_all += rep.fixed
        removed_all += rep.removed_nodes
        extra_all += rep.extra_edges
        removed_edges += rep.removed_edges
        t_find += t1 - t0
        if rep.changed:
            # Whatever dies in this round lists its live neighbors, or they
            # are next to a reference (Extra's cut partners); those still
            # alive after the strip are the dirty set.
            first = rounds == 1
            adj = state.adj
            committed = [v for v in state.fixed if alive[v]] if first else refs
            died = committed + [w for rho in refs for w in adj[rho] if not alive[w]]
            touched = dict.fromkeys(w for v in died for w in adj[v])
            strips, dropped = _strip_committed(
                state, committed, range(state.n) if first else touched
            )
            removed_edges += strips
            removed_all += dropped
            # no later round reads a dead witness's entry
            for v in (*died, *dropped):
                sup.by_witness.pop(v, None)
            dirty = {v: None for v in touched if alive[v]}
            state.refresh(dirty)
        t_apply += time.perf_counter() - t1
        if not rep.changed:
            break
        if rounds >= max_rounds:
            converged = False
            break

    rep = ReductionReport(
        variant=variant.value,
        fixed=sorted(fixed_all),
        removed_nodes=sorted(removed_all),
        removed_edges=removed_edges,
        rounds=rounds,
        time_find_s=t_find,
        time_apply_s=t_apply,
        extra_edges=sorted(extra_all),
        converged=converged,
    )
    if work is not None:
        rep.work_visits = work.visits - before
    return rep


def _reevaluate_superset(
    state: ReductionState,
    sup: RelationSet,
    dirty: dict[int, None],
    work: Optional[WorkCounter],
) -> dict[int, None]:
    """Bring the carried superset map ``sup`` up to date after a round.

    Re-evaluates the dirty vertices and their neighbors whose canonical
    reference is dirty; see (i) in ``reduce_iterate``.  Returns the
    re-evaluated vertices.
    """
    canonical = sup.canonical
    redo = dict(dirty)
    visits = 0
    for t in dirty:
        at = state.adj[t]
        visits += len(at)
        for u in at:
            if canonical[u] in dirty:
                redo[u] = None
    if work is not None:
        work.add(visits)
    part = pipeline.compute_superset(state, work=work, scope=redo)
    sup.update(part, redo)
    return redo


def fix_isolated_uncovered(state: ReductionState) -> list[int]:
    """Commit alive degree-zero vertices that nothing dominates.

    Opt-in: the plain rules leave such vertices for the residual solver.
    """
    out = []
    for v in range(state.n):
        if state.alive[v] and not state.covered[v] and state.deg[v] == 0:
            state.fix(v)
            out.append(v)
    return out


def _strip_committed(
    state: ReductionState, committed: Iterable[int], near: Iterable[int]
) -> tuple[int, list[int]]:
    """Delete the ``committed`` vertices, then the covered vertices in
    ``near`` that are left without live neighbors.

    Returns the live edges that were still pending around the committed
    vertices and the dropped vertices, in ``near``'s order.
    """
    strips = 0
    for rho in committed:
        strips += state.delete_node(rho)
    dropped: list[int] = []
    for v in near:
        if state.alive[v] and state.covered[v] and state.deg[v] == 0:
            state.delete_node(v)
            dropped.append(v)
    return strips, dropped


def export_residual(state: ReductionState) -> tuple[CompactResult, int, list[int]]:
    """Strip committed vertices out of ``state`` and compact the rest.

    Returns the compact result, the number of live edges that were still
    pending around committed vertices (now counted as removed), and the
    covered vertices dropped because stripping isolated them.  Mutates
    ``state``; pass a copy to keep the original.
    """
    # only covered vertices can be dropped; compress keeps ascending order
    near = compress(range(state.n), state.covered)
    strips, dropped = _strip_committed(state, state.fixed, near)
    return compact(state), strips, dropped
