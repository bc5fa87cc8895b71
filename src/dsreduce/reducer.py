"""Reduction drivers: apply a reference set, run single rounds, iterate.

The flow per round is find (pipeline) then apply (this module).  Apply
commits every reference to the solution, covers its closed neighborhood
and deletes whatever the chosen variant allows.  Edges incident to a
committed vertex are doomed from that moment on, but they are only
physically removed at round boundaries (iterated driver) or when the
residual is exported; keeping them visible until then is what makes a
second unaware round a no-op instead of a source of fresh witnesses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from .graph import Graph
from .pipeline import WorkCounter, ball, suitable_set
from .state import CompactResult, ReductionState, compact

# Rounds after the first evaluate only the alive vertices within this many
# edges of the previous round's dirty set; ``reduce_iterate`` proves that
# no witness lies farther out.
DIRTY_RADIUS = 3

# ``reduce_iterate``'s round cap unless the caller passes another.
MAX_ROUNDS = 1024


class Variant(Enum):
    NAIVE = "naive"
    LINEAR = "linear"
    PLUS = "plus"
    EXTRA = "extra"


@dataclass
class ReductionReport:
    variant: str
    fixed: list[int] = field(default_factory=list)
    removed_nodes: list[int] = field(default_factory=list)
    removed_edges: int = 0
    rounds: int = 1
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


def _require_no_tombstones(state: ReductionState) -> None:
    if state.deleted_edges or not all(state.alive):
        raise ValueError("state must be freshly compacted (no tombstones)")


def apply_reduction(
    g: Graph,
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
    of their neighbors, whatever the size of ``g``.  A neighbor is
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
    marked: dict[int, None] = {}  # N[refs], an ordered set
    visits = 0
    new_fixed: list[int] = []

    for rho in refs:
        if rho not in state.fixed:
            new_fixed.append(rho)
        state.fix(rho)
        marked[rho] = None
        d = 0
        for w in state.live_neighbors(rho):
            marked[w] = None
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
        for u in sorted(marked):
            if not state.alive[u] or u in in_r:
                continue
            doomed = []
            d = 0
            for w in state.live_neighbors(u):
                d += 1
                if w > u and w in marked and w not in in_r:
                    doomed.append(w)
            visits += d
            for w in doomed:
                state.delete_edge(u, w)
                extra_edges.append((u, w))
                removed_edges += 1

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
    g: Graph,
    state: ReductionState,
    *,
    work: Optional[WorkCounter] = None,
) -> ReductionReport:
    """Single sweep in id order, reducing around each vertex in turn.

    For each alive vertex the neighbors are classified by direct scan
    with early abort; when an enclosed neighbor exists the vertex is
    committed and every non-escaping neighbor deleted on the spot, so
    later iterations see the mutated graph.  Vertices committed earlier
    in the sweep count as escaping and are never deleted.
    """
    _require_no_tombstones(state)
    n = g.n
    adj = g.adj
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
    g: Graph,
    state: ReductionState,
    variant: Variant,
    *,
    work: Optional[WorkCounter] = None,
) -> ReductionReport:
    """One find+apply round on a compacted instance.

    The witness search reads no covered flags: a vertex already
    dominated still counts as needing domination.
    """
    _require_no_tombstones(state)
    if variant is Variant.NAIVE:
        return naive_reduce(g, state, work=work)

    before = work.visits if work is not None else 0
    t0 = time.perf_counter()
    rels = suitable_set(g, fixed=state.fixed.mask, work=work)
    t1 = time.perf_counter()
    rep = apply_reduction(g, state, rels.references(), variant, work=work)
    rep.time_find_s = t1 - t0
    rep.time_apply_s = time.perf_counter() - t1
    if work is not None:
        rep.work_visits = work.visits - before
    return rep


class _LiveView:
    """``Graph``-shaped view of a state's live part, in the input's ids.

    ``adj`` starts as a shallow copy of the input's lists and ``deg`` is
    the state's ``live_degree``; ``refresh`` swaps in new lists, so the
    input graph is never mutated.  Dead vertices keep stale lists, which
    ``reduce_iterate`` shows are never read.
    """

    __slots__ = ("n", "adj", "deg", "state")

    def __init__(self, state: ReductionState) -> None:
        self.n = state.g.n
        self.adj = list(state.g.adj)
        self.deg = state.live_degree
        self.state = state

    def refresh(self, vertices: Iterable[int]) -> None:
        """Re-read the live neighbors of ``vertices``, which must be alive."""
        adj = self.adj
        live_neighbors = self.state.live_neighbors
        for v in vertices:
            adj[v] = list(live_neighbors(v))


def reduce_iterate(
    g: Graph,
    state: ReductionState,
    variant: Variant,
    max_rounds: int = MAX_ROUNDS,
    *,
    work: Optional[WorkCounter] = None,
) -> ReductionReport:
    """Repeat find+apply rounds on ``state`` until nothing changes.

    Only Plus and Extra profit from repetition, so anything else is
    rejected.  Every round acts on the caller's state in the input's ids.
    Rounds after the first classify covered-aware.  After each acting
    round the committed vertices are stripped (their doomed edges are
    only then counted) and covered vertices left isolated are dropped.
    The terminating idle round is included in the round count;
    ``converged`` is False when ``max_rounds`` ended the loop instead.

    Every round runs the passes on one live view of ``state``; round 1
    runs them unscoped, while the view's lists and degrees are still the
    input's.  After an acting round it re-reads the lists of the alive
    vertices it lists next to a vertex that died in the round (touched
    ones), and the stale lists of dead vertices are never read.  An alive
    vertex x loses a live neighbor y only when y is committed or deleted
    next to a reference, so y was alive when the round read the view and
    its list names x, or when Extra cuts xy next to a committed reference;
    either way x is touched.  (A covered vertex dropped for isolation has
    no live neighbor left to lose.)  So no alive vertex's list names a
    dead vertex: searches from alive vertices (``ball`` and the passes)
    never reach one, and the dirty set is read off the lists of vertices
    alive at find time.

    Each later round is scoped to the alive vertices within
    ``DIRTY_RADIUS`` edges of the previous round's dirty set D: the alive
    vertices whose live degree or covered flag changed in that round,
    boundary included, and after round 1 also every alive covered vertex.
    No witness lies outside that scope.  Suppose a witness pair (u, rho)
    of round k has no vertex of D within 3 edges of u (distances in the
    live graph).

    (a) Whether (u, rho) is a witness pair reads only the adjacency of
        the vertices within 3 edges of u and the covered and fixed flags
        of those within 2.  rho is chosen from N[u] by degree, and u
        passes the superset pass when N(u) fits in N[rho].  The partition
        value f[x] of each x in N[u] reads the superset pairs of the y in
        N[x]; each of those reads N[y], the degrees on it and the
        adjacency of y's reference, 3 edges from u.  The filter reads
        N[rho], the N[x] and the covered flags on them, 2 edges from u.
    (b) Deletions only shrink adjacency lists, so an alive vertex outside
        D has the adjacency and covered flag it had one round earlier.  A
        breadth-first search from u therefore reads the same lists in
        both rounds, up to 3 edges out, and the flags it meets are the
        same.  No vertex there is fixed in either round: committed
        vertices, given ones included, are stripped at every boundary.
        Round 1 reads no covered flags, but after it D holds every alive
        covered vertex, so none is near u and both readings agree.  So
        (u, rho) was a witness pair one round earlier too.
    (c) Then rho was committed and stripped one round earlier, and u,
        alive and adjacent to rho, lost a neighbor: u is in D.

    That contradicts the assumption, so radius 3 loses nothing.
    """
    if variant not in (Variant.PLUS, Variant.EXTRA):
        raise ValueError("iterated reduction requires the plus or extra variant")
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    _require_no_tombstones(state)

    alive = state.alive
    view = _LiveView(state)
    seeds = None
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
        scope = None if seeds is None else ball(view, seeds, DIRTY_RADIUS, work=work)
        rels = suitable_set(
            view,
            covered=state.covered if rounds > 0 else None,
            fixed=state.fixed.mask,
            work=work,
            scope=scope,
        )
        t1 = time.perf_counter()
        refs = rels.references()
        rep = apply_reduction(g, state, refs, variant, work=work)
        rounds += 1
        fixed_all += rep.fixed
        removed_all += rep.removed_nodes
        extra_all += rep.extra_edges
        removed_edges += rep.removed_edges
        t_find += t1 - t0
        if rep.changed:
            # Whatever dies in this round had its live neighbors listed in
            # the view; those still alive after the strip are the dirty set.
            first = rounds == 1
            adj = view.adj
            committed = [v for v in state.fixed if alive[v]] if first else refs
            died = committed + [w for rho in refs for w in adj[rho] if not alive[w]]
            touched = dict.fromkeys(w for v in died for w in adj[v])
            strips, dropped = _strip_committed(
                state, committed, range(g.n) if first else touched
            )
            removed_edges += strips
            removed_all += dropped
            seeds = [v for v in touched if alive[v]]
            view.refresh(seeds)
            if first:
                seeds += [v for v in range(g.n) if alive[v] and state.covered[v]]
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


def fix_isolated_uncovered(g: Graph, state: ReductionState) -> list[int]:
    """Commit alive degree-zero vertices that nothing dominates.

    Opt-in: the plain rules leave such vertices for the residual solver.
    """
    out = []
    for v in range(g.n):
        if state.alive[v] and not state.covered[v] and state.live_degree[v] == 0:
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
        if state.alive[v] and state.covered[v] and state.live_degree[v] == 0:
            state.delete_node(v)
            dropped.append(v)
    return strips, dropped


def export_residual(
    g: Graph, state: ReductionState
) -> tuple[CompactResult, int, list[int]]:
    """Strip committed vertices out of ``state`` and compact the rest.

    Returns the compact result, the number of live edges that were still
    pending around committed vertices (now counted as removed), and the
    covered vertices dropped because stripping isolated them.  Mutates
    ``state``; pass a copy to keep the original.
    """
    strips, dropped = _strip_committed(state, state.fixed, range(g.n))
    return compact(g, state), strips, dropped
