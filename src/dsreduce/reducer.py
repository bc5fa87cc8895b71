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
from .pipeline import WorkCounter, suitable_set
from .state import CompactResult, ReductionState, compact


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

    @property
    def changed(self) -> bool:
        return bool(
            self.fixed or self.removed_nodes or self.removed_edges or self.extra_edges
        )


def _require_compact(state: ReductionState) -> None:
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
    outcome does not depend on the order of ``refs``.  A neighbor is
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

    n = g.n
    covered = state.covered
    msk = bytearray(n)
    in_r = bytearray(n)
    visits = 0
    new_fixed: list[int] = []

    for rho in refs:
        in_r[rho] = 1
    for rho in refs:
        if rho not in state.fixed:
            new_fixed.append(rho)
        state.fix(rho)
        msk[rho] = 1
        d = 0
        for w in state.live_neighbors(rho):
            msk[w] = 1
            d += 1
        visits += d + 1

    allow = 0 if variant is Variant.LINEAR else 1
    seen = bytearray(n)
    deletable: list[int] = []
    for rho in refs:
        for u in state.live_neighbors(rho):
            if in_r[u] or seen[u]:
                continue
            seen[u] = 1
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
        for u in range(n):
            if not state.alive[u] or not msk[u] or in_r[u]:
                continue
            doomed = []
            d = 0
            for w in state.live_neighbors(u):
                d += 1
                if w > u and msk[w] and not in_r[w]:
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
    _require_compact(state)
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
    covered_aware: bool = False,
    work: Optional[WorkCounter] = None,
) -> ReductionReport:
    """One find+apply round on a compacted instance.

    ``covered_aware`` switches the witness search to ignore vertices
    that are already dominated; the first round over a fresh instance
    gains nothing from it.
    """
    _require_compact(state)
    if variant is Variant.NAIVE:
        if covered_aware:
            raise ValueError("the naive sweep has no covered-aware mode")
        return naive_reduce(g, state, work=work)

    before = work.visits if work is not None else 0
    t0 = time.perf_counter()
    rels = suitable_set(
        g,
        covered=state.covered if covered_aware else None,
        fixed=state.fixed.mask,
        work=work,
    )
    t1 = time.perf_counter()
    rep = apply_reduction(g, state, rels.references(), variant, work=work)
    rep.time_find_s = t1 - t0
    rep.time_apply_s = time.perf_counter() - t1
    if work is not None:
        rep.work_visits = work.visits - before
    return rep


def reduce_iterate(
    g: Graph,
    state: ReductionState,
    variant: Variant,
    max_rounds: int = 1024,
    *,
    work: Optional[WorkCounter] = None,
) -> ReductionReport:
    """Alternate rounds and compaction until nothing changes.

    Only Plus and Extra profit from repetition, so anything else is
    rejected.  Rounds after the first classify covered-aware.  Between
    acting rounds ``export_residual`` strips the committed vertices (their
    doomed edges are only then counted) and drops isolated covered
    vertices; the caller's state mirrors every event in original ids.
    The terminating idle round is included in the round count.
    """
    if variant not in (Variant.PLUS, Variant.EXTRA):
        raise ValueError("iterated reduction requires the plus or extra variant")
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    _require_compact(state)

    cur_g = g
    cur_state = state.copy()
    cur_to_orig = list(range(g.n))

    fixed_all: list[int] = []
    removed_all: list[int] = []
    extra_all: list[tuple[int, int]] = []
    removed_edges = 0
    rounds = 0
    t_find = 0.0
    t_apply = 0.0
    before = work.visits if work is not None else 0

    while True:
        rep = reduce_once(
            cur_g, cur_state, variant, covered_aware=rounds > 0, work=work
        )
        rounds += 1
        t_find += rep.time_find_s
        t_apply += rep.time_apply_s

        for rho in rep.fixed:
            o = cur_to_orig[rho]
            state.fix(o)
            fixed_all.append(o)
        for u in rep.removed_nodes:
            o = cur_to_orig[u]
            state.delete_node(o)
            removed_all.append(o)
        for a, b in rep.extra_edges:
            state.delete_edge(cur_to_orig[a], cur_to_orig[b])
            extra_all.append(tuple(sorted((cur_to_orig[a], cur_to_orig[b]))))
        removed_edges += rep.removed_edges

        if not rep.changed:
            break

        t0 = time.perf_counter()
        committed = [rho for rho in cur_state.fixed if cur_state.alive[rho]]
        comp, strips, dropped = export_residual(cur_g, cur_state)
        removed_edges += strips
        for rho in committed:
            state.delete_node(cur_to_orig[rho])
        for v in dropped:
            state.delete_node(cur_to_orig[v])
            removed_all.append(cur_to_orig[v])
        t_apply += time.perf_counter() - t0
        if rounds >= max_rounds:
            break
        cur_to_orig = [cur_to_orig[old] for old in comp.new_to_old]
        cur_g = comp.graph
        cur_state = ReductionState(cur_g)
        cur_state.covered[:] = comp.covered

    rep = ReductionReport(
        variant=variant.value,
        fixed=sorted(fixed_all),
        removed_nodes=sorted(removed_all),
        removed_edges=removed_edges,
        rounds=rounds,
        time_find_s=t_find,
        time_apply_s=t_apply,
        extra_edges=sorted(extra_all),
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


def export_residual(
    g: Graph, state: ReductionState
) -> tuple[CompactResult, int, list[int]]:
    """Strip committed vertices out of ``state`` and compact the rest.

    Returns the compact result, the number of live edges that were still
    pending around committed vertices (now counted as removed), and the
    covered vertices dropped because stripping isolated them.  Mutates
    ``state``; pass a copy to keep the original.
    """
    strips = 0
    for rho in list(state.fixed):
        if state.alive[rho]:
            strips += state.delete_node(rho)
    dropped: list[int] = []
    for v in range(g.n):
        if state.alive[v] and state.covered[v] and state.live_degree[v] == 0:
            state.delete_node(v)
            dropped.append(v)
    return compact(g, state), strips, dropped
