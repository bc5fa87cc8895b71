"""Slow reference implementations for tests.

Everything here favors being obviously correct over being fast: set
arithmetic, full rescans, exponential search, an iterated driver
that compacts after every round, and a greedy that rescans merits.
Production code paths must never import this module
(``tests/test_layering.py`` checks that).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Optional

from .graph import AnnotatedInstance, Graph, VertexSet
from .greedy import TieBreaker
from .pipeline import RelationSet, WorkCounter, canonical_reference, suitable_set
from .reducer import (
    MAX_ROUNDS,
    ReductionReport,
    Variant,
    _require_no_tombstones,
    apply_reduction,
    export_residual,
)
from .state import ReductionState

EXACT_LIMIT = 24


@dataclass
class TypePartition:
    """Disjoint split of a reference vertex's neighbors."""

    n1: list[int]
    n2: list[int]
    n3: list[int]


def classify_types(g: Graph, covered: Optional[bytearray], rho: int) -> TypePartition:
    """Split N(rho) into escaping, escape-adjacent and enclosed vertices.

    A neighbor escapes (n1) when it has an edge to a vertex outside
    N[rho] that still needs domination; with no covered flags every
    outside vertex counts.  Neighbors adjacent to an escaping one form
    n2, the rest n3.
    """
    closed = set(g.adj[rho])
    closed.add(rho)
    n1 = []
    rest = []
    for u in g.adj[rho]:
        esc = False
        for w in g.adj[u]:
            if w in closed:
                continue
            if covered is None or not covered[w]:
                esc = True
                break
        (n1 if esc else rest).append(u)
    n1set = set(n1)
    n2 = []
    n3 = []
    for u in rest:
        if any(w in n1set for w in g.adj[u]):
            n2.append(u)
        else:
            n3.append(u)
    return TypePartition(n1, n2, n3)


def suitable_set_direct(
    g: Graph,
    covered: Optional[bytearray] = None,
    fixed: Optional[bytearray] = None,
) -> RelationSet:
    """Witness set straight from the definitions, one classify per vertex.

    Committed vertices behave like escapers: they are never witnesses
    and disqualify adjacent witnesses, matching the leaf gadget a
    literal reading would attach to them.  With covered flags the
    covered-aware escape predicate applies to the witness's classified
    neighbors, but the witness's own neighborhood must still sit inside
    N[reference]; covered witnesses are skipped.
    """
    pairs = []
    for rho in range(g.n):
        part = classify_types(g, covered, rho)
        closed = set(g.adj[rho])
        closed.add(rho)
        enclosed = set(part.n3)
        for u in g.adj[rho]:
            if u not in enclosed:
                continue
            if fixed is not None and fixed[u]:
                continue
            if covered is not None and covered[u]:
                continue
            if any(w not in closed for w in g.adj[u]):
                continue
            if fixed is not None and any(fixed[w] for w in g.adj[u] if w != rho):
                continue
            if canonical_reference(g, u) == rho:
                pairs.append((u, rho))
    return RelationSet(g.n, sorted(pairs))


def exhaustive_original_rule1(g: Graph) -> tuple[list[int], list[int]]:
    """Repeat the single-reference reduction until it no longer applies.

    Scans vertices in ascending id each time, fires on the first vertex
    with an enclosed neighbor, deletes that vertex's non-escaping
    neighbors, and restarts.  Committed vertices behave like escaping
    neighbors and are never picked as references again; this mirrors the
    leaf gadget that a straight reimplementation would attach to them.
    """
    n = g.n
    adj = [set(a) for a in g.adj]
    alive = bytearray([1] * n)
    fixed_mask = bytearray(n)
    fixed: list[int] = []
    removed: list[int] = []

    def escapes(u: int, closed: set[int]) -> bool:
        if fixed_mask[u]:
            return True
        return any(w not in closed for w in adj[u])

    while True:
        fired = False
        for rho in range(n):
            if not alive[rho] or fixed_mask[rho]:
                continue
            closed = adj[rho] | {rho}
            n1 = {u for u in adj[rho] if escapes(u, closed)}
            doomed = [
                u
                for u in adj[rho]
                if u not in n1 and not (adj[u] & n1)
            ]
            if not doomed:
                continue
            deletable = [u for u in adj[rho] if u not in n1]
            fixed_mask[rho] = 1
            fixed.append(rho)
            for u in deletable:
                alive[u] = 0
                for w in adj[u]:
                    adj[w].discard(u)
                adj[u].clear()
                removed.append(u)
            fired = True
            break
        if not fired:
            return fixed, removed


def exact_annotated_gamma(inst: AnnotatedInstance) -> tuple[int, list[int]]:
    """Minimum set dominating every vertex that still needs it.

    Branch and bound over bitmasks: pick the needy vertex with the
    fewest closed neighbors, try each of them as the next pick.  Only
    meant for tiny instances; refuses anything above EXACT_LIMIT.
    """
    g = inst.graph
    n = g.n
    if n > EXACT_LIMIT:
        raise ValueError(f"instance too large for exact search: n={n} > {EXACT_LIMIT}")
    if n == 0:
        return 0, []

    reach = [0] * n
    for v in range(n):
        b = 1 << v
        for w in g.adj[v]:
            b |= 1 << w
        reach[v] = b

    need0 = 0
    for v in range(n):
        if not inst.covered[v]:
            need0 |= 1 << v
    if need0 == 0:
        return 0, []

    cand = [[] for _ in range(n)]
    for v in range(n):
        members = [v] + list(g.adj[v])
        members.sort(key=lambda x: -bin(reach[x]).count("1"))
        cand[v] = members

    best_set: list[int] = []
    best = n + 1

    greedy_need = need0
    greedy_pick: list[int] = []
    while greedy_need:
        v = max(range(n), key=lambda x: bin(reach[x] & greedy_need).count("1"))
        greedy_pick.append(v)
        greedy_need &= ~reach[v]
    best = len(greedy_pick)
    best_set = greedy_pick

    chosen: list[int] = []

    def bb(need: int) -> None:
        nonlocal best, best_set
        if not need:
            if len(chosen) < best:
                best = len(chosen)
                best_set = list(chosen)
            return
        if len(chosen) + 1 >= best:
            return
        pick_from = -1
        pick_width = n + 2
        m = need
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            width = len(cand[v])
            if width < pick_width:
                pick_width = width
                pick_from = v
        for v in cand[pick_from]:
            chosen.append(v)
            bb(need & ~reach[v])
            chosen.pop()

    bb(need0)
    return best, sorted(best_set)


def reduce_iterate_reference(
    g: Graph,
    state: ReductionState,
    variant: Variant,
    max_rounds: int = MAX_ROUNDS,
    *,
    work: Optional[WorkCounter] = None,
) -> ReductionReport:
    """Alternate rounds and compaction until nothing changes.

    The iterated driver before rounds shared one id space: every round
    reruns the full pipeline on a freshly compacted graph, so it is
    quadratic on long paths.  ``reducer.reduce_iterate`` must match it.
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
    _require_no_tombstones(state)

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
        t0 = time.perf_counter()
        rels = suitable_set(
            cur_g,
            covered=cur_state.covered if rounds > 0 else None,
            fixed=cur_state.fixed.mask,
            work=work,
        )
        t1 = time.perf_counter()
        rep = apply_reduction(cur_g, cur_state, rels.references(), variant, work=work)
        rounds += 1
        t_find += t1 - t0
        t_apply += time.perf_counter() - t1

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


def greedy_reference(inst: AnnotatedInstance, tb: TieBreaker) -> VertexSet:
    """Pick highest-merit vertices until every needy vertex is dominated.

    The greedy before eager merit counts: merit is recomputed by a
    neighbor scan on every pop, and a stale entry is pushed back.
    """
    g = inst.graph
    n = g.n
    adj = g.adj
    pri = tb.priority
    need = bytearray(1 if not c else 0 for c in inst.covered)
    remaining = sum(need)
    out = VertexSet(n)
    if remaining == 0:
        return out

    heap = []
    for v in range(n):
        merit = need[v] + sum(need[w] for w in adj[v])
        if merit:
            heap.append((-merit, -pri[v], v))
    heapify(heap)

    while remaining:
        negm, negp, v = heappop(heap)
        merit = need[v] + sum(need[w] for w in adj[v])
        if merit == 0:
            continue
        if merit != -negm:
            heappush(heap, (-merit, negp, v))
            continue
        out.add(v)
        if need[v]:
            need[v] = 0
            remaining -= 1
        for w in adj[v]:
            if need[w]:
                need[w] = 0
                remaining -= 1
    return out
