"""Slow reference implementations and invariant checks for tests.

Everything here favors being obviously correct over being fast: set
arithmetic, full rescans, exponential search, an iterated driver that
compacts after every round, a greedy that rescans merits, and the
instance grammar read one line at a time with a regular expression per
id.  ``naive_reduce``, a single id-order sweep of the original rule, is
here for the tests that compare against it.
The graph and state invariant checkers, the state copy and
``delete_node`` live here too, since only tests, the sweep and the
reference driver use them.
Production code paths must never import this module
(``tests/test_layering.py`` checks that).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Optional

from .graph import Graph, load_check
from .graphio import FormatError
from .greedy import TieBreaker
from .pipeline import WorkCounter, suitable_set
from .reducer import (
    ReductionReport,
    Variant,
    _require_fresh,
    apply_reduction,
    export_residual,
)
from .state import ReductionState, compact

EXACT_LIMIT = 24


def canonical_reference(g: Graph, u: int) -> int:
    """Member of N[u] with maximum (degree, id); may be u itself.

    The superset pass and ``reducer._reevaluate_superset`` compute it
    inline; the tests hold both to this definition.
    """
    deg = g.deg
    best = u
    bd = deg[u]
    for v in g.adj[u]:
        d = deg[v]
        if d > bd or (d == bd and v > best):
            best = v
            bd = d
    return best


def check_graph(g: Graph) -> None:
    """Check the structural invariants of ``g``; raises ValueError when
    one is broken."""
    count = 0
    for u, a in enumerate(g.adj):
        if any(a[i] >= a[i + 1] for i in range(len(a) - 1)):
            raise ValueError(f"adjacency of {u} not strictly sorted")
        for v in a:
            if v == u:
                raise ValueError(f"self loop at {u}")
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")
            if u not in g.adj[v]:
                raise ValueError(f"edge ({u},{v}) not symmetric")
        count += len(a)
    if count != 2 * g.m:
        raise ValueError(f"m={g.m} but adjacency holds {count // 2} edges")


def live_neighbors(st: ReductionState, u: int) -> list[int]:
    """The alive vertices that ``u``'s list in ``st`` names."""
    return [v for v in st.adj[u] if st.alive[v]]


def state_consistent(st: ReductionState) -> bool:
    """Each alive vertex's list is exactly its live neighbors, in
    ascending order: it names no dead vertex, and each vertex it names
    is an input neighbor that names it back; its length is the degree.
    Dead vertices have degree 0, and no alive vertex is fixed: a
    committed vertex is gone."""
    gadj = st.g.adj
    live = [
        set(live_neighbors(st, u)) if st.alive[u] else set()
        for u in range(st.n)
    ]
    return not any(st.alive[v] for v in st.fixed) and all(
        st.deg[u] == len(lu)
        and lu <= set(gadj[u])
        and all(u in live[v] for v in lu)
        and (not st.alive[u] or st.adj[u] == sorted(lu))
        for u, lu in enumerate(live)
    )


def delete_node(st: ReductionState, u: int) -> int:
    """Remove ``u`` from ``st`` and from its live neighbors' lists;
    returns how many live edges disappeared with it."""
    alive = st.alive
    if not alive[u]:
        return 0
    adj = st.adj
    deg = st.deg
    dropped = 0
    for v in adj[u]:
        if alive[v]:
            deg[v] -= 1
            adj[v] = [w for w in adj[v] if w != u]
            dropped += 1
    alive[u] = 0
    deg[u] = 0
    return dropped


def copy_state(st: ReductionState) -> ReductionState:
    """An independent copy of ``st``.  The lists are shared, which is
    safe because a state only ever replaces them."""
    out = ReductionState.__new__(ReductionState)
    out.g = st.g
    out.n = st.n
    out.adj = list(st.adj)
    out.deg = list(st.deg)
    out.alive = bytearray(st.alive)
    out.covered = bytearray(st.covered)
    out.fixed = set(st.fixed)
    return out


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
    g: Graph, covered: Optional[bytearray] = None
) -> list[tuple[int, int]]:
    """Witness set straight from the definitions, one classify per vertex,
    as (witness, reference) pairs in ascending order.

    With covered flags the covered-aware escape predicate applies to the
    witness's classified neighbors, but the witness's own neighborhood
    must still sit inside N[reference]; covered witnesses are skipped.
    A committed vertex is no vertex of ``g``: committing one leaves the
    graph without it and its neighbors covered.
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
            if covered is not None and covered[u]:
                continue
            if any(w not in closed for w in g.adj[u]):
                continue
            if canonical_reference(g, u) == rho:
                pairs.append((u, rho))
    return sorted(pairs)


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
            enclosed = [
                u
                for u in adj[rho]
                if u not in n1 and not (adj[u] & n1)
            ]
            if not enclosed:
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


def naive_reduce(
    state: ReductionState, *, work: Optional[WorkCounter] = None
) -> ReductionReport:
    """Single sweep in id order, reducing around each vertex in turn.

    For each alive vertex the neighbors are classified by direct scan
    with early abort; when an enclosed neighbor exists the vertex is
    committed and every non-escaping neighbor deleted on the spot, so
    later iterations see the mutated graph.  Vertices committed earlier
    in the sweep count as escaping and are never deleted.  When the
    sweep ends, its commits are removed like every committed vertex, and
    the report counts their edges.

    The sweep reads no covered flags, so it refuses a state with any
    covered flag set: it would commit vertices that no optimum needs.
    Like every driver it refuses a fixed vertex too.
    """
    _require_fresh(state)
    if any(state.covered):
        raise ValueError("naive reduction does not take covered vertices")
    n = state.n
    adj = state.adj
    alive = state.alive
    covered = state.covered
    fixed = state.fixed
    nst = [-1] * n
    t1st = [-1] * n
    visits = 0

    committed: list[int] = []
    removed: list[int] = []
    removed_edges = 0

    for u in range(n):
        if not alive[u] or u in fixed:
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
            if w in fixed:
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
            fixed.add(u)
            covered[u] = 1
            for w in live_neighbors(state, u):
                covered[w] = 1
            committed.append(u)
            for w in au:
                if alive[w] and t1st[w] != u:
                    removed_edges += delete_node(state, w)
                    removed.append(w)
    for u in committed:
        removed_edges += delete_node(state, u)

    if work is not None:
        work.add(visits)
    return ReductionReport(
        fixed=committed,
        removed_nodes=sorted(removed),
        removed_edges=removed_edges,
    )


def exact_annotated_gamma(g: Graph, covered: bytearray) -> tuple[int, list[int]]:
    """Minimum set dominating every vertex of ``g`` not ``covered``.

    Branch and bound over bitmasks: pick the needy vertex with the
    fewest closed neighbors, try each of them as the next pick.  Only
    meant for tiny instances; refuses anything above EXACT_LIMIT.
    """
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
        if not covered[v]:
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


def apply_reference(
    state: ReductionState, refs, variant: Variant
) -> ReductionReport:
    """``reducer.apply_reduction`` from its definition, on ``state``.

    Mark N(refs), commit, cover and remove the references, cover the
    marked neighbors, then classify each marked neighbor that is no
    reference by a direct scan of its live neighbors: it is deletable
    when at most ``allow`` of them (0 for Linear, 1 otherwise) are still
    uncovered.  Delete the deletable ones, then, under Extra, cut every
    live edge between two marked survivors.  Then remove each covered
    vertex that had a live neighbor and has none left, and list it as
    removed.  Every edge at a removed vertex counts once.  Each alive
    list is replaced by the live neighbors; lists are never edited.
    Counts no visits.
    """
    refs = set(refs)
    if not all(state.alive[rho] for rho in refs):
        raise ValueError("a reference is not alive")
    live = {u: set(live_neighbors(state, u)) for u in range(state.n) if state.alive[u]}
    marked = set().union(*(live[rho] for rho in refs)) - refs
    state.fixed |= refs
    for v in refs | marked:
        state.covered[v] = 1
    allow = 0 if variant is Variant.LINEAR else 1
    deletable = {
        u for u in marked
        if sum(1 for w in live[u] if not state.covered[w]) <= allow
    }
    gone = refs | deletable
    lost = {frozenset((u, w)) for u in gone for w in live[u]}
    for u in gone:
        state.alive[u] = 0
    cuts = []
    if variant is Variant.EXTRA:
        inner = marked - deletable
        cuts = sorted((u, w) for u in inner for w in live[u] & inner if u < w)
        for u in inner:
            state.adj[u] = [w for w in state.adj[u] if w not in inner]
    for u in range(state.n):
        if state.alive[u]:
            state.adj[u] = live_neighbors(state, u)
        state.deg[u] = len(state.adj[u]) if state.alive[u] else 0
    isolated = {
        u for u in live
        if state.alive[u] and state.covered[u] and live[u] and not state.deg[u]
    }
    for u in isolated:
        state.alive[u] = 0
    return ReductionReport(
        fixed=sorted(refs),
        removed_nodes=sorted(deletable | isolated),
        removed_edges=len(lost) + len(cuts),
        extra_edges=cuts,
    )


def one_round(
    state: ReductionState, variant: Variant, *, work: Optional[WorkCounter] = None
) -> ReductionReport:
    """One find+apply round on ``state``, covered-aware: apply removes
    the vertices it commits and the covered vertices it leaves isolated;
    those covered and isolated on entry stay alive until
    ``export_residual`` drops them.  ``reducer.reduce_iterate`` under
    ``max_rounds=1`` must match it after the export."""
    refs = sorted({rho for _u, rho in suitable_set(state, work=work)})
    return apply_reduction(state, refs, variant, work=work)


def reduce_iterate_reference(
    state: ReductionState,
    variant: Variant,
    max_rounds: Optional[int] = None,
    *,
    work: Optional[WorkCounter] = None,
) -> ReductionReport:
    """Alternate rounds and compaction until nothing changes.

    The iterated driver before rounds shared one id space: every round
    is ``one_round`` on a freshly compacted graph, so it is quadratic on
    long paths.  ``reducer.reduce_iterate`` must match it.  Before
    round 1 ``export_residual`` drops the vertices covered and isolated
    on entry, and apply drops every covered vertex it isolates, so no
    round leaves one; the caller's state mirrors every event in original
    ids, a commit removing its vertex at once, and a cut edge going
    before the removed vertices, an end of which may be dropped for
    isolation.  The terminating idle round is included in the round
    count; ``max_rounds`` None runs to it.
    """
    if max_rounds is not None and max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    _require_fresh(state)

    removed_all = export_residual(state)
    cur_state = copy_state(state)
    cur_to_orig = list(range(state.n))

    fixed_all: list[int] = []
    extra_all: list[tuple[int, int]] = []
    removed_edges = 0
    rounds = 0

    while True:
        rep = one_round(cur_state, variant, work=work)
        rounds += 1
        if not rep.fixed:
            break

        for rho in rep.fixed:
            o = cur_to_orig[rho]
            state.fixed.add(o)
            for v in (o, *live_neighbors(state, o)):
                state.covered[v] = 1
            delete_node(state, o)
            fixed_all.append(o)
        for a, b in rep.extra_edges:
            state.cut_within({cur_to_orig[a], cur_to_orig[b]})
            extra_all.append(tuple(sorted((cur_to_orig[a], cur_to_orig[b]))))
        for u in rep.removed_nodes:
            o = cur_to_orig[u]
            delete_node(state, o)
            removed_all.append(o)
        removed_edges += rep.removed_edges

        if rounds == max_rounds:
            break
        comp = compact(cur_state)
        cur_to_orig = [cur_to_orig[old] for old in comp.new_to_old]
        cur_state = ReductionState(comp.graph)
        cur_state.covered[:] = comp.covered

    return ReductionReport(
        fixed=sorted(fixed_all),
        removed_nodes=sorted(removed_all),
        removed_edges=removed_edges,
        rounds=rounds,
        extra_edges=sorted(extra_all),
    )


def greedy_reference(g: Graph, covered: bytearray, tb: TieBreaker) -> list[int]:
    """Pick highest-merit vertices until every vertex of ``g`` not
    ``covered`` is dominated; returns the picks in pick order.

    The greedy before eager merit counts, on a whole graph: merit is
    recomputed by a neighbor scan on every pop, and a stale entry is
    pushed back.
    """
    n = g.n
    adj = g.adj
    pri = tb.priority
    need = bytearray(1 if not c else 0 for c in covered)
    remaining = sum(need)
    out: list[int] = []
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
        out.append(v)
        if need[v]:
            need[v] = 0
            remaining -= 1
        for w in adj[v]:
            if need[w]:
                need[w] = 0
                remaining -= 1
    return out


_ID = re.compile("[0-9]+")


def read_instance_reference(stream, base: int) -> Graph:
    """The instance grammar, one line at a time: ``base`` 1 reads a .gr
    file (the header required), 0 an edge list (the header optional, n
    one more than the largest id without it).  ``graphio``'s chunked
    reader must give the same graph or the same message on any text."""
    n = m = -1
    head = 0
    edges: list[tuple[int, int]] = []

    def number(tok: str, lineno: int, what: str) -> int:
        if not _ID.fullmatch(tok):
            raise FormatError(f"line {lineno}: non-numeric {what}")
        return int(tok)

    for lineno, raw in enumerate(stream, start=1):
        tok = raw.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] == "p":
            if n >= 0:
                raise FormatError(f"line {lineno}: duplicate header")
            if edges:
                raise FormatError(f"line {lineno}: header must lead the file")
            if len(tok) != 4:
                raise FormatError(f"line {lineno}: header needs 'p <kind> <n> <m>'")
            n = number(tok[2], lineno, "header counts")
            m = number(tok[3], lineno, "header counts")
            head = lineno
            continue
        if n < 0 and base:
            raise FormatError(f"line {lineno}: edge before header")
        if len(tok) != 2:
            raise FormatError(f"line {lineno}: expected two endpoints")
        u, v = (number(t, lineno, "endpoint") - base for t in tok)
        if n >= 0 and not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"line {lineno}: vertex id outside {base}..{n - 1 + base}")
        if len(edges) == m:
            raise FormatError(f"line {lineno}: more edges than the header declares")
        edges.append((u, v))
    if n < 0:
        if base:
            raise FormatError("missing 'p' header")
        n = 1 + max(map(max, edges), default=-1)
    if len(edges) < m:
        raise FormatError(f"line {head}: header declares {m} edges, file holds {len(edges)}")
    return load_check(n, edges)
