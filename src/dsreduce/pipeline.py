"""Linear-time computation of the suitable witness set.

Three passes over a static graph:

1. ``compute_superset``   groups vertices by canonical reference and keeps
   pairs whose open neighborhood fits inside the reference's closed one.
2. ``compute_proper_partition``   assigns each vertex near a witness the
   cheapest adjacent reference proposed by its closed neighborhood.
3. ``filter_suitable``   two-slot marking pass that drops witnesses still
   adjacent to vertices reaching outside the reference's neighborhood.

All passes use stamp arrays instead of clearable sets, so combined cost
stays proportional to n + m.  Counters (``WorkCounter``) record adjacency
visits as upper bounds; bulk adds keep the hot loops tight.
"""

from __future__ import annotations

from typing import Optional

from .graph import Graph


class WorkCounter:
    """Accumulates adjacency-entry visits across pipeline stages."""

    __slots__ = ("visits",)

    def __init__(self) -> None:
        self.visits = 0

    def add(self, k: int) -> None:
        self.visits += k


class RelationSet:
    """Witness-reference pairs with at most one reference per witness."""

    __slots__ = ("relations", "by_witness")

    def __init__(self, n: int, pairs) -> None:
        self.relations: list[tuple[int, int]] = []
        self.by_witness = [-1] * n
        for u, rho in pairs:
            if u == rho:
                raise ValueError(f"vertex {u} cannot witness itself")
            if self.by_witness[u] != -1:
                raise ValueError(f"witness {u} appears twice")
            self.by_witness[u] = rho
            self.relations.append((u, rho))

    def __len__(self) -> int:
        return len(self.relations)

    def __iter__(self):
        return iter(self.relations)

    def references(self) -> list[int]:
        """Distinct reference ids, ascending."""
        return sorted({rho for _, rho in self.relations})

    def witnesses(self) -> list[int]:
        return sorted(u for u, _ in self.relations)

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.relations)


def canonical_reference(g: Graph, u: int) -> int:
    """Member of N[u] with maximum (degree, id); may be u itself."""
    deg = g.deg
    best = u
    bd = deg[u]
    for v in g.adj[u]:
        d = deg[v]
        if d > bd or (d == bd and v > best):
            best = v
            bd = d
    return best


def compute_superset(
    g: Graph,
    *,
    covered: Optional[bytearray] = None,
    fixed: Optional[bytearray] = None,
    work: Optional[WorkCounter] = None,
) -> RelationSet:
    """First pass: candidate pairs (u, r) with r the canonical reference.

    A pair survives when every neighbor of u sits inside N[r]; this stays
    strict even with ``covered`` flags.  Relaxing it for covered
    neighbors looks tempting but is unsound: a covered neighbor outside
    N[r] escapes classification entirely while it may still be the only
    efficient dominator of vertices far from r.  Covered vertices are
    skipped as witnesses (nothing forces a dominator into their
    neighborhood), as are ``fixed`` vertices, whose solution membership
    is already settled.
    """
    n = g.n
    adj = g.adj
    deg = g.deg
    canref = [canonical_reference(g, u) for u in range(n)]
    visits = 2 * g.m + n  # deg[u] + 1 summed over every u

    buckets: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        rho = canref[u]
        if rho == u:
            continue
        if fixed is not None and fixed[u]:
            continue
        if covered is not None and covered[u]:
            continue
        buckets[rho].append(u)

    mark = [-1] * n
    pairs: list[tuple[int, int]] = []
    for rho in range(n):
        bucket = buckets[rho]
        if not bucket:
            continue
        mark[rho] = rho
        for w in adj[rho]:
            mark[w] = rho
        visits += deg[rho] + 1
        for u in bucket:
            au = adj[u]
            visits += len(au)
            ok = True
            for w in au:
                if mark[w] != rho:
                    ok = False
                    break
            if ok:
                pairs.append((u, rho))

    if work is not None:
        work.add(visits)
    return RelationSet(n, pairs)


def compute_proper_partition(
    g: Graph,
    sprime: RelationSet,
    *,
    work: Optional[WorkCounter] = None,
) -> list[int]:
    """Second pass: partial map f over vertices near candidate witnesses.

    For each x in the closed neighborhood of some witness, closed
    neighbors y propose their own reference R[y]; proposals not adjacent
    to x are discarded and the survivor with minimum (degree, id) wins.
    The min tiebreak is deliberate and opposite to canonical_reference;
    the filtering pass depends on exactly this choice.  Unmapped entries
    hold -1.
    """
    n = g.n
    adj = g.adj
    deg = g.deg
    ref_of = sprime.by_witness
    f = [-1] * n
    seen = bytearray(n)
    nst = [-1] * n
    visits = 0

    for u, _rho in sprime.relations:
        visits += deg[u] + 1
        for x in (u, *adj[u]):
            if seen[x]:
                continue
            seen[x] = 1
            ax = adj[x]
            for w in ax:
                nst[w] = x
            best = -1
            bd = 0
            r = ref_of[x]
            if r >= 0 and nst[r] == x:
                best = r
                bd = deg[r]
            for y in ax:
                r = ref_of[y]
                if r >= 0 and nst[r] == x:
                    d = deg[r]
                    if best < 0 or d < bd or (d == bd and r < best):
                        best = r
                        bd = d
            f[x] = best
            visits += 2 * len(ax) + 2

    if work is not None:
        work.add(visits)
    return f


def filter_suitable(
    g: Graph,
    sprime: RelationSet,
    f: list[int],
    *,
    covered: Optional[bytearray] = None,
    fixed: Optional[bytearray] = None,
    work: Optional[WorkCounter] = None,
) -> RelationSet:
    """Third pass: keep only witnesses whose whole neighborhood collapses.

    Per reference r: slot1 stamps N[r]; vertices mapped to r by f whose
    neighbors are all slot1-stamped get slot2; a candidate witness u
    survives iff everything in N[u] except r carries slot2.  With
    covered flags, slot2 only demands that escape targets be uncovered:
    that is the whole covered-aware relaxation, and it applies to the
    classified vertices inside N[r] only.  Committed vertices count as
    escaping, so witnesses next to one are dropped.
    """
    n = g.n
    adj = g.adj
    visits = 0

    chosen: list[list[int]] = [[] for _ in range(n)]
    for x in range(n):
        r = f[x]
        if r >= 0:
            chosen[r].append(x)

    wits: list[list[int]] = [[] for _ in range(n)]
    for u, rho in sprime.relations:
        wits[rho].append(u)

    slot1 = [-1] * n
    slot2 = [-1] * n
    pairs: list[tuple[int, int]] = []

    for rho in range(n):
        cand = wits[rho]
        if not cand:
            continue
        slot1[rho] = rho
        for w in adj[rho]:
            slot1[w] = rho
        visits += len(adj[rho]) + 1

        for x in chosen[rho]:
            ax = adj[x]
            visits += len(ax)
            ok = True
            if covered is None:
                for w in ax:
                    if slot1[w] != rho:
                        ok = False
                        break
            else:
                for w in ax:
                    if slot1[w] != rho and not covered[w]:
                        ok = False
                        break
            if ok:
                slot2[x] = rho

        for u in cand:
            if slot2[u] != rho:
                continue
            au = adj[u]
            visits += len(au)
            keep = True
            for w in au:
                if w == rho:
                    continue
                if (fixed is not None and fixed[w]) or slot2[w] != rho:
                    keep = False
                    break
            if keep:
                pairs.append((u, rho))

    if work is not None:
        work.add(visits)
    return RelationSet(n, pairs)


def suitable_set(
    g: Graph,
    *,
    covered: Optional[bytearray] = None,
    fixed: Optional[bytearray] = None,
    work: Optional[WorkCounter] = None,
) -> RelationSet:
    """Run all three passes and return the filtered witness set."""
    sprime = compute_superset(g, covered=covered, fixed=fixed, work=work)
    f = compute_proper_partition(g, sprime, work=work)
    return filter_suitable(g, sprime, f, covered=covered, fixed=fixed, work=work)
