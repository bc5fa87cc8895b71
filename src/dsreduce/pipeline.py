"""Linear-time computation of the suitable witness set.

Three passes over a graph:

1. ``compute_superset``   groups vertices by canonical reference and keeps
   pairs whose open neighborhood fits inside the reference's closed one.
2. ``compute_proper_partition``   assigns each vertex near a witness the
   cheapest adjacent reference proposed by its closed neighborhood.
3. ``filter_suitable``   two-slot marking pass that drops witnesses still
   adjacent to vertices reaching outside the reference's neighborhood.

All passes use stamp arrays instead of clearable sets, so combined cost
stays proportional to n + m.  Counters (``WorkCounter``) record adjacency
visits as upper bounds; bulk adds keep the hot loops tight.

Every pass also takes a ``scope``: a set or dict of vertices.  The
superset pass evaluates exactly the vertices in scope; partition and
filter test only the witnesses in scope, reading the superset map of
every vertex within two edges of them.  ``suitable_set(scope=S)`` thus
hands the superset pass the radius-2 ball around S and returns the full
result restricted to witnesses in S.  A scoped run costs time
proportional to the adjacency near the scope, not to n: its stamps live
in dicts (``_Sparse``) instead of ``[-1] * n`` lists.  Every pass reads
only ``n``, ``adj`` and ``deg`` of the graph, so a live view of a partly
reduced graph works too; ``reducer.reduce_iterate`` keeps one superset
map across rounds and re-evaluates it only where a degree or a canonical
reference changed.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, Union

from .graph import Graph


class WorkCounter:
    """Accumulates adjacency-entry visits across pipeline stages."""

    __slots__ = ("visits",)

    def __init__(self) -> None:
        self.visits = 0

    def add(self, k: int) -> None:
        self.visits += k


class _Sparse(dict):
    """A ``[-1] * n`` list stored sparsely: absent keys read -1."""

    __slots__ = ()

    def __missing__(self, key: int) -> int:
        return -1


def _stamps(n: int, scope) -> Union[list[int], _Sparse]:
    """Vertex -> int map reading -1 until set, sized for the pass's reach."""
    return [-1] * n if scope is None else _Sparse()


def ball(g: Graph, seeds, radius: int, *, work: Optional[WorkCounter] = None) -> dict:
    """Vertices within ``radius`` edges of ``seeds``, as an ordered dict.

    Breadth-first, seeds first; each key maps to None.  Visits count the
    adjacency entries scanned.
    """
    adj = g.adj
    out = dict.fromkeys(seeds)
    frontier = list(out)
    visits = 0
    for _ in range(radius):
        nxt = []
        for v in frontier:
            av = adj[v]
            visits += len(av)
            for w in av:
                if w not in out:
                    out[w] = None
                    nxt.append(w)
        frontier = nxt
    if work is not None:
        work.add(visits)
    return out


class RelationSet:
    """Witness-reference pairs with at most one reference per witness.

    ``by_witness`` maps a witness to its reference and anything else to
    -1: a list of length ``n``, or a dict when ``n`` is None (scoped runs).
    ``canonical`` is set by ``compute_superset`` only: the canonical
    reference of every vertex it evaluated, in the same kind of map.
    """

    __slots__ = ("by_witness", "canonical", "_pairs")

    def __init__(self, n: Optional[int], pairs) -> None:
        self.by_witness = [-1] * n if n is not None else _Sparse()
        self.canonical = None
        self._pairs: Optional[list[tuple[int, int]]] = []
        for u, rho in pairs:
            if u == rho:
                raise ValueError(f"vertex {u} cannot witness itself")
            if self.by_witness[u] != -1:
                raise ValueError(f"witness {u} appears twice")
            self.by_witness[u] = rho
            self._pairs.append((u, rho))

    @property
    def relations(self) -> list[tuple[int, int]]:
        """The pairs; after ``update`` they are read off ``by_witness``."""
        if self._pairs is None:
            self._pairs = [(u, rho) for u, rho in enumerate(self.by_witness) if rho >= 0]
        return self._pairs

    def update(self, part: "RelationSet", verts) -> None:
        """Overwrite the entries of ``verts`` with those of ``part``, a
        superset pass that evaluated them; ``self`` must be a full one."""
        canonical = self.canonical
        by_witness = self.by_witness
        for u in verts:
            canonical[u] = part.canonical[u]
            by_witness[u] = -1
        for u, rho in part.relations:
            by_witness[u] = rho
        self._pairs = None

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
    scope=None,
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

    With ``scope`` the pass evaluates exactly the vertices in scope.
    ``canonical`` of the result holds the canonical reference of every
    evaluated vertex, witness or not.
    """
    n = g.n
    adj = g.adj
    deg = g.deg
    verts = range(n) if scope is None else scope
    visits = sum(map(deg.__getitem__, verts)) + len(verts)
    if scope is None:
        canonical = [canonical_reference(g, u) for u in verts]
        evaluated = enumerate(canonical)
    else:
        canonical = {u: canonical_reference(g, u) for u in verts}
        evaluated = canonical.items()

    buckets: defaultdict[int, list[int]] = defaultdict(list)
    for u, rho in evaluated:
        if rho == u:
            continue
        if fixed is not None and fixed[u]:
            continue
        if covered is not None and covered[u]:
            continue
        buckets[rho].append(u)

    mark = _stamps(n, scope)
    pairs: list[tuple[int, int]] = []
    for rho, bucket in buckets.items():
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
    out = RelationSet(n if scope is None else None, pairs)
    out.canonical = canonical
    return out


def _pairs_in(sprime: RelationSet, scope) -> list[tuple[int, int]]:
    """The pairs of ``sprime`` whose witness is in ``scope`` (all if None)."""
    if scope is None:
        return sprime.relations
    ref_of = sprime.by_witness
    return [(u, ref_of[u]) for u in scope if ref_of[u] >= 0]


def compute_proper_partition(
    g: Graph,
    sprime: RelationSet,
    *,
    work: Optional[WorkCounter] = None,
    scope=None,
) -> Union[list[int], dict[int, int]]:
    """Second pass: partial map f over vertices near candidate witnesses.

    For each x in the closed neighborhood of some witness, closed
    neighbors y propose their own reference R[y]; proposals not adjacent
    to x are discarded and the survivor with minimum (degree, id) wins.
    The min tiebreak is deliberate and opposite to canonical_reference;
    the filtering pass depends on exactly this choice.  Unmapped entries
    hold -1.  With ``scope`` only witnesses in scope count, and f is a
    dict over their closed neighborhoods (absent keys read -1); ``sprime``
    must then map every vertex within two edges of them.
    """
    n = g.n
    adj = g.adj
    deg = g.deg
    ref_of = sprime.by_witness
    f = _stamps(n, scope)
    nst = _stamps(n, scope)
    seen: set[int] = set()
    visits = 0

    for u, _rho in _pairs_in(sprime, scope):
        visits += deg[u] + 1
        for x in (u, *adj[u]):
            if x in seen:
                continue
            seen.add(x)
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
    f,
    *,
    covered: Optional[bytearray] = None,
    fixed: Optional[bytearray] = None,
    work: Optional[WorkCounter] = None,
    scope=None,
) -> RelationSet:
    """Third pass: keep only witnesses whose whole neighborhood collapses.

    Per reference r: slot1 stamps N[r]; vertices mapped to r by f whose
    neighbors are all slot1-stamped get slot2; a candidate witness u
    survives iff everything in N[u] except r carries slot2.  With
    covered flags, slot2 only demands that escape targets be uncovered:
    that is the whole covered-aware relaxation, and it applies to the
    classified vertices inside N[r] only.  Committed vertices count as
    escaping, so witnesses next to one are dropped.  With ``scope`` only
    witnesses in scope are tested; ``f`` is then the scoped partition.
    """
    n = g.n
    adj = g.adj
    visits = 0

    chosen: defaultdict[int, list[int]] = defaultdict(list)
    for x, r in (enumerate(f) if scope is None else f.items()):
        if r >= 0:
            chosen[r].append(x)

    wits: defaultdict[int, list[int]] = defaultdict(list)
    for u, rho in _pairs_in(sprime, scope):
        wits[rho].append(u)

    slot1 = _stamps(n, scope)
    slot2 = _stamps(n, scope)
    pairs: list[tuple[int, int]] = []

    for rho, cand in wits.items():
        slot1[rho] = rho
        for w in adj[rho]:
            slot1[w] = rho
        visits += len(adj[rho]) + 1

        for x in chosen.get(rho, ()):
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
    return RelationSet(n if scope is None else None, pairs)


def suitable_set(
    g: Graph,
    *,
    covered: Optional[bytearray] = None,
    fixed: Optional[bytearray] = None,
    work: Optional[WorkCounter] = None,
    scope=None,
) -> RelationSet:
    """Run all three passes and return the filtered witness set.

    With ``scope`` the result is the full result restricted to pairs
    whose witness is in scope.  The superset pass then evaluates every
    vertex within two edges of the scope, because the partition value of
    a vertex next to a scoped witness reads the candidates among its own
    neighbors.
    """
    near = None if scope is None else ball(g, scope, 2, work=work)
    sprime = compute_superset(g, covered=covered, fixed=fixed, work=work, scope=near)
    f = compute_proper_partition(g, sprime, work=work, scope=scope)
    return filter_suitable(
        g, sprime, f, covered=covered, fixed=fixed, work=work, scope=scope
    )
