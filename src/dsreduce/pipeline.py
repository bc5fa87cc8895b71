"""Linear-time computation of the suitable witness set.

Three passes over an annotated instance, a ``state.ReductionState``:

1. ``compute_superset``   groups vertices by canonical reference and keeps
   pairs whose open neighborhood fits inside the reference's closed one.
2. ``compute_proper_partition``   assigns each vertex near a witness the
   cheapest adjacent reference proposed by its closed neighborhood.
3. ``filter_suitable``   two-slot marking pass that drops witnesses still
   adjacent to vertices reaching outside the reference's neighborhood.

The superset pass stamps a ``[-1] * n`` list instead of clearing a set
per reference; partition and filter test membership in a set of each
neighborhood they compare against.  Combined cost stays proportional to
n + m.  Counters (``WorkCounter``) record adjacency
visits as upper bounds; bulk adds keep the hot loops tight.

Only the superset pass takes a ``scope``, a set or dict of vertices:
it then evaluates exactly those.  Partition and filter take the witness
pairs to test and read the superset map of every vertex within two
edges of their witnesses; the verdict on a pair does not depend on
which other pairs are tested.  A scoped superset pass stamps a dict
(``_Sparse``) instead of a list, and partition and filter allocate
nothing of size n, so each costs time proportional to the adjacency
it reads, not to n.

Every pass takes the state alone and reads its ``n``, ``adj`` and
``deg`` and its covered and fixed flags: a covered vertex needs no
domination and a fixed one is settled, and there is no mode that
ignores them.  A bare graph goes in as ``ReductionState(g)``, whose
flags are all clear.  On a partly reduced state the lists must name
no dead vertex.  ``reducer.reduce_iterate`` keeps one superset map
across rounds, re-evaluates it only where a degree or a canonical
reference changed, and tests only the witnesses near that.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from .graph import Graph
from .state import ReductionState


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

    ``by_witness`` maps each witness to its reference, in insertion order,
    and reads -1 for anything else.  ``canonical`` is set by
    ``compute_superset`` only: the canonical reference of every vertex it
    evaluated.
    """

    __slots__ = ("by_witness", "canonical")

    def __init__(self, pairs) -> None:
        self.by_witness = _Sparse()
        self.canonical = None
        for u, rho in pairs:
            if u == rho:
                raise ValueError(f"vertex {u} cannot witness itself")
            if u in self.by_witness:
                raise ValueError(f"witness {u} appears twice")
            self.by_witness[u] = rho

    def update(self, part: "RelationSet", verts) -> None:
        """Overwrite the entries of ``verts`` with those of ``part``, a
        superset pass that evaluated them; ``self`` must be a full one."""
        canonical = self.canonical
        by_witness = self.by_witness
        for u in verts:
            canonical[u] = part.canonical[u]
            by_witness.pop(u, None)
        by_witness.update(part.by_witness)

    def __len__(self) -> int:
        return len(self.by_witness)

    def __iter__(self):
        return iter(self.by_witness.items())

    def references(self) -> list[int]:
        """Distinct reference ids, ascending."""
        return sorted(set(self.by_witness.values()))

    def witnesses(self) -> list[int]:
        return sorted(self.by_witness)

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.by_witness.items())


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
    state: ReductionState,
    *,
    work: Optional[WorkCounter] = None,
    scope=None,
) -> RelationSet:
    """First pass: candidate pairs (u, r) with r the canonical reference.

    A pair survives when every neighbor of u sits inside N[r]; this stays
    strict whatever the state's covered flags.  Relaxing it for covered
    neighbors looks tempting but is unsound: a covered neighbor outside
    N[r] escapes classification entirely while it may still be the only
    efficient dominator of vertices far from r.  Covered vertices are
    skipped as witnesses (nothing forces a dominator into their
    neighborhood), as are fixed vertices, whose solution membership is
    already settled.

    With ``scope`` the pass evaluates exactly the vertices in scope.
    ``canonical`` of the result holds the canonical reference of every
    evaluated vertex, witness or not.
    """
    n = state.n
    adj = state.adj
    deg = state.deg
    covered = state.covered
    fixed = state.fixed.mask
    verts = range(n) if scope is None else scope
    visits = sum(map(deg.__getitem__, verts)) + len(verts)
    if scope is None:
        canonical = [canonical_reference(state, u) for u in verts]
        evaluated = enumerate(canonical)
    else:
        canonical = {u: canonical_reference(state, u) for u in verts}
        evaluated = canonical.items()

    buckets: defaultdict[int, list[int]] = defaultdict(list)
    for u, rho in evaluated:
        if rho == u or fixed[u] or covered[u]:
            continue
        buckets[rho].append(u)

    mark = [-1] * n if scope is None else _Sparse()
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
    out = RelationSet(pairs)
    out.canonical = canonical
    return out


def compute_proper_partition(
    state: ReductionState,
    sprime: RelationSet,
    *,
    pairs,
    work: Optional[WorkCounter] = None,
) -> _Sparse:
    """Second pass: partial map f over vertices near candidate witnesses.

    For each x in the closed neighborhood of the witness of a pair in
    ``pairs``, closed neighbors y propose their own reference R[y];
    proposals not adjacent to x are discarded
    and the survivor with minimum (degree, id) wins.  The min tiebreak is
    deliberate and opposite to canonical_reference; the filtering pass
    depends on exactly this choice.  Unmapped vertices read -1.
    ``sprime`` must map every vertex within two edges of those witnesses.
    """
    adj = state.adj
    deg = state.deg
    ref_of = sprime.by_witness.get
    f = _Sparse()
    visits = 0

    for u, _rho in pairs:
        visits += deg[u] + 1
        for x in (u, *adj[u]):
            if x in f:
                continue
            ax = adj[x]
            near = set(ax)
            best = -1
            bd = 0
            for y in (x, *ax):
                r = ref_of(y, -1)
                if r in near:
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
    state: ReductionState,
    pairs,
    f: _Sparse,
    *,
    work: Optional[WorkCounter] = None,
) -> RelationSet:
    """Third pass: keep only witnesses whose whole neighborhood collapses.

    ``pairs`` are the candidate pairs to test and ``f`` the partition
    over their witnesses.  Per reference r: slot1 holds N[r]; vertices
    mapped to r by f whose neighbors all lie in slot1 join slot2; a
    candidate witness u survives iff everything in N[u] except r is in
    slot2.  A vertex whose neighbors outside slot1 are all covered joins
    slot2 too: that is the whole covered-aware relaxation, and it
    applies to the classified vertices inside N[r] only.  Fixed
    vertices count as escaping, so witnesses next to one are dropped.
    """
    adj = state.adj
    covered = state.covered
    fixed = state.fixed.mask
    visits = 0

    chosen: defaultdict[int, list[int]] = defaultdict(list)
    for x, r in f.items():
        if r >= 0:
            chosen[r].append(x)

    wits: defaultdict[int, list[int]] = defaultdict(list)
    for u, rho in pairs:
        wits[rho].append(u)

    out: list[tuple[int, int]] = []

    for rho, cand in wits.items():
        slot1 = set(adj[rho])
        slot1.add(rho)
        visits += len(adj[rho]) + 1

        slot2 = set()
        for x in chosen.get(rho, ()):
            ax = adj[x]
            visits += len(ax)
            if slot1.issuperset(ax) or all(covered[w] for w in ax if w not in slot1):
                slot2.add(x)

        for u in cand:
            if u not in slot2:
                continue
            au = adj[u]
            visits += len(au)
            keep = True
            for w in au:
                if w == rho:
                    continue
                if fixed[w] or w not in slot2:
                    keep = False
                    break
            if keep:
                out.append((u, rho))

    if work is not None:
        work.add(visits)
    return RelationSet(out)


def suitable_set(
    state: ReductionState, *, work: Optional[WorkCounter] = None
) -> RelationSet:
    """Run all three passes and return the filtered witness set."""
    sprime = compute_superset(state, work=work)
    f = compute_proper_partition(state, sprime, pairs=sprime, work=work)
    return filter_suitable(state, sprime, f, work=work)
