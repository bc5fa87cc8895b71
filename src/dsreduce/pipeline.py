"""Linear-time computation of the suitable witness set.

Three passes over an annotated instance, a ``state.ReductionState``:

1. ``compute_superset``   gives each vertex its canonical reference,
   the member of its closed neighborhood with maximum (degree, id), and
   keeps pairs whose open neighborhood fits inside the reference's closed
   one.
   It returns a ``Superset``: a dict from witness to reference.
2. ``compute_proper_partition``   assigns each vertex near a witness the
   cheapest adjacent reference proposed by its closed neighborhood, and
   returns that partial map.
3. ``filter_suitable``   two-slot marking pass that drops witnesses still
   adjacent to vertices reaching outside the reference's neighborhood.
   It returns the surviving (witness, reference) pairs as a list.

``suitable_pairs`` runs passes 2 and 3 on given pairs; it is a round's
find step after the superset pass, for ``suitable_set`` and for
``reducer.reduce_iterate``.  It hands the partition pass only the pairs
whose witness has more than one live neighbor: a pair whose witness u
has one, N(u) = {rho}, is suitable by definition (the proof is in
``filter_suitable``), and the filter keeps it without reading the
partition.  On a long path or gadget chain every tested pair is such a
leaf pair.

A witness has one reference and is never its own: the superset pass
skips each vertex that is its own canonical reference, its dict keeps
one reference per witness, and partition and filter only read or narrow
the pairs it found.  The tests check both properties; no pass does.

The superset pass probes before it compares: a candidate's lowest
neighbor other than its reference must be adjacent to the reference.
The probe scans a list of at most ``_SHORT_LIST`` entries, or looks up
a set of the reference's closed neighborhood, built once per reference
per call.  Only a candidate that passes is compared in full.  Partition
and filter test membership in a set of each neighborhood they compare
against.  Combined cost stays proportional to n + m.  Counters
(``WorkCounter``) record adjacency visits as upper bounds; bulk adds
keep the hot loops tight.

Only the superset pass takes ``scope``, a dict from the vertices to look
at to a reference each, or -1: it computes their canonical references
and evaluates those whose reference is not the given one.
Partition and filter take the witness pairs to test and read the
superset map of every vertex within two edges of their witnesses; the
verdict on a pair does not depend on which other pairs are tested.  A
scoped superset pass runs the same loop as a full one over its scope,
and no pass allocates anything of size n but the full superset pass's
list of canonical references, so a scoped call costs time proportional
to the adjacency it reads, not to n.  Within a pass, the order of pairs
and witnesses changes neither the verdicts nor the visits.

Every pass takes the state alone and reads its ``n``, ``adj`` and
``deg`` and its covered flags: a covered vertex needs no domination,
and there is no mode that ignores them.  No pass reads the fixed set:
a committed vertex is gone, so no alive vertex is fixed.  A
bare graph goes in as ``ReductionState(g)``, whose flags are all clear.
On a partly reduced state each alive vertex's list names exactly its
live neighbors, as every public call leaves it; a dead vertex is never
a witness.
``reducer.reduce_iterate`` keeps one superset map across rounds,
re-evaluates it only at the uncovered vertices whose verdict or
canonical reference can have changed, and tests only the witnesses near
the changes.
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


# A reference list at most this long is probed by a scan; see
# ``compute_superset``.
_SHORT_LIST = 16


class Superset(dict):
    """The superset pass's result: each witness mapped to its reference,
    in the order the pass evaluated them (by id in a full pass, in the
    order of its ``scope`` argument in a scoped one); no reader depends
    on that order.  ``canonical`` holds the canonical reference of every
    vertex the pass evaluated, witness or not: a list over all vertices
    from a full pass, a dict from a scoped one.  In the map
    ``reducer.reduce_iterate`` carries across rounds it is a list, exact
    at alive uncovered vertices only; a covered vertex is never a
    witness again.
    """

    __slots__ = ("canonical",)


def compute_superset(
    state: ReductionState,
    *,
    work: Optional[WorkCounter] = None,
    scope: Optional[dict[int, int]] = None,
) -> Superset:
    """First pass: candidate pairs (u, r) with r the canonical reference.

    A pair survives when every neighbor of u sits inside N[r]; this stays
    strict whatever the state's covered flags.  Relaxing it for covered
    neighbors looks tempting but is unsound: a covered neighbor outside
    N[r] escapes classification entirely while it may still be the only
    efficient dominator of vertices far from r.  Covered vertices are
    skipped as witnesses (nothing forces a dominator into their
    neighborhood), as are dead vertices.

    Every vertex the pass looks at gets its canonical reference, computed
    here and nowhere else.  Without ``scope`` the pass looks at and
    evaluates every vertex, and ``canonical`` of the result is the list
    of all their references.  Given ``scope``, a dict from each vertex to
    look at to a reference or -1, it looks at exactly those vertices: a
    vertex whose reference is still the given one is skipped, and every
    other is evaluated.  ``canonical`` of the result is then a dict from
    each evaluated vertex, witness or not, to its reference.  Computing
    the references counts each vertex's degree plus 1, whether it is
    evaluated or not.

    Cost.  One loop decides every candidate u (alive, uncovered, r not
    u) in up to three steps.  A u of degree 1 is a witness without
    a test, since N(u) = {r}.  Otherwise a probe comes first: u's lowest
    neighbor w other than r must lie in N(r).  When r's list is short
    (at most ``_SHORT_LIST`` entries) the probe scans w's list for r,
    which is no longer, since r has the largest degree in N[u]; when it
    is longer, the probe tests a set of N[r], built once per reference
    per call.  Only a u that passes the probe pays the full containment
    test, against that set.  So each candidate costs a bounded probe
    plus, if it passes, its own degree, and each reference's set is
    built at most once: O(n + m) in a full pass, with no factor for how
    many candidates share a long-listed reference.  Nearly every
    candidate of degree 2 or more fails the probe on a sparse graph,
    where few triangles pass through u and r.  Visits count a scanned
    list at its length, a set probe as 1 and a built set at the degree
    plus 1.
    """
    adj = state.adj
    deg = state.deg
    alive = state.alive
    covered = state.covered
    full = scope is None
    if full:
        todo = range(state.n)
        canonical = []
        visits = sum(deg) + state.n
    else:
        todo = scope
        canonical = {}
        visits = 0
    out = Superset()
    out.canonical = canonical
    closed_of: dict[int, set[int]] = {}
    for u in todo:
        au = adj[u]
        # the canonical reference: the member of N[u] with maximum
        # (degree, id), u itself included
        rho = u
        bd = deg[u]
        for v in au:
            d = deg[v]
            if d >= bd and (d > bd or v > rho):
                rho = v
                bd = d
        if full:
            canonical.append(rho)
        else:
            visits += deg[u] + 1
            if rho == scope[u]:
                continue
            canonical[u] = rho
        if rho == u or not alive[u] or covered[u]:
            continue
        if len(au) == 1:
            out[u] = rho
            continue
        # the probe: u's lowest neighbor other than rho
        w = au[0]
        if w == rho:
            w = au[1]
        short = bd <= _SHORT_LIST
        if short:
            aw = adj[w]
            visits += len(aw)
            if rho not in aw:
                continue
        closed = closed_of.get(rho)
        if closed is None:
            closed = closed_of[rho] = {rho, *adj[rho]}
            visits += bd + 1
        if not short:
            visits += 1
            if w not in closed:
                continue
        visits += len(au)
        if closed.issuperset(au):
            out[u] = rho

    if work is not None:
        work.add(visits)
    return out


def compute_proper_partition(
    state: ReductionState,
    sprime: Superset,
    *,
    pairs,
    work: Optional[WorkCounter] = None,
) -> dict[int, int]:
    """Second pass: partial map f over vertices near candidate witnesses.

    For each x in the closed neighborhood of the witness of a pair in
    ``pairs``, closed neighbors y propose their own reference R[y];
    proposals not adjacent to x are discarded
    and the survivor with minimum (degree, id) wins.  The min tiebreak is
    deliberate and opposite to the canonical reference's; the filtering
    pass depends on exactly this choice.  A mapped vertex with no surviving
    proposal maps to -1; the vertices farther out are absent.  Given no
    pair, it returns an empty map at once.  ``sprime`` must map every
    vertex within two edges of those witnesses.
    """
    if not pairs:
        return {}
    adj = state.adj
    deg = state.deg
    ref_of = sprime.get
    f: dict[int, int] = {}
    visits = 0

    # the closed neighborhoods of the witnesses; repeats are skipped below
    todo: list[int] = []
    for u, _rho in pairs:
        visits += deg[u] + 1
        todo.append(u)
        todo += adj[u]
    for x in todo:
        if x in f:
            continue
        ax = adj[x]
        near = set(ax)
        # x's own proposal first, then its neighbors'
        best = ref_of(x, -1)
        if best in near:
            bd = deg[best]
        else:
            best = -1
            bd = 0
        for y in ax:
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
    f: dict[int, int],
    *,
    work: Optional[WorkCounter] = None,
) -> list[tuple[int, int]]:
    """Third pass: keep only witnesses whose whole neighborhood collapses.

    ``pairs`` are the candidate pairs to test and ``f`` the partition
    over their witnesses.  Per reference r: slot1 holds N[r]; vertices
    mapped to r by f whose neighbors all lie in slot1 join slot2; a
    candidate witness u survives iff everything in N[u] except r is in
    slot2.  A vertex whose neighbors outside slot1 are all covered joins
    slot2 too: that is the whole covered-aware relaxation, and it
    applies to the classified vertices inside N[r] only.  The slots of
    r are built at r's first pair and kept for its others; the surviving
    pairs come out in the order of ``pairs``.  Which vertices ``f`` maps
    to each reference is gathered at the first pair whose witness is no
    leaf (see below), so a call given leaf pairs alone never reads ``f``.

    A pair whose witness u has one live neighbor, N(u) = {rho}, is kept
    at once, without reading ``f`` or building rho's slots; it costs no
    visit.  The slot test would keep it too, given the partition over
    any pairs that include it.  In that partition u's proposals come
    from N[u] = {u, rho} and must lie in N(u) = {rho}: u proposes its
    own reference rho, and rho proposes nothing, since rho's reference,
    if any, is not rho itself.  So f(u) = rho.  u's only neighbor rho
    lies in slot1 = N[rho], so u joins slot2, and N[u] less rho is
    {u}, inside slot2.  For the other pairs the filter reads ``f`` only
    on N[u], where f(x) depends on x alone; so ``f`` may come from a
    partition over the pairs whose witness has two or more live
    neighbors, and the verdicts are those of the full partition.
    """
    adj = state.adj
    covered = state.covered
    visits = 0
    chosen: Optional[defaultdict[int, list[int]]] = None
    slots: dict[int, set[int]] = {}
    out: list[tuple[int, int]] = []
    for u, rho in pairs:
        au = adj[u]
        if len(au) == 1:
            out.append((u, rho))
            continue
        if chosen is None:
            # only a pair with a non-leaf witness reads f
            chosen = defaultdict(list)
            for x, r in f.items():
                if r >= 0:
                    chosen[r].append(x)
        slot2 = slots.get(rho)
        if slot2 is None:
            ar = adj[rho]
            slot1 = {rho, *ar}
            visits += len(ar) + 1
            slot2 = slots[rho] = set()
            for x in chosen.get(rho, ()):
                ax = adj[x]
                visits += len(ax)
                for w in ax:
                    if w not in slot1 and not covered[w]:
                        break
                else:
                    slot2.add(x)
        if u not in slot2:
            continue
        visits += len(au)
        for w in au:
            if w != rho and w not in slot2:
                break
        else:
            out.append((u, rho))

    if work is not None:
        work.add(visits)
    return out


def suitable_set(
    state: ReductionState, *, work: Optional[WorkCounter] = None
) -> list[tuple[int, int]]:
    """Run all three passes and return the filtered (witness, reference)
    pairs."""
    sprime = compute_superset(state, work=work)
    return suitable_pairs(state, sprime, sprime.items(), work=work)


def suitable_pairs(
    state: ReductionState,
    sprime: Superset,
    pairs,
    *,
    work: Optional[WorkCounter] = None,
) -> list[tuple[int, int]]:
    """A round's find step after the superset pass: partition and filter
    ``pairs``, pairs of ``sprime``, and return the survivors in order.

    Only the pairs whose witness has more than one live neighbor reach
    the partition pass; ``filter_suitable`` keeps a leaf witness's pair
    without reading ``f``, and reads ``f`` only on the closed
    neighborhoods of the other witnesses.
    """
    adj = state.adj
    # a loop: Python 3.10 and 3.11 run a comprehension as a call of its own
    inner = []
    for p in pairs:
        if len(adj[p[0]]) != 1:
            inner.append(p)
    f = compute_proper_partition(state, sprime, pairs=inner, work=work)
    return filter_suitable(state, pairs, f, work=work)
