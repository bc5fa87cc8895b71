"""Greedy dominating-set heuristic with seeded tie-breaking.

Selection is by merit, the count of still-undominated vertices in the
closed neighborhood; ties go to the vertex with the higher entry in a
seeded priority permutation, so a run is fully determined by instance +
seed.

Merits are kept exact eagerly: when a vertex w becomes dominated,
``merit[w]`` and ``merit[x]`` for every neighbor x drop by one, which is
O(n + m) over a whole run.  The heap holds one int per vertex,
``-(merit * n + priority)``, so ``divmod`` by n gives back the merit the
entry was pushed with and the priority, and the inverse permutation
gives the vertex.  A popped entry whose merit is out of date is dropped
when the merit is now 0 and otherwise re-keyed in place.

Why this picks argmax (merit, priority) at every step: merits only ever
fall, so a key never under-estimates its vertex's merit, and every
vertex with positive merit keeps exactly one entry.  An entry at the top
whose merit is current therefore beats every other vertex's current
(merit, priority).  That is also what the lazy-rescan greedy kept in
``oracle.greedy_reference`` picks, so both give the same picks in the
same order.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heapreplace

from .graph import AnnotatedInstance, VertexSet

# byte -> 1 if it means "not covered", else 0
_NEEDY = bytes([1] + [0] * 255)


class TieBreaker:
    """A priority permutation of 0..n-1 and its inverse."""

    __slots__ = ("priority", "vertex_of")

    def __init__(self, priority: list[int]) -> None:
        n = len(priority)
        if n and (min(priority) < 0 or max(priority) >= n):
            raise ValueError("priority must be a permutation of 0..n-1")
        vertex_of = [-1] * n
        for v, p in enumerate(priority):
            vertex_of[p] = v
        # n entries in range leave a slot empty exactly when one repeats
        if -1 in vertex_of:
            raise ValueError("priority must be a permutation of 0..n-1")
        self.priority = list(priority)
        self.vertex_of = vertex_of

    @classmethod
    def from_seed(cls, n: int, seed: int) -> "TieBreaker":
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        return cls(perm)


def default_seed_list(master: int, count: int = 10) -> list[int]:
    rng = random.Random(master)
    return [rng.randrange(1 << 32) for _ in range(count)]


def _start(inst: AnnotatedInstance) -> tuple[bytearray, list[int], int]:
    """Seed-independent start of a run: need flags, merits, needy count."""
    need = bytearray(inst.covered).translate(_NEEDY)
    nget = need.__getitem__
    merit = [x + sum(map(nget, a)) for x, a in zip(need, inst.graph.adj)]
    return need, merit, need.count(1)


def greedy(inst: AnnotatedInstance, tb: TieBreaker, *, _shared=None) -> VertexSet:
    """Pick highest-merit vertices until every needy vertex is dominated.

    ``_shared`` is a ``_start(inst)`` result reused across seeded runs;
    it is copied, never changed.
    """
    g = inst.graph
    n = g.n
    adj = g.adj
    need, merit, remaining = _start(inst) if _shared is None else _shared
    out = VertexSet(n)
    if remaining == 0:
        return out
    need = bytearray(need)
    merit = list(merit)
    pri = tb.priority
    vertex_of = tb.vertex_of

    heap = [-(m * n + p) for m, p in zip(merit, pri) if m]
    heapify(heap)

    while remaining:
        m, p = divmod(-heap[0], n)
        v = vertex_of[p]
        cur = merit[v]
        if cur != m:
            if cur:
                heapreplace(heap, -(cur * n + p))
            else:
                heappop(heap)
            continue
        heappop(heap)
        out.add(v)
        for w in (v, *adj[v]):
            if need[w]:
                need[w] = 0
                remaining -= 1
                merit[w] -= 1
                for x in adj[w]:
                    merit[x] -= 1
    return out


def greedy_best_of(inst: AnnotatedInstance, seeds: list[int]) -> VertexSet:
    """Smallest result over the seed list; earlier seed wins ties."""
    if not seeds:
        raise ValueError("at least one seed is required")
    shared = _start(inst)
    best = None
    for s in seeds:
        got = greedy(inst, TieBreaker.from_seed(inst.graph.n, s), _shared=shared)
        if best is None or len(got) < len(best):
            best = got
    return best
