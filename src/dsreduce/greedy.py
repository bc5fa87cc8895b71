"""Greedy dominating-set heuristic with seeded tie-breaking.

Selection is by count of still-undominated vertices in the closed
neighborhood; ties go to the vertex with the higher entry in a seeded
priority permutation, so a run is fully determined by instance + seed.
Counts are maintained lazily: re-check on pop, push back when stale.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush

from .graph import AnnotatedInstance, VertexSet


class TieBreaker:
    __slots__ = ("priority",)

    def __init__(self, priority: list[int]) -> None:
        if sorted(priority) != list(range(len(priority))):
            raise ValueError("priority must be a permutation of 0..n-1")
        self.priority = list(priority)

    @classmethod
    def from_seed(cls, n: int, seed: int) -> "TieBreaker":
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        return cls(perm)


def default_seed_list(master: int, count: int = 10) -> list[int]:
    rng = random.Random(master)
    return [rng.randrange(1 << 32) for _ in range(count)]


def greedy(inst: AnnotatedInstance, tb: TieBreaker) -> VertexSet:
    """Pick highest-merit vertices until every needy vertex is dominated."""
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


def greedy_best_of(inst: AnnotatedInstance, seeds: list[int]) -> VertexSet:
    """Smallest result over the seed list; earlier seed wins ties."""
    if not seeds:
        raise ValueError("at least one seed is required")
    best = None
    for s in seeds:
        got = greedy(inst, TieBreaker.from_seed(inst.graph.n, s))
        if best is None or len(got) < len(best):
            best = got
    return best

