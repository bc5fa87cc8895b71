"""Greedy dominating-set heuristic with seeded tie-breaking.

Selection is by merit, the count of still-undominated vertices in the
closed neighborhood; ties go to the vertex with the higher entry in a
seeded priority permutation, so a run is fully determined by instance +
seed.  The permutation for a seed is the one
``random.Random(seed).shuffle(list(range(n)))`` leaves, drawn inline
by ``TieBreaker.from_seed``; ``tests/test_greedy.py`` pins the two
together.

A run reads a ``ReductionState`` in the input's ids: a vertex needs
domination when it is alive and not covered, and only alive vertices are
picked.  The permutation ranks the alive vertices alone, in ascending id
order, because that order is the residual file's numbering
(``reduce --out``): a seed picks the same vertices on the state as on
that residual read back.

Merits are kept exact eagerly: when a vertex w becomes dominated,
``merit[w]`` and ``merit[x]`` for every neighbor x drop by one, which is
O(n + m) over a whole run.  Entries are bucketed by merit level:
``levels[m]`` holds the priorities of vertices whose entry sits at level
m.  Only the current level, the highest nonempty one, is read; it is
sorted once when it becomes current and then popped from the end, the
highest priority first.  A popped entry whose vertex's merit is now
below the level moves to the level of that merit, or is dropped at 0.
Each move lowers an entry by at least one level, so a run handles
O(n + m) entries and sorts each once: O((n + m) log n) in all.

Why this picks argmax (merit, priority) at every step.  Merits only ever
fall, and an entry only ever moves to a lower level, so two invariants
hold: (a) every vertex with positive merit has exactly one entry, at a
level no lower than its merit; (b) every level above the current one is
empty, and the current level receives no entries while it is current,
so it stays sorted.  Take the entry at the end of the current level L
and its vertex v with merit L.  Every other vertex u with positive merit
has its entry at a level between merit[u] and L, by (a) and (b), so
merit[u] <= L; when merit[u] = L its entry is also at level L, below v's
priority.  So v has the largest (merit, priority).  That is also what
the lazy-rescan greedy kept in ``oracle.greedy_reference`` picks, so
both give the same picks in the same order.

``greedy_best_of`` runs its seeds one after another in the calling
process, so its cost does not depend on how many CPUs are free.  A
forked child per stride of seeds saved time only beside a free CPU and
cost about 15% of the benchmark's ``powerlaw`` ``solve_s`` where the
usable CPUs were shared (``BENCH_38.json``).
"""

from __future__ import annotations

import random
from itertools import compress
from operator import add, and_, gt

from .state import ReductionState


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
        """The permutation ``random.Random(seed).shuffle(list(range(n)))``
        leaves, drawn inline.

        CPython's shuffle is a backward Fisher-Yates swap: position i takes
        index ``getrandbits((i + 1).bit_length())``, drawn again while it
        exceeds i.  The bit count changes only at powers of two, so each
        run of positions that share it computes it once.  The result is a
        permutation by construction, so ``__init__``'s check is skipped.
        """
        perm = list(range(n))
        bits = random.Random(seed).getrandbits
        hi = n - 1
        while hi > 0:
            k = (hi + 1).bit_length()
            lo = (1 << (k - 1)) - 1
            for i in range(hi, lo - 1, -1):
                j = bits(k)
                while j > i:
                    j = bits(k)
                perm[i], perm[j] = perm[j], perm[i]
            hi = lo - 1
        vertex_of = [0] * n
        for v, p in enumerate(perm):
            vertex_of[p] = v
        tb = cls.__new__(cls)
        tb.priority = perm
        tb.vertex_of = vertex_of
        return tb


def default_seed_list(master: int, count: int = 10) -> list[int]:
    rng = random.Random(master)
    return [rng.randrange(1 << 32) for _ in range(count)]


def _start(
    state: ReductionState,
) -> tuple[bytearray, list[int], int, list[int]]:
    """Seed-independent start of a run: need flags, merits, needy count
    and the alive vertices in ascending order."""
    alive = state.alive
    adj = state.adj
    need = bytearray(map(gt, alive, state.covered))  # alive and not covered
    # merit = |N[v] & needy|: the live degree plus one, less the alive
    # covered vertices in N[v].  An alive list names only alive vertices,
    # so the alive covered ones' lists give the rest; dead vertices'
    # merits are never read.
    merit = list(map(add, state.deg, alive))
    for v in compress(range(state.n), map(and_, alive, state.covered)):
        merit[v] -= 1
        for w in adj[v]:
            merit[w] -= 1
    return need, merit, need.count(1), list(compress(range(state.n), alive))


def greedy(state: ReductionState, tb: TieBreaker, *, _shared=None) -> list[int]:
    """Pick highest-merit alive vertices until every alive uncovered
    vertex is dominated; returns the picks in pick order.

    ``tb`` ranks the alive vertices in ascending id order: its entry i is
    the i-th alive vertex.  ``_shared`` is a ``_start(state)`` result
    reused across seeded runs; it is copied, never changed.
    """
    adj = state.adj
    need, merit, remaining, ids = _start(state) if _shared is None else _shared
    out: list[int] = []
    if remaining == 0:
        return out
    need = bytearray(need)
    merit = list(merit)
    vertex_of = list(map(ids.__getitem__, tb.vertex_of))

    top = max(merit)
    # walking priorities upward leaves every level sorted
    levels: list[list[int]] = [[] for _ in range(top + 1)]
    for p, v in enumerate(vertex_of):
        m = merit[v]
        if m:
            levels[m].append(p)
    level = levels[top]

    while remaining:
        while not level:
            top -= 1
            level = levels[top]
            level.sort()
        p = level.pop()
        v = vertex_of[p]
        cur = merit[v]
        if cur != top:
            if cur:
                levels[cur].append(p)
            continue
        out.append(v)
        for w in (v, *adj[v]):
            if need[w]:
                need[w] = 0
                remaining -= 1
                merit[w] -= 1
                for x in adj[w]:
                    merit[x] -= 1
    return out


def greedy_best_of(state: ReductionState, seeds: list[int]) -> list[int]:
    """Smallest result over the seed list; earlier seed wins ties.

    The seed-independent start is computed once and shared by every run.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    shared = _start(state)
    alive = len(shared[3])
    runs = [
        greedy(state, TieBreaker.from_seed(alive, s), _shared=shared) for s in seeds
    ]
    return min(runs, key=len)
