"""The reduction instance: an unchanged input and the live graph on top.

``ReductionState`` is all a reduction driver takes.  It keeps the input
as ``g`` and has the ``Graph`` shape the pipeline passes read (``n``,
``adj`` and ``deg``) plus alive and covered flags and ``fixed``, the set
of committed vertices.  A committed vertex is gone: a driver starts
from an empty set and removes each vertex in the call that commits it,
so no alive vertex is fixed, ``fixed`` only records what the drivers
output, and every reader of it sorts it or does not depend on its
order.  ``adj`` starts as a shallow copy of the input's lists.
Removing a vertex, committed or deleted, flips its alive flag and
lowers its neighbors' degrees, and the call that removes it replaces
each neighbor's list by its alive members.  So after every public call
each alive vertex's list names exactly its live neighbors, and its
length is the degree.  A dead vertex's list may go stale, and no
driver or pass reads it.
Deleting edges (``cut_within``) replaces the lists concerned.  Lists are
only ever replaced, never mutated in place, so the input graph and
copies of a state stay intact.  Every list stays sorted: the input's
lists are, and a list is only ever filtered.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress

from .graph import Graph


def _in_sorted(a: list[int], x: int) -> bool:
    i = bisect_left(a, x)
    return i < len(a) and a[i] == x


class ReductionState:
    __slots__ = ("g", "n", "adj", "deg", "alive", "covered", "fixed")

    def __init__(self, g: Graph) -> None:
        self.g = g
        self.n = g.n
        self.adj = list(g.adj)
        self.deg = list(g.deg)
        self.alive = bytearray([1] * g.n)
        self.covered = bytearray(g.n)
        self.fixed: set[int] = set()

    def cut_within(self, verts) -> list[tuple[int, int]]:
        """Delete every live edge between two members of ``verts``, a set
        of alive vertices, rebuilding a member's list only if it loses one.

        A member's partners are found from the smaller side: its list is
        scanned when its degree is at most ``len(verts)``, and otherwise
        bisected for each other member, so a hub costs a few probes.
        Returns the cut edges as pairs (u, w) with u < w, each member's in
        ascending w.
        """
        adj = self.adj
        deg = self.deg
        k = len(verts)
        cuts: list[tuple[int, int]] = []
        for u in verts:
            au = adj[u]
            if deg[u] <= k:
                hits = [w for w in au if w in verts]
            else:
                hits = sorted(w for w in verts if w != u and _in_sorted(au, w))
            if hits:
                cuts += [(u, w) for w in hits if w > u]
                adj[u] = [w for w in au if w not in verts]
                deg[u] -= len(hits)
        return cuts


@dataclass
class CompactResult:
    graph: Graph
    old_to_new: list[int]
    new_to_old: list[int]
    covered: bytearray


def compact(state: ReductionState) -> CompactResult:
    """Rebuild the live part of ``state`` as a fresh 0-based graph.

    ``old_to_new`` holds -1 for dead vertices.  Covered flags are carried
    across in the new numbering; no alive vertex is fixed, so no fixed
    id is.  Each alive list names only alive vertices, so it is mapped
    whole; ``old_to_new`` is monotone, so it comes out sorted without a
    sort.
    """
    alive = state.alive
    sadj = state.adj
    old_to_new = [-1] * state.n
    new_to_old = list(compress(range(state.n), alive))
    for i, u in enumerate(new_to_old):
        old_to_new[u] = i
    new_id = old_to_new.__getitem__
    adj = [list(map(new_id, sadj[u])) for u in new_to_old]
    ng = Graph(len(new_to_old), adj, sum(map(len, adj)) // 2)
    covered = bytearray(compress(state.covered, alive))
    return CompactResult(ng, old_to_new, new_to_old, covered)
