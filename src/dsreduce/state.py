"""Mutable overlay that tracks what a reduction has done to a graph.

The underlying ``Graph`` never changes.  Deleting a node flips its alive
flag; deleting a single edge records the pair in ``deleted_edges``.  The
hot path (``live_neighbors``) only consults that set when it is nonempty,
so graphs reduced purely by node deletion pay nothing for edge support.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .graph import Graph, VertexSet


class ReductionState:
    __slots__ = ("g", "alive", "covered", "fixed", "live_degree", "deleted_edges")

    def __init__(self, g: Graph) -> None:
        self.g = g
        self.alive = bytearray([1] * g.n)
        self.covered = bytearray(g.n)
        self.fixed = VertexSet(g.n)
        self.live_degree = list(g.deg)
        self.deleted_edges: set[tuple[int, int]] = set()

    def edge_alive(self, u: int, v: int) -> bool:
        if not (self.alive[u] and self.alive[v]):
            return False
        if not self.deleted_edges:
            return True
        if u > v:
            u, v = v, u
        return (u, v) not in self.deleted_edges

    def live_neighbors(self, u: int):
        alive = self.alive
        de = self.deleted_edges
        if not de:
            for v in self.g.adj[u]:
                if alive[v]:
                    yield v
            return
        for v in self.g.adj[u]:
            if alive[v] and (u, v) not in de and (v, u) not in de:
                yield v

    def delete_node(self, u: int) -> int:
        """Remove ``u``; returns how many live edges disappeared with it."""
        if not self.alive[u]:
            return 0
        dropped = 0
        for v in list(self.live_neighbors(u)):
            self.live_degree[v] -= 1
            dropped += 1
        self.alive[u] = 0
        self.live_degree[u] = 0
        return dropped

    def delete_edge(self, u: int, v: int) -> bool:
        if not self.edge_alive(u, v):
            return False
        if u > v:
            u, v = v, u
        self.deleted_edges.add((u, v))
        self.live_degree[u] -= 1
        self.live_degree[v] -= 1
        return True

    def cover(self, u: int) -> None:
        self.covered[u] = 1

    def fix(self, rho: int) -> None:
        """Commit ``rho`` to the solution and mark its closed live
        neighborhood covered."""
        self.fixed.add(rho)
        self.cover(rho)
        for v in self.live_neighbors(rho):
            self.cover(v)

    def copy(self) -> "ReductionState":
        out = ReductionState.__new__(ReductionState)
        out.g = self.g
        out.alive = bytearray(self.alive)
        out.covered = bytearray(self.covered)
        out.fixed = self.fixed.copy()
        out.live_degree = list(self.live_degree)
        out.deleted_edges = set(self.deleted_edges)
        return out

    def is_consistent(self) -> bool:
        for u in range(self.g.n):
            if not self.alive[u]:
                if self.live_degree[u] != 0:
                    return False
                continue
            if self.live_degree[u] != sum(1 for _ in self.live_neighbors(u)):
                return False
        for u, v in self.deleted_edges:
            if u >= v or not self.g.has_edge(u, v):
                return False
        return True


@dataclass
class CompactResult:
    graph: Graph
    old_to_new: list[int]
    new_to_old: list[int]
    covered: bytearray
    fixed: list[int]


def compact(g: Graph, state: ReductionState) -> CompactResult:
    """Rebuild the live part of ``state`` as a fresh 0-based graph.

    ``old_to_new`` holds -1 for dead vertices.  Covered flags and fixed ids
    are carried across in the new numbering.  ``old_to_new`` is monotone,
    so each filtered adjacency list comes out sorted without a sort.
    """
    alive = state.alive
    old_to_new = [-1] * g.n
    new_to_old = list(compress(range(g.n), alive))
    for i, u in enumerate(new_to_old):
        old_to_new[u] = i
    gadj = g.adj
    de = state.deleted_edges
    if de:
        adj = [
            [
                old_to_new[v]
                for v in gadj[u]
                if alive[v] and (u, v) not in de and (v, u) not in de
            ]
            for u in new_to_old
        ]
    else:
        adj = [[old_to_new[v] for v in gadj[u] if alive[v]] for u in new_to_old]
    ng = Graph(len(new_to_old), adj, sum(map(len, adj)) // 2)
    covered = bytearray(compress(state.covered, alive))
    fixed = [old_to_new[f] for f in state.fixed if alive[f]]
    return CompactResult(ng, old_to_new, new_to_old, covered, fixed)
