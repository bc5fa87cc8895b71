"""Static graph container, annotated instances and vertex-set helpers.

Graphs are simple and undirected.  Vertices are the integers ``0..n-1``.
Adjacency lists are sorted once at construction and never mutated; every
dynamic aspect of a reduction (deletions, covering, fixing) lives in
``state.ReductionState`` instead, so one Graph can back many runs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


class VertexSet:
    """Set of vertex ids with O(1) membership and stable insertion order.

    A plain ``set`` would do for membership, but reduction output must be
    reproducible, so iteration follows insertion order.
    """

    __slots__ = ("mask", "order")

    def __init__(self, n: int, items: Iterable[int] = ()) -> None:
        self.mask = bytearray(n)
        self.order: list[int] = []
        for v in items:
            self.add(v)

    def add(self, v: int) -> bool:
        """Insert ``v``; return True if it was not already present."""
        if self.mask[v]:
            return False
        self.mask[v] = 1
        self.order.append(v)
        return True

    def __contains__(self, v: int) -> bool:
        return bool(self.mask[v])

    def __iter__(self) -> Iterator[int]:
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)

    def sorted(self) -> list[int]:
        return sorted(self.order)

    def copy(self) -> "VertexSet":
        out = VertexSet(len(self.mask))
        out.mask[:] = self.mask
        out.order = list(self.order)
        return out


class Graph:
    """Immutable simple graph with sorted adjacency lists."""

    __slots__ = ("n", "m", "adj", "deg")

    def __init__(self, n: int, adj: list[list[int]], m: int) -> None:
        self.n = n
        self.m = m
        self.adj = adj
        self.deg = [len(a) for a in adj]

    def has_edge(self, u: int, v: int) -> bool:
        a = self.adj[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, ascending."""
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield (u, v)

    def validate(self) -> None:
        """Assert structural invariants; raises ValueError when broken."""
        count = 0
        for u, a in enumerate(self.adj):
            if any(a[i] >= a[i + 1] for i in range(len(a) - 1)):
                raise ValueError(f"adjacency of {u} not strictly sorted")
            for v in a:
                if v == u:
                    raise ValueError(f"self loop at {u}")
                if not 0 <= v < self.n:
                    raise ValueError(f"vertex {v} out of range")
                if not self.has_edge(v, u):
                    raise ValueError(f"edge ({u},{v}) not symmetric")
            count += len(a)
        if count != 2 * self.m:
            raise ValueError(f"m={self.m} but adjacency holds {count // 2} edges")


def load_check(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge iterable, dropping loops and duplicates."""
    if n < 0:
        raise ValueError("negative vertex count")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            continue
        if u > v:
            u, v = v, u
        seen.add((u, v))
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in seen:
        adj[u].append(v)
        adj[v].append(u)
    for a in adj:
        a.sort()
    return Graph(n, adj, len(seen))


@dataclass
class AnnotatedInstance:
    """A graph plus a flag per vertex saying it is already dominated."""

    graph: Graph
    covered: bytearray

    @classmethod
    def fresh(cls, g: Graph) -> "AnnotatedInstance":
        return cls(g, bytearray(g.n))


def first_undominated(
    g: Graph, picks: Iterable[int], covered: Optional[bytearray] = None
) -> int:
    """Lowest vertex neither covered nor in or next to ``picks``; -1 if none."""
    dominated = bytearray(g.n) if covered is None else bytearray(covered)
    for v in picks:
        dominated[v] = 1
        for w in g.adj[v]:
            dominated[w] = 1
    return dominated.find(0)
