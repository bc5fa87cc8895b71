"""Static graph container and the domination check.

Graphs are simple and undirected.  Vertices are the integers ``0..n-1``.
``load_check`` builds the adjacency lists in one pass over the edges and
sorts each once; after that they are never mutated.  Every dynamic
aspect of a reduction (deletions, covering, fixing) lives in
``state.ReductionState`` instead, so one Graph can back many runs, and a
residual graph may share lists with the input.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional


class Graph:
    """Immutable simple graph with sorted adjacency lists."""

    __slots__ = ("n", "m", "adj", "deg")

    def __init__(self, n: int, adj: list[list[int]], m: int) -> None:
        self.n = n
        self.m = m
        self.adj = adj
        self.deg = list(map(len, adj))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, ascending."""
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield (u, v)


class CheckedEnds(list):
    """Edge endpoints flattened as u0, v0, u1, v1, ..., each already
    known to lie in ``0..n-1``: the readers in ``graphio`` check every id
    as they parse, so ``load_check`` does not test them again."""

    __slots__ = ()


def load_check(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge iterable, dropping loops and duplicates.

    One pass appends both directions of each edge to the lists, and each
    list is then sorted.  Duplicates are removed only when the lists hold
    any, which their sets tell.  Every endpoint is range-checked, loops
    included, unless ``edges`` is a ``CheckedEnds``.
    """
    if n < 0:
        raise ValueError("negative vertex count")
    adj: list[list[int]] = [[] for _ in range(n)]
    if type(edges) is CheckedEnds:
        it = iter(edges)
        for u, v in zip(it, it):
            if u != v:
                adj[u].append(v)
                adj[v].append(u)
    else:
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u != v:
                adj[u].append(v)
                adj[v].append(u)
    entries = sum(map(len, adj))
    if entries != sum(map(len, map(set, adj))):
        adj = [sorted(set(a)) for a in adj]
        entries = sum(map(len, adj))
    else:
        for a in adj:
            a.sort()
    return Graph(n, adj, entries // 2)


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
