"""Deterministic graph families for tests and benchmarks."""

from __future__ import annotations

import random

from .graph import Graph, load_check


def gnp(n: int, p: float, seed: int) -> Graph:
    """Gilbert random graph; each pair drawn independently from the seed."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = random.Random(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    return load_check(n, edges)


def complete(n: int) -> Graph:
    return load_check(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n: int) -> Graph:
    return load_check(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return load_check(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves: int) -> Graph:
    """Center 0 joined to ``leaves`` vertices."""
    if leaves < 0:
        raise ValueError("negative vertex count")
    return load_check(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def fig4_family(k: int) -> Graph:
    """Adversarial family: two joined k-cliques, one pendant gadget each.

    Left clique 0..k-1, right clique k..2k-1, complete join between
    them.  Each right vertex r carries five private vertices a, b, g1,
    g2, g3 with edges r-a, r-b, a-b and the 4-cycle a-g1-g2-g3-a.  Every
    candidate witness here is escape-adjacent, so nothing reduces, while
    quadratically many high-degree closed neighborhoods keep per-vertex
    rescans expensive.  n = 7k, m = k(k-1) + k^2 + 7k.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            edges.append((i, j))
            edges.append((k + i, k + j))
    for i in range(k):
        for j in range(k):
            edges.append((i, k + j))
    for i in range(k):
        r = k + i
        a = 2 * k + 5 * i
        b, g1, g2, g3 = a + 1, a + 2, a + 3, a + 4
        edges += [(r, a), (r, b), (a, b), (a, g1), (g1, g2), (g2, g3), (g3, a)]
    return load_check(7 * k, edges)


def gadget_path(variant: str, copies: int) -> Graph:
    """Chain of 6-vertex or 7-vertex path gadgets sharing endpoints.

    ``fig5`` copies span 5 edges each, ``fig6`` copies 6; consecutive
    copies share a vertex, giving 5c+1 or 6c+1 vertices.
    """
    if variant not in ("fig5", "fig6"):
        raise ValueError("variant must be fig5 or fig6")
    if copies < 1:
        raise ValueError("copies must be at least 1")
    step = 5 if variant == "fig5" else 6
    n = step * copies + 1
    return path(n)


def barbell_cycle() -> Graph:
    """12-vertex fixture: two pendant paths guarding a bridged 6-cycle.

    Ids: x=0, endpoints of the left pendant path 0-1-2; cycle 3..8;
    right pendant 9-10-11; u=2 and v=9 tap the cycle at opposite sides
    and share the bridge edge 2-9.
    """
    edges = [
        (0, 1), (1, 2),
        (2, 3), (2, 5),
        (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 3),
        (9, 6), (9, 8),
        (2, 9),
        (9, 10), (10, 11),
    ]
    return load_check(12, edges)
