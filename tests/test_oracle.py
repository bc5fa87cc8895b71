"""Checks for the slow reference implementations themselves.

The type table below was derived by hand from the fixture drawings and
is frozen; everything else leans on closed forms or brute force.
"""

import itertools
import random

import pytest

from conftest import build, random_graphs
from dsreduce.generators import complete, cycle, gnp, path, star
from dsreduce.oracle import (
    EXACT_LIMIT,
    classify_types,
    exact_annotated_gamma,
    exhaustive_original_rule1,
    suitable_set_direct,
)

# (neighbor, reference) -> type, every adjacent ordered pair of the
# 6-vertex fixture.  Hand-derived once, frozen.
FIG3_TYPES = {
    (0, 2): 2, (0, 3): 3, (0, 4): 2,
    (1, 2): 2, (1, 3): 3, (1, 4): 2,
    (2, 0): 1, (2, 1): 1, (2, 3): 3, (2, 4): 2,
    (3, 0): 1, (3, 1): 1, (3, 2): 1, (3, 4): 1, (3, 5): 1,
    (4, 0): 1, (4, 1): 1, (4, 2): 2, (4, 3): 3,
    (5, 3): 3,
}


def type_of(part, u):
    if u in part.n1:
        return 1
    if u in part.n2:
        return 2
    assert u in part.n3
    return 3


def test_fig3_full_type_table(fig3_graph):
    g = fig3_graph
    seen = {}
    for rho in range(g.n):
        part = classify_types(g, None, rho)
        assert sorted(part.n1 + part.n2 + part.n3) == list(g.adj[rho])
        for u in g.adj[rho]:
            seen[(u, rho)] = type_of(part, u)
    assert seen == FIG3_TYPES


def test_fig1_partition(fig1_graph):
    part = classify_types(fig1_graph, None, 0)
    assert sorted(part.n1) == [1, 2]
    assert sorted(part.n2) == [3, 4]
    assert sorted(part.n3) == [5, 6]


def test_types_respect_covered_flags(fig1_graph):
    # Covering both outside vertices turns the escapers into enclosed
    # territory: nothing demands domination beyond N[0] any more.
    covered = bytearray(fig1_graph.n)
    covered[7] = covered[8] = 1
    part = classify_types(fig1_graph, covered, 0)
    assert part.n1 == []
    assert sorted(part.n2) == []
    assert sorted(part.n3) == [1, 2, 3, 4, 5, 6]


def test_classify_disjoint_random():
    for g in random_graphs(40, (1, 12), [0.2, 0.5, 0.8], seed_base=900):
        for rho in range(g.n):
            part = classify_types(g, None, rho)
            ids = part.n1 + part.n2 + part.n3
            assert len(ids) == len(set(ids)) == g.deg[rho]


def test_direct_witnesses_fig3(fig3_graph):
    rels = suitable_set_direct(fig3_graph)
    assert sorted(rels) == [(0, 3), (1, 3), (2, 3), (4, 3), (5, 3)]


def test_direct_witnesses_path6():
    rels = suitable_set_direct(path(6))
    assert sorted(rels) == [(0, 1), (5, 4)]


def brute_gamma(g, covered=None):
    need = [v for v in range(g.n) if covered is None or not covered[v]]
    if not need:
        return 0
    for size in range(1, g.n + 1):
        for pick in itertools.combinations(range(g.n), size):
            dom = set()
            for v in pick:
                dom.add(v)
                dom.update(g.adj[v])
            if all(v in dom for v in need):
                return size
    raise AssertionError("unreachable")


def test_exact_gamma_closed_forms():
    for n in range(1, 11):
        size, _ = exact_annotated_gamma(path(n), bytearray(n))
        assert size == (n + 2) // 3, f"path({n})"
    for n in range(3, 11):
        size, _ = exact_annotated_gamma(cycle(n), bytearray(n))
        assert size == (n + 2) // 3, f"cycle({n})"
    for n in range(1, 8):
        size, _ = exact_annotated_gamma(complete(n), bytearray(n))
        assert size == 1
    g = star(6)
    size, _ = exact_annotated_gamma(g, bytearray(g.n))
    assert size == 1


def test_exact_gamma_annotated_cases():
    g = path(3)
    covered = bytearray([0, 1, 0])
    size, pick = exact_annotated_gamma(g, covered)
    assert size == 1 and pick == [1]

    g = path(2)
    size, pick = exact_annotated_gamma(g, bytearray([1, 1]))
    assert size == 0 and pick == []

    size, pick = exact_annotated_gamma(build(0, []), bytearray())
    assert size == 0


def test_exact_gamma_vs_brute_force():
    rng = random.Random(77)
    for g in random_graphs(60, (1, 8), [0.15, 0.4, 0.7], seed_base=500):
        covered = bytearray(rng.random() < 0.3 for _ in range(g.n))
        size, pick = exact_annotated_gamma(g, covered)
        assert size == brute_gamma(g, covered)
        dom = set()
        for v in pick:
            dom.add(v)
            dom.update(g.adj[v])
        assert all(covered[v] or v in dom for v in range(g.n))
        assert len(pick) == size


def test_exact_gamma_size_limit():
    g = path(EXACT_LIMIT + 1)
    with pytest.raises(ValueError):
        exact_annotated_gamma(g, bytearray(g.n))


def test_exhaustive_star_and_path():
    fixed, removed = exhaustive_original_rule1(star(3))
    assert fixed == [0] and sorted(removed) == [1, 2, 3]

    fixed, removed = exhaustive_original_rule1(path(3))
    assert fixed == [1] and sorted(removed) == [0, 2]

    fixed, removed = exhaustive_original_rule1(path(4))
    assert fixed == [1, 2] and sorted(removed) == [0, 3]


def test_exhaustive_fig3(fig3_graph):
    fixed, removed = exhaustive_original_rule1(fig3_graph)
    assert fixed == [3]
    assert sorted(removed) == [0, 1, 2, 4, 5]


def test_exhaustive_path6_two_rounds():
    # First firing happens at vertex 1, the second at 4; committed
    # vertices stay alive and act like escapers afterwards.
    fixed, removed = exhaustive_original_rule1(path(6))
    assert fixed == [1, 4]
    assert sorted(removed) == [0, 5]


def test_exhaustive_preserves_gamma_small():
    for g in random_graphs(80, (1, 10), [0.2, 0.5], seed_base=640):
        fixed, removed = exhaustive_original_rule1(g)
        base, _ = exact_annotated_gamma(g, bytearray(g.n))
        # Residual instance: survivors, with N[fixed] covered.
        alive = set(range(g.n)) - set(removed)
        covered = bytearray(g.n)
        for rho in fixed:
            covered[rho] = 1
            for w in g.adj[rho]:
                covered[w] = 1
        keep = sorted(alive - set(fixed))
        idx = {v: i for i, v in enumerate(keep)}
        edges = [
            (idx[u], idx[v])
            for u in keep
            for v in g.adj[u]
            if v > u and v in idx
        ]
        sub = build(len(keep), edges)
        subcov = bytearray(covered[v] for v in keep)
        rest, _ = exact_annotated_gamma(sub, subcov)
        assert len(fixed) + rest == base
