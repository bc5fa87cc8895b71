import random

import pytest

from dsreduce.graph import Graph, load_check
from dsreduce.state import ReductionState


def build(n, edges) -> Graph:
    return load_check(n, edges)


def prepared(g, covered=(), fixed=()) -> ReductionState:
    """A fresh state of ``g`` with given covered and fixed vertices."""
    st = ReductionState(g)
    for v in covered:
        st.cover(v)
    for v in fixed:
        st.fix(v)
    return st


def annotated(g, covered=None, fixed=None) -> ReductionState:
    """A fresh state of ``g`` whose covered and fixed flags are exactly
    the given masks; unlike ``prepared``, a fixed vertex covers nothing."""
    st = ReductionState(g)
    if covered is not None:
        st.covered[:] = covered
    if fixed is not None:
        for v, flag in enumerate(fixed):
            if flag:
                st.fixed.add(v)
    return st


@pytest.fixture
def fig1_graph() -> Graph:
    # Reference vertex 0 with six neighbors 1..6 and two outside
    # vertices 7, 8.  1 and 2 escape through 7 and 8; 3 and 4 touch
    # escapers; 5 and 6 see nothing outside.
    edges = [(0, i) for i in range(1, 7)]
    edges += [(1, 7), (2, 8), (1, 3), (1, 4), (2, 4), (4, 6)]
    return load_check(9, edges)


@pytest.fixture
def fig3_graph() -> Graph:
    # Dense 6-vertex example: 3 dominates everything, 5 is its pendant.
    edges = [
        (0, 2), (0, 3), (0, 4),
        (1, 2), (1, 3), (1, 4),
        (2, 3), (2, 4),
        (3, 4), (3, 5),
    ]
    return load_check(6, edges)


def random_graphs(count, n_range, p_choices, seed_base):
    """Deterministic corpus of G(n, p) graphs for property tests."""
    out = []
    lo, hi = n_range
    for i in range(count):
        rng = random.Random(seed_base + i)
        n = rng.randint(lo, hi)
        p = rng.choice(p_choices)
        edges = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < p
        ]
        out.append(load_check(n, edges))
    return out
