import random

import pytest

from dsreduce.graph import Graph, load_check
from dsreduce.graphio import sidecar_lines
from dsreduce.oracle import delete_node
from dsreduce.state import ReductionState, compact


def build(n, edges) -> Graph:
    return load_check(n, edges)


def fresh(g) -> ReductionState:
    """A state of ``g`` with no vertex covered."""
    return ReductionState(g)


def edge_alive(st, u, v) -> bool:
    """Both ends of uv are alive in ``st`` and the edge was not cut."""
    return bool(st.alive[u] and st.alive[v]) and v in st.adj[u]


def read_sidecar(stream) -> dict:
    """Every section of a sidecar; map lines as (residual, input) pairs."""
    out = {"fixed": [], "covered": [], "map": [], "solution": []}
    for _lineno, section, vals in sidecar_lines(stream):
        if section == "map":
            out["map"].append((vals[0], vals[1]))
        else:
            out[section].extend(vals)
    return out


def prepared(g, covered=()) -> ReductionState:
    """A fresh state of ``g`` with the given vertices covered."""
    st = ReductionState(g)
    for v in covered:
        st.covered[v] = 1
    return st


def annotated(g, covered=None) -> ReductionState:
    """A fresh state of ``g`` whose covered flags are exactly the given
    mask."""
    st = ReductionState(g)
    if covered is not None:
        st.covered[:] = covered
    return st


def members(mask) -> list[int]:
    """The vertices a 0/1 ``mask`` sets; none for None."""
    return [] if mask is None else [v for v, flag in enumerate(mask) if flag]


def covered_by(g, covered, fixed) -> bytearray:
    """The mask of ``covered`` and N[fixed] over ``g``."""
    mask = bytearray(g.n)
    for v in covered:
        mask[v] = 1
    for f in fixed:
        for v in (f, *g.adj[f]):
            mask[v] = 1
    return mask


def committed(g, covered=(), fixed=()) -> ReductionState:
    """The annotated instance that committing ``fixed`` leaves: a fresh
    state of ``g`` less ``fixed``, renumbered as ``compact`` renumbers it,
    with the ``covered`` vertices and N(fixed) covered.  Its optimum plus
    ``len(fixed)`` is the least dominating set of ``g`` that holds
    ``fixed`` and may skip ``covered``; no driver takes a fixed vertex."""
    st = annotated(g, covered_by(g, covered, fixed))
    for f in fixed:
        delete_node(st, f)
    comp = compact(st)
    out = ReductionState(comp.graph)
    out.covered[:] = comp.covered
    return out


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
