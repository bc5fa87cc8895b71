"""The γ identity past the exact solver's 24 vertices (needs ``scipy``).

After ``extra --iterate`` runs to its fixed point, the committed vertices
plus an optimum of the annotated residual must be an optimum of the
input.  Both optima come from a 0-1 program solved by scipy's HiGHS
``milp``: minimise the picked vertices so that every vertex that still
needs domination has a pick in its closed neighborhood.  The oracle
lives here because the runtime and ``oracle.py`` stay stdlib-only.
"""

import random

import pytest

pytest.importorskip("scipy")
from scipy.optimize import Bounds, LinearConstraint, milp  # noqa: E402
from scipy.sparse import coo_array  # noqa: E402

from conftest import committed, covered_by  # noqa: E402
from dsreduce.generators import gnp, path  # noqa: E402
from dsreduce.graph import first_undominated  # noqa: E402
from dsreduce.reducer import Variant, reduce_iterate  # noqa: E402
from dsreduce.state import compact  # noqa: E402
from test_iterate import random_subset, with_hub  # noqa: E402


def milp_gamma(g, covered=None):
    """The fewest vertices of ``g`` dominating every vertex not ``covered``."""
    needy = [v for v in range(g.n) if covered is None or not covered[v]]
    if not needy:
        return 0
    rows, cols = [], []
    for i, v in enumerate(needy):
        for u in (v, *g.adj[v]):
            rows.append(i)
            cols.append(u)
    a = coo_array(([1.0] * len(rows), (rows, cols)), shape=(len(needy), g.n))
    res = milp(
        c=[1.0] * g.n,
        constraints=LinearConstraint(a, lb=1.0),
        integrality=[1] * g.n,
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert res.status == 0, res.message
    picks = [v for v in range(g.n) if res.x[v] > 0.5]
    assert first_undominated(g, picks, covered) == -1
    assert len(picks) == round(res.fun)
    return len(picks)


def reduced_gamma(g, covered=(), fixed=()):
    """|fixed| + |committed| + γ(residual, covered) after uncapped
    ``extra --iterate`` on what committing ``fixed`` leaves, the round
    count and the residual's vertex count."""
    st = committed(g, covered, fixed)
    rep = reduce_iterate(st, Variant.EXTRA)
    assert rep.converged
    ncommitted = len(st.fixed)
    comp = compact(st)
    got = len(fixed) + ncommitted + milp_gamma(comp.graph, comp.covered)
    return got, rep.rounds, comp.graph.n


@pytest.mark.parametrize("seed", range(4))
def test_gamma_identity_on_sparse_random_graphs(seed):
    # 250 vertices at average degree 3: several rounds act, and the
    # residual is far beyond the bitmask solver.  With given covered and
    # fixed vertices F the optimum is |F| + γ(G, covered ∪ N[F]).
    g = gnp(250, 0.012, seed)
    got, rounds, _ = reduced_gamma(g)
    assert got == milp_gamma(g) and rounds >= 3, (got, rounds)

    rng = random.Random(seed)
    covered = random_subset(rng, g.n, 0.2)
    fixed = random_subset(rng, g.n, 0.05)
    want = len(fixed) + milp_gamma(g, covered_by(g, covered, fixed))
    assert reduced_gamma(g, covered, fixed)[0] == want


@pytest.mark.parametrize(("length", "step"), [(299, 3), (300, 2), (302, 4)])
def test_gamma_identity_on_hub_paths(length, step):
    # A path with a hub joined to every step-th vertex.  With step 3 and
    # length = 2 mod 3 one reference is shed per round, so L = 299 runs
    # about L / 3 rounds to an empty residual.
    g = with_hub(path(length), step)
    got, rounds, left = reduced_gamma(g)
    assert got == milp_gamma(g), (got, rounds)
    if (length, step) == (299, 3):
        assert (rounds, left) == (101, 0)


def test_gamma_identity_on_drawn_annotated_graphs():
    # The property tests' graphs, up to 300 vertices: G(n, m), trees,
    # and paths and trees with a hub, with given covered vertices and with
    # given fixed ones committed first.
    hypothesis = pytest.importorskip("hypothesis")
    from test_properties import annotated_graphs

    # A derandomized run draws from a digest of the test's source, so any
    # edit to it would redraw the examples (and their solve times, which
    # range over 0.7-16 s); the seed takes precedence and pins them.
    @hypothesis.seed(1)
    @hypothesis.settings(
        max_examples=20, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(annotated_graphs())
    def check(case):
        g, covered, fixed = case
        want = len(fixed) + milp_gamma(g, covered_by(g, covered, fixed))
        assert reduced_gamma(g, covered, fixed)[0] == want

    check()
