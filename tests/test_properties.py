"""Property-based differential tests (they need ``hypothesis``).

The example-based tests in ``test_iterate.py`` stop at 80 vertices,
where rounds after the second rarely act.  Here graphs reach 300
vertices at average degree 2-6, with given covered and fixed masks and
round caps.  Runs are derandomized, so every run draws the same cases.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from test_iterate import (  # noqa: E402
    VARIANTS,
    check_same,
    gnm,
    random_subset,
    random_tree_plus,
)


@st.composite
def annotated_graphs(draw):
    """G(n, m) or a random tree plus extra edges, at average degree 2-6,
    with given covered and fixed vertices.

    The graph comes from a drawn seed: drawn adjacency lists lean to
    small ids, which makes stars, and stars reduce in one round.
    """
    n = draw(st.integers(2, 300))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        m = n * draw(st.integers(2, 6)) // 2
        g = gnm(rng, n, min(m, n * (n - 1) // 2))
    else:
        g = random_tree_plus(rng, n, draw(st.integers(0, 2 * n)))
    covered = random_subset(rng, n, draw(st.sampled_from((0.0, 0.1, 0.3))))
    fixed = random_subset(rng, n, draw(st.sampled_from((0.0, 0.05))))
    return g, covered, fixed


@hypothesis.settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)
@hypothesis.given(
    annotated_graphs(),
    st.sampled_from(VARIANTS),
    st.one_of(st.just(1024), st.integers(1, 3)),
)
def test_reduce_iterate_matches_reference(case, variant, max_rounds):
    g, covered, fixed = case
    check_same(g, variant, max_rounds, covered=covered, fixed=fixed)
