"""Property-based tests (they need ``hypothesis``).

The example-based tests in ``test_iterate.py`` stop at 80 vertices,
where rounds after the second rarely act.  Here graphs reach 300
vertices at average degree 2-6, with given covered and fixed masks and
round caps.  The pipeline is checked against the direct definition on
annotated states of up to 150 vertices.  The instance and sidecar
readers are fed line soup.  Runs are derandomized, so every run draws
the same cases.
"""

import io
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from conftest import annotated, prepared  # noqa: E402
from dsreduce.graphio import (  # noqa: E402
    FormatError,
    read_edge_list,
    read_gr,
    read_sidecar,
)
from dsreduce.oracle import suitable_set_direct  # noqa: E402
from dsreduce.pipeline import suitable_set  # noqa: E402
from dsreduce.state import ReductionState  # noqa: E402
from test_iterate import (  # noqa: E402
    VARIANTS,
    check_same,
    gnm,
    random_subset,
    random_tree_plus,
)
from test_pipeline import assert_safe_pairs  # noqa: E402


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


@st.composite
def pipeline_states(draw):
    """A G(n, m) or tree-plus-edges graph of up to 150 vertices, and a
    fresh state of it: with no flags, with raw covered and fixed masks,
    or with vertices covered and fixed through the state (a fixed vertex
    then covers its neighbors)."""
    n = draw(st.integers(2, 150))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        m = n * draw(st.integers(1, 6)) // 2
        g = gnm(rng, n, min(m, n * (n - 1) // 2))
    else:
        g = random_tree_plus(rng, n, draw(st.integers(0, 2 * n)))
    kind = draw(st.sampled_from(("none", "raw", "built")))
    if kind == "none":
        return ReductionState(g)
    p_cov = draw(st.sampled_from((0.1, 0.3, 0.6)))
    p_fix = draw(st.sampled_from((0.0, 0.05, 0.2)))
    if kind == "raw":
        covered = bytearray(rng.random() < p_cov for _ in range(n))
        fixed = bytearray(rng.random() < p_fix for _ in range(n))
        return annotated(g, covered, fixed)
    return prepared(g, random_subset(rng, n, p_cov), random_subset(rng, n, p_fix))


@hypothesis.settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)
@hypothesis.given(pipeline_states())
def test_pipeline_contains_direct_definition_on_states(state):
    g, covered, fixed = state.g, state.covered, state.fixed.mask
    got = set(suitable_set(state))
    expect = set(suitable_set_direct(g, covered, fixed))
    assert expect <= got
    if not any(covered) and not any(fixed):
        assert got == expect
    assert_safe_pairs(g, got, covered, fixed)


# Tokens of the line soup: ids as int() reads them and ids it rejects,
# header and comment words, sidecar section names and junk.
_NUMBERS = st.one_of(
    st.integers(-1, 12).map(str),
    st.sampled_from(["+1", "-0", "０", "1_0", "00", "1.0", "1e1", "0x1", "١"]),
)
_WORDS = st.sampled_from(
    ["p", "ds", "c", "x", "fixed:", "covered:", "map:", "solution:", "p ds 4 3"]
)
_SPACES = st.sampled_from([" ", "  ", "\t", "\x0c", "\x0b", " \t "])
_ENDS = st.sampled_from(["\n", "\r\n", " \n", "\t\n"])


@st.composite
def line_soup(draw):
    """Lines of tokens joined by varied whitespace.  Most lines hold two
    ids, and the first line is often a section name or a header, whose
    edge count often matches those lines.  Half the soups hold only
    those lines and comments."""
    n = draw(st.integers(0, 12))
    ids = st.one_of(st.integers(0, n).map(str), _NUMBERS)
    kinds = ["edge", "edge", "comment"]
    if draw(st.booleans()):
        kinds += ["edge", "header", "junk"]
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        if kind == "edge":
            tok = [draw(ids), draw(ids)]
        elif kind == "header":
            tok = ["p", draw(st.sampled_from(["ds", "x"]))]
            tok += draw(st.lists(_NUMBERS, max_size=3))
        elif kind == "comment":
            tok = ["c"] + draw(st.lists(st.one_of(_NUMBERS, _WORDS), max_size=2))
        else:
            tok = draw(st.lists(st.one_of(_NUMBERS, _WORDS), max_size=4))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + draw(_SPACES).join(tok))
    pairs = sum(len(line.split()) == 2 for line in lines)
    m = draw(st.one_of(st.just(pairs), st.integers(0, 6)))
    head = f"p ds {n} {m}"
    lines[:0] = draw(st.sampled_from([[head], [head], ["fixed:"], ["map:"], []]))
    return "".join(line + draw(_ENDS) for line in lines)


@hypothesis.settings(
    max_examples=400, deadline=None, derandomize=True, database=None
)
@hypothesis.given(line_soup())
def test_readers_return_or_raise_format_error(text):
    for reader in (read_gr, read_edge_list):
        try:
            g = reader(io.StringIO(text))
        except FormatError:
            continue
        g.validate()
    try:
        read_sidecar(io.StringIO(text))
    except FormatError:
        pass
