"""Property-based tests (they need ``hypothesis``).

The example-based tests in ``test_iterate.py`` stop at 80 vertices,
where rounds after the second rarely act.  Here graphs reach 300
vertices at average degree 2-6, or are paths and trees with a hub
attached, with given covered vertices, given fixed ones committed
before the drivers run, and round caps.  The pipeline is checked
against the direct definition on annotated states of up to 150
vertices.  The instance and sidecar readers are fed line
soup, and the chunked instance reader is held to the line-by-line
grammar of ``oracle.read_instance_reference`` on it and on
near-canonical files.  Runs are derandomized, so every run draws
the same cases.
"""

import io
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from conftest import committed, members, read_sidecar  # noqa: E402
from dsreduce import graphio  # noqa: E402
from dsreduce.graphio import (  # noqa: E402
    FormatError,
    read_edge_list,
    read_gr,
)
from dsreduce.generators import path  # noqa: E402
from dsreduce.oracle import check_graph, suitable_set_direct  # noqa: E402
from dsreduce.pipeline import (  # noqa: E402
    canonical_reference,
    compute_proper_partition,
    compute_superset,
    suitable_set,
)
from dsreduce.state import ReductionState  # noqa: E402
from test_graphio import CHUNKS, outcome, reference  # noqa: E402
from test_iterate import (  # noqa: E402
    VARIANTS,
    check_same,
    gnm,
    random_subset,
    random_tree_plus,
    with_hub,
)
from test_pipeline import assert_safe_pairs  # noqa: E402


@st.composite
def annotated_graphs(draw):
    """G(n, m), a random tree plus extra edges, or a path or such a tree
    with a hub joined to every k-th vertex, with given covered and fixed
    vertices (``conftest.committed`` builds what committing the fixed
    ones leaves).

    The graph comes from a drawn seed: drawn adjacency lists lean to
    small ids, which makes stars, and stars reduce in one round.  A hub
    loses a neighbor in most rounds, so it keeps the rounds after the
    first busy next to a high-degree vertex.
    """
    n = draw(st.integers(2, 300))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("gnm", "tree", "hub path", "hub tree")))
    if kind == "gnm":
        m = n * draw(st.integers(2, 6)) // 2
        g = gnm(rng, n, min(m, n * (n - 1) // 2))
    elif kind == "tree":
        g = random_tree_plus(rng, n, draw(st.integers(0, 2 * n)))
    else:
        if kind == "hub path":
            base = path(n - 1)
        else:
            base = random_tree_plus(rng, n - 1, draw(st.integers(0, n // 4)))
        step = draw(st.integers(2, 4))
        g = with_hub(base, step, draw(st.integers(0, step - 1)))
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
    fresh state of it with no flags, or of what committing drawn fixed
    vertices leaves, with drawn covered ones: drawn as masks or as
    vertex subsets."""
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
        return committed(g, members(covered), members(fixed))
    return committed(g, random_subset(rng, n, p_cov), random_subset(rng, n, p_fix))


@hypothesis.settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)
@hypothesis.given(pipeline_states())
def test_pipeline_contains_direct_definition_on_states(state):
    g, covered = state.g, state.covered
    pairs = suitable_set(state)
    # no pass checks these: a witness has one reference and is never its
    # own, in the list itself (a set would hide a repeated pair)
    witnesses = [u for u, _rho in pairs]
    assert len(set(witnesses)) == len(witnesses), pairs
    assert all(u != rho for u, rho in pairs), pairs
    sup = compute_superset(state)
    assert all(u != rho for u, rho in sup.items())
    assert set(pairs) <= sup.items()
    assert all(
        sup.canonical[u] == canonical_reference(state, u) for u in range(g.n)
    )
    got = set(pairs)
    expect = set(suitable_set_direct(g, covered))
    assert expect <= got
    if not any(covered):
        assert got == expect
    assert_safe_pairs(g, got, covered)


@hypothesis.settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)
@hypothesis.given(pipeline_states())
def test_partition_maps_each_witness_to_its_own_reference(state):
    """After a full superset pass, f maps every witness u to R(u).

    The proposals for u are the references R(y) of witnesses y in N[u]
    that are adjacent to u.  y = u proposes R(u).  y = R(u) proposes
    nothing: R(R(u)) beats R(u) in (degree, id), so it is not in N(u),
    or it would be u's canonical reference.  Any other y lies in N(u),
    inside N[R(u)], so R(u) is in N[y] and R(y), the maximum over N[y],
    is at least R(u); adjacent to u, it is at most R(u).  So every
    proposal is R(u).  So ``filter_suitable``'s test that a witness
    joined its reference's second slot never drops a pair of an exact
    superset map.  The test stays, so that the filter's verdict follows
    its definition whatever partition it is given.
    """
    sprime = compute_superset(state)
    f = compute_proper_partition(state, sprime, pairs=sprime.items())
    assert [(u, f[u]) for u in sprime] == list(sprime.items())


# Tokens of the line soup: ids in the grammar, ids int() reads but the
# grammar rejects, and ids both reject,
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
        check_graph(g)
    try:
        read_sidecar(io.StringIO(text))
    except FormatError:
        pass


@st.composite
def near_canonical_gr(draw):
    """A header and edge lines as a chunk is taken whole, with up to
    two flaws: a soup line, an id out of range or another line end in
    place of an edge line.  The edge count is sometimes off by one, and
    the last newline sometimes missing."""
    n = draw(st.integers(1, 12))
    ids = st.integers(1, n).map(str)
    lines = [f"{draw(ids)} {draw(ids)}\n" for _ in range(draw(st.integers(0, 30)))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if lines else 0):
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = draw(st.one_of(
            st.lists(st.one_of(_NUMBERS, _WORDS), max_size=3).map(" ".join),
            st.sampled_from(["0", "01", str(n + 1)]).map(lambda v: f"{v} 1"),
            st.just(lines[at][:-1]),
        )) + draw(_ENDS)
    m = len(lines) + draw(st.sampled_from([0] * 6 + [-1, 1]))
    text = f"p ds {n} {max(m, 0)}\n" + "".join(lines)
    return text[:-1] if draw(st.integers(0, 9)) == 0 else text


@hypothesis.settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)
@hypothesis.given(
    st.one_of(line_soup(), near_canonical_gr()),
    st.sampled_from(CHUNKS),
)
def test_read_gr_bulk_path_matches_per_line_reader_on_soup(text, chunk):
    # small chunks put the lines across chunk boundaries
    want = [outcome(reference(base), text) for base in (1, 0)]
    saved = graphio._CHUNK
    graphio._CHUNK = chunk
    try:
        assert [outcome(read_gr, text), outcome(read_edge_list, text)] == want
    finally:
        graphio._CHUNK = saved
