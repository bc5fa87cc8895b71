import pytest

from dsreduce.generators import (
    barbell_cycle,
    complete,
    cycle,
    fig4_family,
    gadget_path,
    gnp,
    path,
    star,
)
from dsreduce.oracle import canonical_reference, classify_types
from dsreduce.pipeline import suitable_set
from dsreduce.state import ReductionState


def test_gnp_is_deterministic_per_seed():
    a = gnp(30, 0.2, seed=9)
    b = gnp(30, 0.2, seed=9)
    c = gnp(30, 0.2, seed=10)
    assert list(a.edges()) == list(b.edges())
    assert list(a.edges()) != list(c.edges())


def test_gnp_edge_count_near_expectation():
    g = gnp(1000, 0.01, seed=4)
    # mean 4995, std about 70; four sigmas of slack
    assert abs(g.m - 4995) <= 281


def test_gnp_rejects_bad_probability():
    with pytest.raises(ValueError):
        gnp(5, -0.1, seed=0)
    with pytest.raises(ValueError):
        gnp(5, 1.5, seed=0)


def test_small_families_shapes():
    assert (path(1).n, path(1).m) == (1, 0)
    assert (path(6).n, path(6).m) == (6, 5)
    assert (cycle(5).n, cycle(5).m) == (5, 5)
    assert (complete(6).n, complete(6).m) == (6, 15)
    assert (star(8).n, star(8).m) == (9, 8)
    assert star(8).deg[0] == 8


def test_cycle_rejects_degenerate():
    with pytest.raises(ValueError):
        cycle(2)


def test_gadget_path_sizes():
    for copies in (1, 2, 4):
        assert gadget_path("fig5", copies).n == 5 * copies + 1
        assert gadget_path("fig6", copies).n == 6 * copies + 1
    with pytest.raises(ValueError):
        gadget_path("fig7", 1)
    with pytest.raises(ValueError):
        gadget_path("fig5", 0)


def test_barbell_shape():
    g = barbell_cycle()
    assert (g.n, g.m) == (12, 15)
    assert 9 in g.adj[2]
    assert g.deg[0] == g.deg[11] == 1


def test_adversarial_family_counts():
    for k in (2, 3, 5):
        g = fig4_family(k)
        assert g.n == 7 * k
        assert g.m == k * (k - 1) + k * k + 7 * k
    with pytest.raises(ValueError):
        fig4_family(1)


def test_adversarial_family_structure():
    k = 3
    g = fig4_family(k)
    for i in range(k):
        r = k + i
        a = 2 * k + 5 * i
        b = a + 1
        # b sits fully inside N[r] and nominates r, a escapes through
        # its private 4-cycle, so no pair survives the escape filter
        assert set(g.adj[b]) <= set(g.adj[r]) | {r}
        assert canonical_reference(g, b) == r
        part = classify_types(g, None, r)
        assert a in part.n1
        assert b not in part.n3
    assert list(suitable_set(ReductionState(g))) == []


def test_adversarial_family_has_enclosed_pairs_but_no_witnesses():
    # the pre-filter stage sees candidates, the type filter ends empty
    from dsreduce.pipeline import compute_superset

    for k in (2, 3, 4):
        g = fig4_family(k)
        sup = compute_superset(ReductionState(g))
        pairs = list(sup.items())
        assert pairs, "pre-filter candidates must exist"
        for i in range(k):
            b = 2 * k + 5 * i + 1
            assert (b, k + i) in pairs
        assert list(suitable_set(ReductionState(g))) == []
