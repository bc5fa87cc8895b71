import faulthandler
import hashlib
import importlib
import itertools
import os
import random
import threading
import warnings

import pytest

from conftest import annotated, build, committed, fresh, members, random_graphs
from dsreduce.generators import complete, gnp, path, star
from dsreduce.graph import first_undominated
from dsreduce.greedy import (
    TieBreaker,
    _start,
    default_seed_list,
    greedy,
    greedy_best_of,
)
from dsreduce.oracle import exact_annotated_gamma, greedy_reference, naive_reduce
from dsreduce.reducer import Variant, export_residual, reduce_iterate
from dsreduce.state import ReductionState, compact

# the module; ``dsreduce.greedy`` on the package is the function
GREEDY = importlib.import_module("dsreduce.greedy")


def test_four_path_always_two_picks():
    g = path(4)
    for perm in itertools.permutations(range(4)):
        out = greedy(fresh(g), TieBreaker(list(perm)))
        assert len(out) == 2
        assert first_undominated(g, out) == -1


def test_star_center_wins():
    g = star(7)
    out = greedy(fresh(g), TieBreaker.from_seed(g.n, 5))
    assert sorted(out) == [0]


def test_fully_covered_needs_nothing():
    g = path(5)
    inst = annotated(g, bytearray([1] * 5))
    out = greedy(inst, TieBreaker.from_seed(5, 0))
    assert len(out) == 0


def test_partially_covered_skips_satisfied_region():
    # only vertex 4 still needs domination
    g = path(5)
    inst = annotated(g, bytearray([1, 1, 1, 1, 0]))
    out = greedy(inst, TieBreaker.from_seed(5, 3))
    assert len(out) == 1
    assert sorted(out)[0] in (3, 4)


def test_output_dominates_every_uncovered_vertex():
    rng = random.Random(77)
    for g in random_graphs(60, (1, 30), [0.1, 0.3, 0.6], seed_base=500):
        covered = bytearray(rng.random() < 0.3 for _ in range(g.n))
        inst = annotated(g, covered)
        out = greedy(inst, TieBreaker.from_seed(g.n, rng.randrange(1000)))
        assert first_undominated(g, out, covered) == -1


def test_same_seed_same_answer():
    g = gnp(40, 0.15, seed=11)
    a = greedy(fresh(g), TieBreaker.from_seed(g.n, 909))
    b = greedy(fresh(g), TieBreaker.from_seed(g.n, 909))
    assert sorted(a) == sorted(b)


def test_best_of_never_worse_than_single_seed():
    g = gnp(60, 0.1, seed=23)
    seeds = default_seed_list(master=7, count=10)
    best = greedy_best_of(fresh(g), seeds)
    for s in seeds:
        single = greedy(fresh(g), TieBreaker.from_seed(g.n, s))
        assert len(best) <= len(single)


def test_best_of_tie_prefers_earlier_seed():
    g = path(4)
    seeds = [101, 202]
    best = greedy_best_of(fresh(g), seeds)
    first = greedy(fresh(g), TieBreaker.from_seed(g.n, seeds[0]))
    assert len(best) == len(first)
    assert sorted(best) == sorted(first)


def test_best_of_rejects_empty_seed_list():
    with pytest.raises(ValueError):
        greedy_best_of(fresh(path(3)), [])


def test_tiebreaker_rejects_non_permutation():
    with pytest.raises(ValueError):
        TieBreaker([0, 0, 2])
    with pytest.raises(ValueError):
        TieBreaker([1, 2, 3])


def test_from_seed_draws_the_shuffle_permutation():
    # a change to random.shuffle fails here instead of moving seeded picks
    seeds = [0, 1, 2**32 - 1, 2**40 + 3, *default_seed_list(1, 3)]
    for n in [*range(71), 12_000]:
        for s in seeds:
            want = list(range(n))
            random.Random(s).shuffle(want)
            tb = TieBreaker.from_seed(n, s)
            assert tb.priority == want, (n, s)
            assert [tb.priority[v] for v in tb.vertex_of] == list(range(n)), (n, s)


def test_tiebreaker_inverse_permutation():
    tb = TieBreaker.from_seed(50, 8)
    assert [tb.priority[v] for v in tb.vertex_of] == list(range(50))
    assert TieBreaker([]).vertex_of == []
    with pytest.raises(ValueError):
        TieBreaker([-1, 0, 1])


def assert_same_picks(inst, seeds):
    for s in seeds:
        tb = TieBreaker.from_seed(inst.n, s)
        assert greedy(inst, tb) == greedy_reference(inst.g, inst.covered, tb), s


def test_picks_match_reference_on_random_covered_graphs():
    rng = random.Random(4104)
    graphs = random_graphs(220, (1, 45), [0.03, 0.08, 0.15, 0.3, 0.6], seed_base=9100)
    for g in graphs:
        frac = rng.choice([0.0, 0.2, 0.5, 0.9])
        covered = bytearray(rng.random() < frac for _ in range(g.n))
        seeds = [rng.randrange(1 << 32) for _ in range(4)]
        assert_same_picks(annotated(g, covered), seeds)


def test_start_merits_count_needy_closed_neighbors():
    # The start reads only the covered vertices' lists; each merit must
    # still be the number of needy vertices in the closed neighborhood.
    rng = random.Random(4105)
    for g in random_graphs(120, (1, 60), [0.03, 0.1, 0.3, 0.7], seed_base=9400):
        frac = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0])
        covered = bytearray(rng.random() < frac for _ in range(g.n))
        need, merit, remaining, _alive = _start(annotated(g, covered))
        assert list(need) == [int(not c) for c in covered]
        assert merit == [need[v] + sum(need[w] for w in g.adj[v]) for v in range(g.n)]
        assert remaining == covered.count(0)


def test_picks_match_reference_on_structured_graphs():
    seeds = default_seed_list(3, count=5)
    for g in [star(1), star(9), path(1), path(2), path(17), complete(1),
              complete(2), complete(8)]:
        assert_same_picks(fresh(g), seeds)
        # fully covered: nothing to pick
        done = annotated(g, bytearray([1] * g.n))
        assert_same_picks(done, seeds)
        assert len(greedy(done, TieBreaker.from_seed(g.n, 1))) == 0
        # exactly one needy vertex, at either end of the id range
        for needy in {0, g.n - 1}:
            covered = bytearray([1] * g.n)
            covered[needy] = 0
            inst = annotated(g, covered)
            assert_same_picks(inst, seeds)
            assert len(greedy(inst, TieBreaker.from_seed(g.n, 1))) == 1


def preferential(n, k, rng):
    """Preferential attachment as ``perfbench/corpus.py`` draws it: each
    new vertex joins k distinct earlier vertices picked in proportion to
    degree, starting from a (k+1)-clique."""
    edges = [(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)]
    ends = [v for e in edges for v in e]
    for v in range(k + 1, n):
        picked = set()
        while len(picked) < k:
            picked.add(ends[rng.randrange(len(ends))])
        for u in sorted(picked):
            edges.append((u, v))
            ends += (u, v)
    return build(n, edges)


def star_of_stars(hubs, leaves):
    edges = []
    for h in range(1, hubs + 1):
        edges.append((0, h))
        first = hubs + 1 + (h - 1) * leaves
        edges += [(h, x) for x in range(first, first + leaves)]
    return build(1 + hubs * (1 + leaves), edges)


def complete_bipartite(a, b):
    return build(a + b, [(u, a + w) for u in range(a) for w in range(b)])


def grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return build(rows * cols, edges)


def test_picks_match_reference_where_levels_churn():
    # hubs fall many levels at once; ties crowd a few levels
    rng = random.Random(6262)
    graphs = [
        preferential(300, 1, rng), preferential(2000, 1, rng),
        preferential(300, 2, rng), preferential(2000, 2, rng),
        star_of_stars(12, 24), star_of_stars(40, 40),
        complete_bipartite(7, 293), complete_bipartite(30, 400),
        grid(15, 20), grid(40, 50),
    ]
    seeds = default_seed_list(5, count=3)
    for g in graphs:
        for frac in (0.0, 0.3, 0.9):
            covered = bytearray(rng.random() < frac for _ in range(g.n))
            assert_same_picks(annotated(g, covered), seeds)


# (rule, --iterate) for every ``greedy --after`` value, and the naive
# sweep, which does not iterate
AFTER = [(None, False), ("naive", False), ("linear", False), ("plus", False),
         ("extra", False), ("linear", True), ("plus", True), ("extra", True)]


def exported(g, after, covered, fixed):
    """The stripped state ``greedy --after`` solves: what committing the
    ``fixed`` mask's vertices of ``g`` leaves, under the ``covered`` mask,
    reduced by ``after`` and exported.  The naive sweep takes no covered
    flag, so it gets the graph that committing leaves, flags cleared."""
    st = committed(g, members(covered), members(fixed))
    rule, iterate = after
    if rule == "naive":
        st = ReductionState(st.g)
        naive_reduce(st)
    elif rule is not None:
        reduce_iterate(st, Variant(rule), None if iterate else 1)
    export_residual(st)
    return st


def test_state_picks_match_the_compacted_residual():
    # Greedy on the stripped state must pick what it picks on the
    # compacted residual, mapped back.
    rng = random.Random(4106)
    cases = renumbered = 0
    for g in random_graphs(60, (2, 50), [0.04, 0.08, 0.15, 0.3], seed_base=9700):
        covered = bytearray(rng.random() < 0.3 for _ in range(g.n))
        fixed = bytearray(rng.random() < 0.15 for _ in range(g.n))
        seeds = [rng.randrange(1 << 32) for _ in range(3)]
        for after in AFTER:
            # naive refuses covered input
            for cov in (None,) if after[0] == "naive" else (None, covered):
                for fix in (None, fixed):
                    st = exported(g, after, cov, fix)
                    comp = compact(st)
                    residual = annotated(comp.graph, comp.covered)
                    back = comp.new_to_old.__getitem__
                    for s in seeds:
                        tb = TieBreaker.from_seed(comp.graph.n, s)
                        want = list(map(back, greedy(residual, tb)))
                        assert greedy(st, tb) == want, (cases, after, s)
                    want = list(map(back, greedy_best_of(residual, seeds)))
                    assert greedy_best_of(st, seeds) == want, (cases, after)
                    cases += 1
                    renumbered += comp.new_to_old != list(range(comp.graph.n))
    assert cases == 60 * 30
    # most states lost vertices below alive ones, so the tie order is pinned
    assert renumbered > cases // 2


def test_seeded_picks_are_pinned():
    # recorded from random.shuffle itself and one (merit, priority) heap
    g = preferential(12_000, 2, random.Random("pinned:12000"))
    order = greedy_best_of(fresh(g), default_seed_list(1, 3))
    digest = hashlib.sha256(repr(order).encode()).hexdigest()
    assert (len(order), digest) == (
        2288, "8cdc18c08f296567e5cdc8c3a36d52fa878c6c2c884a6553a46bfa1252b64284"
    )


def test_best_of_is_earliest_per_seed_minimum():
    rng = random.Random(5)
    for g in random_graphs(40, (5, 40), [0.05, 0.15, 0.3], seed_base=7300):
        covered = bytearray(rng.random() < 0.3 for _ in range(g.n))
        inst = annotated(g, covered)
        seeds = [rng.randrange(50) for _ in range(6)]
        runs = [greedy_reference(g, covered, TieBreaker.from_seed(g.n, s)) for s in seeds]
        sizes = [len(r) for r in runs]
        want = runs[sizes.index(min(sizes))]
        assert greedy_best_of(inst, seeds) == want


def test_default_seed_list_is_reproducible():
    assert default_seed_list(42) == default_seed_list(42)
    assert default_seed_list(42) != default_seed_list(43)
    assert len(default_seed_list(42, count=4)) == 4


def test_greedy_close_to_optimum_on_small_instances():
    # sanity bound only; the heuristic has no approximation guarantee
    # this tight, but on tiny corpora best-of-10 rarely strays far
    for g in random_graphs(40, (2, 12), [0.25, 0.5], seed_base=640):
        opt, _ = exact_annotated_gamma(g, bytearray(g.n))
        got = greedy_best_of(fresh(g), default_seed_list(1, count=10))
        assert opt <= len(got) <= 2 * opt + 1


# Seeds run in forked children only on a residual of at least
# FORK_MIN_SIZE alive vertices plus live edges and with more than one
# usable CPU; these tests lower the one and report more of the other.


def use_cpus(monkeypatch, count, floor=0):
    monkeypatch.setattr(GREEDY, "FORK_MIN_SIZE", floor)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def count_forks(monkeypatch):
    """Patch ``os.fork`` to count the children this process forks."""
    forks = []
    real = os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def covered_gnp_cases(count, seed):
    rng = random.Random(seed)
    cases = []
    for g in random_graphs(count, (8, 60), [0.05, 0.1, 0.2], seed_base=seed):
        covered = bytearray(rng.random() < 0.3 for _ in range(g.n))
        cases.append(annotated(g, covered))
    return cases


def sequential_best_of(inst, seeds):
    runs = [greedy(inst, TieBreaker.from_seed(inst.n, s)) for s in seeds]
    return min(runs, key=len)


@pytest.mark.filterwarnings("error")
def test_forked_seeds_pick_what_sequential_runs_pick(monkeypatch):
    # every seed-list length 1-6 against 2-4 workers; seeds repeat and
    # graphs are small, so equal sizes from different strides are common
    # and the earliest must win
    rng = random.Random(2801)
    cases = covered_gnp_cases(12, 2802)
    forks = count_forks(monkeypatch)
    for i, (length, cpus) in enumerate(itertools.product(range(1, 7), range(2, 5))):
        inst = cases[i % len(cases)]
        seeds = [rng.randrange(20) for _ in range(length)]
        want = sequential_best_of(inst, seeds)
        use_cpus(monkeypatch, cpus)
        before = len(forks)
        assert greedy_best_of(inst, seeds) == want, (i, seeds, cpus)
        assert len(forks) - before == min(length, cpus) - 1, (length, cpus)
        assert_no_child_left()
    assert len(forks) == 26


def child_write(monkeypatch, act):
    """Patch ``os.write`` so a forked child does ``act(real_write, fd, data)``
    instead of writing; this process writes as before."""
    parent = os.getpid()
    real = os.write

    def write(fd, data):
        if os.getpid() == parent:
            return real(fd, data)
        return act(real, fd, data)

    monkeypatch.setattr(os, "write", write)


def exit_before_writing(real, fd, data):
    os._exit(1)


def exit_0_after_half(real, fd, data):
    real(fd, bytes(data[: len(data) // 2]))
    os._exit(0)


def exit_0_after_garbage(real, fd, data):
    real(fd, b"\xff" * len(data))
    os._exit(0)


def exit_1_after_writing(real, fd, data):
    real(fd, data)
    os._exit(1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "act",
    [exit_before_writing, exit_0_after_half, exit_0_after_garbage, exit_1_after_writing],
)
def test_failed_child_costs_time_not_the_result(monkeypatch, act):
    inst = covered_gnp_cases(1, 2803)[0]
    seeds = default_seed_list(4, count=5)
    want = sequential_best_of(inst, seeds)
    parent = os.getpid()
    real = GREEDY.greedy
    here = []

    def counted(*args, **kwargs):
        if os.getpid() == parent:
            here.append(1)
        return real(*args, **kwargs)

    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(GREEDY, "greedy", counted)
    forks = count_forks(monkeypatch)
    child_write(monkeypatch, act)
    assert greedy_best_of(inst, seeds) == want
    assert len(forks) == 2
    # both children's strides were run again here
    assert len(here) == len(seeds)
    assert_no_child_left()


@pytest.mark.filterwarnings("error")
def test_children_are_reaped_when_this_process_raises(monkeypatch):
    # 20,000 isolated vertices: a child's picks fill more than a pipe's
    # buffer, so it is still writing when this process stops reading
    inst = fresh(build(20_000, []))
    parent = os.getpid()
    real = GREEDY.greedy

    def fails_here(*args, **kwargs):
        if os.getpid() == parent:
            raise RuntimeError("stop")
        return real(*args, **kwargs)

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(GREEDY, "greedy", fails_here)
    forks = count_forks(monkeypatch)
    # a child that kept the pipe open would block this process for good
    faulthandler.dump_traceback_later(60, exit=True)
    try:
        with pytest.raises(RuntimeError, match="stop"):
            greedy_best_of(inst, default_seed_list(5, count=4))
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert len(forks) == 1
    assert_no_child_left()
    # read to the end, the same picks arrive whole
    monkeypatch.setattr(GREEDY, "greedy", real)
    assert greedy_best_of(inst, [1, 2]) == sequential_best_of(inst, [1, 2])
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.filterwarnings("error")
def test_unforkable_strides_run_here(monkeypatch):
    def no_process(*args):
        raise BlockingIOError("no process to spare")

    inst = covered_gnp_cases(1, 2805)[0]
    seeds = default_seed_list(6, count=4)
    want = sequential_best_of(inst, seeds)
    use_cpus(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", no_process)
    assert greedy_best_of(inst, seeds) == want


@pytest.mark.filterwarnings("error")
def test_no_fork_below_the_floor_on_one_cpu_or_beside_a_thread(monkeypatch):
    def forbidden(*args):
        raise AssertionError("forked")

    g = preferential(1200, 2, random.Random(2806))
    inst = fresh(g)
    size = g.n + sum(g.deg) // 2
    seeds = default_seed_list(7, count=4)
    want = sequential_best_of(inst, seeds)
    monkeypatch.setattr(os, "fork", forbidden)
    use_cpus(monkeypatch, 4, floor=size + 1)  # just below the floor
    assert greedy_best_of(inst, seeds) == want
    use_cpus(monkeypatch, 1)  # one usable CPU
    assert greedy_best_of(inst, seeds) == want
    use_cpus(monkeypatch, 4)  # one seed
    assert greedy_best_of(inst, seeds[:1]) == sequential_best_of(inst, seeds[:1])
    # another live thread: forking beside it is unsafe
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert greedy_best_of(inst, seeds) == want
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    # at the floor it forks
    monkeypatch.undo()
    use_cpus(monkeypatch, 2, floor=size)
    forks = count_forks(monkeypatch)
    assert greedy_best_of(inst, seeds) == want
    assert len(forks) == 1
    assert_no_child_left()
