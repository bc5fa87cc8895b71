"""``reduce`` writes its residual straight from the reduced state.

``graphio.write_gr`` with ``alive`` reads the state's lists through the
id map and builds no residual graph.  These tests hold its text, and the
sidecar ``reduce`` writes, byte for byte to the export through
``compact``: ``write_gr(compact(state).graph)`` and the sidecar sections
built from that compact result.  No command calls ``compact`` itself.
"""

import csv
import io
import os
import random
from itertools import compress

import pytest

import dsreduce.reducer as reducer
from conftest import committed, members, random_graphs
from dsreduce.cli import main
from dsreduce.generators import gnp
from dsreduce.graphio import id_base, read_graph, write_gr, write_sidecar
from dsreduce.oracle import copy_state, naive_reduce, one_round
from dsreduce.reducer import Variant, export_residual, reduce_iterate
from dsreduce.state import ReductionState, compact

# (rule, --iterate) for the naive sweep, every rule and every iterated one
RUNS = [
    ("naive", False),
    ("linear", False),
    ("plus", False),
    ("extra", False),
    ("linear", True),
    ("plus", True),
    ("extra", True),
]
RUN_IDS = [rule + ("-iterate" if it else "") for rule, it in RUNS]
# the runs ``reduce`` offers: the naive sweep is no CLI rule
CLI_RUNS = RUNS[1:]
CLI_RUN_IDS = RUN_IDS[1:]


def reduced(state, rule, iterate, *, bare=False):
    """``state`` reduced by ``rule``.  A plain rule runs one round, through
    its boundary as ``reduce`` runs it, or ``bare`` as ``one_round``, so
    that the vertices covered and isolated on entry are left to
    ``export_residual``."""
    if rule == "naive":
        naive_reduce(state)
    elif iterate or not bare:
        reduce_iterate(state, Variant(rule), None if iterate else 1)
    else:
        one_round(state, Variant(rule))
    return state


def gr_text(g, base, alive=None):
    buf = io.StringIO()
    write_gr(g, buf, base=base, alive=alive)
    return buf.getvalue()


def compacted_sidecar(state, comp, base, res_base):
    """The sidecar built from a compact result, ids in the file's base."""
    old_ids = [v + base for v in comp.new_to_old]
    buf = io.StringIO()
    write_sidecar(
        buf,
        fixed=[v + base for v in sorted(state.fixed)],
        covered=compress(old_ids, comp.covered),
        mapping=zip(range(res_base, res_base + len(old_ids)), old_ids),
    )
    return buf.getvalue()


def names_dead(state):
    """Whether some alive vertex's list names a dead vertex."""
    alive = state.alive
    return any(
        not alive[v] for u in compress(range(state.n), alive) for v in state.adj[u]
    )


def states(rule):
    """Fresh states of G(n, p) graphs and, except for naive (which takes
    no covered flag), what committing random vertices of the same graphs
    leaves, under random covered masks."""
    rng = random.Random(5)
    for g in random_graphs(16, (8, 60), [0.04, 0.08, 0.15, 0.3], seed_base=500):
        yield ReductionState(g)
        if rule != "naive":
            covered = bytearray(rng.random() < 0.3 for _ in range(g.n))
            fixed = [rng.random() < 0.1 for _ in range(g.n)]
            yield committed(g, members(covered), members(fixed))


@pytest.mark.parametrize("rule, iterate", RUNS, ids=RUN_IDS)
def test_state_writer_matches_the_compacted_graph(rule, iterate):
    # every run leaves each alive list naming only alive vertices, so the
    # writer's mask test skips nothing a state holds
    for st in states(rule):
        old = reduced(copy_state(st), rule, iterate, bare=True)
        dropped = export_residual(old)
        comp = compact(old)
        got = export_residual(reduced(st, rule, iterate, bare=True))
        assert got == dropped
        assert not names_dead(st)
        for base in (0, 1):
            assert gr_text(st, base, st.alive) == gr_text(comp.graph, base)
        assert st.alive.count(1) == comp.graph.n
        assert sum(compress(st.deg, st.alive)) // 2 == comp.graph.m


@pytest.mark.parametrize("rule, iterate", CLI_RUNS, ids=CLI_RUN_IDS)
def test_reduce_writes_the_compacted_residual_byte_for_byte(
    rule, iterate, tmp_path, capsys
):
    flags = ["--iterate"] if iterate else []
    for i, p in enumerate([0.03, 0.05, 0.08, 0.12, 0.2] * 2):
        inst = str(tmp_path / f"g{i}.gr")
        with open(inst, "w") as fh:
            write_gr(gnp(60, p, 700 + i), fh)
        g, base = read_graph(inst)
        st = reduced(ReductionState(g), rule, iterate)
        export_residual(st)
        comp = compact(st)
        for ext in (".gr", ".el"):
            out = str(tmp_path / f"r{i}{ext}")
            side = str(tmp_path / f"r{i}.side")
            assert main(["reduce", inst, "--rule", rule, *flags,
                         "--out", out, "--sidecar", side]) == 0
            stdout = capsys.readouterr().out
            res_base = id_base(out)
            with open(out) as fh:
                assert fh.read() == gr_text(comp.graph, res_base)
            with open(side) as fh:
                assert fh.read() == compacted_sidecar(st, comp, base, res_base)
            assert stdout.endswith(
                f" residual_n={comp.graph.n} residual_m={comp.graph.m}\n"
            )


def untimed_rows(path):
    """A report CSV's rows without the time columns."""
    with open(path, newline="") as fh:
        return [
            {k: v for k, v in row.items() if not k.startswith("time_")}
            for row in csv.DictReader(fh)
        ]


def test_no_command_builds_a_residual_graph(tmp_path, capsys, monkeypatch):
    # reduce writes from the reduced state and greedy picks on it, so
    # every command's output stands with ``compact`` raising
    os.mkdir(tmp_path / "in")
    inst = str(tmp_path / "in" / "g.gr")
    with open(inst, "w") as fh:
        write_gr(gnp(80, 0.05, 3), fh)
    files = [str(tmp_path / name) for name in ("r.gr", "r.side")]
    reports = [str(tmp_path / name) for name in ("r.csv", "b.csv")]
    runs = [
        ["reduce", inst, "--rule", "extra", "--iterate", "--out", files[0],
         "--sidecar", files[1], "--report", reports[0]],
        ["greedy", inst, "--after", "none"],
        ["greedy", inst, "--after", "plus"],
        ["greedy", inst, "--after", "extra", "--iterate"],
        ["bench", "--dir", str(tmp_path / "in"), "--rules", "linear,plus,extra",
         "--report", reports[1]],
    ]

    def outputs():
        got = [(main(argv), capsys.readouterr().out) for argv in runs]
        for f in files:
            with open(f) as fh:
                got.append(fh.read())
        return got + [untimed_rows(f) for f in reports]

    want = outputs()

    def no_compact(_state):
        raise AssertionError("compact called")

    monkeypatch.setattr(reducer, "compact", no_compact)
    monkeypatch.setattr("dsreduce.state.compact", no_compact)
    assert outputs() == want
