import argparse
import csv
import gc
import os
from itertools import compress

import pytest

import dsreduce.cli as cli
from conftest import read_sidecar
from dsreduce import graphio
from dsreduce.cli import _bench_child, main
from dsreduce.generators import fig4_family, gadget_path, gnp, path, star
from dsreduce.graph import load_check
from dsreduce.graphio import write_gr
from dsreduce.oracle import copy_state
from dsreduce.reducer import export_residual


def run_ok(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    assert rc == 0, out.err
    return out.out


def test_gen_reduce_verify_roundtrip(tmp_path, capsys):
    inst = str(tmp_path / "p6.gr")
    out = run_ok(["gen", "path", "--n", "6", "--out", inst], capsys)
    assert "n=6 m=5" in out

    side = str(tmp_path / "p6.side")
    resid = str(tmp_path / "p6.residual.gr")
    rep = str(tmp_path / "p6.csv")
    out = run_ok(
        ["reduce", inst, "--rule", "linear", "--out", resid,
         "--sidecar", side, "--report", rep],
        capsys,
    )
    assert "fixed=2 removed_nodes=4 removed_edges=5 rounds=1" in out
    assert "residual_n=0 residual_m=0" in out

    # the committed pair alone dominates the whole path
    out = run_ok(["verify", inst, "--solution", side], capsys)
    assert out.strip() == "valid: 2 vertices dominate all 6"

    with open(rep) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["variant"] == "linear"
    assert rows[0]["fixed"] == "2"
    assert rows[0]["removed_nodes"] == "4"
    assert rows[0]["removed_edges"] == "5"

    with open(side) as fh:
        text = fh.read()
    assert text.startswith("fixed:\n2\n5\n")


def test_verify_flags_undominated_vertex(tmp_path, capsys):
    # a pure reduction sidecar is not a full solution on the 7-path:
    # the center survives undominated
    inst = str(tmp_path / "p7.gr")
    run_ok(["gen", "fig6", "--copies", "1", "--out", inst], capsys)
    side = str(tmp_path / "p7.side")
    run_ok(["reduce", inst, "--rule", "linear", "--sidecar", side], capsys)
    rc = main(["verify", inst, "--solution", side])
    out = capsys.readouterr()
    assert rc == 1
    assert out.out.strip() == "INVALID: vertex 4 not dominated"


def test_reduce_iterated_rounds_reported(tmp_path, capsys):
    inst = str(tmp_path / "chain.gr")
    run_ok(["gen", "fig6", "--copies", "3", "--out", inst], capsys)
    out = run_ok(["reduce", inst, "--rule", "plus", "--iterate"], capsys)
    assert "rounds=4" in out
    assert "fixed=6" in out


def test_greedy_composes_with_reduction(tmp_path, capsys):
    inst = str(tmp_path / "g.gr")
    run_ok(["gen", "gnp", "--n", "40", "--p", "0.15", "--seed", "3",
            "--out", inst], capsys)
    plain = run_ok(["greedy", inst, "--runs", "5", "--seed", "2"], capsys)
    assert plain.startswith("size=")
    after = run_ok(
        ["greedy", inst, "--runs", "5", "--seed", "2", "--after", "extra",
         "--iterate"],
        capsys,
    )
    assert after.startswith("size=")
    # a valid composition never loses to scale: both lines parse
    size_plain = int(plain.split()[0].split("=")[1])
    size_after = int(after.split()[0].split("=")[1])
    assert size_plain >= 1 and size_after >= 1


def test_greedy_fully_reduced_instance_is_fixed_only(tmp_path, capsys):
    inst = str(tmp_path / "p6.gr")
    run_ok(["gen", "path", "--n", "6", "--out", inst], capsys)
    out = run_ok(["greedy", inst, "--after", "linear"], capsys)
    assert out.strip() == "size=2 fixed=2 greedy=0"


@pytest.mark.parametrize("name", ["p3.gr", "p3.el"])
def test_greedy_exits_one_on_a_non_dominating_solution(
    tmp_path, capsys, monkeypatch, name
):
    # the greedy picks are checked, not trusted; the undominated id is
    # reported in the input's base
    inst = str(tmp_path / name)
    run_ok(["gen", "path", "--n", "3", "--out", inst], capsys)
    monkeypatch.setattr(cli, "greedy_best_of", lambda state, seeds: [])
    assert main(["greedy", inst]) == 1
    out = capsys.readouterr()
    first = 1 if name.endswith(".gr") else 0
    assert out.err == f"INVALID: vertex {first} not dominated\n"
    assert out.out == ""


def test_usage_errors_exit_two(tmp_path, capsys):
    cases = [
        ["reduce", "x.gr", "--rule", "plus", "--max-rounds", "5"],
        ["greedy", "x.gr", "--runs", "0"],
        ["greedy", "x.gr", "--iterate"],
        ["gen", "gnp", "--n", "5", "--out", str(tmp_path / "o.gr")],
        ["gen", "cycle", "--n", "2", "--out", str(tmp_path / "o.gr")],
        ["gen", "star", "--n", "-1", "--out", str(tmp_path / "o.gr")],
        ["bench", "--dir", ".", "--rules", "linear,warp", "--report", "r.csv"],
        ["bench", "--dir", ".", "--rules", "linear", "--report", "r.csv",
         "--workers", "0"],
        *(["bench", "--dir", ".", "--rules", "linear", "--report", "r.csv",
           "--timeout-s", t] for t in ("0", "-1", "nan", "inf")),
        ["nosuchcmd"],
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2, argv
        capsys.readouterr()


def test_usage_errors_print_the_subcommand_usage(tmp_path, capsys):
    inst = str(tmp_path / "p50.gr")
    run_ok(["gen", "path", "--n", "50", "--out", inst], capsys)
    cases = [
        (["reduce", inst, "--rule", "extra", "--iterate", "--max-rounds", "0"],
         "usage: dsreduce reduce", "--max-rounds must be at least 1"),
        (["greedy", inst, "--runs", "0"],
         "usage: dsreduce greedy", "--runs must be at least 1"),
        (["gen", "star", "--out", str(tmp_path / "o.gr")],
         "usage: dsreduce gen", "star needs --n"),
        (["bench", "--dir", ".", "--rules", "warp", "--report", "r.csv"],
         "usage: dsreduce bench",
         "unknown rule 'warp' (choose from linear, plus, extra)"),
        # the one-sweep rule is the test oracle's alone; each command
        # refuses it and names the rules it offers
        (["reduce", inst, "--rule", "naive"],
         "usage: dsreduce reduce", "argument --rule: invalid choice: 'naive' "
         "(choose from 'linear', 'plus', 'extra')"),
        (["greedy", inst, "--after", "naive"],
         "usage: dsreduce greedy", "argument --after: invalid choice: 'naive' "
         "(choose from 'none', 'linear', 'plus', 'extra')"),
        (["bench", "--dir", ".", "--rules", "linear,naive", "--report", "r.csv"],
         "usage: dsreduce bench",
         "unknown rule 'naive' (choose from linear, plus, extra)"),
        (["bench", "--dir", ".", "--rules", ",", "--report", "r.csv"],
         "usage: dsreduce bench", "--rules must name at least one rule"),
        (["bench", "--dir", ".", "--rules", "linear", "--report", "r.csv",
          "--timeout-s", "-1"],
         "usage: dsreduce bench", "--timeout-s must be a positive number of seconds"),
    ]
    for argv, usage, message in cases:
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(usage + " "), err
        assert err.rstrip("\n").endswith("error: " + message), err


def test_max_rounds_below_one_is_usage_error(tmp_path, capsys):
    inst = str(tmp_path / "p50.gr")
    run_ok(["gen", "path", "--n", "50", "--out", inst], capsys)
    for cap in ("0", "-1"):
        with pytest.raises(SystemExit) as ei:
            main(["reduce", inst, "--rule", "extra", "--iterate",
                  "--max-rounds", cap])
        assert ei.value.code == 2
        assert "--max-rounds must be at least 1" in capsys.readouterr().err


def test_round_cap_is_reported_on_stderr(tmp_path, capfd):
    # capfd, not capsys: bench's child processes write to the inherited fds
    inst = str(tmp_path / "chain.gr")
    run_ok(["gen", "fig6", "--copies", "3", "--out", inst], capfd)
    capped = ["reduce", inst, "--rule", "plus", "--iterate", "--max-rounds"]
    for cap in ("1", "2"):
        assert main(capped + [cap]) == 0
        out = capfd.readouterr()
        assert f"rounds={cap} " in out.out
        assert out.err == (
            f"note: --iterate stopped at the cap of {cap} rounds before "
            "converging; the residual may reduce further\n"
        )
    assert out.out.startswith("fixed=4 ")
    # four rounds converge (the fourth is idle), so a cap of 4 is not hit
    assert main(capped + ["4"]) == 0
    out = capfd.readouterr()
    assert "rounds=4" in out.out and out.err == ""
    # A plain rule is one round of the iterated driver.  Round 1 acts here,
    # so that internal cap stops it, but only an explicit cap is noted.
    for rule in ("linear", "plus", "extra"):
        assert main(["reduce", inst, "--rule", rule]) == 0
        out = capfd.readouterr()
        assert "rounds=1 " in out.out and out.err == ""
    report = str(tmp_path / "bench.csv")
    assert main(["bench", "--dir", str(tmp_path), "--rules", "plus,extra",
                 "--report", report]) == 0
    out = capfd.readouterr()
    assert out.out == f"wrote {report}: 2 rows\n" and out.err == ""


def test_long_path_iterates_to_its_fixed_point(tmp_path, capsys):
    # A 12000-path sheds a few vertices at each end per round and needs
    # 2001 rounds; with no --max-rounds nothing caps them, so the whole
    # path reduces and the committed vertices are an optimum, 12000 / 3.
    inst = str(tmp_path / "p12000.gr")
    run_ok(["gen", "path", "--n", "12000", "--out", inst], capsys)
    assert main(["reduce", inst, "--rule", "extra", "--iterate"]) == 0
    out = capsys.readouterr()
    assert out.out == (
        "fixed=4000 removed_nodes=8000 removed_edges=11999 rounds=2001 "
        "residual_n=0 residual_m=0\n"
    )
    assert out.err == ""
    # greedy has no --max-rounds and finds nothing left to pick
    rc = main(["greedy", inst, "--after", "extra", "--iterate", "--runs", "1"])
    assert rc == 0
    out = capsys.readouterr()
    assert out.out == "size=4000 fixed=4000 greedy=0\n"
    assert out.err == ""


def collections_during(fn, *args):
    """How many cyclic garbage collections start while ``fn(*args)`` runs."""
    starts = []

    def hook(phase, _info):
        if phase == "start":
            starts.append(phase)

    gc.callbacks.append(hook)
    try:
        fn(*args)
    finally:
        gc.callbacks.remove(hook)
    return len(starts)


def test_commands_run_without_cyclic_collections(tmp_path, capsys):
    inst = str(tmp_path / "g.gr")
    with open(inst, "w") as fh:
        write_gr(gnp(2000, 0.002, seed=3), fh)
    enabled = gc.isenabled()
    gc.enable()
    try:
        # reading the graph alone collects when the collector is on, so
        # the zero counts below are not vacuous
        assert collections_during(graphio.read_graph, inst) > 0
        reduce = ["reduce", inst, "--rule", "extra", "--iterate",
                  "--out", str(tmp_path / "g.res.gr"),
                  "--sidecar", str(tmp_path / "g.side"),
                  "--report", str(tmp_path / "g.csv")]
        assert collections_during(run_ok, reduce, capsys) == 0
        greedy = ["greedy", inst, "--after", "extra", "--iterate", "--runs", "3"]
        assert collections_during(run_ok, greedy, capsys) == 0
        assert gc.isenabled()
    finally:
        if not enabled:
            gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state_on_every_exit(
    tmp_path, capsys, monkeypatch, enabled
):
    inst = str(tmp_path / "p7.gr")
    side = str(tmp_path / "p7.side")
    run_ok(["gen", "fig6", "--copies", "1", "--out", inst], capsys)
    run_ok(["reduce", inst, "--rule", "linear", "--sidecar", side], capsys)
    bad = tmp_path / "bad.gr"
    bad.write_text("p ds 3 1\n9 9\n")
    reduce = ["reduce", inst, "--rule", "extra"]
    exits = [
        (reduce, 0),
        (["verify", inst, "--solution", side], 1),  # not dominating
        (reduce + ["--iterate", "--max-rounds", "0"], 2),  # a command's parser.error
        (["reduce", inst], 2),  # the parser's own error
        (["reduce", str(tmp_path / "absent.gr"), "--rule", "linear"], 3),
        (["reduce", str(bad), "--rule", "linear"], 3),
    ]
    seen = []

    def broken(*_args):
        seen.append(gc.isenabled())
        raise RuntimeError("reduction failed")

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in exits:
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            assert (rc, gc.isenabled()) == (code, enabled), argv
        monkeypatch.setattr(cli, "reduce_iterate", broken)
        with pytest.raises(RuntimeError, match="reduction failed"):
            main(reduce)
        assert seen == [False]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def outcome(argv, capsys):
    """The exit code, stdout and stderr of one ``main`` call."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    inst = str(tmp_path / "p7.gr")
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    try:
        run_ok(["gen", "fig6", "--copies", "1", "--out", inst], capsys)
        # the top-level parser and one per command
        assert built.count("dsreduce") == 1
        first = list(built)
        run_ok(["reduce", inst, "--rule", "extra", "--iterate"], capsys)
        run_ok(["greedy", inst, "--runs", "2"], capsys)
        assert outcome(["reduce", inst], capsys)[0] == 2
        run_ok(["reduce", inst, "--rule", "linear"], capsys)
        assert built == first
    finally:
        # the next main builds the parser with the real constructor
        cli.build_parser.cache_clear()


def test_cached_parser_matches_a_fresh_one(tmp_path, capsys):
    inst = str(tmp_path / "p7.gr")
    side = str(tmp_path / "p7.side")
    bad = tmp_path / "bad.gr"
    bad.write_text("p ds 3 1\n9 9\n")
    run_ok(["gen", "fig6", "--copies", "1", "--out", inst], capsys)
    run_ok(["reduce", inst, "--rule", "linear", "--sidecar", side], capsys)
    reduce = ["reduce", inst, "--rule", "extra"]
    commands = [
        (reduce + ["--out", str(tmp_path / "p7.res.gr")], 0),
        (["reduce", "x.gr"], 2),  # no --rule: the parser's own error
        (reduce + ["--iterate", "--max-rounds", "0"], 2),  # the command's error
        (["reduce", str(bad), "--rule", "linear"], 3),
        (["verify", inst, "--solution", side], 1),  # not dominating
        (["greedy", inst, "--after", "plus", "--runs", "3"], 0),
    ]
    # one sequence through the parser the setup commands built, then each
    # command through a parser built for it alone
    warm = [outcome(argv, capsys) for argv, _code in commands]
    fresh = []
    for argv, _code in commands:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv, capsys))
    assert [rc for rc, _out, _err in warm] == [code for _argv, code in commands]
    assert warm == fresh


def test_commands_leave_no_cyclic_garbage(tmp_path, capsys):
    inst = str(tmp_path / "g.gr")
    # the warm-up command builds the parser, which is kept
    run_ok(["gen", "gnp", "--n", "300", "--p", "0.01", "--out", inst], capsys)
    gc.collect()
    commands = [
        ["reduce", inst, "--rule", "extra", "--iterate",
         "--out", str(tmp_path / "g.res.gr"),
         "--sidecar", str(tmp_path / "g.side"),
         "--report", str(tmp_path / "g.csv")],
        ["greedy", inst, "--after", "extra", "--iterate", "--runs", "3"],
    ]
    for argv in commands:
        run_ok(argv, capsys)
        assert gc.collect() == 0, argv


def test_missing_and_corrupt_inputs_exit_three(tmp_path, capsys):
    assert main(["reduce", str(tmp_path / "absent.gr"), "--rule", "linear"]) == 3
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.gr"
    bad.write_text("p ds 3 1\n9 9\n")
    assert main(["reduce", str(bad), "--rule", "linear"]) == 3
    err = capsys.readouterr().err
    assert "vertex id outside" in err


@pytest.mark.parametrize(
    "name, text", [("big.gr", "p ds 3 1\n1 2\n"), ("big.el", "p ds 3 1\n0 1\n")]
)
def test_instance_too_large_for_memory_exits_three(
    tmp_path, capsys, monkeypatch, name, text
):
    # a header may declare any vertex count; the builder's MemoryError is
    # simulated here instead of allocating a graph that size
    def out_of_memory(n, edges):
        raise MemoryError

    monkeypatch.setattr(graphio, "load_check", out_of_memory)
    inst = tmp_path / name
    inst.write_text(text)
    assert main(["reduce", str(inst), "--rule", "linear"]) == 3
    out = capsys.readouterr()
    assert out.err == f"error: {inst}: instance does not fit in memory\n"
    assert out.out == ""


def test_non_utf8_bytes_exit_three_with_line_number(tmp_path, capsys):
    cases = [
        ("bad.gr", b"p ds 3 1\n1 2\xff\n"),
        ("bad.el", b"0 1\n1 \xff\n"),
    ]
    for name, data in cases:
        bad = tmp_path / name
        bad.write_bytes(data)
        assert main(["reduce", str(bad), "--rule", "linear"]) == 3, name
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: non-numeric endpoint"), err

    inst = str(tmp_path / "p3.gr")
    run_ok(["gen", "path", "--n", "3", "--out", inst], capsys)
    side = tmp_path / "bad.side"
    side.write_bytes(b"fixed:\n\xe92\n")
    assert main(["verify", inst, "--solution", str(side)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: non-numeric id"), err

    # comments are free text, whatever their encoding
    latin = tmp_path / "latin.gr"
    latin.write_bytes(b"c caf\xe9 au lait\np ds 3 2\n1 2\n2 3\n")
    out = run_ok(["reduce", str(latin), "--rule", "linear"], capsys)
    assert "fixed=1 " in out


def test_byte_order_mark_is_skipped(tmp_path, capsys):
    # editors on some platforms save UTF-8 with a leading BOM
    bom = b"\xef\xbb\xbf"
    for name, data in (("p3.gr", b"p ds 3 2\n1 2\n2 3\n"), ("p3.el", b"0 1\n1 2\n")):
        inst = tmp_path / name
        inst.write_bytes(bom + data)
        out = run_ok(["reduce", str(inst), "--rule", "linear"], capsys)
        assert out.startswith("fixed=1 removed_nodes=2 removed_edges=2 "), name

    inst = str(tmp_path / "p3.gr")
    side = tmp_path / "p3.side"
    side.write_bytes(bom + b"fixed:\n2\n")
    out = run_ok(["verify", inst, "--solution", str(side)], capsys)
    assert out.strip() == "valid: 1 vertices dominate all 3"


def test_reduce_fix_isolated_commits_isolated_vertex(tmp_path, capsys):
    # vertex 3 (4 in the file) is isolated; the rule fixes 1 and 5 (2, 6)
    inst = str(tmp_path / "g.gr")
    with open(inst, "w") as fh:
        write_gr(load_check(6, [(0, 1), (1, 2), (4, 5)]), fh)
    side = tmp_path / "g.side"
    report = tmp_path / "g.csv"
    cases = [([], 2, 1, [2, 6]), (["--fix-isolated"], 3, 0, [2, 4, 6])]
    for flag, fixed, res_n, side_fixed in cases:
        out = run_ok(
            ["reduce", inst, "--rule", "linear", "--sidecar", str(side),
             "--report", str(report), *flag],
            capsys,
        )
        stats = {k: int(v) for k, v in (tok.split("=") for tok in out.split())}
        assert stats["fixed"] == fixed and stats["residual_n"] == res_n, out
        with open(side) as fh:
            assert sorted(read_sidecar(fh)["fixed"]) == side_fixed
        with open(report) as fh:
            (row,) = list(csv.DictReader(fh))
        row = {k: int(row[k]) for k in ("n", "m", "fixed", "removed_nodes", "removed_edges")}
        assert row["n"] == row["fixed"] + row["removed_nodes"] + res_n
        assert row["m"] == row["removed_edges"] + stats["residual_m"]


def test_reduce_file_leaves_nothing_to_export(tmp_path):
    # ``_reduce_file`` calls no export: a committed vertex is gone at
    # once, ``reduce_iterate`` drops the covered vertices left isolated,
    # and ``fix_isolated_uncovered`` commits only isolated vertices.  So
    # no alive vertex is fixed, none is covered and isolated, and an
    # export of the state finds nothing to drop.
    graphs = [fig4_family(3), gadget_path("fig5", 4), gadget_path("fig6", 4),
              path(11), star(6)]
    graphs += [gnp(40, 0.03, seed) for seed in range(1, 7)]
    assert all(0 in g.deg for g in graphs[5:])
    cases = 0
    for i, g in enumerate(graphs):
        inst = str(tmp_path / f"g{i}.gr")
        with open(inst, "w") as fh:
            write_gr(g, fh)
        for rule in cli.RULES:
            for cap in (1, 2, None):
                for fix_isolated in (False, True):
                    _base, st, _rep, row = cli._reduce_file(
                        inst, rule, max_rounds=cap, fix_isolated=fix_isolated
                    )
                    alive = list(compress(range(st.n), st.alive))
                    where = (i, rule, cap, fix_isolated)
                    assert st.fixed.isdisjoint(alive), where
                    assert all(st.deg[v] or not st.covered[v] for v in alive), where
                    if fix_isolated:
                        assert all(st.deg[v] for v in alive), where
                    assert export_residual(copy_state(st)) == [], where
                    assert row["fixed"] == len(st.fixed), where
                    cases += 1
    assert cases == len(graphs) * 3 * 3 * 2


def test_reduce_row_and_residual_account_for_every_vertex_and_edge(tmp_path, capsys):
    # the row counts what the reduction removed; with the residual it must
    # cover n and m for every rule and iteration mode
    modes = [
        ["plus"], ["extra"], ["linear", "--iterate"],
        ["extra", "--iterate"],
        ["extra", "--iterate", "--max-rounds", "1"],
        ["plus", "--iterate", "--fix-isolated"],
    ]
    report = tmp_path / "g.csv"
    rounds = set()
    for p, seed in (("0.04", "1"), ("0.06", "2"), ("0.1", "2")):
        inst = str(tmp_path / f"g{p}-{seed}.gr")
        run_ok(["gen", "gnp", "--n", "40", "--p", p, "--seed", seed, "--out", inst], capsys)
        for rule, *flags in modes:
            out = run_ok(
                ["reduce", inst, "--rule", rule, "--report", str(report), *flags],
                capsys,
            )
            stats = {k: int(v) for k, v in (tok.split("=") for tok in out.split())}
            with open(report) as fh:
                (row,) = list(csv.DictReader(fh))
            row = {k: int(row[k]) for k in ("n", "m", "rounds", "fixed", "removed_nodes", "removed_edges")}
            for k in ("rounds", "fixed", "removed_nodes", "removed_edges"):
                assert row[k] == stats[k], (inst, rule, flags, k)
            assert row["n"] == 40
            assert row["n"] == row["fixed"] + row["removed_nodes"] + stats["residual_n"]
            assert row["m"] == row["removed_edges"] + stats["residual_m"]
            rounds.add(row["rounds"])
    # iterated runs commit and drop over several rounds, not only in one
    assert max(rounds) >= 3


def test_verify_rejects_out_of_range_solution(tmp_path, capsys):
    inst = str(tmp_path / "p3.gr")
    run_ok(["gen", "path", "--n", "3", "--out", inst], capsys)
    side = tmp_path / "sol.side"
    side.write_text("fixed:\nsolution:\n99\n")
    assert main(["verify", inst, "--solution", str(side)]) == 3
    assert "outside the instance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, err",
    [
        ("solution:\n9\n", "error: line 2: solution id 9 outside the instance\n"),
        # a sign is no part of an id: the line is malformed, not out of range
        ("c x\nfixed:\n1 -2\nsolution:\n5\n", "error: line 3: non-numeric id\n"),
        # fixed ids are checked before solution ids, whatever the file order
        ("solution:\n7\nfixed:\n\n0\n",
         "error: line 5: solution id 0 outside the instance\n"),
    ],
    ids=["above", "negative", "fixed-first"],
)
def test_verify_names_the_sidecar_line_of_a_bad_id(tmp_path, capsys, text, err):
    inst = str(tmp_path / "p3.gr")
    run_ok(["gen", "path", "--n", "3", "--out", inst], capsys)
    side = tmp_path / "sol.side"
    side.write_text(text)
    assert main(["verify", inst, "--solution", str(side)]) == 3
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "text, line",
    [("solution: 2\n", 1), ("solution:\n2\nfixed: 9\n", 3)],
    ids=["solution", "out-of-range-fixed"],
)
def test_verify_rejects_ids_on_a_section_header(tmp_path, capsys, text, line):
    # the ids would otherwise be dropped: a path 1-2-3 checked against
    # nothing, or an out-of-range id never seen
    inst = str(tmp_path / "p3.gr")
    run_ok(["gen", "path", "--n", "3", "--out", inst], capsys)
    side = tmp_path / "sol.side"
    side.write_text(text)
    assert main(["verify", inst, "--solution", str(side)]) == 3
    assert capsys.readouterr().err.startswith(f"error: line {line}: section header ")


def test_verify_accepts_solution_only_sidecar(tmp_path, capsys):
    inst = str(tmp_path / "star.gr")
    run_ok(["gen", "star", "--n", "5", "--out", inst], capsys)
    side = tmp_path / "sol.side"
    side.write_text("solution:\n1\n")
    out = run_ok(["verify", inst, "--solution", str(side)], capsys)
    assert out.strip() == "valid: 1 vertices dominate all 6"


def test_bench_rows_ordered_and_timeout_marked(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    run_ok(["gen", "path", "--n", "6", "--out", str(corpus / "a.gr")], capsys)
    run_ok(["gen", "complete", "--n", "5", "--out", str(corpus / "b.gr")], capsys)
    report = str(tmp_path / "bench.csv")
    run_ok(
        ["bench", "--dir", str(corpus), "--rules", "linear,plus",
         "--report", report, "--workers", "2"],
        capsys,
    )
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["instance"], r["variant"]) for r in rows] == [
        ("a.gr", "linear"),
        ("a.gr", "plus"),
        ("b.gr", "linear"),
        ("b.gr", "plus"),
    ]
    assert all(r["time_reduce_ms"] not in ("timeout", "error") for r in rows)

    # fig4 at k=300 has 2,100 vertices and 181,800 edges: reading and
    # reducing it under linear takes about 0.1 s, ten times the deadline
    slow = tmp_path / "slow"
    slow.mkdir()
    run_ok(["gen", "fig4", "--k", "300", "--out", str(slow / "big.gr")], capsys)
    run_ok(
        ["bench", "--dir", str(slow), "--rules", "linear", "--timeout-s", "0.01",
         "--report", report],
        capsys,
    )
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["time_reduce_ms"] == "timeout"
    assert rows[0]["instance"] == "big.gr"


def test_bench_survives_corrupt_instance(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "bad.gr").write_text("p ds 2 1\n5 1\n")
    run_ok(["gen", "path", "--n", "4", "--out", str(corpus / "ok.gr")], capsys)
    report = str(tmp_path / "bench.csv")
    run_ok(["bench", "--dir", str(corpus), "--rules", "linear",
            "--report", report], capsys)
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["instance"] == "bad.gr"
    assert rows[0]["time_reduce_ms"] == "error"
    assert rows[1]["instance"] == "ok.gr"
    assert rows[1]["time_reduce_ms"] not in ("timeout", "error")


def _child_dies_on_b(path, rule, conn):
    if os.path.basename(path) == "b.gr":
        os._exit(1)
    _bench_child(path, rule, conn)


def test_bench_child_that_dies_gets_error_rows(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("a.gr", "b.gr", "c.gr"):
        run_ok(["gen", "path", "--n", "6", "--out", str(corpus / name)], capsys)
    monkeypatch.setattr(cli, "_bench_child", _child_dies_on_b)
    report = str(tmp_path / "bench.csv")
    run_ok(
        ["bench", "--dir", str(corpus), "--rules", "linear,plus",
         "--report", report, "--workers", "2"],
        capsys,
    )
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["instance"], r["variant"]) for r in rows] == [
        (name, rule) for name in ("a.gr", "b.gr", "c.gr") for rule in ("linear", "plus")
    ]
    for r in rows:
        if r["instance"] == "b.gr":
            assert r["time_reduce_ms"] == "error" and r["fixed"] == "0"
        else:
            assert r["time_reduce_ms"] not in ("timeout", "error")
            assert (r["n"], r["fixed"], r["removed_nodes"]) == ("6", "2", "4")


def test_gen_edge_list_extension_roundtrip(tmp_path, capsys):
    # .el output is 0-based under a p header; reading it back with the
    # dispatching reader keeps ids straight for reduce and verify
    inst = str(tmp_path / "k4.el")
    run_ok(["gen", "complete", "--n", "4", "--out", inst], capsys)
    with open(inst) as fh:
        assert fh.read().startswith("p ds 4 6\n0 1\n")
    side = tmp_path / "sol.side"
    side.write_text("solution:\n0\n")
    out = run_ok(["verify", inst, "--solution", str(side)], capsys)
    assert out.strip() == "valid: 1 vertices dominate all 4"

    p4 = str(tmp_path / "p4.el")
    run_ok(["gen", "path", "--n", "4", "--out", p4], capsys)
    out = run_ok(["reduce", p4, "--rule", "linear"], capsys)
    assert "fixed=2 removed_nodes=2" in out

    # a .el residual is 0-based too, and the sidecar map follows it
    p7 = str(tmp_path / "p7.el")
    resid = tmp_path / "p7.residual.el"
    side = tmp_path / "p7.side"
    run_ok(["gen", "fig6", "--copies", "1", "--out", p7], capsys)
    run_ok(["reduce", p7, "--rule", "linear", "--out", str(resid),
            "--sidecar", str(side)], capsys)
    assert resid.read_text() == "p ds 3 2\n0 1\n1 2\n"
    assert side.read_text().endswith("map:\n0 2\n1 3\n2 4\n")
