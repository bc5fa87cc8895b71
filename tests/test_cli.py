import csv
import os

import pytest

import dsreduce.cli as cli
from dsreduce.cli import _bench_child, main
from dsreduce.graph import load_check
from dsreduce.graphio import read_sidecar, write_gr


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


def test_usage_errors_exit_two(tmp_path, capsys):
    cases = [
        ["reduce", "x.gr", "--rule", "linear", "--iterate"],
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
         "usage: dsreduce bench", "unknown rule 'warp'"),
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


def test_round_cap_is_reported_on_stderr(tmp_path, capsys):
    inst = str(tmp_path / "chain.gr")
    run_ok(["gen", "fig6", "--copies", "3", "--out", inst], capsys)
    capped = ["reduce", inst, "--rule", "plus", "--iterate", "--max-rounds"]
    assert main(capped + ["2"]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("fixed=4 ") and "rounds=2" in out.out
    assert out.err == (
        "note: --iterate stopped at the cap of 2 rounds before converging; "
        "the residual may reduce further\n"
    )
    # four rounds converge (the fourth is idle), so a cap of 4 is not hit
    assert main(capped + ["4"]) == 0
    out = capsys.readouterr()
    assert "rounds=4" in out.out and out.err == ""

    # greedy has no --max-rounds; a 7000-path needs about 1170 rounds
    long_path = str(tmp_path / "p7000.gr")
    run_ok(["gen", "path", "--n", "7000", "--out", long_path], capsys)
    rc = main(["greedy", long_path, "--after", "extra", "--iterate", "--runs", "1"])
    assert rc == 0
    out = capsys.readouterr()
    assert out.out.startswith("size=")
    assert "cap of 1024 rounds" in out.err


def test_missing_and_corrupt_inputs_exit_three(tmp_path, capsys):
    assert main(["reduce", str(tmp_path / "absent.gr"), "--rule", "linear"]) == 3
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.gr"
    bad.write_text("p ds 3 1\n9 9\n")
    assert main(["reduce", str(bad), "--rule", "linear"]) == 3
    err = capsys.readouterr().err
    assert "vertex id outside" in err


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


def test_reduce_row_and_residual_account_for_every_vertex_and_edge(tmp_path, capsys):
    # the row sums the reduction with the export's strips and drops; with
    # the residual it must cover n and m for every rule and iteration mode
    modes = [
        ["naive"], ["plus"], ["extra"], ["extra", "--iterate"],
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
    # iterated runs strip and drop between rounds, not only at export
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
        ("c x\nfixed:\n1 -2\nsolution:\n5\n",
         "error: line 3: solution id -2 outside the instance\n"),
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
        ["bench", "--dir", str(corpus), "--rules", "linear,naive",
         "--report", report, "--workers", "2"],
        capsys,
    )
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["instance"], r["variant"]) for r in rows] == [
        ("a.gr", "linear"),
        ("a.gr", "naive"),
        ("b.gr", "linear"),
        ("b.gr", "naive"),
    ]
    assert all(r["time_reduce_ms"] not in ("timeout", "error") for r in rows)

    # k=100 keeps the child busy for over a second, far past the deadline
    slow = tmp_path / "slow"
    slow.mkdir()
    run_ok(["gen", "fig4", "--k", "100", "--out", str(slow / "big.gr")], capsys)
    run_ok(
        ["bench", "--dir", str(slow), "--rules", "naive", "--timeout-s", "0.01",
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
