"""Smoke tests for the benchmark harness at tiny corpus sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corpus  # noqa: E402
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY_SHAPES = {"sparse": (3, 120), "powerlaw": (3, 120), "chains": (2, 19)}


@pytest.fixture(autouse=True)
def tiny_corpus(monkeypatch):
    monkeypatch.setattr(corpus, "SHAPES", TINY_SHAPES)


def bench(capsys, workload, trace, seed=3, err=None):
    rc = run.main(["--workload", workload, "--seed", str(seed), "--trace", str(trace),
                   "--seconds", "0"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert rc == 0
    if err is not None:
        err.append(captured.err)
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(capsys, workload, trace, key):
    lines, res = bench(capsys, workload, trace)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    spec = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    for name, unit in spec.items():
        assert any(l.startswith(f"{name} = ") and l.endswith(f" {unit}") for l in lines), name
    assert any(l.startswith("failed_frac = 0 ratio") for l in lines)


def test_workloads_are_listed_in_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_exact_counts_repeat_on_the_same_seed(capsys):
    exact = ("reducer.rounds", "pipeline.candidates", "pipeline.witnesses",
             "pipeline.compute_superset_visits", "pipeline.compute_proper_partition_visits",
             "pipeline.filter_suitable_visits", "reducer.apply_visits")
    runs = [bench(capsys, "sparse", 1, seed=11)[1]["metrics"] for _ in range(2)]
    assert [{k: r[k]["value"] for k in exact} for r in runs][0] == {
        k: runs[1][k]["value"] for k in exact
    }
    plain = [bench(capsys, "sparse", 0, seed=11)[1]["metrics"] for _ in range(2)]
    for k in ("residual_frac", "ds_size"):
        assert plain[0][k]["value"] == plain[1][k]["value"]


def test_corrupted_sidecar_raises_failed_frac(capsys, monkeypatch):
    real_load = run.load_program

    def load_corrupted(cache_dir):
        # every set-up repeat imports afresh, so patch each import
        cli = real_load(cache_dir)
        real = cli.write_sidecar

        def drop_first_fixed(fh, fixed, covered, mapping, solution=None):
            real(fh, list(fixed)[1:], covered, mapping, solution)

        cli.write_sidecar = drop_first_fixed
        return cli

    monkeypatch.setattr(run, "load_program", load_corrupted)
    err = []
    lines, res = bench(capsys, "chains", 0, err=err)
    assert not res["correct"] and res["failed"] > 0
    frac = next(l for l in lines if l.startswith("failed_frac = ")).split()[2]
    assert float(frac) > 0
    assert res["metrics"]["passed_frac"]["value"] < 1
    # the domination check itself names a vertex, not only the count check
    assert "deleted or covered without a fixed neighbour" in err[0]
