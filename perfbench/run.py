"""dsreduce benchmark: reduce and solve a seeded corpus through the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 30 --trace 0

One process, one command at a time (a closed loop with one client), no
threads or child processes.  Set-up generates the workload's corpus from
the seed, writes it as ``.gr`` files and imports ``dsreduce`` from
``src/``.  Each pass then runs, for every instance,

    reduce <inst> --rule extra --iterate --out .. --sidecar .. --report ..
    greedy <inst> --after extra --iterate --runs 3 --seed 1

in-process through ``dsreduce.cli.main`` and checks every output against
the benchmark's own edge list (untimed).  Passes repeat until
``--seconds`` have gone by; times are medians over passes, scaled to a
reference host speed (see ``CALIBRATION_REF_S``).  With
``--trace 1`` passes alternate between untraced and traced, and the
per-layer metrics come from the traced ones.  The last line of stdout is
one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import tracemalloc

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sparse", "powerlaw", "chains")
SETUP_REPEATS = 7
# The host's speed drifts by up to 2x over tens of seconds, and a fixed
# pure-Python loop slows in step with the program.  So every timed step is
# bracketed by that loop, untimed, and its wall time is scaled by
# CALIBRATION_REF_S / (the loop's mean time around it): times are reported
# at the host speed at which the loop takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.005
GREEDY_RUNS = "3"
GREEDY_SEED = "1"

UNITS = {
    "reduce_s": "s",
    "solve_s": "s",
    "residual_frac": "ratio",
    "ds_size": "vertices",
    "peak_rss_mb": "MB",
    "passed_frac": "ratio",
    "setup_s": "s",
}


def calibration_s() -> float:
    """Wall time of one fixed loop of dict, list and set work.

    Ten small rounds rather than one large one keep the loop's memory
    well below the program's.
    """
    t0 = time.perf_counter()
    for _ in range(10):
        d = {}
        for i in range(3_000):
            d[i] = [i]
        set(d)
        sum(len(v) for v in d.values())
    return time.perf_counter() - t0


def scaled(wall: float, before: float, after: float) -> float:
    """``wall`` at the reference host speed, from the loop times around it."""
    return wall * 2 * CALIBRATION_REF_S / (before + after)


def load_program(cache_dir: str):
    """Import ``dsreduce`` afresh from this checkout's ``src``, never elsewhere.

    Modules of an earlier import are dropped first.  Bytecode is looked up
    under ``cache_dir``, which stays empty (nothing is written), so every
    import compiles from source whatever ``src`` holds in ``__pycache__``.
    """
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m.partition(".")[0] == "dsreduce"]:
        del sys.modules[name]
    importlib.invalidate_caches()
    prefix, sys.pycache_prefix = sys.pycache_prefix, cache_dir
    try:
        cli = importlib.import_module("dsreduce.cli")
    finally:
        sys.pycache_prefix = prefix
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"dsreduce came from {cli.__file__}, not {src}")
    return cli


class Bench:
    """One workload's corpus, its checkers and the measured passes."""

    def __init__(self, cli, corpus, workdir: str) -> None:
        from checks import Checker

        self.cli = cli
        self.corpus = corpus
        self.workdir = workdir
        self.checkers = [Checker(inst) for inst in corpus]
        self.first_output: dict[str, tuple[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.residual_nm = 0
        self.ds_size = 0
        self.alloc_peak = 0

    def command(self, argv, tracer, root: str):
        """Run one CLI command.

        Returns (exit code, stdout, wall seconds, scaled seconds).
        """
        before = calibration_s()
        gc.collect()
        out = io.StringIO()
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
            alloc_base = tracemalloc.get_traced_memory()[0]
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            idx = tracer.open(root) if tracer is not None else -1
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # noqa: BLE001 - a crash is a failed instance
                print(f"{root} crashed: {exc!r}", file=sys.stderr)
                rc = "crash"
            finally:
                if tracer is not None:
                    tracer.close(idx)
            wall = time.perf_counter() - t0
        if tracemalloc.is_tracing():
            peak = tracemalloc.get_traced_memory()[1] - alloc_base
            self.alloc_peak = max(self.alloc_peak, peak)
        return rc, out.getvalue(), wall, scaled(wall, before, calibration_s())

    def run_pass(self, tracer=None) -> tuple[float, float, float, float]:
        """Reduce and solve every instance once.

        Returns the summed wall seconds of reduce and of solve, then the
        same two sums scaled to the reference host speed.
        """
        t_reduce = t_solve = s_reduce = s_solve = 0.0
        residual_nm = ds_size = 0
        for inst, checker in zip(self.corpus, self.checkers):
            base = os.path.join(self.workdir, inst.name)
            files = (base + ".residual.gr", base + ".side", base + ".csv")
            for f in files:
                if os.path.exists(f):
                    os.remove(f)
            rc, out, wall, wall_scaled = self.command(
                ["reduce", inst.path, "--rule", "extra", "--iterate",
                 "--out", files[0], "--sidecar", files[1], "--report", files[2]],
                tracer, "cli.reduce",
            )
            t_reduce += wall
            s_reduce += wall_scaled
            problems, summary = checker.reduce(rc, out, files[2], files[1], files[0])
            rc2, out2, wall, wall_scaled = self.command(
                ["greedy", inst.path, "--after", "extra", "--iterate",
                 "--runs", GREEDY_RUNS, "--seed", GREEDY_SEED],
                tracer, "cli.greedy",
            )
            t_solve += wall
            s_solve += wall_scaled
            more, size = checker.solve(rc2, out2, summary.get("fixed", -1))
            problems += more
            first = self.first_output.setdefault(inst.name, (out, out2))
            if first != (out, out2):
                problems.append("output differs from the first pass")
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"check failed on {inst.name}: {'; '.join(problems)}", file=sys.stderr)
            residual_nm += summary.get("residual_n", 0) + summary.get("residual_m", 0)
            ds_size += size
        self.residual_nm, self.ds_size = residual_nm, ds_size
        return t_reduce, t_solve, s_reduce, s_solve

    def input_nm(self) -> int:
        return sum(inst.n + inst.m for inst in self.corpus)


def setup(workload: str, seed: int, workdir: str):
    """Import the program and build the corpus; returns (cli, corpus, setup_s).

    Set-up (import from source, corpus generation and writing) runs
    ``SETUP_REPEATS`` times; ``setup_s`` is the median of the scaled
    times, and the last import and corpus are the ones measured.
    """
    import corpus as corpus_mod

    times = []
    for _ in range(SETUP_REPEATS):
        before = calibration_s()
        gc.collect()
        t0 = time.perf_counter()
        cli = load_program(os.path.join(workdir, "no-bytecode"))
        corpus = corpus_mod.build(workload, seed, workdir)
        wall = time.perf_counter() - t0
        times.append(scaled(wall, before, calibration_s()))
    return cli, corpus, statistics.median(times)


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, int]:
    """Run passes for ``seconds``; returns the mode's metrics and pass count."""
    from spans import SELF_TIME_METRICS, Tracer, layer_metrics

    print(f"peak resident memory before the first command = {max_rss_mb():.6g} MB")
    bench.run_pass()  # warm-up: checked and counted, not timed
    gc.freeze()  # the corpus and check indexes stay out of the program's GC
    tracer = Tracer() if trace else None
    plain: list[tuple[float, float, float, float]] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + seconds
    while not plain or (trace and not traced) or time.perf_counter() < deadline:
        if tracer is None or len(traced) >= len(plain):
            plain.append(bench.run_pass())
            continue
        tracer.reset()
        tracer.install()
        try:
            times = bench.run_pass(tracer)
        finally:
            tracer.uninstall()
        wall = times[0] + times[1]
        layers = layer_metrics(tracer, 2 * bench.input_nm())
        layers["trace.command_s"] = wall
        layers["trace.command_scaled_s"] = times[2] + times[3]
        layers["trace.unattributed_s"] = wall - sum(
            layers[m] for m in SELF_TIME_METRICS.values()
        )
        traced.append(layers)

    if trace:
        out = {k: statistics.median(p[k] for p in traced) for k in traced[0]}
        # traced minus untraced, both scaled, so host drift between them cancels
        out["trace.overhead_s"] = out.pop("trace.command_scaled_s") - statistics.median(
            p[2] + p[3] for p in plain
        )
        # one more pass, untimed, for the program's own allocation peak
        tracemalloc.start()
        try:
            bench.run_pass()
        finally:
            tracemalloc.stop()
        out["runtime.command_alloc_peak_mb"] = bench.alloc_peak / 2**20
        return out, len(traced)
    print("wall time, not scaled: reduce = {:.6g} s, solve = {:.6g} s".format(
        statistics.median(p[0] for p in plain), statistics.median(p[1] for p in plain)))
    return {
        "reduce_s": statistics.median(p[2] for p in plain),
        "solve_s": statistics.median(p[3] for p in plain),
        "residual_frac": bench.residual_nm / bench.input_nm(),
        "ds_size": bench.ds_size,
        "peak_rss_mb": max_rss_mb(),
    }, len(plain)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        try:
            cli, corpus, setup_s = setup(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"error: cannot import the program: {exc}", file=sys.stderr)
            return 2
        bench = Bench(cli, corpus, workdir)
        values, passes = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    failed_frac = bench.failed / bench.attempted
    if args.trace:
        from spans import unit_of

        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        values["passed_frac"] = 1.0 - failed_frac
        values["setup_s"] = setup_s
        metrics = {k: {"value": values[k], "unit": u} for k, u in UNITS.items()}
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={passes} instances={len(corpus)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed_frac:.6g} ratio ({bench.failed} of {bench.attempted})")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
