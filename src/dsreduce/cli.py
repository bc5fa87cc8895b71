"""Command line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 broken
input files.  Benchmark tasks run in child processes so a timeout can
kill them without taking the harness down.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from multiprocessing import Pipe, Process

from .generators import (
    barbell_cycle,
    complete,
    cycle,
    fig4_family,
    gadget_path,
    gnp,
    path,
    star,
)
from .graph import AnnotatedInstance, first_undominated
from .graphio import (
    REPORT_FIELDS,
    FormatError,
    id_base,
    read_graph,
    read_sidecar,
    write_gr,
    write_report_csv,
    write_sidecar,
)
from .greedy import default_seed_list, greedy_best_of
from .reducer import (
    MAX_ROUNDS,
    ReductionReport,
    Variant,
    export_residual,
    fix_isolated_uncovered,
    reduce_iterate,
    reduce_once,
)
from .state import ReductionState

RULES = ["naive", "linear", "plus", "extra"]

# gen family -> (flags it requires, builder from the parsed arguments)
GEN_FAMILIES = {
    "gnp": (("n", "p"), lambda a: gnp(a.n, a.p, a.seed)),
    "complete": (("n",), lambda a: complete(a.n)),
    "path": (("n",), lambda a: path(a.n)),
    "cycle": (("n",), lambda a: cycle(a.n)),
    "star": (("n",), lambda a: star(a.n)),
    "fig4": (("k",), lambda a: fig4_family(a.k)),
    "fig5": ((), lambda a: gadget_path("fig5", a.copies)),
    "fig6": ((), lambda a: gadget_path("fig6", a.copies)),
    "barbell": ((), lambda a: barbell_cycle()),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dsreduce",
        description="Preprocess and benchmark Dominating Set instances.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("reduce", help="apply a reduction rule to an instance")
    r.add_argument("instance")
    r.add_argument("--rule", required=True, choices=RULES)
    r.add_argument("--iterate", action="store_true")
    r.add_argument("--max-rounds", type=int, default=None)
    r.add_argument("--fix-isolated", action="store_true")
    r.add_argument("--out")
    r.add_argument("--sidecar")
    r.add_argument("--report")
    r.set_defaults(run=_cmd_reduce, parser=r)

    gr = sub.add_parser("greedy", help="greedy solve, optionally after a reduction")
    gr.add_argument("instance")
    gr.add_argument("--runs", type=int, default=10)
    gr.add_argument("--seed", type=int, default=1)
    gr.add_argument("--after", choices=["none"] + RULES, default="none")
    gr.add_argument("--iterate", action="store_true")
    gr.set_defaults(run=_cmd_greedy, parser=gr)

    ge = sub.add_parser("gen", help="write a generated instance")
    ge.add_argument("family", choices=list(GEN_FAMILIES))
    ge.add_argument("--n", type=int)
    ge.add_argument("--p", type=float)
    ge.add_argument("--k", type=int)
    ge.add_argument("--copies", type=int, default=1)
    ge.add_argument("--seed", type=int, default=0)
    ge.add_argument("--out", required=True)
    ge.set_defaults(run=_cmd_gen, parser=ge)

    b = sub.add_parser("bench", help="run rules over a corpus directory")
    b.add_argument("--dir", required=True)
    b.add_argument("--rules", required=True)
    b.add_argument("--timeout-s", type=float, default=None)
    b.add_argument("--report", required=True)
    b.add_argument("--workers", type=int, default=1)
    b.set_defaults(run=_cmd_bench, parser=b)

    v = sub.add_parser("verify", help="check a solution sidecar against an instance")
    v.add_argument("instance")
    v.add_argument("--solution", required=True)
    v.set_defaults(run=_cmd_verify, parser=v)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # each command reports usage errors through its own subparser
        return args.run(args, args.parser)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _report_row(path: str, rule: str, **columns) -> dict:
    """One report CSV row; counts and times not given are 0."""
    row = dict.fromkeys(REPORT_FIELDS, 0)
    row.update(instance=os.path.basename(path), variant=rule, **columns)
    return row


def _reduce_file(
    path: str, rule, *, iterate=False, max_rounds=MAX_ROUNDS, fix_isolated=False
):
    """Read, reduce and export one instance file.

    ``rule`` None only exports.  Returns the input graph, its id base,
    the final state, the compacted residual and the report row.  When
    ``max_rounds`` stops an iterated reduction that was still changing,
    one note goes to stderr.
    """
    t0 = time.perf_counter()
    g, base = read_graph(path)
    time_build = time.perf_counter() - t0

    state = ReductionState(g)
    t1 = time.perf_counter()
    if rule is None:
        rep = ReductionReport("none", rounds=0)
    elif iterate:
        rep = reduce_iterate(g, state, Variant(rule), max_rounds)
    else:
        rep = reduce_once(g, state, Variant(rule))
    if fix_isolated:
        fix_isolated_uncovered(g, state)
    comp, strips, dropped = export_residual(g, state)
    time_reduce = time.perf_counter() - t1
    if not rep.converged:
        print(
            f"note: --iterate stopped at the cap of {max_rounds} rounds "
            "before converging; the residual may reduce further",
            file=sys.stderr,
        )

    row = _report_row(
        path,
        rule,
        n=g.n,
        m=g.m,
        rounds=rep.rounds,
        fixed=len(state.fixed),
        removed_nodes=len(rep.removed_nodes) + len(dropped),
        removed_edges=rep.removed_edges + strips,
        time_build_ms=round(time_build * 1000, 3),
        time_reduce_ms=round(time_reduce * 1000, 3),
    )
    return g, base, state, comp, row


def _write_instance(g, path: str) -> None:
    """Write ``g`` in the id base its file extension calls for."""
    with open(path, "w", encoding="utf-8") as fh:
        write_gr(g, fh, base=id_base(path))


def _cmd_reduce(args, parser) -> int:
    if args.iterate and args.rule in ("naive", "linear"):
        parser.error("--iterate requires --rule plus or extra")
    if args.max_rounds is not None and not args.iterate:
        parser.error("--max-rounds only makes sense with --iterate")
    if args.max_rounds is not None and args.max_rounds < 1:
        parser.error("--max-rounds must be at least 1")
    max_rounds = MAX_ROUNDS if args.max_rounds is None else args.max_rounds

    _g, base, state, comp, row = _reduce_file(
        args.instance,
        args.rule,
        iterate=args.iterate,
        max_rounds=max_rounds,
        fix_isolated=args.fix_isolated,
    )
    res_base = id_base(args.out) if args.out else 1
    if args.out:
        _write_instance(comp.graph, args.out)
    if args.sidecar:
        res_n = comp.graph.n
        with open(args.sidecar, "w", encoding="utf-8") as fh:
            write_sidecar(
                fh,
                fixed=[v + base for v in state.fixed.sorted()],
                covered=[
                    comp.new_to_old[i] + base for i in range(res_n) if comp.covered[i]
                ],
                mapping=[(i + res_base, comp.new_to_old[i] + base) for i in range(res_n)],
            )
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="") as fh:
            write_report_csv([row], fh)

    print(
        f"fixed={row['fixed']} removed_nodes={row['removed_nodes']} "
        f"removed_edges={row['removed_edges']} rounds={row['rounds']} "
        f"residual_n={comp.graph.n} residual_m={comp.graph.m}"
    )
    return 0


def _cmd_greedy(args, parser) -> int:
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.iterate and args.after not in ("plus", "extra"):
        parser.error("--iterate requires --after plus or extra")

    g, base, state, comp, _row = _reduce_file(
        args.instance,
        None if args.after == "none" else args.after,
        iterate=args.iterate,
    )

    inst = AnnotatedInstance(comp.graph, comp.covered)
    best = greedy_best_of(inst, default_seed_list(args.seed, args.runs))
    solution = sorted(set(state.fixed) | {comp.new_to_old[v] for v in best})

    bad = first_undominated(g, solution)
    if bad >= 0:
        print(f"INVALID: vertex {bad + base} not dominated", file=sys.stderr)
        return 1
    print(f"size={len(solution)} fixed={len(state.fixed)} greedy={len(best)}")
    return 0


def _cmd_gen(args, parser) -> int:
    needs, build = GEN_FAMILIES[args.family]
    missing = [f"--{flag}" for flag in needs if getattr(args, flag) is None]
    if missing:
        parser.error(f"{args.family} needs {' and '.join(missing)}")
    try:
        g = build(args)
    except ValueError as exc:
        parser.error(str(exc))
    _write_instance(g, args.out)
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return 0


def _bench_child(path: str, rule: str, conn) -> None:
    try:
        row = _reduce_file(path, rule)[-1]
    except Exception:  # noqa: BLE001 - any failure becomes the task's error row
        row = _report_row(path, rule, time_reduce_ms="error")
    conn.send(row)


def _cmd_bench(args, parser) -> int:
    # imported here: it loads socket and tempfile, which no other command needs
    from multiprocessing.connection import wait

    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    if not rules:
        parser.error("--rules must name at least one rule")
    for r in rules:
        if r not in RULES:
            parser.error(f"unknown rule {r!r}")
    if args.workers < 1:
        parser.error("--workers must be at least 1")

    files = sorted(
        f for f in os.listdir(args.dir) if f.endswith(".gr") or f.endswith(".el")
    )
    tasks = [(fname, rule) for fname in files for rule in rules]
    results: dict[int, dict] = {}
    queue = list(enumerate(tasks))
    running: list[list] = []

    while queue or running:
        while queue and len(running) < args.workers:
            idx, (fname, rule) = queue.pop(0)
            recv_end, send_end = Pipe(duplex=False)
            proc = Process(
                target=_bench_child,
                args=(os.path.join(args.dir, fname), rule, send_end),
            )
            proc.start()
            send_end.close()
            deadline = (
                None if args.timeout_s is None else time.monotonic() + args.timeout_s
            )
            running.append([idx, fname, rule, proc, recv_end, deadline])

        deadlines = [item[5] for item in running if item[5] is not None]
        timeout = max(0.0, min(deadlines) - time.monotonic()) if deadlines else None
        ready = wait([item[4] for item in running], timeout)
        now = time.monotonic()
        still = []
        for item in running:
            idx, fname, rule, proc, conn, deadline = item
            if conn in ready:
                try:
                    results[idx] = conn.recv()
                except EOFError:
                    results[idx] = _report_row(fname, rule, time_reduce_ms="error")
                proc.join()
            elif deadline is not None and now >= deadline:
                proc.terminate()
                proc.join()
                results[idx] = _report_row(fname, rule, time_reduce_ms="timeout")
            else:
                still.append(item)
        running = still

    rows = [results[i] for i in range(len(tasks))]
    with open(args.report, "w", encoding="utf-8", newline="") as fh:
        write_report_csv(rows, fh)
    print(f"wrote {args.report}: {len(rows)} rows")
    return 0


def _cmd_verify(args, _parser) -> int:
    g, base = read_graph(args.instance)
    with open(args.solution, encoding="utf-8", errors="surrogateescape") as fh:
        side = read_sidecar(fh)
    picks = side["fixed"] + side["solution"]
    chosen = set()
    for v in picks:
        iv = v - base
        if not 0 <= iv < g.n:
            raise FormatError(f"solution id {v} outside the instance")
        chosen.add(iv)

    bad = first_undominated(g, chosen)
    if bad >= 0:
        print(f"INVALID: vertex {bad + base} not dominated")
        return 1
    print(f"valid: {len(chosen)} vertices dominate all {g.n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
