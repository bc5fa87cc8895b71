"""Pinned digests of the program's outputs.

A refactor keeps "the same outputs": the same fixed and removed sets,
round counts, CSV rows, sidecars and exit codes.  These two tables pin
them, so the claim is a test instead of a script each change rebuilds.

- ``OUTPUT_DIGESTS``: per instance, one digest over every command of
  ``COMMANDS``, run in process through ``cli.main``.  It covers the
  exit code, stdout and stderr with the temporary directory's path
  removed, the residual, the sidecar and the report CSV without its
  time columns.
- ``LIBRARY_DIGESTS``: per instance, the digest of
  ``reduce_iterate``'s reports and the states it leaves, and the total
  of its ``WorkCounter`` visits, over every variant and round cap, on a
  fresh state and on one with a seeded covered mask.

Re-pinning rules:

- ``OUTPUT_DIGESTS`` and the report digests of ``LIBRARY_DIGESTS``
  change only in a change whose stated purpose is an output change.  A
  new rule, command or family adds rows and changes no old one.
- A visit total may change in a change that says so in CHANGES.md,
  with the direction per row.

``python tests/test_golden.py`` prints both tables in this file's form.
"""

import contextlib
import csv
import hashlib
import io
import os
import random
import tempfile
import zlib

import pytest

from dsreduce.cli import main
from dsreduce.generators import barbell_cycle, fig4_family, gadget_path, gnp, path
from dsreduce.graphio import write_gr
from dsreduce.pipeline import WorkCounter
from dsreduce.reducer import Variant, reduce_iterate
from dsreduce.state import ReductionState

from test_iterate import with_hub

SPECS = [
    "gnp 8 0.3 1", "gnp 12 0.2 2", "gnp 16 0.15 3", "gnp 20 0.1 4",
    "gnp 24 0.2 5", "gnp 30 0.06 6", "gnp 30 0.12 7", "gnp 40 0.05 8",
    "gnp 40 0.1 9", "gnp 50 0.04 10", "gnp 60 0.03 11", "gnp 60 0.08 12",
    "gnp 70 0.05 13", "gnp 70 0.15 14", "fig5 30", "fig6 30", "fig4 3",
    "fig4 5", "hub 50", "hub 98", "barbell",
]


def graph_of(spec):
    """The graph a spec names: ``gnp n p seed``, ``fig5``/``fig6`` with a
    copy count, ``fig4 k``, ``hub L`` (the path 0..L-1 plus a hub joined
    to every third vertex) or ``barbell``."""
    family, *args = spec.split()
    if family == "gnp":
        return gnp(int(args[0]), float(args[1]), int(args[2]))
    if family in ("fig5", "fig6"):
        return gadget_path(family, int(args[0]))
    if family == "fig4":
        return fig4_family(int(args[0]))
    if family == "hub":
        return with_hub(path(int(args[0])), 3)
    return barbell_cycle()


RUN_FILES = ["--out", "{dir}/res.gr", "--sidecar", "{dir}/side.txt", "--report", "{dir}/rep.csv"]
COMMANDS = [
    ["reduce", "{inst}", "--rule", rule, *mode, *fix, *RUN_FILES]
    for rule in ("linear", "plus", "extra")
    for mode in ([], ["--iterate"], ["--iterate", "--max-rounds", "2"])
    for fix in ([], ["--fix-isolated"])
] + [["greedy", "{inst}", "--after", "extra", "--iterate", "--runs", "3", "--seed", "1"]]

CAPS = (None, 1, 2, 3)


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def read_or_none(name):
    if not os.path.exists(name):
        return None
    with open(name, encoding="utf-8") as fh:
        text = fh.read()
    os.remove(name)
    return text


def report_rows(text):
    """The report CSV's rows without their time columns."""
    if text is None:
        return None
    return [
        sorted((k, v) for k, v in row.items() if not k.startswith("time_"))
        for row in csv.DictReader(io.StringIO(text))
    ]


def command_outputs(spec, workdir):
    """What every command of ``COMMANDS`` prints and writes on ``spec``."""
    inst = os.path.join(workdir, "inst.gr")
    with open(inst, "w", encoding="utf-8") as fh:
        write_gr(graph_of(spec), fh)
    outs = []
    for command in COMMANDS:
        argv = [a.format(inst=inst, dir=workdir) for a in command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        outs.append((
            rc,
            out.getvalue().replace(workdir, "<dir>"),
            err.getvalue().replace(workdir, "<dir>"),
            read_or_none(os.path.join(workdir, "res.gr")),
            read_or_none(os.path.join(workdir, "side.txt")),
            report_rows(read_or_none(os.path.join(workdir, "rep.csv"))),
        ))
    return outs


def library_outcome(spec):
    """``reduce_iterate``'s outcomes on ``spec`` and its visit total."""
    g = graph_of(spec)
    rng = random.Random(zlib.crc32(spec.encode()))
    mask = [v for v in range(g.n) if rng.random() < 0.2]
    outcomes = []
    visits = 0
    for covered in ((), mask):
        for variant in (Variant.LINEAR, Variant.PLUS, Variant.EXTRA):
            for cap in CAPS:
                st = ReductionState(g)
                for v in covered:
                    st.covered[v] = 1
                work = WorkCounter()
                rep = reduce_iterate(st, variant, cap, work=work)
                visits += work.visits
                outcomes.append((
                    rep.fixed, rep.removed_nodes, rep.removed_edges, rep.rounds,
                    rep.extra_edges, rep.converged,
                    bytes(st.alive), bytes(st.covered), sorted(st.fixed), st.deg,
                    [a if st.alive[v] else None for v, a in enumerate(st.adj)],
                ))
    return outcomes, visits


OUTPUT_DIGESTS = {
    'gnp 8 0.3 1': '17150fdefaedb2ad',
    'gnp 12 0.2 2': '2b1b0ae8ddc7c3bc',
    'gnp 16 0.15 3': 'aa82d375a92ba68d',
    'gnp 20 0.1 4': '15294d4bb786d437',
    'gnp 24 0.2 5': '360cafef7e48c616',
    'gnp 30 0.06 6': 'af0636eab470cdf8',
    'gnp 30 0.12 7': '0898c6b46c4b3ace',
    'gnp 40 0.05 8': '9b0c54838b6679ed',
    'gnp 40 0.1 9': '084d5efebd067a7d',
    'gnp 50 0.04 10': 'e771ba259ffb2f84',
    'gnp 60 0.03 11': '432a8f8195182f40',
    'gnp 60 0.08 12': '598be75b7d213e94',
    'gnp 70 0.05 13': '5614b4e0efcdeb1b',
    'gnp 70 0.15 14': '4c3a8964bb43d06b',
    'fig5 30': '0f322ae174e7a240',
    'fig6 30': '60696ee81618ecb1',
    'fig4 3': 'b12adb482444b9d7',
    'fig4 5': '9fe77ccb9f9e11bf',
    'hub 50': 'ee09e96f0cc728d9',
    'hub 98': '4311d577181d2d63',
    'barbell': '3e3e973400da5c67',
}

LIBRARY_DIGESTS = {
    'gnp 8 0.3 1': ('50b4dbdbaaf9c3fd', 2700),
    'gnp 12 0.2 2': ('e677e7ecacd56c67', 2520),
    'gnp 16 0.15 3': ('7c841dff20732df5', 5284),
    'gnp 20 0.1 4': ('ffee180ab03f459c', 3052),
    'gnp 24 0.2 5': ('978728e382f9f25b', 9711),
    'gnp 30 0.06 6': ('8327bd1013bd661e', 4101),
    'gnp 30 0.12 7': ('6e6837dad9ff8dda', 15328),
    'gnp 40 0.05 8': ('fc8adcaa947cfd40', 3987),
    'gnp 40 0.1 9': ('10ad923f4e496a8d', 14672),
    'gnp 50 0.04 10': ('1e4b4a0cd5ac43d5', 6999),
    'gnp 60 0.03 11': ('2fdceeab096f7630', 6924),
    'gnp 60 0.08 12': ('c54fb8955f7f7d50', 18966),
    'gnp 70 0.05 13': ('014f708e7231f853', 17621),
    'gnp 70 0.15 14': ('714f9f09ccbc2431', 31092),
    'fig5 30': ('5c36b17de5dad3de', 18955),
    'fig6 30': ('fe5914b0d35185dd', 22865),
    'fig4 3': ('c02dc13d9c673f16', 10764),
    'fig4 5': ('0df18c46410e1855', 25296),
    'hub 50': ('7a65104c55fe8d27', 10685),
    'hub 98': ('7380143def3b2d6b', 22392),
    'barbell': ('792fd8d462e29194', 2284),
}


@pytest.mark.parametrize("spec", SPECS)
def test_command_outputs_are_pinned(spec, tmp_path):
    assert digest(command_outputs(spec, str(tmp_path))) == OUTPUT_DIGESTS[spec], spec


@pytest.mark.parametrize("spec", SPECS)
def test_library_outcomes_are_pinned(spec):
    outcomes, visits = library_outcome(spec)
    assert (digest(outcomes), visits) == LIBRARY_DIGESTS[spec], spec


def test_tables_name_every_spec():
    assert list(OUTPUT_DIGESTS) == SPECS and list(LIBRARY_DIGESTS) == SPECS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        print("OUTPUT_DIGESTS = {")
        for spec in SPECS:
            print(f"    {spec!r}: {digest(command_outputs(spec, workdir))!r},")
        print("}\n\nLIBRARY_DIGESTS = {")
        for spec in SPECS:
            outcomes, visits = library_outcome(spec)
            print(f"    {spec!r}: ({digest(outcomes)!r}, {visits}),")
        print("}")
