"""Seeded mutation fuzz of the instance readers, through the CLI.

Mutants of a 6-vertex ``.gr`` file and of its ``.el`` copy run through
``reduce --rule extra --iterate`` and ``greedy --runs 1`` in process.
Each command must exit 0 or 3, exit 0 exactly when the line-by-line
grammar (``oracle.read_instance_reference``) accepts the file, and on
exit 3 name a line, the missing header or the memory the instance
needs.  No mutant made here holds four digits in a row: a header or a
header-less edge list may declare any vertex count, and the graph is
allocated to match.  Counts of 20 digits run in one child process under
an address-space limit, so that a regression fails the test instead of
exhausting the host's memory.
"""

import os
import random
import re
import subprocess
import sys

import dsreduce
from dsreduce.cli import main
from dsreduce.graphio import FormatError
from dsreduce.oracle import read_instance_reference

GR = "c six vertices\np ds 6 7\n1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n1 4\n"
EL = "c six vertices\np ds 6 7\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 3\n"
# What a mutation inserts: ids in the grammar, ids int() reads but the
# grammar does not (sign, underscore, other digits), whitespace, line
# ends, words, a byte-order mark and a byte that is not UTF-8.
PIECES = [
    "0", "1", "6", "7", "00", "+", "-", "_", "١", "１", "²",
    " ", "\t", "\x0c", "\x0b", "\n", "\r\n", "\r", "x", "p", "c", "p ds 6 7",
    "\ufeff", "\udcff",
]
MESSAGE = re.compile(r"error: (line \d+: |.*: instance does not fit in memory$)|"
                     r"error: missing 'p' header$")


def mutant(rng, text):
    """``text`` after one to three random edits."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:at] + rng.choice(PIECES) + text[at:]
        elif op == 1:
            text = text[:at] + text[at + rng.randint(1, 3):]
        elif op == 2:
            text = text[:at] + rng.choice(PIECES) + text[at + 1:]
        else:
            lines = text.splitlines(keepends=True) or [""]
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i] = rng.choice([lines[j], "", lines[i] + lines[j]])
            text = "".join(lines)
    return text


def accepted(path, base):
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        try:
            read_instance_reference(fh, base)
        except FormatError:
            return False
    return True


def test_malformed_instances_exit_three_naming_a_line(tmp_path, capsys):
    rng = random.Random(17)
    files = [(str(tmp_path / "m.gr"), GR, 1), (str(tmp_path / "m.el"), EL, 0)]
    counts = {0: 0, 3: 0}
    for _ in range(2000):
        for path, text, base in files:
            text = mutant(rng, text)
            if re.search("[0-9]{4}", text):
                continue
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8", "surrogateescape"))
            want = 0 if accepted(path, base) else 3
            for argv in (
                ["reduce", path, "--rule", "extra", "--iterate"],
                ["greedy", path, "--runs", "1"],
            ):
                rc = main(argv)
                err = capsys.readouterr().err
                assert rc == want, (text, argv, err)
                counts[rc] += 1
                assert rc == 0 or MESSAGE.match(err), (text, err)
    # both outcomes are common, so the gate tests both sides
    assert min(counts.values()) > 1000, counts


HUGE = "1" + "0" * 20

# Each exits 3 without a traceback under the limit.  A 20-digit vertex
# count fills the limit with adjacency lists before it fails, so only
# two commands take it; an id or edge count that large fails at once.
CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from dsreduce.cli import main
for command, path in zip(sys.argv[1::2], sys.argv[2::2]):
    args = ["--rule", "extra", "--iterate"] if command == "reduce" else ["--runs", "1"]
    print(main([command, path] + args), flush=True)
"""


def test_huge_counts_exit_three_under_an_address_space_limit(tmp_path):
    cases = [
        ("reduce", "n.gr", GR.replace("p ds 6 7", f"p ds {HUGE} 7")),
        ("greedy", "n.el", EL.replace("p ds 6 7", f"p ds {HUGE} 7")),
        ("reduce", "id.gr", GR.replace("p ds 6 7", f"p ds {HUGE} 8") + f"1 {HUGE}\n"),
        ("greedy", "id.el", f"0 {HUGE}\n"),
        ("reduce", "m.gr", GR.replace("p ds 6 7", f"p ds 6 {HUGE}")),
        ("greedy", "m.el", EL.replace("p ds 6 7", f"p ds 6 {HUGE}")),
    ]
    argv = []
    for command, name, text in cases:
        (tmp_path / name).write_text(text)
        argv += [command, str(tmp_path / name)]
    src = os.path.dirname(os.path.dirname(dsreduce.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", CHILD] + argv, capture_output=True, text=True, timeout=300, env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["3"] * len(cases), run.stderr
    errs = run.stderr.splitlines()
    assert errs == [
        f"error: {tmp_path / 'n.gr'}: instance does not fit in memory",
        f"error: {tmp_path / 'n.el'}: instance does not fit in memory",
        f"error: {tmp_path / 'id.gr'}: instance does not fit in memory",
        f"error: {tmp_path / 'id.el'}: instance does not fit in memory",
        f"error: line 2: header declares {HUGE} edges, file holds 7",
        f"error: line 2: header declares {HUGE} edges, file holds 7",
    ], run.stderr
