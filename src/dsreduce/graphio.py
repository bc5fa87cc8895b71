"""Text formats: .gr instances, bare edge lists, sidecars, CSV reports.

On disk .gr files use 1-based ids (header ``p ds <n> <m>``, one edge
per line, ``c`` comments anywhere); edge lists are 0-based, with n
inferred unless the same header leads the file.  Ids and counts are
ASCII digits only, in instances and sidecars alike.  All in-memory ids
are 0-based; callers translate through the reader's id base when
echoing ids back to users.
"""

from __future__ import annotations

import csv
import json
from itertools import accumulate, compress
from math import inf
from typing import IO, Iterable, Iterator, Optional

from .graph import CheckedEnds, Graph, load_check

REPORT_FIELDS = [
    "instance",
    "n",
    "m",
    "variant",
    "rounds",
    "fixed",
    "removed_nodes",
    "removed_edges",
    "time_build_ms",
    "time_reduce_ms",
]


class FormatError(Exception):
    """Malformed input file; message carries the line number, or the
    file name when the instance does not fit in memory."""


def _number(tok: str, lineno: int, what: str) -> int:
    """A count or id: ASCII digits only, so no sign, ``_`` or other
    digits ``int`` would take."""
    if tok.isascii() and tok.isdigit():
        return int(tok)
    raise FormatError(f"line {lineno}: non-numeric {what}")


# text past the header is read in chunks of at most _CHUNK characters
_CHUNK = 16384
_NO_DIGITS = str.maketrans("", "", "0123456789")
_COMMAS = str.maketrans(" \n", ",,")


def read_gr(stream: IO[str]) -> Graph:
    """Read a .gr instance: 1-based ids, the header required."""
    return _read(stream, 1)


def read_edge_list(stream: IO[str]) -> Graph:
    """0-based edges; an optional leading ``p`` header fixes n and m,
    else n is one more than the largest id."""
    return _read(stream, 0)


def _read(stream: IO[str], base: int) -> Graph:
    """The one instance reader; ``base`` is the file's first id.

    Blank and ``c`` comment lines, then the header, are read with
    ``readline``; an edge list without a header hands its first edge
    line on to the chunks.  The rest is read in chunks, each cut after
    its last newline (the rest carries over).  A chunk that
    ``_canonical_ids`` parses, whose ids lie in range and fit the
    header's edge count, is taken whole; any other goes to ``_lines``,
    the only path that reports malformed input.  So a doubtful chunk
    costs only itself, and a file yields the graph or the message of
    the line-by-line grammar.  Ids map through one table, so all
    adjacency entries naming a vertex are the same int object; the table
    follows the ids in the file, so a header's n alone allocates nothing
    here.
    """
    n = m = -1
    lineno = head = 0
    tail = ""  # text read but not yet parsed
    while line := stream.readline():  # "" only at the end of the text
        lineno += 1
        tok = line.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] == "p":
            if len(tok) != 4:
                raise FormatError(f"line {lineno}: header needs 'p <kind> <n> <m>'")
            n = _number(tok[2], lineno, "header counts")
            m = _number(tok[3], lineno, "header counts")
            head = lineno
        elif base:
            raise FormatError(f"line {lineno}: edge before header")
        else:  # the first edge line of a bare edge list joins the first chunk
            tail = line
            lineno -= 1
        break
    top = n + base if n >= 0 else inf  # ids lie in base..top - 1
    room = 2 * m if m >= 0 else inf  # ids the header has room for
    ids = [-1] * base  # ids[k] is k - base, grown to the largest id seen
    ends = CheckedEnds()
    while (chunk := stream.read(_CHUNK)) or tail:
        text = tail + chunk
        cut = text.rfind("\n") + 1 if chunk else len(text)  # at the end, all
        text, tail = text[:cut], text[cut:]
        if not cut:  # a line longer than a chunk
            continue
        lines = text.count("\n")
        vals = _canonical_ids(text, lines)
        if not (vals and min(vals) >= base and (hi := max(vals)) < top and len(vals) <= room):
            vals = _lines(text, lineno, base, n, room)
            hi = max(vals, default=-1)
        if hi >= len(ids):
            ids += range(len(ids) - base, hi + 1 - base)
        ends += map(ids.__getitem__, vals)
        lineno += lines
        room -= len(vals)
    if n < 0:
        if base:
            raise FormatError("missing 'p' header")
        n = len(ids)
    if len(ends) < 2 * m:
        raise FormatError(f"line {head}: header declares {m} edges, file holds {len(ends) // 2}")
    return load_check(n, ends)


def _canonical_ids(text: str, lines: int) -> Optional[list[int]]:
    """The ids of ``lines`` lines of two ASCII-digit ids joined by one
    space, each ending in a newline, or None where ``text`` is not that.

    C-level calls check the whole text: deleting the digits must leave
    one ``" \\n"`` per line.  The ids are then parsed in one JSON scan,
    as the array the text is with spaces and newlines made commas; a
    text JSON refuses (an empty id, or leading zeros such as ``007``) is
    split and parsed with ``int`` instead, and must hold two ids per line.
    """
    if text.translate(_NO_DIGITS) != " \n" * lines:
        return None
    try:
        vals = json.loads("[" + text[:-1].translate(_COMMAS) + "]")
    except ValueError:
        vals = list(map(int, text.split()))
    return vals if len(vals) == 2 * lines else None


def _lines(text: str, lineno: int, base: int, n: int, room: float) -> list[int]:
    """The ids of ``text`` read line by line, which follows ``lineno``
    lines; ``n`` is -1 before any header, and ``room`` bounds the ids."""
    vals: list[int] = []
    for lineno, raw in enumerate(text.split("\n"), lineno + 1):
        tok = raw.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] == "p":
            fault = "duplicate header" if n >= 0 else "header must lead the file"
            raise FormatError(f"line {lineno}: {fault}")
        if len(tok) != 2:
            raise FormatError(f"line {lineno}: expected two endpoints")
        u = _number(tok[0], lineno, "endpoint")
        v = _number(tok[1], lineno, "endpoint")
        if n >= 0 and not (base <= u < n + base and base <= v < n + base):
            raise FormatError(f"line {lineno}: vertex id outside {base}..{n - 1 + base}")
        if len(vals) == room:
            raise FormatError(f"line {lineno}: more edges than the header declares")
        vals += (u, v)
    return vals


def id_base(path: str) -> int:
    """Id base of an instance file: 0 for a .el edge list, else 1 (.gr)."""
    return 0 if path.endswith(".el") else 1


def read_graph(path: str) -> tuple[Graph, int]:
    """Load by extension; returns the graph and the file's id base.

    An instance too large for memory (a header may declare any vertex
    count, an edge list name any id) is a ``FormatError`` naming the
    file, not a crash.
    """
    base = id_base(path)
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        try:
            return (read_gr(fh) if base else read_edge_list(fh)), base
        except (MemoryError, OverflowError):
            raise FormatError(f"{path}: instance does not fit in memory") from None


def write_gr(
    g: Graph, stream: IO[str], base: int = 1, alive: Optional[bytearray] = None
) -> None:
    """Header and one edge per line; ``base=0`` gives the .el id space.

    ``alive``, one flag per vertex of ``g``, writes only the alive
    vertices, renumbered in order from ``base``, and their edges to each
    other; a plain ``Graph`` with a mask may list edges to masked
    vertices, which are skipped.  So ``g`` may be a reduced
    ``ReductionState``, and the text is that of ``compact(g).graph``
    with nothing rebuilt.
    """
    adj = g.adj
    if alive is None or 0 not in alive:
        n = g.n
        name = list(map(str, range(base, base + n)))
        lines = [f"{name[u]} {name[v]}\n" for u, a in enumerate(adj) for v in a if v > u]
    else:
        n = alive.count(1)
        # the alive vertices up to u, less one, is u's new id; a dead
        # vertex shares a name it never uses, so only residual ids get one
        ids = list(map(str, range(base - 1, base + n)))
        name = list(map(ids.__getitem__, accumulate(alive)))
        lines = [
            f"{name[u]} {name[v]}\n"
            for u in compress(range(g.n), alive)
            for v in adj[u]
            if v > u and alive[v]
        ]
    stream.write(f"p ds {n} {len(lines)}\n")
    stream.write("".join(lines))


def write_sidecar(
    stream: IO[str],
    fixed: Iterable[int],
    covered: Iterable[int],
    mapping: Iterable[tuple[int, int]],
    solution: Optional[Iterable[int]] = None,
) -> None:
    """Sections of ids in the input file's id space; map lines pair the
    residual file's id with the input id it came from."""
    sections = [
        "fixed:\n",
        "".join([f"{v}\n" for v in fixed]),
        "covered:\n",
        "".join([f"{v}\n" for v in covered]),
        "map:\n",
        "".join([f"{new} {old}\n" for new, old in mapping]),
    ]
    if solution is not None:
        sections += ["solution:\n", "".join([f"{v}\n" for v in solution])]
    stream.writelines(sections)


_SECTIONS = ("fixed:", "covered:", "map:", "solution:")


def sidecar_lines(stream: IO[str]) -> Iterator[tuple[int, str, list[int]]]:
    """Yield (line number, section, ids) for each data line of a sidecar.

    A section header stands alone on its line; ids after it are an error,
    not data of the new section.
    """
    section: Optional[str] = None
    for lineno, raw in enumerate(stream, start=1):
        tok = raw.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] in _SECTIONS:
            if len(tok) > 1:
                raise FormatError(
                    f"line {lineno}: section header {tok[0]} must stand alone"
                )
            section = tok[0][:-1]
            continue
        if section is None:
            raise FormatError(f"line {lineno}: data before any section header")
        vals = [_number(t, lineno, "id") for t in tok]
        if section == "map" and len(vals) != 2:
            raise FormatError(f"line {lineno}: map lines hold two ids")
        yield lineno, section, vals


def write_report_csv(rows: Iterable[dict], stream: IO[str]) -> None:
    writer = csv.DictWriter(stream, fieldnames=REPORT_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
