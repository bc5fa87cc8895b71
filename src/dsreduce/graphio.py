"""Text formats: .gr instances, bare edge lists, sidecars, CSV reports.

On disk .gr files use 1-based ids (header ``p ds <n> <m>``, one edge
per line, ``c`` comments anywhere); edge lists are 0-based, with n
inferred unless the same header leads the file.  All in-memory ids are
0-based; callers translate through the reader's id base when echoing
ids back to users.
"""

from __future__ import annotations

import csv
import json
from itertools import accumulate, compress
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


def _header(tok: list[str], lineno: int) -> tuple[int, int]:
    """Vertex and edge counts of a ``p <kind> <n> <m>`` line."""
    if len(tok) != 4:
        raise FormatError(f"line {lineno}: header needs 'p <kind> <n> <m>'")
    try:
        n = int(tok[2])
        m = int(tok[3])
    except ValueError:
        raise FormatError(f"line {lineno}: non-numeric header counts") from None
    if n < 0 or m < 0:
        raise FormatError(f"line {lineno}: negative header counts")
    return n, m


# .gr bulk path: text is read in chunks of at most _CHUNK characters
_CHUNK = 16384
_NO_DIGITS = str.maketrans("", "", "0123456789")
_COMMAS = str.maketrans(" \n", ",,")


def read_gr(stream: IO[str]) -> Graph:
    """Read a .gr instance.

    A seekable stream whose first line past any ``c`` comments is a
    ``p <kind> <n> <m>`` header with ASCII-digit counts is read in bulk
    (``_read_gr_bulk``).  Any doubt about the rest sends the stream back
    to where it started, and ``_read_gr_lines`` reads it again: that
    reader alone reports errors, so a file yields the same graph or the
    same message either way.
    """
    try:
        start = stream.tell() if stream.seekable() else -1
    except OSError:
        start = -1
    if start >= 0:
        g = _read_gr_bulk(stream)
        if g is not None:
            return g
        stream.seek(start)
    return _read_gr_lines(stream)


def _read_gr_bulk(stream: IO[str]) -> Optional[Graph]:
    """The graph of a canonical .gr text, or None where the text is not.

    Canonical means ``c`` comment lines, if any, then the header, then
    exactly m lines of two ASCII-digit ids in 1..n joined by one space,
    each ending in a newline.  Each chunk is cut after its last newline
    (the rest carries over) and checked with C-level calls: deleting the
    digits must leave one ``" \\n"`` per line.  Its ids are then parsed
    in one JSON scan, as the array the chunk is with spaces and newlines
    made commas; a chunk JSON refuses (an empty id, or leading zeros such
    as ``007``) is split and parsed with ``int`` instead, and must hold
    two ids per line.  Ids map through one table, so all adjacency
    entries naming a vertex are the same int object; the table follows
    the ids in the file, so a header's n alone allocates nothing here.
    """
    tok = stream.readline().split()
    while tok[:1] == ["c"]:  # an empty list at the end of the text
        tok = stream.readline().split()
    if not (
        len(tok) == 4
        and tok[0] == "p"
        and tok[2].isascii()
        and tok[2].isdigit()
        and tok[3].isascii()
        and tok[3].isdigit()
    ):
        return None
    n = int(tok[2])
    m = int(tok[3])
    ids = [-1]  # ids[k] is k - 1, grown to the largest id seen, not to n
    ends = CheckedEnds()
    tail = ""
    while chunk := stream.read(_CHUNK):
        cut = chunk.rfind("\n") + 1
        if not cut:  # a last line without newline, or one longer than a chunk
            return None
        text = tail + chunk[:cut]
        tail = chunk[cut:]
        lines = text.count("\n")
        if text.translate(_NO_DIGITS) != " \n" * lines:
            return None
        try:
            vals = json.loads("[" + text[:-1].translate(_COMMAS) + "]")
        except ValueError:  # an empty id, or one JSON refuses, such as 007
            vals = list(map(int, text.split()))
        if len(vals) != 2 * lines:
            return None
        top = max(vals)
        if min(vals) < 1 or top > n:
            return None
        if top >= len(ids):
            ids += range(len(ids) - 1, top)
        ends += map(ids.__getitem__, vals)
        if len(ends) > 2 * m:  # stop early: the header bounds the list
            return None
    if tail or len(ends) != 2 * m:
        return None
    return load_check(n, ends)


def _read_gr_lines(stream: IO[str]) -> Graph:
    """Line by line; the only .gr path that reports malformed input."""
    n = -1
    m = -1
    ends = CheckedEnds()
    for lineno, raw in enumerate(stream, start=1):
        tok = raw.split()
        try:
            a, b = tok
            u = int(a)
            v = int(b)
        except ValueError:
            # not two integers: blank, comment, header or a malformed line
            if not tok or tok[0] == "c":
                continue
            if tok[0] == "p":
                if n >= 0:
                    raise FormatError(f"line {lineno}: duplicate header")
                n, m = _header(tok, lineno)
                continue
            if n < 0:
                raise FormatError(f"line {lineno}: edge before header")
            if len(tok) != 2:
                raise FormatError(f"line {lineno}: expected two endpoints")
            raise FormatError(f"line {lineno}: non-numeric endpoint") from None
        if not (0 < u <= n and 0 < v <= n):
            if n < 0:
                raise FormatError(f"line {lineno}: edge before header")
            raise FormatError(f"line {lineno}: vertex id outside 1..{n}")
        if len(ends) == 2 * m:
            raise FormatError(f"line {lineno}: more edges than the header declares")
        ends.append(u - 1)
        ends.append(v - 1)
    if n < 0:
        raise FormatError("missing 'p' header")
    if len(ends) < 2 * m:
        raise FormatError(f"truncated file: {len(ends) // 2} of {m} edges present")
    return load_check(n, ends)


def read_edge_list(stream: IO[str]) -> Graph:
    """0-based edges; an optional leading ``p`` header fixes n and m."""
    n = -1
    m = -1
    ends = CheckedEnds()
    for lineno, raw in enumerate(stream, start=1):
        tok = raw.split()
        try:
            a, b = tok
            u = int(a)
            v = int(b)
        except ValueError:
            # not two integers: blank, comment, header or a malformed line
            if not tok or tok[0] == "c":
                continue
            if tok[0] == "p":
                if n >= 0 or ends:
                    raise FormatError(f"line {lineno}: header must lead the file")
                n, m = _header(tok, lineno)
                continue
            if len(tok) != 2:
                raise FormatError(f"line {lineno}: expected two endpoints")
            raise FormatError(f"line {lineno}: non-numeric endpoint") from None
        if u < 0 or v < 0:
            raise FormatError(f"line {lineno}: negative vertex id")
        if n >= 0 and not (u < n and v < n):
            raise FormatError(f"line {lineno}: vertex id outside 0..{n - 1}")
        ends.append(u)
        ends.append(v)
    if n < 0:
        return load_check(max(ends, default=-1) + 1, ends)
    if len(ends) != 2 * m:
        raise FormatError(f"header declares {m} edges, file holds {len(ends) // 2}")
    return load_check(n, ends)


def id_base(path: str) -> int:
    """Id base of an instance file: 0 for a .el edge list, else 1 (.gr)."""
    return 0 if path.endswith(".el") else 1


def read_graph(path: str) -> tuple[Graph, int]:
    """Load by extension; returns the graph and the file's id base.

    An instance too large for memory (a header may declare any vertex
    count) is a ``FormatError`` naming the file, not a crash.
    """
    base = id_base(path)
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        try:
            return (read_gr(fh) if base else read_edge_list(fh)), base
        except MemoryError:
            raise FormatError(f"{path}: instance does not fit in memory") from None


def write_gr(
    g: Graph, stream: IO[str], base: int = 1, alive: Optional[bytearray] = None
) -> None:
    """Header and one edge per line; ``base=0`` gives the .el id space.

    ``alive``, one flag per vertex of ``g``, writes only the alive
    vertices, renumbered in order from ``base``, and skips list entries
    naming a dead vertex.  So ``g`` may be a stripped ``ReductionState``,
    and the text is that of ``compact(g).graph`` with nothing rebuilt.
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
        try:
            vals = [int(t) for t in tok]
        except ValueError:
            raise FormatError(f"line {lineno}: non-numeric id") from None
        if section == "map" and len(vals) != 2:
            raise FormatError(f"line {lineno}: map lines hold two ids")
        yield lineno, section, vals


def write_report_csv(rows: Iterable[dict], stream: IO[str]) -> None:
    writer = csv.DictWriter(stream, fieldnames=REPORT_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
