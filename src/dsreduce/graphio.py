"""Text formats: .gr instances, bare edge lists, sidecars, CSV reports.

On disk .gr files use 1-based ids (header ``p ds <n> <m>``, one edge
per line, ``c`` comments anywhere); edge lists are 0-based, with n
inferred unless the same header leads the file.  All in-memory ids are
0-based; callers translate through the reader's id base when echoing
ids back to users.
"""

from __future__ import annotations

import csv
from typing import IO, Iterable, Iterator, Optional

from .graph import Graph, load_check

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
    """Malformed input file; message carries the line number."""


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


def read_gr(stream: IO[str]) -> Graph:
    n = -1
    m = -1
    ends: list[int] = []
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
    it = iter(ends)
    return load_check(n, zip(it, it))


def read_edge_list(stream: IO[str]) -> Graph:
    """0-based edges; an optional leading ``p`` header fixes n and m."""
    n = -1
    m = -1
    ends: list[int] = []
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
    it = iter(ends)
    if n < 0:
        return load_check(max(ends, default=-1) + 1, zip(it, it))
    if len(ends) != 2 * m:
        raise FormatError(f"header declares {m} edges, file holds {len(ends) // 2}")
    return load_check(n, zip(it, it))


def id_base(path: str) -> int:
    """Id base of an instance file: 0 for a .el edge list, else 1 (.gr)."""
    return 0 if path.endswith(".el") else 1


def read_graph(path: str) -> tuple[Graph, int]:
    """Load by extension; returns the graph and the file's id base."""
    base = id_base(path)
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        return (read_gr(fh) if base else read_edge_list(fh)), base


def write_gr(g: Graph, stream: IO[str], base: int = 1) -> None:
    """Header and one edge per line; ``base=0`` gives the .el id space."""
    name = [str(i + base) for i in range(g.n)]
    lines = [f"{name[u]} {name[v]}\n" for u, a in enumerate(g.adj) for v in a if v > u]
    stream.write(f"p ds {g.n} {g.m}\n")
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


def read_sidecar(stream: IO[str]) -> dict:
    out = {"fixed": [], "covered": [], "map": [], "solution": []}
    for _lineno, section, vals in sidecar_lines(stream):
        if section == "map":
            out["map"].append((vals[0], vals[1]))
        else:
            out[section].extend(vals)
    return out


def write_report_csv(rows: Iterable[dict], stream: IO[str]) -> None:
    writer = csv.DictWriter(stream, fieldnames=REPORT_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
