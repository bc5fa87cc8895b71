"""Text formats: .gr instances, bare edge lists, sidecars, CSV reports.

On disk .gr files use 1-based ids (header ``p ds <n> <m>``, one edge
per line, ``c`` comments anywhere); edge lists are 0-based, with n
inferred unless the same header leads the file.  All in-memory ids are
0-based; callers translate through the reader's id base when echoing
ids back to users.
"""

from __future__ import annotations

import csv
from typing import IO, Iterable, Optional

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
    if len(tok) < 4:
        raise FormatError(f"line {lineno}: header needs 'p <kind> <n> <m>'")
    try:
        n = int(tok[-2])
        m = int(tok[-1])
    except ValueError:
        raise FormatError(f"line {lineno}: non-numeric header counts") from None
    if n < 0 or m < 0:
        raise FormatError(f"line {lineno}: negative header counts")
    return n, m


def read_gr(stream: IO[str]) -> Graph:
    n = -1
    m = -1
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(stream, start=1):
        tok = raw.split()
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
        try:
            u, v = int(tok[0]), int(tok[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-numeric endpoint") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise FormatError(f"line {lineno}: vertex id outside 1..{n}")
        if len(edges) == m:
            raise FormatError(f"line {lineno}: more edges than the header declares")
        edges.append((u - 1, v - 1))
    if n < 0:
        raise FormatError("missing 'p' header")
    if len(edges) < m:
        raise FormatError(f"truncated file: {len(edges)} of {m} edges present")
    return load_check(n, edges)


def read_edge_list(stream: IO[str]) -> Graph:
    """0-based edges; an optional leading ``p`` header fixes n and m."""
    n = -1
    m = -1
    edges: list[tuple[int, int]] = []
    top = -1
    for lineno, raw in enumerate(stream, start=1):
        tok = raw.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] == "p":
            if n >= 0 or edges:
                raise FormatError(f"line {lineno}: header must lead the file")
            n, m = _header(tok, lineno)
            continue
        if len(tok) != 2:
            raise FormatError(f"line {lineno}: expected two endpoints")
        try:
            u, v = int(tok[0]), int(tok[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-numeric endpoint") from None
        if u < 0 or v < 0:
            raise FormatError(f"line {lineno}: negative vertex id")
        if n >= 0 and not (u < n and v < n):
            raise FormatError(f"line {lineno}: vertex id outside 0..{n - 1}")
        top = max(top, u, v)
        edges.append((u, v))
    if n < 0:
        return load_check(top + 1, edges)
    if len(edges) != m:
        raise FormatError(f"header declares {m} edges, file holds {len(edges)}")
    return load_check(n, edges)


def id_base(path: str) -> int:
    """Id base of an instance file: 0 for a .el edge list, else 1 (.gr)."""
    return 0 if path.endswith(".el") else 1


def read_graph(path: str) -> tuple[Graph, int]:
    """Load by extension; returns the graph and the file's id base."""
    base = id_base(path)
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return (read_gr(fh) if base else read_edge_list(fh)), base


def write_gr(g: Graph, stream: IO[str], base: int = 1) -> None:
    """Header and one edge per line; ``base=0`` gives the .el id space."""
    stream.write(f"p ds {g.n} {g.m}\n")
    for u, v in g.edges():
        stream.write(f"{u + base} {v + base}\n")


def write_sidecar(
    stream: IO[str],
    fixed: Iterable[int],
    covered: Iterable[int],
    mapping: Iterable[tuple[int, int]],
    solution: Optional[Iterable[int]] = None,
) -> None:
    """Sections of ids in the input file's id space; map lines pair the
    residual file's id with the input id it came from."""
    stream.write("fixed:\n")
    for v in fixed:
        stream.write(f"{v}\n")
    stream.write("covered:\n")
    for v in covered:
        stream.write(f"{v}\n")
    stream.write("map:\n")
    for new, old in mapping:
        stream.write(f"{new} {old}\n")
    if solution is not None:
        stream.write("solution:\n")
        for v in solution:
            stream.write(f"{v}\n")


_SECTIONS = ("fixed:", "covered:", "map:", "solution:")


def read_sidecar(stream: IO[str]) -> dict:
    out = {"fixed": [], "covered": [], "map": [], "solution": []}
    section: Optional[str] = None
    for lineno, raw in enumerate(stream, start=1):
        tok = raw.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] in _SECTIONS:
            section = tok[0][:-1]
            continue
        if section is None:
            raise FormatError(f"line {lineno}: data before any section header")
        try:
            vals = [int(t) for t in tok]
        except ValueError:
            raise FormatError(f"line {lineno}: non-numeric id") from None
        if section == "map":
            if len(vals) != 2:
                raise FormatError(f"line {lineno}: map lines hold two ids")
            out["map"].append((vals[0], vals[1]))
        else:
            out[section].extend(vals)
    return out


def write_report_csv(rows: Iterable[dict], stream: IO[str]) -> None:
    writer = csv.DictWriter(stream, fieldnames=REPORT_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
