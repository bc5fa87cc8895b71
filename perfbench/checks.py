"""Independent checks of the program's outputs.

Everything here parses the program's files with its own code and
compares them against the benchmark's own edge list, never through
``dsreduce.graphio`` or ``dsreduce.cli verify``, so a bug shared by the
program's writer and reader cannot hide itself.  Each check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import re
from array import array
from bisect import bisect_left

from corpus import Instance

_SUMMARY = re.compile(
    r"^fixed=(\d+) removed_nodes=(\d+) removed_edges=(\d+) rounds=(\d+) "
    r"residual_n=(\d+) residual_m=(\d+)$"
)
_SOLVE = re.compile(r"^size=(\d+) fixed=(\d+) greedy=(\d+)$")
_SUMMARY_KEYS = ("fixed", "removed_nodes", "removed_edges", "rounds", "residual_n", "residual_m")


class Checker:
    """Holds one instance's adjacency and edge index, built once.

    Both are flat arrays (compressed adjacency rows and sorted edge keys),
    to keep the benchmark's memory small next to the program's.
    """

    def __init__(self, inst: Instance) -> None:
        self.inst = inst
        n = inst.n
        start = array("i", bytes(4 * (n + 1)))
        for v in inst.ends:
            start[v + 1] += 1
        for v in range(n):
            start[v + 1] += start[v]
        fill = start[:-1]
        nbr = array("i", bytes(4 * len(inst.ends)))
        for u, v in inst.edges():
            nbr[fill[u]] = v
            fill[u] += 1
            nbr[fill[v]] = u
            fill[v] += 1
        self.start, self.nbr = start, nbr
        # ends are sorted with u < v, so the keys come out sorted
        self.edge_keys = array("q", (u * n + v for u, v in inst.edges()))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether 0-based u < v is an input edge."""
        key = u * self.inst.n + v
        i = bisect_left(self.edge_keys, key)
        return i < len(self.edge_keys) and self.edge_keys[i] == key

    def reduce(self, rc, stdout: str, report: str, sidecar: str, residual: str):
        """Check one ``reduce --out --sidecar --report`` run.

        Returns ``(problems, summary)`` where ``summary`` maps the printed
        counts by name (empty when the line did not parse).
        """
        if rc != 0:
            return [f"reduce exited {rc}"], {}
        match = _SUMMARY.match(stdout.strip())
        if match is None:
            return [f"unparsable reduce output {stdout.strip()!r}"], {}
        s = dict(zip(_SUMMARY_KEYS, map(int, match.groups())))
        problems = self._report(report, s)
        try:
            side = read_sidecar(sidecar)
            rn, redges = read_gr(residual)
        except (OSError, ValueError) as exc:
            return problems + [f"unreadable output: {exc}"], s
        problems += self._residual(s, side, rn, redges)
        problems += self._domination(side)
        return problems, s

    def _report(self, path: str, s: dict) -> list[str]:
        inst = self.inst
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            (row,) = rows
            got = {k: int(row[k]) for k in ("n", "m", "fixed", "removed_nodes", "removed_edges", "rounds")}
        except (OSError, ValueError, KeyError) as exc:
            return [f"bad report: {exc}"]
        problems = []
        if (got["n"], got["m"]) != (inst.n, inst.m):
            problems.append(f"report n,m {got['n']},{got['m']} != input {inst.n},{inst.m}")
        for k in ("fixed", "removed_nodes", "removed_edges", "rounds"):
            if got[k] != s[k]:
                problems.append(f"report {k}={got[k]} but printed {s[k]}")
        if inst.n != got["fixed"] + got["removed_nodes"] + s["residual_n"]:
            problems.append("n != fixed + removed_nodes + residual_n")
        if inst.m != got["removed_edges"] + s["residual_m"]:
            problems.append("m != removed_edges + residual_m")
        return problems

    def _residual(self, s: dict, side: dict, rn: int, redges) -> list[str]:
        n = self.inst.n
        problems = []
        if (rn, len(redges)) != (s["residual_n"], s["residual_m"]):
            problems.append(f"residual file n,m {rn},{len(redges)} != printed")
        fixed = side["fixed"]
        if len(fixed) != s["fixed"] or len(set(fixed)) != len(fixed):
            problems.append(f"sidecar holds {len(fixed)} fixed ids, printed {s['fixed']}")
        if any(not 1 <= v <= n for v in fixed):
            problems.append("fixed id outside the input")
        new_ids = sorted(a for a, _ in side["map"])
        old_ids = [b for _, b in side["map"]]
        if new_ids != list(range(1, rn + 1)):
            problems.append("map does not cover the residual ids exactly once")
            return problems
        if len(set(old_ids)) != len(old_ids) or any(not 1 <= b <= n for b in old_ids):
            problems.append("map targets are not distinct input ids")
            return problems
        if set(old_ids) & set(fixed):
            problems.append("a fixed vertex survives in the residual")
        to_old = dict(side["map"])
        for a, b in redges:
            u, v = to_old[a] - 1, to_old[b] - 1
            if u > v:
                u, v = v, u
            if not self.has_edge(u, v):
                problems.append(f"residual edge {a}-{b} is not an input edge")
                break
        if not set(side["covered"]) <= set(old_ids):
            problems.append("covered id is not a residual vertex")
        return problems

    def _domination(self, side: dict) -> list[str]:
        """Deleted and covered vertices must lie in N[fixed]."""
        n = self.inst.n
        dominated = bytearray(n)
        for f in side["fixed"]:
            if 1 <= f <= n:
                dominated[f - 1] = 1
                for w in self.nbr[self.start[f - 1]:self.start[f]]:
                    dominated[w] = 1
        kept = bytearray(n)
        for _, old in side["map"]:
            if 1 <= old <= n:
                kept[old - 1] = 1
        need = [v for v in range(n) if not kept[v]]
        need += [c - 1 for c in side["covered"] if 1 <= c <= n]
        for v in need:
            if not dominated[v]:
                return [f"vertex {v + 1} deleted or covered without a fixed neighbour"]
        return []

    @staticmethod
    def solve(rc, stdout: str, fixed: int):
        """Check one ``greedy`` run; returns ``(problems, size)``."""
        if rc != 0:
            return [f"greedy exited {rc}"], 0
        match = _SOLVE.match(stdout.strip())
        if match is None:
            return [f"unparsable greedy output {stdout.strip()!r}"], 0
        size, gfixed, picked = map(int, match.groups())
        problems = []
        if size != gfixed + picked:
            problems.append("size != fixed + greedy")
        if gfixed != fixed:
            problems.append(f"greedy reduced to {gfixed} fixed, reduce to {fixed}")
        return problems, size


def read_sidecar(path: str) -> dict:
    out = {"fixed": [], "covered": [], "map": [], "solution": []}
    section = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            tok = line.split()
            if not tok:
                continue
            if tok[0].endswith(":") and tok[0][:-1] in out:
                section = tok[0][:-1]
            elif section == "map" and len(tok) == 2:
                out["map"].append((int(tok[0]), int(tok[1])))
            elif section in ("fixed", "covered", "solution") and len(tok) == 1:
                out[section].append(int(tok[0]))
            else:
                raise ValueError(f"sidecar line {line.strip()!r}")
    return out


def read_gr(path: str) -> tuple[int, list[tuple[int, int]]]:
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().split()
        if len(head) != 4 or head[0] != "p":
            raise ValueError("residual has no 'p' header")
        n, m = int(head[2]), int(head[3])
        edges = []
        for line in fh:
            a, b = line.split()
            edges.append((int(a), int(b)))
    if len(edges) != m or any(not (1 <= a <= n and 1 <= b <= n) for a, b in edges):
        raise ValueError("residual edges disagree with its header")
    return n, edges
