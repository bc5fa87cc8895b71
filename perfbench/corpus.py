"""Seeded corpus generators for the benchmark workloads.

Every generator is a pure function of its arguments and a
``random.Random``.  The graphs are pinned per workload; the run's seed
sets how each file presents its graph (line order and edge orientation),
so the same seed gives the same files.  The benchmark keeps each
instance's edge list in memory to check the program's outputs without
going through the program's own reader.

The in-repo ``gnp`` draws every vertex pair and is O(n^2), and the repo
has no power-law family, so the two random families live here.
"""

from __future__ import annotations

import os
import random
from array import array
from dataclasses import dataclass


@dataclass
class Instance:
    """One generated input: its file and the benchmark's own edge list.

    ``ends`` holds each undirected edge once, as the 0-based pair u, v
    with u < v, flattened and sorted, with no duplicates or loops.  A flat
    array keeps the benchmark's own memory small next to the program's,
    so the program's peak sets the process's peak.
    """

    name: str
    path: str
    n: int
    ends: array

    @property
    def m(self) -> int:
        return len(self.ends) // 2

    def edges(self):
        ends = self.ends
        return zip(ends[0::2], ends[1::2])


def uniform_edges(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """G(n, m): ``m`` distinct edges drawn uniformly, no loops."""
    if m > n * (n - 1) // 2:
        raise ValueError("more edges than vertex pairs")
    seen: set[tuple[int, int]] = set()
    rand = rng.randrange
    while len(seen) < m:
        u = rand(n)
        v = rand(n)
        if u == v:
            continue
        if u > v:
            u, v = v, u
        seen.add((u, v))
    return sorted(seen)


def preferential_edges(n: int, k: int, rng: random.Random) -> list[tuple[int, int]]:
    """Preferential attachment: each new vertex joins ``k`` distinct
    earlier vertices chosen with probability proportional to degree.

    Starts from a (k+1)-clique, so every vertex ends with degree >= k.
    """
    if n <= k:
        raise ValueError("n must exceed the attachment count")
    edges = [(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)]
    ends = [v for e in edges for v in e]
    rand = rng.randrange
    for v in range(k + 1, n):
        picked: set[int] = set()
        while len(picked) < k:
            picked.add(ends[rand(len(ends))])
        for u in sorted(picked):
            edges.append((u, v))
            ends.append(u)
            ends.append(v)
    return sorted(edges)


def relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    """Apply a seeded random permutation to the vertex ids."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = []
    for u, v in edges:
        a, b = perm[u], perm[v]
        out.append((a, b) if a < b else (b, a))
    out.sort()
    return out


def write_gr(path: str, n: int, edges, rng: random.Random) -> None:
    """Write a DIMACS-like ``.gr`` file with 1-based ids.

    ``rng`` shuffles the order of the edge lines and flips the orientation
    of about half of them, so the file varies with the seed while the
    graph stays the same.
    """
    lines = [f"{v + 1} {u + 1}\n" if rng.random() < 0.5 else f"{u + 1} {v + 1}\n"
             for u, v in edges]
    rng.shuffle(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"p ds {n} {len(edges)}\n")
        fh.writelines(lines)


# Per-workload corpus shape: (instances, vertices per instance).
SHAPES = {
    "sparse": (3, 12_000),
    "powerlaw": (3, 12_000),
    "chains": (2, 1_801),
}


def generate(workload: str):
    """Yield the edge lists of one workload's corpus as (n, edges) pairs.

    The graphs are pinned: each is drawn from a ``random.Random`` seeded
    by the workload name and instance index, never by the run's seed, so
    the exact metrics (residual size, dominating-set size) are the same
    for every seed and can carry a near-zero bound.
    """
    from dsreduce.generators import gadget_path

    count, n = SHAPES[workload]
    for i in range(count):
        rng = random.Random(f"{workload}:graph:{i}")
        if workload == "sparse":
            yield n, uniform_edges(n, 2 * n, rng)
        elif workload == "powerlaw":
            yield n, preferential_edges(n, 2, rng)
        else:
            # alternate fig6 and fig5 gadgets, ids shuffled
            fig, step = ("fig6", 6) if i % 2 == 0 else ("fig5", 5)
            g = gadget_path(fig, max(1, (n - 1) // step))
            yield g.n, relabel(g.n, g.edges(), rng)


def build(workload: str, seed: int, workdir: str) -> list[Instance]:
    """Generate one workload's corpus and write it under ``workdir``.

    The seed sets each file's line order and edge orientation.
    """
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}:file:{seed}")
    corpus = []
    for i, (n, edges) in enumerate(generate(workload)):
        name = f"{workload}-{i}"
        path = os.path.join(workdir, name + ".gr")
        write_gr(path, n, edges, rng)
        corpus.append(Instance(name, path, n, array("i", [v for e in edges for v in e])))
    return corpus
