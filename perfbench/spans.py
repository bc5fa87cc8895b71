"""Spans and counts around calls into the program's modules.

The program has no tracing of its own, so the benchmark wraps module
attributes at the name each caller looks up:

- ``cli`` imports ``reduce_iterate``, ``export_residual``, ``write_gr``
  and ``write_sidecar`` by name, so those are patched on ``dsreduce.cli``;
- ``graphio.read_gr`` calls ``load_check`` through ``graphio``, and
  ``read_graph`` calls ``read_gr`` the same way;
- ``reducer`` calls ``compact`` and ``apply_reduction`` through its own
  namespace, and ``pipeline.suitable_set`` calls its three passes through
  ``pipeline``;
- ``greedy_best_of`` calls ``greedy`` through its module, and
  ``dsreduce.greedy`` on the package is that function (the package
  re-exports it), so the module comes from ``sys.modules``.

Where the program passes ``work=None``, each pass call gets a fresh
``WorkCounter`` so visits are counted per pass.  Spans live in memory; a
span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from collections import Counter

_clock = time.perf_counter


class Tracer:
    """In-memory spans (name, start, end, parent) plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, _clock(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self.stack.pop()

    def self_times(self) -> Counter:
        """Self time summed by (span name, parent span name)."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            pname = self.spans[parent][0] if parent >= 0 else ""
            out[(name, pname)] += end - start - child[i]
        return out

    # -- patching ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, on_result=None, visits=None):
        """Replace ``owner.attr`` with a spanned call.

        ``on_result(counts, result)`` records counts from the return value.
        ``visits`` names a counter that receives the ``work`` visits of the
        call; a caller's own counter still gets them added.
        """
        from dsreduce.pipeline import WorkCounter

        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if visits is not None:
                outer = kwargs.get("work")
                kwargs["work"] = WorkCounter()
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if visits is not None:
                got = kwargs["work"].visits
                tracer.counts[visits] += got
                if outer is not None:
                    outer.add(got)
            if on_result is not None:
                on_result(tracer.counts, out)
            return out

        setattr(owner, attr, spanned)
        self._patched.append((owner, attr, fn))

    def install(self) -> None:
        """Patch every traced layer of ``dsreduce`` and hook the GC."""
        import dsreduce.cli as cli
        import dsreduce.graphio as graphio
        import dsreduce.pipeline as pipeline
        import dsreduce.reducer as reducer

        greedy_mod = sys.modules["dsreduce.greedy"]

        def rounds(c, rep):
            c["reducer.rounds"] += rep.rounds

        def candidates(c, rels):
            c["pipeline.candidates"] += len(rels)

        def witnesses(c, rels):
            c["pipeline.witnesses"] += len(rels)

        def applied(c, rep):
            c["reducer.commits"] += len(rep.fixed)
            c["reducer.removed_nodes"] += len(rep.removed_nodes)

        def compacted(c, _res):
            c["state.compact_calls"] += 1

        def picked(c, chosen):
            c["greedy.greedy_calls"] += 1
            c["greedy.picked"] += len(chosen)

        self.wrap(graphio, "read_gr", "graphio.read_gr")
        self.wrap(graphio, "load_check", "graph.load_check")
        self.wrap(cli, "reduce_iterate", "reducer.reduce_iterate", on_result=rounds)
        self.wrap(pipeline, "compute_superset", "pipeline.compute_superset",
                  on_result=candidates, visits="pipeline.compute_superset_visits")
        self.wrap(pipeline, "compute_proper_partition", "pipeline.compute_proper_partition",
                  visits="pipeline.compute_proper_partition_visits")
        self.wrap(pipeline, "filter_suitable", "pipeline.filter_suitable",
                  on_result=witnesses, visits="pipeline.filter_suitable_visits")
        self.wrap(reducer, "apply_reduction", "reducer.apply_reduction",
                  on_result=applied, visits="reducer.apply_visits")
        self.wrap(reducer, "compact", "state.compact", on_result=compacted)
        self.wrap(cli, "export_residual", "reducer.export_residual")
        self.wrap(cli, "write_gr", "graphio.write_gr")
        self.wrap(cli, "write_sidecar", "graphio.write_sidecar")
        self.wrap(greedy_mod, "greedy", "greedy.greedy", on_result=picked)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_start = _clock()
        else:
            self.counts["runtime.gc_pause_s"] += _clock() - self._gc_start
            self.counts["runtime.gc_collections"] += 1


# Span (name, parent name) -> per-layer self-time metric.  ``state.compact``
# is split by the span that called it.
SELF_TIME_METRICS = {
    ("graphio.read_gr", None): "graphio.read_gr_s",
    ("graph.load_check", None): "graph.load_check_s",
    ("pipeline.compute_superset", None): "pipeline.compute_superset_s",
    ("pipeline.compute_proper_partition", None): "pipeline.compute_proper_partition_s",
    ("pipeline.filter_suitable", None): "pipeline.filter_suitable_s",
    ("reducer.apply_reduction", None): "reducer.apply_reduction_s",
    ("reducer.reduce_iterate", None): "reducer.reduce_iterate_self_s",
    ("state.compact", "reducer.reduce_iterate"): "state.compact.iterate_s",
    ("state.compact", "reducer.export_residual"): "state.compact.export_s",
    ("reducer.export_residual", None): "reducer.export_residual_s",
    ("graphio.write_gr", None): "graphio.write_gr_s",
    ("graphio.write_sidecar", None): "graphio.write_sidecar_s",
    ("greedy.greedy", None): "greedy.greedy_s",
    ("cli.reduce", None): "cli.reduce_self_s",
    ("cli.greedy", None): "cli.greedy_self_s",
}

COUNT_METRICS = (
    "pipeline.compute_superset_visits",
    "pipeline.compute_proper_partition_visits",
    "pipeline.filter_suitable_visits",
    "pipeline.candidates",
    "pipeline.witnesses",
    "reducer.rounds",
    "reducer.apply_visits",
    "reducer.commits",
    "reducer.removed_nodes",
    "state.compact_calls",
    "greedy.greedy_calls",
    "greedy.picked",
    "runtime.gc_collections",
)


def layer_metrics(tracer: Tracer, input_nm: int) -> dict[str, float]:
    """Per-layer values for the spans and counts recorded since reset.

    ``input_nm`` is the summed n + m of every command's input, the base
    of ``pipeline.visits_per_nm``.  Every span's self time lands in
    exactly one metric, so the self times add up to the root spans.
    """
    out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    for (name, parent), own in tracer.self_times().items():
        metric = SELF_TIME_METRICS.get((name, parent)) or SELF_TIME_METRICS.get((name, None))
        if metric is None:
            raise KeyError(f"span {name} under {parent or 'root'} has no metric")
        out[metric] += own
    c = tracer.counts
    for metric in COUNT_METRICS:
        out[metric] = c[metric]
    out["runtime.gc_pause_s"] = c["runtime.gc_pause_s"]
    visits = sum(c[k] for k in COUNT_METRICS if k.startswith("pipeline.") and k.endswith("_visits"))
    out["pipeline.visits_per_nm"] = visits / input_nm
    cand = c["pipeline.candidates"]
    out["pipeline.witness_yield"] = c["pipeline.witnesses"] / cand if cand else 0.0
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric in ("pipeline.visits_per_nm", "pipeline.witness_yield"):
        return "ratio"
    return "count"
