"""Dominating Set reduction toolkit.

Find/apply reduction rounds built on neighborhood classification,
seeded greedy solving, instance generators and simple text formats.
The exact and direct reference oracles for tests, a one-sweep original
rule, the graph and state invariant checkers and the state copy live in
``dsreduce.oracle``, which nothing here imports.
"""

from .graph import Graph, load_check
from .graphio import FormatError, read_graph, write_gr
from .greedy import TieBreaker, greedy, greedy_best_of
from .pipeline import WorkCounter, suitable_set
from .reducer import (
    ReductionReport,
    Variant,
    export_residual,
    reduce_iterate,
)
from .state import ReductionState, compact

__version__ = "0.1.0"

__all__ = [
    "FormatError",
    "Graph",
    "ReductionReport",
    "ReductionState",
    "TieBreaker",
    "Variant",
    "WorkCounter",
    "compact",
    "export_residual",
    "greedy",
    "greedy_best_of",
    "load_check",
    "read_graph",
    "reduce_iterate",
    "suitable_set",
    "write_gr",
]
