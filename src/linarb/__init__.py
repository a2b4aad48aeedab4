"""linarb: partition graph edges into the minimum number of linear forests.

A linear forest is a graph whose components are paths (max degree two, no
cycles).  For a graph of degeneracy k and maximum degree D with
D >= 2k^2 - k, :func:`decompose` splits the edge set into exactly
``ceil(D/2)`` linear forests, which is optimal; a relaxed mode gets by with
``D >= 2k^2 - 2k`` using one extra class.  The package also ships an exact
exhaustive-search oracle, an independent partition verifier, closed-form
bounds, seeded generators, and a CLI (``linarb --help``).

Importing the package loads the solver and the verifier only.  The CLI's
names and the oracle's load on first access (PEP 562).
"""

from importlib import import_module

from .degeneracy import DegeneracyOrdering, degeneracy_ordering
from .errors import GraphError, InternalContradictionError, ParseError, PreconditionError
from .graph import Graph, max_degree
from .solver import (
    DecomposeResult,
    Mode,
    SolverState,
    SolveStats,
    class_count_for,
    decompose,
    required_max_degree,
)
from .verify import VerificationReport, Violation, verify_partition

__version__ = "0.1.0"

# Public names of the submodules that the solver does not need.
_LAZY = {
    **dict.fromkeys(["SplitMix64", "generate_k_degenerate", "main", "parse_edge_list"], "cli"),
    **dict.fromkeys(["LaBounds", "OracleResult", "exact_la", "la_bounds"], "oracle"),
}


def __getattr__(name: str):
    """Import a lazy name's submodule on first access and cache the name."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


__all__ = [
    "DecomposeResult",
    "DegeneracyOrdering",
    "Graph",
    "GraphError",
    "InternalContradictionError",
    "LaBounds",
    "Mode",
    "OracleResult",
    "ParseError",
    "PreconditionError",
    "SolveStats",
    "SolverState",
    "SplitMix64",
    "VerificationReport",
    "Violation",
    "class_count_for",
    "decompose",
    "degeneracy_ordering",
    "exact_la",
    "generate_k_degenerate",
    "la_bounds",
    "main",
    "max_degree",
    "parse_edge_list",
    "required_max_degree",
    "verify_partition",
]
