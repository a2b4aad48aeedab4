"""Exception types shared across the package.

The split mirrors the CLI exit codes: user-facing input problems
(`GraphError`, `ParseError`, `PreconditionError`) map to exit code 1.
`InternalContradictionError`, the one type for a broken internal state,
solver or coloring table alike, maps to exit code 2.
"""

from __future__ import annotations


class GraphError(ValueError):
    """Invalid graph construction or query: bad vertex id, duplicate edge, self-loop."""


class ParseError(ValueError):
    """Malformed edge-list input; the message carries a 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class PreconditionError(ValueError):
    """A documented precondition does not hold for the given input."""


class InternalContradictionError(RuntimeError):
    """A state was reached that the solver's own guarantees rule out.

    Seeing this exception means a bug in the implementation (or a caller
    bypassing documented preconditions), never a property of the input.
    """
