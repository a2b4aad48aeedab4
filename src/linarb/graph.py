"""Simple undirected graph with dense integer vertex ids.

Vertices are the integers ``0 .. n-1``.  Parallel edges and self-loops are
rejected at insertion.  Isolated vertices are legal; algorithms that cannot
handle them strip them explicitly.
"""

from __future__ import annotations

from typing import Iterable

from .errors import GraphError


class Graph:
    """Mutable undirected simple graph.

    Adjacency lists preserve insertion order, which keeps every algorithm in
    this package deterministic for a fixed construction sequence.  The
    graphs of :func:`linarb.cli.parse_edge_list` (built from sorted edges)
    and :func:`linarb.cli.generate_k_degenerate` have ascending rows, which
    the CLI relies on to write any edge list in order without sorting.
    The edge table, the one edge-keyed table of a solve, maps each pair
    ``(u, v)``, ``u < v``, to None in insertion order: ``decompose`` keys its
    map by the table's own tuples.
    """

    __slots__ = ("_adj", "_edges")

    def __init__(self, n: int = 0) -> None:
        try:
            self._adj: list[list[int]] = [[] for _ in range(n)]
        except TypeError:
            raise GraphError(f"vertex count must be an int, got {n!r}") from None
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        self._edges: dict[tuple[int, int], None] = {}

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on ``0 .. n-1`` with ``edges`` added in order.  A new
        canonical pair, a tuple of exact ints ``u < v``, becomes the graph's
        own key as given; any other edge goes through :meth:`add_edge`."""
        g = cls(n)
        adj, keys = g._adj, g._edges
        for e in edges:
            u, v = e
            if (type(e) is tuple and type(u) is int and type(v) is int
                    and 0 <= u < v < n and e not in keys):
                keys[e] = None
                adj[u].append(v)
                adj[v].append(u)
            else:
                g.add_edge(u, v)
        return g

    @classmethod
    def _from_parts(cls, adj: list[list[int]], edges: dict[tuple[int, int], None]) -> "Graph":
        # Trusted fast path for derived graphs; skips per-edge validation.
        g = cls.__new__(cls)
        g._adj = adj
        g._edges = edges
        return g

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def edges(self) -> list[tuple[int, int]]:
        """Return the edges as sorted canonical ``(u, v)`` pairs with ``u < v``."""
        return sorted(self._edges)

    def _row(self, v: int) -> list[int]:
        """The adjacency row of the vertex id ``v``.  The row is read inside
        the ``try``: a float id passes the range check but not the index.  A
        ``bool`` id would pass both, so it is turned away first."""
        try:
            if type(v) is bool:
                raise TypeError
            if 0 <= v < len(self._adj):
                return self._adj[v]
        except TypeError:
            raise GraphError(f"vertex ids must be ints, got {v!r}") from None
        raise GraphError(f"unknown vertex id {v} (graph has {len(self._adj)} vertices)")

    def add_edge(self, u: int, v: int) -> None:
        ru, rv = self._row(u), self._row(v)  # both before any mutation
        if u == v:
            raise GraphError(f"self-loop at vertex {u} is not allowed")
        key = (u, v) if u < v else (v, u)
        if key in self._edges:
            raise GraphError(f"duplicate edge {key}")
        self._edges[key] = None
        ru.append(v)
        rv.append(u)

    def neighbors(self, v: int) -> list[int]:
        """Return the adjacency list of ``v``.  Callers must not mutate it."""
        return self._row(v)

    def degree(self, v: int) -> int:
        return len(self._row(v))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.edge_count})"


def max_degree(g: Graph) -> int:
    """Maximum vertex degree; 0 for a graph without vertices or edges."""
    return max((len(row) for row in g._adj), default=0)

