"""Exact linear arboricity by exhaustive search, plus closed-form bounds.

The search is only feasible for small graphs (roughly 20 edges); it exists
as an independent ground truth for testing the constructive solver, so it
shares no machinery with it.  The closed-form bounds, by contrast, read
the solver's thresholds and class counts.
"""

from __future__ import annotations

from typing import NamedTuple

from .degeneracy import degeneracy_ordering
from .errors import PreconditionError
from .graph import Graph, max_degree
from .solver import Mode, class_count_for, required_max_degree

DEFAULT_NODE_BUDGET = 2_000_000


class OracleResult(NamedTuple):
    """``la`` is the exact linear arboricity and ``witness`` an optimal
    partition (1-based classes), unless ``complete`` is False because the
    node budget ran out, in which case both are None."""

    la: int | None
    witness: dict[tuple[int, int], int] | None
    nodes_explored: int
    complete: bool


class _ClassState:
    """One color class during the search: per-vertex degree counts and a
    union-find over vertices, with an undo stack instead of path compression
    so assignments can be rolled back exactly."""

    __slots__ = ("degree", "parent", "rank", "trail")

    def __init__(self, n: int) -> None:
        self.degree = [0] * n
        self.parent = list(range(n))
        self.rank = [0] * n
        self.trail: list[tuple[int, int, bool]] = []

    def root(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            x = p[x]
        return x

    def try_add(self, u: int, v: int) -> bool:
        if self.degree[u] >= 2 or self.degree[v] >= 2:
            return False
        ru, rv = self.root(u), self.root(v)
        if ru == rv:
            return False  # joining them would close a cycle in this class
        if self.rank[ru] < self.rank[rv]:
            ru, rv = rv, ru
        self.parent[rv] = ru
        bumped = self.rank[ru] == self.rank[rv]
        if bumped:
            self.rank[ru] += 1
        self.trail.append((rv, ru, bumped))
        self.degree[u] += 1
        self.degree[v] += 1
        return True

    def undo(self, u: int, v: int) -> None:
        rv, ru, bumped = self.trail.pop()
        self.parent[rv] = rv
        if bumped:
            self.rank[ru] -= 1
        self.degree[u] -= 1
        self.degree[v] -= 1


def _search(g: Graph, t: int, budget: list[int]) -> dict[tuple[int, int], int] | None:
    """Backtracking partition of E(g) into exactly <= t linear forests.

    Edges are tried hardest-first (largest endpoint degree sum).  Classes are
    interchangeable, so each edge may open at most one class beyond those
    already in use, which prunes the t! relabelings down to set partitions.
    """
    edges = sorted(g.edges(), key=lambda e: (-(g.degree(e[0]) + g.degree(e[1])), e))
    states = [_ClassState(g.n) for _ in range(t)]
    assignment: dict[tuple[int, int], int] = {}

    def bt(i: int, used: int) -> bool:
        if i == len(edges):
            return True
        if budget[0] <= 0:
            return False
        u, v = edges[i]
        for c in range(min(t, used + 1)):
            budget[0] -= 1
            if states[c].try_add(u, v):
                assignment[(u, v)] = c + 1
                if bt(i + 1, max(used, c + 1)):
                    return True
                del assignment[(u, v)]
                states[c].undo(u, v)
            if budget[0] <= 0:
                return False
        return False

    return dict(assignment) if bt(0, 0) else None


def exact_la(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Exact linear arboricity of ``g`` with an optimal witness partition.

    Tries class counts upward from the lower bound ``ceil(max_degree/2)``;
    the first count admitting a partition is the answer.  ``budget`` caps the
    total number of edge-placement attempts across all counts; if it runs
    out, the result has ``complete=False`` and no answer.  A proper edge
    coloring always fits in ``max_degree + 1`` matchings, so the upward scan
    is capped there.
    """
    if budget <= 0:
        raise PreconditionError("node budget must be positive")
    if g.edge_count == 0:
        return OracleResult(0, {}, 0, True)
    delta = max_degree(g)
    remaining = [budget]
    for t in range((delta + 1) // 2, delta + 2):
        witness = _search(g, t, remaining)
        if witness is not None:
            return OracleResult(t, witness, budget - remaining[0], True)
        if remaining[0] <= 0:
            return OracleResult(None, None, budget, False)
    raise PreconditionError(
        f"no partition into {delta + 1} classes; the input graph is corrupt"
    )


class LaBounds(NamedTuple):
    """Closed-form bracket on the linear arboricity.

    ``lower`` always holds.  ``upper`` holds whenever ``upper_proven`` is
    True; otherwise it is the widely believed one-extra-class bound, stated
    without a guarantee.  ``delta`` and ``degeneracy`` are the data the
    bracket was derived from.
    """

    lower: int
    upper: int
    upper_proven: bool
    delta: int
    degeneracy: int


def la_bounds(g: Graph) -> LaBounds:
    """Bracket la(g) from degree and degeneracy data alone.

    Lower bound: ``ceil(delta/2)``, raised by one for delta-regular graphs
    with even delta (each class misses at least one vertex of such a graph).
    Upper bound: ``ceil(delta/2)`` when the minimum-mode threshold
    ``delta >= 2k^2 - k`` holds, else ``ceil((delta+1)/2)``, which is proven
    for forests, for ``delta >= 2k^2 - 2k``, and for the small-degree cases
    ``delta <= 6`` and ``delta in {8, 10}``.
    """
    delta = max_degree(g)
    if delta == 0:
        return LaBounds(0, 0, True, 0, 0)
    k = degeneracy_ordering(g).k
    half = class_count_for(delta, k, Mode.MINIMUM)
    lower = half
    if delta % 2 == 0 and all(g.degree(v) == delta for v in range(g.n)):
        lower += 1
    if delta >= required_max_degree(k, Mode.MINIMUM):
        return LaBounds(lower, half, True, delta, k)
    upper = class_count_for(delta, k, Mode.LAC)
    proven = delta >= required_max_degree(k, Mode.LAC) or delta <= 6 or delta in (8, 10)
    return LaBounds(lower, upper, proven, delta, k)
