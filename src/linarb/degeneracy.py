"""Degeneracy orderings.

A graph is k-degenerate when every subgraph has a vertex of degree at most
k.  Equivalently there is a vertex ordering v_0, ..., v_{n-1} in which every
vertex has at most k neighbors *earlier* in the ordering; the smallest such
k is the degeneracy.  The orderings produced here certify the exact value.
"""

from __future__ import annotations

import heapq

from .graph import Graph


class DegeneracyOrdering:
    """A vertex ordering together with the degeneracy it certifies.

    ``order[i]`` is the vertex at position ``i``; ``position`` is the inverse
    permutation.  ``k`` is the exact degeneracy: no vertex has more than
    ``k`` neighbors at earlier positions, and some vertex meets the bound.
    The orderings computed here fill ``order`` and ``position`` from one int
    object per vertex id, so ``order[position[v]]`` is the object for ``v``.
    """

    __slots__ = ("order", "position", "k")

    def __init__(self, order: list[int], position: list[int], k: int) -> None:
        self.order, self.position, self.k = order, position, k


def degeneracy_ordering(g: Graph) -> DegeneracyOrdering:
    """Compute a degeneracy ordering by repeated minimum-degree removal.

    Vertices are peeled smallest-degree-first (ties broken by smallest vertex
    id) and the removal sequence is reversed, so each vertex ends up with at
    most ``k`` neighbors to its left.  The returned ``k`` is exact.

    The peeling queue is a lazy heap of single ints ``degree * n + id``,
    which pop in (current degree, id) order without a tuple per entry;
    stale entries are skipped on pop.  Its live entries are exactly the
    unremoved vertices of degree at most ``level``; any other vertex has a
    key of at least ``(level + 1) * n``, so each live pop is the global
    minimum.  When the heap runs dry, ``level`` rises to the least degree
    left; a rise to L scans the at most 2m / L unremoved vertices, so all
    rises scan at most n + 2m * H(k).  The last level is ``k``.
    """
    n = g.n
    adj = g._adj
    deg = [len(row) for row in adj]
    removed = bytearray(n)
    removal: list[int] = []
    ids = list(range(n))  # the one int object per vertex id
    rest = ids  # the unremoved vertices at the last rise
    heap: list[int] = []
    level = 0  # k of a graph without vertices
    while True:
        while heap:
            d, v = divmod(heapq.heappop(heap), n)
            if removed[v] or d != deg[v]:
                continue
            removed[v] = 1
            removal.append(ids[v])
            for u in adj[v]:
                if not removed[u]:
                    deg[u] = du = deg[u] - 1
                    if du <= level:
                        heapq.heappush(heap, du * n + u)
        rest = [v for v in rest if not removed[v]]
        if not rest:
            break
        level = min([deg[v] for v in rest])
        heap = [level * n + v for v in rest if deg[v] == level]  # ascending: a heap
    order = removal[::-1]
    position = [0] * n
    for i, v in zip(ids, order):
        position[v] = i
    return DegeneracyOrdering(order, position, level)
