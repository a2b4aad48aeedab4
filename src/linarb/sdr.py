"""Disjoint representative selection for high-degree vertices.

Given a graph with a degeneracy ordering and a degree threshold ``d``, every
vertex of degree at least ``d`` must reserve ``r = (d - k) // k`` of its
right-neighbors, with all reserved sets pairwise disjoint (a system of
distinct representatives of multiplicity r).  Existence is guaranteed
because each vertex lies in at most ``k`` of the right-neighborhoods while
every right-neighborhood of a degree->=d vertex has at least ``d - k >= r*k``
members, so Hall's condition holds with room to spare.

The selection is a maximum flow on the bipartite demand network (source ->
owner with capacity r, owner -> candidate and candidate -> sink with
capacity 1).  A greedy smallest-id pass saturates almost all demand; the
rare leftovers are finished with breadth-first augmenting paths, so the
result is deterministic and near-linear on typical inputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .degeneracy import DegeneracyOrdering
from .errors import InternalContradictionError, PreconditionError
from .graph import Graph


@dataclass
class SdrAssignment:
    """Disjoint representative sets for every vertex of degree >= d.

    ``reps`` maps each qualifying vertex to its ``r`` representatives, sorted
    by id.  Vertices below the degree threshold are absent; ``reps_of``
    returns ``[]`` for them.
    """

    r: int
    reps: dict[int, list[int]]

    def reps_of(self, v: int) -> list[int]:
        return self.reps.get(v, [])


def _right_neighbors(g: Graph, ordering: DegeneracyOrdering, v: int) -> list[int]:
    pos = ordering.position
    pv = pos[v]
    out = [u for u in g._adj[v] if pos[u] > pv]
    out.sort()
    return out


def compute_sdr(g: Graph, ordering: DegeneracyOrdering, d: int) -> SdrAssignment:
    """Reserve ``(d - k) // k`` disjoint right-neighbors for every degree->=d vertex.

    Raises :class:`PreconditionError` unless ``k <= d <= max_degree(g)``, and
    :class:`InternalContradictionError` if no full assignment exists (which a
    valid k-degenerate ordering rules out).
    """
    k = ordering.k
    if k <= 0:
        raise PreconditionError("ordering certifies degeneracy 0; no representatives to reserve")
    adj = g._adj
    delta = max((len(row) for row in adj), default=0)
    if not k <= d <= delta:
        raise PreconditionError(f"need k <= d <= max degree, got k={k}, d={d}, max={delta}")
    r = (d - k) // k
    owners = [v for v in range(g.n) if len(adj[v]) >= d]
    if r == 0:
        return SdrAssignment(r, {v: [] for v in owners})

    candidates = {v: _right_neighbors(g, ordering, v) for v in owners}
    taken_by: dict[int, int] = {}  # representative vertex -> owner holding it
    assigned: dict[int, list[int]] = {v: [] for v in owners}

    # Greedy warm start: each owner grabs its smallest free candidates.
    for v in owners:
        row = assigned[v]
        for u in candidates[v]:
            if len(row) == r:
                break
            if u not in taken_by:
                taken_by[u] = v
                row.append(u)

    # Finish deficits with shortest augmenting paths over the partial matching.
    for v in owners:
        while len(assigned[v]) < r:
            _augment(v, candidates, taken_by, assigned)

    for v in owners:
        assigned[v].sort()
    return SdrAssignment(r, assigned)


def _augment(
    start: int,
    candidates: dict[int, list[int]],
    taken_by: dict[int, int],
    assigned: dict[int, list[int]],
) -> None:
    """Reassign along one augmenting path so ``start`` gains a representative.

    BFS alternates owner -> candidate (candidate not yet visited) and
    candidate -> current holder.  Reaching a free candidate flips the path:
    the start owner nets +1 while every intermediate owner trades one
    candidate for another.
    """
    parent_owner: dict[int, int] = {}  # candidate -> owner that reached it
    via_candidate: dict[int, int] = {}  # owner -> candidate it was reached through
    seen = {start}
    queue = deque([start])
    end = -1
    while queue:
        v = queue.popleft()
        for u in candidates[v]:
            if u in parent_owner:
                continue
            parent_owner[u] = v
            holder = taken_by.get(u)
            if holder is None:
                end = u
                queue.clear()
                break
            if holder not in seen:
                seen.add(holder)
                via_candidate[holder] = u
                queue.append(holder)
    if end < 0:
        raise InternalContradictionError(
            "representative demand is infeasible; the ordering does not certify "
            "the claimed degeneracy"
        )
    u = end
    while True:
        v = parent_owner[u]
        taken_by[u] = v
        assigned[v].append(u)
        if v == start:
            return
        released = via_candidate[v]
        assigned[v].remove(released)
        u = released
