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
capacity 1).  A greedy smallest-id pass, owners in id order, saturates
almost all demand, and breadth-first augmenting paths finish the rest, so
the result is deterministic.  Each augment rescans its start owner's row,
so a hub whose id follows its neighbours' ids is quadratic: on a fan (a path
plus a hub joined to all of it) the path owners take the hub's candidates
first, and its deficit of about half its degree is filled one scan at a time.

The candidates are read from a right-row table the caller builds once and
shares with the sweep: one flat list of targets, where the right-neighbors
of the vertex at position ``i``, ascending by id, are
``targets[offsets[i]:offsets[i + 1]]``.  Nothing here builds rows of its
own.

The matching lives in flat arrays only: the returned flags, one per edge id
(an index into ``targets``), set when the edge joins its row's owner to one
of that owner's representatives; the owner holding each vertex, or -1; and
the phantoms each owner may still take.  An augment flips the flags along
its path, finding each edge by bisection in its owner's row.

A vertex may be padded with phantom leaves: private right-neighbors that
only it can reserve.  Their ids would follow every real vertex, so each
owner's phantoms rank after all its real candidates; an owner reserves as
many of them as ``r`` exceeds its flagged edges.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from collections.abc import Sequence

from .degeneracy import DegeneracyOrdering
from .errors import InternalContradictionError, PreconditionError
from .graph import Graph


class SdrAssignment:
    """Disjoint representative sets for every vertex of degree >= d.

    ``reserved[e] == 1`` when edge ``e`` (an index into the right-row
    targets) joins its row's owner to one of its real representatives.  Each
    owner reserves ``r`` in all: its flagged edges, then phantom leaves for
    the rest.  Rows of vertices below the degree threshold hold no flag.
    """

    __slots__ = ("r", "reserved", "__weakref__")

    def __init__(self, r: int, reserved: bytearray) -> None:
        self.r, self.reserved = r, reserved


def compute_sdr(
    g: Graph,
    ordering: DegeneracyOrdering,
    d: int,
    targets: list[int],
    offsets: Sequence[int],
    pad: Sequence[int] | None = None,
) -> SdrAssignment:
    """Reserve ``(d - k) // k`` disjoint right-neighbors for every degree->=d vertex.

    ``targets`` and ``offsets`` are the right rows of ``ordering`` (see the
    module docstring); they must cover the position of every vertex of
    degree at least ``d``.  ``pad[v]``, when given, is the number of
    phantom leaves padding ``v``: they count toward its degree and are
    candidates only ``v`` can take, after all its real ones.

    Raises :class:`PreconditionError` unless ``k <= d <= max_degree(g)``, and
    :class:`InternalContradictionError` if no full assignment exists (which a
    valid k-degenerate ordering rules out).
    """
    k = ordering.k
    if k <= 0:
        raise PreconditionError("ordering certifies degeneracy 0; no representatives to reserve")
    adj = g._adj
    pad = pad if pad is not None else [0] * g.n
    degree = [len(row) + p for row, p in zip(adj, pad)]
    delta = max(degree, default=0)
    if not k <= d <= delta:
        raise PreconditionError(f"need k <= d <= max degree, got k={k}, d={d}, max={delta}")
    r = (d - k) // k
    owners = [v for v in range(g.n) if degree[v] >= d]
    reserved = bytearray(len(targets))
    if r == 0:
        return SdrAssignment(r, reserved)

    position = ordering.position
    taken_by = array("i", [-1]) * g.n  # the owner holding each vertex, or -1
    phantoms = array("i", pad)  # the phantoms each owner may still take

    # Greedy warm start: each owner grabs its smallest free candidates.
    short: list[tuple[int, int]] = []  # (owner, deficit) it left, in id order
    for v in owners:
        i = position[v]
        need = r
        for e in range(offsets[i], offsets[i + 1]):
            u = targets[e]
            if taken_by[u] < 0:
                taken_by[u] = v
                reserved[e] = 1
                need -= 1
                if not need:
                    break
        if need > phantoms[v]:
            short.append((v, need - phantoms[v]))
        phantoms[v] -= min(need, phantoms[v])

    # Finish the listed deficits with shortest augmenting paths.  An augment
    # leaves every owner but its start as full as it was, so each deficit is
    # still the one the greedy pass left and no other owner falls short.
    for v, deficit in short:
        for _ in range(deficit):
            _augment(v, targets, offsets, position, taken_by, phantoms, reserved)
    return SdrAssignment(r, reserved)


def _augment(
    start: int,
    targets: list[int],
    offsets: Sequence[int],
    position: Sequence[int],
    taken_by: array,
    phantoms: array,
    reserved: bytearray,
) -> None:
    """Reassign along one augmenting path so ``start`` gains a representative.

    BFS alternates owner -> candidate (candidate not yet visited) and
    candidate -> current holder.  Reaching a free candidate, or an owner with
    a free phantom once its real candidates are exhausted, flips the path:
    the start owner nets +1 while every intermediate owner trades one
    candidate for another.
    """
    parent_owner: dict[int, int] = {}  # candidate -> owner that reached it
    via_candidate: dict[int, int] = {}  # owner -> candidate it was reached through
    seen = {start}
    queue = deque([start])
    end = -1  # the free candidate reached
    phantom_owner = -1  # or the owner whose free phantom was reached
    while queue:
        v = queue.popleft()
        i = position[v]
        for u in targets[offsets[i]:offsets[i + 1]]:
            if u in parent_owner:
                continue
            parent_owner[u] = v
            holder = taken_by[u]
            if holder < 0:
                end = u
                break
            if holder not in seen:
                seen.add(holder)
                via_candidate[holder] = u
                queue.append(holder)
        if end >= 0:
            break
        if phantoms[v]:
            phantom_owner = v
            break

    u = end
    if end < 0:
        if phantom_owner < 0:
            raise InternalContradictionError(
                "representative demand is infeasible; the ordering does not certify "
                "the claimed degeneracy"
            )
        phantoms[phantom_owner] -= 1
        u = via_candidate.get(phantom_owner, -1)
    # Flip the path: each candidate on it moves from its holder to the owner
    # that reached it, up to the start, which was reached through none.
    while u >= 0:
        holder, v = taken_by[u], parent_owner[u]
        if holder >= 0:  # a free candidate has no edge to unflag
            i = position[holder]
            reserved[bisect_left(targets, u, offsets[i], offsets[i + 1])] = 0
        i = position[v]
        reserved[bisect_left(targets, u, offsets[i], offsets[i + 1])] = 1
        taken_by[u] = v
        u = via_candidate.get(v, -1)
