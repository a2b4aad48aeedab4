"""Disjoint representative selection for the sweep's owners.

The caller chooses the owners, the order the greedy pass visits them in, and
``r``; every owner must reserve ``r`` of its right-neighbors, with all
reserved sets pairwise disjoint (a system of distinct representatives of
multiplicity r).  The sweep passes every vertex padded to degree D, in id
order, with ``r = (D - k) // k``.  Its rows then admit a full assignment:
each vertex lies in at most ``k`` of the right-neighborhoods, while an
owner's right-neighborhood and its phantoms number at least ``D - k >= r*k``,
so Hall's condition holds with room to spare and :func:`_augment` always
finds a path.

The selection is a maximum flow on the bipartite demand network (source ->
owner with capacity r, owner -> candidate and candidate -> sink with
capacity 1).  A greedy pass, each owner in the given order taking its
smallest free candidates, saturates almost all demand, and breadth-first
augmenting paths finish the rest, so the result is deterministic.  Each augment rescans its start
owner's row, so a hub visited after its neighbours is quadratic: on a fan (a
path plus a hub joined to all of it) with owners in id order and the hub
last, the path owners take the hub's candidates first, and its deficit of
about half its degree is filled one scan at a time.

The candidates are read from a right-row table the caller builds once and
shares with the sweep: one flat sequence of targets, where the right-neighbors
of the vertex at position ``i``, ascending by id, are
``targets[starts[i]:ends[i]]``; nothing here builds rows of its own.

The matching lives in flat arrays only: the returned flags, one per slot of
``targets``, set when the slot's edge joins its row's owner to one of that
owner's representatives; the owner holding each vertex, or -1; and the
phantoms each owner may still take.  An augment flips the flags along its
path, finding each edge by bisection in its owner's row.

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

from .errors import InternalContradictionError


def compute_sdr(
    owners: Sequence[int],
    r: int,
    targets: Sequence[int],
    starts: Sequence[int],
    ends: Sequence[int],
    position: Sequence[int],
    pad: Sequence[int],
) -> bytearray:
    """Reserve ``r`` disjoint right-neighbors for each of ``owners`` and
    return the reservation flags, one per slot of ``targets``.

    The greedy pass visits ``owners`` in the order given.  ``targets``,
    ``starts`` and ``ends`` are the right rows by position (see the module
    docstring); they must cover ``position[v]`` for every owner ``v``.
    ``pad[v]`` is the number of phantom leaves padding ``v``: candidates
    only ``v`` can take, after all its real ones.

    Raises :class:`InternalContradictionError` if no full assignment exists,
    which the sweep's rows rule out (see the module docstring).
    """
    reserved = bytearray(len(targets))
    if r == 0:
        return reserved

    taken_by = array("i", [-1]) * len(position)  # the owner holding each vertex, or -1
    phantoms = array("i", pad)  # the phantoms each owner may still take

    # Greedy warm start: each owner grabs its smallest free candidates.
    short: list[tuple[int, int]] = []  # (owner, deficit) it left, in visit order
    for v in owners:
        i = position[v]
        need = r
        for e in range(starts[i], ends[i]):
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
            _augment(v, targets, starts, ends, position, taken_by, phantoms, reserved)
    return reserved


def _augment(
    start: int,
    targets: Sequence[int],
    starts: Sequence[int],
    ends: Sequence[int],
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
        for u in targets[starts[i]:ends[i]]:
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
            reserved[bisect_left(targets, u, starts[i], ends[i])] = 0
        i = position[v]
        reserved[bisect_left(targets, u, starts[i], ends[i])] = 1
        taken_by[u] = v
        u = via_candidate.get(v, -1)
