"""Mutable edge coloring whose classes stay linear forests.

A ``ForestColoring`` assigns the ``m`` edges of an n-vertex graph to ``t``
classes.  Every edge has an id in ``0..m-1``, chosen by the caller, and its
class is one entry of the ``array('i')`` :attr:`ForestColoring.edge_class`
(``NIL`` while uncolored); the mutations take the id the caller holds along
with the two endpoints, so no map keyed by vertex pairs exists.  Per vertex
and class the structure tracks the colored degree (capped at 2) and two
slots.  Classes therefore consist of paths, isolated vertices, and --
transiently, between a cycle-closing assignment and its repair -- at most
one cycle.  Callers are responsible for driving the state back to acyclic;
the structure only enforces the degree cap.

The class paths are the only connectivity structure.  At an interior
vertex the two slots hold its two class neighbors.  At a path end the first
slot holds its one neighbor and the otherwise unused second slot holds the
far end of its path (its "mate").  Two vertices are connected in a class
exactly when they share a path.  Only path ends and untouched vertices
can take another class edge, so the cycle test is one slot read, and it is
made by the placement itself: :meth:`ForestColoring.assign`, the one
placement call, links the edge in place, rewiring the mates of the two
outer ends in O(1), and returns whether it closed a cycle (its ends were
mates).
Removing an edge walks each piece it leaves to re-pair its ends, and a
recolor or a swap is such a cut followed by ``assign``.  That walk,
:meth:`ForestColoring.walk`, is the one loop that steps along a class
path.  Other modules read class degrees only through
:meth:`ForestColoring.row`, and the sweep's light-edge primitive,
:func:`place_light_edge`, lives here beside the table it scans.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator

from .errors import InternalContradictionError

# An empty slot, or the class of an uncolored edge.
NIL = -1


class ForestColoring:
    """Edge id -> class assignment with per-vertex class degrees capped at 2."""

    def __init__(self, n: int, t: int, m: int) -> None:
        if n < 0 or t < 0 or m < 0:
            raise InternalContradictionError(f"need n, t, m >= 0, got n={n}, t={t}, m={m}")
        self.n = n
        self.t = t
        # The class of each edge id, NIL while uncolored.  Classes reach
        # ceil(delta/2), well past a byte on a high-degree hub.
        self.edge_class = array("i", [NIL]) * m
        # Dense (vertex, class) tables: degree byte plus two slots, which hold
        # both class neighbors at degree 2 and (neighbor, mate) at degree 1.
        self._cd = bytearray(n * t)
        self._nb1 = array("i", [NIL]) * (n * t)
        self._nb2 = array("i", [NIL]) * (n * t)
        self._total = array("i", [0]) * n

    # ------------------------------------------------------------------ queries

    def row(self, v: int) -> bytearray:
        """A copy of ``v``'s class degrees, one byte per class."""
        return self._cd[v * self.t:(v + 1) * self.t]

    # ------------------------------------------------------------------ paths

    def walk(self, j: int, x: int, prev: int = NIL) -> Iterator[int]:
        """Yield the vertices after ``x`` along class ``j``, leaving ``x`` away
        from its neighbor ``prev`` (or along its one edge, if ``prev`` is NIL),
        up to the path's end or, round a cycle, the last vertex before ``x``:
        a class-``j`` edge xy lies on a cycle exactly when ``y`` is yielded."""
        t, cd, nb1, nb2 = self.t, self._cd, self._nb1, self._nb2
        cur = x
        for _ in range(self.n):
            i = cur * t + j
            a = nb1[i]
            if cd[i] == 2:
                nxt = a if a != prev else nb2[i]
            elif cd[i] == 1 and a != prev:
                nxt = a
            else:
                return
            if nxt == x:
                return
            yield nxt
            prev, cur = cur, nxt
        raise InternalContradictionError(  # pragma: no cover
            f"class {j} walk exceeded vertex count"
        )

    def _cut(self, e: int, u: int, v: int, j: int) -> None:
        """Uncolor the class-``j`` edge ``e`` = uv: remove it from the slots,
        pair the ends of the two pieces it leaves and drop both totals."""
        t = self.t
        cd, nb1, nb2 = self._cd, self._nb1, self._nb2
        for x, y in ((u, v), (v, u)):
            i = x * t + j
            if nb1[i] == y:
                nb1[i] = nb2[i] if cd[i] == 2 else NIL
            nb2[i] = NIL
            cd[i] -= 1
        # On a cycle the two new ends find each other, in one walk.
        for x in (u, v):
            if cd[x * t + j] == 1 and nb2[x * t + j] == NIL:
                for end in self.walk(j, x):
                    pass
                nb2[x * t + j] = end
                nb2[end * t + j] = x
        self._total[u] -= 1
        self._total[v] -= 1
        self.edge_class[e] = NIL

    # ------------------------------------------------------------------ mutation

    def assign(self, e: int, u: int, v: int, j: int) -> bool:
        """Color the uncolored edge ``e`` = uv with class ``j``, linking it
        into the class paths in place, and return whether it closed a cycle.

        Rejects the call if either endpoint already has two class-``j``
        edges.  The edge closes a cycle exactly when ``u`` and ``v`` were the
        two ends of one class path; the return value is the one test for
        that, and the caller repairs the cycle afterwards.
        """
        t = self.t
        if u == v:
            raise InternalContradictionError(f"self-loop at {u}")
        if not 0 <= j < t:
            raise InternalContradictionError(f"class {j} out of range 0..{t - 1}")
        if self.edge_class[e] != NIL:
            raise InternalContradictionError(f"edge {e} ({u}-{v}) is already colored")
        cd, nb1, nb2 = self._cd, self._nb1, self._nb2
        iu = u * t + j
        iv = v * t + j
        du = cd[iu]
        dv = cd[iv]
        if du >= 2 or dv >= 2:
            raise InternalContradictionError(
                f"assigning {u}-{v} to class {j} would exceed degree 2"
            )
        # a and b are the far ends of the paths through u and v.
        if du:
            a = nb2[iu]
            nb2[iu] = v
        else:
            a = u
            nb1[iu] = v
        if dv:
            b = nb2[iv]
            nb2[iv] = u
        else:
            b = v
            nb1[iv] = u
        cd[iu] = du + 1
        cd[iv] = dv + 1
        # Two paths join into one whose ends a and b are mates; on a cycle
        # (a == v, b == u) no end is left to pair.
        if a != v:
            nb2[a * t + j] = b
            nb2[b * t + j] = a
        self._total[u] += 1
        self._total[v] += 1
        self.edge_class[e] = j
        return a == v

    def recolor(self, e: int, u: int, v: int, j_new: int) -> None:
        """Move the colored edge ``e`` = uv to class ``j_new`` (no-op if
        already there): a cut and an :meth:`assign`, made only once both
        ends have room in ``j_new``."""
        t = self.t
        if not 0 <= j_new < t:
            raise InternalContradictionError(f"class {j_new} out of range 0..{t - 1}")
        j_old = self.edge_class[e]
        if j_old == NIL:
            raise InternalContradictionError(f"edge {e} ({u}-{v}) is not colored")
        if j_old == j_new:
            return
        if self._cd[u * t + j_new] >= 2 or self._cd[v * t + j_new] >= 2:
            raise InternalContradictionError(
                f"recoloring {u}-{v} to class {j_new} would exceed degree 2"
            )
        self._cut(e, u, v, j_old)
        self.assign(e, u, v, j_new)

    def swap_colors(self, e1: int, u1: int, v1: int, e2: int, u2: int, v2: int) -> None:
        """Exchange the classes of the colored edges ``e1`` = u1v1 and
        ``e2`` = u2v2 atomically.

        Both cuts happen before either :meth:`assign`, so a shared endpoint
        never sees a transient degree overflow.  Swapping edges of the same
        class is a no-op; swapping twice restores the original coloring.  An
        overflow raises from ``assign``, unrolled: it is a caller bug.
        """
        cls = self.edge_class
        c1 = cls[e1]
        c2 = cls[e2]
        if c1 == NIL or c2 == NIL:
            raise InternalContradictionError(f"both edges must be colored: {e1}={c1}, {e2}={c2}")
        if c1 == c2:
            return
        self._cut(e1, u1, v1, c1)
        self._cut(e2, u2, v2, c2)
        self.assign(e1, u1, v1, c2)
        self.assign(e2, u2, v2, c1)


def place_light_edge(fc: ForestColoring, e: int, x: int, y: int, start: int = 0) -> int:
    """Color the uncolored edge ``e`` = xy into a class untouched at ``x``
    where ``y`` is not yet internal, returning the (smallest) class index used.

    Such a class exists whenever ``2*d(x) + d(y) <= 2*t + 2``, with degrees
    counting xy itself: summing ``2*d(x, j) + d(y, j)`` over all ``t``
    classes gives at most ``2t - 1``, so some class scores at most 1.  Only
    ``y`` can become internal in its class, and no cycle can form because
    ``x`` enters the class as a fresh vertex.  The sweep places light edges
    before the owner ``y`` gets its padding leaves, and ``x`` gets its own
    later still, so colored edges are all these degrees need to count.

    Classes below ``start`` are skipped; a caller passes the first class
    not yet full at ``y``, which changes nothing but the scan length.
    """
    t, cd, total = fc.t, fc._cd, fc._total
    dx = total[x] + 1
    dy = total[y] + 1
    if 2 * dx + dy > 2 * t + 2:
        raise InternalContradictionError(
            f"edge {x}-{y} violates 2*d(x)+d(y) <= 2t+2: 2*{dx}+{dy} > {2 * t + 2}"
        )
    bx, by = x * t, y * t
    for j in range(start, t):
        if cd[bx + j] == 0 and cd[by + j] <= 1:
            fc.assign(e, x, y, j)
            return j
    raise InternalContradictionError(
        f"no class for edge {x}-{y} although 2*{dx}+{dy} <= {2 * t + 2}"
    )
