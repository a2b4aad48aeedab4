"""Edge partition of a degenerate graph into the minimum number of linear forests.

For a graph of degeneracy k and maximum degree D with D >= 2k^2 - k, the
edge set splits into exactly ceil(D/2) linear forests, and this module
constructs such a partition:

1.  Pad the graph so every vertex has degree D, 1 or 0.  A padding pendant
    has one edge and touches nothing else, so it only uses up one class slot
    at its owner, and only while the sweep is at that owner: the sweep
    colors only the input's edges and places an owner's pendants by sums
    over its class row, as lists of their classes only when a repair needs
    them.
2.  Order the vertices of the whole graph so that left-neighborhoods have
    size at most k, with all degree-D vertices before all degree-1 and
    isolated ones.  The thresholds are global, so one ordering certifying
    the global k serves every component: there is no per-component pass.
3.  Reserve ``r = (D - k) // k`` disjoint right-neighbors ("representatives")
    for every degree-D vertex, as flags on the edges to them, the rest of
    ``r`` as padding leaves; reserved vertices keep one unit of headroom in
    every class until their owner is processed.
4.  Sweep the ordering.  At each degree-D vertex, first place the
    non-reserved right-edges greedily (each lands in a class untouched at the
    light endpoint), then exhaust the owner's remaining class budget on the
    reserved edges, and finally repair any monochromatic cycle with local
    recoloring/swaps, each of which strictly shrinks the set of cycles.
    An edge between two degree-1 vertices, a component of its own, takes
    class 0 after the sweep.

The same sweep with one extra class (``t = ceil((D+1)/2)``) works whenever
D >= 2k^2 - 2k ("relaxed" mode, matching the classic one-more-class bound).
"""

from __future__ import annotations

import time
from array import array
from collections.abc import Iterator
from enum import Enum
from itertools import islice
from typing import NamedTuple

from .coloring import NIL, ForestColoring, place_light_edge
from .degeneracy import DegeneracyOrdering, degeneracy_ordering
from .errors import InternalContradictionError, PreconditionError
from .graph import Graph, max_degree
from .sdr import compute_sdr
from .verify import verify_partition


class Mode(str, Enum):
    """Class-count target for :func:`decompose`.

    MINIMUM uses ``ceil(D/2)`` classes and requires ``D >= 2k^2 - k``.
    LAC uses ``ceil((D+1)/2)`` classes and requires ``D >= 2k^2 - 2k``.
    Forests (degeneracy 1) are handled directly in both modes with
    ``ceil(D/2)`` classes and no degree requirement.
    """

    MINIMUM = "minimum"
    LAC = "lac"


def required_max_degree(k: int, mode: Mode) -> int:
    """Smallest maximum degree for which ``mode`` is guaranteed at degeneracy ``k``."""
    if k <= 1:
        return 1
    return 2 * k * k - k if mode is Mode.MINIMUM else 2 * k * k - 2 * k


def class_count_for(delta: int, k: int, mode: Mode) -> int:
    if delta <= 0:
        return 0
    if mode is Mode.MINIMUM or k <= 1:
        return (delta + 1) // 2
    return delta // 2 + 1


class SolveStats:
    """Counters and coarse stage timers of one decompose call.

    ``order_ms``, ``sdr_ms`` and ``sweep_ms`` time the degeneracy ordering,
    the representative selection and the sweep (repairs included).
    ``sdr_ms`` includes building the right-row table that the selection and
    the sweep share.
    """

    def __init__(self) -> None:
        self.pendants_added = 0
        self.repair_iterations = 0
        self.repairs_endpoint_free = 0
        self.repairs_owner_free = 0
        self.repairs_unreserved = 0
        self.order_ms = 0.0
        self.sdr_ms = 0.0
        self.sweep_ms = 0.0
        self.wall_ms = 0.0


class DecomposeResult(NamedTuple):
    """A complete edge coloring plus the parameters that shaped it.

    ``coloring`` maps each edge (canonical ``(u, v)``, ``u < v``) to a class
    in ``1..t``.  ``t`` is the number of classes made available, which for
    MINIMUM mode equals ``ceil(delta/2)`` exactly.
    """

    coloring: dict[tuple[int, int], int]
    t: int
    k: int
    delta: int
    stats: SolveStats


def _fit_leaves(row: bytearray, spare: int) -> tuple[int, int, int]:
    """Fill the open slots of an owner's class ``row`` (its class degrees
    from some class on) with ``spare`` leaves, lowest class first.  Returns
    ``(budget, m, left)``: the slots left open (negative if the leaves do
    not fit); the least ``m`` with ``2m - sum(row[:m]) >= spare``, so that
    the leaves fill classes ``[0, m)``; and the ``left`` slots, 0 or 1, that
    class ``m - 1`` keeps.  ``m <- ceil((spare + sum(row[:m])) / 2)`` never
    passes that ``m`` and moves again only past an occupied class."""
    m = s = 0
    while (nxt := (spare + s + 1) // 2) > m:
        s += sum(row[m:nxt])
        m = nxt
    return 2 * row.count(0) + row.count(1) - spare, m, 2 * m - s - spare


def _slot_order(row: bytearray, m: int, left: int) -> Iterator[int]:
    """The slots of ``row`` still open past its spare leaves (``m`` and
    ``left`` from :func:`_fit_leaves`), in the order the reserved edges and
    then the reserved leaves take them: each free class from ``m`` on twice,
    then each half class ascending, ``m - 1`` first when it keeps a slot."""
    j = row.find(0, m)
    while j >= 0:
        yield from (j, j)
        j = row.find(0, j + 1)
    if left:
        yield m - 1
    j = row.find(1, m)
    while j >= 0:
        yield j
        j = row.find(1, j + 1)


def _leaf_rows(
    ptr: int, row: bytearray, m: int, left: int, nrep: int, r: int
) -> tuple[list[int], list[int]]:
    """The classes of an owner's spare leaves, in pendant order, which is
    ascending, and of its reserved leaves, for a ``row`` starting at class
    ``ptr``: the spare leaves fill classes ``[ptr, ptr + m)`` but the
    ``left`` slot, and the reserved leaves take the slots after the ``nrep``
    reserved edges, up to ``r``."""
    spare = [ptr + c for c in range(m) for _ in range(2 - row[c])]
    if left:
        spare.pop()
    return spare, [ptr + c for c in islice(_slot_order(row, m, left), nrep, r)]


class SolverState:
    """Sweep state over one graph, padded implicitly: each owner's padding
    leaves are placed by arithmetic over its class row during its step.  A
    repair needs their classes, and reads them from two lists,
    :attr:`spare_leaves` and :attr:`reserved_leaves`.

    Isolated vertices are allowed and skipped: they get no padding and sit
    with the degree-1 vertices behind the sweep.

    Every edge has an id, its index in the right-row table (:attr:`targets`).
    The rows of the degree-D block come first; the few edges between two
    degree-1 vertices (K2 components) form the table's tail, each listed
    once by its earlier endpoint, whose only neighbor it names.  The sweep
    keeps classes by edge id only, in the coloring's class array.

    The state alone decides who reserves and how many: the owners are the
    vertices padded to degree ``target_delta``, visited in id order, and
    since ``k >= 2`` and ``target_delta >= 2k^2 - 2k``, each reserves
    :attr:`r` ``= (target_delta - k) // k >= 2k - 3 >= 1`` edges.
    :func:`compute_sdr` only matches them, and :attr:`reserved` holds its
    flags by edge id.

    ``t`` must be ``class_count_for(target_delta, k, mode)``, the budget the
    sweep's argument counts on.  :meth:`run` drives the sweep to completion
    and returns the coloring of the graph's edges (0-based classes unless
    asked otherwise).
    """

    def __init__(
        self,
        g: Graph,
        base_ordering: DegeneracyOrdering,
        target_delta: int,
        t: int,
        mode: Mode,
        debug: bool = False,
        stats: SolveStats | None = None,
    ) -> None:
        k = base_ordering.k
        if k < 2:
            raise PreconditionError("sweep requires degeneracy >= 2; forests are paired directly")
        need = required_max_degree(k, mode)
        if target_delta < need:
            raise PreconditionError(
                f"{mode.value} mode requires maximum degree >= {need} at degeneracy {k}; "
                f"graph has {target_delta}"
            )
        want = class_count_for(target_delta, k, mode)
        if t != want:
            raise PreconditionError(
                f"{mode.value} mode at maximum degree {target_delta} needs {want} classes, got {t}"
            )
        self.g = g
        self.k = k
        self.delta = target_delta
        self.t = t
        self.mode = mode
        self.debug = debug
        self.stats = stats if stats is not None else SolveStats()

        # Padding: every vertex of degree 2..D-1 gets D - degree leaves, so
        # every degree becomes D, 1 or 0.  Pendants would peel first, so the
        # degeneracy is unchanged.
        n = g.n
        delta = max_degree(g)
        if delta < 2:
            raise PreconditionError(f"padding needs maximum degree >= 2, got {delta}")
        if target_delta < delta:
            raise PreconditionError(
                f"target degree {target_delta} is below maximum degree {delta}"
            )
        adj = g._adj
        pad = [target_delta - len(row) if len(row) > 1 else 0 for row in adj]
        self.pad = pad
        self.stats.pendants_added += sum(pad)

        # Degree-D vertices first (stable), then degree-1 and isolated
        # vertices.  Left-degrees only shrink, so the ordering still
        # certifies degeneracy k, and every degree-1 vertex trails every
        # degree-D vertex as the sweep requires.  Padding pendants would
        # trail both.  A peel removes low degrees first, so its order is
        # usually partitioned already and is kept as it is.  The degree-D
        # vertices are the owners, which reserve representatives in id order.
        # The ordering's one int object per vertex id is shared by the owners
        # and any positions built here.
        ids = base_ordering.ids
        owners = [v for v in ids if len(adj[v]) > 1]
        n_high = len(owners)
        order = base_ordering.order
        if all(len(adj[v]) > 1 for v in islice(order, n_high)):
            self.ordering = base_ordering
        else:
            highs: list[int] = []
            ones: list[int] = []
            for v in order:
                (ones if len(adj[v]) <= 1 else highs).append(v)
            order = highs + ones
            position = [0] * n
            for i, v in zip(ids, order):
                position[v] = i
            self.ordering = DegeneracyOrdering(order, position, k)
        self.n_high = n_high

        # The right rows of the degree-D block, ascending by id, built once
        # and read by both the representative selection and the sweep: the
        # row at position i is targets[offsets[i]:offsets[i + 1]], and an
        # index into targets is the id of that edge.  The offsets are only
        # read, so an array holds them.  Past the last row, the tail names
        # the later endpoint of each K2 edge, whose earlier one is its only
        # neighbor.
        mark = time.perf_counter()
        position = self.ordering.position
        targets: list[int] = []
        offsets = array("i", [0])
        for i, v in enumerate(islice(order, n_high)):
            row = [u for u in adj[v] if position[u] > i]
            row.sort()
            targets += row
            offsets.append(len(targets))
        if len(targets) < g.edge_count:
            for v in islice(order, n_high, None):
                row = adj[v]
                if row and len(adj[row[0]]) == 1 and position[row[0]] > position[v]:
                    targets.append(row[0])
        self.targets = targets
        self.offsets = offsets
        self.r = (target_delta - k) // k
        self.reserved = compute_sdr(owners, self.r, targets, offsets, position, pad)
        self.stats.sdr_ms += (time.perf_counter() - mark) * 1000.0
        self.fc = ForestColoring(n, t, g.edge_count)
        # Debug only: owner position per reserved vertex (-1 when never
        # reserved); a vertex is "pending" while its owner lies ahead of the
        # sweep, and pending vertices must keep every class degree at most 1.
        self.reserved_owner_pos: list[int] = []
        if debug:
            self.reserved_owner_pos = [-1] * n
            flags = self.reserved
            for i in range(self.n_high):
                for e in range(offsets[i], offsets[i + 1]):
                    if flags[e]:
                        self.reserved_owner_pos[targets[e]] = i
        self._touched: list[int] = []
        # The classes of the leaves of the owner being repaired, its spare
        # leaves in pendant order and its reserved leaves: built only when a
        # reserved edge closes a cycle, for its repair and end-of-step check.
        self.spare_leaves: list[int] = []
        self.reserved_leaves: list[int] = []

    # ------------------------------------------------------------------ sweep

    def run(self, first: int = 0) -> dict[tuple[int, int], int]:
        """Sweep to completion and return ``{(u, v): class}``, with classes
        counted from ``first``: 0-based by default, 1-based as
        :func:`decompose` reports them with ``first=1``.

        The map, keyed by the graph's own edge tuples in the graph's order,
        is the largest structure of a solve, so it is built from the class
        array only after the representatives and the coloring tables are
        released, and with its final classes, so that no second pass
        rewrites it: the state is spent afterwards.
        """
        # Positions past the degree-D block hold isolated and degree-1
        # vertices, whose edge is colored from its other end, or here for a
        # K2 edge: alone in its component, it closes no cycle in class 0.
        start = time.perf_counter()
        self._sweep(range(self.n_high))
        fc = self.fc
        adj, targets = self.g._adj, self.targets
        for e in range(self.offsets[self.n_high], len(targets)):
            u = targets[e]
            fc.assign(e, adj[u][0], u, 0)
        cls = fc.edge_class
        uncolored = cls.count(NIL)
        if uncolored:
            raise InternalContradictionError(f"sweep left {uncolored} edges uncolored")
        del self.reserved, self.fc, fc
        out = dict.fromkeys(self.g._edges)
        out.update(zip(self.edge_keys(), map(first.__add__, cls) if first else cls))
        _check_map(self.g, out)
        self.stats.sweep_ms += (time.perf_counter() - start) * 1000.0
        return out

    def edge_keys(self) -> Iterator[tuple[int, int]]:
        """Every edge as its ``(u, v)`` pair, ``u < v``, in edge-id order.

        The pairs hold the rows' own ints and only probe the graph's edge
        table, whose tuples key the map (see :func:`_check_map`).
        """
        adj, order = self.g._adj, self.ordering.order
        targets, offsets = self.targets, self.offsets
        for i in range(self.n_high):
            v = order[i]
            for u in targets[offsets[i]:offsets[i + 1]]:
                yield (v, u) if v < u else (u, v)
        for u in targets[offsets[self.n_high]:]:
            v = adj[u][0]
            yield (v, u) if v < u else (u, v)

    def _sweep(self, positions: range) -> None:
        """At each of ``positions``, all inside the degree-D block, color
        every right-edge of the owner there around its ``pad[v]`` padding
        leaves, reading the tables of the solve once for all of them.  (A
        degree-1 vertex's edge is colored from the other side.)

        A leaf joins no path, so it matters only while it uses up a class at
        its owner, and every other vertex a step reads lies later in the
        order, with no leaves yet.  Sums over the owner's class row place the
        leaves and the reserved edges (:func:`_fit_leaves`), so a step's
        Python work follows its degree, not ``t``; the leaves' classes
        (:attr:`spare_leaves`, :attr:`reserved_leaves`) are listed only when
        a reserved edge closes a cycle, for the repair.
        """
        fc, targets, offsets = self.fc, self.targets, self.offsets
        order, pad, flags = self.ordering.order, self.pad, self.reserved
        t, r, debug = fc.t, self.r, self.debug
        top = r + 1 if self.mode is Mode.MINIMUM else r + 2
        for i in positions:
            v = order[i]
            lo, hi = offsets[i], offsets[i + 1]
            # The reserved edges by far end, ascending like the row, and the
            # ids of the other right-edges; reserved leaves make up the rest
            # of r.  One loop: rows are short, and two comprehensions cost
            # 2.6x as much.
            rep_edge: dict[int, int] = {}
            spare: list[int] = []
            for e in range(lo, hi):
                if flags[e]:
                    rep_edge[targets[e]] = e
                else:
                    spare.append(e)
            reserved = r - len(rep_edge)
            if reserved < 0:
                raise InternalContradictionError(f"owner {v} holds {len(rep_edge)} reserved edges")
            if debug:
                self._touched = [v] + targets[lo:hi]
            # Classes full at v are skipped once for the whole stage (degrees
            # at v only grow here), so every class below ptr stays full.  row
            # keeps v's class degrees in step with the placements.
            row, ptr = fc.row(v), 0
            for e in spare:
                while ptr < t and row[ptr] == 2:
                    ptr += 1
                row[place_light_edge(fc, e, targets[e], v, ptr)] += 1
            # With its spare leaves, v holds D - r edges and leaves, so the
            # budget left, 2t - (D - r) slots, is r or r + 1 (r + 2 in
            # relaxed mode).
            row = row[ptr:]
            budget, m, left = _fit_leaves(row, pad[v] - reserved)
            if not r <= budget <= top:
                raise InternalContradictionError(
                    f"class budget {budget} at owner {v} outside [{r}, {top}]"
                )
            closed = False
            for (u, e), c in zip(rep_edge.items(), _slot_order(row, m, left)):
                c += ptr
                closed |= fc.assign(e, v, u, c)
            if closed:
                self.spare_leaves, self.reserved_leaves = _leaf_rows(
                    ptr, row, m, left, len(rep_edge), r
                )
                self._repair(v, rep_edge, spare)
            self._check_capacity(v, closed)
            if debug:
                self._check_pending_headroom(i)

    def _check_capacity(self, v: int, repaired: bool) -> None:
        """End of an owner's step: the class row of ``v`` counts all its
        edges, which with ``pad[v]`` leaves make degree ``D``; after a repair
        (it moves leaves), the two leaf lists hold ``pad[v]`` leaves that fit
        beside the edges in every class.  ForestColoring caps edges alone,
        so this is the one check that sees the leaves."""
        row = self.fc.row(v)
        edges = sum(row)
        if edges + self.pad[v] != self.delta:
            raise InternalContradictionError(
                f"owner {v} has {edges} colored edges and padding {self.pad[v]}, "
                f"not degree {self.delta}"
            )
        if repaired:
            leaves = self._leaf_counts()
            loads = [d + x for d, x in zip(row, leaves)]
            if sum(leaves) != self.pad[v] or max(loads) > 2:
                raise InternalContradictionError(
                    f"owner {v} holds {sum(leaves)} leaves for padding {self.pad[v]}, "
                    f"class loads {loads}"
                )

    def _leaf_counts(self) -> list[int]:
        """The leaves of the owner being repaired, counted per class."""
        counts = [0] * self.t
        for j in self.spare_leaves + self.reserved_leaves:
            counts[j] += 1
        return counts

    # ------------------------------------------------------------------ repair

    def _repair(self, v: int, rep_edge: dict[int, int], spare: list[int]) -> None:
        """Drive the set of cycle-carrying reserved edges to empty.

        ``rep_edge`` maps the far end of each reserved edge of ``v`` to its
        edge id, and ``spare`` lists the ids of the other right-edges.  The
        set holds the far ends of the reserved edges on a cycle, computed by
        one test before the first move and after each move.

        Each iteration recolors or swaps one reserved edge of ``v`` (in one
        case trading with a non-reserved edge) and must strictly shrink the
        set, which starts with at most ``r`` members.  A swap partner may be
        a leaf of ``v``: trading with one recolors vw into the leaf's class
        and rewrites that leaf's entry, in :attr:`reserved_leaves` or
        :attr:`spare_leaves`, to vw's old class.  The spare leaves are
        listed in pendant order, which the unreserved trade's tie-break
        follows.
        """
        fc = self.fc
        cls = fc.edge_class
        targets = self.targets

        def on_cycle() -> set[int]:
            return {u for u, e in rep_edge.items() if v in fc.walk(cls[e], u, v)}

        bad = on_cycle()
        while bad:
            self.stats.repair_iterations += 1
            w = min(bad)
            ew = rep_edge[w]
            xi = cls[ew]
            move = self._choose_repair_move(v, rep_edge, spare, w, xi)
            kind = move[0]
            if kind == "swap":
                e = move[2]
                fc.swap_colors(ew, v, w, e, v, targets[e])
            else:
                fc.recolor(ew, v, w, move[1])
            if kind == "reserved leaf":
                leaves = self.reserved_leaves
                leaves[leaves.index(move[1])] = xi
            elif kind == "spare leaf":
                self.spare_leaves[move[2]] = xi
            new_bad = on_cycle()
            if len(new_bad) >= len(bad):
                reason = f"move {move[:2]} did not shrink the cycle set"
                raise InternalContradictionError(self._dump(v, rep_edge, new_bad, reason))
            bad = new_bad

    def _choose_repair_move(
        self, v: int, rep_edge: dict[int, int], spare: list[int], w: int, xi: int
    ) -> tuple:
        """Pick the move that frees the reserved edge vw from its cycle.

        Degrees at ``v`` count its edges and its :attr:`spare_leaves` but
        not its reserved edges and leaves (the state the budget argument
        reasons about).  Preference order:

        1. a class where ``w`` is untouched and ``v`` is not internal:
           recolor vw there, or swap with the reserved edge already holding
           that class;
        2. a class where ``v`` is untouched (net of reserved edges): swap vw
           with a reserved edge of that class, preferring the one adjacent to
           ``v`` on that class's path toward ``w`` so the cycle cannot close
           again;
        3. otherwise (possible only at degeneracy 2) swap vw with a
           non-reserved right-edge of ``v``.

        Among partners a leaf ranks after every real vertex, as the id of
        its pendant would.  A move returns as ``("recolor", j)``, or as
        ``("swap", j, e)`` with the partner's edge id ``e``.  A trade with a
        reserved leaf of class ``j`` (one in :attr:`reserved_leaves`) is
        returned as ``("reserved leaf", j)``, and one with the spare leaf at
        index ``i`` of :attr:`spare_leaves` as ``("spare leaf", j, i)``.
        """
        fc = self.fc
        t, cls = fc.t, fc.edge_class
        row = fc.row(v)
        net_v = list(row)
        for j in self.spare_leaves:
            net_v[j] += 1
        for e in rep_edge.values():
            net_v[cls[e]] -= 1
        row_w = fc.row(w)
        row_w[xi] -= 1

        for j in range(t):
            if row_w[j] == 0 and net_v[j] != 2:
                self.stats.repairs_endpoint_free += 1
                return self._reserved_partner(rep_edge, w, j) or ("recolor", j)

        for j in range(t):
            if net_v[j] == 0 and j != xi:
                self.stats.repairs_owner_free += 1
                if row[j] == 0 and j not in self.reserved_leaves:
                    # No edge or leaf at v carries j at all (only reachable
                    # with the relaxed budget): vw can simply move there,
                    # leaving v a leaf of class j, which cannot lie on a cycle.
                    return ("recolor", j)
                u = self._partner_on_path(v, w, j)
                if u is None:
                    return self._reserved_partner(rep_edge, w, j)
                if u not in rep_edge or cls[rep_edge[u]] != j:
                    reason = f"path partner {u} is not reserved in class {j}"
                    raise InternalContradictionError(self._dump(v, rep_edge, {w}, reason))
                return ("swap", j, rep_edge[u])

        # Both pools empty forces degeneracy exactly 2 (the class budget at v
        # cannot cover r reserved edges otherwise), so a non-reserved trade
        # partner is available and safe: its only colored edge is vu.
        if self.k != 2:
            raise InternalContradictionError(
                self._dump(v, rep_edge, {w}, f"unreserved trade reached at degeneracy {self.k}")
            )
        for e in spare:
            eta = cls[e]
            if eta != NIL and eta != xi:
                self.stats.repairs_unreserved += 1
                return ("swap", eta, e)
        for i, eta in enumerate(self.spare_leaves):
            if eta != xi:
                self.stats.repairs_unreserved += 1
                return ("spare leaf", eta, i)
        raise InternalContradictionError(
            self._dump(v, rep_edge, {w}, "no unreserved right-edge outside the cycle class")
        )

    def _reserved_partner(self, rep_edge: dict[int, int], w: int, j: int) -> tuple | None:
        """The swap with the reserved edge of class ``j`` whose far end is
        smallest, other than the one to ``w``, a real one before a leaf of
        :attr:`reserved_leaves`; None when there is none."""
        cls = self.fc.edge_class
        partners = [u for u, e in rep_edge.items() if u != w and cls[e] == j]
        if partners:
            return ("swap", j, rep_edge[min(partners)])
        if j in self.reserved_leaves:
            return ("reserved leaf", j)
        return None

    def _partner_on_path(self, v: int, w: int, j: int) -> int | None:
        """Walk class ``j`` from ``w``; if the walk reaches ``v``, return the
        vertex right before it, else None.  ``w`` has at most one class-``j``
        edge, so the walk direction is unique."""
        prev = w
        for x in self.fc.walk(j, w):
            if x == v:
                return prev
            prev = x
        return None

    # ------------------------------------------------------------------ debug

    def _check_pending_headroom(self, i: int) -> None:
        """Every reserved vertex whose owner is still ahead must have class
        degrees <= 1.  Only vertices touched this step can have changed, and
        none of them holds leaves yet."""
        for x in self._touched:
            j = self.fc.row(x).find(2)
            if j >= 0 and self.reserved_owner_pos[x] > i:
                raise InternalContradictionError(
                    f"reserved vertex {x} became internal in class {j} "
                    f"before its owner (position {self.reserved_owner_pos[x]})"
                )

    def _dump(self, v: int, rep_edge: dict[int, int], bad: set[int], reason: str) -> str:
        """The message of a failed repair at owner ``v``: the reason, the
        solve's parameters and the owner's reservations, classes and leaves."""
        fc = self.fc
        return "\n".join([
            f"repair failed at owner {v}: {reason}",
            f"  degeneracy={self.k} delta={self.delta} t={self.t} mode={self.mode.value}",
            f"  reserved={list(rep_edge)} bad={sorted(bad)}",
            f"  reserved colors={[fc.edge_class[e] for e in rep_edge.values()]}",
            f"  owner class degrees={list(fc.row(v))}",
            f"  owner leaves={self._leaf_counts()}",
        ])


def _check_map(g: Graph, out: dict[tuple[int, int], int | None]) -> None:
    """Check a map built as ``dict.fromkeys(g._edges)``, so keyed by the
    graph's own tuples in its order, whose values the solve's pairs then
    set: a pair that is no edge adds a key, and an edge no pair names keeps
    None.  Either is a solver bug."""
    if len(out) != g.edge_count or None in out.values():
        raise InternalContradictionError(
            f"edge map has {len(out)} keys for {g.edge_count} edges, "
            f"{sum(c is None for c in out.values())} without a class"
        )


def _color_forest(g: Graph, t: int) -> dict[tuple[int, int], int]:
    """Pair the edges of a forest into ``ceil(max_degree/2) <= t`` classes,
    numbered from 1 as :func:`decompose` reports them.

    Any assignment keeping per-vertex class counts at 2 works: subgraphs of a
    forest are forests, so no cycles can arise.  Children fill the smallest
    classes with remaining capacity at the parent, two to a class, one in the
    parent edge's class ``pc``: the ``i``-th child takes class ``i // 2``
    below slot ``2 * pc``, and ``(i + 1) // 2`` from there on.
    """
    n = g.n
    out: dict[tuple[int, int], int | None] = dict.fromkeys(g._edges)
    seen = bytearray(n)
    by_degree = sorted(range(n), key=lambda v: (-g.degree(v), v))
    for root in by_degree:
        if seen[root] or g.degree(root) == 0:
            continue
        seen[root] = 1
        stack: list[tuple[int, int, int]] = [(root, -1, -1)]
        while stack:
            x, parent, pc = stack.pop()
            split = 2 * pc if pc >= 0 else n
            i = 0
            for y in sorted(g.neighbors(x)):
                if y == parent:
                    continue
                c = i // 2 if i < split else (i + 1) // 2
                if c >= t:
                    raise InternalContradictionError(f"forest pairing ran out of classes at {x}")
                out[(x, y) if x < y else (y, x)] = c + 1
                i += 1
                seen[y] = 1
                stack.append((y, x, c))
    _check_map(g, out)
    return out


def decompose(
    g: Graph,
    mode: Mode | str = Mode.MINIMUM,
    *,
    debug_checks: bool = False,
) -> DecomposeResult:
    """Partition the edges of ``g`` into ``t`` linear forests.

    ``t`` is ``ceil(delta/2)`` in MINIMUM mode (requires maximum degree
    ``delta >= 2k^2 - k`` for degeneracy ``k >= 2``) and ``ceil((delta+1)/2)``
    in LAC mode (requires ``delta >= 2k^2 - 2k``).  Forests need no degree
    threshold.  One degeneracy ordering of the whole graph drives one sweep:
    the thresholds are global, so an ordering certifying the global ``k``
    meets the paper's Hall and budget argument on every component at once.
    Isolated vertices have no edge to color and are skipped.

    ``debug_checks`` enables expensive internal invariant scans plus a final
    independent verification.

    Raises :class:`PreconditionError` when the degree threshold fails, and
    :class:`InternalContradictionError` only on an implementation bug.
    """
    mode = Mode(mode)
    start = time.perf_counter()
    return _solve(g, degeneracy_ordering(g), mode, debug_checks, start)


def _solve(
    g: Graph,
    ordering: DegeneracyOrdering,
    mode: Mode,
    debug_checks: bool,
    start: float,
) -> DecomposeResult:
    """:func:`decompose` given a degeneracy ordering of ``g`` the caller
    already holds.  ``start`` is the clock reading taken right before that
    ordering was computed, so ``order_ms`` and ``wall_ms`` still cover it."""
    stats = SolveStats()
    stats.order_ms = (time.perf_counter() - start) * 1000.0
    delta = max_degree(g)
    k = ordering.k
    t = class_count_for(delta, k, mode)
    if k <= 1:
        coloring = _color_forest(g, t)
    else:
        coloring = SolverState(g, ordering, delta, t, mode, debug_checks, stats).run(first=1)
    stats.wall_ms = (time.perf_counter() - start) * 1000.0
    result = DecomposeResult(coloring, t, k, delta, stats)
    if debug_checks:
        report = verify_partition(g, coloring, t)
        if not report.valid:
            raise InternalContradictionError(
                "decompose produced an invalid partition: "
                + "; ".join(x.detail for x in report.violations[:5])
            )
    return result
