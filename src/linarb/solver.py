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
    light endpoint), check that exactly ``2t - D + r`` class slots are left,
    place the reserved edges in them by a slot plan computed once per
    distinct open class row, leaf count and reserved count, and repair any
    monochromatic cycle by local recoloring/swaps, each strictly shrinking
    the set of cycles.  A K2 component's edge takes class 0 after the sweep.

The same sweep with one extra class (``t = ceil((D+1)/2)``) works whenever
D >= 2k^2 - 2k ("relaxed" mode, matching the classic one-more-class bound).
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from collections.abc import Iterator
from enum import Enum
from itertools import accumulate, compress, count, islice
from operator import lt, sub
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

    ``order_ms``, ``rows_ms``, ``sdr_ms``, ``sweep_ms`` and ``project_ms``
    time the degeneracy ordering, the right-row table, the representative
    selection, the sweep and the map's build; ``repair_ms`` times the repairs
    inside the sweep.  Padding is no stage: an owner's leaves are arithmetic
    in its sweep step, whose slot plans (``slot_plans`` counts those computed)
    are shared by the owners presenting the same case (:func:`_plan`).
    """

    def __init__(self) -> None:
        self.pendants_added = 0
        self.slot_plans = 0
        self.repair_iterations = 0
        self.repairs_endpoint_free = 0
        self.repairs_owner_free = 0
        self.repairs_unreserved = 0
        self.order_ms = 0.0
        self.rows_ms = 0.0
        self.sdr_ms = 0.0
        self.sweep_ms = 0.0
        self.repair_ms = 0.0
        self.project_ms = 0.0
        self.wall_ms = 0.0


class DecomposeResult(NamedTuple):
    """A complete edge coloring plus the parameters that shaped it.

    ``coloring`` maps each edge (canonical ``(u, v)``, ``u < v``) to a class
    in ``1..t``; its keys are the graph's own edge tuples, in the graph's
    order (ascending for a parsed graph, which the CLI writes as it is), as
    a solve numbers its edges.  ``t`` is the number of classes made
    available, which for MINIMUM mode equals ``ceil(delta/2)`` exactly.
    """

    coloring: dict[tuple[int, int], int]
    t: int
    k: int
    delta: int
    stats: SolveStats


def _fit_leaves(row: bytes, spare: int) -> tuple[int, int]:
    """Fill the open slots of an owner's class ``row`` (its class degrees
    from some class on) with ``spare`` leaves, lowest class first, which fit
    when ``row`` has that many open slots.  Returns ``(m, left)``: the least
    ``m`` with ``2m - sum(row[:m]) >= spare``, so that the leaves fill
    classes ``[0, m)``, and the ``left`` slots, 0 or 1, that class ``m - 1``
    keeps.  ``m <- ceil((spare + sum(row[:m])) / 2)`` never passes that
    ``m`` and moves again only past an occupied class."""
    m = s = 0
    while (nxt := (spare + s + 1) // 2) > m:
        s += sum(row[m:nxt])
        m = nxt
    return m, 2 * m - s - spare


def _slot_order(row: bytes, m: int, left: int) -> Iterator[int]:
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


def _leaf_rows(ptr: int, row: bytes, m: int, left: int, nrep: int, r: int) -> tuple[list, list]:
    """The classes of an owner's spare leaves, in pendant order, which is
    ascending, and of its reserved leaves, for a ``row`` starting at class
    ``ptr``: the spare leaves fill classes ``[ptr, ptr + m)`` but the
    ``left`` slot, and the reserved leaves take the slots after the ``nrep``
    reserved edges, up to ``r``."""
    spare = [ptr + c for c in range(m) for _ in range(2 - row[c])]
    if left:
        spare.pop()
    return spare, [ptr + c for c in islice(_slot_order(row, m, left), nrep, r)]


def _plan(plans: dict, tail: bytes, spare: int, nrep: int) -> tuple[int, int, tuple[int, ...]]:
    """``m``, ``left`` (:func:`_fit_leaves`) and the first ``nrep`` slots
    (:func:`_slot_order`) of an owner whose class row past its full classes
    is ``tail``, with ``spare`` spare leaves.  They depend on these alone, so
    ``plans`` keeps each plan it computes, keyed by them, for later owners."""
    key = (tail, spare, nrep)
    if (plan := plans.get(key)) is None:
        m, left = _fit_leaves(tail, spare)
        plans[key] = plan = (m, left, tuple(islice(_slot_order(tail, m, left), nrep)))
    return plan


class SolverState:
    """Sweep state over one graph, padded implicitly: each owner's padding
    leaves are placed by arithmetic over its class row during its step.  A
    repair needs their classes, and reads them from two lists,
    :attr:`spare_leaves` and :attr:`reserved_leaves`.

    Isolated vertices are allowed and skipped: they get no padding and sit
    with the degree-1 vertices behind the sweep.

    Every edge has an id, its position in the graph's edge table, and the
    sweep keeps classes by id only, in the coloring's class array.  The
    right-row table files each edge in the row of its earlier endpoint in
    the sweep order, its id in :attr:`ids` beside its far end in
    :attr:`targets`: the row at position ``i``, ascending, is the slots
    ``starts[i]:ends[i]``, past the degree-D block for a K2 component's edge.
    Each row has a range of its vertex's degree, so the slots past its end
    count the vertex's earlier neighbors: more than ``k`` is an error.

    The state alone decides who reserves and how many: the owners are the
    vertices padded to degree ``target_delta``, visited in id order, and
    since ``k >= 2`` and ``target_delta >= 2k^2 - 2k``, each reserves
    :attr:`r` ``= (target_delta - k) // k >= 2k - 3 >= 1`` edges.
    :func:`compute_sdr` only matches them, and :attr:`reserved` holds its
    flags by edge id.

    ``t`` must be ``class_count_for(target_delta, k, mode)``, the budget the
    sweep's argument counts on.  :meth:`run` drives the sweep to completion
    and returns the coloring of the graph's edges (0-based classes unless
    asked otherwise), with its counters and stage timers in :attr:`stats`.
    """

    def __init__(
        self,
        g: Graph,
        base_ordering: DegeneracyOrdering,
        target_delta: int,
        t: int,
        mode: Mode,
        debug: bool = False,
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
        self.stats = SolveStats()

        # Padding: every vertex of degree 2..D-1 gets D - degree leaves, so
        # every degree becomes D, 1 or 0.  Pendants would peel first, so the
        # degeneracy is unchanged.  A negative count is a degree above D.
        n = g.n
        adj = g._adj
        pad = array("i", [target_delta - len(row) if len(row) > 1 else 0 for row in adj])
        if min(pad, default=0) < 0:
            raise PreconditionError(
                f"target degree {target_delta} is below maximum degree {max_degree(g)}"
            )
        self.pad = pad
        self.stats.pendants_added += sum(pad)

        # Degree-D vertices first (stable), then degree-1 and isolated
        # vertices.  Left-degrees only shrink, so the ordering still
        # certifies degeneracy k, and every degree-1 vertex trails every
        # degree-D vertex as the sweep requires.  Padding pendants would
        # trail both.  A peel removes low degrees first, so its order is
        # usually partitioned already and is kept as it is.  The degree-D
        # vertices are the owners, which reserve representatives in id order.
        # They and any positions built here share the ordering's int object
        # for each vertex ``v``, ``order[position[v]]``.
        order, position = base_ordering.order, base_ordering.position
        owners = [v for v in map(order.__getitem__, position) if len(adj[v]) > 1]
        if not owners:
            raise PreconditionError(f"padding needs maximum degree >= 2, got {max_degree(g)}")
        self.n_high = n_high = len(owners)
        if all(len(adj[v]) > 1 for v in islice(order, n_high)):
            self.ordering = base_ordering
        else:
            order = [v for v in order if len(adj[v]) > 1] + [v for v in order if len(adj[v]) <= 1]
            position = [0] * n
            for i, v in zip(map(base_ordering.order.__getitem__, base_ordering.position), order):
                position[v] = i
            self.ordering = DegeneracyOrdering(order, position, k)

        # The right rows, for the representative selection and the sweep, in
        # one pass over the edge table: each fills a range of its vertex's
        # degree in table order, the owner's adjacency order, which is
        # ascending for a parsed or generated graph.  A row with a far end
        # below the one before it is noted, and only noted rows are sorted,
        # ids with them.  The gap from a row's end to the next range (or the
        # table's end) is its vertex's left-degree, at most k in a valid order.
        mark = time.perf_counter()
        bounds = array("i", accumulate(map(len, map(adj.__getitem__, order)), initial=0))
        starts, nxt = bounds[:-1], bounds[:-1]
        size = bounds[-1]
        targets = array("i", [NIL]) * size
        ids = array("i", targets)
        noted, last = [], [NIL] * n
        for e, (a, b) in enumerate(g._edges):
            i, j = position[a], position[b]
            if j < i:
                i, b = j, a
            s = nxt[i]
            nxt[i] = s + 1
            targets[s] = b
            ids[s] = e
            if last[i] > b:
                noted.append(i)
            last[i] = b
        if (most := max(map(sub, bounds[1:], nxt))) > k:
            v = order[list(map(sub, bounds[1:], nxt)).index(most)]
            raise PreconditionError(f"vertex {v} has {most} earlier neighbors, more than k = {k}")
        for i in set(noted):
            lo, hi = starts[i], nxt[i]
            row = sorted(zip(targets[lo:hi], ids[lo:hi]))
            targets[lo:hi] = array("i", [u for u, _ in row])
            ids[lo:hi] = array("i", [e for _, e in row])
        self.targets, self.ids, self.starts, self.ends = targets, ids, starts, nxt
        self.stats.rows_ms += (time.perf_counter() - mark) * 1000.0
        mark = time.perf_counter()
        self.r = (target_delta - k) // k
        self.reserved = compute_sdr(owners, self.r, targets, starts, self.ends, position, pad)
        del owners, last  # before the coloring tables, which can take their place
        self.stats.sdr_ms += (time.perf_counter() - mark) * 1000.0
        self.fc = ForestColoring(n, t, g.edge_count)
        # Debug only: owner position per reserved vertex (-1 when never
        # reserved); a vertex is "pending" while its owner lies ahead of the
        # sweep, and pending vertices must keep every class degree at most 1.
        self.reserved_owner_pos = [-1] * n if debug else []
        for i in range(n_high if debug else 0):
            for s in range(starts[i], nxt[i]):
                if self.reserved[s]:
                    self.reserved_owner_pos[targets[s]] = i
        self._touched: list[int] = []
        # The classes of the leaves of the owner being repaired, its spare
        # leaves in pendant order and its reserved leaves: built only when a
        # reserved edge closes a cycle, for its repair and the check after it.
        self.spare_leaves: list[int] = []
        self.reserved_leaves: list[int] = []

    # ------------------------------------------------------------------ sweep

    def run(self, first: int = 0) -> dict[tuple[int, int], int]:
        """Sweep to completion and return ``{(u, v): class}``, with classes
        counted from ``first``: 0-based by default, 1-based as
        :func:`decompose` reports them with ``first=1``.

        The map, keyed by the graph's own edge tuples in the graph's order,
        is the largest structure of a solve, so it is built from the class
        array only after the row table, the representatives and the coloring
        tables are released, and with its final classes, so that no second
        pass rewrites it: the state is spent afterwards.  The class array is
        in the table's order, so one ``update`` zips the two.
        """
        # Past the degree-D block, a degree-1 vertex's edge is colored from
        # its other end, or here for a K2 edge: it closes no cycle in class 0.
        start = time.perf_counter()
        n_high = self.n_high
        self._sweep(range(n_high))
        fc, targets, ids, starts = self.fc, self.targets, self.ids, self.starts
        order = self.ordering.order
        for i in compress(count(n_high), map(lt, starts[n_high:], self.ends[n_high:])):
            fc.assign(ids[starts[i]], order[i], targets[starts[i]], 0)
        cls = fc.edge_class
        if uncolored := cls.count(NIL):
            raise InternalContradictionError(f"sweep left {uncolored} edges uncolored")
        del self.targets, self.ids, self.reserved, self.fc, fc, targets, ids
        mark = time.perf_counter()
        self.stats.sweep_ms += (mark - start) * 1000.0
        edges = self.g._edges
        out = dict.fromkeys(edges)
        out.update(zip(edges, map(first.__add__, cls) if first else cls))
        _check_map(self.g, out)
        self.stats.project_ms += (time.perf_counter() - mark) * 1000.0
        return out

    def _sweep(self, positions: range) -> None:
        """At each of ``positions``, all inside the degree-D block, color
        every right-edge of the owner there around its ``pad[v]`` padding
        leaves, reading the tables of the solve once for all of them.

        A leaf joins no path, so it matters only while it uses up a class at
        its owner, and every other vertex a step reads lies later in the
        order, with no leaves yet.  Past the light edges, the slots of the
        leaves and reserved edges are a pure function of the owner's class
        row from ``ptr``, its spare leaves and its reserved count, which are
        all :func:`_fit_leaves` and :func:`_slot_order` read, so one table
        per call computes each distinct case once (:func:`_plan`; under
        ``debug`` each owner's is derived again and compared).  A step does
        Python work in the owner's degree, not ``t``.

        One exact check bounds each owner's degree.  Past its light edges and
        ``spare = pad[v] - r + nrep`` leaves, ``budget = 2t - sum(row) -
        spare`` slots are open, and ``budget == 2t - D + r`` holds exactly
        when ``sum(row) + nrep + pad[v] == D``: every edge of ``v`` but its
        ``nrep`` reserved ones is colored.  :func:`_slot_order` yields
        ``budget >= r >= nrep`` slots (``2t >= D``), so each reserved edge
        takes one, in a class ``fc.assign`` caps: the owner ends at degree
        ``D`` by construction, and only a repair, which moves its edges and
        leaves, is checked again (:meth:`_check_capacity`).
        """
        fc, targets, ids, starts, ends = self.fc, self.targets, self.ids, self.starts, self.ends
        order, pad, flags = self.ordering.order, self.pad, self.reserved
        t, r, debug = fc.t, self.r, self.debug
        want = 2 * t - self.delta + r
        plans: dict[tuple[bytes, int, int], tuple[int, int, tuple[int, ...]]] = {}
        for i in positions:
            v = order[i]
            lo, hi = starts[i], ends[i]
            if debug:
                self._touched = [v, *targets[lo:hi]]
            # One pass counts the reserved edges and places the others.  Full
            # classes at v are skipped once (degrees at v only grow here), so
            # all below ptr stay full; row keeps v's degrees in step.
            row, ptr, nrep = fc.row(v), 0, 0
            for s in range(lo, hi):
                if flags[s]:
                    nrep += 1
                    continue
                while ptr < t and row[ptr] == 2:
                    ptr += 1
                row[place_light_edge(fc, ids[s], targets[s], v, ptr)] += 1
            if nrep > r:
                raise InternalContradictionError(f"owner {v} holds {nrep} reserved edges")
            # v holds D - r edges and spare leaves: 2t - D + r slots are left.
            spare = pad[v] - (r - nrep)
            budget = 2 * row.count(0) + row.count(1) - spare
            if budget != want:
                raise InternalContradictionError(f"class budget {budget} at owner {v}, not {want}")
            closed = False
            if nrep:
                tail = bytes(row[ptr:])
                m, left, plan = planned = _plan(plans, tail, spare, nrep)
                if debug and _plan({}, tail, spare, nrep) != planned:
                    raise InternalContradictionError(f"owner {v} reused a stale plan {planned}")
                for c, s in zip(plan, compress(range(lo, hi), flags[lo:hi])):
                    closed |= fc.assign(ids[s], v, targets[s], ptr + c)
            if closed:
                self.spare_leaves, self.reserved_leaves = _leaf_rows(ptr, tail, m, left, nrep, r)
                rep_edge = {targets[s]: ids[s] for s in range(lo, hi) if flags[s]}
                mark = time.perf_counter()
                self._repair(v, rep_edge, [s for s in range(lo, hi) if not flags[s]])
                self.stats.repair_ms += (time.perf_counter() - mark) * 1000.0
                self._check_capacity(v)
            if debug:
                self._check_pending_headroom(i)
        self.stats.slot_plans += len(plans)

    def _check_capacity(self, v: int) -> None:
        """After a repair at ``v``, which moves its edges and leaves: the
        class row of ``v`` still counts ``D - pad[v]`` edges, and the leaf
        lists hold ``pad[v]`` leaves that fit beside them in every class.
        ForestColoring caps edges alone; only this check sees the leaves."""
        row = self.fc.row(v)
        if (edges := sum(row)) + self.pad[v] != self.delta:
            raise InternalContradictionError(
                f"owner {v} has {edges} colored edges and padding {self.pad[v]}, "
                f"not degree {self.delta}"
            )
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
        edge id, and ``spare`` lists the row slots of the other right-edges.  The
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
                fc.swap_colors(ew, v, w, move[2], v, move[3])
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
        ``("swap", j, e, u)`` with the partner's edge id ``e`` and far end
        ``u``.  A trade with a
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
                return ("swap", j, rep_edge[u], u)

        # Both pools empty forces degeneracy exactly 2 (the class budget at v
        # cannot cover r reserved edges otherwise), so a non-reserved trade
        # partner is available and safe: its only colored edge is vu.
        if self.k != 2:
            raise InternalContradictionError(
                self._dump(v, rep_edge, {w}, f"unreserved trade reached at degeneracy {self.k}")
            )
        for s in spare:
            eta = cls[self.ids[s]]
            if eta != NIL and eta != xi:
                self.stats.repairs_unreserved += 1
                return ("swap", eta, self.ids[s], self.targets[s])
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
            u = min(partners)
            return ("swap", j, rep_edge[u], u)
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
    """Check a map built as ``dict.fromkeys(g._edges)`` and then filled, never
    deleted from: a pair that is no edge adds a key, and an edge left unfilled
    keeps None.  Either is a solver bug.  Filling keeps a present key's object
    and position, so a passing map holds the table's tuples in its order, the
    order the CLI writes: a reorder cannot arise, and no second check runs."""
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


def _check_ordering(g: Graph, ordering: DegeneracyOrdering) -> None:
    """Reject a given ordering that is no permutation of ``g``'s vertices or,
    at ``k <= 1``, where the forest pairing takes it on trust, puts more than
    ``k`` earlier neighbors before a vertex.  At ``k >= 2`` the sweep's row
    build counts them, in its own order, which moves degree-1 vertices last."""
    n, order, position, k = g.n, ordering.order, ordering.position, ordering.k
    ids = list(range(n))
    if len(position) != n or sorted(order) != ids or [*map(position.__getitem__, order)] != ids:
        raise PreconditionError(f"the ordering is no permutation of the graph's {n} vertices")
    if k <= 1 and (later := Counter(a if position[a] > position[b] else b for a, b in g._edges)):
        ((v, most),) = later.most_common(1)
        if most > k:
            raise PreconditionError(f"vertex {v} has {most} earlier neighbors, more than k = {k}")


def decompose(
    g: Graph,
    mode: Mode | str = Mode.MINIMUM,
    *,
    debug_checks: bool = False,
    ordering: DegeneracyOrdering | None = None,
) -> DecomposeResult:
    """Partition the edges of ``g`` into ``t`` linear forests.

    ``t`` is ``ceil(delta/2)`` in MINIMUM mode (requires maximum degree
    ``delta >= 2k^2 - k`` for degeneracy ``k >= 2``) and ``ceil((delta+1)/2)``
    in LAC mode (requires ``delta >= 2k^2 - 2k``).  Forests need no degree
    threshold.  One degeneracy ordering of the whole graph drives one sweep:
    the thresholds are global, so an ordering certifying the global ``k``
    meets the paper's Hall and budget argument on every component at once.
    Isolated vertices have no edge to color and are skipped.  The map's keys
    are the tuples of ``g``'s edge table, in the table's order.

    ``ordering`` is a degeneracy ordering of ``g`` the caller already holds:
    none is computed then, and ``order_ms`` times only its check.  ``debug_checks``
    enables expensive internal invariant scans plus a final independent
    verification.

    Raises :class:`PreconditionError` when the degree threshold fails or a
    given ``ordering`` does not certify its ``k`` (:func:`_check_ordering`),
    and :class:`InternalContradictionError` only on an implementation bug.
    """
    mode = Mode(mode)
    start = time.perf_counter()
    if ordering is None:
        ordering = degeneracy_ordering(g)
    else:
        _check_ordering(g, ordering)
    order_ms = (time.perf_counter() - start) * 1000.0
    delta = max_degree(g)
    k = ordering.k
    t = class_count_for(delta, k, mode)
    if k <= 1:
        coloring, stats = _color_forest(g, t), SolveStats()
    else:
        state = SolverState(g, ordering, delta, t, mode, debug_checks)
        coloring, stats = state.run(first=1), state.stats
    stats.order_ms = order_ms
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
