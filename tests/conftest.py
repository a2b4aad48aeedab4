"""Shared builders, independent re-implementations used as test oracles, and
the hand-built graphs that force the solver's rarer repair moves."""

from __future__ import annotations

import gc
import json
import random
from array import array
from itertools import combinations
from typing import Sequence

from linarb import (
    DegeneracyOrdering,
    Graph,
    InternalContradictionError,
    Mode,
    PreconditionError,
    SolverState,
    SplitMix64,
    class_count_for,
    degeneracy_ordering,
    max_degree,
    required_max_degree,
)
from linarb.coloring import NIL, ForestColoring
import linarb.sdr
from linarb.sdr import _augment
from linarb.solver import _color_forest
from linarb.verify import (
    DEGREE_OVERFLOW,
    MONOCHROMATIC_CYCLE,
    UNCOLORED_EDGE,
    UNKNOWN_EDGE,
    VerificationReport,
    Violation,
)

# One pass/fail line per acceptance criterion, echoed after the run so the
# lines survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# ---------------------------------------------------------------- builders


def gfrom(n: int, edges) -> Graph:
    g = Graph(n)
    for u, v in edges:
        g.add_edge(u, v)
    return g


def path_graph(n: int) -> Graph:
    return gfrom(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    return gfrom(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return gfrom(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def complete_graph(n: int) -> Graph:
    return gfrom(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def fan_graph(n: int, hub_first: bool = False) -> Graph:
    """A path on vertices 0..n-2 plus a hub n-1 joined to all of them, or,
    with ``hub_first``, the same graph relabelled to hub 0 and path 1..n-1."""
    shift = 1 if hub_first else 0
    hub = (n - 1 + shift) % n
    path = [(i + shift, i + 1 + shift) for i in range(n - 2)]
    return gfrom(n, path + [(i + shift, hub) for i in range(n - 1)])


def random_graph(rnd: random.Random, n: int, m: int) -> Graph:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return gfrom(n, rnd.sample(pairs, min(m, len(pairs))))


def scale_graph() -> Graph:
    """100000-vertex graph of degeneracy 2 with every degree capped at 8 and
    one vertex lifted to exactly 8, reproducible from a fixed stream."""
    rng = SplitMix64(20260819)
    n = 100_000
    adj: list[list[int]] = [[] for _ in range(n)]
    edges: dict[tuple[int, int], None] = {}
    for i in range(1, n):
        want = min(2, i)
        picked: set[int] = set()
        guard = 0
        while len(picked) < want and guard < 40:
            c = rng.below(i)
            guard += 1
            if c in picked or len(adj[c]) >= 8:
                continue
            picked.add(c)
        for c in sorted(picked):
            edges[c, i] = None
            adj[c].append(i)
            adj[i].append(c)
    while len(adj[0]) < 8:
        w = len(adj)
        adj.append([0])
        adj[0].append(w)
        edges[0, w] = None
    return Graph._from_parts(adj, edges)


def capped_instance(k: int, target: int, n: int, rnd: random.Random) -> Graph:
    """Random graph of degeneracy exactly ``k`` and maximum degree exactly
    ``target``: standard attachment, but only to vertices still below the
    cap, then leaves lift one vertex to the cap."""
    edges = []
    deg = [0] * n
    for i in range(1, n):
        for c in rnd.sample([c for c in range(i) if deg[c] < target], min(k, i)):
            edges.append((c, i))
            deg[c] += 1
            deg[i] += 1
    leaves = range(n, n + target - deg[0])
    return Graph.from_edges(n + len(leaves), edges + [(0, w) for w in leaves])


def random_peel_ordering(g: Graph, k: int, rnd: random.Random) -> DegeneracyOrdering:
    """A random ordering certifying degeneracy ``k``: peel a vertex drawn
    uniformly from those with at most ``k`` neighbors left, and reverse."""
    deg = [len(row) for row in g._adj]
    alive = set(range(g.n))
    peeled = []
    while alive:
        v = rnd.choice(sorted(u for u in alive if deg[u] <= k))
        alive.remove(v)
        peeled.append(v)
        for u in g._adj[v]:
            deg[u] -= 1
    return ordering_for(g, peeled[::-1], k)


# ------------------------------------------------- independent re-checks


def naive_components(g: Graph) -> list[set[int]]:
    seen: set[int] = set()
    comps = []
    for s in range(g.n):
        if s in seen:
            continue
        comp = {s}
        stack = [s]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comps.append(comp)
    return comps


def naive_degeneracy(g: Graph) -> tuple[int, list[int]]:
    """Repeated minimum-degree removal without any queue machinery.

    Returns the degeneracy and the removal sequence, ties broken by the
    smallest id; a degeneracy ordering is that sequence reversed.
    """
    alive = set(range(g.n))
    deg = {v: g.degree(v) for v in alive}
    worst = 0
    removal = []
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        worst = max(worst, deg[v])
        alive.remove(v)
        removal.append(v)
        for u in g.neighbors(v):
            if u in alive:
                deg[u] -= 1
    return worst, removal


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical dictionary key for the undirected edge uv."""
    return (u, v) if u < v else (v, u)


class Pairs:
    """Edge ids for hand-built coloring states on ``n`` vertices: every
    vertex pair is an edge, numbered in ascending ``(u, v)`` order."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.ends = list(combinations(range(n), 2))
        self._ids = {e: i for i, e in enumerate(self.ends)}

    def __call__(self, u: int, v: int) -> int:
        return self._ids[edge_key(u, v)]

    def coloring(self, t: int) -> ForestColoring:
        return ForestColoring(self.n, t, len(self.ends))


def edge_classes(fc: ForestColoring, ends) -> dict[tuple[int, int], int]:
    """The colored edges of ``fc`` as an ``{(u, v): class}`` map, where
    ``ends[e]`` is the pair of edge id ``e``."""
    return {ends[e]: c for e, c in enumerate(fc.edge_class) if c != NIL}


def unreachable_after(fn) -> int:
    """Run ``fn()`` with the cyclic garbage collector off and return
    the number of objects a full collection then finds unreachable: the
    garbage ``fn`` left in reference cycles.  The collector's state is
    restored."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


# ------------------------------------------------- the coloring's tables
#
# The only test code that reads ForestColoring's per-(vertex, class) tables
# (`_cd`, `_nb1`, `_nb2`) and its `_total` array, cell ``v * t + j``: a change
# of storage touches coloring.py and these three helpers.


def coloring_problems(fc: ForestColoring, ends: Sequence[tuple[int, int]]) -> list[str]:
    """Full-state consistency scan of ``fc``; returns human-readable problems.

    ``ends[e]`` is the ``(u, v)`` pair, ``u < v``, of edge id ``e``.
    Recomputes degrees, neighbors and totals from the class array, walks
    every class path from scratch to check the mate stored at each end,
    checks the degree cap, and checks every class for cycles with a local
    union-find.
    """
    problems: list[str] = []
    n, t = fc.n, fc.t
    cls = fc.edge_class
    if len(ends) != len(cls):
        problems.append(f"{len(ends)} edge ends for {len(cls)} edge ids")
    adj: dict[tuple[int, int], list[int]] = {}
    total = [0] * n
    parent = array("i", range(n * t))  # over (vertex, class) cells

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v), j in zip(ends, cls):
        if j == NIL:
            continue
        if not (0 <= u < n and 0 <= v < n and u < v):
            problems.append(f"bad edge key {(u, v)}")
            continue
        if not 0 <= j < t:
            problems.append(f"edge {(u, v)} has class {j} out of range")
            continue
        total[u] += 1
        total[v] += 1
        adj.setdefault((u, j), []).append(v)
        adj.setdefault((v, j), []).append(u)
        ru, rv = find(u * t + j), find(v * t + j)
        if ru == rv:
            problems.append(f"class {j} contains a cycle through edge {(u, v)}")
        else:
            parent[ru] = rv

    def far_end(v: int, j: int) -> int:
        prev, cur = v, adj[v, j][0]
        while len(adj[cur, j]) == 2:
            a, b = adj[cur, j]
            prev, cur = cur, (b if a == prev else a)
        return cur

    for v in range(n):
        for j in range(t):
            i = v * t + j
            nbrs = adj.get((v, j), [])
            want = len(nbrs)
            if want > 2:
                problems.append(f"vertex {v} has {want} class-{j} edges")
            if fc._cd[i] != min(want, 255):
                problems.append(
                    f"degree table mismatch at ({v},{j}): "
                    f"{fc._cd[i]} stored, {want} actual"
                )
            slots = [fc._nb1[i], fc._nb2[i]]
            if want == 1:
                mate = far_end(v, j)
                if slots[1] != mate:
                    problems.append(
                        f"mate mismatch at ({v},{j}): {slots[1]} stored, {mate} actual"
                    )
                slots = slots[:1]
            if sorted(x for x in slots if x != NIL) != sorted(nbrs):
                problems.append(f"slot mismatch at ({v},{j})")
        if fc._total[v] != total[v]:
            problems.append(f"total degree mismatch at {v}")
    return problems


def reference_cycle_containing(
    fc: ForestColoring, j: int, e: int, u: int, v: int
) -> list[int] | None:
    """``ForestColoring.cycle_containing``, which the solver's repair used
    before it tested ``v in fc.walk(j, u, v)`` instead, kept as the reference
    that test is checked against: the class-``j`` cycle through the colored
    edge ``e`` = uv as a vertex sequence ``[u, v, ...]``, or None.  The walk
    from ``v`` away from ``u`` ends at ``u`` exactly on a cycle."""
    if fc.edge_class[e] != j:
        raise InternalContradictionError(f"edge {e} ({u}-{v}) is not colored {j}")
    rest = list(fc.walk(j, v, u))
    return [u, v] + rest[:-1] if rest and rest[-1] == u else None


def mates(fc: ForestColoring, j: int) -> dict[int, int]:
    """The stored mate of every class-``j`` path end."""
    return {v: fc._nb2[v * fc.t + j] for v in range(fc.n) if fc.row(v)[j] == 1}


def write_cell(fc: ForestColoring, v: int, j: int, *, degree=None, mate=None) -> None:
    """Overwrite the stored class-``j`` degree, or the second slot (the mate
    at a path end), of ``v``, past every check of the coloring: the one way
    a test tampers with its tables."""
    i = v * fc.t + j
    if degree is not None:
        fc._cd[i] = degree
    if mate is not None:
        fc._nb2[i] = mate


def state_edge_ids(state: SolverState, extra=()) -> dict[tuple[int, int], int]:
    """The edge id of every ``(u, v)`` pair of a sweep state, in id order.

    Hand-set states may color pairs the graph lacks: each pair of ``extra``
    that is no edge gets the next id past the graph's, and the coloring's
    class array grows by one uncolored entry for it.
    """
    ids = {key: e for e, key in enumerate(state.edge_keys())}
    for pair in extra:
        if pair not in ids:
            ids[pair] = len(state.fc.edge_class)
            state.fc.edge_class.append(NIL)
    return ids


def class_adjacency(colors: dict[tuple[int, int], int]) -> dict[int, dict[int, list[int]]]:
    """Per-class adjacency rebuilt from scratch out of an edge->class map."""
    out: dict[int, dict[int, list[int]]] = {}
    for (u, v), c in colors.items():
        adj = out.setdefault(c, {})
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return out


def connected_in_class(colors, j: int, a: int, b: int) -> bool:
    adj = class_adjacency(colors).get(j, {})
    if a not in adj:
        return a == b
    seen = {a}
    stack = [a]
    while stack:
        v = stack.pop()
        if v == b:
            return True
        for u in adj.get(v, ()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return b in seen


def verify_ordering(g: Graph, ordering: DegeneracyOrdering, k: int) -> bool:
    """Check that every vertex has at most ``k`` neighbors earlier in the ordering."""
    pos = ordering.position
    if sorted(ordering.order) != list(range(g.n)) or len(pos) != g.n:
        return False
    left = [0] * g.n
    for u, v in g.edges():
        later = u if pos[u] > pos[v] else v
        left[later] += 1
        if left[later] > k:
            return False
    return True


def right_rows(g: Graph, ordering: DegeneracyOrdering) -> tuple[list[int], list[int]]:
    """Reference right-row table over every position of ``ordering``: each
    edge listed at its earlier endpoint's position, rows ascending by id,
    flattened so the row at position i is targets[offsets[i]:offsets[i + 1]]."""
    pos = ordering.position
    rows: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges():
        first, last = (u, v) if pos[u] < pos[v] else (v, u)
        rows[pos[first]].append(last)
    targets: list[int] = []
    offsets = [0]
    for row in rows:
        targets += sorted(row)
        offsets.append(len(targets))
    return targets, offsets


def threshold_sdr(
    g: Graph, ordering: DegeneracyOrdering, d: int, pad=None
) -> tuple[bytearray, int]:
    """``compute_sdr`` at a generic degree threshold ``d``: every vertex of
    degree at least ``d``, its phantoms ``pad[v]`` counted, reserves
    ``r = (d - k) // k`` right-neighbors, owners in id order, over the
    right rows of every position.  Returns the flags and ``r``."""
    k = ordering.k
    pad = pad if pad is not None else [0] * g.n
    owners = [v for v in range(g.n) if g.degree(v) + pad[v] >= d]
    r = (d - k) // k
    targets, offsets = right_rows(g, ordering)
    # Looked up on the module, so that a test can wrap it there.
    return linarb.sdr.compute_sdr(owners, r, targets, offsets, ordering.position, pad), r


def owner_reservation(
    flags: bytearray, r: int, ordering: DegeneracyOrdering, rows, v: int
) -> tuple[list[int], int]:
    """Owner ``v``'s real representatives, ascending, and its reserved leaf
    count, read from the reservation flags over ``v``'s row of the right-row
    table ``rows`` (a ``(targets, offsets)`` pair, as :func:`right_rows`
    builds), when each owner reserves ``r``."""
    targets, offsets = rows
    i = ordering.position[v]
    reps = [targets[e] for e in range(offsets[i], offsets[i + 1]) if flags[e]]
    return reps, r - len(reps)


def flagged_owners(flags: bytearray, ordering: DegeneracyOrdering, rows) -> set[int]:
    """The vertices whose row of ``rows`` holds a reserved flag; the flags
    must span exactly the table."""
    targets, offsets = rows
    assert len(flags) == len(targets)
    order = ordering.order
    return {
        order[i]
        for i in range(len(offsets) - 1)
        if any(flags[offsets[i]:offsets[i + 1]])
    }


def hall_certificate_check(
    g: Graph,
    ordering: DegeneracyOrdering,
    d: int,
    sample_sets: list[list[int]] | None = None,
) -> bool:
    """Check Hall's condition |union of N_R(v) for v in S| >= r * |S|.

    With ``sample_sets`` given, only those subsets of the degree->=d vertices
    are checked.  Without it, every subset is checked exhaustively, which is
    only permitted when at most 20 vertices qualify.
    """
    k = ordering.k
    if not k <= d <= max_degree(g):
        raise PreconditionError(f"need k <= d <= max degree, got k={k}, d={d}")
    r = (d - k) // k
    pos = ordering.position
    owners = [v for v in range(g.n) if g.degree(v) >= d]
    nr = {v: {u for u in g.neighbors(v) if pos[u] > pos[v]} for v in owners}

    def ok(subset) -> bool:
        union: set[int] = set()
        for v in subset:
            if v not in nr:
                raise PreconditionError(f"vertex {v} has degree below {d}")
            union |= nr[v]
        return len(union) >= r * len(subset)

    if sample_sets is not None:
        return all(ok(s) for s in sample_sets)
    if len(owners) > 20:
        raise PreconditionError(
            f"exhaustive check limited to 20 qualifying vertices, found {len(owners)}"
        )
    for size in range(1, len(owners) + 1):
        for subset in combinations(owners, size):
            if not ok(subset):
                return False
    return True


def _reference_class_cycle(vertices: list[int], adj: dict[int, list[int]]) -> list[int] | None:
    """Return one cycle from the subgraph ``adj`` (max degree <= 2), or None.

    With degrees capped at 2 every component is a path or a cycle, so a
    component is a cycle exactly when a traversal from any vertex revisits
    its start.  Iterative, to keep long paths off the call stack.
    """
    seen: set[int] = set()
    for s in vertices:
        if s in seen or not adj.get(s):
            continue
        # Walk to one end of the component (or back around to s).
        prev, cur = -1, s
        while True:
            seen.add(cur)
            nxt = -1
            for y in adj[cur]:
                if y != prev:
                    nxt = y
                    break
            if nxt == -1:
                break  # reached a path end; component is a path
            if nxt == s:
                # closed a loop; reconstruct it by walking once more
                cycle = [s]
                prev, cur = -1, s
                while True:
                    for y in adj[cur]:
                        if y != prev:
                            prev, cur = cur, y
                            break
                    if cur == s:
                        return cycle
                    cycle.append(cur)
                    seen.add(cur)
            prev, cur = cur, nxt
    return None


def reference_verify_partition(
    g: Graph,
    coloring: dict[tuple[int, int], int],
    class_count: int,
) -> VerificationReport:
    """The dict-based verifier ``linarb.verify_partition`` replaced, kept as
    the oracle its successor (one walk per class over a dict of path ends)
    is checked against.  Its changes since: keys that are not pairs, or
    cannot be ordered against each other, are reported instead of raising;
    the domain is exact: a key must be a ``tuple`` of two ``int`` objects
    and a class an ``int``, tested by exact type, so a ``bool``, ``IntEnum``
    or namedtuple is rejected, and only such a key colors the edge it names.

    Check ``coloring`` as a partition of E(g) into ``class_count`` linear forests.

    ``coloring`` maps canonical edges ``(u, v)`` with ``u < v`` to 1-based
    class indices.  Edges of ``g`` missing from the map, map entries that are
    not edges of ``g`` (including malformed or out-of-range ones), degree
    overflows, and monochromatic cycles are each reported; the report lists
    every violation found, not just the first.
    """
    violations: list[Violation] = []
    per_class_adj: list[dict[int, list[int]]] = [dict() for _ in range(class_count)]
    degree_in_class: dict[tuple[int, int], int] = {}
    colored: set[tuple[int, int]] = set()

    try:
        entries = sorted(coloring.items())
    except TypeError:
        # Keys that cannot be ordered against each other: order by repr.
        entries = sorted(coloring.items(), key=repr)
    for e, c in entries:
        ok_edge = (
            type(e) is tuple
            and len(e) == 2
            and type(e[0]) is int
            and type(e[1]) is int
            and 0 <= e[0] < e[1] < g.n
            and e[1] in g.neighbors(e[0])
        )
        if not ok_edge:
            violations.append(
                Violation(UNKNOWN_EDGE, f"colored edge {e} is not an edge of the graph", edge=e)
            )
            continue
        u, v = e
        colored.add((u, v))
        if type(c) is not int or not 1 <= c <= class_count:
            violations.append(
                Violation(
                    UNKNOWN_EDGE,
                    f"edge {e} assigned class {c!r} outside 1..{class_count}",
                    edge=e,
                )
            )
            continue
        adj = per_class_adj[c - 1]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
        degree_in_class[(u, c)] = degree_in_class.get((u, c), 0) + 1
        degree_in_class[(v, c)] = degree_in_class.get((v, c), 0) + 1

    for u, v in g.edges():
        if (u, v) not in colored:
            violations.append(
                Violation(UNCOLORED_EDGE, f"edge ({u}, {v}) received no class", edge=(u, v))
            )

    for (x, c), d in sorted(degree_in_class.items()):
        if d > 2:
            violations.append(
                Violation(
                    DEGREE_OVERFLOW,
                    f"vertex {x} has {d} edges in class {c}",
                    vertex=x,
                    class_index=c,
                )
            )

    overflow_classes = {c for (_, c), d in degree_in_class.items() if d > 2}
    for ci, adj in enumerate(per_class_adj, start=1):
        if ci in overflow_classes:
            continue  # cycle walk assumes degrees <= 2; overflow already reported
        cyc = _reference_class_cycle(sorted(adj), adj)
        if cyc is not None:
            violations.append(
                Violation(
                    MONOCHROMATIC_CYCLE,
                    f"class {ci} contains a cycle through {len(cyc)} vertices "
                    f"(starts at {cyc[0]})",
                    vertex=cyc[0],
                    class_index=ci,
                )
            )

    valid = not violations
    lower = (max_degree(g) + 1) // 2
    optimal = valid and class_count == lower
    return VerificationReport(valid, optimal, class_count, lower, violations)


def reference_partition_output(
    head: dict, coloring: dict[tuple[int, int], int], fmt: str, stats: dict | None = None
) -> str:
    """What ``linarb decompose`` prints for ``coloring``, rendered the way the
    CLI did before its emit walked the graph's rows: ``coloring.items()``
    sorted by key, with ``stats`` as under ``--stats``."""
    classes = sorted(coloring.items())
    if fmt == "json":
        payload = dict(head)
        if stats is not None:
            payload["stats"] = stats
        payload["classes"] = [[u, v, c] for (u, v), c in classes]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [f"# {' '.join(f'{k}={v}' for k, v in head.items())}"]
    lines.extend(f"{u} {v} {c}" for (u, v), c in classes)
    if stats is not None:
        lines.append(f"# stats {' '.join(f'{k}={v}' for k, v in sorted(stats.items()))}")
    return "\n".join(lines) + "\n"


def reference_decompose_by_component(
    g: Graph, mode: Mode | str = Mode.MINIMUM
) -> tuple[dict[tuple[int, int], int], int, int, int]:
    """The per-component ``decompose`` that the whole-graph sweep replaced,
    kept as the oracle the sweep is checked against.

    Each component with edges is copied with its vertices relabelled in
    ascending order, gets a degeneracy ordering of its own, and is swept
    (paired as a forest below degeneracy 2) against the global ``delta``
    and ``t``.  Returns ``(coloring, t, k, delta)``, classes 1-based.
    """
    mode = Mode(mode)
    delta = max_degree(g)
    if g.edge_count == 0:
        return {}, 0, 0, 0
    k = degeneracy_ordering(g).k
    if k >= 2 and delta < required_max_degree(k, mode):
        raise PreconditionError(f"{mode.value} mode needs a larger maximum degree")
    t = class_count_for(delta, k, mode)
    coloring: dict[tuple[int, int], int] = {}
    for members in naive_components(g):
        if len(members) == 1:
            continue
        comp = sorted(members)
        local = {v: i for i, v in enumerate(comp)}
        sub = Graph(len(comp))
        for v in comp:
            for u in g.neighbors(v):
                if u > v:
                    sub.add_edge(local[v], local[u])
        base = degeneracy_ordering(sub)
        if base.k <= 1:
            part = _color_forest(sub, t)
        else:
            part = {e: c + 1 for e, c in SolverState(sub, base, delta, t, mode).run().items()}
        for (a, b), c in part.items():
            coloring[edge_key(comp[a], comp[b])] = c
    return coloring, t, k, delta


def reference_augment_starts(
    owners: Sequence[int],
    r: int,
    targets: list[int],
    offsets,
    position: Sequence[int],
    pad: Sequence[int],
) -> tuple[list[int], bytearray]:
    """``compute_sdr`` as it ran before its greedy pass listed the owners it
    left short: after that pass every owner's deficit was recounted from its
    flags and its phantoms, and each owner with one was augmented in the
    greedy order.  Returns the start owner of every ``_augment`` call, in
    call order, and the reservation flags."""
    reserved = bytearray(len(targets))
    starts: list[int] = []
    if r == 0:
        return starts, reserved
    taken_by = array("i", [-1]) * len(position)
    phantoms = array("i", pad)
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
        phantoms[v] -= min(need, phantoms[v])
    for v in owners:
        i = position[v]
        held = reserved.count(1, offsets[i], offsets[i + 1]) + pad[v] - phantoms[v]
        for _ in range(r - held):
            starts.append(v)
            _augment(v, targets, offsets, position, taken_by, phantoms, reserved)
    return starts, reserved


# -------------------------------------------- repair-forcing constructions
#
# Random inputs exercise only the first repair move (recoloring toward a
# class empty at the endpoint), because natural peel orders process the
# densest vertex first, before any of its neighbors carry colored edges.
# The two graphs below pin the sweep order instead, so that by the time the
# last owner colors its reserved edges, those endpoints are already joined
# by an earlier monochromatic path and the insertion closes a cycle whose
# escape requires the other two moves.


def reference_owner_slots(
    row, ptr: int, count: int, nrep: int, r: int
) -> tuple[list[int], list[int], list[int]]:
    """An owner's slot arithmetic as one loop over its classes, the way the
    sweep once ran it.  ``row`` holds the owner's class degrees over all
    classes, ``ptr`` is the first class the stage reads, ``count`` the spare
    leaves, ``nrep`` the reserved edges and ``r`` the reservation size.

    The spare leaves fill the open slots from ``ptr`` on in ascending class
    order; the slots still open are each free class twice, then each half
    class, in ascending order; the reserved edges take the first ``nrep``
    of them and the reserved leaves ``slots[nrep:r]``.  Returns ``(slots,
    leaves, res)``: the slot list (its length is the class budget), all
    leaves per class, and the reserved leaves per class.  Raises
    ``ValueError`` when the spare leaves do not fit.
    """
    t = len(row)
    leaves = [0] * t
    slots: list[int] = []
    half: list[int] = []
    for j in range(ptr, t):
        room = 2 - row[j]
        if count:
            take = min(room, count)
            leaves[j] = take
            count -= take
            room -= take
        if room == 2:
            slots += (j, j)
        elif room == 1:
            half.append(j)
    if count:
        raise ValueError("no open class")
    slots += half
    res = [0] * t
    for c in slots[nrep:r]:
        res[c] += 1
        leaves[c] += 1
    return slots, leaves, res


def ordering_for(g: Graph, order: list[int], k: int) -> DegeneracyOrdering:
    assert sorted(order) == list(range(g.n))
    position = [0] * g.n
    for i, u in enumerate(order):
        position[u] = i
    for u in order:
        lefts = [x for x in g.neighbors(u) if position[x] < position[u]]
        assert len(lefts) <= k, (u, lefts)
    return DegeneracyOrdering(order=order, position=position, k=k)


def endpoint_recolor_fixture() -> tuple[Graph, DegeneracyOrdering, int, int]:
    """Degeneracy-2 graph + ordering forcing the endpoint-recolor repair.

    At maximum degree 7 the class budget at an owner is r + 1 = 3, so the
    last owner v (26) ends phase A with one class merely half-used.  Both its
    reserved edges enter its one empty class (1), on top of the path
    w (12) - z (25) - w' (13) built earlier in that class, closing a cycle.
    Class 3 is half-used at v and untouched at w, so the escape simply
    recolors the reserved edge vw there.  Returns (graph, ordering, delta, t).
    """
    g = Graph(27)
    for owner, nbrs in (
        (23, (0, 1, 2, 3, 16, 17, 19)),   # colors 16, 17 at class 1
        (24, (4, 5, 6, 7, 18, 20, 21)),   # colors 18 at class 1
        (25, (8, 9, 10, 11, 12, 13, 22)),  # builds the class-1 path 12-25-13
        (26, (12, 13, 14, 15, 16, 17, 18)),  # v: lights at (2,0,2,1), reps at 1
    ):
        for u in nbrs:
            g.add_edge(owner, u)
    order = [23, 24, 25, 26, 12, 13, 16, 17, 18]
    order += [x for x in range(23) if x not in (12, 13, 16, 17, 18)]
    return g, ordering_for(g, order, 2), 7, 4


def unreserved_trade_fixture() -> tuple[Graph, DegeneracyOrdering, int, int]:
    """Degeneracy-2 graph + ordering forcing the spare-edge trade repair.

    The last-swept owner v (id 32) ends phase A with both its reserved
    vertices w (4) and w' (5) reachable through an existing path of v's only
    empty class, built by earlier owners: w-z1-s-z2-w'.  Both reserved edges
    land in that class, the second closes a cycle, and neither of the first
    two repair moves applies (w touches only the cycle class; every other
    class is full at v).  Returns (graph, ordering, delta, t).
    """
    g = Graph(40)
    edges = set()

    def ae(a, b):
        edges.add((min(a, b), max(a, b)))

    for u in (4, 5, 17, 18, 19, 20):
        ae(32, u)  # v: reps w,w'; light targets 17..20
    for u in (2, 3, 5, 14, 15, 16):
        ae(33, u)  # z2: reps s,s2; colors w' at 0 and targets at 1,1,2
    for u in (0, 1, 2, 4, 30, 31):
        ae(34, u)  # z1: colors s and w at 0, the triangle mates at 1
    ae(30, 31)
    for u in (6, 7, 14, 15, 22, 23):
        ae(35, u)  # donors: first two light edges take class 0
    for u in (8, 9, 16, 17, 24, 25):
        ae(36, u)
    for u in (10, 11, 18, 19, 26, 27):
        ae(37, u)
    for u in (12, 13, 20, 21, 28, 29):
        ae(38, u)
    ae(21, 39)
    for a, b in sorted(edges):
        g.add_edge(a, b)

    order = [38, 37, 36, 35, 34, 33, 32,
             2, 4, 5, 14, 15, 16, 17, 18, 19, 20, 21, 30, 31,
             0, 1, 3, 6, 7, 8, 9, 10, 11, 12, 13,
             22, 23, 24, 25, 26, 27, 28, 29, 39]
    return g, ordering_for(g, order, 2), 6, 3


def pendant_partner_fixture() -> tuple[Graph, DegeneracyOrdering, int, int]:
    """Degeneracy-2 graph + ordering whose repair swaps with a padding pendant.

    At maximum degree 6 every vertex of degree 2..5 is padded.  Owner 4
    (degree 3) reserves its one right-neighbor 6 and one pendant, whose
    ids would follow every real vertex.  The edge 4-6 closes a cycle in
    class 1, and class 2, where 6 is untouched and 4 is not internal net of
    its reserved edges, is held at 4 only by the reserved pendant, so the
    endpoint-free move swaps 4-6 with that pendant.  Returns (graph,
    ordering, delta, t).
    """
    g = gfrom(7, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 3),
                  (2, 3), (2, 4), (2, 5), (2, 6), (4, 6)])
    return g, ordering_for(g, [2, 0, 1, 3, 4, 5, 6], 2), 6, 3


def path_partner_swap_fixture() -> tuple[Graph, DegeneracyOrdering, int, int]:
    """Degeneracy-3 graph + ordering forcing the free-class path swap.

    The last owner v (212) has two empty classes, 4 and 5.  Its reserved
    pair w (28), w' (29) lands in class 5 on top of an earlier w-zA-w' path,
    closing a cycle; w also carries a class-4 edge, so no class is empty at
    w without being full at v.  The escape swaps the cycle edge with the
    class-4 reserved edge found by walking w's class-4 path back to v
    through zB and u3 (26).  Returns (graph, ordering, delta, t).
    """
    g = Graph(227)
    edges = set()

    def ae(a, b):
        edges.add((min(a, b), max(a, b)))

    v, z_a, z_b = 212, 213, 214
    u3, w, wp = 26, 28, 29
    xs = list(range(188, 200))

    for t_ in (u3, 27, w, wp):
        ae(v, t_)
    for t_ in xs:
        ae(v, t_)
    for t_ in range(0, 4):
        ae(z_a, t_)
    for t_ in range(8, 18):
        ae(z_a, t_)
    ae(z_a, w)
    ae(z_a, wp)
    for t_ in range(4, 8):
        ae(z_b, t_)
    for t_ in range(18, 26):
        ae(z_b, t_)
    ae(z_b, u3)
    ae(z_b, w)
    ae(z_b, 30)
    ae(z_b, 31)
    for i in range(6):
        d = 215 + i
        for t_ in range(32 + 12 * i, 44 + 12 * i):
            ae(d, t_)
        ae(d, xs[2 * i])
        ae(d, xs[2 * i + 1])
        ae(d, 200 + 2 * i)
        ae(d, 201 + 2 * i)
    for i in range(6):
        d = 221 + i
        for t_ in range(104 + 14 * i, 118 + 14 * i):
            ae(d, t_)
        ae(d, xs[2 * i])
        ae(d, xs[2 * i + 1])
    for a, b in sorted(edges):
        g.add_edge(a, b)

    owners = list(range(215, 227)) + [z_a, z_b, v]
    rest = sorted(u for u in range(227) if u not in owners)
    return g, ordering_for(g, owners + rest, 3), 16, 8
