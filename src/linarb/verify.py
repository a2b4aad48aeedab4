"""Independent validation of a linear-forest edge partition.

Deliberately shares no state with the solver: each class is checked from
scratch in one walk over its own path-end table, which catches a third edge
at a vertex as well as a closed cycle, so a solver bug cannot hide behind
its own bookkeeping.  Degrees are counted only to itemize the overflows of
a class in which the walk found a third edge.

The check runs in O(n + m) time and memory, whatever the class count: it
touches only the classes the partition uses, and sorts only the entries it
reports.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain
from typing import NamedTuple

from .graph import Graph, max_degree

UNCOLORED_EDGE = "UNCOLORED_EDGE"
DEGREE_OVERFLOW = "DEGREE_OVERFLOW"
MONOCHROMATIC_CYCLE = "MONOCHROMATIC_CYCLE"
UNKNOWN_EDGE = "UNKNOWN_EDGE"

# What ``_cycle`` returns for a class in which some vertex has a third edge.
_THIRD_EDGE = object()


class Violation(NamedTuple):
    kind: str
    detail: str
    edge: tuple[int, int] | None = None
    vertex: int | None = None
    class_index: int | None = None

    def as_dict(self) -> dict:
        d: dict = {"kind": self.kind, "detail": self.detail}
        if self.edge is not None:
            # A rejected key can be anything the caller passed.
            e = self.edge
            d["edge"] = list(e) if isinstance(e, tuple) and len(e) == 2 else repr(e)
        if self.vertex is not None:
            d["vertex"] = self.vertex
        if self.class_index is not None:
            d["class"] = self.class_index
        return d


class VerificationReport(NamedTuple):
    """Outcome of checking one candidate partition.

    ``valid`` means every edge is colored with a class in ``1..class_count``,
    no vertex has more than two edges of one class, and no class contains a
    cycle.  ``optimal`` additionally requires ``class_count`` to meet the
    universal lower bound ``ceil(max_degree / 2)``.
    """

    valid: bool
    optimal: bool
    class_count: int
    lower_bound: int
    violations: list[Violation]

    def as_dict(self) -> dict:
        return {
            "valid": self.valid,
            "optimal": self.optimal,
            "class_count": self.class_count,
            "lower_bound": self.lower_bound,
            "violations": [v.as_dict() for v in self.violations],
        }


def _exact(e) -> bool:
    """Whether the key ``e`` is a tuple of exact ints (``bool`` is not one)."""
    return type(e) is tuple and set(map(type, e)) <= {int}


def _group(coloring: dict, edges: set[tuple[int, int]], class_count: int):
    """Split ``coloring`` into accepted edges by class and rejected entries.

    An entry is accepted when its key is a tuple of exact ints that is an
    edge of the graph and its class is an exact int in ``1..class_count``.
    Returns ``(groups, rejected, colored)``: ``groups`` maps each class
    used to its accepted edges, ``rejected`` holds every other ``(key,
    class)`` entry, and ``colored`` the exact keys, which color the edges
    they name whatever their class.
    """
    rejected = []
    colored = coloring.keys()
    if not (
        set(map(type, colored)) <= {tuple}
        and set(map(type, chain.from_iterable(colored))) <= {int}
        and set(map(type, coloring.values())) <= {int}
    ):
        # Some entry lies outside the domain: set those entries aside.
        colored, kept = [], {}
        for e, c in coloring.items():
            if _exact(e):
                colored.append(e)
                if type(c) is int:
                    kept[e] = c
                    continue
            rejected.append((e, c))
        coloring = kept
    groups: defaultdict[int, list] = defaultdict(list)
    foreign = coloring.keys() - edges
    for e, c in coloring.items():
        groups[c].append(e)
    rejected += [(e, coloring[e]) for e in foreign]
    for c in list(groups):
        if not 1 <= c <= class_count:
            rejected += [(e, c) for e in groups.pop(c) if e not in foreign]
        elif foreign:
            groups[c] = [e for e in groups[c] if e not in foreign]
    return groups, rejected, colored


def _sorted_entries(entries: list) -> list:
    """``entries`` sorted, or sorted by ``repr`` when some of them cannot be
    ordered against each other (a key ``('a', 'b')`` beside ``(0, 2)``)."""
    try:
        return sorted(entries)
    except TypeError:
        return sorted(entries, key=repr)


def _cycle(pairs: list[tuple[int, int]]):
    """Smallest vertex on a cycle of the edge set ``pairs``, and that
    cycle's length; None for a linear forest, and ``_THIRD_EDGE`` as soon as
    some vertex has a third edge in ``pairs``.

    One walk over the edges: each path end keeps the other end of its path
    (an isolated vertex is its own end, and is absent), and a vertex with
    two edges keeps -1, so an edge at a -1 vertex is a third edge there.
    An edge closes a cycle exactly when it joins the two ends of one path.
    Only when no vertex overflows are the closed cycles walked.
    """
    end: dict[int, int] = {}
    get = end.get
    closing = []
    for u, v in pairs:
        a = get(u, u)
        if a == v:
            closing.append(u)
            end[u] = end[v] = -1
            continue
        b = get(v, v)
        if a < 0 or b < 0:
            return _THIRD_EDGE
        # u and v turn interior, unless isolated: then they are a or b.
        end[u] = end[v] = -1
        end[a] = b
        end[b] = a
    if not closing:
        return None
    nbrs: defaultdict[int, list[int]] = defaultdict(list)
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    best = None
    for s in closing:
        length, low = 1, s
        prev, cur = s, nbrs[s][0]
        while cur != s:
            length += 1
            low = min(low, cur)
            x, y = nbrs[cur]
            prev, cur = cur, (y if x == prev else x)
        if best is None or low < best[0]:
            best = (low, length)
    return best


def verify_partition(
    g: Graph,
    coloring: dict[tuple[int, int], int],
    class_count: int,
) -> VerificationReport:
    """Check ``coloring`` as a partition of E(g) into ``class_count`` linear forests.

    ``coloring`` maps canonical edges ``(u, v)`` with ``u < v`` to 1-based
    class indices.  The domain is exact: a key is a ``tuple`` of ``int``
    objects and a class an ``int`` (a ``bool``, ``IntEnum``, ``float`` or
    namedtuple is none of these).  Edges of ``g`` that no such key names,
    every other entry (a key that is not an edge of ``g``, or a class that
    is not in range), degree overflows, and monochromatic cycles are each
    reported; the report lists every violation found, not just the first.
    Violations come in this order: unknown entries by key (by ``repr`` when
    their keys cannot be compared), uncolored edges, overflows by (vertex,
    class), then per class without an overflow the cycle through its
    smallest vertex that lies on one.
    """
    edges = g._edges
    groups, rejected, colored = _group(coloring, edges, class_count)

    violations: list[Violation] = []
    for e, c in _sorted_entries(rejected):
        if _exact(e) and e in edges:
            detail = f"edge {e} assigned class {c!r} outside 1..{class_count}"
        else:
            detail = f"colored edge {e} is not an edge of the graph"
        violations.append(Violation(UNKNOWN_EDGE, detail, edge=e))

    if sum(map(len, groups.values())) < len(edges):
        for u, v in sorted(edges.difference(colored)):
            violations.append(
                Violation(UNCOLORED_EDGE, f"edge ({u}, {v}) received no class", edge=(u, v))
            )

    overflows: list[tuple[int, int, int]] = []
    cycles: list[tuple[int, int, int]] = []
    for c in sorted(groups):
        pairs = groups[c]
        found = _cycle(pairs)
        if found is _THIRD_EDGE:
            # Degrees are counted only to itemize the overflows.
            degree = Counter(chain.from_iterable(pairs))
            overflows += [(x, c, d) for x, d in degree.items() if d > 2]
        elif found is not None:
            cycles.append((c, *found))

    overflows.sort()
    for x, c, d in overflows:
        violations.append(
            Violation(
                DEGREE_OVERFLOW,
                f"vertex {x} has {d} edges in class {c}",
                vertex=x,
                class_index=c,
            )
        )
    for c, s, length in cycles:
        violations.append(
            Violation(
                MONOCHROMATIC_CYCLE,
                f"class {c} contains a cycle through {length} vertices (starts at {s})",
                vertex=s,
                class_index=c,
            )
        )

    valid = not violations
    lower = (max_degree(g) + 1) // 2
    optimal = valid and class_count == lower
    return VerificationReport(valid, optimal, class_count, lower, violations)
