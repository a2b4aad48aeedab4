import random

import pytest

from linarb import InternalContradictionError
from linarb.coloring import NIL, ForestColoring
from linarb.solver import _color_forest
from conftest import (
    Pairs,
    class_adjacency,
    coloring_problems,
    connected_in_class,
    edge_classes,
    edge_key,
    gfrom,
    mates,
    reference_cycle_containing,
    write_cell,
)


def test_edge_key_normalizes():
    """The forest pairing keys each edge as ``(u, v)`` with ``u < v``,
    whichever way round the graph lists it."""
    g = gfrom(6, [(3, 1), (1, 0), (5, 1), (2, 4), (4, 3)])
    assert sorted(_color_forest(g, 2)) == [(0, 1), (1, 3), (1, 5), (2, 4), (3, 4)]


def test_assign_updates_all_views():
    p = Pairs(5)
    fc = p.coloring(3)
    assert list(fc.edge_class) == [NIL] * 10
    fc.assign(p(0, 2), 2, 0, 1)
    assert fc.edge_class[p(0, 2)] == 1
    assert fc.edge_class.count(NIL) == 9
    assert fc.row(0)[1] == 1
    assert fc.row(2)[1] == 1
    assert fc.row(0)[0] == 0
    assert [fc.row(0)[j] for j in range(3)] == [0, 1, 0]
    assert coloring_problems(fc, p.ends) == []


def test_classes_above_a_byte():
    # One edge id per class entry, whatever the class count.
    fc = ForestColoring(2, 301, 1)
    fc.assign(0, 0, 1, 300)
    assert fc.edge_class[0] == 300
    assert coloring_problems(fc, [(0, 1)]) == []


@pytest.mark.parametrize("n, t, m", [(0, 3, 0), (4, 0, 2), (0, 0, 0)])
def test_empty_tables(n, t, m):
    # No vertex or no class: every table is empty, and any placement is
    # out of range.
    fc = ForestColoring(n, t, m)
    assert list(fc.edge_class) == [NIL] * m
    assert coloring_problems(fc, [(0, 1)] * m) == []
    assert all(fc.row(v) == bytearray() for v in range(n))
    if m:
        with pytest.raises(InternalContradictionError, match="out of range"):
            fc.assign(0, 0, 1, 0)


def test_negative_sizes_rejected():
    with pytest.raises(InternalContradictionError, match="need n, t, m >= 0"):
        ForestColoring(2, -1, 0)


def test_assign_rejections():
    p = Pairs(6)
    fc = p.coloring(2)
    with pytest.raises(InternalContradictionError):
        fc.assign(0, 1, 1, 0)
    with pytest.raises(InternalContradictionError):
        fc.assign(p(0, 1), 0, 1, 2)
    fc.assign(p(0, 1), 0, 1, 0)
    with pytest.raises(InternalContradictionError, match="already colored"):
        fc.assign(p(0, 1), 1, 0, 1)
    fc.assign(p(1, 2), 1, 2, 0)
    with pytest.raises(InternalContradictionError):
        fc.assign(p(1, 3), 1, 3, 0)
    assert fc.edge_class[p(1, 3)] == NIL


def test_assign_reports_the_cycle_it_closes():
    p = Pairs(4)
    fc = p.coloring(2)
    assert fc.assign(p(0, 1), 0, 1, 0) is False
    assert fc.assign(p(1, 2), 1, 2, 0) is False
    assert fc.assign(p(0, 2), 0, 2, 0) is True
    assert fc.assign(p(2, 3), 2, 3, 1) is False
    assert list(fc.walk(0, 0, 2)) == [1, 2]


def test_class_degrees_sum_to_colored_degree():
    p = Pairs(8)
    fc = p.coloring(4)
    fc.assign(p(0, 1), 0, 1, 0)
    fc.assign(p(0, 2), 0, 2, 0)
    fc.assign(p(0, 3), 0, 3, 2)
    row = [fc.row(0)[j] for j in range(4)]
    assert row == [2, 0, 1, 0]
    assert coloring_problems(fc, p.ends) == []


def test_row_is_a_copy():
    """Writing into a row changes nothing in the coloring: the sweep keeps
    its owner's row in step with its placements by hand."""
    p = Pairs(5)
    fc = p.coloring(3)
    fc.assign(p(0, 1), 0, 1, 0)
    fc.assign(p(0, 2), 0, 2, 2)
    row = fc.row(0)
    assert row == bytearray([1, 0, 1])
    row[0] += 1
    row[1] = 2
    assert coloring_problems(fc, p.ends) == []
    assert fc.row(0) == bytearray([1, 0, 1])
    assert fc.row(4) == bytearray(3)


def test_recolor_moves_and_errors():
    p = Pairs(4)
    fc = p.coloring(3)
    fc.assign(p(0, 1), 0, 1, 0)
    fc.recolor(p(0, 1), 1, 0, 2)
    assert fc.edge_class[p(0, 1)] == 2
    assert fc.row(0)[0] == 0
    assert fc.row(0)[2] == 1
    fc.recolor(p(0, 1), 0, 1, 2)  # no-op
    assert coloring_problems(fc, p.ends) == []
    with pytest.raises(InternalContradictionError, match="not colored"):
        fc.recolor(p(2, 3), 2, 3, 0)
    fc.assign(p(0, 2), 0, 2, 1)
    fc.assign(p(0, 3), 0, 3, 1)
    with pytest.raises(InternalContradictionError):
        fc.recolor(p(0, 1), 0, 1, 1)


def test_swap_exchanges_classes():
    p = Pairs(5)
    fc = p.coloring(3)
    fc.assign(p(0, 1), 0, 1, 0)
    fc.assign(p(2, 3), 2, 3, 1)
    fc.swap_colors(p(0, 1), 0, 1, p(2, 3), 2, 3)
    assert fc.edge_class[p(0, 1)] == 1
    assert fc.edge_class[p(2, 3)] == 0
    fc.swap_colors(p(0, 1), 0, 1, p(2, 3), 2, 3)
    assert fc.edge_class[p(0, 1)] == 0
    assert fc.edge_class[p(2, 3)] == 1
    assert coloring_problems(fc, p.ends) == []


def test_swap_with_shared_endpoint():
    p = Pairs(4)
    fc = p.coloring(2)
    fc.assign(p(0, 1), 0, 1, 0)
    fc.assign(p(1, 2), 1, 2, 1)
    fc.swap_colors(p(0, 1), 0, 1, p(1, 2), 1, 2)
    assert fc.edge_class[p(0, 1)] == 1
    assert fc.edge_class[p(1, 2)] == 0
    assert fc.row(1)[0] == 1
    assert fc.row(1)[1] == 1
    assert coloring_problems(fc, p.ends) == []


def test_swap_same_class_or_same_edge_is_noop():
    p = Pairs(4)
    fc = p.coloring(2)
    fc.assign(p(0, 1), 0, 1, 0)
    fc.assign(p(2, 3), 2, 3, 0)
    fc.swap_colors(p(0, 1), 0, 1, p(2, 3), 2, 3)
    assert fc.edge_class[p(0, 1)] == 0
    fc.swap_colors(p(0, 1), 0, 1, p(0, 1), 1, 0)
    assert fc.edge_class[p(0, 1)] == 0


def test_swap_rejects_uncolored_and_overflow():
    p = Pairs(6)
    fc = p.coloring(2)
    fc.assign(p(0, 1), 0, 1, 0)
    with pytest.raises(InternalContradictionError, match="must be colored"):
        fc.swap_colors(p(0, 1), 0, 1, p(2, 3), 2, 3)
    fc.assign(p(0, 2), 0, 2, 0)
    fc.assign(p(0, 3), 0, 3, 1)
    fc.assign(p(4, 5), 4, 5, 0)
    # Moving (4,5) into class 1 is fine, but (0,3) cannot join class 0.
    with pytest.raises(InternalContradictionError):
        fc.swap_colors(p(0, 3), 0, 3, p(4, 5), 4, 5)


def test_would_close_cycle_and_closure():
    """An edge would close a class cycle exactly when its ends are the two
    ends of one class path, which the coloring stores as mates."""
    p = Pairs(5)
    fc = p.coloring(2)
    fc.assign(p(0, 1), 0, 1, 0)
    fc.assign(p(1, 2), 1, 2, 0)
    fc.assign(p(2, 3), 2, 3, 0)
    assert mates(fc, 0) == {0: 3, 3: 0}
    assert mates(fc, 1) == {}
    # 1 and 2 are interior to the class-0 path: they take no more edges.
    assert fc.row(1)[0] == fc.row(2)[0] == 2
    for v in range(5):
        check_cycle_queries(fc, p, 0, v)
        check_cycle_queries(fc, p, 1, v)


def test_would_close_cycle_tracks_mutations():
    p = Pairs(6)
    fc = p.coloring(2)
    fc.assign(p(0, 1), 0, 1, 0)
    fc.assign(p(2, 3), 2, 3, 0)
    assert mates(fc, 0) == {0: 1, 1: 0, 2: 3, 3: 2}
    fc.assign(p(1, 2), 1, 2, 0)
    assert mates(fc, 0) == {0: 3, 3: 0}
    fc.recolor(p(1, 2), 1, 2, 1)
    assert mates(fc, 0) == {0: 1, 1: 0, 2: 3, 3: 2}
    assert mates(fc, 1) == {1: 2, 2: 1}
    for v in range(6):
        check_cycle_queries(fc, p, 0, v)
        check_cycle_queries(fc, p, 1, v)


def test_cycle_containing_walks_the_cycle():
    """The repair's cycle test, ``v in fc.walk(j, u, v)`` for a class-``j``
    edge uv, beside the reference it replaced: off a cycle the walk stops
    at the path's end on ``u``'s side, round one it ends at ``v``."""
    p = Pairs(6)
    fc = p.coloring(2)
    for a, b in ((0, 1), (1, 2), (2, 3)):
        fc.assign(p(a, b), a, b, 0)
    assert list(fc.walk(0, 0, 1)) == [] and list(fc.walk(0, 1, 0)) == [2, 3]
    assert reference_cycle_containing(fc, 0, p(0, 1), 0, 1) is None
    fc.assign(p(0, 3), 3, 0, 0)
    assert list(fc.walk(0, 0, 1)) == [3, 2, 1]
    assert list(fc.walk(0, 1, 0)) == [2, 3, 0]
    assert reference_cycle_containing(fc, 0, p(0, 1), 0, 1) == [0, 1, 2, 3]
    assert reference_cycle_containing(fc, 0, p(0, 1), 1, 0) == [1, 0, 3, 2]
    with pytest.raises(InternalContradictionError, match="is not colored 1"):
        reference_cycle_containing(fc, 1, p(0, 1), 0, 1)
    with pytest.raises(InternalContradictionError, match="is not colored 0"):
        reference_cycle_containing(fc, 0, p(0, 2), 0, 2)


def colored_path(vertices, cycle=False, n=6, t=2):
    """A coloring whose class 0 is the path through ``vertices`` in order,
    closed back to the first vertex when ``cycle`` is set."""
    p = Pairs(n)
    fc = p.coloring(t)
    steps = list(zip(vertices, vertices[1:]))
    if cycle:
        steps.append((vertices[-1], vertices[0]))
    for a, b in steps:
        fc.assign(p(a, b), a, b, 0)
    return fc, p


def test_walk_along_a_path():
    fc, _ = colored_path([0, 1, 2, 3])
    assert list(fc.walk(0, 0)) == [1, 2, 3]
    assert list(fc.walk(0, 3)) == [2, 1, 0]
    assert list(fc.walk(0, 0, 1)) == []
    # From an interior vertex, each way.
    assert list(fc.walk(0, 1, 0)) == [2, 3]
    assert list(fc.walk(0, 1, 2)) == [0]
    assert list(fc.walk(0, 2, 1)) == [3]
    assert list(fc.walk(0, 2, 3)) == [1, 0]
    # An untouched vertex, or a class the path is not in, yields nothing.
    assert list(fc.walk(0, 5)) == []
    assert list(fc.walk(1, 0)) == []


def test_walk_round_a_cycle_stops_before_its_start():
    fc, _ = colored_path([0, 1, 2, 3], cycle=True)
    assert list(fc.walk(0, 0, 3)) == [1, 2, 3]
    assert list(fc.walk(0, 0, 1)) == [3, 2, 1]
    assert list(fc.walk(0, 2, 1)) == [3, 0, 1]


@pytest.mark.parametrize(
    "vertices, cycle, cut, want",
    [
        ([0, 1], False, (0, 1), {}),  # both ends
        ([0, 1, 2, 3], False, (0, 1), {1: 3, 3: 1}),  # one end, then interior
        ([0, 1, 2, 3], False, (1, 0), {1: 3, 3: 1}),  # interior, then one end
        ([0, 1, 2, 3], False, (3, 2), {0: 2, 2: 0}),
        ([0, 1, 2, 3, 4], False, (1, 2), {0: 1, 1: 0, 2: 4, 4: 2}),  # both interior
        ([0, 1, 2, 3, 4], False, (2, 1), {0: 1, 1: 0, 2: 4, 4: 2}),
        ([0, 1, 2, 3], True, (1, 2), {1: 2, 2: 1}),  # on a cycle
        ([0, 1, 2, 3], True, (0, 3), {0: 3, 3: 0}),
    ],
)
def test_cut_pairs_the_new_ends(vertices, cycle, cut, want):
    fc, p = colored_path(vertices, cycle)
    u, v = cut
    fc.recolor(p(u, v), u, v, 1)
    assert mates(fc, 0) == want
    assert mates(fc, 1) == {u: v, v: u}
    assert coloring_problems(fc, p.ends) == []


def test_validate_detects_tampering():
    p = Pairs(4)
    fc = p.coloring(2)
    fc.assign(p(0, 1), 0, 1, 0)
    write_cell(fc, 0, 0, degree=fc.row(0)[0] + 1)
    assert any("mismatch" in q for q in coloring_problems(fc, p.ends))
    # The far end of the path 0-1-2 is 2, not 0's neighbor 1.
    p = Pairs(3)
    fc = p.coloring(1)
    fc.assign(p(0, 1), 0, 1, 0)
    fc.assign(p(1, 2), 1, 2, 0)
    assert coloring_problems(fc, p.ends) == []
    write_cell(fc, 0, 0, mate=1)
    assert any("mate mismatch at (0,0)" in q for q in coloring_problems(fc, p.ends))
    # A third class-0 edge at vertex 0, written past assign.
    p = Pairs(4)
    fc = p.coloring(1)
    fc.assign(p(0, 1), 0, 1, 0)
    fc.assign(p(0, 2), 0, 2, 0)
    assert coloring_problems(fc, p.ends) == []
    fc.edge_class[p(0, 3)] = 0
    problems = coloring_problems(fc, p.ends)
    assert "vertex 0 has 3 class-0 edges" in problems
    assert "total degree mismatch at 0" in problems


def test_validate_detects_a_class_entry_that_disagrees_with_the_slots():
    p = Pairs(4)
    fc = p.coloring(2)
    fc.assign(p(0, 1), 0, 1, 0)
    fc.assign(p(1, 2), 1, 2, 1)
    assert coloring_problems(fc, p.ends) == []
    fc.edge_class[p(0, 1)] = 1
    problems = coloring_problems(fc, p.ends)
    assert "slot mismatch at (0,1)" in problems
    assert "degree table mismatch at (0,0): 1 stored, 0 actual" in problems
    # A class entry out of range, and an edge list that misses an id.
    fc.edge_class[p(0, 1)] = 2
    assert "edge (0, 1) has class 2 out of range" in coloring_problems(fc, p.ends)
    assert "5 edge ends for 6 edge ids" in coloring_problems(fc, p.ends[:5])


def test_validate_keeps_its_own_cycle_check():
    # assign may close a cycle, which the slots hold consistently; the
    # union-find over the class array still reports it.
    p = Pairs(3)
    fc = p.coloring(1)
    fc.assign(p(0, 1), 0, 1, 0)
    fc.assign(p(1, 2), 1, 2, 0)
    fc.assign(p(0, 2), 0, 2, 0)
    assert "class 0 contains a cycle through edge (1, 2)" in coloring_problems(fc, p.ends)


def swap_keeps_forest(colors, e1, e2):
    """Whether exchanging the classes of e1 and e2 keeps the degree cap and
    adds no cycle, judged on a from-scratch rebuild of the other edges."""
    c1, c2 = colors[e1], colors[e2]
    rem = {e: c for e, c in colors.items() if e not in (e1, e2)}
    deg: dict[tuple[int, int], int] = {}
    for (a, b), j in rem.items():
        deg[a, j] = deg.get((a, j), 0) + 1
        deg[b, j] = deg.get((b, j), 0) + 1
    for (a, b), j in ((e1, c2), (e2, c1)):
        if deg.get((a, j), 0) >= 2 or deg.get((b, j), 0) >= 2:
            return False
        if connected_in_class(rem, j, a, b):
            return False
    return True


def can_join(fc, p, j, u, v):
    """Whether uv may enter class j without a cycle, judged from scratch."""
    return (
        fc.row(u)[j] < 2
        and fc.row(v)[j] < 2
        and not connected_in_class(edge_classes(fc, p.ends), j, u, v)
    )


def close_and_break_cycle(fc, p, rnd):
    """Join the two ends of a class path with assign, then break the cycle
    by recoloring or swapping one of its edges, as the solver's repair does.
    Returns whether a cycle was closed."""
    j = rnd.randrange(fc.t)
    adj = class_adjacency(edge_classes(fc, p.ends)).get(j, {})
    ends = sorted(x for x, nbrs in adj.items() if len(nbrs) == 1)
    if not ends:
        return False
    u = rnd.choice(ends)
    prev, v = u, adj[u][0]
    while len(adj[v]) == 2:
        a, b = adj[v]
        prev, v = v, (b if a == prev else a)
    # Skip single-edge paths and ends already adjacent in another class, and
    # keep at least one way out: uv itself must fit some other class.
    if fc.edge_class[p(u, v)] != NIL or 2 in (fc.row(u)[j], fc.row(v)[j]):
        return False
    if not any(can_join(fc, p, k, u, v) for k in range(fc.t) if k != j):
        return False
    assert mates(fc, j)[u] == v
    check_cycle_queries(fc, p, j, u)
    assert fc.assign(p(u, v), u, v, j) is True
    assert check_cycle_tests(fc, p) >= 6
    cycle = reference_cycle_containing(fc, j, p(u, v), u, v)
    assert cycle is not None
    check_cycle_queries(fc, p, j, v)
    edges = [edge_key(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    e1 = rnd.choice(edges)
    colors = edge_classes(fc, p.ends)
    others = sorted(e for e, c in colors.items() if c != j)
    e2 = rnd.choice(others) if others else None
    if e2 is not None and rnd.random() < 0.5 and swap_keeps_forest(colors, e1, e2):
        fc.swap_colors(p(*e1), *e1, p(*e2), *e2)
    else:
        moves = [(e, k) for e in edges for k in range(fc.t) if k != j and can_join(fc, p, k, *e)]
        (a, b), k = rnd.choice(moves)
        fc.recolor(p(a, b), a, b, k)
    assert not any(
        fc.edge_class[p(*e)] == j and reference_cycle_containing(fc, j, p(*e), *e)
        for e in edges
    )
    assert check_cycle_tests(fc, p) == 0
    check_cycle_queries(fc, p, j, v)
    assert coloring_problems(fc, p.ends) == []
    return True


def joined(mate, a, b):
    """Whether an edge ab would close a cycle, read from the stored
    ``mate`` map of one class: ``a`` is ``b`` or ``b`` is its mate."""
    return a == b or mate.get(a) == b


def check_cycle_queries(fc, p, j, v):
    """Compare the stored class-``j`` mates of ``v`` and every vertex, both
    ways round, with a from-scratch rebuild: where both are path ends or
    untouched, ``x`` is ``v``'s mate exactly when the two are connected."""
    colors = edge_classes(fc, p.ends)
    mate = mates(fc, j)
    for x in range(fc.n):
        if 2 in (fc.row(v)[j], fc.row(x)[j]):
            continue
        want = connected_in_class(colors, j, v, x)
        assert joined(mate, v, x) == want
        assert joined(mate, x, v) == want


def check_cycle_tests(fc, p):
    """On every colored edge uv, both ways round, the repair's cycle test
    ``v in fc.walk(j, u, v)`` agrees with the reference cycle query.
    Returns how many of these (edge, direction) pairs lie on a cycle."""
    found = 0
    for e, j in enumerate(fc.edge_class):
        if j != NIL:
            for u, v in (p.ends[e], p.ends[e][::-1]):
                want = reference_cycle_containing(fc, j, e, u, v) is not None
                assert (v in fc.walk(j, u, v)) is want
                found += want
    return found


def check_assign_returns(fc, p):
    """Make every assign on ``fc``, the direct calls and those that recolor
    and swap_colors make, assert that it returns whether its ends were
    connected in the class just before the call."""
    assign = fc.assign

    def checked(e, u, v, j):
        want = connected_in_class(edge_classes(fc, p.ends), j, u, v)
        got = assign(e, u, v, j)
        assert got is want
        return got

    fc.assign = checked


def random_forest_state(seed, n=14, t=4, steps=160):
    """Drive a coloring through random valid assigns/recolors/swaps and
    closed-then-broken cycles; returns the coloring, its edge ids and the
    cycle count."""
    rnd = random.Random(seed)
    p = Pairs(n)
    fc = p.coloring(t)
    check_assign_returns(fc, p)
    cls = fc.edge_class
    cycles = 0
    for _ in range(steps):
        op = rnd.random()
        colored = sorted(edge_classes(fc, p.ends))
        if op < 0.1:
            cycles += close_and_break_cycle(fc, p, rnd)
        elif op < 0.6:
            u, v = rnd.sample(range(n), 2)
            j = rnd.randrange(t)
            if cls[p(u, v)] != NIL:
                continue
            if fc.row(u)[j] >= 2 or fc.row(v)[j] >= 2:
                continue
            if v in fc.walk(j, u):
                continue
            assert fc.assign(p(u, v), u, v, j) is False
        elif op < 0.85 and colored:
            (u, v) = rnd.choice(colored)
            j = rnd.randrange(t)
            if fc.row(u)[j] >= 2 or fc.row(v)[j] >= 2:
                continue
            if cls[p(u, v)] != j and v in fc.walk(j, u):
                continue
            fc.recolor(p(u, v), u, v, j)
        elif len(colored) >= 2:
            e1, e2 = rnd.sample(colored, 2)
            colors = edge_classes(fc, p.ends)
            if colors[e1] != colors[e2] and swap_keeps_forest(colors, e1, e2):
                fc.swap_colors(p(*e1), *e1, p(*e2), *e2)
        assert check_cycle_tests(fc, p) == 0
    return fc, p, cycles


def test_random_states_stay_consistent():
    cycles = ends = interior = 0
    for seed in range(12):
        fc, p, closed = random_forest_state(seed)
        cycles += closed
        assert coloring_problems(fc, p.ends) == []
        # The stored mates must match a from-scratch rebuild at path ends
        # and untouched vertices; an interior vertex has no mate to check.
        rnd = random.Random(seed + 1000)
        for _ in range(25):
            u, v = rnd.sample(range(fc.n), 2)
            j = rnd.randrange(fc.t)
            if 2 in (fc.row(u)[j], fc.row(v)[j]):
                interior += 1
                continue
            ends += 1
            assert joined(mates(fc, j), u, v) == connected_in_class(
                edge_classes(fc, p.ends), j, u, v
            )
        # Per-vertex views must match a naive rebuild of the class map.
        adj = class_adjacency(edge_classes(fc, p.ends))
        for v in range(fc.n):
            for j in range(fc.t):
                nbrs = sorted(adj.get(j, {}).get(v, []))
                assert fc.row(v)[j] == len(nbrs)
    assert cycles >= 12
    assert ends and interior
