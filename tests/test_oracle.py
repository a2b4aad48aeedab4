import random

import pytest

from linarb import (
    Graph,
    PreconditionError,
    exact_la,
    la_bounds,
    verify_partition,
)
from conftest import (
    complete_graph,
    cycle_graph,
    gfrom,
    path_graph,
    random_graph,
    star_graph,
)


def check_witness(g, res):
    assert res.complete
    assert res.la is not None
    report = verify_partition(g, res.witness, res.la)
    assert report.valid, report.violations[:3]


def test_known_small_values():
    cases = [
        (path_graph(3), 1),
        (cycle_graph(4), 2),
        (cycle_graph(5), 2),
        (complete_graph(4), 2),
        (complete_graph(5), 3),
        (star_graph(6), 3),
    ]
    for g, want in cases:
        res = exact_la(g)
        assert res.la == want
        check_witness(g, res)


def test_complete_bipartite_three_three():
    g = gfrom(6, ((i, 3 + j) for i in range(3) for j in range(3)))
    res = exact_la(g)
    assert res.la == 2
    check_witness(g, res)


def test_cube_graph():
    edges = []
    for v in range(8):
        for bit in (1, 2, 4):
            if v < v ^ bit:
                edges.append((v, v ^ bit))
    g = gfrom(8, edges)
    res = exact_la(g)
    assert res.la == 2
    check_witness(g, res)


def test_empty_and_matching():
    res = exact_la(Graph(4))
    assert res.la == 0 and res.witness == {} and res.complete
    g = gfrom(4, [(0, 1), (2, 3)])
    res = exact_la(g)
    assert res.la == 1
    check_witness(g, res)


def test_budget_exhaustion_reports_incomplete():
    g = complete_graph(7)
    res = exact_la(g, budget=50)
    assert not res.complete
    assert res.la is None
    assert res.witness is None
    assert res.nodes_explored == 50


def test_budget_spent_on_the_last_placement_stops_the_search():
    """A path of two edges fits one class, but a budget of one placement
    runs out after the first edge: the search must stop there, not place
    the second edge unpaid and report a complete answer."""
    res = exact_la(Graph.from_edges(3, [(0, 1), (1, 2)]), budget=1)
    assert (res.la, res.witness, res.nodes_explored, res.complete) == (None, None, 1, False)
    assert exact_la(Graph.from_edges(3, [(0, 1), (1, 2)]), budget=2).la == 1


def test_budget_must_be_positive():
    with pytest.raises(PreconditionError):
        exact_la(path_graph(3), budget=0)


def test_node_counter_monotone_in_difficulty():
    easy = exact_la(path_graph(6))
    hard = exact_la(complete_graph(6))
    assert easy.nodes_explored < hard.nodes_explored


def test_bounds_bracket_exact_values():
    rnd = random.Random(424)
    for _ in range(40):
        n = rnd.randint(2, 7)
        g = random_graph(rnd, n, rnd.randint(1, n * (n - 1) // 2))
        b = la_bounds(g)
        res = exact_la(g)
        assert b.lower <= res.la
        if b.upper_proven:
            assert res.la <= b.upper


def test_bounds_regular_even_degree_bump():
    b = la_bounds(cycle_graph(6))
    assert b.lower == 2  # even-degree regular graphs need the extra class
    assert b.upper == 2 and b.upper_proven
    assert la_bounds(path_graph(4)).lower == 1


def test_bounds_forest():
    b = la_bounds(star_graph(7))
    assert (b.lower, b.upper, b.upper_proven) == (4, 4, True)


def test_bounds_above_minimum_threshold_collapse():
    # Degeneracy 2 with maximum degree 6 meets the halved-class guarantee.
    g = star_graph(6)
    g.add_edge(1, 2)
    g.add_edge(3, 4)
    b = la_bounds(g)
    assert (b.lower, b.upper, b.upper_proven) == (3, 3, True)


def test_bounds_empty():
    b = la_bounds(Graph(3))
    assert (b.lower, b.upper, b.upper_proven) == (0, 0, True)


def test_small_dense_case_unproven_band():
    # Degeneracy 4 at maximum degree 7: below both thresholds, degree 7 is
    # outside the proven small-degree list, so the upper bound is a belief.
    g = gfrom(10, [(i, j) for i in range(5) for j in range(i + 1, 5)] + [
        (u % 5, 5 + v) for v in range(5) for u in (v, v + 1, v + 2)
    ])
    b = la_bounds(g)
    assert b.lower == 4
    assert b.upper == 4
    assert not b.upper_proven
