import random

import pytest
from hypothesis import given, strategies as st

from linarb import (
    Graph,
    GraphError,
    max_degree,
)
from conftest import (
    complete_graph,
    gfrom,
    path_graph,
    star_graph,
)


def test_empty_graph():
    g = Graph(0)
    assert g.n == 0
    assert g.edge_count == 0
    assert g.edges() == []
    assert max_degree(g) == 0


def test_add_edge_and_queries():
    g = Graph(3)
    g.add_edge(0, 1)
    assert g.degree(0) == 1
    assert g.degree(2) == 0
    assert g.edge_count == 1
    assert g.edges() == [(0, 1)]


def test_edges_are_normalized_and_sorted():
    g = gfrom(4, [(3, 2), (1, 0), (2, 0)])
    assert g.edges() == [(0, 1), (0, 2), (2, 3)]


def test_neighbors_follow_insertion_order():
    g = gfrom(5, [(2, 4), (2, 0), (2, 3)])
    assert g.neighbors(2) == [4, 0, 3]
    assert sorted(g.neighbors(2)) == [0, 3, 4]


def test_self_loop_rejected():
    g = Graph(3)
    with pytest.raises(GraphError):
        g.add_edge(1, 1)


def test_duplicate_edge_rejected():
    g = Graph(3)
    g.add_edge(0, 1)
    with pytest.raises(GraphError):
        g.add_edge(1, 0)


def test_negative_vertex_count_rejected():
    with pytest.raises(GraphError, match="non-negative"):
        Graph(-1)


def test_vertex_out_of_range_rejected():
    g = Graph(3)
    with pytest.raises(GraphError):
        g.add_edge(0, 3)
    with pytest.raises(GraphError):
        g.degree(-1)
    with pytest.raises(GraphError):
        g.neighbors(5)


@pytest.mark.parametrize("u, v", [(0, 1.0), (1.0, 0), (0, 1.5), (2.5, 1)])
def test_non_int_vertex_rejected_before_any_mutation(u, v):
    # A float id inside the range passes the range check; the edge set and
    # the rows must still be untouched when the error is raised.
    g = gfrom(3, [(1, 2)])
    with pytest.raises(GraphError):
        g.add_edge(u, v)
    assert g.edge_count == 1
    assert g.edges() == [(1, 2)]
    assert [g.neighbors(x) for x in range(3)] == [[], [2], [1]]


@pytest.mark.parametrize("call", [
    lambda g: g.neighbors(1.0),
    lambda g: g.degree(1.0),
    lambda g: g.degree("1"),
    lambda g: Graph(2.5),
    lambda g: Graph("3"),
], ids=["neighbors", "degree", "degree_str", "n_float", "n_str"])
def test_non_int_vertex_rejected_by_every_query(call):
    # A float id inside the range passes the range check and fails as a row
    # index (TypeError); a non-int count fails in range().
    g = gfrom(3, [(0, 1)])
    with pytest.raises(GraphError):
        call(g)


@pytest.mark.parametrize("call", [
    lambda g: g.add_edge(True, 2),
    lambda g: g.add_edge(2, False),
    lambda g: g.neighbors(True),
    lambda g: g.degree(False),
    lambda g: Graph.from_edges(4, [(True, 2), (0, 2), (2, 3)]),
], ids=["add_edge_u", "add_edge_v", "neighbors", "degree", "from_edges"])
def test_bool_vertex_rejected(call):
    # True == 1 passes the range check and indexes row 1, so a bool id
    # would be stored as a key and a row entry of its own.
    g = gfrom(4, [(1, 2)])
    with pytest.raises(GraphError, match="must be ints"):
        call(g)
    assert g.edges() == [(1, 2)]
    assert [g.neighbors(x) for x in range(4)] == [[], [2], [1], []]


def mixed_edges(rnd: random.Random, n: int) -> list:
    """Distinct edges in the forms ``add_edge`` takes: canonical tuples,
    reversed pairs and lists, with a bool id at vertex 0 or 1, which it
    refuses; half the time also the other forms it refuses: float and
    out-of-range ids, self-loops and repeats of earlier edges, either way
    round."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bad = rnd.random() < 0.5
    edges: list = []
    for u, v in rnd.sample(pairs, rnd.randrange(1, len(pairs) + 1)):
        kind = rnd.randrange(4)
        if bad and rnd.random() < 0.15:
            kind = rnd.randrange(4, 8)
        if kind == 0:
            e = (u, v)
        elif kind == 1:
            e = (v, u)
        elif kind == 2:
            e = [u, v] if rnd.random() < 0.5 else [v, u]
        elif kind == 3:
            e = (bool(u), v) if u <= 1 else (u, v)
        elif kind == 4:
            e = (float(u), v) if rnd.random() < 0.5 else (u, float(v))
        elif kind == 5:
            e = (u, rnd.choice([n, n + 3, -1]))
        elif kind == 6:
            e = (u, u)
        else:
            if not edges:
                edges.append((v, u) if rnd.random() < 0.5 else (u, v))
            a, b = rnd.choice(edges)
            e = (b, a) if rnd.random() < 0.5 else (a, b)
        edges.append(e)
    return edges


def built_or_error(build):
    try:
        g = build()
    except GraphError as exc:
        return type(exc), str(exc)
    return repr(g._adj), repr(sorted(g._edges))


@pytest.mark.parametrize("seed", range(200))
def test_from_edges_matches_add_edge_one_by_one(seed):
    # from_edges keys canonical exact-int pairs itself and sends every other
    # edge through add_edge: the rows, the keys and the first error (a bool
    # id raises on both sides) must be those of adding the edges one at a
    # time.
    rnd = random.Random(seed)
    n = rnd.randrange(2, 7)
    edges = mixed_edges(rnd, n)
    want = built_or_error(lambda: gfrom(n, edges))
    assert built_or_error(lambda: Graph.from_edges(n, edges)) == want
    assert built_or_error(lambda: Graph.from_edges(n, (e for e in edges))) == want


def test_from_edges_keeps_a_canonical_pair_as_its_key():
    e, rev, lst = (0, 1), (2, 1), [0, 2]
    g = Graph.from_edges(3, [e, rev, lst])
    assert any(k is e for k in g._edges)
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]
    assert [g.neighbors(x) for x in range(3)] == [[1, 2], [0, 2], [1, 0]]


def test_max_degree_star():
    assert max_degree(star_graph(7)) == 7
    assert max_degree(path_graph(2)) == 1
    assert max_degree(complete_graph(5)) == 4


@given(st.integers(1, 12), st.data())
def test_degree_sums_to_twice_edges(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    g = gfrom(n, chosen)
    assert sum(g.degree(v) for v in range(n)) == 2 * g.edge_count
    assert g.edge_count == len(chosen)


@given(st.integers(2, 10))
def test_complete_graph_counts(n):
    g = complete_graph(n)
    assert g.edge_count == n * (n - 1) // 2
    assert all(g.degree(v) == n - 1 for v in range(n))
