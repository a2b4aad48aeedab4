import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from linarb import DegeneracyOrdering, Graph, degeneracy_ordering, generate_k_degenerate
from conftest import (
    complete_graph,
    cycle_graph,
    endpoint_recolor_fixture,
    gfrom,
    naive_degeneracy,
    path_graph,
    path_partner_swap_fixture,
    pendant_partner_fixture,
    random_graph,
    star_graph,
    unreserved_trade_fixture,
    verify_ordering,
)


def check_certificate(g, ordering):
    """Every vertex may look back at no more than k earlier neighbors."""
    assert sorted(ordering.order) == list(range(g.n))
    assert len(ordering.position) == g.n
    assert all(ordering.position[v] == i for i, v in enumerate(ordering.order))
    worst = 0
    for v in ordering.order:
        back = sum(1 for u in g.neighbors(v) if ordering.position[u] < ordering.position[v])
        worst = max(worst, back)
    assert worst <= ordering.k
    return worst


def test_empty_and_isolated():
    assert degeneracy_ordering(Graph(0)).k == 0
    ordering = degeneracy_ordering(Graph(4))
    assert ordering.k == 0
    assert sorted(ordering.order) == [0, 1, 2, 3]


def test_known_values():
    assert degeneracy_ordering(path_graph(6)).k == 1
    assert degeneracy_ordering(star_graph(9)).k == 1
    assert degeneracy_ordering(cycle_graph(5)).k == 2
    assert degeneracy_ordering(complete_graph(6)).k == 5


def test_tree_is_one_degenerate():
    g = gfrom(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6)])
    ordering = degeneracy_ordering(g)
    assert ordering.k == 1
    check_certificate(g, ordering)


def test_k_matches_naive_on_random_graphs():
    rnd = random.Random(2718)
    for _ in range(60):
        n = rnd.randint(1, 14)
        m = rnd.randint(0, n * (n - 1) // 2)
        g = random_graph(rnd, n, m)
        ordering = degeneracy_ordering(g)
        assert ordering.k == naive_degeneracy(g)[0]
        check_certificate(g, ordering)


def test_k_is_minimum_over_all_orderings():
    """No permutation of the vertices achieves a smaller back-degree bound."""
    rnd = random.Random(99)
    for _ in range(8):
        n = rnd.randint(2, 6)
        g = random_graph(rnd, n, rnd.randint(0, n * (n - 1) // 2))
        k = degeneracy_ordering(g).k
        best = n
        for perm in itertools.permutations(range(n)):
            pos = {v: i for i, v in enumerate(perm)}
            worst = max(
                (sum(1 for u in g.neighbors(v) if pos[u] < pos[v]) for v in perm),
                default=0,
            )
            best = min(best, worst)
        assert k == best


def test_deterministic():
    rnd = random.Random(5)
    g = random_graph(rnd, 10, 20)
    a = degeneracy_ordering(g)
    b = degeneracy_ordering(g)
    assert a.order == b.order
    assert a.k == b.k


def test_verify_ordering_accepts_and_rejects():
    g = path_graph(5)
    ordering = degeneracy_ordering(g)
    assert verify_ordering(g, ordering, ordering.k)
    assert verify_ordering(g, ordering, ordering.k + 1)
    assert not verify_ordering(g, ordering, 0)
    broken = DegeneracyOrdering(order=[0, 0, 2, 3, 4], position=ordering.position, k=1)
    assert not verify_ordering(g, broken, 1)


@settings(max_examples=60)
@given(st.integers(1, 10), st.data())
def test_certificate_always_valid(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    g = gfrom(n, chosen)
    ordering = degeneracy_ordering(g)
    worst = check_certificate(g, ordering)
    assert ordering.k == worst or g.edge_count == 0
    assert ordering.k == naive_degeneracy(g)[0]


def assert_order_is_naive_removal_reversed(g):
    ordering = degeneracy_ordering(g)
    k, removal = naive_degeneracy(g)
    assert ordering.order == removal[::-1]
    assert ordering.k == k


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.floats(0.0, 3.0), st.integers(0, 2**32))
def test_order_is_naive_removal_reversed_on_random_graphs(n, density, seed):
    rnd = random.Random(seed)
    assert_order_is_naive_removal_reversed(random_graph(rnd, n, int(density * n)))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_order_is_naive_removal_reversed_on_generated_graphs(k):
    # Many vertices share a degree, so the id tie-break decides most pops.
    for seed in range(3):
        assert_order_is_naive_removal_reversed(generate_k_degenerate(150, k, 4 * k, seed))


@pytest.mark.parametrize(
    "fixture",
    [
        endpoint_recolor_fixture,
        unreserved_trade_fixture,
        pendant_partner_fixture,
        path_partner_swap_fixture,
    ],
)
def test_order_is_naive_removal_reversed_on_repair_fixtures(fixture):
    assert_order_is_naive_removal_reversed(fixture()[0])
