import hashlib
import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import linarb.degeneracy
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
    scale_graph,
    star_graph,
    unreserved_trade_fixture,
    verify_ordering,
)


def check_certificate(g, ordering):
    """Every vertex may look back at no more than k earlier neighbors, as
    many as the ordering's left-degrees say when it has them."""
    assert sorted(ordering.order) == list(range(g.n))
    assert len(ordering.position) == g.n
    assert all(ordering.position[v] == i for i, v in enumerate(ordering.order))
    worst = 0
    for v in ordering.order:
        back = sum(1 for u in g.neighbors(v) if ordering.position[u] < ordering.position[v])
        assert ordering.left is None or ordering.left[v] == back
        worst = max(worst, back)
    assert worst <= ordering.k
    return worst


@pytest.mark.parametrize("seed", range(6))
def test_peel_records_left_degrees(seed):
    """A peel's ordering lists every vertex's left-degree; one built by
    hand lists none."""
    rnd = random.Random(seed)
    g = random_graph(rnd, rnd.randrange(2, 40), rnd.randrange(120))
    ordering = degeneracy_ordering(g)
    assert len(ordering.left) == g.n
    check_certificate(g, ordering)
    assert DegeneracyOrdering(ordering.order, ordering.position, ordering.k).left is None


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


def cliques_graph(s: int, isolated: int = 0, seed: int | None = None) -> Graph:
    """Disjoint cliques K2..Ks, then ``isolated`` isolated vertices; with a
    ``seed``, every id is relabelled by a random permutation.  Each clique
    size is a degree level of its own, so the peel rises s - 1 times, or s
    times with isolated vertices."""
    edges = []
    first = 0
    for size in range(2, s + 1):
        edges += [(first + i, first + j) for i in range(size) for j in range(i + 1, size)]
        first += size
    n = first + isolated
    if seed is not None:
        label = list(range(n))
        random.Random(seed).shuffle(label)
        edges = [(label[u], label[v]) for u, v in edges]
    return gfrom(n, edges)


def relabel_last(g: Graph, v: int) -> Graph:
    """``g`` with vertex ``v`` moved to the largest id."""
    label = [u if u < v else u - 1 for u in range(g.n)]
    label[v] = g.n - 1
    return gfrom(g.n, [(label[a], label[b]) for a, b in g.edges()])


def wheel_graph(spokes: int) -> Graph:
    """A cycle 1..spokes with hub 0 joined to all of it: the peel rises to
    level 3 at the rim, and each rim pop drops its rim neighbours to 2."""
    rim = [(i, i % spokes + 1) for i in range(1, spokes + 1)]
    return gfrom(spokes + 1, rim + [(0, i) for i in range(1, spokes + 1)])


def clique_ladder(s: int) -> Graph:
    """K_s with one pendant path of length 2 per clique vertex: the paths
    go at level 1, pushing their middle vertices as they drop to it; the
    peel then rises to s - 1, and its first pop there drops every other
    clique vertex to s - 2."""
    edges = [(i, j) for i in range(s) for j in range(i + 1, s)]
    for i in range(s):
        edges += [(i, s + 2 * i), (s + 2 * i, s + 2 * i + 1)]
    return gfrom(3 * s, edges)


LEVEL_GRAPHS = {
    **{f"cliques-K2-K{s}": (lambda s=s: cliques_graph(s)) for s in (2, 3, 5, 8)},
    **{f"cliques-K2-K{s}-isolated": (lambda s=s: cliques_graph(s, 40)) for s in (3, 6)},
    **{
        f"cliques-K2-K{s}-isolated{iso}-shuffled{seed}": (
            lambda s=s, iso=iso, seed=seed: cliques_graph(s, iso, seed)
        )
        for s, iso in ((4, 0), (7, 0), (6, 30))
        for seed in range(3)
    },
    **{f"complete-K{s}": (lambda s=s: complete_graph(s)) for s in (1, 2, 3, 6, 9)},
    **{f"star-{n}-hub-first": (lambda n=n: star_graph(n)) for n in (1, 2, 7)},
    **{f"star-{n}-hub-last": (lambda n=n: relabel_last(star_graph(n), 0)) for n in (2, 7)},
    **{f"wheel-{spokes}": (lambda spokes=spokes: wheel_graph(spokes)) for spokes in (3, 5, 8)},
    **{
        f"wheel-{spokes}-hub-last": (lambda spokes=spokes: relabel_last(wheel_graph(spokes), 0))
        for spokes in (5, 8)
    },
    **{f"clique-ladder-{s}": (lambda s=s: clique_ladder(s)) for s in (3, 5)},
}


@pytest.mark.parametrize("name", sorted(LEVEL_GRAPHS))
def test_order_is_naive_removal_reversed_across_level_rises(name):
    assert_order_is_naive_removal_reversed(LEVEL_GRAPHS[name]())


def test_scale_graph_order_is_pinned():
    """The criterion-8 graph's ordering, pinned before the peel's heap held
    only the vertices at the current level."""
    ordering = degeneracy_ordering(scale_graph())
    digest = hashlib.sha256(",".join(map(str, ordering.order)).encode()).hexdigest()
    assert ordering.k == 2
    assert digest == "27ebd7539a98459dc4d68fd34fa5c02067ce78c4422574f8c791bd043cebf0d8"


def peel_line_events(s: int, isolated: int) -> int:
    """The line events that ``degeneracy_ordering`` executes in
    degeneracy.py on cliques K2..Ks beside ``isolated`` isolated vertices."""
    g = cliques_graph(s, isolated)
    events = 0

    def on_line(frame, event, arg):
        nonlocal events
        if event == "line":
            events += 1
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename == linarb.degeneracy.__file__ else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        degeneracy_ordering(g)
    finally:
        sys.settrace(previous)
    return events


def test_peel_line_count_does_not_follow_the_level_count():
    """Doubling both the number of levels and the isolated vertices costs
    about twice the lines (2.04x).  A rise that rescanned every vertex, not
    only those left at the last rise, pays n per level and ran 2.8x."""
    assert peel_line_events(16, 40_000) < 2.5 * peel_line_events(8, 20_000)
