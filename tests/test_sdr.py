import random

import pytest
from hypothesis import given, settings, strategies as st

from linarb import (
    Graph,
    PreconditionError,
    compute_sdr,
    degeneracy_ordering,
    max_degree,
)
from conftest import (
    cycle_graph,
    gfrom,
    hall_certificate_check,
    ordering_for,
    random_graph,
    star_graph,
)


def right_neighbors(g, ordering, v):
    pos = ordering.position
    return {u for u in g.neighbors(v) if pos[u] > pos[v]}


def check_assignment(g, ordering, d, sdr):
    k = ordering.k
    assert sdr.r == (d - k) // k
    owners = [v for v in range(g.n) if g.degree(v) >= d]
    assert sorted(sdr.reps) == owners
    seen: set[int] = set()
    for v, reps in sdr.reps.items():
        assert len(reps) == sdr.r
        assert reps == sorted(reps)
        assert set(reps) <= right_neighbors(g, ordering, v)
        for u in reps:
            assert u not in seen
            seen.add(u)


def test_zero_degeneracy_rejected():
    g = Graph(4)
    with pytest.raises(PreconditionError):
        compute_sdr(g, degeneracy_ordering(g), 1)


def test_threshold_range_enforced():
    g = cycle_graph(5)
    ordering = degeneracy_ordering(g)
    with pytest.raises(PreconditionError):
        compute_sdr(g, ordering, 1)
    with pytest.raises(PreconditionError):
        compute_sdr(g, ordering, 3)


def test_threshold_equal_to_degeneracy_reserves_nothing():
    g = cycle_graph(6)
    ordering = degeneracy_ordering(g)
    sdr = compute_sdr(g, ordering, 2)
    assert sdr.r == 0
    assert sorted(sdr.reps) == list(range(6))
    assert all(reps == [] for reps in sdr.reps.values())
    assert sdr.reps_of(0) == []


def test_star_center_reserves_all_but_one_leaf():
    g = star_graph(8)
    ordering = degeneracy_ordering(g)
    sdr = compute_sdr(g, ordering, 8)
    assert sdr.r == 7
    assert list(sdr.reps) == [0]
    check_assignment(g, ordering, 8, sdr)


def test_reps_of_non_owner_is_empty():
    g = star_graph(5)
    sdr = compute_sdr(g, degeneracy_ordering(g), 5)
    assert sdr.reps_of(3) == []


def test_greedy_deficit_resolved_by_reassignment():
    """Three early owners grab the fourth owner's whole candidate pool.

    Owner 3 reaches the greedy pass with every right-neighbor already held,
    so finishing requires releasing some representative back to an earlier
    owner that has a spare.  The result must still be a full disjoint family.
    """
    g = Graph(22)
    for i, a in enumerate((0, 1, 2)):
        lo = 4 + 2 * i
        for u in (lo, lo + 1, 10 + 4 * i, 11 + 4 * i, 12 + 4 * i, 13 + 4 * i):
            g.add_edge(a, u)
    for u in range(4, 10):
        g.add_edge(3, u)
    ordering = ordering_for(g, list(range(22)), 2)
    sdr = compute_sdr(g, ordering, 6)
    assert sdr.r == 2
    check_assignment(g, ordering, 6, sdr)
    assert len(sdr.reps_of(3)) == 2


def test_deterministic():
    rnd = random.Random(31)
    g = random_graph(rnd, 12, 30)
    ordering = degeneracy_ordering(g)
    d = max(ordering.k, max_degree(g) - 1)
    a = compute_sdr(g, ordering, d)
    b = compute_sdr(g, ordering, d)
    assert a.reps == b.reps


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 12), st.data())
def test_random_assignments_valid(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs), min_size=1))
    g = gfrom(n, chosen)
    ordering = degeneracy_ordering(g)
    d = data.draw(st.integers(ordering.k, max_degree(g)))
    sdr = compute_sdr(g, ordering, d)
    check_assignment(g, ordering, d, sdr)


def test_hall_exhaustive_small():
    g = star_graph(6)
    assert hall_certificate_check(g, degeneracy_ordering(g), 6)


def test_hall_sampled_subsets():
    g = Graph(22)
    for i, a in enumerate((0, 1, 2)):
        lo = 4 + 2 * i
        for u in (lo, lo + 1, 10 + 4 * i, 11 + 4 * i, 12 + 4 * i, 13 + 4 * i):
            g.add_edge(a, u)
    for u in range(4, 10):
        g.add_edge(3, u)
    ordering = ordering_for(g, list(range(22)), 2)
    assert hall_certificate_check(g, ordering, 6)
    assert hall_certificate_check(g, ordering, 6, sample_sets=[[0, 3], [1, 2, 3]])
    with pytest.raises(PreconditionError):
        hall_certificate_check(g, ordering, 6, sample_sets=[[0, 21]])


def test_hall_exhaustive_refused_when_too_many_qualify():
    g = cycle_graph(25)
    ordering = degeneracy_ordering(g)
    with pytest.raises(PreconditionError):
        hall_certificate_check(g, ordering, 2)
    assert hall_certificate_check(g, ordering, 2, sample_sets=[list(range(25))])
