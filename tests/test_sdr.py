import random

import pytest
from hypothesis import given, settings, strategies as st

from linarb import (
    DegeneracyOrdering,
    Graph,
    PreconditionError,
    compute_sdr,
    degeneracy_ordering,
    generate_k_degenerate,
    max_degree,
)
from conftest import (
    cycle_graph,
    flagged_owners,
    gfrom,
    hall_certificate_check,
    ordering_for,
    owner_reservation,
    random_graph,
    right_rows,
    star_graph,
)


def right_neighbors(g, ordering, v):
    pos = ordering.position
    return {u for u in g.neighbors(v) if pos[u] > pos[v]}


def check_assignment(g, ordering, d, sdr):
    k = ordering.k
    assert sdr.r == (d - k) // k
    owners = [v for v in range(g.n) if g.degree(v) >= d]
    rows = right_rows(g, ordering)
    assert flagged_owners(sdr, ordering, rows) <= set(owners)
    seen: set[int] = set()
    for v in owners:
        reps, leaves = owner_reservation(sdr, ordering, rows, v)
        assert (len(reps), leaves) == (sdr.r, 0)
        assert reps == sorted(reps)
        assert set(reps) <= right_neighbors(g, ordering, v)
        for u in reps:
            assert u not in seen
            seen.add(u)


def test_zero_degeneracy_rejected():
    g = Graph(4)
    ordering = degeneracy_ordering(g)
    with pytest.raises(PreconditionError):
        compute_sdr(g, ordering, 1, *right_rows(g, ordering))


def test_threshold_range_enforced():
    g = cycle_graph(5)
    ordering = degeneracy_ordering(g)
    with pytest.raises(PreconditionError):
        compute_sdr(g, ordering, 1, *right_rows(g, ordering))
    with pytest.raises(PreconditionError):
        compute_sdr(g, ordering, 3, *right_rows(g, ordering))


def test_threshold_equal_to_degeneracy_reserves_nothing():
    g = cycle_graph(6)
    ordering = degeneracy_ordering(g)
    rows = right_rows(g, ordering)
    sdr = compute_sdr(g, ordering, 2, *rows)
    assert sdr.r == 0
    assert flagged_owners(sdr, ordering, rows) == set()
    assert owner_reservation(sdr, ordering, rows, 0) == ([], 0)


def test_star_center_reserves_all_but_one_leaf():
    g = star_graph(8)
    ordering = degeneracy_ordering(g)
    rows = right_rows(g, ordering)
    sdr = compute_sdr(g, ordering, 8, *rows)
    assert sdr.r == 7
    assert flagged_owners(sdr, ordering, rows) == {0}
    check_assignment(g, ordering, 8, sdr)


def test_reps_of_non_owner_is_empty():
    g = star_graph(5)
    ordering = degeneracy_ordering(g)
    rows = right_rows(g, ordering)
    sdr = compute_sdr(g, ordering, 5, *rows)
    assert owner_reservation(sdr, ordering, rows, 3)[0] == []


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
    rows = right_rows(g, ordering)
    sdr = compute_sdr(g, ordering, 6, *rows)
    assert sdr.r == 2
    check_assignment(g, ordering, 6, sdr)
    assert len(owner_reservation(sdr, ordering, rows, 3)[0]) == 2


def test_deterministic():
    rnd = random.Random(31)
    g = random_graph(rnd, 12, 30)
    ordering = degeneracy_ordering(g)
    d = max(ordering.k, max_degree(g) - 1)
    a = compute_sdr(g, ordering, d, *right_rows(g, ordering))
    b = compute_sdr(g, ordering, d, *right_rows(g, ordering))
    assert a.reserved == b.reserved


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 12), st.data())
def test_random_assignments_valid(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs), min_size=1))
    g = gfrom(n, chosen)
    ordering = degeneracy_ordering(g)
    d = data.draw(st.integers(ordering.k, max_degree(g)))
    sdr = compute_sdr(g, ordering, d, *right_rows(g, ordering))
    check_assignment(g, ordering, d, sdr)


def with_explicit_pendants(g, ordering, pad):
    """``g`` with pad[v] real pendant vertices hung on each v, numbered after
    every vertex of ``g`` in vertex order, and appended to the ordering."""
    edges = g.edges()
    nxt = g.n
    for v, p in enumerate(pad):
        for _ in range(p):
            edges.append((v, nxt))
            nxt += 1
    order = ordering.order + list(range(g.n, nxt))
    position = [0] * nxt
    for i, v in enumerate(order):
        position[v] = i
    return gfrom(nxt, edges), DegeneracyOrdering(order, position, ordering.k)


@pytest.mark.parametrize("seed", range(40))
def test_phantom_padding_matches_explicit_pendants(seed):
    """Padding kept as counts reserves the same real vertices, and as many
    phantoms as the same graph padded with real pendant vertices reserves
    pendants."""
    rnd = random.Random(seed)
    k = rnd.randrange(1, 4)
    g = generate_k_degenerate(rnd.randrange(k + 2, 40), k, rnd.randrange(2 * k, 20), seed)
    ordering = degeneracy_ordering(g)
    d = max_degree(g) + rnd.randrange(0, 3)
    pad = [d - g.degree(v) if 1 < g.degree(v) < d else 0 for v in range(g.n)]
    rows = right_rows(g, ordering)
    got = compute_sdr(g, ordering, d, *rows, pad)
    padded, padded_ordering = with_explicit_pendants(g, ordering, pad)
    padded_rows = right_rows(padded, padded_ordering)
    want = compute_sdr(padded, padded_ordering, d, *padded_rows)
    assert got.r == want.r
    owners = [v for v in range(padded.n) if padded.degree(v) >= d]
    assert flagged_owners(got, ordering, rows) <= set(owners)
    for v in owners:
        reps, leaves = owner_reservation(want, padded_ordering, padded_rows, v)
        assert leaves == 0
        real = [u for u in reps if u < g.n]
        assert owner_reservation(got, ordering, rows, v) == (real, len(reps) - len(real))


def test_deficit_resolved_through_a_phantom():
    """Owner 2 has no padding, and owners 0 and 1 greedily take all four of
    its candidates; each augmenting path ends at a free phantom of owner 0,
    which releases a real candidate to owner 2."""
    g = gfrom(9, [(0, 3), (0, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8)])
    ordering = ordering_for(g, [0, 1, 7, 8, 2, 3, 4, 5, 6], 2)
    pad = [6 - g.degree(v) if g.degree(v) > 1 else 0 for v in range(g.n)]
    rows = right_rows(g, ordering)
    sdr = compute_sdr(g, ordering, 6, *rows, pad)
    assert owner_reservation(sdr, ordering, rows, 0) == ([], 2)
    assert owner_reservation(sdr, ordering, rows, 1) == ([5, 6], 0)
    assert owner_reservation(sdr, ordering, rows, 2) == ([3, 4], 0)
    padded, padded_ordering = with_explicit_pendants(g, ordering, pad)
    rows = right_rows(padded, padded_ordering)
    sdr = compute_sdr(padded, padded_ordering, 6, *rows)
    assert owner_reservation(sdr, ordering, rows, 2) == ([3, 4], 0)


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
