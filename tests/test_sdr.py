import hashlib
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from linarb import (
    DegeneracyOrdering,
    Graph,
    InternalContradictionError,
    Mode,
    PreconditionError,
    SolverState,
    degeneracy_ordering,
    generate_k_degenerate,
    max_degree,
    required_max_degree,
)
import linarb.sdr
import linarb.solver
from linarb.sdr import compute_sdr
from conftest import (
    cycle_graph,
    fan_graph,
    flagged_owners,
    gfrom,
    hall_certificate_check,
    ordering_for,
    owner_reservation,
    random_graph,
    reference_augment_starts,
    right_rows,
    star_graph,
    threshold_sdr,
)


def right_neighbors(g, ordering, v):
    pos = ordering.position
    return {u for u in g.neighbors(v) if pos[u] > pos[v]}


def check_assignment(g, ordering, d, flags, r):
    owners = [v for v in range(g.n) if g.degree(v) >= d]
    rows = right_rows(g, ordering)
    assert flagged_owners(flags, ordering, rows) <= set(owners)
    seen: set[int] = set()
    for v in owners:
        reps, leaves = owner_reservation(flags, r, ordering, rows, v)
        assert (len(reps), leaves) == (r, 0)
        assert reps == sorted(reps)
        assert set(reps) <= right_neighbors(g, ordering, v)
        for u in reps:
            assert u not in seen
            seen.add(u)


def test_threshold_equal_to_degeneracy_reserves_nothing():
    g = cycle_graph(6)
    ordering = degeneracy_ordering(g)
    rows = right_rows(g, ordering)
    flags, r = threshold_sdr(g, ordering, 2)
    assert r == 0
    assert flagged_owners(flags, ordering, rows) == set()
    assert owner_reservation(flags, r, ordering, rows, 0) == ([], 0)


def test_star_center_reserves_all_but_one_leaf():
    g = star_graph(8)
    ordering = degeneracy_ordering(g)
    rows = right_rows(g, ordering)
    flags, r = threshold_sdr(g, ordering, 8)
    assert r == 7
    assert flagged_owners(flags, ordering, rows) == {0}
    check_assignment(g, ordering, 8, flags, r)


def test_reps_of_non_owner_is_empty():
    g = star_graph(5)
    ordering = degeneracy_ordering(g)
    rows = right_rows(g, ordering)
    flags, r = threshold_sdr(g, ordering, 5)
    assert owner_reservation(flags, r, ordering, rows, 3)[0] == []


def three_grab_one_graph() -> Graph:
    """Owners 0, 1 and 2 each hold two of owner 3's six candidates plus four
    private ones; all four have degree 6."""
    g = Graph(22)
    for i, a in enumerate((0, 1, 2)):
        lo = 4 + 2 * i
        for u in (lo, lo + 1, 10 + 4 * i, 11 + 4 * i, 12 + 4 * i, 13 + 4 * i):
            g.add_edge(a, u)
    for u in range(4, 10):
        g.add_edge(3, u)
    return g


def test_greedy_deficit_resolved_by_reassignment():
    """Three early owners grab the fourth owner's whole candidate pool.

    Owner 3 reaches the greedy pass with every right-neighbor already held,
    so finishing requires releasing some representative back to an earlier
    owner that has a spare.  The result must still be a full disjoint family.
    """
    g = three_grab_one_graph()
    ordering = ordering_for(g, list(range(22)), 2)
    rows = right_rows(g, ordering)
    flags, r = threshold_sdr(g, ordering, 6)
    assert r == 2
    check_assignment(g, ordering, 6, flags, r)
    assert len(owner_reservation(flags, r, ordering, rows, 3)[0]) == 2


@pytest.mark.parametrize(
    "owners, want_starts", [([0, 1, 2, 3], [3, 3]), ([3, 0, 1, 2], [])]
)
def test_greedy_pass_follows_the_given_owner_order(owners, want_starts, monkeypatch):
    """The greedy pass visits the owners in the caller's order: in id order
    owner 3 finds its pool taken and starts two augments; visited first, it
    takes its pool and no augment runs.  Both end at the same family."""
    starts = []
    real_augment = linarb.sdr._augment

    def augment(start, *rest):
        starts.append(start)
        real_augment(start, *rest)

    monkeypatch.setattr(linarb.sdr, "_augment", augment)
    g = three_grab_one_graph()
    ordering = ordering_for(g, list(range(22)), 2)
    rows = targets, offsets = right_rows(g, ordering)
    flags = compute_sdr(owners, 2, targets, offsets, offsets[1:], ordering.position, [0] * g.n)
    assert starts == want_starts
    reps = {v: owner_reservation(flags, 2, ordering, rows, v) for v in range(4)}
    assert reps == {0: ([10, 11], 0), 1: ([6, 7], 0), 2: ([8, 9], 0), 3: ([4, 5], 0)}


def test_deterministic():
    rnd = random.Random(31)
    g = random_graph(rnd, 12, 30)
    ordering = degeneracy_ordering(g)
    d = max(ordering.k, max_degree(g) - 1)
    assert threshold_sdr(g, ordering, d) == threshold_sdr(g, ordering, d)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 12), st.data())
def test_random_assignments_valid(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs), min_size=1))
    g = gfrom(n, chosen)
    ordering = degeneracy_ordering(g)
    d = data.draw(st.integers(ordering.k, max_degree(g)))
    check_assignment(g, ordering, d, *threshold_sdr(g, ordering, d))


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
    got, r = threshold_sdr(g, ordering, d, pad)
    padded, padded_ordering = with_explicit_pendants(g, ordering, pad)
    padded_rows = right_rows(padded, padded_ordering)
    want, padded_r = threshold_sdr(padded, padded_ordering, d)
    assert r == padded_r
    owners = [v for v in range(padded.n) if padded.degree(v) >= d]
    assert flagged_owners(got, ordering, rows) <= set(owners)
    for v in owners:
        reps, leaves = owner_reservation(want, r, padded_ordering, padded_rows, v)
        assert leaves == 0
        real = [u for u in reps if u < g.n]
        assert owner_reservation(got, r, ordering, rows, v) == (real, len(reps) - len(real))


def phantom_deficit_case() -> tuple[Graph, DegeneracyOrdering, list[int]]:
    """Graph, ordering and padding at d = 6 where owners 0 and 1 take all four
    candidates of the unpadded owner 2."""
    g = gfrom(9, [(0, 3), (0, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8)])
    ordering = ordering_for(g, [0, 1, 7, 8, 2, 3, 4, 5, 6], 2)
    pad = [6 - g.degree(v) if g.degree(v) > 1 else 0 for v in range(g.n)]
    return g, ordering, pad


def test_augment_rejects_a_demand_no_path_meets():
    """Owner 0 must reserve two representatives but has one candidate and
    no phantom: after the greedy pass takes vertex 1, the augmenting search
    reaches no free candidate and no free phantom."""
    with pytest.raises(InternalContradictionError, match="representative demand is infeasible"):
        compute_sdr([0], 2, array("i", [1]), [0], [1], [0, 1], [0, 0])


def test_deficit_resolved_through_a_phantom():
    """Owner 2 has no padding, and owners 0 and 1 greedily take all four of
    its candidates; each augmenting path ends at a free phantom of owner 0,
    which releases a real candidate to owner 2."""
    g, ordering, pad = phantom_deficit_case()
    rows = right_rows(g, ordering)
    flags, r = threshold_sdr(g, ordering, 6, pad)
    assert owner_reservation(flags, r, ordering, rows, 0) == ([], 2)
    assert owner_reservation(flags, r, ordering, rows, 1) == ([5, 6], 0)
    assert owner_reservation(flags, r, ordering, rows, 2) == ([3, 4], 0)
    padded, padded_ordering = with_explicit_pendants(g, ordering, pad)
    rows = right_rows(padded, padded_ordering)
    flags, r = threshold_sdr(padded, padded_ordering, 6)
    assert owner_reservation(flags, r, ordering, rows, 2) == ([3, 4], 0)


def capped_graph(k: int, seed: int, n: int) -> Graph:
    """Random graph of degeneracy at most ``k``: vertex i attaches to up to
    ``k`` earlier vertices whose degree is still below ``2k^2 - k``.  The cap
    leaves many owners unpadded, so the greedy pass leaves deficits that
    augmenting paths of every kind must finish."""
    cap = required_max_degree(k, Mode.MINIMUM)
    rnd = random.Random(seed)
    degree = [0] * n
    edges = []
    for i in range(1, n):
        picked: set[int] = set()
        for _ in range(40):
            if len(picked) == min(k, i):
                break
            c = rnd.randrange(i)
            if degree[c] < cap:
                picked.add(c)
        for c in picked:
            edges.append((c, i))
            degree[c] += 1
            degree[i] += 1
    return gfrom(n, edges)


def padded_flags(g: Graph, k: int) -> bytes:
    """The reservation flags of the sweep state padding ``g`` to degree
    ``max(2k^2 - k, max degree)`` in MINIMUM mode, row after row in the
    sweep order."""
    delta = max(required_max_degree(k, Mode.MINIMUM), max_degree(g))
    state = SolverState(g, degeneracy_ordering(g), delta, (delta + 1) // 2, Mode.MINIMUM)
    return b"".join(state.reserved[lo:hi] for lo, hi in zip(state.starts, state.ends))


def unpadded_flags() -> bytes:
    g = three_grab_one_graph()
    ordering = ordering_for(g, list(range(22)), 2)
    return bytes(threshold_sdr(g, ordering, 6)[0])


def phantom_flags() -> bytes:
    g, ordering, pad = phantom_deficit_case()
    return bytes(threshold_sdr(g, ordering, 6, pad)[0])


# family -> sha256 of the reservation flags.  Between them the families end
# augmenting paths at a free candidate and at another owner's phantom, and
# reach paths through two or more intermediate owners.
FLAG_FAMILIES = {
    **{
        f"capped-k{k}-seed{seed}": (lambda k=k, seed=seed: padded_flags(capped_graph(k, seed, 300), k))
        for k in (2, 3, 4)
        for seed in range(3)
    },
    "fan-hub-last": lambda: padded_flags(fan_graph(300, False), 2),
    "fan-hub-first": lambda: padded_flags(fan_graph(300, True), 2),
    "three-grab-one": unpadded_flags,
    "phantom-deficit": phantom_flags,
}
FLAG_SHA256 = {
    "capped-k2-seed0": "32796adeaa927ffe024b1489970d19faa834197ae962ed1e95b79ca86b74e265",
    "capped-k2-seed1": "8d0b32500eb9b09ec6e630ebd1a6700d45c3babbc0b9d4df20d01108546e0d5f",
    "capped-k2-seed2": "e46d9bf50d76c89b36b25057c31d2246e1c9dba2dc187236f63e39f360d3b7ce",
    "capped-k3-seed0": "d701e8dc74de81f05dddb0de257d0026e97dbc42ce3e0c41c421036f01a2ce56",
    "capped-k3-seed1": "24094b5073a03d1bd47f230ecee68beae51eb42c5bd7645eff602725df14fc4a",
    "capped-k3-seed2": "69fd8351714d0333239038c63ca8f7e4815baacfdd742dcea39b94ddf55ef2cf",
    "capped-k4-seed0": "79efbefab0f3f2348ba830840d6823cf80749ffce4e0c97c2567e39cf9d46dfe",
    "capped-k4-seed1": "5b86e9115cfcb9850ebe7e473ed96809f4a92f509895c879bd5da36da059201f",
    "capped-k4-seed2": "412a23d2d2f2eada712f5bc631f005f60fc2d6837a709aefcae69175f27227b4",
    "fan-hub-first": "504ac7fbb13dbfb3977f059d3bdba34ee6f723e7d233e6fe0e32879788739f93",
    "fan-hub-last": "21fa7a639690abc6c2b8be139543d55e534bd36864dc61a658eb5c3f47ea5b2c",
    "phantom-deficit": "02714f457171d580be32a77e6882f07267cdd95304d21491d48ad59f76c9a0c3",
    "three-grab-one": "aa08a2fe643332cf7aa5665a5f2eb3408322432070129c90a85834fa552b056d",
}


@pytest.mark.parametrize("family", sorted(FLAG_FAMILIES))
def test_reservation_flags_are_pinned(family):
    assert hashlib.sha256(FLAG_FAMILIES[family]()).hexdigest() == FLAG_SHA256[family]


def random_sdr_call(seed: int):
    """A random graph at a random threshold, padded on odd seeds: its slack
    is wide, so it checks that no owner is augmented when none is short."""
    rnd = random.Random(seed)
    n = rnd.randrange(10, 60)
    g = random_graph(rnd, n, rnd.randrange(n, 3 * n))
    ordering = degeneracy_ordering(g)
    d = rnd.randint(min(2 * ordering.k, max_degree(g)), max_degree(g))
    pad = [rnd.randrange(3) for _ in range(n)] if seed % 2 else None
    return lambda: threshold_sdr(g, ordering, d, pad)


def unpadded_fan_call(hub_first: bool):
    g = fan_graph(300, hub_first)
    ordering = degeneracy_ordering(g)
    return lambda: threshold_sdr(g, ordering, 299)


AUGMENT_CASES = {
    **FLAG_FAMILIES,
    **{f"random-seed{seed}": random_sdr_call(seed) for seed in range(20)},
    **{
        f"random-capped-seed{seed}": (
            lambda seed=seed: padded_flags(capped_graph(2, 100 + seed, 60 + 7 * seed), 2)
        )
        for seed in range(20)
    },
    "fan-hub-last-unpadded": unpadded_fan_call(False),
    "fan-hub-first-unpadded": unpadded_fan_call(True),
}
# The cases that start at least one augment; the others start none.
AUGMENTING = {
    "capped-k2-seed0",
    "capped-k2-seed1",
    "capped-k2-seed2",
    "capped-k3-seed2",
    "fan-hub-last",
    "phantom-deficit",
    "three-grab-one",
    *(f"random-capped-seed{seed}" for seed in range(20)),
}


@pytest.mark.parametrize("case", sorted(AUGMENT_CASES))
def test_augments_start_where_the_recount_started_them(case, monkeypatch):
    """The owners the greedy pass lists as short are augmented in the order,
    and as often, as a recount of every owner's flags after that pass would
    augment them; the flags agree too."""
    seen: dict = {}
    real_sdr, real_augment = linarb.sdr.compute_sdr, linarb.sdr._augment

    def augment(start, *rest):
        seen["starts"].append(start)
        real_augment(start, *rest)

    def sdr(*args):
        seen["args"], seen["starts"] = args, []
        seen["flags"] = real_sdr(*args)
        return seen["flags"]

    monkeypatch.setattr(linarb.sdr, "_augment", augment)
    monkeypatch.setattr(linarb.sdr, "compute_sdr", sdr)
    monkeypatch.setattr(linarb.solver, "compute_sdr", sdr)
    AUGMENT_CASES[case]()
    want_starts, want_flags = reference_augment_starts(*seen["args"])
    assert seen["starts"] == want_starts
    assert seen["flags"] == want_flags
    assert bool(want_starts) == (case in AUGMENTING)


def test_hall_exhaustive_small():
    g = star_graph(6)
    assert hall_certificate_check(g, degeneracy_ordering(g), 6)


def test_hall_sampled_subsets():
    g = three_grab_one_graph()
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
