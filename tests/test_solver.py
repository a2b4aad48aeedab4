import ast
import hashlib
import os
import random
import subprocess
import sys
import time
import weakref
from itertools import islice, product
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import linarb.solver
from linarb import (
    DegeneracyOrdering,
    Graph,
    InternalContradictionError,
    Mode,
    PreconditionError,
    SolverState,
    class_count_for,
    decompose,
    degeneracy_ordering,
    generate_k_degenerate,
    max_degree,
    required_max_degree,
    verify_partition,
)
from linarb.coloring import NIL, ForestColoring
from linarb.solver import _fit_leaves, _leaf_rows, _plan, _slot_order, place_light_edge
from conftest import (
    Pairs,
    capped_instance,
    coloring_problems,
    complete_graph,
    cycle_graph,
    edge_key,
    endpoint_recolor_fixture,
    fan_graph,
    gfrom,
    ordering_for,
    path_graph,
    path_partner_swap_fixture,
    pendant_partner_fixture,
    random_peel_ordering,
    reference_decompose_by_component,
    reference_owner_slots,
    right_rows,
    star_graph,
    state_edge_ids,
    unreachable_after,
    unreserved_trade_fixture,
    write_cell,
)


# ------------------------------------------------------------- thresholds


def test_required_max_degree_table():
    assert required_max_degree(1, Mode.MINIMUM) == 1
    assert required_max_degree(1, Mode.LAC) == 1
    assert required_max_degree(2, Mode.MINIMUM) == 6
    assert required_max_degree(2, Mode.LAC) == 4
    assert required_max_degree(3, Mode.MINIMUM) == 15
    assert required_max_degree(3, Mode.LAC) == 12
    assert required_max_degree(4, Mode.MINIMUM) == 28
    assert required_max_degree(4, Mode.LAC) == 24


def test_class_count_table():
    assert class_count_for(0, 0, Mode.MINIMUM) == 0
    assert class_count_for(7, 2, Mode.MINIMUM) == 4
    assert class_count_for(8, 2, Mode.MINIMUM) == 4
    assert class_count_for(9, 2, Mode.MINIMUM) == 5
    assert class_count_for(4, 2, Mode.LAC) == 3
    assert class_count_for(5, 2, Mode.LAC) == 3
    assert class_count_for(6, 3, Mode.LAC) == 4
    # Forests take the plain halved bound in both modes.
    assert class_count_for(6, 1, Mode.LAC) == 3
    assert class_count_for(7, 1, Mode.LAC) == 4


# ---------------------------------------------------------------- padding


def test_solver_state_rejects_unpaddable_inputs():
    # Maximum degree 1: an ordering that claims degeneracy 2 passes the
    # threshold check, but nothing can be padded.
    g = path_graph(2)
    with pytest.raises(PreconditionError, match="maximum degree"):
        SolverState(g, ordering_for(g, [0, 1], 2), 6, 3, Mode.MINIMUM)
    # Target below the maximum degree.
    g = generate_k_degenerate(n=30, k=2, delta_min=8, seed=4)
    with pytest.raises(PreconditionError, match="below maximum degree"):
        SolverState(g, degeneracy_ordering(g), 7, 4, Mode.MINIMUM)


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("shift", [-1, 1])
def test_solver_state_rejects_a_class_count_off_the_mode(mode, shift):
    """A class count other than ``class_count_for`` is the caller's error:
    it is a PreconditionError before the sweep, not a class-budget
    contradiction at the first owner."""
    g = generate_k_degenerate(n=300, k=2, delta_min=7, seed=5)
    ordering = degeneracy_ordering(g)
    delta = max_degree(g)
    t = class_count_for(delta, ordering.k, mode)
    with pytest.raises(PreconditionError, match=f"needs {t} classes, got {t + shift}$"):
        SolverState(g, ordering, delta, t + shift, mode)
    assert len(SolverState(g, ordering, delta, t, mode).run()) == g.edge_count


@pytest.mark.parametrize("seed", range(12))
def test_shared_right_rows_match_the_reference(seed):
    """The one right-row table holds the reference row at every position
    of the sweep order, ascending by id, also when the graph's own rows are
    not; the id beside each slot is the position in the edge table of the
    edge from the row's owner to the slot's target; and each K2 edge lies
    in the row of its earlier endpoint, also when the larger id comes
    first."""
    rnd = random.Random(seed)
    k = rnd.choice((2, 3))
    base = generate_k_degenerate(rnd.randrange(k + 3, 60), k, 2 * k * k, seed)
    edges = base.edges()
    pairs = [(base.n + 2 * i, base.n + 2 * i + 1) for i in range(seed % 4)]
    edges += pairs
    rnd.shuffle(edges)
    n = base.n + 2 * len(pairs)
    g = Graph.from_edges(n, ((v, u) if rnd.random() < 0.5 else (u, v) for u, v in edges))
    delta = max_degree(g)
    t = class_count_for(delta, k, Mode.LAC)
    ordering = degeneracy_ordering(g)
    if seed % 2:
        # Each K2 edge's endpoints in random order at the end; the peeling
        # order otherwise puts the larger id first.
        ends = [x for e in pairs for x in (e if rnd.random() < 0.5 else e[::-1])]
        ordering = ordering_for(g, [v for v in ordering.order if v < base.n] + ends, k)
    state = SolverState(g, ordering, delta, t, Mode.LAC)
    targets, offsets = right_rows(g, state.ordering)
    order, table = state.ordering.order, list(g._edges)
    bounds = list(zip(state.starts, state.ends))
    for i, (lo, hi) in enumerate(bounds):
        assert state.targets[lo:hi].tolist() == targets[offsets[i]:offsets[i + 1]]
        assert [table[e] for e in state.ids[lo:hi]] == [
            edge_key(order[i], u) for u in state.targets[lo:hi]
        ]
    ids = sorted(state.ids[s] for lo, hi in bounds for s in range(lo, hi))
    assert ids == list(range(g.edge_count))
    # Past the degree-D block, only K2 edges, one to a row.
    tail = [(order[i], state.targets[lo]) for i, (lo, hi) in enumerate(bounds)
            if i >= state.n_high and hi > lo]
    assert sorted(edge_key(*e) for e in tail) == pairs
    if not seed % 2:
        assert all(v > u for v, u in tail)
    coloring = state.run()
    assert all(coloring[e] == 0 for e in pairs)


@pytest.mark.parametrize("k, mode, seed", [(2, Mode.MINIMUM, 1), (3, Mode.LAC, 2), (2, Mode.LAC, 3)])
def test_shuffled_pairs_color_as_the_sorted_pairs_do(k, mode, seed):
    """One graph built twice, from its sorted pairs and from the same pairs
    shuffled and pair-swapped, whose adjacency rows are then not ascending:
    the second build's rows are sorted into the reference rows, each slot's
    id names the edge from the row's owner to the slot's target, and every
    edge gets the same class from both builds."""
    rnd = random.Random(seed)
    base = generate_k_degenerate(300, k, required_max_degree(k, mode), seed)
    pairs = base.edges()
    shuffled = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in pairs]
    rnd.shuffle(shuffled)
    sorted_g = Graph.from_edges(base.n, pairs)
    g = Graph.from_edges(base.n, shuffled)
    assert any(row != sorted(row) for row in g._adj)
    peel = degeneracy_ordering(g)
    delta = max_degree(g)
    table = list(g._edges)
    for ordering in peel, random_peel_ordering(g, peel.k, rnd):
        state = SolverState(g, ordering, delta, class_count_for(delta, peel.k, mode), mode)
        if ordering is peel:
            assert state.ordering is peel
        targets, offsets = right_rows(g, state.ordering)
        order, position = state.ordering.order, state.ordering.position
        # Each range is its vertex's degree: the slots a row leaves free, up
        # to the next range or the table's end, are its earlier neighbors.
        nxt = [*state.starts[1:], len(state.targets)]
        for i, (lo, hi) in enumerate(zip(state.starts, state.ends)):
            v = order[i]
            assert nxt[i] - hi == sum(position[u] < i for u in g.neighbors(v))
            assert state.targets[lo:hi].tolist() == targets[offsets[i]:offsets[i + 1]]
            for s in range(lo, hi):
                assert table[state.ids[s]] == edge_key(v, state.targets[s])
    want = decompose(sorted_g, mode).coloring
    got = decompose(g, mode).coloring
    assert list(got) == table
    assert got == want


def test_solver_state_sweeps_isolated_vertices():
    # Isolated vertices before, between and after the edges' vertices: they
    # get no padding, trail the sweep, and change no edge's class.
    g0 = generate_k_degenerate(n=60, k=2, delta_min=8, seed=4)
    shift = 3
    g = Graph(g0.n + 2 * shift + 1)
    for u, v in g0.edges():
        g.add_edge(u + shift + (u >= 30), v + shift + (v >= 30))
    isolated = [v for v in range(g.n) if g.degree(v) == 0]
    assert len(isolated) == 2 * shift + 1
    ordering = degeneracy_ordering(g)
    delta = max_degree(g)
    t = class_count_for(delta, ordering.k, Mode.MINIMUM)
    state = SolverState(g, ordering, delta, t, Mode.MINIMUM, debug=True)
    assert all(state.pad[v] == 0 for v in isolated)
    assert set(state.ordering.order[state.n_high:]) >= set(isolated)
    coloring = state.run()
    assert len(coloring) == g.edge_count
    assert verify_partition(g, {e: c + 1 for e, c in coloring.items()}, t).valid
    alone = SolverState(g0, degeneracy_ordering(g0), delta, t, Mode.MINIMUM).run()
    back = {v: v - shift - (v >= 30 + shift + 1) for v in range(g.n)}
    assert {(back[u], back[v]): c for (u, v), c in coloring.items()} == alone


@pytest.mark.parametrize("extra", [1, 3])
def test_sweep_colors_edges_between_two_leaves(extra):
    # Disjoint edges join two degree-1 vertices, which the sweep skips.
    g0 = generate_k_degenerate(n=200, k=2, delta_min=6, seed=3)
    n0 = g0.n
    pairs = [(n0 + 2 * i, n0 + 2 * i + 1) for i in range(extra)]
    g = Graph.from_edges(n0 + 2 * extra, g0.edges() + pairs)
    base = degeneracy_ordering(g0)
    order = base.order + [x for e in pairs for x in e]
    ordering = ordering_for(g, order, base.k)
    delta = max_degree(g0)
    t = class_count_for(delta, base.k, Mode.MINIMUM)
    coloring = SolverState(g, ordering, delta, t, Mode.MINIMUM, debug=True).run()
    assert all(coloring[e] == 0 for e in pairs)
    alone = SolverState(g0, base, delta, t, Mode.MINIMUM).run()
    assert {e: c for e, c in coloring.items() if e not in pairs} == alone
    assert verify_partition(g, {e: c + 1 for e, c in coloring.items()}, t).valid


def expected_pendants(g, delta):
    return sum(delta - g.degree(v) for v in range(g.n) if 1 < g.degree(v) < delta)


def class_counts(classes, t):
    """The entries of a list of classes, counted per class."""
    counts = [0] * t
    for j in classes:
        counts[j] += 1
    return counts


def leaf_counts(state):
    """The leaves of the owner under repair, per class, from both lists."""
    return class_counts(state.spare_leaves + state.reserved_leaves, state.t)


def record_leaves(monkeypatch, state):
    """Map each owner to the number of leaves its step placed, read from
    per-class leaf rows: those of ``reference_owner_slots`` on the row the
    step fit its leaves into, which is the owner's class row less its
    reserved edges, or the counts of the leaf lists its repair moved.  The
    slot plans are kept in a table and computed only for new cases, so the
    hooks rebuild that row for every owner instead, with the sweep run one
    position at a time: before its repair, if it has one, else at the end
    of its step.  There they check that the reserved edges took the
    reference's first slots and that a repair starts from the reference's
    leaves; at the end of every step, that the leaves fit beside the edges
    in every class and with them make degree ``delta``."""
    counts = {}
    sweep, repair, repaired = state._sweep, state._repair, set()
    r, cls = state.r, state.fc.edge_class

    def reference_leaves(v):
        i = state.ordering.position[v]
        rep_edges = [state.ids[s] for s in range(state.starts[i], state.ends[i])
                     if state.reserved[s]]
        fitted = state.fc.row(v)
        for e in rep_edges:
            fitted[cls[e]] -= 1
        nrep = len(rep_edges)
        slots, leaves, _ = reference_owner_slots(fitted, 0, state.pad[v] - r + nrep, nrep, r)
        assert [cls[e] for e in rep_edges] == slots[:nrep]
        return leaves

    def repairing(v, *args):
        assert leaf_counts(state) == reference_leaves(v)
        repair(v, *args)
        repaired.add(v)

    def stepping(positions):
        for i in positions:
            sweep(range(i, i + 1))
            v = state.ordering.order[i]
            leaves = leaf_counts(state) if v in repaired else reference_leaves(v)
            assert max(map(add, state.fc.row(v), leaves)) <= 2
            counts[v] = sum(leaves)
            assert state.delta - sum(state.fc.row(v)) == counts[v]

    monkeypatch.setattr(state, "_repair", repairing)
    monkeypatch.setattr(state, "_sweep", stepping)
    return counts


def check_leaf_counts(g, delta, state, counts):
    assert counts == {v: delta - g.degree(v) for v in range(g.n) if g.degree(v) > 1}
    assert sum(counts.values()) == state.stats.pendants_added == expected_pendants(g, delta)


@pytest.mark.parametrize(
    "k, mode, seed", [(2, Mode.MINIMUM, 1), (3, Mode.LAC, 2), (4, Mode.MINIMUM, 3)]
)
def test_pendants_added_counts_the_padding(monkeypatch, k, mode, seed):
    """Every vertex of degree 2..delta-1 is padded up to delta, and each
    owner's step places exactly its share of the leaves."""
    g = generate_k_degenerate(n=40, k=k, delta_min=required_max_degree(k, mode) + 1, seed=seed)
    result = decompose(g, mode)
    assert result.stats.pendants_added == expected_pendants(g, result.delta) > 0
    base = degeneracy_ordering(g)
    state = SolverState(g, base, result.delta, result.t, mode)
    counts = record_leaves(monkeypatch, state)
    state.run()
    check_leaf_counts(g, result.delta, state, counts)


@pytest.mark.parametrize("debug", [False, True])
def test_owner_capacity_check_fires_outside_debug(monkeypatch, debug):
    """ForestColoring caps edges alone, so the sweep compares each owner's
    class row with its padding: ``pad[v]`` one too high or one too low, or
    one class-row entry off by one, raises with or without debug checks, at
    owner 2 (no leaves, no repair) and at owner 4 (leaves and a repair).
    Owner 2's fault, made before its step, meets the exact class budget;
    owner 4's, made after its repair, the check that follows a repair.
    After a repair the built leaf lists are checked too: a leaf moved into
    a full class raises."""
    g, ordering, delta, t = pendant_partner_fixture()
    assert ordering.order[0] == 2 and ordering.order[4] == 4

    def pad_high(state, v):
        state.pad[v] += 1

    def pad_low(state, v):
        state.pad[v] -= 1

    def row_entry(state, v):
        row = state.fc.row(v)
        write_cell(state.fc, v, 0, degree=row[0] - 1 if row[0] else 1)

    for tamper in (pad_high, pad_low, row_entry):
        state = SolverState(g, ordering, delta, t, Mode.MINIMUM, debug=debug)
        tamper(state, 2)
        with pytest.raises(InternalContradictionError, match="class budget .* at owner 2"):
            state._sweep(range(1))

        state = SolverState(g, ordering, delta, t, Mode.MINIMUM, debug=debug)
        state._sweep(range(4))
        repair = state._repair

        def tampered(v, *args, state=state, repair=repair, tamper=tamper):
            repair(v, *args)
            tamper(state, v)

        monkeypatch.setattr(state, "_repair", tampered)
        with pytest.raises(InternalContradictionError, match="owner 4 has .* colored edges and padding"):
            state._sweep(range(4, 5))

    state = SolverState(g, ordering, delta, t, Mode.MINIMUM, debug=debug)
    repair = state._repair

    def overfull(v, *args):
        repair(v, *args)
        row, counts = state.fc.row(v), leaf_counts(state)
        low = next(j for j in range(t) if counts[j])
        counts[low] -= 1
        full = next(j for j in range(t) if row[j] + counts[j] == 2)
        leaves = state.spare_leaves if low in state.spare_leaves else state.reserved_leaves
        leaves[leaves.index(low)] = full

    monkeypatch.setattr(state, "_repair", overfull)
    with pytest.raises(InternalContradictionError, match="leaves for padding"):
        state.run()


@pytest.mark.parametrize("debug", [False, True])
def test_exact_budget_catches_a_fault_the_range_let_through(debug):
    """In LAC mode at an even maximum degree D, ``t = D/2 + 1``, so an
    owner's exact budget ``2t - D + r`` is ``r + 2``.  Two padding leaves
    too many leave it ``r``, inside the range ``[r, r + 2]`` the sweep once
    checked, which raised only after the reserved edges were placed; the
    exact check raises on the budget, before any of them is colored."""
    g = generate_k_degenerate(n=200, k=2, delta_min=6, seed=3)
    ordering, delta = degeneracy_ordering(g), max_degree(g)
    t = class_count_for(delta, ordering.k, Mode.LAC)
    state = SolverState(g, ordering, delta, t, Mode.LAC, debug=debug)
    r = state.r
    assert delta % 2 == 0 and 2 * t - delta + r == r + 2
    rows = [range(state.starts[i], state.ends[i]) for i in range(state.n_high)]
    i = next(i for i in range(state.n_high // 2, state.n_high)
             if any(state.reserved[s] for s in rows[i]))
    state._sweep(range(i))
    v = state.ordering.order[i]
    state.pad[v] += 2
    with pytest.raises(InternalContradictionError, match=f"class budget {r} at owner {v}, not {r + 2}"):
        state._sweep(range(i, i + 1))
    assert all(state.fc.edge_class[state.ids[s]] == NIL for s in rows[i] if state.reserved[s])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_slot_arithmetic_matches_the_class_loop(data):
    """The owner step's row arithmetic against the per-class loop it
    replaced (``reference_owner_slots``), on random class rows of up to 300
    classes: the same class budget, the same slot order (the reserved edges
    take its first ``nrep`` slots), and the same leaves per class, with the
    spare leaves listed in ascending order."""
    t = data.draw(st.integers(1, 300), label="t")
    row = bytearray(x % 3 for x in data.draw(st.binary(min_size=t, max_size=t), label="row"))
    ptr = data.draw(st.integers(0, t), label="ptr")
    tail = row[ptr:]
    spare = data.draw(st.integers(0, 2 * len(tail) + 2), label="spare")
    budget = 2 * tail.count(0) + tail.count(1) - spare
    try:
        slots, _, _ = reference_owner_slots(row, ptr, spare, 0, 0)
    except ValueError:
        assert budget < 0
        return
    assert budget == len(slots)
    m, left = _fit_leaves(tail, spare)
    assert [ptr + c for c in _slot_order(tail, m, left)] == slots
    r = data.draw(st.integers(0, budget + 2), label="r")
    nrep = data.draw(st.integers(0, r), label="nrep")
    _, leaves, res = reference_owner_slots(row, ptr, spare, nrep, r)
    spare_leaves, reserved_leaves = _leaf_rows(ptr, tail, m, left, nrep, r)
    assert spare_leaves == sorted(spare_leaves)
    assert class_counts(reserved_leaves, t) == res
    assert class_counts(spare_leaves + reserved_leaves, t) == leaves


def test_plan_table_hands_out_fresh_plans():
    """Every class row of length up to 4 over {0, 1, 2}, with every spare
    leaf count and reserved count its budget admits, asked of one shared
    plan table twice, in opposite orders: each answer, hit or miss, is a
    fresh ``_fit_leaves`` with the first ``nrep`` slots of ``_slot_order``,
    and those slots are the class loop's (``reference_owner_slots``)."""
    cases = [
        (bytes(row), spare, nrep)
        for size in range(5)
        for row in product(range(3), repeat=size)
        for spare in range(2 * size - sum(row) + 1)
        for nrep in range(2 * size - sum(row) - spare + 1)
    ]
    plans = {}
    for tail, spare, nrep in cases + cases[::-1]:
        m, left = _fit_leaves(tail, spare)
        slots = tuple(islice(_slot_order(tail, m, left), nrep))
        assert _plan(plans, tail, spare, nrep) == (m, left, slots)
        assert list(slots) == reference_owner_slots(list(tail), 0, spare, nrep, nrep)[0][:nrep]
    assert len(plans) == len(cases) == 1691


def test_debug_sweep_rejects_a_stale_plan(monkeypatch):
    """A plan table that hands a later owner a plan its own case would not
    produce raises under debug checks, before the plan places an edge."""
    plan = linarb.solver._plan

    def poisoning(plans, tail, spare, nrep):
        found = plan(plans, tail, spare, nrep)
        m, left, slots = found
        plans[tail, spare, nrep] = (m, left, tuple(c + 1 for c in slots))
        return found

    monkeypatch.setattr(linarb.solver, "_plan", poisoning)
    g = generate_k_degenerate(n=200, k=2, delta_min=6, seed=3)
    with pytest.raises(InternalContradictionError, match="stale plan"):
        decompose(g, debug_checks=True)


def test_solve_stats_count_plans_and_time_repairs_alone():
    """``slot_plans`` counts the plans computed: a generated degeneracy-2
    graph presents few distinct cases to its 5000 owners (391 at this seed),
    and K(2,N) three whatever N.  ``repair_ms`` reads zero without a
    repair."""
    g = generate_k_degenerate(n=5000, k=2, delta_min=8, seed=1)
    stats = decompose(g).stats
    owners = sum(g.degree(v) > 1 for v in range(g.n))
    assert stats.slot_plans <= 400 < owners // 12
    assert stats.repair_iterations == 0 and stats.repair_ms == 0.0
    for n in (50, 400, 2000):
        g = Graph.from_edges(n + 2, [(i, n + h) for h in (0, 1) for i in range(n)])
        assert decompose(g).stats.slot_plans <= 3
    assert run_fixture(endpoint_recolor_fixture).stats.repair_ms > 0


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_decompose_with_a_given_ordering_matches_its_own_peel(monkeypatch, mode, k, seed):
    """Handed the ordering it would peel, ``decompose`` peels nothing and
    returns the same map, item by item, the same parameters and the same
    counters."""
    rnd = random.Random(seed)
    g = generate_k_degenerate(rnd.randrange(30, 300), k,
                              required_max_degree(k, mode) + rnd.randrange(4), seed)
    ordering = degeneracy_ordering(g)
    want = decompose(g, mode)
    calls = []

    def counting(h):
        calls.append(h)
        return degeneracy_ordering(h)

    monkeypatch.setattr(linarb.solver, "degeneracy_ordering", counting)
    got = decompose(g, mode, ordering=ordering)
    assert calls == []
    assert list(got.coloring.items()) == list(want.coloring.items())
    assert (got.t, got.k, got.delta) == (want.t, want.k, want.delta) and got.k == min(k, g.n - 1)
    got_counts, want_counts = ({x: c for x, c in vars(r.stats).items() if not x.endswith("_ms")}
                               for r in (got, want))
    assert got_counts == want_counts
    assert 0 <= got.stats.order_ms <= got.stats.wall_ms


# A forest-path ordering that is not trusted blindly: the pairing would walk
# a cycle forever or, on a large graph, grow until the process is killed.  So
# each case runs in a fresh interpreter under a time limit and a memory cap.
FOREST_ORDERING_CASE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from linarb import (DegeneracyOrdering, Graph, PreconditionError, decompose,
                    degeneracy_ordering, generate_k_degenerate)
n, k, delta, seed, given_k = map(int, sys.argv[1:])
if n == 3:
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
else:
    g = generate_k_degenerate(n, k, delta, seed)
peel = degeneracy_ordering(g)
try:
    decompose(g, ordering=DegeneracyOrdering(peel.order, peel.position, given_k))
except PreconditionError as exc:
    print(exc)
"""


@pytest.mark.parametrize("case, want", [
    ("3 2 2 0 0", "vertex 0 has 2 earlier neighbors, more than k = 0"),
    ("3 2 2 0 1", "vertex 0 has 2 earlier neighbors, more than k = 1"),
    ("300 3 26 1 1", "earlier neighbors, more than k = 1"),
], ids=["triangle-k0", "triangle-k1", "k3-graph-k1"])
def test_decompose_rejects_a_forest_ordering_of_a_cyclic_graph(case, want):
    path = [str(Path(linarb.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", FOREST_ORDERING_CASE, *case.split()],
                          capture_output=True, text=True, env=env, timeout=30)
    assert done.returncode == 0, done.stderr
    assert want in done.stdout


def test_decompose_rejects_an_ordering_it_cannot_sweep(monkeypatch):
    """A given ordering is checked before any solving: another graph's, one
    naming a vertex twice, and a valid order whose k is too small all raise
    :class:`PreconditionError`, in both modes, before any representative is
    selected."""
    selected = []
    monkeypatch.setattr(linarb.solver, "compute_sdr", lambda *a: selected.append(a))
    g = generate_k_degenerate(300, 3, 26, 1)
    peel = degeneracy_ordering(g)
    assert peel.k == 3
    other = degeneracy_ordering(generate_k_degenerate(200, 3, 26, 1))
    twice = DegeneracyOrdering([peel.order[0], *peel.order[:-1]], peel.position, 3)
    reversed_order = peel.order[::-1]
    position = [0] * g.n
    for i, v in enumerate(reversed_order):
        position[v] = i
    backwards = DegeneracyOrdering(reversed_order, position, 3)
    understated = DegeneracyOrdering(peel.order, peel.position, 2)
    not_a_permutation = f"no permutation of the graph's {g.n} vertices"
    for mode in Mode:
        for ordering in other, twice:
            with pytest.raises(PreconditionError, match=not_a_permutation):
                decompose(g, mode, ordering=ordering)
        for ordering, k in (backwards, 3), (understated, 2):
            with pytest.raises(PreconditionError, match=f"earlier neighbors, more than k = {k}$"):
                decompose(g, mode, ordering=ordering)
    assert selected == []
    # The peel's own ordering passes the same checks.
    monkeypatch.undo()
    assert decompose(g, ordering=peel).k == 3


def test_sweep_reads_each_class_row_once_without_a_repair(monkeypatch):
    """Without a repair or debug checks an owner's step reads its class row
    once, to place its edges: the exact budget bounds its degree, so no
    second read confirms it.  On a generated degeneracy-2 graph and on
    K(2,N)."""
    read, calls = ForestColoring.row, 0

    def counting(fc, v):
        nonlocal calls
        calls += 1
        return read(fc, v)

    monkeypatch.setattr(ForestColoring, "row", counting)
    graphs = [generate_k_degenerate(n=5000, k=2, delta_min=8, seed=1)]
    graphs += [Graph.from_edges(n + 2, [(i, n + h) for h in (0, 1) for i in range(n)])
               for n in (50, 400)]
    for g in graphs:
        ordering, delta = degeneracy_ordering(g), max_degree(g)
        t = class_count_for(delta, ordering.k, Mode.MINIMUM)
        state = SolverState(g, ordering, delta, t, Mode.MINIMUM)
        calls = 0
        state.run()
        assert state.stats.repair_iterations == 0
        assert calls == state.n_high > 0


def sweep_line_events(delta_min: int) -> int:
    """The line events that ``SolverState.run`` executes in solver.py on a
    2000-vertex degeneracy-2 graph whose lifted hub has degree ``delta_min``."""
    g = generate_k_degenerate(n=2000, k=2, delta_min=delta_min, seed=0)
    base = degeneracy_ordering(g)
    delta = max_degree(g)
    state = SolverState(g, base, delta, class_count_for(delta, 2, Mode.MINIMUM), Mode.MINIMUM)
    events = 0

    def on_line(frame, event, arg):
        nonlocal events
        if event == "line":
            events += 1
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename == linarb.solver.__file__ else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        state.run()
    finally:
        sys.settrace(previous)
    return events


def test_sweep_line_count_does_not_follow_the_class_count():
    """Quadrupling the hub's degree, and so t, on the same 2000 vertices
    adds only the hub's 300 edges; the solver's Python lines must not grow
    with t.  A step that walked every class per owner ran 3.6x the lines."""
    assert sweep_line_events(400) < 1.3 * sweep_line_events(100)


# -------------------------------------------------------- light placement


def test_place_light_edge_prefers_smallest_class():
    p = Pairs(4)
    fc = p.coloring(3)
    assert place_light_edge(fc, p(0, 1), 0, 1) == 0
    assert place_light_edge(fc, p(0, 2), 0, 2) == 1
    fc.assign(p(1, 2), 1, 2, 2)
    assert place_light_edge(fc, p(0, 3), 0, 3) == 2


def test_place_light_edge_skips_classes_where_y_is_internal():
    p = Pairs(6)
    fc = p.coloring(2)
    fc.assign(p(1, 2), 1, 2, 0)
    fc.assign(p(1, 3), 1, 3, 0)  # y = 1 is internal in class 0
    assert place_light_edge(fc, p(0, 1), 0, 1) == 1
    assert fc.edge_class[p(0, 1)] == 1


def test_place_light_edge_budget_violation_detected():
    p = Pairs(8)
    fc = p.coloring(2)
    fc.assign(p(0, 1), 0, 1, 0)
    fc.assign(p(0, 2), 0, 2, 0)
    fc.assign(p(0, 3), 0, 3, 1)
    fc.assign(p(0, 4), 0, 4, 1)
    # x = 0 has degree 4 in 2 classes: 2*5 + 1 > 2*2 + 2.
    with pytest.raises(InternalContradictionError, match="violates"):
        place_light_edge(fc, p(0, 5), 0, 5)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_place_light_edge_feasible_states_never_fail(data):
    """Random states meeting 2*d(x) + d(y) <= 2t + 2 always accept the edge
    in the smallest class untouched at x where y is not internal, and no
    third vertex's class profile moves.  x is bare in half the examples and
    has colored edges in the other half."""
    t = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(4, 10))
    p = Pairs(n)
    fc = p.coloring(t)
    rnd = random.Random(data.draw(st.integers(0, 10**6)))
    touched = data.draw(st.booleans())
    y = data.draw(st.integers(2, n - 1))
    x = 1 if touched else 0  # vertex 0 stays bare
    for _ in range(rnd.randrange(3 * t) + (2 * t if touched else 0)):
        u, v = rnd.sample(range(1 if touched else 2, n), 2)
        j = rnd.randrange(t)
        if (
            fc.edge_class[p(u, v)] == NIL
            and (u, v) not in ((x, y), (y, x))
            and fc.row(u)[j] < 2
            and fc.row(v)[j] < 2
            and v not in fc.walk(j, u)
        ):
            fc.assign(p(u, v), u, v, j)
    dx, dy = sum(fc.row(x)), sum(fc.row(y))
    if touched and dx == 0:
        return
    if 2 * (dx + 1) + (dy + 1) > 2 * t + 2:
        return
    row_x, row_y = fc.row(x), fc.row(y)
    before = {v: [fc.row(v)[j] for j in range(t)] for v in range(n) if v not in (x, y)}
    j = place_light_edge(fc, p(x, y), x, y)
    assert j == min(c for c in range(t) if row_x[c] == 0 and row_y[c] <= 1)
    assert fc.edge_class[p(x, y)] == j
    assert fc.row(x)[j] == 1
    assert fc.row(y)[j] <= 2
    for v, row in before.items():
        assert [fc.row(v)[j] for j in range(t)] == row
    assert coloring_problems(fc, p.ends) == []


# ---------------------------------------------------------------- solver


def check_decomposition(g, result):
    report = verify_partition(g, result.coloring, result.t)
    assert report.valid, report.violations[:3]
    assert len(result.coloring) == g.edge_count
    return report


def test_star_splits_into_halved_classes():
    g = star_graph(6)
    result = decompose(g)
    assert result.t == 3
    assert result.k == 1
    assert result.delta == 6
    report = check_decomposition(g, result)
    assert report.optimal


def test_path_uses_single_class():
    g = path_graph(5)
    result = decompose(g)
    assert result.t == 1
    assert set(result.coloring.values()) == {1}
    check_decomposition(g, result)


def test_single_edge():
    g = path_graph(2)
    result = decompose(g)
    assert result.t == 1
    assert result.coloring == {(0, 1): 1}


def test_empty_graph_and_isolated_vertices():
    result = decompose(Graph(3))
    assert result.t == 0
    assert result.coloring == {}
    g = gfrom(4, [(0, 1), (1, 2)])
    result = decompose(g)
    assert result.coloring == {(0, 1): 1, (1, 2): 1}
    check_decomposition(g, result)


def test_dense_small_graph_rejected_with_actionable_message():
    with pytest.raises(PreconditionError) as info:
        decompose(complete_graph(4))
    msg = str(info.value)
    assert "15" in msg and "degeneracy 3" in msg


def test_lac_threshold_is_lower():
    # Degeneracy 2 at maximum degree 4: below the 6 needed for MINIMUM,
    # exactly at the 4 needed for LAC.
    g = gfrom(9, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5), (0, 6), (1, 7), (1, 8)])
    assert max_degree(g) == 4
    with pytest.raises(PreconditionError):
        decompose(g, Mode.MINIMUM)
    result = decompose(g, Mode.LAC)
    assert result.t == 3
    check_decomposition(g, result)


def test_mode_accepts_strings():
    g = star_graph(4)
    assert decompose(g, "minimum").t == 2
    assert decompose(g, "lac").t == 2


def test_forest_with_high_degree_needs_no_threshold():
    g = star_graph(30)
    result = decompose(g)
    assert result.k == 1
    assert result.t == 15
    report = check_decomposition(g, result)
    assert report.optimal


def test_two_degenerate_instance_reaches_lower_bound():
    g = generate_k_degenerate(n=80, k=2, delta_min=9, seed=3)
    result = decompose(g)
    assert result.k == 2
    assert result.t == (result.delta + 1) // 2
    report = check_decomposition(g, result)
    assert report.optimal


def test_three_degenerate_instance_reaches_lower_bound():
    g = generate_k_degenerate(n=120, k=3, delta_min=15, seed=5)
    result = decompose(g)
    assert result.k == 3
    assert result.t == (result.delta + 1) // 2
    report = check_decomposition(g, result)
    assert report.optimal


def test_components_solved_independently():
    g1 = generate_k_degenerate(n=40, k=2, delta_min=7, seed=1)
    offset = g1.n
    g2 = star_graph(5)
    g = Graph(offset + g2.n)
    for u, v in g1.edges():
        g.add_edge(u, v)
    for u, v in g2.edges():
        g.add_edge(offset + u, offset + v)
    result = decompose(g)
    check_decomposition(g, result)


def test_decompose_deterministic():
    g = generate_k_degenerate(n=70, k=2, delta_min=8, seed=11)
    a = decompose(g)
    b = decompose(g)
    assert a.coloring == b.coloring
    assert a.t == b.t


def test_debug_checks_pass_on_generated_instances():
    for seed in (0, 1):
        g = generate_k_degenerate(n=50, k=2, delta_min=7, seed=seed)
        result = decompose(g, debug_checks=True)
        check_decomposition(g, result)


def test_pendant_padding_counted():
    g = generate_k_degenerate(n=50, k=2, delta_min=7, seed=2)
    result = decompose(g)
    assert result.stats.pendants_added > 0
    # Pendants never leak into the reported coloring.
    assert all(u < g.n and v < g.n for u, v in result.coloring)


def test_lac_mode_on_eligible_windows():
    found = 0
    for seed in range(200):
        g = generate_k_degenerate(n=14, k=2, delta_min=4, seed=seed)
        if max_degree(g) > 5:
            continue
        result = decompose(g, Mode.LAC)
        assert result.t == result.delta // 2 + 1
        check_decomposition(g, result)
        found += 1
        if found == 5:
            break
    assert found >= 1


# ----------------------------------------------------- repair strategies


def run_fixture(fixture):
    g, ordering, delta, t = fixture()
    state = SolverState(g, ordering, delta, t, Mode.MINIMUM, debug=True)
    coloring = state.run()
    report = verify_partition(g, {e: c + 1 for e, c in coloring.items()}, t)
    assert report.valid, report.violations[:3]
    return state


def test_repair_by_trading_with_unreserved_edge():
    state = run_fixture(unreserved_trade_fixture)
    assert state.stats.repairs_unreserved == 1
    assert state.stats.repair_iterations == 1


def test_repair_by_swapping_along_free_class_path():
    state = run_fixture(path_partner_swap_fixture)
    assert state.stats.repairs_owner_free == 1
    assert state.stats.repair_iterations == 1


def test_repair_by_recoloring_to_endpoint_free_class():
    state = run_fixture(endpoint_recolor_fixture)
    assert state.stats.repairs_endpoint_free == 1
    assert state.stats.repair_iterations == 1


def test_solves_repairs_and_debug_checks_leave_no_cyclic_garbage():
    """The CLI runs each command with the cyclic collector off.  That is
    safe because a solve and its verification, a repair and a debug solve
    create no reference cycles, so reference counting frees all of it."""
    g = capped_instance(2, 8, 2000, random.Random(3))

    def solve_and_verify():
        result = decompose(g)
        assert verify_partition(g, result.coloring, result.t).valid

    def repair():
        assert run_fixture(endpoint_recolor_fixture).stats.repair_iterations == 1

    assert unreachable_after(solve_and_verify) == 0
    assert unreachable_after(repair) == 0
    assert unreachable_after(lambda: decompose(g, debug_checks=True)) == 0


def test_repair_by_swapping_with_a_reserved_pendant():
    """The endpoint-free move finds its class held at the owner only by a
    reserved leaf, and swaps the cycle edge with it."""
    g, ordering, delta, t = pendant_partner_fixture()
    state = SolverState(g, ordering, delta, t, Mode.MINIMUM, debug=True)
    assert state.run() == {
        (0, 1): 1, (0, 2): 2, (0, 4): 2, (0, 5): 0, (1, 2): 0, (1, 3): 2,
        (2, 3): 0, (2, 4): 1, (2, 5): 2, (2, 6): 1, (4, 6): 2,
    }
    assert state.stats.repair_iterations == state.stats.repairs_endpoint_free == 1
    assert state.stats.pendants_added == 20


def test_reserved_partner_ranks_real_edges_before_leaves():
    """A reserved leaf is a swap partner only when no real reserved edge
    holds the class, as its pendant id followed every real vertex.  No sweep
    found yet reaches a class holding both, so the rule is pinned directly."""
    g, ordering, delta, t = pendant_partner_fixture()
    state = SolverState(g, ordering, delta, t, Mode.MINIMUM)
    e46 = state_edge_ids(state)[4, 6]
    state.fc.assign(e46, 4, 6, 2)
    state.reserved_leaves = [1, 2]  # one reserved leaf in each of classes 1 and 2
    rep_edge = {6: e46}
    assert state._reserved_partner(rep_edge, 0, 2) == ("swap", 2, e46, 6)
    assert state._reserved_partner(rep_edge, 0, 1) == ("reserved leaf", 1)
    assert state._reserved_partner(rep_edge, 6, 2) == ("reserved leaf", 2)
    assert state._reserved_partner(rep_edge, 0, 0) is None


def test_unreserved_leaf_trade_follows_pendant_order():
    """When only a spare leaf can take the cycle edge, the first leaf in
    pendant order whose class differs from the edge's wins, not the lowest
    class: after one trade the list is no longer sorted.  Pinned directly on
    a hand-set state where every class but the edge's is full at the owner
    and the edge's far end has another edge in its class."""
    g, ordering, delta, t = pendant_partner_fixture()
    state = SolverState(g, ordering, delta, t, Mode.MINIMUM)
    ids = state_edge_ids(state, [(5, 6)])
    state.fc.assign(ids[4, 6], 4, 6, 0)
    state.fc.assign(ids[5, 6], 5, 6, 0)
    state.spare_leaves = [2, 1, 1, 2]
    move = state._choose_repair_move(4, {6: ids[4, 6]}, [], 6, 0)
    assert move == ("spare leaf", 2, 0)
    assert state.stats.repairs_unreserved == 1


def test_owner_free_move_takes_a_reserved_leaf_when_the_walk_leaves_the_path():
    """The owner-free move at class 1, held at the owner only by a reserved
    leaf: the class-1 walk from w = 6 stops at 5 without reaching owner 4,
    so the partner is that leaf.  Pinned on a hand-set state: class 2 is
    untouched at 6 but full at 4, and 6 has a class-0 edge beside 4-6."""
    g, ordering, delta, t = pendant_partner_fixture()
    state = SolverState(g, ordering, delta, t, Mode.MINIMUM)
    ids = state_edge_ids(state, [(5, 6)])
    for u, v, j in [(4, 6, 0), (0, 4, 0), (2, 6, 0), (2, 4, 2), (5, 6, 1)]:
        state.fc.assign(ids[u, v], u, v, j)
    state.spare_leaves, state.reserved_leaves = [2], [1]
    assert state._partner_on_path(4, 6, 1) is None
    move = state._choose_repair_move(4, {6: ids[4, 6]}, [], 6, 0)
    assert move == ("reserved leaf", 1)
    assert state.stats.repairs_owner_free == 1


def test_owner_free_move_recolors_into_a_class_empty_at_the_owner():
    """In LAC mode an owner can have a class with no edge and no leaf: owner
    4 (t = 4) holds 4-6 and its reserved leaf in class 0, 0-4 and 2-4 in
    class 2, and two spare leaves in class 3.  Class 1 is empty at 4 but
    taken at w = 6 by 5-6, and the classes untouched at 6 are full at 4, so
    the owner-free move recolors 4-6 into class 1.  Pinned on a hand-set
    state."""
    g, ordering, delta, _ = pendant_partner_fixture()
    t = class_count_for(delta, 2, Mode.LAC)
    state = SolverState(g, ordering, delta, t, Mode.LAC)
    ids = state_edge_ids(state, [(5, 6)])
    for u, v, j in [(4, 6, 0), (2, 6, 0), (0, 4, 2), (2, 4, 2), (5, 6, 1)]:
        state.fc.assign(ids[u, v], u, v, j)
    state.spare_leaves, state.reserved_leaves = [3, 3], [0]
    move = state._choose_repair_move(4, {6: ids[4, 6]}, [], 6, 0)
    assert move == ("recolor", 1)
    assert state.stats.repairs_owner_free == 1
    assert state.stats.repairs_endpoint_free == 0


@pytest.mark.parametrize("reserved", [0, 1])
def test_leaf_trades_update_the_counts_a_later_iteration_reads(reserved):
    """Two leaf trades at one owner: the second move is chosen from the
    bookkeeping the first trade left.  Owner 0 has reserved edges 0-1 on the
    class-0 cycle 0-1-5-4 and 0-2 on the class-1 cycle 0-2-6-3, and its two
    leaves in class 2, the first of them reserved when ``reserved`` is 1.
    Each trade moves a leaf into the cycle edge's old class, so the second
    trade takes the leaf that moved to class 0: the first spare leaf in
    pendant order, or the reserved leaf now listed there.  Pinned
    on a hand-set state, as no sweep found yet trades twice at one owner."""
    g, ordering, delta, t = pendant_partner_fixture()
    state = SolverState(g, ordering, delta, t, Mode.MINIMUM)
    fc = state.fc
    hand_set = [(0, 1, 0), (1, 5, 0), (4, 5, 0), (0, 4, 0),
                (0, 2, 1), (2, 6, 1), (3, 6, 1), (0, 3, 1),
                (1, 4, 1), (2, 5, 2)]
    ids = state_edge_ids(state, [(u, v) for u, v, _ in hand_set])
    for u, v, j in hand_set:
        fc.assign(ids[u, v], u, v, j)
    state.spare_leaves, state.reserved_leaves = [2] * (2 - reserved), [2] * reserved
    state._repair(0, {1: ids[0, 1], 2: ids[0, 2]}, [])
    assert (fc.edge_class[ids[0, 1]], fc.edge_class[ids[0, 2]]) == (2, 0)
    assert leaf_counts(state) == [0, 1, 1]
    assert class_counts(state.reserved_leaves, t) == [0, reserved, 0]
    assert state.stats.repair_iterations == 2
    moved = state.stats.repairs_endpoint_free if reserved else state.stats.repairs_unreserved
    assert moved == 2
    assert coloring_problems(fc, list(ids)) == []


def test_pending_headroom_check_fires_on_an_internal_reserved_vertex():
    """The debug headroom scan raises once a vertex reserved by a later
    owner has two edges of one class, and stops watching it at its owner's
    position.  Vertex 6 is in the right list of vertex 2, at position 0,
    and is reserved by vertex 4, at position 4.  The state is hand-set by
    adding a second class-1 edge 5-6 beside 2-6; vertex 5 is reserved by
    vertex 2, whose step this is, so only 6 is pending."""
    g, ordering, delta, t = pendant_partner_fixture()
    state = SolverState(g, ordering, delta, t, Mode.MINIMUM, debug=True)
    state._sweep(range(1))
    assert state._touched == [2, 0, 1, 3, 4, 5, 6]
    assert state.reserved_owner_pos[5] == 0 and state.reserved_owner_pos[6] == 4
    ids = state_edge_ids(state, [(5, 6)])
    assert state.fc.edge_class[ids[2, 6]] == 1
    state._check_pending_headroom(0)
    state.fc.assign(ids[5, 6], 5, 6, 1)
    with pytest.raises(InternalContradictionError, match="reserved vertex 6 became internal"):
        state._check_pending_headroom(0)
    state._check_pending_headroom(4)


def test_tiled_fixture_copies_match_the_single_copy():
    """One SolverState sweeping disjoint copies of the endpoint-recolor
    fixture, one copy after another, colors every copy exactly as the
    fixture alone: the class paths left by a repair in one component must
    answer the next component's cycle checks correctly."""
    g1, ordering1, delta, t = endpoint_recolor_fixture()
    single = SolverState(g1, ordering1, delta, t, Mode.MINIMUM).run()
    copies, n1 = 40, g1.n
    g = Graph.from_edges(
        copies * n1,
        [(b * n1 + u, b * n1 + v) for b in range(copies) for u, v in g1.edges()],
    )
    order = [b * n1 + x for b in range(copies) for x in ordering1.order]
    state = SolverState(g, ordering_for(g, order, 2), delta, t, Mode.MINIMUM, debug=True)
    coloring = state.run()
    for b in range(copies):
        lo = b * n1
        block = {(u - lo, v - lo): c for (u, v), c in coloring.items() if lo <= u < lo + n1}
        assert block == single
    assert state.stats.repair_iterations == copies
    report = verify_partition(g, {e: c + 1 for e, c in coloring.items()}, t)
    assert report.valid, report.violations[:3]


def test_repairs_under_random_orderings_are_pinned():
    """Byte-identity pin for the repair path: capped degeneracy-2 graphs
    grown from 10-19 vertices, at the threshold degree of each mode, swept
    under seeded random peel orders.  The sha256 of the colorings and the summed repair
    counters were recorded before the repair state became two leaf lists;
    the family repairs 186 times, three of them by an unreserved trade."""
    digest = hashlib.sha256()
    counters = [0, 0, 0, 0]
    for seed in range(2500):
        rnd = random.Random(seed)
        mode = (Mode.MINIMUM, Mode.LAC)[seed % 2]
        delta = required_max_degree(2, mode)
        g = capped_instance(2, delta, rnd.randrange(10, 20), rnd)
        ordering = random_peel_ordering(g, 2, rnd)
        state = SolverState(g, ordering, delta, class_count_for(delta, 2, mode), mode)
        coloring = state.run()
        digest.update("".join(f"{u} {v} {c}\n" for (u, v), c in sorted(coloring.items())).encode())
        stats = state.stats
        for i, count in enumerate((stats.repair_iterations, stats.repairs_endpoint_free,
                                   stats.repairs_owner_free, stats.repairs_unreserved)):
            counters[i] += count
    assert (counters, digest.hexdigest()) == (
        [186, 183, 0, 3], "6623fa419b484d165ba744d7e27fcd99516bf74531554ecf6caf0ded03e83881"
    )


def test_solver_state_rejects_forests_and_thin_graphs():
    g = path_graph(6)
    with pytest.raises(PreconditionError):
        SolverState(g, degeneracy_ordering(g), 2, 1, Mode.MINIMUM)
    h = cycle_graph(5)
    with pytest.raises(PreconditionError):
        SolverState(h, degeneracy_ordering(h), 2, 1, Mode.MINIMUM)


def test_stepwise_sweep_keeps_every_invariant(monkeypatch):
    """Driving positions one at a time with debug scans enabled must hold
    the headroom and consistency invariants at every prefix."""
    g = generate_k_degenerate(n=35, k=2, delta_min=6, seed=9)
    base = degeneracy_ordering(g)
    delta = max_degree(g)
    t = class_count_for(delta, base.k, Mode.MINIMUM)
    state = SolverState(g, base, delta, t, Mode.MINIMUM, debug=True)
    counts = record_leaves(monkeypatch, state)
    ends = list(g._edges)
    for i in range(state.n_high):
        state._sweep(range(i, i + 1))
        assert coloring_problems(state.fc, ends) == []
    assert state.fc.edge_class.count(NIL) == 0
    check_leaf_counts(g, delta, state, counts)
    report = verify_partition(g, {e: c + 1 for e, c in zip(ends, state.fc.edge_class)}, t)
    assert report.valid


@pytest.mark.parametrize("fixture", [
    endpoint_recolor_fixture, path_partner_swap_fixture, pendant_partner_fixture,
    unreserved_trade_fixture,
])
def test_repaired_owners_start_from_the_reference_leaves(monkeypatch, fixture):
    """Each fixture repairs one owner: its leaf lists start as the class
    loop's leaves and, moved by the repair, still fit beside its edges."""
    g, ordering, delta, t = fixture()
    state = SolverState(g, ordering, delta, t, Mode.MINIMUM, debug=True)
    counts = record_leaves(monkeypatch, state)
    state.run()
    assert state.stats.repair_iterations >= 1
    check_leaf_counts(g, delta, state, counts)


def test_padding_stays_implicit_on_a_lifted_hub():
    """One hub lifted to degree 200 in a 5000-vertex graph of degeneracy 2:
    padding every other vertex to 200 takes about a million pendants, none
    of which may become a vertex of the coloring state."""
    g = generate_k_degenerate(n=5000, k=2, delta_min=200, seed=7)
    delta = max_degree(g)
    t = class_count_for(delta, 2, Mode.MINIMUM)
    state = SolverState(g, degeneracy_ordering(g), delta, t, Mode.MINIMUM)
    assert state.fc.n == g.n
    coloring = state.run()
    assert state.stats.pendants_added == expected_pendants(g, delta) > 900_000
    report = verify_partition(g, {e: c + 1 for e, c in coloring.items()}, t)
    assert report.valid and report.optimal


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_random_instances_verify_valid_and_tight(seed):
    g = generate_k_degenerate(n=55, k=2, delta_min=7, seed=seed)
    result = decompose(g)
    report = verify_partition(g, result.coloring, result.t)
    assert report.valid
    assert result.t == (result.delta + 1) // 2


# ------------------------------------------------ metamorphic properties
#
# Each transformation below keeps the degeneracy and the maximum degree, so
# decompose must return the same class count, and a partition the verifier
# accepts.


def _relabel(g, delta, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _shuffle_edges(g, delta, rnd):
    edges = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in g.edges()]
    rnd.shuffle(edges)
    return Graph.from_edges(g.n, edges)


def _add_isolated(g, delta, rnd):
    return Graph.from_edges(g.n + rnd.randint(1, 5), g.edges())


def _union_forest(g, delta, rnd):
    """Disjoint union with a random forest of maximum degree <= delta."""
    size = rnd.randint(1, 30)
    deg = [0] * size
    edges = g.edges()
    for i in range(1, size):
        parents = [p for p in range(i) if deg[p] < delta]
        if parents and rnd.random() < 0.9:
            p = rnd.choice(parents)
            deg[p] += 1
            deg[i] += 1
            edges.append((g.n + p, g.n + i))
    return Graph.from_edges(g.n + size, edges)


@pytest.mark.parametrize("transform", [_relabel, _shuffle_edges, _add_isolated, _union_forest])
@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 3),
    mode=st.sampled_from(list(Mode)),
    extra=st.integers(0, 20),
    seed=st.integers(0, 2**32),
    rnd=st.randoms(use_true_random=False),
)
def test_decompose_metamorphic(transform, k, mode, extra, seed, rnd):
    g = generate_k_degenerate(k + 1 + extra, k, required_max_degree(k, mode), seed)
    base = decompose(g, mode)
    h = transform(g, base.delta, rnd)
    result = decompose(h, mode)
    assert (result.t, result.k, result.delta) == (base.t, base.k, base.delta)
    check_decomposition(h, result)


# ------------------------------------------------ whole-graph sweep
#
# decompose sweeps the whole graph under one degeneracy ordering; the
# per-component solve it replaced is kept in conftest as the oracle.


def _disjoint_union(parts, isolated, rnd):
    """The disjoint union of ``parts`` plus ``isolated`` bare vertices, with
    the vertex ids shuffled so the components interleave."""
    n = sum(p.n for p in parts) + isolated
    perm = list(range(n))
    rnd.shuffle(perm)
    edges = []
    offset = 0
    for p in parts:
        edges += [(perm[offset + u], perm[offset + v]) for u, v in p.edges()]
        offset += p.n
    rnd.shuffle(edges)
    return Graph.from_edges(n, edges)


@st.composite
def _k_degenerate_parts(draw, k, mode, count):
    """``count`` graphs of degeneracy exactly ``k``; the first one reaches
    the degree threshold of ``mode``."""
    need = required_max_degree(k, mode)
    parts = []
    for i in range(count):
        lo = need if i == 0 else 0
        delta_min = draw(st.integers(lo, need + 3))
        n = draw(st.integers(k + 2, 40))
        parts.append(generate_k_degenerate(n, k, delta_min, draw(st.integers(0, 2**32))))
    return parts


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(2, 4),
    mode=st.sampled_from(list(Mode)),
    count=st.integers(1, 4),
    isolated=st.integers(0, 3),
    data=st.data(),
    rnd=st.randoms(use_true_random=False),
)
def test_whole_graph_sweep_equals_per_component_solve(k, mode, count, isolated, data, rnd):
    """Every component with edges has the global degeneracy: the one sweep
    colors each exactly as solving it alone did."""
    parts = data.draw(_k_degenerate_parts(k, mode, count))
    g = _disjoint_union(parts, isolated, rnd)
    result = decompose(g, mode)
    coloring, t, k_ref, delta = reference_decompose_by_component(g, mode)
    assert (result.t, result.k, result.delta) == (t, k_ref, delta)
    assert sorted(result.coloring.items()) == sorted(coloring.items())
    check_decomposition(g, result)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(2, 3),
    mode=st.sampled_from(list(Mode)),
    forests=st.integers(0, 3),
    lower=st.integers(0, 2),
    k2s=st.integers(0, 3),
    isolated=st.integers(0, 3),
    data=st.data(),
    rnd=st.randoms(use_true_random=False),
)
def test_whole_graph_sweep_on_mixed_components(
    k, mode, forests, lower, k2s, isolated, data, rnd
):
    """Forest components, components of a lower degeneracy and single edges
    beside a k-degenerate one: the one sweep keeps t, k and delta and gives
    a valid partition."""
    parts = data.draw(_k_degenerate_parts(k, mode, 1))
    delta = max_degree(parts[0])
    for _ in range(forests):
        n, top = data.draw(st.integers(2, 30)), data.draw(st.integers(0, delta))
        parts.append(generate_k_degenerate(n, 1, top, rnd.randrange(2**32)))
    for _ in range(lower):
        n = data.draw(st.integers(k + 1, 30))
        parts.append(generate_k_degenerate(n, k - 1, 0, rnd.randrange(2**32)))
    parts += [path_graph(2)] * k2s
    g = _disjoint_union(parts, isolated, rnd)
    result = decompose(g, mode)
    _, t, k_ref, delta_ref = reference_decompose_by_component(g, mode)
    assert (result.t, result.k, result.delta) == (t, k_ref, delta_ref)
    check_decomposition(g, result)


def caterpillar_beside(g: Graph, rnd: random.Random) -> Graph:
    """``g`` with a caterpillar beside it: a spine of ids below its leaves,
    each spine vertex of degree at most 4.  A spine vertex drops to degree 1
    in the peel while leaves of larger id remain, so the peel puts a leaf
    before a vertex of degree 2 or more."""
    pairs = list(g.edges())
    spine = list(range(g.n, g.n + 12))
    pairs += list(zip(spine, spine[1:]))
    leaf = spine[-1] + 1
    for x in spine:
        for _ in range(rnd.randint(x in (spine[0], spine[-1]), 2)):
            pairs.append((x, leaf))
            leaf += 1
    return Graph.from_edges(leaf, pairs)


@pytest.mark.parametrize("leafy", [False, True], ids=["generated", "leaf-heavy"])
@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_sweep_keeps_a_partitioned_peel_and_maps_from_first(seed, k, mode, leafy):
    """The state sweeps the peel's own ordering object exactly when it
    already lists every vertex of degree 2 or more first, and otherwise the
    stable partition of it; either way the map, keys in order, is the one
    the partitioned order gives, and ``first`` only shifts its classes."""
    rnd = random.Random(seed)
    g = generate_k_degenerate(rnd.randrange(40, 120), k,
                              required_max_degree(k, mode) + rnd.randrange(3), seed)
    if leafy:
        g = caterpillar_beside(g, rnd)
    base = degeneracy_ordering(g)
    delta = max_degree(g)
    t = class_count_for(delta, k, mode)
    order = sorted(base.order, key=lambda v: g.degree(v) <= 1)
    want = ordering_for(g, order, k)
    state = SolverState(g, base, delta, t, mode)
    assert (state.ordering is base) == (order == base.order) == (not leafy)
    assert (state.ordering.order, state.ordering.position) == (want.order, want.position)
    zero = state.run()
    one = SolverState(g, want, delta, t, mode).run(first=1)
    assert list(one.items()) == [(e, c + 1) for e, c in zero.items()]
    assert list(decompose(g, mode).coloring.items()) == list(one.items())
    assert verify_partition(g, one, t).valid


def test_decompose_computes_one_ordering(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return degeneracy_ordering(g)

    monkeypatch.setattr(linarb.solver, "degeneracy_ordering", counting)
    g1 = generate_k_degenerate(n=40, k=2, delta_min=7, seed=1)
    parts = [g1, star_graph(5), path_graph(2), path_graph(4)]
    g = _disjoint_union(parts, 2, random.Random(3))
    result = decompose(g)
    assert calls == [g]
    check_decomposition(g, result)
    calls.clear()
    forest = _disjoint_union([star_graph(6), path_graph(5)], 1, random.Random(4))
    result = decompose(forest)
    assert result.k == 1
    assert calls == [forest]
    check_decomposition(forest, result)


# ------------------------------------------------ edge ids and reproducers

# sha256 of the sorted "u v c" lines, each ending in a newline (the CLI's
# text body), of the fan graph's coloring; recorded from the solver that
# kept classes in a dict keyed by edge tuples.
FAN_SHA256 = "10bb892f5faa4f1afa10518f1309af6b72fea8a6083ed1c6fd16dbd6d5ba3672"


def lines_sha256(coloring: dict[tuple[int, int], int]) -> str:
    h = hashlib.sha256()
    for (u, v), c in sorted(coloring.items()):
        h.update(f"{u} {v} {c}\n".encode())
    return h.hexdigest()


def test_fan_graph_uses_classes_past_a_byte():
    """k=2, delta=600 and t=300: the class array holds classes above 255,
    through decompose and through SolverState.run alike."""
    g = fan_graph(601)
    result = decompose(g)
    assert (result.k, result.delta, result.t) == (2, 600, 300)
    assert verify_partition(g, result.coloring, result.t).valid
    assert 300 in result.coloring.values()
    assert lines_sha256(result.coloring) == FAN_SHA256
    part = SolverState(g, degeneracy_ordering(g), 600, 300, Mode.MINIMUM).run()
    shifted = {e: c + 1 for e, c in part.items()}
    assert verify_partition(g, shifted, 300).valid
    assert 300 in shifted.values()
    assert shifted == result.coloring


def test_run_counts_uncolored_edges_by_the_sentinel():
    """An edge between two degree-1 vertices left uncolored is caught by
    the class array's sentinel count at the end of run(): with the K2 edge
    cut from its row, no loop reaches its id, and without the count run()
    would return a map whose entry for it is None."""
    g0 = generate_k_degenerate(n=200, k=2, delta_min=6, seed=3)
    n0 = g0.n
    g = Graph.from_edges(n0 + 2, g0.edges() + [(n0, n0 + 1)])
    base = degeneracy_ordering(g0)
    ordering = ordering_for(g, base.order + [n0, n0 + 1], base.k)
    delta = max_degree(g0)
    t = class_count_for(delta, base.k, Mode.MINIMUM)
    state = SolverState(g, ordering, delta, t, Mode.MINIMUM)
    i = state.ordering.position[n0]
    assert state.targets[state.starts[i]:state.ends[i]].tolist() == [n0 + 1]
    state.ends[i] -= 1
    with pytest.raises(InternalContradictionError, match="sweep left 1 edges uncolored"):
        state.run()


def test_edge_ids_are_edge_table_positions():
    """Every edge's id is its position in the graph's edge table, listed
    once in the row of its earlier endpoint in the sweep order, so the
    class array lines up with the table and the map keeps its order."""
    g, ordering, delta, t = pendant_partner_fixture()
    state = SolverState(g, ordering, delta, t, Mode.MINIMUM)
    ids = state_edge_ids(state)
    assert list(ids.values()) == list(range(g.edge_count))
    assert len(state.fc.edge_class) == g.edge_count
    pos = state.ordering.position
    for (u, v), e in ids.items():
        i = min(pos[u], pos[v])
        assert e in state.ids[state.starts[i]:state.ends[i]]
    coloring = state.run()
    assert list(coloring) == list(g._edges)


class _WatchedTable(dict):
    """An edge table that calls ``seen`` each time it is iterated."""

    def __init__(self, table, seen):
        super().__init__(table)
        self.seen = seen

    def __iter__(self):
        self.seen()
        return super().__iter__()


def test_run_releases_the_coloring_before_building_the_map():
    """The output map is the largest structure of a solve, so run() drops
    the row table, the coloring tables and the reservations before it
    iterates the edge table to build the map.  A bytearray takes no weak
    reference, so the flags are checked by count: the state's reference is
    gone when the map is built."""
    g, ordering, delta, t = pendant_partner_fixture()
    state = SolverState(g, ordering, delta, t, Mode.MINIMUM)
    alive, flags = weakref.ref(state.fc), state.reserved
    seen = []
    held = sys.getrefcount(flags)
    g._edges = _WatchedTable(g._edges, lambda: seen.append(
        (alive(), sys.getrefcount(flags), hasattr(state, "targets"), hasattr(state, "ids"))
    ))
    coloring = state.run()
    assert seen == [(None, held - 1, False, False)] * 2
    assert list(coloring) == list(g._edges)


def test_repair_contradiction_dump_lists_the_owner_leaves(monkeypatch):
    """The same idle move at owner 4 of ``pendant_partner_fixture``, which
    holds two spare leaves in class 0 and a reserved leaf in class 2: the
    message's leaf line shows the rows built for that owner's repair."""
    monkeypatch.setattr(
        SolverState, "_choose_repair_move", lambda self, *args: ("recolor", args[-1])
    )
    monkeypatch.delenv("LINARB_DUMP_DIR", raising=False)
    g, ordering, delta, t = pendant_partner_fixture()
    with pytest.raises(InternalContradictionError) as failed:
        SolverState(g, ordering, delta, t, Mode.MINIMUM).run()
    assert str(failed.value) == (
        "repair failed at owner 4: move ('recolor', 1) did not shrink the cycle set\n"
        "  degeneracy=2 delta=6 t=3 mode=minimum\n"
        "  reserved=[6] bad=[6]\n"
        "  reserved colors=[1]\n"
        "  owner class degrees=[0, 2, 1]\n"
        "  owner leaves=[2, 0, 1]"
    )


def test_repair_contradiction_without_dump_dir_writes_nothing(monkeypatch, tmp_path):
    monkeypatch.setattr(
        SolverState, "_choose_repair_move", lambda self, *args: ("recolor", args[-1])
    )
    monkeypatch.delenv("LINARB_DUMP_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    g, ordering, delta, t = endpoint_recolor_fixture()
    with pytest.raises(InternalContradictionError, match="did not shrink"):
        SolverState(g, ordering, delta, t, Mode.MINIMUM).run()
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------- forest path


def random_forest(rnd: random.Random, n: int) -> Graph:
    """A forest on ``n`` shuffled vertex ids: each vertex but the first
    hangs on an earlier one, half the time on one of the first three (which
    become hubs), or starts a new tree; a few vertices stay isolated."""
    label = list(range(n))
    rnd.shuffle(label)
    edges = []
    for i in range(1, n):
        if rnd.random() < 0.1:
            continue
        parent = rnd.randrange(min(i, 3)) if rnd.random() < 0.5 else rnd.randrange(i)
        edges.append((label[parent], label[i]))
    return Graph.from_edges(n, edges)


def caterpillar(rnd: random.Random, spine: int) -> Graph:
    """A path of ``spine`` vertices, each with a random number of leaves, so
    children meet a parent edge in every class position."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i in range(spine):
        for _ in range(rnd.randrange(0, 9)):
            edges.append((i, n))
            n += 1
    return Graph.from_edges(n, edges)


def forest_family(name: str) -> list[Graph]:
    rnd = random.Random(name)
    if name == "random":
        return [random_forest(rnd, rnd.randrange(2, 90)) for _ in range(120)]
    if name == "star":
        stars = [star_graph(leaves) for leaves in range(1, 41)]
        # A center in the middle of the id range, and two stars side by side.
        stars.append(Graph.from_edges(31, [(15, i) for i in range(31) if i != 15]))
        pair = [(0, i) for i in range(1, 12)] + [(12, i) for i in range(13, 20)]
        stars.append(Graph.from_edges(20, pair))
        return stars
    return [caterpillar(rnd, rnd.randrange(1, 12)) for _ in range(60)]


# sha256, per family, of every forest's sorted "u v c" lines, each graph's
# block headed by its "n m" line; recorded from the forest path that kept a
# per-vertex array of class loads.  Forests get ceil(D/2) classes in both
# modes, so both modes must give these digests.
FOREST_SHA256 = {
    "random": "a3bebb653a7b8b9437b47972998450311828918790edf1efa01823db181028bf",
    "star": "6dec9b0422d515e7c65e3b0b32907e23434a7b09b17f49600ee8a8245578d160",
    "caterpillar": "31fde598a13d04cd15b84a4049064cdae35a486b7c0b146705efd1e6574f6f04",
}


@pytest.mark.parametrize("mode", ["minimum", "lac"])
@pytest.mark.parametrize("family", sorted(FOREST_SHA256))
def test_forest_colorings_are_pinned(family, mode):
    h = hashlib.sha256()
    for g in forest_family(family):
        result = decompose(g, mode)
        assert result.k <= 1
        check_decomposition(g, result)
        h.update(f"{g.n} {g.edge_count}\n".encode())
        for (u, v), c in sorted(result.coloring.items()):
            h.update(f"{u} {v} {c}\n".encode())
    assert h.hexdigest() == FOREST_SHA256[family]


def test_large_star_decomposes_in_linear_time():
    """A star with 100,000 leaves needs t = 50,000 classes; a per-vertex
    table of t class loads made the forest path O(n * t) here."""
    g = star_graph(100_000)
    start = time.perf_counter()
    result = decompose(g)
    report = verify_partition(g, result.coloring, result.t)
    elapsed = time.perf_counter() - start
    assert report.valid and result.t == 50_000
    assert elapsed < 3.0, f"{elapsed:.2f} s"


def test_solver_reads_no_table_of_the_coloring():
    """The sweep asks the coloring where a class path goes only through
    ``ForestColoring.walk``, and reads class degrees only through
    ``ForestColoring.row``; it never indexes the tables itself.  Outside
    ``coloring.py``, no module of the package and no test module but
    ``conftest.py`` names a table, and nothing defines or names a method
    deleted from the coloring, the graph or the solver, so a change of
    storage stays inside ``coloring.py`` and that helper."""
    tables = {"_cd", "_nb1", "_nb2", "_total"}
    gone = {
        "_next_on_walk", "_path_end", "class_neighbors", "class_degree",
        "colored_degree", "validate", "would_close_cycle", "add_vertex", "has_edge",
        "cycle_containing", "process_vertex",
    }
    package = Path(linarb.solver.__file__).parent
    tests = Path(__file__).parent
    files = sorted(package.glob("*.py")) + sorted(tests.glob("*.py"))
    assert package / "solver.py" in files and Path(__file__) in files
    for f in files:
        tree = ast.parse(f.read_text())
        defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        used = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        if f.name in ("coloring.py", "conftest.py"):
            used -= tables
        assert not (defined | used) & gone, (f.name, sorted((defined | used) & gone))
        assert not used & tables, (f.name, sorted(used & tables))
