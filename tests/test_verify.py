import ast
import random
from collections import namedtuple
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linarb.verify
from linarb import decompose, generate_k_degenerate, verify_partition
from linarb.verify import (
    DEGREE_OVERFLOW,
    MONOCHROMATIC_CYCLE,
    UNCOLORED_EDGE,
    UNKNOWN_EDGE,
)
from conftest import (
    complete_graph,
    cycle_graph,
    gfrom,
    path_graph,
    random_graph,
    reference_verify_partition,
    star_graph,
)


def kinds(report):
    return sorted({v.kind for v in report.violations})


def test_valid_partition_of_path():
    g = path_graph(4)
    report = verify_partition(g, {(0, 1): 1, (1, 2): 2, (2, 3): 1}, 2)
    assert report.valid
    assert not report.optimal  # lower bound is 1
    assert report.class_count == 2
    assert report.lower_bound == 1
    assert report.violations == []


def test_optimal_requires_meeting_lower_bound():
    g = path_graph(3)
    report = verify_partition(g, {(0, 1): 1, (1, 2): 1}, 1)
    assert report.valid and report.optimal


def test_missing_edge_reported():
    g = path_graph(3)
    report = verify_partition(g, {(0, 1): 1}, 1)
    assert not report.valid
    assert kinds(report) == [UNCOLORED_EDGE]
    assert report.violations[0].edge == (1, 2)


def test_foreign_edge_reported():
    g = path_graph(3)
    report = verify_partition(g, {(0, 1): 1, (1, 2): 1, (0, 2): 1}, 1)
    assert not report.valid
    assert kinds(report) == [UNKNOWN_EDGE]


def test_unnormalized_key_is_unknown():
    g = path_graph(3)
    report = verify_partition(g, {(1, 0): 1, (1, 2): 1}, 1)
    assert UNKNOWN_EDGE in kinds(report)
    assert UNCOLORED_EDGE in kinds(report)


def test_out_of_range_class_is_unknown():
    g = path_graph(3)
    for bad in (0, 3, -1, "x", None):
        report = verify_partition(g, {(0, 1): bad, (1, 2): 1}, 2)
        assert not report.valid
        assert UNKNOWN_EDGE in kinds(report)


def test_degree_overflow_reported():
    g = star_graph(3)
    report = verify_partition(g, {(0, 1): 1, (0, 2): 1, (0, 3): 1}, 2)
    assert not report.valid
    assert kinds(report) == [DEGREE_OVERFLOW]
    v = report.violations[0]
    assert v.vertex == 0 and v.class_index == 1


def test_monochromatic_cycle_reported():
    g = cycle_graph(4)
    all_one = {e: 1 for e in g.edges()}
    report = verify_partition(g, all_one, 2)
    assert not report.valid
    assert kinds(report) == [MONOCHROMATIC_CYCLE]
    fixed = dict(all_one)
    fixed[(0, 1)] = 2
    assert verify_partition(g, fixed, 2).valid


def test_long_cycle_does_not_recurse():
    n = 50_000
    g = cycle_graph(n)
    report = verify_partition(g, {e: 1 for e in g.edges()}, 1)
    assert kinds(report) == [MONOCHROMATIC_CYCLE]


def test_overflowing_class_skips_cycle_walk():
    g = gfrom(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    report = verify_partition(g, {e: 1 for e in g.edges()}, 1)
    assert DEGREE_OVERFLOW in kinds(report)
    assert MONOCHROMATIC_CYCLE not in kinds(report)


def test_degrees_are_counted_only_for_an_overflowing_class(monkeypatch):
    calls = []
    real = linarb.verify.Counter

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linarb.verify, "Counter", counting)
    for k in (2, 3):
        g = generate_k_degenerate(n=60, k=k, delta_min=2 * k * k - k, seed=k)
        result = decompose(g)
        assert result.t > 1
        assert verify_partition(g, result.coloring, result.t).valid
    assert calls == []
    g = star_graph(4)
    report = verify_partition(g, {e: 1 for e in g.edges()}, 1)
    assert len(calls) == 1
    assert [(v.kind, v.vertex, v.detail) for v in report.violations] == [
        (DEGREE_OVERFLOW, 0, "vertex 0 has 4 edges in class 1")
    ]


def test_report_round_trips_to_dict():
    g = path_graph(3)
    report = verify_partition(g, {(0, 1): 1}, 1)
    d = report.as_dict()
    assert d["valid"] is False
    assert d["violations"][0]["kind"] == UNCOLORED_EDGE
    assert d["violations"][0]["edge"] == [1, 2]


def test_all_violations_listed_not_just_first():
    g = gfrom(5, [(0, 1), (1, 2), (2, 3)])
    coloring = {(0, 1): 1, (2, 3): 99, (0, 4): 1}
    report = verify_partition(g, coloring, 1)
    assert len(report.violations) == 3
    assert kinds(report) == sorted({UNCOLORED_EDGE, UNKNOWN_EDGE})


def test_solver_output_passes_verification():
    for seed in range(8):
        g = generate_k_degenerate(n=60, k=2, delta_min=7, seed=seed)
        result = decompose(g)
        report = verify_partition(g, result.coloring, result.t)
        assert report.valid
        assert report.optimal


# ------------------------------------------ differential against the reference


def assert_same_report(g, coloring, class_count):
    got = verify_partition(g, coloring, class_count).as_dict()
    want = reference_verify_partition(g, coloring, class_count).as_dict()
    # repr also tells True from 1, and (False, 1) from (0, 1), in the report
    assert repr(got) == repr(want)


BAD_CLASSES = (True, False, 0, -1, 10**9, 1.0, "x", None)


def corrupt(rnd, g, coloring, t, ops):
    """Apply ``ops`` to a copy of ``coloring`` with the stream ``rnd``."""
    col = dict(coloring)
    for op in ops:
        keys = sorted(col, key=repr)
        key = rnd.choice(keys) if keys else None
        if op == "drop" and key is not None:
            del col[key]
        elif op == "foreign" and g.n >= 2:
            u, v = sorted(rnd.sample(range(g.n), 2))
            if (u, v) not in col:
                col[(u, v)] = rnd.randint(1, t)
        elif op == "out_of_range":
            col[rnd.choice([(-1, 0), (0, g.n), (g.n, g.n + 3), (2, 2)])] = 1
        elif op in ("reverse", "float", "bool") and key is not None:
            c = col.pop(key)
            u, v = key
            if op == "reverse":
                col[(v, u)] = c
            elif op == "float":
                col[(float(u), float(v))] = c
            else:  # a bool stands in for 0 or 1 only
                col[(u == 1 if u in (0, 1) else u, v)] = c
        elif op == "bad_class" and key is not None:
            col[key] = rnd.choice(BAD_CLASSES + (t + 1,))
        elif op == "bool_class" and key is not None:
            col[key] = True
        elif op == "recolor" and key is not None:
            col[key] = rnd.randint(1, max(t, 1))
        elif op == "merge" and keys:
            # one class swallows every edge at a few vertices: overflows and cycles
            c = rnd.randint(1, max(t, 1))
            hub = set(rnd.sample(range(g.n), min(g.n, 3)))
            for e in keys:
                if isinstance(e[0], int) and (e[0] in hub or e[1] in hub):
                    col[e] = c
    return col


OPS = ("drop", "foreign", "out_of_range", "reverse", "float", "bool",
       "bad_class", "bool_class", "recolor", "merge")


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 14),
    t=st.integers(1, 4),
    ops=st.lists(st.sampled_from(OPS), max_size=8),
)
def test_matches_reference_on_random_colorings(seed, n, t, ops):
    rnd = random.Random(seed)
    g = random_graph(rnd, n, rnd.randint(0, 3 * n))
    edges = g.edges()
    rnd.shuffle(edges)  # the verifier must not depend on the map's order
    coloring = {e: rnd.randint(1, t) for e in edges}
    assert_same_report(g, corrupt(rnd, g, coloring, t, ops), t + rnd.choice((-1, 0, 0, 1)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    k=st.integers(1, 3),
    ops=st.lists(st.sampled_from(OPS), max_size=5),
)
def test_matches_reference_on_corrupted_solver_output(seed, k, ops):
    g = generate_k_degenerate(n=40, k=k, delta_min=max(2, 2 * k * k - k), seed=seed)
    result = decompose(g)
    assert_same_report(g, result.coloring, result.t)
    rnd = random.Random(seed)
    assert_same_report(g, corrupt(rnd, g, result.coloring, result.t, ops), result.t)


def _fresh(x):
    """An int equal to ``x`` that is another object past the small-int
    cache; anything else as it is (a bool must stay a bool)."""
    return int(str(x)) if type(x) is int else x


@pytest.mark.parametrize("seed", range(12))
def test_same_report_for_equal_keys_that_are_other_objects(seed):
    """decompose keys its map by the graph's own edge tuples.  A map whose
    keys only equal them, tuples of fresh ints, gets the same report, valid
    or corrupted, and both match the reference."""
    rnd = random.Random(seed)
    k = 1 + seed % 3
    g = generate_k_degenerate(n=400, k=k, delta_min=max(2, 2 * k * k - k), seed=seed)
    result = decompose(g)
    own = corrupt(rnd, g, result.coloring, result.t, rnd.sample(OPS, seed % 4))
    fresh = {tuple(map(_fresh, e)) if isinstance(e, tuple) else e: c for e, c in own.items()}
    assert fresh == own
    assert not any(a is b for a, b in zip(fresh, own) if a[-1] > 256)
    assert any(a is b for a, b in zip(own, g._edges))
    got = verify_partition(g, fresh, result.t)
    assert repr(got) == repr(verify_partition(g, own, result.t))
    assert got.valid == (seed % 4 == 0)
    assert_same_report(g, fresh, result.t)


class V(IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2
    THREE = 3


Pair = namedtuple("Pair", "u v")


def fixed_cases():
    tri_tail = gfrom(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    two_cycles = gfrom(9, [(0, 1), (2, 3), (3, 4), (2, 4), (5, 6), (6, 7), (7, 8), (5, 8)])
    star4 = star_graph(4)
    k4 = complete_graph(4)
    yield path_graph(0), {}, 0
    yield path_graph(0), {(0, 1): 1}, 2
    yield path_graph(3), {}, 1
    yield path_graph(3), {(0, 1): 1, (1, 2): 2}, 2
    # several cycles in one class: the report names the lowest cycle vertex
    yield two_cycles, {e: 1 for e in two_cycles.edges()}, 1
    yield two_cycles, {e: 1 + (e[0] >= 5) for e in two_cycles.edges()}, 2
    # overflow and cycle in one class: only the overflow is reported
    yield tri_tail, {e: 1 for e in tri_tail.edges()}, 1
    yield k4, {e: 1 for e in k4.edges()}, 1
    yield star4, {e: 1 for e in star4.edges()}, 2
    # bool and IntEnum vertices and classes, namedtuple keys and float keys
    # and classes lie outside the exact domain: each such entry is an
    # unknown edge, and only an exact key colors the edge it names
    yield star4, {(False, 1): True, (0, 2): 1, (0, 3): 1, (0, 4): 2}, 2
    yield star4, {(0, 1): 1, (0, 2): True, (0, 3): 1}, 1
    yield tri_tail, {(V.ZERO, V.ONE): V.ONE, (1, 2): 1, (0, 2): 1, (2, 3): 2}, 2
    yield tri_tail, {(False, True): 1, (True, 2): 1, (False, 2): True}, 1
    yield tri_tail, {Pair(0, 1): 1, Pair(1, 2): 1, (0, 2): 2, (2, 3): 1}, 2
    yield tri_tail, {(0.0, 1.0): 1, (1, 2): 1.0, (2, 0): 1, (3, 5): 2}, 2
    yield tri_tail, {(0, 1): 1, (1, 2): 1, (0, 2): 1, (3, 4): -1, (4, 5): 0}, 1
    # a frozenset key is no tuple: it is an unknown edge that adds to no
    # vertex's degree, and edge (0, 1) stays uncolored
    yield star4, {frozenset((0, 1)): 1, (0, 2): 1, (0, 3): 1, (0, 4): 2}, 2
    # a class index far past the class count (the reference allocates one
    # dict per class, so a huge class count is left to the CLI test)
    yield star4, {(0, 1): 10**12, (0, 2): 1}, 2
    # the one-pass walk: a third edge at a triangle vertex, given before
    # and after the edge that closes the triangle, at either end of an edge
    tri_pend = gfrom(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    yield tri_pend, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 2): 1}, 1
    yield tri_pend, {(0, 1): 1, (1, 2): 1, (0, 2): 1, (2, 3): 1}, 1
    yield tri_pend, {(0, 2): 1, (0, 1): 1, (1, 2): 1, (2, 3): 1}, 1
    pend_tri = gfrom(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    yield pend_tri, {(1, 2): 1, (2, 3): 1, (1, 3): 1, (0, 1): 1}, 1
    yield pend_tri, {(1, 2): 1, (2, 3): 1, (0, 1): 1, (1, 3): 1}, 1
    # a third edge at the middle of a path, whichever edge comes last
    spur = gfrom(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    yield spur, {e: 1 for e in spur.edges()}, 1
    yield spur, {(2, 5): 1, (0, 1): 1, (3, 4): 1, (1, 2): 1, (2, 3): 1}, 1
    # an overflow and a separate cycle in one class, either one first
    star_tri = gfrom(7, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (4, 6)])
    yield star_tri, {e: 1 for e in star_tri.edges()}, 1
    yield star_tri, {e: 1 for e in reversed(star_tri.edges())}, 1
    # two classes, only one overflowing: the other's cycle is still reported
    yield star_tri, {e: 1 + (e[0] >= 4) for e in star_tri.edges()}, 2
    yield star_tri, {e: 2 - (e[0] >= 4) for e in star_tri.edges()}, 2
    yield star_tri, {(0, 1): 1, (0, 2): 1, (0, 3): 1, (4, 5): 2, (5, 6): 2, (4, 6): 1}, 2
    # an edge named twice, once reversed: the reversed key is an unknown
    # edge and adds to no degree, and only the canonical one colors the edge
    yield path_graph(3), {(0, 1): 1, (1, 2): 1, (1, 0): 2}, 2
    yield path_graph(3), {(0, 1): 5, (1, 2): 1, (1, 0): 5, (2, 1): "x"}, 2
    yield star4, {(0, 2): 1, (0, 1): 1, (0, 3): 1, (9, 9): 1, (2, 0): 1, (1, 0): 2, (3, 0): 1}, 2


@pytest.mark.parametrize("case", range(len(list(fixed_cases()))))
def test_matches_reference_on_fixed_cases(case):
    g, coloring, t = list(fixed_cases())[case]
    assert_same_report(g, coloring, t)


def test_malformed_keys_are_reported_as_unknown_edges():
    # A key that is not a pair, beside a well-formed one, a foreign one and
    # an uncolored edge.  ("a", "b") cannot be ordered against (0, 2), and 5
    # cannot be iterated: its dict form falls back to repr.
    g = path_graph(4)
    for bad in ((0, 1, 2), (0,), (), ("a", "b"), ("a", "b", "c"), 5):
        coloring = {bad: 1, (1, 2): 1, (0, 2): 1}
        assert_same_report(g, coloring, 1)
        report = verify_partition(g, coloring, 1)
        unknown = [v.edge for v in report.violations if v.kind == UNKNOWN_EDGE]
        assert sorted(unknown, key=repr) == sorted([bad, (0, 2)], key=repr)
        shown = [v["edge"] for v in report.as_dict()["violations"] if v["kind"] == UNKNOWN_EDGE]
        want = list(bad) if isinstance(bad, tuple) and len(bad) == 2 else repr(bad)
        assert sorted(shown, key=repr) == sorted([want, [0, 2]], key=repr)
        uncolored = [v.edge for v in report.violations if v.kind == UNCOLORED_EDGE]
        assert uncolored == [(0, 1), (2, 3)]
        assert not report.valid


def test_verifier_imports_nothing_from_the_solver():
    tree = ast.parse(Path(linarb.verify.__file__).read_text())
    imported = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    }
    assert imported.isdisjoint({"coloring", "solver", "linarb.coloring", "linarb.solver"})
