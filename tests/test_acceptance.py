"""End-to-end acceptance gate.

Each test here covers one release criterion and appends a single PASS/FAIL
line to the summary that conftest echoes after the run.  Criteria 6 and 7
audit counters accumulated while criteria 1-4 execute, so this module is
meant to run as a whole; the audits skip when the earlier tests did not run
in the same session.
"""

import itertools
import random
import resource
import time

import pytest

from linarb import (
    Graph,
    InternalContradictionError,
    Mode,
    SolverState,
    decompose,
    degeneracy_ordering,
    exact_la,
    generate_k_degenerate,
    la_bounds,
    max_degree,
    required_max_degree,
    verify_partition,
)

from linarb.coloring import NIL, ForestColoring
from linarb.solver import place_light_edge
from conftest import (
    ACCEPTANCE_LINES,
    Pairs,
    capped_instance,
    coloring_problems,
    endpoint_recolor_fixture,
    flagged_owners,
    hall_certificate_check,
    naive_degeneracy,
    owner_reservation,
    path_partner_swap_fixture,
    right_rows,
    scale_graph,
    threshold_sdr,
    unreserved_trade_fixture,
)

# Counters shared across criteria: 6 audits that the assertion-laden runs of
# criteria 1-4 finished without an internal contradiction, and 7 audits the
# repair statistics of every solver run observed in this session.
_ACCUM = {
    "debug_decomposes": 0,
    "light_inserts": 0,
    "contradictions": 0,
    "repair_runs": [],  # (degeneracy, SolveStats) per solver run
}


def _record(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def test_criterion_1_minimum_mode_hits_the_floor_everywhere():
    started = time.perf_counter()
    failures: list[str] = []
    worst = 0.0
    per_k = 200
    for k in (1, 2, 3):
        need = max(1, 2 * k * k - k)
        for i in range(per_k):
            rnd = random.Random(11000 + 997 * k + i)
            g = None
            for attempt in range(50):
                n = rnd.randrange(max(need + 2, k + 2), 501)
                delta_min = rnd.randrange(need, 26)
                cand = generate_k_degenerate(
                    n, k, delta_min, seed=31337 + 100000 * k + 1000 * i + attempt
                )
                if max_degree(cand) <= 25:
                    g = cand
                    break
            if g is None:
                failures.append(f"k={k} i={i}: no instance with max degree <= 25")
                continue
            tick = time.perf_counter()
            try:
                result = decompose(g, Mode.MINIMUM, debug_checks=True)
                _ACCUM["debug_decomposes"] += 1
                _ACCUM["repair_runs"].append((result.k, result.stats))
                report = verify_partition(g, result.coloring, result.t)
                delta = max_degree(g)
                assert delta >= need
                assert result.t == (delta + 1) // 2
                assert report.valid and report.optimal
            except InternalContradictionError as exc:
                _ACCUM["contradictions"] += 1
                failures.append(f"k={k} i={i}: {exc}")
            except AssertionError as exc:
                failures.append(f"k={k} i={i}: {exc}")
            worst = max(worst, time.perf_counter() - tick)
    elapsed = time.perf_counter() - started
    if worst >= 1.0:
        failures.append(f"slowest instance took {worst:.2f}s")
    if elapsed >= 300.0:
        failures.append(f"suite took {elapsed:.0f}s")
    _record(
        1,
        "minimum mode reaches ceil(delta/2) on 600 seeded instances",
        not failures,
        failures[0] if failures else
        f"3x{per_k} instances, slowest {worst * 1000:.0f}ms, total {elapsed:.1f}s",
    )


def test_criterion_2_relaxed_mode_inside_the_degree_gap():
    failures: list[str] = []
    per_k = 100
    for k, n_hi in ((2, 60), (3, 60)):
        lo = 2 * k * k - 2 * k
        hi = 2 * k * k - k
        window = range(lo, hi)
        for i in range(per_k):
            rnd = random.Random(52000 + 997 * k + i)
            target = window[i % len(window)]
            g = capped_instance(k, target, rnd.randrange(3 * k, n_hi + 1), rnd)
            try:
                assert max_degree(g) == target
                assert naive_degeneracy(g)[0] == k
                result = decompose(g, Mode.LAC, debug_checks=True)
                _ACCUM["debug_decomposes"] += 1
                _ACCUM["repair_runs"].append((result.k, result.stats))
                report = verify_partition(g, result.coloring, result.t)
                assert report.valid
                assert result.t <= (target + 2) // 2
            except InternalContradictionError as exc:
                _ACCUM["contradictions"] += 1
                failures.append(f"k={k} i={i}: {exc}")
            except AssertionError as exc:
                failures.append(f"k={k} i={i}: {exc}")
    _record(
        2,
        "relaxed mode stays within ceil((delta+1)/2) below the strict threshold",
        not failures,
        failures[0] if failures else f"2x{per_k} instances across both degree windows",
    )


def test_criterion_3_exact_oracle_agrees_with_bounds_and_solver():
    started = time.perf_counter()
    failures: list[str] = []
    solver_checks = 0
    exhaustive = 0

    def check(g: Graph, tag: str) -> None:
        nonlocal solver_checks
        b = la_bounds(g)
        found = exact_la(g)
        if not found.complete:
            failures.append(f"{tag}: oracle budget exhausted")
            return
        if not b.lower <= found.la <= b.upper:
            failures.append(f"{tag}: la={found.la} outside [{b.lower}, {b.upper}]")
        if max_degree(g) <= 6 and not b.upper_proven:
            failures.append(f"{tag}: upper bound unproven at max degree <= 6")
        k = degeneracy_ordering(g).k if g.edge_count else 0
        if k <= 1 or max_degree(g) >= required_max_degree(k, Mode.MINIMUM):
            result = decompose(g, Mode.MINIMUM)
            solver_checks += 1
            if result.t != found.la:
                failures.append(f"{tag}: solver used {result.t}, oracle says {found.la}")

    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n)
            for idx, (u, v) in enumerate(pairs):
                if bits >> idx & 1:
                    g.add_edge(u, v)
            if not _connected(g):
                continue
            exhaustive += 1
            check(g, f"n={n} bits={bits}")
            if failures:
                break
        if failures:
            break

    randoms = 0
    if not failures:
        for i in range(500):
            rnd = random.Random(33000 + i)
            n = 6 + (i % 2)
            pairs = list(itertools.combinations(range(n), 2))
            while True:
                g = Graph(n)
                for u, v in rnd.sample(pairs, rnd.randrange(n - 1, len(pairs) + 1)):
                    g.add_edge(u, v)
                if _connected(g):
                    break
            randoms += 1
            check(g, f"random i={i}")
            if failures:
                break

    elapsed = time.perf_counter() - started
    if elapsed >= 600.0:
        failures.append(f"suite took {elapsed:.0f}s")
    _record(
        3,
        "exact search lies within the closed-form bracket",
        not failures,
        failures[0] if failures else
        f"{exhaustive} exhaustive + {randoms} random graphs, "
        f"{solver_checks} solver comparisons, {elapsed:.1f}s",
    )


def profile(fc: ForestColoring, v: int) -> list[int]:
    """The class degrees of ``v``, one per class."""
    return [fc.row(v)[j] for j in range(fc.t)]


def internal(row: list[int]) -> list[int]:
    """The classes in which a vertex with class degrees ``row`` is internal."""
    return [j for j, d in enumerate(row) if d > 1]


def test_criterion_4_light_insertion_never_fails_within_budget():
    failures: list[str] = []
    trials = 0
    rnd = random.Random(460000)
    while trials < 10_000 and not failures:
        t = rnd.randrange(1, 7)
        n = rnd.randrange(4, 12)
        p = Pairs(n)
        fc = p.coloring(t)
        for _ in range(rnd.randrange(4 * t)):
            u, v = rnd.sample(range(n), 2)
            j = rnd.randrange(t)
            if (
                fc.edge_class[p(u, v)] == NIL
                and fc.row(u)[j] < 2
                and fc.row(v)[j] < 2
                and v not in fc.walk(j, u)
            ):
                fc.assign(p(u, v), u, v, j)
        x, y = rnd.sample(range(n), 2)
        if fc.edge_class[p(x, y)] != NIL:
            continue
        dx = sum(fc.row(x)) + 1
        dy = sum(fc.row(y)) + 1
        if 2 * dx + dy > 2 * t + 2:
            continue
        before = {v2: profile(fc, v2) for v2 in range(n)}
        try:
            j = place_light_edge(fc, p(x, y), x, y)
        except Exception as exc:
            failures.append(f"trial {trials}: insert refused: {exc}")
            break
        trials += 1
        _ACCUM["light_inserts"] += 1
        if fc.edge_class[p(x, y)] != j:
            failures.append(f"trial {trials}: edge not colored {j}")
        for v2 in range(n):
            if v2 == y:
                continue
            row = profile(fc, v2)
            if internal(row) != internal(before[v2]):
                failures.append(f"trial {trials}: vertex {v2} changed internal classes")
            if v2 != x and row != before[v2]:
                failures.append(f"trial {trials}: vertex {v2} profile moved")
        if coloring_problems(fc, p.ends):
            failures.append(f"trial {trials}: state invalid after insert")
    _record(
        4,
        "budgeted edge insertion succeeds and only moves its own endpoints",
        not failures,
        failures[0] if failures else f"{trials} randomized feasible states",
    )


def test_criterion_5_representatives_are_disjoint_and_hall_certified():
    failures: list[str] = []
    for i in range(100):
        rnd = random.Random(570000 + i)
        k = rnd.randrange(1, 5)
        n = rnd.randrange(k + 2, 120)
        g = generate_k_degenerate(n, k, rnd.randrange(2 * k, 4 * k + 6), seed=570000 + i)
        ordering = degeneracy_ordering(g)
        d = max_degree(g)
        rows = right_rows(g, ordering)
        flags, r = threshold_sdr(g, ordering, d)
        owners = [v for v in range(g.n) if g.degree(v) >= d]
        if not flagged_owners(flags, ordering, rows) <= set(owners):
            failures.append(f"i={i}: a flag lies outside every owner's row")
        taken: set[int] = set()
        pos = ordering.position
        for v in owners:
            reps, _ = owner_reservation(flags, r, ordering, rows, v)
            if len(reps) != r:
                failures.append(f"i={i}: owner {v} got {len(reps)} of {r}")
            if set(reps) & taken:
                failures.append(f"i={i}: owner {v} shares a representative")
            taken.update(reps)
            if any(pos[w] <= pos[v] or w not in g.neighbors(v) for w in reps):
                failures.append(f"i={i}: owner {v} has a non-right-neighbor")
        subsets = [
            rnd.sample(owners, rnd.randrange(1, len(owners) + 1)) for _ in range(50)
        ]
        if not hall_certificate_check(g, ordering, d, sample_sets=subsets):
            failures.append(f"i={i}: certificate rejected a satisfiable family")
        if failures:
            break
    _record(
        5,
        "representative sets disjoint, full-sized, and certificate-checked",
        not failures,
        failures[0] if failures else "100 instances, 50 sampled subsets each",
    )


def test_criterion_6_internal_budget_assertions_stayed_silent():
    if not _ACCUM["debug_decomposes"] or not _ACCUM["light_inserts"]:
        pytest.skip("needs criteria 1-4 to run in the same session")
    ok = _ACCUM["contradictions"] == 0
    _record(
        6,
        "reservation budget assertion never fired under debug checks",
        ok,
        f"{_ACCUM['debug_decomposes']} asserted solver runs, "
        f"{_ACCUM['light_inserts']} asserted insertions, "
        f"{_ACCUM['contradictions']} contradictions",
    )


def test_criterion_7_repair_loop_progress_audit():
    if not _ACCUM["repair_runs"]:
        pytest.skip("needs criteria 1-2 to run in the same session")
    failures: list[str] = []

    # Force all three repair moves on top of whatever the random runs did.
    for fixture, expect in (
        (endpoint_recolor_fixture, "repairs_endpoint_free"),
        (path_partner_swap_fixture, "repairs_owner_free"),
        (unreserved_trade_fixture, "repairs_unreserved"),
    ):
        g, ordering, delta, t = fixture()
        try:
            state = SolverState(g, ordering, delta, t, Mode.MINIMUM, debug=True)
            coloring = state.run()
        except InternalContradictionError as exc:
            _ACCUM["contradictions"] += 1
            failures.append(f"{expect}: aborted: {exc}")
            continue
        report = verify_partition(g, {e: c + 1 for e, c in coloring.items()}, t)
        if not report.valid:
            failures.append(f"{expect}: invalid result {report.violations[:2]}")
        if getattr(state.stats, expect) < 1:
            failures.append(f"{expect}: move not exercised")
        _ACCUM["repair_runs"].append((ordering.k, state.stats))

    iters = moves = unreserved_hits = 0
    for k, stats in _ACCUM["repair_runs"]:
        if stats.repairs_unreserved and k != 2:
            failures.append(f"unreserved trade at degeneracy {k}")
        iters += stats.repair_iterations
        moves += (
            stats.repairs_endpoint_free
            + stats.repairs_owner_free
            + stats.repairs_unreserved
        )
        unreserved_hits += stats.repairs_unreserved
    # Every iteration must make progress through exactly one applied move;
    # stalls raise instead of looping, and none may have been observed.
    if iters != moves:
        failures.append(f"{iters} iterations but {moves} applied moves")
    if _ACCUM["contradictions"]:
        failures.append(f"{_ACCUM['contradictions']} aborts observed")
    _record(
        7,
        "every repair iteration applied one strictly shrinking move",
        not failures,
        failures[0] if failures else
        f"{len(_ACCUM['repair_runs'])} runs, {iters} iterations, "
        f"unreserved trades only at degeneracy 2 ({unreserved_hits} seen)",
    )


def test_criterion_8_hundred_thousand_vertices_within_budget():
    g = scale_graph()
    assert g.n >= 100_000
    assert max_degree(g) == 8
    started = time.perf_counter()
    result = decompose(g)
    report = verify_partition(g, result.coloring, result.t)
    elapsed = time.perf_counter() - started
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = (
        report.valid
        and report.optimal
        and result.t == 4
        and elapsed < 10.0
        and peak_mb < 1024.0
    )
    _record(
        8,
        "decompose plus verify at n=100000 under 10s and 1GB",
        ok,
        f"n={g.n} m={g.edge_count} t={result.t} valid={report.valid} "
        f"{elapsed:.2f}s {peak_mb:.0f}MB peak",
    )
