"""Tests for the PRNG, the graph generator, edge-list parsing, and the CLI."""

import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linarb.cli
import linarb.oracle
import linarb.solver
from linarb import (
    Graph,
    InternalContradictionError,
    Mode,
    ParseError,
    PreconditionError,
    SolverState,
    SplitMix64,
    decompose,
    degeneracy_ordering,
    generate_k_degenerate,
    main,
    max_degree,
    parse_edge_list,
    required_max_degree,
)

from conftest import (
    capped_instance,
    naive_degeneracy,
    reference_partition_output,
    unreachable_after,
)


def run_cli(argv, stdin_text=None):
    out = io.StringIO()
    err = io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_text.encode()), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


K4_TEXT = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
STAR6_TEXT = "\n".join(f"0 {i}" for i in range(1, 7)) + "\n"
# A five-cycle with two extra leaves on one vertex: degeneracy 2 and maximum
# degree 4, which only the relaxed class count can handle.
GAP_TEXT = "0 1\n1 2\n2 3\n3 4\n0 4\n0 5\n0 6\n"


# ----------------------------------------------------------------------- PRNG


def test_splitmix_reference_stream():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    rng = SplitMix64(42)
    assert [rng.next_u64() for _ in range(2)] == [
        0xBDD732262FEB6E95,
        0x28EFE333B266F103,
    ]


def test_splitmix_bounded_draws():
    rng = SplitMix64(123)
    assert [rng.below(10) for _ in range(8)] == [5, 8, 0, 1, 2, 6, 4, 7]


def test_splitmix_rejects_empty_range():
    rng = SplitMix64(1)
    with pytest.raises(PreconditionError):
        rng.below(0)
    with pytest.raises(PreconditionError):
        rng.below(-3)


def test_splitmix_seed_wraps_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 1000))
def test_splitmix_below_stays_in_range(seed, bound):
    rng = SplitMix64(seed)
    for _ in range(5):
        assert 0 <= rng.below(bound) < bound


# ------------------------------------------------------------------ generator


def test_generator_hits_requested_degeneracy():
    g = generate_k_degenerate(40, 2, seed=5)
    assert g.n == 40
    assert naive_degeneracy(g)[0] == 2
    g = generate_k_degenerate(30, 3, seed=9)
    assert naive_degeneracy(g)[0] == 3


def test_generator_degree_boost_reaches_target():
    g = generate_k_degenerate(200, 2, delta_min=7, seed=42)
    assert max_degree(g) >= 7
    assert degeneracy_ordering(g).k <= 2


def test_generator_boost_adds_fresh_leaves_when_needed():
    # Ten vertices on one attachment each form a tree with small degrees, so
    # a large delta_min forces extra leaf vertices beyond the first ten.
    g = generate_k_degenerate(10, 1, delta_min=12, seed=3)
    assert g.n > 10
    assert max_degree(g) == 12
    assert naive_degeneracy(g)[0] == 1


def test_generator_single_vertex_boost_is_a_star():
    g = generate_k_degenerate(1, 2, delta_min=4, seed=0)
    assert g.n == 5
    assert g.edge_count == 4
    assert g.degree(0) == 4


def test_generator_is_deterministic():
    a = generate_k_degenerate(50, 3, delta_min=6, seed=77)
    b = generate_k_degenerate(50, 3, delta_min=6, seed=77)
    assert a.edges() == b.edges()
    c = generate_k_degenerate(50, 3, delta_min=6, seed=78)
    assert a.edges() != c.edges()


def test_generator_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        generate_k_degenerate(0, 2)
    with pytest.raises(PreconditionError):
        generate_k_degenerate(5, 0)
    with pytest.raises(PreconditionError):
        generate_k_degenerate(5, 2, delta_min=-1)


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32),
)
def test_generator_degeneracy_never_exceeds_k(n, k, seed):
    g = generate_k_degenerate(n, k, seed=seed)
    assert naive_degeneracy(g)[0] <= k



@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=2**32),
)
def test_generator_rows_are_ascending(n, k, delta_min, seed):
    """``generate`` lists the edges by walking the rows, so they must be
    ascending, boosted hub included, as a parsed graph's are."""
    g = generate_k_degenerate(n, k, delta_min, seed)
    assert all(row == sorted(row) for row in g._adj)


# -------------------------------------------------------------------- parsing


def test_parse_plain_edge_list():
    g = parse_edge_list("# comment\n\n0 1\n1 2\n")
    assert g.n == 3
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_header_fixes_vertex_count():
    g = parse_edge_list("p 6 2\n0 1\n1 2\n")
    assert g.n == 6
    assert g.edge_count == 2


def test_parse_accepts_unsorted_and_reversed_pairs():
    g = parse_edge_list("3 1\n2 0\n")
    assert g.edges() == [(0, 2), (1, 3)]


def test_parse_empty_input_is_empty_graph():
    g = parse_edge_list("# nothing here\n")
    assert g.n == 0
    assert g.edge_count == 0


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError, match="line 3") as info:
        parse_edge_list("0 1\n1 2\nbroken line here\n")
    assert info.value.line_no == 3


def test_parse_rejects_non_integer_ids():
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("a b\n")


# Tokens ``int`` takes beyond ASCII decimal digits, and the two ASCII forms
# that stay readable: a leading zero, and a minus sign the id check reports.
TOKEN_CASES = [("1_0", None), ("+1", None), ("３", None), ("٣", None), ("-1", -1), ("01", 1)]


@pytest.mark.parametrize("tok, value", TOKEN_CASES)
def test_parse_reads_only_ascii_decimal_tokens(tok, value):
    if value is None:
        with pytest.raises(ParseError, match="line 2: non-integer vertex id"):
            parse_edge_list(f"0 3\n{tok} 2\n")
        with pytest.raises(ParseError, match="line 1: non-integer counts"):
            parse_edge_list(f"p edge {tok} 0\n", dimacs=True)
    elif value < 0:
        with pytest.raises(ParseError, match="line 2: vertex id -1 is negative"):
            parse_edge_list(f"0 3\n{tok} 2\n")
    else:
        assert parse_edge_list(f"0 3\n{tok} 2\n").edges() == [(0, 3), (1, 2)]


@pytest.mark.parametrize("tok, value", TOKEN_CASES)
def test_coloring_reads_only_ascii_decimal_tokens(tok, value):
    id_line, class_line = f"0 1 1\n{tok} 2 1\n", f"0 1 1\n3 4 {tok}\n"
    if value is None:
        for text in (id_line, class_line):
            with pytest.raises(ParseError, match="line 2: non-integer field"):
                linarb.cli._parse_coloring(text, {})
    else:
        edge = (min(value, 2), max(value, 2))
        assert linarb.cli._parse_coloring(id_line, {}) == ({(0, 1): 1, edge: 1}, 1)
        assert linarb.cli._parse_coloring(class_line, {}) == (
            {(0, 1): 1, (3, 4): value}, max(1, value))


def test_parse_rejects_self_loop():
    with pytest.raises(ParseError, match="self-loop"):
        parse_edge_list("0 1\n2 2\n")


def test_parse_checks_the_id_range_before_a_self_loop():
    with pytest.raises(ParseError, match="vertex id 0 is below 1"):
        parse_edge_list("p edge 2 1\ne 0 0\n", dimacs=True)
    with pytest.raises(ParseError, match="vertex id -1 is negative"):
        parse_edge_list("-1 -1\n")
    with pytest.raises(ParseError, match="vertex id 5 outside the declared 3 vertices"):
        parse_edge_list("p 3 1\n5 5\n")


DUPLICATES = [  # (text, dimacs, message)
    ("0 1\n1 0\n", False, "line 2: edge 0-1 already given on line 1"),
    ("# 0 1\n0 1\n\n# 1 0\n\n2 3\n  1\t0  \n", False,
     "line 7: edge 0-1 already given on line 2"),
    ("p 4 3\n0 1\n1 2\n2 1\n", False, "line 4: edge 1-2 already given on line 3"),
    ("c 1 2\np edge 3 2\ne 1 2\nc e 1 2\n\ne 2 1\n", True,
     "line 6: edge 1-2 already given on line 3"),
    ("p edge 400 2\ne 300 301\ne 301 300\n", True,
     "line 3: edge 300-301 already given on line 2"),
    ("0 1\n0 2\n01 0\n", False, "line 3: edge 0-1 already given on line 1"),
    ("p 400 2\n300 301\n301 0300\n", False, "line 3: edge 300-301 already given on line 2"),
    ("0 1\n1 2\n2 3\n3 1\n0 2\n3 0\n2 1", False, "line 7: edge 1-2 already given on line 2"),
    ("0 1\r\n1 2\r\n1 0\r\n", False, "line 3: edge 0-1 already given on line 1"),
]


def test_parse_rejects_duplicate_edge_and_names_first_line():
    """The first copy of a repeated edge is named by its line, whatever lies
    between the copies or how either copy writes the pair."""
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("0 1\n1 0\n")
    for text, dimacs, message in DUPLICATES:
        with pytest.raises(ParseError) as info:
            parse_edge_list(text, dimacs=dimacs)
        assert str(info.value) == message, text


def test_parse_rejects_negative_id():
    with pytest.raises(ParseError, match="negative"):
        parse_edge_list("-1 2\n")


def test_parse_dimacs_rejects_id_zero_as_below_one():
    with pytest.raises(ParseError, match="line 2: vertex id 0 is below 1: DIMACS ids start at 1"):
        parse_edge_list("p edge 3 1\ne 0 1", dimacs=True)


def test_parse_rejects_id_outside_declared_count():
    with pytest.raises(ParseError, match="outside the declared"):
        parse_edge_list("p 3 1\n0 5\n")


def test_parse_rejects_late_or_repeated_header():
    with pytest.raises(ParseError, match="first data line"):
        parse_edge_list("0 1\np 4 1\n")
    with pytest.raises(ParseError, match="first data line"):
        parse_edge_list("p 4 1\np 4 1\n0 1\n")


def test_parse_rejects_header_count_mismatch():
    with pytest.raises(ParseError, match="declares 3 edges, found 1"):
        parse_edge_list("p 4 3\n0 1\n")


def test_parse_rejects_malformed_header():
    with pytest.raises(ParseError, match="header needs"):
        parse_edge_list("p 4\n")
    with pytest.raises(ParseError, match="non-integer counts"):
        parse_edge_list("p four 2\n")
    with pytest.raises(ParseError, match="non-negative"):
        parse_edge_list("p -1 0\n")


def test_parse_dimacs_format():
    text = "c a comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
    g = parse_edge_list(text, dimacs=True)
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_parse_dimacs_requires_header():
    with pytest.raises(ParseError, match="before the 'p' header"):
        parse_edge_list("e 1 2\n", dimacs=True)


def test_parse_dimacs_rejects_plain_edge_lines():
    with pytest.raises(ParseError, match="expected 'e <u> <v>'"):
        parse_edge_list("p edge 3 1\n1 2\n", dimacs=True)


def test_parse_dimacs_reports_one_based_ids():
    with pytest.raises(ParseError, match="vertex id 9 outside"):
        parse_edge_list("p edge 4 1\ne 1 9\n", dimacs=True)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=1000))
def test_parse_round_trips_generated_graphs(n, seed):
    g = generate_k_degenerate(n, 2, seed=seed)
    text = f"p {g.n} {g.edge_count}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
    assert parse_edge_list(text).edges() == g.edges()


# ---------------------------------------------------- parse and emit, differential


def edge_file(rnd, g, style):
    """The edges of ``g`` as an edge file, shuffled, each pair in a random
    orientation, with comments and blank lines mixed in.  ``style`` is
    "plain" (no header), "header" (``p n m`` first, with up to two extra
    isolated vertices) or "dimacs" (the same, with 1-based ``e u v`` lines).
    Returns the vertex count, the pairs as written and the text."""
    n = g.n if style == "plain" else g.n + rnd.randrange(3)
    pairs = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in g.edges()]
    rnd.shuffle(pairs)
    lines = ["c from a test" if style == "dimacs" else "# from a test"]
    if style == "header":
        lines.append(f"p {n} {len(pairs)}")
    elif style == "dimacs":
        lines.append(f"p edge {n} {len(pairs)}")
    for u, v in pairs:
        lines.append(f"e {u + 1} {v + 1}" if style == "dimacs" else f"{u} {v}")
        if rnd.random() < 0.05:
            lines.append("")
    return n, pairs, "\n".join(lines) + "\n"


def record(monkeypatch, name, module=linarb.cli):
    """Replace ``module.<name>`` by a wrapper that keeps every result."""
    seen = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(module, name, wrapper)
    return seen


STYLES = ["plain", "header", "dimacs"]


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("seed", range(6))
def test_parse_gives_ascending_rows_and_the_edge_set_of_from_edges(style, seed):
    rnd = random.Random(seed)
    base = generate_k_degenerate(rnd.randrange(2, 80), rnd.choice((1, 2, 3)),
                                 rnd.randrange(12), seed)
    n, pairs, text = edge_file(rnd, base, style)
    g = parse_edge_list(text, dimacs=style == "dimacs")
    want = Graph.from_edges(n, pairs)
    assert g.n == want.n
    assert g._edges == want._edges
    assert all(row == sorted(row) for row in g._adj)
    assert [sorted(row) for row in g._adj] == [sorted(row) for row in want._adj]


@pytest.mark.parametrize("style", STYLES)
def test_parse_names_each_vertex_by_one_int_object(monkeypatch, tmp_path, style):
    """With decimal tokens as ``str(id)`` writes them, every row and key of
    the parsed graph that names a vertex holds the same int object.  Under
    ``linarb verify`` the class file's keys hold one int object per vertex
    too: the graph's own for a plain-format graph, and their own for a
    DIMACS one, whose file gives other tokens."""
    rnd = random.Random(7)
    base = generate_k_degenerate(900, 2, 12, 7)  # ids past the small-int cache
    _, _, text = edge_file(rnd, base, style)
    g = parse_edge_list(text, dimacs=style == "dimacs")
    seen: dict[int, int] = {}
    names = [v for row in g._adj for v in row] + [v for key in g._edges for v in key]
    assert all(seen.setdefault(v, v) is v for v in names)
    assert len(seen) == g.n - sum(not row for row in g._adj)

    graphs = record(monkeypatch, "parse_edge_list")
    colorings = record(monkeypatch, "_parse_coloring")
    (tmp_path / "g.txt").write_text(text)
    (tmp_path / "c.txt").write_text(
        "".join(f"{u} {w} {c}\n" for (u, w), c in decompose(g).coloring.items()))
    argv = ["verify", str(tmp_path / "g.txt"), "--classes", str(tmp_path / "c.txt")]
    code, out, err = run_cli(argv + (["--dimacs"] if style == "dimacs" else []))
    assert (code, err) == (0, "")
    (g,), ((coloring, _),) = graphs, colorings
    names = [v for key in coloring for v in key]
    assert len(coloring) == g.edge_count
    if style == "dimacs":
        own: dict[int, int] = {}
        assert all(own.setdefault(v, v) is v for v in names)
    else:
        graph_ints = {v: v for row in g._adj for v in row}
        assert all(graph_ints[v] is v for v in names)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("build", ["parsed", "from_edges", "add_edge"])
def test_decompose_keys_are_the_graphs_own_tuples(k, build):
    """The map is keyed by the graph's edge tuples themselves, in the
    graph's order, for the sweep and the forest pairing alike: parsed,
    from pairs of fresh ints, or edge by edge in shuffled, reversed pairs."""
    base = generate_k_degenerate(700, k, 2 * k * k - k, 3)
    rnd = random.Random(k)
    pairs = [(int(str(u)), int(str(w))) for u, w in base.edges()]  # fresh ints
    rnd.shuffle(pairs)
    if build == "parsed":
        g = parse_edge_list(edge_file(rnd, base, "plain")[2])
    elif build == "from_edges":
        g = Graph.from_edges(base.n, pairs)
    else:
        g = Graph(base.n)
        for u, w in pairs:
            g.add_edge(w, u)
    coloring = decompose(g).coloring
    assert len(coloring) == len(g._edges) == g.edge_count
    assert all(a is b for a, b in zip(coloring, g._edges))


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "extra", [[], ["--stats"], ["--verify-after"], ["--stats", "--verify-after"]],
    ids=["plain", "stats", "verify", "stats-verify"],
)
@pytest.mark.parametrize("seed", range(2))
def test_cli_renderings_match_the_sorted_reference(monkeypatch, style, fmt, extra, seed):
    """Walking the parsed graph's rows prints what sorting the map printed."""
    rnd = random.Random(100 + seed)
    k = rnd.choice((2, 3))
    mode = ("minimum", "lac")[seed]
    base = generate_k_degenerate(rnd.randrange(20, 120), k,
                                 required_max_degree(k, Mode(mode)) + rnd.randrange(3), seed)
    _, _, text = edge_file(rnd, base, style)
    g = parse_edge_list(text, dimacs=style == "dimacs")
    results = record(monkeypatch, "decompose")
    argv = ["decompose", "-", "--mode", mode, "--format", fmt, *extra]
    code, out, err = run_cli(argv + (["--dimacs"] if style == "dimacs" else []), stdin_text=text)
    assert code == 0 and err == ""
    (result,) = results
    head = {"t": result.t, "k": result.k, "delta": result.delta, "mode": mode,
            "n": g.n, "m": g.edge_count}
    if "--verify-after" in extra:
        head["verified"] = True
    stats = vars(result.stats) if "--stats" in extra else None
    assert out == reference_partition_output(head, result.coloring, fmt, stats)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "text, mode",
    [(K4_TEXT, "exact"), (GAP_TEXT, "lac"), (STAR6_TEXT, "minimum")],
    ids=["exact", "sweep", "forest"],
)
def test_cli_auto_renderings_match_the_sorted_reference(monkeypatch, text, mode, fmt):
    g = parse_edge_list(text)
    results = record(monkeypatch, "exact_la" if mode == "exact" else "_solve")
    argv = ["decompose", "-", "--mode", "auto", "--format", fmt, "--stats", "--verify-after"]
    code, out, err = run_cli(argv, stdin_text=text)
    assert code == 0 and err == ""
    (found,) = results
    if mode == "exact":
        t, coloring, stats = found.la, found.witness, {"nodes_explored": found.nodes_explored}
    else:
        t, coloring, stats = found.t, found.coloring, vars(found.stats)
    head = {"t": t, "k": degeneracy_ordering(g).k, "delta": max_degree(g), "mode": mode,
            "n": g.n, "m": g.edge_count, "verified": True}
    assert out == reference_partition_output(head, coloring, fmt, stats)


CHUNK = linarb.cli._CHUNK_LINES


def graph_of_size(m, rnd):
    """A graph of exactly ``m`` edges: a path, beside a 2-degenerate graph
    that the sweep solves once ``m`` leaves room for one."""
    pairs = list(generate_k_degenerate(100, 2, 8, rnd.randrange(2**32)).edges()) if m > 400 else []
    start, path = 1 + max((w for _, w in pairs), default=-1), m - len(pairs)
    pairs += [(start + i, start + i + 1) for i in range(path)]
    return Graph.from_edges(start + path + 1, pairs)


@pytest.mark.parametrize("extra", [[], ["--stats"]], ids=["plain", "stats"])
@pytest.mark.parametrize("m", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7])
def test_cli_text_output_across_chunk_boundaries(monkeypatch, m, extra):
    """The text output, written in chunks of ``_CHUNK_LINES`` lines, is the
    sorted rendering of the map byte for byte, whether the last chunk is
    full, one line short or one line over."""
    rnd = random.Random(m)
    n, pairs, text = edge_file(rnd, graph_of_size(m, rnd), "header")
    results = record(monkeypatch, "decompose")
    code, out, err = run_cli(["decompose", "-", "--mode", "lac", *extra], stdin_text=text)
    assert code == 0 and err == ""
    (result,) = results
    assert len(pairs) == len(result.coloring) == m and (result.k == 2) == (m > 400)
    head = {"t": result.t, "k": result.k, "delta": result.delta, "mode": "lac",
            "n": n, "m": m}
    stats = vars(result.stats) if extra else None
    assert out == reference_partition_output(head, result.coloring, "text", stats)


@pytest.mark.parametrize(
    "extra", [[], ["--stats"], ["--verify-after"], ["--stats", "--verify-after"]],
    ids=["plain", "stats", "verify", "stats-verify"],
)
@pytest.mark.parametrize("m", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7])
def test_cli_json_output_across_chunk_boundaries(monkeypatch, m, extra):
    """The JSON output, written one class row per piece in chunks of
    ``_CHUNK_LINES`` pieces, is ``json.dumps(..., indent=2,
    sort_keys=True)`` of the whole payload byte for byte."""
    rnd = random.Random(m)
    n, pairs, text = edge_file(rnd, graph_of_size(m, rnd), "header")
    results = record(monkeypatch, "decompose")
    argv = ["decompose", "-", "--mode", "lac", "--format", "json", *extra]
    code, out, err = run_cli(argv, stdin_text=text)
    assert code == 0 and err == ""
    (result,) = results
    assert len(pairs) == len(result.coloring) == m
    head = {"t": result.t, "k": result.k, "delta": result.delta, "mode": "lac",
            "n": n, "m": m}
    if "--verify-after" in extra:
        head["verified"] = True
    stats = vars(result.stats) if "--stats" in extra else None
    assert out == reference_partition_output(head, result.coloring, "json", stats)


class _Discard:
    """A stdout that keeps nothing, so only the writer's own memory counts."""

    def write(self, text):
        return len(text)


def test_cli_text_writer_memory_does_not_grow_with_the_edge_count():
    """The writer holds one chunk at a time: its traced peak on the text
    output of 4m edges exceeds the one at m edges by less than the class
    array itself grows."""
    peaks, sizes = [], []
    for m in (5 * CHUNK, 20 * CHUNK):
        g = Graph.from_edges(m + 1, [(i, i + 1) for i in range(m)])
        classes = linarb.cli._classes(g, {(i, i + 1): 1 + i % 2 for i in range(m)})
        head = {"t": 1, "k": 1, "delta": 2, "mode": "minimum", "n": g.n, "m": m}
        lines = itertools.chain(
            [f"# {' '.join(f'{k}={v}' for k, v in head.items())}"],
            (f"{u} {w} {c}" for (u, w), c in zip(linarb.cli._ascending_edges(g), classes)),
        )
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(_Discard()):
                linarb.cli._write(lines)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(len(classes) * classes.itemsize)
    assert peaks[1] - peaks[0] < sizes[1] - sizes[0], (peaks, sizes)


def test_cli_json_writer_memory_does_not_grow_with_the_edge_count():
    """The JSON rows go out one chunk at a time too: the traced peak on the
    output of 4m edges exceeds the one at m edges by less than the class
    array itself grows."""
    peaks, sizes = [], []
    for m in (5 * CHUNK, 20 * CHUNK):
        g = Graph.from_edges(m + 1, [(i, i + 1) for i in range(m)])
        classes = linarb.cli._classes(g, {(i, i + 1): 1 + i % 2 for i in range(m)})
        head = {"t": 1, "k": 1, "delta": 2, "mode": "minimum", "n": g.n, "m": m}
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(_Discard()):
                linarb.cli._write(linarb.cli._json_partition(head, g, classes))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(len(classes) * classes.itemsize)
    assert peaks[1] - peaks[0] < sizes[1] - sizes[0], (peaks, sizes)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "fault, message",
    [("drop", "6 entries for 7 edges"), ("rename", "misses edge 3-4"),
     ("extra", "8 entries for 7 edges")],
)
def test_cli_decompose_emits_nothing_off_the_edge_set(monkeypatch, fmt, fault, message):
    """Without ``--verify-after`` the emit still holds the map to the graph's
    edge set: a dropped, renamed or extra key is an internal contradiction,
    exit 2, with nothing on stdout."""
    real = linarb.cli.decompose

    def faulty(g, mode, **kwargs):
        result = real(g, mode, **kwargs)
        if fault == "extra":
            result.coloring[5, 6] = 1
        else:
            c = result.coloring.pop((3, 4))
            if fault == "rename":
                result.coloring[4, 3] = c
        return result

    monkeypatch.setattr(linarb.cli, "decompose", faulty)
    code, out, err = run_cli(["decompose", "-", "--mode", "lac", "--format", fmt],
                             stdin_text=GAP_TEXT)
    assert (code, out) == (2, "")
    assert err.startswith("internal error:") and message in err


# A five-cycle with four leaves on vertex 0: degeneracy 2 at maximum degree
# 6, which minimum mode takes with t = 3.
CYCLE_HUB_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8)]


def cyclic_sweep(monkeypatch):
    """Make every sweep return a map whose class ``first`` is the whole
    five-cycle of ``CYCLE_HUB_EDGES``, with every class degree within 2."""
    def cyclic_run(state, first=0):
        return {e: first + (0 if e[1] <= 4 else (e[1] - 5) // 2 + 1) for e in CYCLE_HUB_EDGES}

    monkeypatch.setattr(linarb.solver.SolverState, "run", cyclic_run)


def test_debug_solve_ends_with_the_independent_verifier(monkeypatch):
    """A debug solve's one end check is verify_partition: a sweep map with a
    cycle in one class raises from ``decompose``; without debug checks it
    is returned as it is."""
    cyclic_sweep(monkeypatch)
    g = Graph.from_edges(9, CYCLE_HUB_EDGES)
    assert decompose(g, debug_checks=False).coloring[3, 4] == 1
    with pytest.raises(InternalContradictionError,
                       match="decompose produced an invalid partition: .*cycle"):
        decompose(g, debug_checks=True)


def test_no_environment_variable_turns_the_debug_checks_on(monkeypatch):
    """``debug_checks`` is the one switch: a solve without it returns the
    cyclic sweep map whatever the environment holds."""
    cyclic_sweep(monkeypatch)
    monkeypatch.setenv("LINARB_DEBUG_ASSERT", "1")
    g = Graph.from_edges(9, CYCLE_HUB_EDGES)
    assert decompose(g).coloring[3, 4] == 1


def test_cli_debug_assertions_exit_two_on_a_cyclic_sweep(monkeypatch):
    cyclic_sweep(monkeypatch)
    text = "".join(f"{u} {v}\n" for u, v in CYCLE_HUB_EDGES)
    code, out, err = run_cli(["decompose", "-", "--debug-assertions"], stdin_text=text)
    assert (code, out) == (2, "")
    assert err.startswith("internal error: decompose produced an invalid partition")
    assert "contains a cycle" in err and "Violation(" not in err


def test_cli_verify_after_exits_two_on_an_invalid_map(monkeypatch):
    """``--verify-after`` runs the verifier on the map before a line is
    written: a cyclic class is an internal contradiction, exit 2."""
    cyclic_sweep(monkeypatch)
    text = "".join(f"{u} {v}\n" for u, v in CYCLE_HUB_EDGES)
    code, out, err = run_cli(["decompose", "-", "--verify-after"], stdin_text=text)
    assert (code, out) == (2, "")
    assert err.startswith("internal error: self-check failed:")
    assert "contains a cycle" in err


def _refuse_light_edge(monkeypatch):
    def refuse(fc, e, x, y, start=0):
        raise InternalContradictionError(f"light edge {x}-{y} refused")

    monkeypatch.setattr(linarb.solver, "place_light_edge", refuse)


def _drop_an_edge(monkeypatch):
    real = linarb.cli.decompose

    def dropping(g, mode, **kwargs):
        result = real(g, mode, **kwargs)
        del result.coloring[min(result.coloring)]
        return result

    monkeypatch.setattr(linarb.cli, "decompose", dropping)


def _drop_a_probe(monkeypatch):
    keys = SolverState.edge_keys
    monkeypatch.setattr(SolverState, "edge_keys",
                        lambda self: itertools.islice(keys(self), 1, None))


def _repeat_a_probe(monkeypatch):
    keys = SolverState.edge_keys

    def repeating(self):
        probes = keys(self)
        first = next(probes)
        return itertools.chain([first, first], probes)

    monkeypatch.setattr(SolverState, "edge_keys", repeating)


CYCLE_HUB_TEXT = "".join(f"{u} {v}\n" for u, v in CYCLE_HUB_EDGES)
CYCLE_HUB_DIMACS = f"p edge 9 {len(CYCLE_HUB_EDGES)}\n" + "".join(
    f"e {u + 1} {v + 1}\n" for u, v in CYCLE_HUB_EDGES
)
GENERATED_TEXT = "".join(f"{u} {v}\n" for u, v in generate_k_degenerate(40, 2, 8, 3).edges())
GENERATED_M = GENERATED_TEXT.count("\n")

# Every way ``linarb decompose`` can reach an internal contradiction, each
# forced by a patch: (patch, input, extra arguments, start of the message).
FORCED_SITES = {
    "debug-end-check": (cyclic_sweep, CYCLE_HUB_TEXT, ["--debug-assertions"],
                        "decompose produced an invalid partition"),
    "sweep": (_refuse_light_edge, GENERATED_TEXT, ["--mode", "lac"], "light edge"),
    "forest": (lambda mp: mp.setattr(linarb.solver, "class_count_for", lambda *args: 1),
               STAR6_TEXT, [], "forest pairing ran out of classes at 0"),
    "classes": (_drop_an_edge, GAP_TEXT, ["--mode", "lac"], "partition has 6 entries"),
    # A probe the row table lost or repeated leaves one edge without a class.
    "dropped-probe": (_drop_a_probe, GENERATED_TEXT, [],
                      f"edge map has {GENERATED_M} keys for {GENERATED_M} edges, 1 without"),
    "repeated-probe": (_repeat_a_probe, GENERATED_TEXT, [],
                       f"edge map has {GENERATED_M} keys for {GENERATED_M} edges, 1 without"),
    "verify-after": (cyclic_sweep, CYCLE_HUB_DIMACS, ["--dimacs", "--verify-after"],
                     "self-check failed:"),
}


@pytest.mark.parametrize("site", FORCED_SITES)
def test_cli_contradiction_leaves_one_replayable_case(monkeypatch, tmp_path, site):
    """With ``$LINARB_DUMP_DIR`` set, a contradiction under ``decompose``
    writes one case file: the input as a plain edge list, whose replay line
    runs into the same message, its path quoted for a shell.  The message's
    last line names the file."""
    patch, text, extra, start = FORCED_SITES[site]
    patch(monkeypatch)
    dump = tmp_path / "dump dir"
    dump.mkdir()
    monkeypatch.setenv("LINARB_DUMP_DIR", str(dump))
    code, out, err = run_cli(["decompose", "-", *extra], stdin_text=text)
    assert (code, out) == (2, "")
    first = err.splitlines()[0]
    assert first.startswith(f"internal error: {start}")
    (case,) = dump.iterdir()
    assert err.splitlines()[-1] == f"  reproducer: {case}"
    written = parse_edge_list(case.read_text())
    given = parse_edge_list(text, dimacs="--dimacs" in extra)
    assert (written.n, written.edges()) == (given.n, given.edges())
    (replay,) = [line for line in case.read_text().splitlines() if line.startswith("# replay: ")]
    argv = shlex.split(replay)[3:]
    assert argv[:2] == ["decompose", str(case)]
    monkeypatch.delenv("LINARB_DUMP_DIR")
    code, out, again = run_cli(argv)
    assert (code, out) == (2, "")
    assert again.splitlines()[0] == first
    assert list(dump.iterdir()) == [case]


@pytest.mark.parametrize("site", FORCED_SITES)
def test_cli_contradiction_without_dump_dir_writes_nothing(monkeypatch, tmp_path, site):
    patch, text, extra, start = FORCED_SITES[site]
    patch(monkeypatch)
    monkeypatch.delenv("LINARB_DUMP_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["decompose", "-", *extra], stdin_text=text)
    assert (code, out) == (2, "")
    assert err.startswith(f"internal error: {start}") and "reproducer" not in err
    assert list(tmp_path.iterdir()) == []


def test_cli_contradiction_reports_an_unwritable_dump_dir(monkeypatch, tmp_path):
    cyclic_sweep(monkeypatch)
    monkeypatch.setenv("LINARB_DUMP_DIR", str(tmp_path / "missing"))
    code, out, err = run_cli(["decompose", "-", "--debug-assertions"], stdin_text=CYCLE_HUB_TEXT)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith("  reproducer not written: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("enabled", [True, False])
def test_cli_leaves_the_collector_as_it_found_it(monkeypatch, enabled):
    """``main`` turns the cyclic collector off for one command only: after
    exit codes 0, 1 and 2 and after an unexpected exception, the collector
    is on or off as it was before the call."""
    def boom(args):
        raise RuntimeError("boom")

    cyclic_sweep(monkeypatch)
    cycle_text = "".join(f"{u} {v}\n" for u, v in CYCLE_HUB_EDGES)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, text, want in (
            (["bounds", "-"], K4_TEXT, 0),
            (["bounds", "-"], "0 x\n", 1),
            (["decompose", "-", "--debug-assertions"], cycle_text, 2),
        ):
            assert run_cli(argv, stdin_text=text)[0] == want
            assert gc.isenabled() is enabled
        monkeypatch.setattr(linarb.cli, "_cmd_bounds", boom)
        with pytest.raises(RuntimeError, match="boom"):
            run_cli(["bounds", "-"], stdin_text=K4_TEXT)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("extra", [[], ["--format", "json", "--stats"]])
def test_cli_cyclic_garbage_does_not_grow_with_the_input(tmp_path, extra):
    """With the collector off, a command leaves the same cyclic garbage (its
    argument parser's) at n and at 2n: none of it comes from the graph."""
    def decompose_file(path):
        code, _, err = run_cli(["decompose", str(path), "--verify-after", *extra])
        assert (code, err) == (0, "")

    found = []
    for n in (2000, 4000):
        g = capped_instance(2, 8, n, random.Random(5))
        path = tmp_path / f"g{n}.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
        found.append(unreachable_after(lambda: decompose_file(path)))
    assert found[0] == found[1], found


# ------------------------------------------------------------------- commands


def test_cli_generate_output_shape():
    code, out, err = run_cli(
        ["generate", "--n", "12", "--k", "2", "--delta-min", "6", "--seed", "7"]
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "# generated n=12 k=2 delta_min=6 seed=7"
    assert lines[1] == "p 12 21"
    assert len(lines) == 23
    g = parse_edge_list(out)
    assert g.n == 12 and g.edge_count == 21


@pytest.mark.parametrize(
    "n, k, delta_min, seed",
    [(1, 1, 0, 0), (1, 2, 4, 3), (12, 2, 6, 7), (10, 1, 12, 3), (50, 3, 40, 1),
     (300, 2, 0, 4), (200, 4, 0, 9), (3000, 2, 0, 2)],
)
def test_cli_generate_matches_the_sorted_reference(n, k, delta_min, seed):
    """The streamed output is the one built from ``g.edges()`` and joined
    whole, byte for byte; 3000 vertices make 5999 lines, past one chunk."""
    g = generate_k_degenerate(n, k, delta_min, seed)
    want = [f"# generated n={n} k={k} delta_min={delta_min} seed={seed}",
            f"p {g.n} {g.edge_count}"]
    want.extend(f"{u} {v}" for u, v in g.edges())
    argv = ["generate", "--n", str(n), "--k", str(k), "--delta-min", str(delta_min),
            "--seed", str(seed)]
    assert run_cli(argv) == (0, "\n".join(want) + "\n", "")


@pytest.mark.parametrize("n", [50_000, 200_000])
def test_cli_generate_memory_does_not_grow_with_the_edge_count(monkeypatch, n):
    """With the graph handed in and the output discarded, the traced peak of
    ``generate`` stays under 1 MB at 99,997 and 399,997 edges: the lines go
    out one chunk at a time, never as one list or string."""
    g = generate_k_degenerate(n, 2)
    assert g.edge_count == 2 * n - 3
    monkeypatch.setattr(linarb.cli, "generate_k_degenerate", lambda *args: g)
    args = linarb.cli.build_parser().parse_args(["generate", "--n", str(n), "--k", "2"])
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            assert linarb.cli._cmd_generate(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_cli_generate_feeds_decompose():
    _, gen_text, _ = run_cli(
        ["generate", "--n", "12", "--k", "2", "--delta-min", "6", "--seed", "7"]
    )
    code, out, err = run_cli(["decompose", "-"], stdin_text=gen_text)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "# t=4 k=2 delta=7 mode=minimum n=12 m=21"
    assert len(lines) == 1 + 21
    for line in lines[1:]:
        u, v, c = map(int, line.split())
        assert 1 <= c <= 4


def test_cli_decompose_default_output_is_byte_stable():
    _, gen_text, _ = run_cli(
        ["generate", "--n", "30", "--k", "2", "--delta-min", "8", "--seed", "11"]
    )
    first = run_cli(["decompose", "-"], stdin_text=gen_text)
    second = run_cli(["decompose", "-"], stdin_text=gen_text)
    assert first == second
    assert "_ms" not in first[1]


def test_cli_decompose_json_payload():
    _, gen_text, _ = run_cli(
        ["generate", "--n", "12", "--k", "2", "--delta-min", "6", "--seed", "7"]
    )
    code, out, _ = run_cli(
        ["decompose", "-", "--format", "json", "--verify-after"], stdin_text=gen_text
    )
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == ["classes", "delta", "k", "m", "mode", "n", "t", "verified"]
    assert payload["verified"] is True
    assert payload["t"] == 4 and payload["delta"] == 7 and payload["m"] == 21
    assert len(payload["classes"]) == 21
    assert all(len(row) == 3 for row in payload["classes"])


def test_cli_decompose_json_without_verify_has_no_verified_key():
    _, gen_text, _ = run_cli(
        ["generate", "--n", "12", "--k", "2", "--delta-min", "6", "--seed", "7"]
    )
    code, out, _ = run_cli(["decompose", "-", "--format", "json"], stdin_text=gen_text)
    assert code == 0
    assert "verified" not in json.loads(out)


def test_cli_decompose_stats_flag_adds_counters():
    code, out, _ = run_cli(["decompose", "-", "--stats"], stdin_text=STAR6_TEXT)
    assert code == 0
    last = out.splitlines()[-1]
    assert last.startswith("# stats ")
    assert "repair_iterations=0" in last
    for timer in ("order_ms", "sdr_ms", "sweep_ms", "wall_ms"):
        assert f" {timer}=" in last
    _, gen_text, _ = run_cli(
        ["generate", "--n", "30", "--k", "2", "--delta-min", "8", "--seed", "11"]
    )
    code, out, _ = run_cli(["decompose", "-", "--stats", "--format", "json"], stdin_text=gen_text)
    stats = json.loads(out)["stats"]
    assert "components" not in stats
    assert all(stats[timer] > 0 for timer in ("order_ms", "sdr_ms", "sweep_ms", "wall_ms"))
    code, out, _ = run_cli(["decompose", "-"], stdin_text=STAR6_TEXT)
    assert "stats" not in out


def test_cli_decompose_reports_threshold_shortfall():
    code, out, err = run_cli(["decompose", "-"], stdin_text=K4_TEXT)
    assert code == 1
    assert out == ""
    assert err.strip() == (
        "error: minimum mode requires maximum degree >= 15 "
        "at degeneracy 3; graph has 3"
    )


def test_cli_decompose_auto_falls_back_to_exhaustive_search():
    code, out, _ = run_cli(["decompose", "-", "--mode", "auto"], stdin_text=K4_TEXT)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# t=2 k=3 delta=3 mode=exact n=4 m=6"
    assert len(lines) == 7


def test_cli_decompose_auto_prefers_relaxed_mode_in_the_gap():
    code, out, _ = run_cli(["decompose", "-", "--mode", "auto"], stdin_text=GAP_TEXT)
    assert code == 0
    assert out.splitlines()[0] == "# t=3 k=2 delta=4 mode=lac n=7 m=7"


def test_cli_decompose_auto_refuses_large_ineligible_input():
    blocks = []
    for b in range(6):
        base = 4 * b
        blocks.extend(
            f"{base + u} {base + v}" for u in range(4) for v in range(u + 1, 4)
        )
    text = "\n".join(blocks) + "\n"
    code, out, err = run_cli(["decompose", "-", "--mode", "auto"], stdin_text=text)
    assert code == 1
    assert out == ""
    assert "auto mode" in err and "too many" in err


def test_cli_decompose_rejects_malformed_input_with_line_number():
    code, out, err = run_cli(["decompose", "-"], stdin_text="0 1\nbad\n")
    assert code == 1
    assert out == ""
    assert "line 2" in err


def test_cli_bounds_text_output():
    code, out, err = run_cli(["bounds", "-"], stdin_text="0 1\n1 2\n")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "delta=2",
        "degeneracy=1",
        "lower=1",
        "upper=1",
        "upper_proven=true",
    ]


def test_cli_bounds_json_output():
    code, out, _ = run_cli(["bounds", "-", "--format", "json"], stdin_text=K4_TEXT)
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "delta": 3,
        "degeneracy": 3,
        "lower": 2,
        "upper": 2,
        "upper_proven": True,
    }


@pytest.mark.parametrize(
    "argv, text",
    [
        (["bounds", "-"], K4_TEXT),
        (["bounds", "-", "--format", "json"], STAR6_TEXT),
        (["decompose", "-", "--mode", "auto"], K4_TEXT),
        (["decompose", "-", "--mode", "auto"], GAP_TEXT),
    ],
    ids=["bounds-text", "bounds-json", "auto-exact", "auto-sweep"],
)
def test_cli_command_computes_one_ordering(monkeypatch, argv, text):
    """``bounds`` and both branches of ``decompose --mode auto`` use the one
    ordering they computed: the sweep branch hands the CLI's ordering on to
    the solver instead of computing another."""
    calls = []

    def counting(g):
        calls.append(g)
        return degeneracy_ordering(g)

    for module in (linarb.cli, linarb.oracle, linarb.solver):
        monkeypatch.setattr(module, "degeneracy_ordering", counting)
    code, _, err = run_cli(argv, stdin_text=text)
    assert code == 0 and err == ""
    assert len(calls) == 1


def test_cli_oracle_on_a_four_cycle():
    code, out, err = run_cli(["oracle", "-"], stdin_text="0 1\n1 2\n2 3\n0 3\n")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "# la=2 complete=true nodes=9"
    witness = {}
    for line in lines[1:]:
        u, v, c = map(int, line.split())
        witness[(u, v)] = c
    assert len(witness) == 4
    assert set(witness.values()) == {1, 2}


def test_cli_oracle_json_and_budget_exhaustion():
    k7 = "\n".join(f"{u} {v}" for u in range(7) for v in range(u + 1, 7))
    code, out, _ = run_cli(
        ["oracle", "-", "--budget", "50", "--format", "json"], stdin_text=k7
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["complete"] is False
    assert payload["la"] is None
    assert payload["classes"] is None
    assert payload["nodes_explored"] == 50


def test_cli_verify_round_trip(tmp_path):
    graph_file = tmp_path / "graph.txt"
    classes_file = tmp_path / "classes.txt"
    graph_file.write_text(STAR6_TEXT)
    _, out, _ = run_cli(["decompose", str(graph_file)])
    classes_file.write_text("\n".join(out.splitlines()[1:]) + "\n")
    code, out, err = run_cli(["verify", str(graph_file), "--classes", str(classes_file)])
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "valid: true",
        "optimal: true",
        "classes: 3",
        "lower_bound: 3",
    ]


def test_cli_verify_flags_missing_edges(tmp_path):
    graph_file = tmp_path / "graph.txt"
    classes_file = tmp_path / "classes.txt"
    graph_file.write_text(STAR6_TEXT)
    classes_file.write_text("")
    code, out, _ = run_cli(["verify", str(graph_file), "--classes", str(classes_file)])
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "valid: false"
    assert sum("violation:" in line for line in lines) == 6


def test_cli_verify_declared_class_count_overrides_guess(tmp_path):
    graph_file = tmp_path / "graph.txt"
    classes_file = tmp_path / "classes.txt"
    graph_file.write_text(STAR6_TEXT)
    _, out, _ = run_cli(["decompose", str(graph_file)])
    classes_file.write_text("\n".join(out.splitlines()[1:]) + "\n")
    code, out, _ = run_cli(
        ["verify", str(graph_file), "--classes", str(classes_file), "--t", "5"]
    )
    assert code == 0
    assert out.splitlines()[:2] == ["valid: true", "optimal: false"]


def test_cli_verify_json_report(tmp_path):
    graph_file = tmp_path / "graph.txt"
    classes_file = tmp_path / "classes.txt"
    graph_file.write_text("0 1\n1 2\n")
    classes_file.write_text("0 1 1\n1 2 1\n")
    code, out, _ = run_cli(
        ["verify", str(graph_file), "--classes", str(classes_file), "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["violations"] == []


def test_cli_verify_rejects_twice_colored_edge(tmp_path):
    graph_file = tmp_path / "graph.txt"
    classes_file = tmp_path / "classes.txt"
    graph_file.write_text("0 1\n1 2\n")
    classes_file.write_text("0 1 1\n1 0 2\n")
    code, out, err = run_cli(["verify", str(graph_file), "--classes", str(classes_file)])
    assert code == 1
    assert "colored twice" in err


def test_cli_verify_huge_class_index_costs_nothing(tmp_path):
    # The class count is read off the file; checking must not allocate per class.
    graph_file = tmp_path / "graph.txt"
    classes_file = tmp_path / "classes.txt"
    graph_file.write_text("0 1\n1 2\n")
    classes_file.write_text(f"0 1 1\n1 2 {10**9}\n")
    code, out, err = run_cli(["verify", str(graph_file), "--classes", str(classes_file)])
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "valid: true",
        "optimal: false",
        f"classes: {10**9}",
        "lower_bound: 1",
    ]


CORRUPT_GRAPH_TEXT = (
    "0 1\n1 2\n0 2\n3 4\n3 5\n3 6\n4 5\n6 7\n2 7\n1 7\n8 9\n9 10\n10 11\n8 11\n"
)
# A reversed key, a triangle and a 4-cycle in classes 1 and 3, an overflow
# with a cycle under it in class 2, classes 0 and 5 outside 1..3, a foreign
# edge, a self-loop key, and the uncolored edge 1-7.
CORRUPT_CLASSES_TEXT = (
    "# corrupted\n1 0 1\n1 2 1\n0 2 1\n3 4 2\n3 5 2\n3 6 2\n4 5 2\n6 7 5\n"
    "2 7 0\n0 5 1\n4 4 1\n8 9 3\n9 10 3\n10 11 3\n11 8 3\n"
)


def _verify_corrupt(tmp_path, *extra):
    graph_file = tmp_path / "graph.txt"
    classes_file = tmp_path / "classes.txt"
    graph_file.write_text(CORRUPT_GRAPH_TEXT)
    classes_file.write_text(CORRUPT_CLASSES_TEXT)
    return run_cli(
        ["verify", str(graph_file), "--classes", str(classes_file), "--t", "3", *extra]
    )


def test_cli_verify_corrupt_partition_text_is_stable(tmp_path):
    code, out, err = _verify_corrupt(tmp_path)
    assert (code, err) == (1, "")
    assert out == (
        "valid: false\n"
        "optimal: false\n"
        "classes: 3\n"
        "lower_bound: 2\n"
        "violation: [UNKNOWN_EDGE] colored edge (0, 5) is not an edge of the graph\n"
        "violation: [UNKNOWN_EDGE] edge (2, 7) assigned class 0 outside 1..3\n"
        "violation: [UNKNOWN_EDGE] colored edge (4, 4) is not an edge of the graph\n"
        "violation: [UNKNOWN_EDGE] edge (6, 7) assigned class 5 outside 1..3\n"
        "violation: [UNCOLORED_EDGE] edge (1, 7) received no class\n"
        "violation: [DEGREE_OVERFLOW] vertex 3 has 3 edges in class 2\n"
        "violation: [MONOCHROMATIC_CYCLE] class 1 contains a cycle through 3 vertices "
        "(starts at 0)\n"
        "violation: [MONOCHROMATIC_CYCLE] class 3 contains a cycle through 4 vertices "
        "(starts at 8)\n"
    )


def test_cli_verify_corrupt_partition_json_is_stable(tmp_path):
    code, out, _ = _verify_corrupt(tmp_path, "--format", "json")
    assert code == 1
    # sha256 of the JSON report the dict-based verifier printed for this input
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "833050a4734af6f3ae744d6c523178b0b8b41b75b3e593d53b5eadf176933306"
    )
    assert [v["kind"] for v in json.loads(out)["violations"]] == (
        ["UNKNOWN_EDGE"] * 4 + ["UNCOLORED_EDGE", "DEGREE_OVERFLOW"] + ["MONOCHROMATIC_CYCLE"] * 2
    )


def test_cli_dimacs_input_matches_plain_input():
    plain = "0 1\n1 2\n2 3\n0 3\n0 2\n"
    dimacs = "p edge 4 5\ne 1 2\ne 2 3\ne 3 4\ne 1 4\ne 1 3\n"
    plain_run = run_cli(["decompose", "-", "--mode", "auto"], stdin_text=plain)
    dimacs_run = run_cli(
        ["decompose", "-", "--mode", "auto", "--dimacs"], stdin_text=dimacs
    )
    assert plain_run == dimacs_run
    assert plain_run[0] == 0


def test_cli_usage_problems_exit_one():
    code, _, err = run_cli(["nonsense"])
    assert code == 1
    assert "invalid choice" in err
    code, _, err = run_cli([])
    assert code == 1
    code, _, err = run_cli(["decompose", "-", "--mode", "bogus"], stdin_text="0 1\n")
    assert code == 1


def test_cli_missing_file_exits_one():
    code, out, err = run_cli(["decompose", "/no/such/file.txt"])
    assert code == 1
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("where", ["input", "classes"])
def test_cli_input_that_is_not_utf8_exits_one(tmp_path, where):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0 1\n\xff\n")
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text(STAR6_TEXT)
    if where == "input":
        argv = ["decompose", str(bad)]
    else:
        argv = ["verify", str(graph_file), "--classes", str(bad)]
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "can't decode byte 0xff" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("data", [b"0 1\n\xff\n", b"# \xff\n0 1\n"], ids=["edge", "comment"])
def test_cli_stdin_and_a_file_decode_bytes_alike_under_a_c_locale(tmp_path, data):
    """Standard input is strict UTF-8 as a file is, whatever the locale: a
    0xff byte gives exit 1 and the same error line from a pipe or a file,
    in a comment as on an edge line."""
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    src = str(Path(linarb.cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "PYTHON", "LANG"))}
    env.update(LC_ALL="C", PYTHONPATH=src)
    cli = [sys.executable, "-m", "linarb.cli", "decompose"]
    piped = subprocess.run([*cli, "-"], input=data, capture_output=True, env=env, timeout=60)
    read = subprocess.run([*cli, str(path)], capture_output=True, env=env, timeout=60)
    assert piped.returncode == read.returncode == 1
    assert piped.stdout == read.stdout == b""
    assert piped.stderr == read.stderr
    assert piped.stderr.startswith(b"error: 'utf-8' codec can't decode byte 0xff")


def test_cli_stdin_dash_reads_standard_input():
    code, out, _ = run_cli(["bounds", "-"], stdin_text="0 1\n")
    assert code == 0
    assert out.splitlines()[0] == "delta=1"
