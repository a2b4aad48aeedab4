"""Command-line front end, seeded graph generator, and edge-list parsing.

Exit codes: 0 on success (for ``verify``: the partition is valid), 1 for
input problems (parse errors, unsatisfied degree thresholds, usage errors,
invalid partitions under ``verify``), 2 for internal contradictions, which
always indicate a bug rather than bad input.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from array import array
from bisect import bisect_right
from collections.abc import Iterator
from itertools import islice

from .degeneracy import degeneracy_ordering
from .errors import GraphError, InternalContradictionError, ParseError, PreconditionError
from .graph import Graph, max_degree
from .oracle import DEFAULT_NODE_BUDGET, exact_la, la_bounds
from .solver import Mode, _solve, decompose, required_max_degree
from .verify import verify_partition

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Small deterministic PRNG with a portable, documented stream.

    The stdlib random module would be reproducible too, but its sampling
    helpers consume the stream in version-dependent ways; generated test
    graphs must be byte-stable against reimplementation in any language.
    Seed 0 yields 0xE220A8397B1DCDAF first.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        # Modulo bias is ~n / 2**64, negligible for test-data purposes.
        if n <= 0:
            raise PreconditionError("below() needs a positive bound")
        return self.next_u64() % n


def generate_k_degenerate(n: int, k: int, delta_min: int = 0, seed: int = 0) -> Graph:
    """Seeded random graph of degeneracy ``min(k, n - 1)``.

    Vertex ``i`` (for ``i >= 1``) attaches to ``min(k, i)`` distinct earlier
    vertices chosen uniformly.  Read backwards, that insertion order removes
    each vertex with at most k remaining neighbors, so the degeneracy is at
    most k; the first ``k + 1`` vertices form a complete graph, so it is
    exactly k once ``n > k``.

    If the maximum degree then falls short of ``delta_min``, fresh degree-1
    vertices are attached to one fixed maximum-degree vertex until it reaches
    the target.  Degree-1 additions never raise the degeneracy, and raising a
    single vertex's degree cannot lower it, so the promise above survives the
    boost (a boosted single-vertex graph becomes a star of degeneracy 1).
    """
    if n < 1:
        raise PreconditionError(f"need at least one vertex, got n={n}")
    if k < 1:
        raise PreconditionError(f"attachment count must be positive, got k={k}")
    if delta_min < 0:
        raise PreconditionError(f"delta_min must be non-negative, got {delta_min}")
    rng = SplitMix64(seed)
    adj: list[list[int]] = [[] for _ in range(n)]
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        want = min(k, i)
        picked: set[int] = set()
        while len(picked) < want:
            picked.add(rng.below(i))
        for c in sorted(picked):
            edges.add((c, i))
            adj[c].append(i)
            adj[i].append(c)
    if delta_min > 0:
        hub = max(range(n), key=lambda v: (len(adj[v]), -v))
        while len(adj[hub]) < delta_min:
            w = len(adj)
            adj.append([hub])
            adj[hub].append(w)
            edges.add((hub, w))
    return Graph._from_parts(adj, edges)


def parse_edge_list(text: str, dimacs: bool = False) -> Graph:
    """Parse an edge list into a Graph, reporting errors with line numbers.

    Plain format: ``#`` starts a comment, blank lines are skipped, and an
    optional first data line ``p <n> <m>`` fixes the vertex and edge counts
    (ids must then be below n).  Every other data line is ``u v`` with
    0-based ids; without a header the vertex count is ``max id + 1``.

    DIMACS format (``dimacs=True``): ``c`` comment lines, a mandatory
    ``p <name> <n> <m>`` header, and ``e u v`` lines with 1-based ids.

    Self-loops, repeated edges, out-of-range ids, malformed tokens, and edge
    counts disagreeing with the header all raise :class:`ParseError`.
    """
    n_declared: int | None = None
    m_declared: int | None = None
    header_line = 0
    found: dict[tuple[int, int], int] = {}
    saw_data = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#") or (dimacs and line.startswith("c")):
            continue
        tok = line.split()
        if tok[0] == "p":
            if saw_data or n_declared is not None:
                raise ParseError(line_no, "header must be the first data line")
            want = 4 if dimacs else 3
            if len(tok) != want:
                raise ParseError(
                    line_no,
                    f"header needs {'p <name> <n> <m>' if dimacs else 'p <n> <m>'}, got {raw!r}",
                )
            try:
                n_declared = int(tok[-2])
                m_declared = int(tok[-1])
            except ValueError:
                raise ParseError(line_no, f"non-integer counts in header {raw!r}") from None
            if n_declared < 0 or m_declared < 0:
                raise ParseError(line_no, "counts in header must be non-negative")
            header_line = line_no
            continue
        saw_data = True
        if dimacs:
            if n_declared is None:
                raise ParseError(line_no, "edge line before the 'p' header")
            if tok[0] != "e" or len(tok) != 3:
                raise ParseError(line_no, f"expected 'e <u> <v>', got {raw!r}")
            tok = tok[1:]
        elif len(tok) != 2:
            raise ParseError(line_no, f"expected '<u> <v>', got {raw!r}")
        try:
            u, v = int(tok[0]), int(tok[1])
        except ValueError:
            raise ParseError(line_no, f"non-integer vertex id in {raw!r}") from None
        if dimacs:
            u -= 1
            v -= 1
        lo = min(u, v)
        hi = max(u, v)
        if lo < 0:
            bad = f"{lo + 1} is below 1: DIMACS ids start at 1" if dimacs else f"{lo} is negative"
            raise ParseError(line_no, f"vertex id {bad}")
        if n_declared is not None and hi >= n_declared:
            raise ParseError(
                line_no,
                f"vertex id {hi if not dimacs else hi + 1} outside the declared "
                f"{n_declared} vertices",
            )
        if u == v:
            raise ParseError(line_no, f"self-loop at vertex {u if not dimacs else u + 1}")
        if (lo, hi) in found:
            raise ParseError(
                line_no, f"edge {lo}-{hi} already given on line {found[(lo, hi)]}"
            )
        found[(lo, hi)] = line_no

    if dimacs and n_declared is None and found:
        raise ParseError(1, "DIMACS input lacks a 'p' header")
    if m_declared is not None and m_declared != len(found):
        raise ParseError(
            header_line, f"header declares {m_declared} edges, found {len(found)}"
        )
    n = n_declared if n_declared is not None else (
        max((hi for (_, hi) in found), default=-1) + 1
    )
    # Filled from the sorted edges, every row comes out ascending.
    adj: list[list[int]] = [[] for _ in range(n)]
    for lo, hi in sorted(found):
        adj[lo].append(hi)
        adj[hi].append(lo)
    return Graph._from_parts(adj, set(found))


# --------------------------------------------------------------------- output


def _read_input(path: str) -> str:
    """The text of ``path``, or of standard input for ``-``, decoded as strict
    UTF-8 either way, so the same bytes read the same from a pipe or a file
    whatever the locale."""
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


# Lines of ``u w c`` per write of the text output: the output is never held
# whole, so the emit's memory does not grow with the edge count.
_CHUNK_LINES = 4096


def _ascending_edges(g: Graph) -> Iterator[tuple[int, int]]:
    """Every edge ``(u, w)``, ``u < w``, of a graph with ascending rows, in
    ascending order, as the output lists them: the map is never sorted."""
    for u, row in enumerate(g._adj):
        for w in row[bisect_right(row, u):]:
            yield u, w


def _classes(g: Graph, coloring: dict[tuple[int, int], int]) -> array:
    """The class of every edge of ``g``, in :func:`_ascending_edges` order.

    The map's keys must be exactly the graph's edges; anything else is a
    solver bug and raises InternalContradictionError.  The lookups all run
    here, so the caller has written nothing when that happens.
    """
    if len(coloring) != g.edge_count:
        raise InternalContradictionError(
            f"partition has {len(coloring)} entries for {g.edge_count} edges"
        )
    try:
        return array("i", map(coloring.__getitem__, _ascending_edges(g)))
    except KeyError as exc:
        u, w = exc.args[0]
        raise InternalContradictionError(f"partition misses edge {u}-{w}") from None


def _write_partition_text(head: dict, g: Graph, classes: array, stats: dict | None) -> None:
    """Write the text output: the header, one ``u w c`` line per edge in
    :data:`_CHUNK_LINES` chunks, and the ``# stats`` line when ``stats`` is
    given."""
    write = sys.stdout.write
    write(f"# {' '.join(f'{k}={v}' for k, v in head.items())}\n")
    lines = zip(_ascending_edges(g), classes)
    while chunk := "".join(f"{u} {w} {c}\n" for (u, w), c in islice(lines, _CHUNK_LINES)):
        write(chunk)
    if stats is not None:
        write(f"# stats {' '.join(f'{k}={v}' for k, v in sorted(stats.items()))}\n")


def _partition_json(head: dict, g: Graph, classes: array) -> str:
    payload = dict(head)
    payload["classes"] = [[u, w, c] for (u, w), c in zip(_ascending_edges(g), classes)]
    return json.dumps(payload, indent=2, sort_keys=True)


def _parse_coloring(text: str) -> tuple[dict[tuple[int, int], int], int]:
    """Read 'u v c' lines (comments/blanks allowed); returns the map and the
    largest class index seen (0 when empty).  Structural edge problems are
    left to the verifier; only unreadable lines fail here."""
    result: dict[tuple[int, int], int] = {}
    high = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tok = line.split()
        if len(tok) != 3:
            raise ParseError(line_no, f"expected '<u> <v> <class>', got {raw!r}")
        try:
            u, v, c = int(tok[0]), int(tok[1]), int(tok[2])
        except ValueError:
            raise ParseError(line_no, f"non-integer field in {raw!r}") from None
        key = (u, v) if u <= v else (v, u)
        if key in result:
            raise ParseError(line_no, f"edge {key[0]}-{key[1]} colored twice")
        result[key] = c
        high = max(high, c)
    return result, high


# ------------------------------------------------------------------- commands


def _cmd_decompose(args: argparse.Namespace) -> int:
    g = parse_edge_list(_read_input(args.input), dimacs=args.dimacs)
    ordering = None
    if args.mode == "auto":
        delta = max_degree(g)
        start = time.perf_counter()
        ordering = degeneracy_ordering(g)
        k = ordering.k
        if k <= 1 or delta >= required_max_degree(k, Mode.MINIMUM):
            mode: Mode | None = Mode.MINIMUM
        elif delta >= required_max_degree(k, Mode.LAC):
            mode = Mode.LAC
        elif g.edge_count <= 20:
            mode = None
        else:
            raise PreconditionError(
                f"auto mode: maximum degree {delta} is below the relaxed threshold "
                f"{required_max_degree(k, Mode.LAC)} for degeneracy {k}, and "
                f"{g.edge_count} edges is too many for exhaustive search"
            )
    else:
        mode = Mode(args.mode)

    if mode is None:
        found = exact_la(g)
        if not found.complete:
            raise PreconditionError(
                "auto mode: exhaustive search ran out of budget; "
                "give the graph a higher maximum degree or fewer edges"
            )
        coloring = found.witness or {}
        t = found.la
        stats_dict: dict = {"nodes_explored": found.nodes_explored}
    else:
        if ordering is None:
            result = decompose(g, mode, debug_checks=args.debug_assertions)
        else:
            result = _solve(g, ordering, mode, args.debug_assertions, start)
        coloring, t, k, delta = result.coloring, result.t, result.k, result.delta
        stats_dict = dict(vars(result.stats))
    head = {"t": t, "k": k, "delta": delta, "mode": "exact" if mode is None else mode.value,
            "n": g.n, "m": g.edge_count}

    if args.verify_after:
        report = verify_partition(g, coloring, t)
        head["verified"] = report.valid
        if not report.valid:
            raise InternalContradictionError(
                "self-check failed: " + "; ".join(v.detail for v in report.violations[:5])
            )
    classes = _classes(g, coloring)
    if args.format == "json":
        if args.stats:
            head["stats"] = stats_dict
        _emit(_partition_json(head, g, classes))
    else:
        _write_partition_text(head, g, classes, stats_dict if args.stats else None)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = parse_edge_list(_read_input(args.input), dimacs=args.dimacs)
    found = exact_la(g, budget=args.budget)
    if args.format == "json":
        payload = {
            "la": found.la,
            "complete": found.complete,
            "nodes_explored": found.nodes_explored,
            "classes": (
                [[u, v, c] for (u, v), c in sorted(found.witness.items())]
                if found.witness is not None
                else None
            ),
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True))
    else:
        head = f"# la={found.la} complete={str(found.complete).lower()} nodes={found.nodes_explored}"
        lines = [head]
        if found.witness:
            lines.extend(f"{u} {v} {c}" for (u, v), c in sorted(found.witness.items()))
        _emit("\n".join(lines))
    return 0 if found.complete else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    g = parse_edge_list(_read_input(args.input), dimacs=args.dimacs)
    coloring, high = _parse_coloring(_read_input(args.classes))
    t = args.t if args.t is not None else high
    report = verify_partition(g, coloring, t)
    if args.format == "json":
        _emit(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        lines = [
            f"valid: {str(report.valid).lower()}",
            f"optimal: {str(report.optimal).lower()}",
            f"classes: {report.class_count}",
            f"lower_bound: {report.lower_bound}",
        ]
        lines.extend(f"violation: [{v.kind}] {v.detail}" for v in report.violations)
        _emit("\n".join(lines))
    return 0 if report.valid else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    g = generate_k_degenerate(args.n, args.k, args.delta_min, args.seed)
    lines = [
        f"# generated n={args.n} k={args.k} delta_min={args.delta_min} seed={args.seed}",
        f"p {g.n} {g.edge_count}",
    ]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    _emit("\n".join(lines))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    g = parse_edge_list(_read_input(args.input), dimacs=args.dimacs)
    b = la_bounds(g)
    payload = {
        "delta": b.delta,
        "degeneracy": b.degeneracy,
        "lower": b.lower,
        "upper": b.upper,
        "upper_proven": b.upper_proven,
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _emit("\n".join(f"{key}={str(val).lower() if isinstance(val, bool) else val}"
                        for key, val in payload.items()))
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; reserve 2 for internal
    # contradictions and report usage problems as input errors instead.
    def error(self, message: str) -> None:  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="linarb",
        description="Partition graph edges into the minimum number of linear forests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="edge-list file, or '-' for stdin")
        p.add_argument("--dimacs", action="store_true", help="read DIMACS 'e u v' lines (1-based)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("decompose", help="partition the edges into linear forests")
    add_common(p)
    p.add_argument(
        "--mode",
        choices=("minimum", "lac", "auto"),
        default="minimum",
        help="minimum: ceil(delta/2) classes; lac: one spare class, lower degree "
        "threshold; auto: best applicable mode, exhaustive search as a last resort",
    )
    p.add_argument("--verify-after", action="store_true", help="re-check the output independently")
    p.add_argument(
        "--debug-assertions",
        action="store_true",
        help="enable internal invariant scans and a final self-check of the output",
    )
    p.add_argument("--stats", action="store_true", help="include solver counters and timing")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("oracle", help="exact linear arboricity by exhaustive search")
    add_common(p)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help="max edge-placement attempts before giving up")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="check a partition produced elsewhere")
    add_common(p)
    p.add_argument("--classes", required=True, help="file of 'u v class' lines (1-based classes)")
    p.add_argument("--t", type=int, default=None,
                   help="declared class count (default: largest class index present)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("generate", help="emit a seeded random graph of bounded degeneracy")
    p.add_argument("--n", type=int, required=True, help="vertex count before any degree boost")
    p.add_argument("--k", type=int, required=True, help="attachment count (degeneracy bound)")
    p.add_argument("--delta-min", type=int, default=0, dest="delta_min",
                   help="boost one vertex to at least this degree with fresh leaves")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bounds", help="closed-form bracket on the linear arboricity")
    add_common(p)
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one ``linarb`` command and return its exit code.  The command runs
    with the cyclic garbage collector off, since nothing it allocates per edge
    forms a reference cycle, and the collector's state is then restored."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        code = stop.code
        return code if isinstance(code, int) else 0
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ParseError, GraphError, PreconditionError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalContradictionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
