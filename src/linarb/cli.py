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
import os
import sys
import time
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from itertools import chain, islice
from operator import is_
from typing import TextIO

from .degeneracy import degeneracy_ordering
from .errors import GraphError, InternalContradictionError, ParseError, PreconditionError
from .graph import Graph, max_degree
from .oracle import DEFAULT_NODE_BUDGET, exact_la, la_bounds
from .solver import Mode, _check_map, decompose, required_max_degree
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

    The rows come out ascending, and the edge table, read off them, is then
    ascending as a parsed graph's is.  One int object names each vertex.
    """
    if n < 1:
        raise PreconditionError(f"need at least one vertex, got n={n}")
    if k < 1:
        raise PreconditionError(f"attachment count must be positive, got k={k}")
    if delta_min < 0:
        raise PreconditionError(f"delta_min must be non-negative, got {delta_min}")
    rng = SplitMix64(seed)
    ids = list(range(n))  # one int object per vertex, shared by rows and keys
    adj: list[list[int]] = [[] for _ in ids]
    for i in ids:
        want = min(k, i)
        picked: set[int] = set()
        while len(picked) < want:
            picked.add(rng.below(i))
        for c in sorted(picked):
            adj[c].append(i)
            adj[i].append(ids[c])
    if delta_min > 0:
        hub = max(ids, key=lambda v: (len(adj[v]), -v))
        while len(adj[hub]) < delta_min:
            w = len(adj)
            adj.append([hub])
            adj[hub].append(w)
    # zip stops before the boost's leaves, whose one neighbor is below them.
    edges = dict.fromkeys((u, w) for u, row in zip(ids, adj) for w in row[bisect_right(row, u):])
    return Graph._from_parts(adj, edges)


def _decimal(tok: str) -> int:
    """``int(tok)`` for ASCII decimal digits after an optional minus sign;
    ``int`` alone also takes a plus sign, ``_`` separators and non-ASCII
    digits.  Raises ``ValueError`` on any other token."""
    if tok.isascii() and (tok.isdigit() or tok[:1] == "-" and tok[1:].isdigit()):
        return int(tok)
    raise ValueError(tok)


def parse_edge_list(text: str, dimacs: bool = False, ids: dict[str, int] | None = None) -> Graph:
    """Parse an edge list into a Graph, reporting errors with line numbers.

    Plain format: ``#`` starts a comment, blank lines are skipped, and an
    optional first data line ``p <n> <m>`` fixes the vertex and edge counts
    (ids must then be below n).  Every other data line is ``u v`` with
    0-based ids; without a header the vertex count is ``max id + 1``.

    DIMACS format (``dimacs=True``): ``c`` comment lines, a mandatory
    ``p <name> <n> <m>`` header, and ``e u v`` lines with 1-based ids.

    Self-loops, repeated edges, out-of-range ids, malformed tokens (anything
    but ASCII decimal digits, a minus sign allowed), and edge counts
    disagreeing with the header all raise :class:`ParseError`.

    Each distinct id token is converted once, and its int is shared by every
    row and key that names the vertex, so canonical tokens give one object
    per vertex; the token-to-id dict is ``ids`` when given.  No line number
    is kept per edge: a repeated edge's first line is found by rescanning
    the lines before it.

    The graph's rows and its edge table come out ascending, whatever the
    input order: :func:`decompose` keys its map in the table's order, which
    is then the output's.  Sorted input keeps the parsed dict as the table.
    """
    n_declared: int | None = None
    m_declared: int | None = None
    header_line = 0
    found: dict[tuple[int, int], None] = {}  # insertion order: input order
    if ids is None:
        ids = {}  # token -> 0-based id, one int per token
    get = ids.get
    shift = 1 if dimacs else 0
    saw_data = False

    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
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
                n_declared = _decimal(tok[-2])
                m_declared = _decimal(tok[-1])
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
        a, b = tok
        try:
            u = get(a)
            if u is None:
                u = ids[a] = _decimal(a) - shift
            v = get(b)
            if v is None:
                v = ids[b] = _decimal(b) - shift
        except ValueError:
            raise ParseError(line_no, f"non-integer vertex id in {raw!r}") from None
        lo, hi = (u, v) if u < v else (v, u)
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
        key = (lo, hi)
        if key in found:
            first = _first_line(lines, line_no, key, ids, dimacs)
            raise ParseError(
                line_no, f"edge {lo + shift}-{hi + shift} already given on line {first}"
            )
        found[key] = None

    if m_declared is not None and m_declared != len(found):
        raise ParseError(
            header_line, f"header declares {m_declared} edges, found {len(found)}"
        )
    n = n_declared if n_declared is not None else (
        max((hi for (_, hi) in found), default=-1) + 1
    )
    # Filled from the sorted edges, every row comes out ascending.
    edges = sorted(found)
    adj: list[list[int]] = [[] for _ in range(n)]
    for lo, hi in edges:
        adj[lo].append(hi)
        adj[hi].append(lo)
    # The sort keeps the key objects, so input already in order matches the
    # dict position by position, object for object.
    if not all(map(is_, edges, found)):
        found = dict.fromkeys(edges)
    return Graph._from_parts(adj, found)


def _first_line(
    lines: list[str], stop: int, key: tuple[int, int], ids: dict[str, int], dimacs: bool
) -> int:
    """The number of the first line before line ``stop`` whose edge is
    ``key``.  Every data line before ``stop`` has parsed, so its tokens are
    in ``ids`` and a line with two of them after any ``e`` is an edge."""
    for line_no, raw in enumerate(lines[:stop - 1], start=1):
        tok = raw.split()
        if dimacs and tok[:1] == ["e"]:
            del tok[0]
        if len(tok) == 2 and tok[0] in ids and tok[1] in ids:
            u, v = ids[tok[0]], ids[tok[1]]
            if (min(u, v), max(u, v)) == key:
                return line_no
    raise InternalContradictionError(f"edge {key[0]}-{key[1]} repeated but not found")


# --------------------------------------------------------------------- output


def _read_input(path: str) -> str:
    """The text of ``path``, or of standard input for ``-``, decoded as strict
    UTF-8 either way, so the same bytes read the same from a pipe or a file
    whatever the locale."""
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# Lines per write: no output is held whole, so a command's emit memory does
# not grow with the edge count.
_CHUNK_LINES = 4096


def _write(lines: Iterable[str], out: TextIO | None = None) -> None:
    """Write each of ``lines`` with a newline, :data:`_CHUNK_LINES` lines per
    write, to ``out``, or to ``sys.stdout`` as it is at the call."""
    write = (sys.stdout if out is None else out).write
    lines = iter(lines)
    while chunk := list(islice(lines, _CHUNK_LINES)):
        chunk.append("")
        write("\n".join(chunk))


def _json_partition(head: dict, coloring: dict[tuple[int, int], int]) -> Iterator[str]:
    """``json.dumps({**head, "classes": rows}, indent=2, sort_keys=True)``
    in pieces for :func:`_write`, one per class row, ``rows`` being
    ``[u, w, c]`` for every item of ``coloring`` in its order.
    ``"classes"`` sorts before every head key, so the rows come first, each
    rendered as ``json.dumps`` renders it at that depth, and the head's own
    dump follows them without its opening brace."""
    if not coloring:
        yield '{\n  "classes": [],'
    else:
        yield '{\n  "classes": ['
        rows = iter(coloring.items())
        yield from (f"    [\n      {u},\n      {w},\n      {c}\n    ],"
                    for (u, w), c in islice(rows, len(coloring) - 1))
        for (u, w), c in rows:
            yield f"    [\n      {u},\n      {w},\n      {c}\n    ]\n  ],"
    yield json.dumps(head, indent=2, sort_keys=True)[2:]


def _write_case(exc: InternalContradictionError, g: Graph, args: argparse.Namespace) -> None:
    """With ``$LINARB_DUMP_DIR`` set, write the failed run's input there as a
    plain edge list whose ``#`` lines hold the message and the command that
    replays it, and end the message with the file's path."""
    dump_dir = os.environ.get("LINARB_DUMP_DIR")
    if not dump_dir:
        return
    import shlex
    import tempfile

    message = str(exc)
    flags = "".join(f" --{flag}" for flag in ("verify-after", "debug-assertions")
                    if getattr(args, flag.replace("-", "_")))
    try:
        fd, path = tempfile.mkstemp(prefix="linarb-case-", suffix=".txt", dir=dump_dir)
        replay = f"# replay: linarb decompose {shlex.quote(path)} --mode {args.mode}{flags}"
        with open(fd, "w", encoding="utf-8") as out:
            _write(chain((f"# {line}" for line in message.splitlines()),
                         [replay, f"p {g.n} {g.edge_count}"],
                         (f"{u} {w}" for u, w in g._edges)), out)
        note = f"reproducer: {path}"
    except OSError as err:
        note = f"reproducer not written: {err}"
    exc.args = (f"{message}\n  {note}",)


def _parse_coloring(text: str, ids: dict[str, int]) -> tuple[dict[tuple[int, int], int], int]:
    """Read 'u v c' lines (comments/blanks allowed); returns the map and the
    largest class index seen (0 when empty).  Structural edge problems are
    left to the verifier; only unreadable lines fail here, such as a token
    that is not ASCII decimal digits (see :func:`_decimal`).  Each distinct
    token is converted once, through and into the token-to-int dict ``ids``.
    """
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
            u, v, c = [ids[x] if x in ids else ids.setdefault(x, _decimal(x)) for x in tok]
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
    try:
        ordering, peel_ms = None, 0.0
        if args.mode == "auto":
            delta = max_degree(g)
            start = time.perf_counter()
            ordering = degeneracy_ordering(g)
            peel_ms = (time.perf_counter() - start) * 1000.0
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
            # Built as the solver builds its maps, so in the graph's order.
            coloring = dict.fromkeys(g._edges)
            coloring.update(found.witness or {})
            _check_map(g, coloring)
            t = found.la
            stats_dict: dict = {"nodes_explored": found.nodes_explored}
        else:
            result = decompose(g, mode, debug_checks=args.debug_assertions, ordering=ordering)
            result.stats.order_ms += peel_ms  # auto's own peel
            result.stats.wall_ms += peel_ms
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
    except InternalContradictionError as exc:
        _write_case(exc, g, args)
        raise
    if args.format == "json":
        if args.stats:
            head["stats"] = stats_dict
        _write(_json_partition(head, coloring))
    else:
        stats = [f"# stats {' '.join(f'{k}={v}' for k, v in sorted(stats_dict.items()))}"]
        _write(chain([f"# {' '.join(f'{k}={v}' for k, v in head.items())}"],
                     (f"{u} {w} {c}" for (u, w), c in coloring.items()),
                     stats if args.stats else []))
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
        _write([json.dumps(payload, indent=2, sort_keys=True)])
    else:
        head = f"# la={found.la} complete={str(found.complete).lower()} nodes={found.nodes_explored}"
        lines = [head]
        if found.witness:
            lines.extend(f"{u} {v} {c}" for (u, v), c in sorted(found.witness.items()))
        _write(lines)
    return 0 if found.complete else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    # Class files are 0-based, so only a plain graph's token dict reads one:
    # its keys then name each vertex by the graph's own int object.
    ids: dict[str, int] = {}
    g = parse_edge_list(_read_input(args.input), args.dimacs, None if args.dimacs else ids)
    coloring, high = _parse_coloring(_read_input(args.classes), ids)
    t = args.t if args.t is not None else high
    report = verify_partition(g, coloring, t)
    if args.format == "json":
        _write([json.dumps(report.as_dict(), indent=2, sort_keys=True)])
    else:
        lines = [
            f"valid: {str(report.valid).lower()}",
            f"optimal: {str(report.optimal).lower()}",
            f"classes: {report.class_count}",
            f"lower_bound: {report.lower_bound}",
        ]
        lines.extend(f"violation: [{v.kind}] {v.detail}" for v in report.violations)
        _write(lines)
    return 0 if report.valid else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    g = generate_k_degenerate(args.n, args.k, args.delta_min, args.seed)
    head = [f"# generated n={args.n} k={args.k} delta_min={args.delta_min} seed={args.seed}",
            f"p {g.n} {g.edge_count}"]
    _write(chain(head, (f"{u} {v}" for u, v in g._edges)))
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
        _write([json.dumps(payload, indent=2, sort_keys=True)])
    else:
        _write(f"{key}={str(val).lower() if isinstance(val, bool) else val}"
               for key, val in payload.items())
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
