"""One benchmark sample, run in a fresh process so its peak RSS is its own.

    python3 perfbench/child.py lib <workdir> <0|1> <result.json>
        Build the graph from <workdir>/edges.bin, solve it through the
        library, verify the output, and write timings, checks and the
        coloring digest to <result.json>.  With 1, layer spans and counters
        are recorded as well.

    python3 perfbench/child.py cli <probe.json> <trace.json|-> <linarb arguments...>
        Run ``linarb.cli:main`` as the console script does, under the speed
        probe (its samples go to <probe.json>), and with layer spans
        recorded to <trace.json> unless it is ``-``.

Every timed call runs under ``clock.SpeedProbe``; see clock.py.

The package is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from clock import SpeedProbe, at_reference  # noqa: E402
from tracing import Tracer  # noqa: E402


def coloring_digest(coloring: dict[tuple[int, int], int]) -> str:
    """sha256 of the sorted ``u v class`` lines, the CLI's text body."""
    h = hashlib.sha256()
    for (u, v), c in sorted(coloring.items()):
        h.update(f"{u} {v} {c}\n".encode())
    return h.hexdigest()


def _read_ints(path: Path) -> array:
    out = array("i")
    out.frombytes(path.read_bytes())
    return out


# Each timed call starts from a full garbage collection.  Otherwise whether
# the collector's expensive oldest-generation passes fall inside the call
# depends on what this process allocated before it (seen: 0 to 2 such passes
# inside one verify_partition call, by seed), not on the call itself.


def _timed(fn, *args):
    """``(result, probe)`` of one call run under the speed probe."""
    gc.collect()
    with SpeedProbe() as p:
        out = fn(*args)
    return out, p


def _batch(min_calls: int, min_s: float, fn, *args):
    """Call ``fn`` at least ``min_calls`` times and for at least ``min_s``
    under one probe, so that calls shorter than the probe's interval are
    still probed.  Returns the last result and the raw and reference-speed
    seconds per call; the collections between calls are not counted."""
    calls = 0
    collecting = 0.0
    with SpeedProbe() as p:
        t0 = perf_counter()
        while calls < min_calls or perf_counter() - t0 - collecting < min_s:
            out = None
            c0 = perf_counter()
            gc.collect()
            collecting += perf_counter() - c0
            out = fn(*args)
            calls += 1
    raw = p.wall - p.inside - collecting
    return out, raw / calls, at_reference(raw, p.loops) / calls


def run_library(work: Path, trace: bool) -> dict:
    from linarb import DegeneracyOrdering, Graph, Mode, SolverState, decompose, verify_partition
    from linarb.solver import class_count_for

    meta = json.loads((work / "meta.json").read_text())
    flat = _read_ints(work / "edges.bin")
    pairs = list(zip(flat[0::2], flat[1::2]))
    del flat
    n, delta, k, mode = meta["n"], meta["delta"], meta["k"], Mode(meta["mode"])

    g, setup_raw, setup_s = _batch(meta["setup_repeats"], meta["min_work_s"],
                                   Graph.from_edges, n, pairs)
    del pairs

    if meta["kind"] == "sweep":
        order = _read_ints(work / "order.bin").tolist()
        position = [0] * n
        for i, v in enumerate(order):
            position[v] = i
        ordering = DegeneracyOrdering(order, position, k)
        t = class_count_for(delta, k, mode)

        def solve():
            state = SolverState(g, ordering, delta, t, mode)
            return state.run(), state.stats
    else:

        def solve():
            result = decompose(g, mode)
            return result, result.stats

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
        solve = tracer.timed("solve", solve)
        verify = tracer.timed("verify", verify_partition)
    else:
        verify = verify_partition
    (out, stats), solve_probe = _timed(solve)

    if meta["kind"] == "sweep":
        coloring = {e: c + 1 for e, c in out.items()}
        got = (t, k, delta)
    else:
        coloring = out.coloring
        got = (out.t, out.k, out.delta)
    del out

    report, verify_raw, verify_s = _batch(1, meta["min_work_s"], verify, g, coloring, got[0])

    problems = []
    if not report.valid:
        problems.append("verify_partition: " + "; ".join(str(v) for v in report.violations[:3]))
    want = (class_count_for(delta, k, mode), k, delta)
    if got != want:
        problems.append(f"(t, k, delta) = {got}, expected {want}")
    return {
        "setup_s": setup_s,
        "solve_s": solve_probe.seconds(),
        "verify_s": verify_s,
        "raw": {
            "setup_s": setup_raw,
            "solve_s": solve_probe.wall - solve_probe.inside,
            "verify_s": verify_raw,
        },
        # Converts a span timed inside the solve to seconds at the reference
        # speed, net of the probe's own share.
        "solve_factor": solve_probe.seconds() / solve_probe.wall,
        "t": got[0],
        "digest": coloring_digest(coloring),
        "problems": problems,
        "stats": {
            name: getattr(stats, name)
            for name in ("pendants_added", "repair_iterations")
            if hasattr(stats, name)
        },
        "trace": tracer.as_dict() if tracer else None,
    }


def run_cli(probe_out: str, trace_out: str, argv: list[str]) -> int:
    tracer = Tracer() if trace_out != "-" else None
    if tracer:
        tracer.install()
    import linarb.cli

    sys.argv = ["linarb", *argv]
    probe = SpeedProbe()
    try:
        with probe:
            return linarb.cli.main()
    finally:
        probe.dump(Path(probe_out))
        if tracer:
            Path(trace_out).write_text(json.dumps(tracer.as_dict()))


def main() -> int:
    if sys.argv[1] == "lib":
        work, trace, result_path = Path(sys.argv[2]), sys.argv[3] == "1", Path(sys.argv[4])
        result_path.write_text(json.dumps(run_library(work, trace)))
        return 0
    return run_cli(sys.argv[2], sys.argv[3], sys.argv[4:])


if __name__ == "__main__":
    sys.exit(main())
