"""linarb benchmark: end-to-end and per-layer timings on three seeded workloads.

    python3 perfbench/run.py --workload capped-k2 --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout of it); the package is taken
from ``src/`` next to this directory, never from an installed copy.  Each
sample runs in fresh processes, one at a time, so its peak RSS is its own:
a library process (build the graph, solve, verify) and a CLI process
(``linarb decompose ... --verify-after`` through ``linarb.cli:main``).
Samples repeat until ``--seconds`` have passed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
The workloads and what each metric should move are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from child import coloring_digest  # noqa: E402
from clock import at_reference, loop_s  # noqa: E402

# A run must end within 180 s; no sample starts that would end past this.
DEADLINE_S = 165.0
# Graph builds per sample: at least this many.  Builds, verifications and
# CLI processes each repeat until a sample holds MIN_WORK_S of them, so the
# short ones on small graphs are measured over enough work too.
SETUP_REPEATS = 3
MIN_WORK_S = 1.0
IMPORT_REPEATS = 5
# Probe loops timed before and after the short import processes.
PROBE_BRACKET = 5
TILING_COPIES = 300
# Allowed gap between the traced solve time and its spans plus self time.
SPAN_SUM_TOLERANCE = 0.01


@dataclass(frozen=True)
class Workload:
    mode: str
    kind: str  # "decompose" (library decompose) or "sweep" (pinned SolverState)
    primary: str  # process whose peak RSS is reported: "lib" or "cli"
    k: int


WORKLOADS = {
    "capped-k2": Workload("minimum", "decompose", "lib", 2),
    "hub-k3-cli": Workload("lac", "decompose", "cli", 3),
    "repair-tiling": Workload("minimum", "sweep", "lib", 2),
}

END_TO_END = {
    "solve_s": "s",
    "verify_s": "s",
    "cli_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "degeneracy.order_s": "s",
    "degeneracy.calls": "count",
    "graph.components_s": "s",
    "solver.pad_s": "s",
    "solver.pendants": "count",
    "sdr.select_s": "s",
    "solver.sweep_s": "s",
    "solver.self_s": "s",
    "solver.solve_s": "s",
    "coloring.assign_calls": "count",
    "coloring.cycle_checks": "count",
    "coloring.cycle_check_s": "s",
    "coloring.moves": "count",
    "solver.repair_iterations": "count",
    "cli.parse_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# The direct children of the solve span; with solver.self_s they make up
# the traced solve time.
SOLVE_CHILDREN = (
    "degeneracy.order_s",
    "graph.components_s",
    "solver.pad_s",
    "sdr.select_s",
    "solver.sweep_s",
)


class SampleFailed(Exception):
    """A sample whose process failed or whose output failed a check."""


def _tail(stdout: Path) -> str:
    """Last line of the standard error that ``spawn`` saved beside ``stdout``."""
    lines = stdout.with_suffix(".err").read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


def spawn(argv: list[str], stdout: Path, timeout: float) -> tuple[float, int, float]:
    """Run one child from spawn to exit: (wall seconds, exit code, peak RSS MB).

    ``os.wait4`` returns the rusage of this child alone; RUSAGE_CHILDREN
    would report the maximum over every child reaped so far.
    """
    env = dict(os.environ)
    env.pop("LINARB_DEBUG_ASSERT", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=env, cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def write_inputs(work: Path, name: str, seed: int) -> dict:
    w = WORKLOADS[name]
    order = None
    if name == "capped-k2":
        n, pairs = inputs.capped_k2(seed)
    elif name == "hub-k3-cli":
        # The lifted hub pins delta (and so t and the padding volume), which
        # would otherwise wander between 32 and 42 with the seed.
        n, pairs = inputs.k_degenerate(seed, n=20_000, k=3, delta_min=44)
    else:
        n, pairs, order = inputs.repair_tiling(seed, TILING_COPIES)
    deg = [0] * n
    flat = array("i")
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
        flat.append(u)
        flat.append(v)
    (work / "edges.bin").write_bytes(flat.tobytes())
    if order is not None:
        (work / "order.bin").write_bytes(array("i", order).tobytes())
    body = "\n".join(f"{u} {v}" for u, v in pairs)
    (work / "graph.txt").write_text(f"p {n} {len(pairs)}\n{body}\n")
    meta = {
        "n": n,
        "m": len(pairs),
        "delta": max(deg),
        "k": w.k,
        "mode": w.mode,
        "kind": w.kind,
        "setup_repeats": SETUP_REPEATS,
        "min_work_s": MIN_WORK_S,
    }
    (work / "meta.json").write_text(json.dumps(meta))
    return meta


class Runner:
    """Spawns the processes of one run's samples inside its work directory."""

    def __init__(self, name: str, work: Path, started: float) -> None:
        self.w = WORKLOADS[name]
        self.work = work
        self.started = started
        self.seq = 0

    def _timeout(self) -> float:
        return max(1.0, DEADLINE_S - (perf_counter() - self.started))

    def path(self, stem: str) -> Path:
        self.seq += 1
        return self.work / f"{stem}-{self.seq}.out"

    def library(self, trace: bool) -> tuple[dict, float]:
        result = self.path("lib-result")
        out = self.path("lib")
        _, code, rss = spawn(
            [sys.executable, str(HERE / "child.py"), "lib", str(self.work), str(int(trace)),
             str(result)],
            out, self._timeout(),
        )
        if code != 0:
            raise SampleFailed(f"library sample exited {code}: {_tail(out)}")
        data = json.loads(result.read_text())
        if data["problems"]:
            raise SampleFailed("; ".join(data["problems"]))
        return data, rss

    def cli(self, want_t: int, trace_out: Path | None) -> dict:
        """One ``linarb decompose`` process, timed from spawn to exit: raw
        and reference-speed seconds, peak RSS, coloring digest, and the
        factor that converts its spans to reference-speed seconds."""
        probe_out = self.path("cli-probe")
        argv = [sys.executable, str(HERE / "child.py"), "cli", str(probe_out),
                str(trace_out or "-"),
                "decompose", str(self.work / "graph.txt"), "--mode", self.w.mode,
                "--verify-after"]
        out = self.path("cli")
        wall, code, rss = spawn(argv, out, self._timeout())
        if code != 0:
            raise SampleFailed(f"linarb decompose exited {code}: {_tail(out)}")
        lines = out.read_text().splitlines()
        head = dict(item.split("=", 1) for item in lines[0].lstrip("# ").split())
        if head.get("verified") != "True" or head.get("t") != str(want_t):
            raise SampleFailed(f"CLI header is not verified=True with t={want_t}: {lines[0]}")
        coloring = {}
        for line in lines[1:]:
            u, v, c = map(int, line.split())
            coloring[(u, v)] = c
        probe = json.loads(probe_out.read_text())
        raw = wall - probe["inside"]
        return {
            "raw": raw,
            "seconds": at_reference(raw, probe["loops"]),
            "rss": rss,
            "digest": coloring_digest(coloring),
            "factor": at_reference(probe["wall"] - probe["inside"], probe["loops"]) / probe["wall"],
        }

    def import_times(self, repeats: int) -> tuple[list[float], list[float]]:
        """Raw wall times of ``python3 -c "import linarb"`` and the same at
        the reference speed.  The processes are too short to probe from
        inside, so the loop is timed in this process just before and after."""
        before = [loop_s() for _ in range(PROBE_BRACKET)]
        walls = []
        for _ in range(repeats):
            out = self.path("import")
            wall, code, _ = spawn([sys.executable, "-c", "import linarb"], out, self._timeout())
            if code != 0:
                raise SampleFailed(f"import linarb exited {code}: {_tail(out)}")
            walls.append(wall)
        loops = before + [loop_s() for _ in range(PROBE_BRACKET)]
        return walls, [at_reference(w, loops) for w in walls]


def check_digests(sample: dict, first: dict | None, kind: str) -> None:
    if kind == "decompose" and sample["cli_digest"] != sample["lib_digest"]:
        raise SampleFailed("CLI coloring differs from the library coloring")
    if first is not None:
        for key in ("lib_digest", "cli_digest"):
            if sample[key] != first[key]:
                raise SampleFailed(f"{key} differs from the first sample")


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[list[dict], int]:
    """Run samples until ``seconds`` have passed; return the good ones and
    the number attempted."""
    good: list[dict] = []
    attempted = 0
    first = None
    t_start = perf_counter()
    last = 0.0
    while attempted == 0 or perf_counter() - t_start < seconds:
        if perf_counter() - runner.started + last > DEADLINE_S:
            break
        attempted += 1
        s0 = perf_counter()
        try:
            sample = run_sample(runner, trace)
            check_digests(sample, first, runner.w.kind)
        except (SampleFailed, OSError, ValueError, KeyError) as exc:
            print(f"sample {attempted} failed: {exc}")
        else:
            first = first or sample
            good.append(sample)
        last = perf_counter() - s0
    return good, attempted


def run_sample(runner: Runner, trace: bool) -> dict:
    if not trace:
        lib, lib_rss = runner.library(False)
        # Short CLI runs repeat, so that each sample holds MIN_WORK_S of them.
        clis = [runner.cli(lib["t"], None)]
        while sum(c["raw"] for c in clis) < MIN_WORK_S:
            clis.append(runner.cli(lib["t"], None))
        if len({c["digest"] for c in clis}) != 1:
            raise SampleFailed("CLI colorings differ within one sample")
        raw = dict(lib["raw"], cli_s=[c["raw"] for c in clis])
        if runner.w.primary == "cli":
            raw["setup_s"], setup = runner.import_times(IMPORT_REPEATS)
        else:
            setup = lib["setup_s"]
        return {
            "solve_s": lib["solve_s"],
            "verify_s": lib["verify_s"],
            "cli_s": [c["seconds"] for c in clis],
            "peak_rss_mb": clis[0]["rss"] if runner.w.primary == "cli" else lib_rss,
            "setup_s": setup,
            "raw": raw,
            "lib_digest": lib["digest"],
            "cli_digest": clis[0]["digest"],
        }
    plain, _ = runner.library(False)
    traced, _ = runner.library(True)
    trace_out = runner.path("cli-trace")
    cli = runner.cli(traced["t"], trace_out)
    cli_trace = json.loads(trace_out.read_text())
    if traced["digest"] != plain["digest"]:
        raise SampleFailed("traced coloring differs from the untraced one")
    return {
        "layers": layer_metrics(traced, plain, cli_trace, cli["factor"]),
        "absent": sorted(set(traced["trace"]["absent"]) | set(cli_trace["absent"])),
        "lib_digest": traced["digest"],
        "cli_digest": cli["digest"],
    }


def layer_metrics(traced: dict, plain: dict, cli_trace: dict, cli_factor: float) -> dict:
    """Per-layer figures of one traced sample.  Span times are converted to
    seconds at the reference speed with the factor of the probe around them."""
    spans = traced["trace"]["spans"]
    counts = traced["trace"]["counts"]
    cli_spans = cli_trace["spans"]
    f = traced["solve_factor"]

    def total(table, name):
        return table.get(name, [0, 0.0, 0.0])[1]

    def self_time(table, name):
        rec = table.get(name, [0, 0.0, 0.0])
        return rec[1] - rec[2]

    return {
        "degeneracy.order_s": f * total(spans, "degeneracy.order"),
        "degeneracy.calls": spans.get("degeneracy.order", [0])[0],
        "graph.components_s": f * total(spans, "graph.components"),
        "solver.pad_s": f * total(spans, "solver.pad"),
        "solver.pendants": traced["stats"].get("pendants_added", 0),
        "sdr.select_s": f * total(spans, "sdr.select"),
        "solver.sweep_s": f * total(spans, "solver.sweep"),
        "solver.self_s": f * self_time(spans, "solve"),
        "solver.solve_s": traced["solve_s"],
        "coloring.assign_calls": counts.get("coloring.assign", 0),
        "coloring.cycle_checks": spans.get("coloring.cycle_check", [0])[0],
        "coloring.cycle_check_s": f * total(spans, "coloring.cycle_check"),
        "coloring.moves": counts.get("coloring.moves", 0),
        "solver.repair_iterations": traced["stats"].get("repair_iterations", 0),
        "cli.parse_s": cli_factor * total(cli_spans, "cli.parse"),
        "cli.self_s": cli_factor * self_time(cli_spans, "cli.main"),
        "trace.overhead_s": traced["solve_s"] - plain["solve_s"],
    }


def _flat(samples: list[dict], key: str) -> list[float]:
    values: list[float] = []
    for s in samples:
        values.extend(s[key] if isinstance(s[key], list) else [s[key]])
    return values


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(_flat(samples, key))


def count_of(samples: list[dict], key: str) -> int:
    return len(_flat(samples, key))


def summarize(name: str, samples: list[dict], trace: bool) -> tuple[dict, bool]:
    """Medians over the samples; counts must repeat exactly across them."""
    ok = True
    metrics = {}
    if not trace:
        for metric, unit in END_TO_END.items():
            value = median_of(samples, metric)
            metrics[metric] = {"value": value, "unit": unit}
            line = f"{name} {metric}: {value:.6g} {unit} (median of {count_of(samples, metric)}"
            if metric in samples[0]["raw"]:
                line += f"; raw wall {median_of([s['raw'] for s in samples], metric):.6g} s"
            print(line + ")")
        return metrics, ok
    for metric, unit in PER_LAYER.items():
        values = [s["layers"][metric] for s in samples]
        if unit == "count":
            value = values[0]
            if any(v != value for v in values):
                print(f"{name} {metric}: count differs between samples: {values}")
                ok = False
        else:
            value = statistics.median(values)
        metrics[metric] = {"value": value, "unit": unit}
        print(f"{name} {metric}: {value:.6g} {unit} (median of {len(values)})")
    for s in samples:
        layers = s["layers"]
        spans = sum(layers[m] for m in SOLVE_CHILDREN) + layers["solver.self_s"]
        gap = abs(layers["solver.solve_s"] - spans) / layers["solver.solve_s"]
        verdict = "ok" if gap <= SPAN_SUM_TOLERANCE else "OUTSIDE TOLERANCE"
        print(f"{name} span sum {spans:.6f} s vs traced solve {layers['solver.solve_s']:.6f} s: "
              f"gap {gap:.3%} (tolerance {SPAN_SUM_TOLERANCE:.0%}) {verdict}")
    absent = samples[0]["absent"]
    if absent:
        print(f"{name} absent layer hooks (reported as 0): {', '.join(absent)}")
    return metrics, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "linarb" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'linarb'}", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit so the running child is killed and
    # reaped, and the work directory removed, on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for this process and its children, so each calibration loop
    # runs where the call it rescales ran.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = perf_counter()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        meta = write_inputs(work, args.workload, args.seed)
        print(f"{args.workload} seed={args.seed} n={meta['n']} m={meta['m']} "
              f"delta={meta['delta']} k={meta['k']} mode={meta['mode']}")
        runner = Runner(args.workload, work, started)
        # Untimed warm-up: compiles the package's bytecode once.
        runner.import_times(1)
        samples, attempted = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not samples:
        print(f"error: all {attempted} samples failed", file=sys.stderr)
        return 1
    failed = attempted - len(samples)
    print(f"{args.workload} failed_ratio: {failed / attempted:.6g} ({failed} of {attempted})")
    print(f"{args.workload} digest library {samples[0]['lib_digest']}")
    print(f"{args.workload} digest cli {samples[0]['cli_digest']}")
    metrics, counts_ok = summarize(args.workload, samples, bool(args.trace))
    print(json.dumps({
        "correct": failed == 0 and counts_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
