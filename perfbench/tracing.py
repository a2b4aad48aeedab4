"""Layer spans and counters recorded from outside the package.

The wrappers replace the names the callers resolve (``linarb.solver`` looks
up ``regularize``, ``compute_sdr`` and ``degeneracy_ordering`` in its own
globals, so patching only the defining module would miss those calls).  A
hook whose target no longer exists is recorded as absent, never as an error,
so the benchmark keeps running when a later version deletes a layer function.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (module, attribute path, span name): wall time, calls and child time.
TIMED_HOOKS = (
    ("linarb.solver", "degeneracy_ordering", "degeneracy.order"),
    ("linarb.solver", "connected_components", "graph.components"),
    ("linarb.solver", "regularize", "solver.pad"),
    ("linarb.solver", "compute_sdr", "sdr.select"),
    ("linarb.solver", "SolverState.run", "solver.sweep"),
    ("linarb.coloring", "ForestColoring.would_close_cycle", "coloring.cycle_check"),
    ("linarb.cli", "main", "cli.main"),
    ("linarb.cli", "parse_edge_list", "cli.parse"),
    ("linarb.cli", "decompose", "solve"),
    ("linarb.cli", "verify_partition", "verify"),
)

# (module, attribute path, counter name): calls only, no clock reads.
COUNTED_HOOKS = (
    ("linarb.coloring", "ForestColoring.assign", "coloring.assign"),
    ("linarb.coloring", "ForestColoring.recolor", "coloring.moves"),
    ("linarb.coloring", "ForestColoring.swap_colors", "coloring.moves"),
)


class Tracer:
    """Aggregated spans: per name, the call count, total seconds and the
    seconds covered by directly nested spans (so self time is the
    difference)."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []

    def _close(self, name: str, frame: list[float], dt: float) -> None:
        self._stack.pop()
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dt
        rec[2] += frame[0]
        if self._stack:
            self._stack[-1][0] += dt

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame, perf_counter() - t0)

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for hooks, make in ((TIMED_HOOKS, self.timed), (COUNTED_HOOKS, self.counted)):
            for module_name, path, name in hooks:
                owner_path, _, attr = path.rpartition(".")
                try:
                    owner = importlib.import_module(module_name)
                    for part in owner_path.split(".") if owner_path else ():
                        owner = getattr(owner, part)
                    target = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.absent.append(f"{module_name}:{path}")
                    continue
                setattr(owner, attr, make(name, target))

    def as_dict(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "absent": self.absent}
