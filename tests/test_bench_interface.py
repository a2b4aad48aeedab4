"""The names the benchmark hooks and calls keep resolving.

``perfbench/tracing.py`` patches layer spans and counters onto names in the
package; a hook whose target is gone is recorded as absent and reads 0, so
a rename would silently empty a per-layer metric.  This reads the hook
tables without installing them.
"""

import importlib
import importlib.util
from pathlib import Path

import linarb.solver
from linarb import Mode, SolverState, decompose, degeneracy_ordering, generate_k_degenerate

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Layers deleted from the package; their hooks read as absent.
ABSENT = {
    "linarb.solver:connected_components",
    "linarb.solver:regularize",
    "linarb.coloring:ForestColoring.would_close_cycle",
}


def _hook_tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TIMED_HOOKS, tracing.COUNTED_HOOKS


def _resolves(module_name: str, path: str) -> bool:
    target = importlib.import_module(module_name)
    for part in path.split("."):
        target = getattr(target, part, None)
        if target is None:
            return False
    return callable(target)


def test_every_benchmark_hook_resolves():
    timed, counted = _hook_tables()
    missing = {f"{m}:{p}" for m, p, _ in timed + counted if not _resolves(m, p)}
    assert missing == ABSENT
    names = {p for _, p, _ in timed + counted}
    assert {
        "SolverState.run",
        "ForestColoring.assign",
        "ForestColoring.recolor",
        "ForestColoring.swap_colors",
    } <= names


def test_decompose_runs_the_traced_sweep_once(monkeypatch):
    calls = []
    run = SolverState.run

    def counting(self, *args, **kwargs):
        calls.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(linarb.solver.SolverState, "run", counting)
    g = generate_k_degenerate(n=300, k=2, delta_min=7, seed=5)
    decompose(g)
    assert len(calls) == 1


def test_sweep_map_plus_one_is_the_decompose_output():
    g = generate_k_degenerate(n=300, k=3, delta_min=13, seed=6)
    result = decompose(g, Mode.LAC)
    ordering = degeneracy_ordering(g)
    part = SolverState(g, ordering, result.delta, result.t, Mode.LAC).run()
    assert {e: c + 1 for e, c in part.items()} == result.coloring
    assert list(part) == list(result.coloring)
