"""Tests of the package root: what ``import linarb`` loads, and its names."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import linarb
from linarb.verify import UNKNOWN_EDGE, Violation

PACKAGE = Path(linarb.__file__).resolve().parent


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's package."""
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)


def modules_added_by(statement: str) -> set[str]:
    # Compare the sets before and after: site hooks may preload modules of
    # their own, such as ``tempfile``.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_import_loads_neither_the_cli_nor_the_oracle():
    added = modules_added_by("import linarb")
    assert {"linarb", "linarb.solver", "linarb.verify"} <= added
    assert added.isdisjoint({
        "linarb.cli", "linarb.oracle", "argparse", "json", "dataclasses", "inspect", "tempfile",
    })


def test_cli_import_loads_no_dataclasses():
    added = modules_added_by("import linarb.cli")
    assert "linarb.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "tempfile"})


def test_no_module_imports_dataclasses():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in names, path.name


def test_only_the_cli_touches_the_garbage_collector():
    """A library call leaves its caller's process state alone: only
    ``cli.py``, whose ``main`` owns the process for one command, imports
    ``gc`` or names it, as a name or as a string."""
    touching = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {node.module or ""}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Constant):
                names = {node.value}
            else:
                continue
            if "gc" in names:
                touching.add(path.name)
    assert touching == {"cli.py"}


def test_only_the_cli_imports_os_tempfile_or_json():
    """The library writes no file and reads no environment: only ``cli.py``,
    which owns every byte a command writes, imports ``os``, ``tempfile`` or
    ``json``."""
    importing = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = {(node.module or "").partition(".")[0]}
            else:
                continue
            for name in names & {"os", "tempfile", "json"}:
                importing.setdefault(name, set()).add(path.name)
    assert importing == {"os": {"cli.py"}, "tempfile": {"cli.py"}, "json": {"cli.py"}}


def test_coloring_raises_only_internal_contradictions():
    """Only the solver builds a ``ForestColoring``, so a call it rejects is
    a solver bug: every raise in ``coloring.py`` is the one fault type."""
    raised = set()
    for node in ast.walk(ast.parse((PACKAGE / "coloring.py").read_text())):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.add(ast.unparse(exc) if exc is not None else "raise")
    assert raised == {"InternalContradictionError"}


def test_the_sdr_imports_from_the_package_only_its_fault_type():
    """The sweep decides who reserves and how many, so the matcher reads no
    graph or ordering: ``sdr.py`` imports only ``.errors`` from the package
    (``linarb`` by name counts too)."""
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "sdr.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "linarb"):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.partition(".")[0] == "linarb")
    assert imported == {".errors"}


def test_the_environment_is_read_only_for_the_dump_dir():
    """No environment variable changes what a library call computes: the
    one variable the package reads, in the CLI, names where a failed
    ``decompose`` writes its reproducer.  Any other read of ``environ`` or
    ``getenv`` fails here."""
    keys, uses = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv"):
                uses += 1
            elif isinstance(node, ast.Name) and node.id in ("environ", "environb", "getenv"):
                uses += 1
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "get" and isinstance(node.func.value, ast.Attribute)
                  and node.func.value.attr == "environ"):
                keys.append((path.name, ast.literal_eval(node.args[0])))
    assert keys == [("cli.py", "LINARB_DUMP_DIR")]
    assert uses == len(keys)


def test_module_cli_runs_without_a_warning():
    done = run_python("-m", "linarb.cli", "--help")
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.startswith("usage:")


@pytest.mark.parametrize("name", linarb.__all__)
def test_every_public_name_is_its_submodule_object(name):
    value = getattr(linarb, name)
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("linarb.")
    assert getattr(home, name) is value


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from linarb import *", namespace)
    assert set(linarb.__all__) <= set(namespace)
    for name in linarb.__all__:
        assert namespace[name] is getattr(linarb, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        linarb.nope  # noqa: B018


def test_violation_is_hashable_and_immutable():
    a = Violation(UNKNOWN_EDGE, "x", edge=(0, 1))
    b = Violation(UNKNOWN_EDGE, "x", edge=(0, 1))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    with pytest.raises(AttributeError):
        a.detail = "y"


def test_the_library_keeps_only_the_surface_its_callers_use():
    """A decompose result carries what the CLI reads, and the names cut from
    the library (the coloring's cycle query and edge key, the solver's
    one-position step) appear nowhere in it."""
    assert linarb.DecomposeResult._fields == ("coloring", "t", "k", "delta", "stats")
    for f in sorted(Path(linarb.__file__).parent.glob("*.py")):
        words = set(re.findall(r"\w+", f.read_text()))
        assert not {"cycle_containing", "process_vertex", "edge_key"} & words, f.name
