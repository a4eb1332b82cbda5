"""Every name a module exports resolves, every name a module imports is
used, every private name a module defines is read in it, every name the
benchmark's tracer wraps exists, and the benchmark's traced self-check
passes on each workload."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = [
    "cliquesim",
    "cliquesim.adversary",
    "cliquesim.cli",
    "cliquesim.degseq",
    "cliquesim.engine",
    "cliquesim.groups",
    "cliquesim.harness",
    "cliquesim.protocol",
    "cliquesim.trace",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr}"


@pytest.mark.parametrize(
    "path",
    sorted((Path(__file__).resolve().parents[1] / "src" / "cliquesim").glob("*.py")),
    ids=lambda path: path.name,
)
def test_no_unused_imports(path):
    """Every name a top-level import binds is read in its module or listed
    in its `__all__`; `from __future__ import annotations` binds nothing."""
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    } - {"annotations"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    assert imported - used - exported == set()


@pytest.mark.parametrize(
    "path",
    sorted((Path(__file__).resolve().parents[1] / "src" / "cliquesim").glob("*.py")),
    ids=lambda path: path.name,
)
def test_no_orphaned_private_names(path):
    """Every `_`-prefixed function, method or class a module defines, and
    every such name it assigns at module level, is read in that module, as
    a name or an attribute; dunder names are exempt."""
    tree = ast.parse(path.read_text())
    defined = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    private = {name for name in defined if name.startswith("_")}
    private -= {name for name in private if name.startswith("__")}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    assert private - read == set()


def test_benchmark_tracer_finds_every_name_it_wraps():
    """`perfbench/tracer.py` wraps functions and methods by name; a renamed
    or deleted one makes its `install()` fail or report an unwrapped site,
    which breaks the benchmark's traced runs."""
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]\n"
        "from tracer import Tracer\n"
        "print(Tracer().install())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("workload", ["verify-n4", "cc-n1024", "trace-ncc128"])
def test_benchmark_traced_self_check_passes(workload):
    """`perfbench/run.py --trace 1` runs a workload untraced and traced and
    fails it when a layer it exercises records no span or the two runs'
    outputs or engine counts differ."""
    root = Path(__file__).resolve().parents[1]
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    argv += ["--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["failed"] == 0, proc.stdout
