"""Every name a module exports resolves, and every name the benchmark's
tracer wraps exists."""

import importlib
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
