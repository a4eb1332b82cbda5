"""Every name a module exports resolves."""

import importlib

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
