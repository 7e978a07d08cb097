"""Every name the package exports resolves, so a deleted name cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import fracheat

MODULES = ["fracheat"] + [f"fracheat.{m.name}" for m in pkgutil.iter_modules(fracheat.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
