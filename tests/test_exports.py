"""Export lists: each name in ``__all__`` resolves, is public, and is listed once."""

import importlib
import pkgutil

import pytest

import qcplane

MODULES = ["qcplane"] + [f"qcplane.{info.name}" for info in pkgutil.iter_modules(qcplane.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve_once(module_name):
    module = importlib.import_module(module_name)
    exported = module.__all__
    assert sorted({n for n in exported if exported.count(n) > 1}) == []
    assert [n for n in exported if n.startswith("_") or not hasattr(module, n)] == []
