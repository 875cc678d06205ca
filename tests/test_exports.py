"""Export lists: each name in ``__all__`` resolves, is public, and is listed once;
the public surface (names and parameters) does not grow."""

import importlib
import inspect
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


def public_parameters(obj) -> int:
    """Parameters of a function, or of a class's own constructor and public
    methods, as ``inspect.signature`` lists them, ``self`` not counted."""
    if not inspect.isclass(obj):
        return len(inspect.signature(obj).parameters) if callable(obj) else 0
    methods = [m for name, m in vars(obj).items() if inspect.isfunction(m) and (name == "__init__" or name[0] != "_")]
    return sum(p.name != "self" for m in methods for p in inspect.signature(m).parameters.values())


def test_public_surface_does_not_grow():
    # a ratchet: growing the surface takes a deliberate edit of these bounds
    assert len(qcplane.__all__) <= 56
    assert sum(public_parameters(getattr(qcplane, name)) for name in qcplane.__all__) <= 135
