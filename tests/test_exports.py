"""Every name a module lists in __all__ resolves on that module."""

import importlib
import pkgutil

import pytest

import edgekit

_MODULES = ["edgekit"] + sorted(
    info.name for info in pkgutil.walk_packages(edgekit.__path__, prefix="edgekit.")
)


@pytest.mark.parametrize("modname", _MODULES)
def test_all_names_resolve(modname):
    module = importlib.import_module(modname)
    names = getattr(module, "__all__", ())
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []
