"""Every name a ``bubblebands`` module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import bubblebands

MODULES = sorted(info.name for info in pkgutil.iter_modules(bubblebands.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"bubblebands.{name}")
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"bubblebands.{name}.__all__ names missing {missing}"
