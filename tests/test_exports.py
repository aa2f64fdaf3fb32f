"""Every name a flocklab module exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import flocklab

MODULES = sorted(info.name for info in pkgutil.iter_modules(flocklab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"flocklab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"flocklab.{name}.__all__ names missing attributes: {missing}"
