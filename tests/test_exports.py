"""Every exported name resolves, so a deletion leaves no stale ``__all__`` entry."""

import importlib
import pkgutil

import pytest

import tensorray

MODULES = ["tensorray"] + [
    f"tensorray.{info.name}" for info in pkgutil.iter_modules(tensorray.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
