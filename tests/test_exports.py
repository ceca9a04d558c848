"""Every name a module of the package exports resolves, so a deletion cannot leave a stale ``__all__``."""

import importlib
import pkgutil

import pytest

import flatribbon

MODULES = sorted(info.name for info in pkgutil.iter_modules(flatribbon.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(f"flatribbon.{name}")
    missing = [key for key in getattr(module, "__all__", ()) if not hasattr(module, key)]
    assert missing == []
    namespace = {}
    exec(f"from flatribbon.{name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)
