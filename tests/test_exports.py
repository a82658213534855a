"""Every name a heckelab module lists in __all__ exists, and the package
star-imports: a name moved out of the library must leave no stale entry."""

import importlib
import pkgutil

import pytest

import heckelab

# __main__ runs the command line when imported
MODULES = [importlib.import_module(f"heckelab.{info.name}")
           for info in pkgutil.iter_modules(heckelab.__path__)
           if info.name != "__main__"]


@pytest.mark.parametrize("module",
                         [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda module: module.__name__)
def test_every_name_in_all_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_star_import():
    namespace = {}
    exec("from heckelab import *", namespace)
    assert {"KLTable", "frobenius_cprime", "check_suite"} <= namespace.keys()
