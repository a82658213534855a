"""The >>> examples in the docstrings of every heckelab module, run as
tests, so an example added to any module runs without being listed here."""

import doctest
import importlib
import inspect
import pkgutil

import pytest

import heckelab

# __main__ runs the command line when imported
MODULES = [importlib.import_module(f"heckelab.{info.name}")
           for info in pkgutil.iter_modules(heckelab.__path__)
           if info.name != "__main__"]


@pytest.mark.parametrize("module", MODULES,
                         ids=lambda module: module.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    # a module whose source shows a prompt has examples doctest found
    assert (result.attempted > 0) == (">>>" in inspect.getsource(module))
    assert result.failed == 0
