"""The >>> examples in module docstrings, run as tests."""

import doctest

import pytest

from heckelab import characters, hecke, permutations, qpoly, symfunc


@pytest.mark.parametrize("module",
                         [characters, hecke, qpoly, permutations, symfunc],
                         ids=lambda module: module.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
