"""The examples in the package's docstrings run and print what they show."""

import doctest
import importlib
import pkgutil

import pytest

import booleancomplex

MODULES = [booleancomplex.__name__] + [
    f"{booleancomplex.__name__}.{info.name}"
    for info in pkgutil.iter_modules(booleancomplex.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name


def test_ideal_docstring_is_run():
    # the module docstring shows rank_sizes(a3) -> (3, 5, 4)
    assert doctest.testmod(importlib.import_module("booleancomplex.ideal")).attempted > 0
