"""Every example in the package's docstrings runs and prints what it shows."""

import doctest
import importlib
import pkgutil

import pytest

import schwarzian

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(schwarzian.__path__, "schwarzian.")
)


@pytest.mark.parametrize("name", ["schwarzian", *MODULES])
def test_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
