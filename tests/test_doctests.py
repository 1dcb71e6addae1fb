"""The docstring examples of every package module run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import hurwitz

# hurwitz.__main__ runs the command line when imported, so it is left out
MODULES = sorted(m.name for m in pkgutil.iter_modules(hurwitz.__path__, "hurwitz.")
                 if m.name != "hurwitz.__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0


def test_the_examples_are_found():
    # perms.py holds 6 examples, frobenius.py 5, words.py 4 and cli.py 1
    total = sum(doctest.testmod(importlib.import_module(name)).attempted for name in MODULES)
    assert total >= 16
