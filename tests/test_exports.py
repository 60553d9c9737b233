"""Every module's ``__all__`` names only what the module defines."""

import pkgutil

import pytest

import pcindex

# __main__ is the console entry point: importing it runs the CLI
MODULES = [m.name for m in pkgutil.iter_modules(pcindex.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    namespace = {}
    exec("from pcindex.%s import *" % module, namespace)
