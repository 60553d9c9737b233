"""Every module's ``__all__`` names only what the module defines, and no
module keeps an import it neither uses nor re-exports."""

import ast
import pkgutil
from pathlib import Path

import pytest

import pcindex

# __main__ is the console entry point: importing it runs the CLI
MODULES = [m.name for m in pkgutil.iter_modules(pcindex.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    namespace = {}
    exec("from pcindex.%s import *" % module, namespace)


def _unused_imports(source):
    """Module-level imported names that the module never reads and does not export."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read - exported)


def test_unused_import_check_flags_a_leftover():
    assert _unused_imports("import numpy as np\nimport os\nx = np.ones(3)\n") == ["os"]
    assert _unused_imports("from a import b, c\n__all__ = ['c']\nb()\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (Path(pcindex.__file__).parent / (module + ".py")).read_text(encoding="utf-8")
    assert _unused_imports(source) == []
