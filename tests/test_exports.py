"""The package's public names are the pinned list below, every module's
``__all__`` names only what the module defines, no module keeps an
import it neither uses nor re-exports, and no module keeps a function
or class that it does not export and that no other code in the package
names."""

import ast
import pkgutil
import types
from pathlib import Path

import pytest

import pcindex

# __main__ is the console entry point: importing it runs the CLI
MODULES = [m.name for m in pkgutil.iter_modules(pcindex.__path__) if m.name != "__main__"]

# every public name of the package, sorted; a change to the surface shows here
PUBLIC_NAMES = [
    "BadDiagonal",
    "BadK",
    "BadParams",
    "BadSize",
    "CLASSICAL_NAMES",
    "CycleCapExceeded",
    "CycleIndices",
    "DistanceTable",
    "EigenResult",
    "ExperimentConfig",
    "INDEX_NAMES",
    "MISSING",
    "MatrixSyntaxError",
    "NonFiniteIndex",
    "NonPositiveEntry",
    "NonSquare",
    "NotComplete",
    "NotConverged",
    "NotIrreducible",
    "PCError",
    "PCMatrix",
    "ReciprocityViolation",
    "ReducibleInput",
    "SingularSystem",
    "all_indices",
    "blend",
    "build_graph",
    "check_blend",
    "classical_indices",
    "cycle_based_indices",
    "disturb",
    "enumerate_cycles",
    "enumerate_paths",
    "evm",
    "gen_consistent",
    "gmm",
    "harker_ci",
    "harker_matrix",
    "harker_rank",
    "ills",
    "is_complete",
    "is_irreducible",
    "least_squares_indices",
    "oliva_index",
    "parse_matrix",
    "principal_eigen",
    "remove_comparisons",
    "run_experiment",
    "serialize_matrix",
    "sh_index_inc",
    "validate",
]


def test_public_names_are_pinned():
    public = [
        name
        for name, value in vars(pcindex).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(public) == PUBLIC_NAMES


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    namespace = {}
    exec("from pcindex.%s import *" % module, namespace)


def _exports(tree):
    """The names a parsed module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(source):
    """Module-level imported names that the module never reads and does not export."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read - _exports(tree))


def _dead_definitions(sources):
    """Module-level functions and classes, as "module.name", that their module does
    not export and that no statement but their own definition names.

    ``sources`` maps module name -> source text; a name counts as used when
    it is read, looked up as an attribute, or imported anywhere in them.
    """
    defined = []
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        exported = _exports(tree)
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and own not in exported:
                defined.append((module, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [a.name for a in node.names]
                else:
                    continue
                used.update(n for n in names if n != own)
    return ["%s.%s" % (module, name) for module, name in defined if name not in used]


def test_unused_import_check_flags_a_leftover():
    assert _unused_imports("import numpy as np\nimport os\nx = np.ones(3)\n") == ["os"]
    assert _unused_imports("from a import b, c\n__all__ = ['c']\nb()\n") == []


def test_dead_definition_check_flags_a_leftover():
    sources = {
        "a": "__all__ = ['f']\ndef f(r):\n    return _ratio(r)\ndef _ratio(r):\n    return r\n"
        "def _ratio_or_zero(x):\n    return _ratio_or_zero(x)\n",
        "b": "from .a import f\ndef _orphan(r):\n    return f(r)\nclass _Used:\n    pass\n",
        "c": "import b\nb._Used()\n",
    }
    assert _dead_definitions(sources) == ["a._ratio_or_zero", "b._orphan"]


def test_no_dead_definitions():
    root = Path(pcindex.__file__).parent
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(root.glob("*.py"))}
    assert _dead_definitions(sources) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (Path(pcindex.__file__).parent / (module + ".py")).read_text(encoding="utf-8")
    assert _unused_imports(source) == []
