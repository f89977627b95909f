import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import decnewton

MODULES = sorted(info.name for info in pkgutil.iter_modules(decnewton.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a deleted function whose name stays in __all__ fails only on `import *`
    module = importlib.import_module(f"decnewton.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def unused_imports(source: str) -> list:
    """The names a module's top-level imports bind that it neither uses nor lists in
    ``__all__``. ``__future__`` imports and lines marked ``# noqa`` are left out."""
    tree, lines = ast.parse(source), source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used | exported]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_does_not_use(name):
    # a name moved to another module tends to leave its imports behind; __init__, which
    # imports only to export, is not among MODULES
    path = Path(decnewton.__file__).with_name(f"{name}.py")
    assert unused_imports(path.read_text()) == []


ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(f"{path.parent.name}/{path.name}" for folder in ("tests", "demos")
                 for path in (ROOT / folder).glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_no_test_or_demo_imports_a_name_it_does_not_use(script):
    # a test edit that drops the last use of a name leaves its import behind too
    assert unused_imports((ROOT / script).read_text()) == []


def test_unused_imports_finds_a_stale_import_and_spares_the_rest():
    source = ("from __future__ import annotations\nimport numbers\nimport os.path\n"
              "from re import fullmatch as match\nfrom math import pi  # noqa: F401\n"
              "from math import (\n    tau,  # noqa: F401\n)\nfrom sys import argv\n"
              "__all__ = ['argv']\nmatch(os.path.sep, '')\n")
    assert unused_imports(source) == ["line 2: numbers"]
