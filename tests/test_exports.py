import importlib
import pkgutil

import pytest

import decnewton

MODULES = sorted(info.name for info in pkgutil.iter_modules(decnewton.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a deleted function whose name stays in __all__ fails only on `import *`
    module = importlib.import_module(f"decnewton.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
