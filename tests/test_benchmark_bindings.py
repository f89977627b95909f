"""The benchmark's traced mode patches decnewton functions by module and name.

``perfbench/tracing.py`` lists those bindings in ``PATCH_POINTS``; a rename in
the library that drops one breaks ``perfbench/run.py --trace 1``. Loading the
file as-is and resolving every binding makes such a rename fail here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_patch_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module_name}.{attr}"
        for points in tracing.PATCH_POINTS.values()
        for module_name, attr in points
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert tracing.PATCH_POINTS and not missing
