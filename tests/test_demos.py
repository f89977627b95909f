"""The quick demos run in-process against the current library API.

Demo 04 (logistic compression, about 4 s) is the one logistic caller of
``tune_alpha``, so its last line pins the tuned gradient-tracking run. Demo 03
(the kappa sweep, about 13 s) is left to be run by hand.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name,last_line", [
    ("01_topology_and_consensus", "|avg(out) - avg(in)|_max = "),
    ("02_compression_operators", "bit-identical: True"),
    ("04_logistic_compression", "gradient tracking      80       6.14"),
    ("05_caps_and_lyapunov", "converged at iteration 45 with rel_err"),
], ids=["01", "02", "04", "05"])
def test_demo_runs(capsys, name, last_line):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert last_line in capsys.readouterr().out.splitlines()[-1]
