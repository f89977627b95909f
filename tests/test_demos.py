"""The demos run in-process against the current library API.

Demos 03-05 run preset configs through ``run_experiment``. Demo 04 (logistic
compression, about 2 s) is the one logistic caller of ``tune_alpha``, so its
last line pins the tuned gradient-tracking run. Demo 03 (the kappa sweep,
about 6 s) is in the slow suite; it pins its three tuned gradient-tracking rows.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name,last_line,rows", [
    pytest.param("01_topology_and_consensus", "|avg(out) - avg(in)|_max = ", (), id="01"),
    pytest.param("02_compression_operators", "bit-identical: True", (), id="02"),
    pytest.param("03_quadratic_kappa_sweep", "converged in 38 iterations", (
        "      10     gt (tuned)            645          --",
        "     100     gt (tuned)           1458          --",
        "   10000     gt (tuned)          >3000          --",
    ), id="03", marks=pytest.mark.slow),
    pytest.param("04_logistic_compression", "gradient tracking      80       6.14", (), id="04"),
    pytest.param("05_caps_and_lyapunov", "converged at iteration 45 with rel_err", (), id="05"),
])
def test_demo_runs(capsys, name, last_line, rows):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert last_line in lines[-1]
    assert [line for line in lines if line in rows] == list(rows)
