"""The demos run in-process against the current library API.

Demo 02 pins its table of compression errors and payload sizes, and the
payload ratios under it. Demos 03-05 run preset configs through
``run_experiment``. Demo 04 (logistic compression, about 2 s) is the one
logistic caller of ``tune_alpha``, so its last line pins the tuned
gradient-tracking run. Demo 03 (the kappa sweep,
about 6 s) is in the slow suite; it pins its three tuned gradient-tracking rows.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name,last_line,rows", [
    pytest.param("01_topology_and_consensus", "|avg(out) - avg(in)|_max = ", (), id="01"),
    pytest.param("02_compression_operators", "bit-identical: True", (
        "      rank_k    1   0.0250   0.9750    0.9018    2624",
        "      rank_k    3   0.0750   0.9250    0.7388    7872",
        "      rank_k    5   0.1250   0.8750    0.5912   13120",
        "      rank_k   10   0.2500   0.7500    0.2880   26240",
        "      rank_k   20   0.5000   0.5000    0.0000   52480",
        "       top_k   10   0.0125   0.9875    0.8957     730",
        "       top_k   20   0.0250   0.9750    0.8282    1460",
        "       top_k   50   0.0625   0.9375    0.6780    3650",
        "       top_k  100   0.1250   0.8750    0.5047    7300",
        "       top_k  400   0.5000   0.5000    0.0000   29200",
        "uncompressed matrix: 25600 bits",
        "rank-3 payload is 3.3x smaller",
        "top-20 payload is 17.5x smaller",
    ), id="02"),
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
