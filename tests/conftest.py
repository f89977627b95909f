import contextlib
import hashlib
import io
import time
from dataclasses import replace

import pytest

from decnewton import newton
from decnewton.cli import main
from decnewton.harness import SEED_ENV_VAR, _instance, build_mixing, list_presets, preset_configs
from decnewton.objectives import batch_hessians


def preset(label):
    """The preset config labelled ``label``."""
    return next(c for name, _ in list_presets() for c in preset_configs(name) if c.label == label)


# the shared quadratic benchmark instance and its Newton params
QUAD = preset("quad-k1e2-m15")


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    """Unset DECNEWTON_SEED, so that a test that runs a ``decnewton`` command
    runs the config it wrote; a test that wants the override sets it."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


@pytest.fixture(scope="session")
def quad_graph():
    return build_mixing(QUAD.graph, QUAD.problem.n)


@pytest.fixture(scope="session")
def quad_instance():
    return _instance(QUAD)


@pytest.fixture(scope="session")
def quad_problem(quad_instance):
    return quad_instance[0]


@pytest.fixture(scope="session")
def quad_x0(quad_instance):
    return quad_instance[2]


@pytest.fixture(scope="session")
def quad_xstar(quad_instance):
    return quad_instance[3]


@pytest.fixture(scope="session")
def equivalence_preset(tmp_path_factory):
    """One run of ``decnewton preset alg-equivalence`` (the 200-iteration
    lockstep on quad-k1e2-m15), shared by the tests that check it:
    ``(exit code, stdout, CSV path, seconds)``."""
    out_dir = tmp_path_factory.mktemp("alg-equivalence")
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
        mp.delenv(SEED_ENV_VAR, raising=False)
        t0 = time.perf_counter()
        code = main(["preset", "alg-equivalence", "--out", str(out_dir)])
        elapsed = time.perf_counter() - t0
    return code, stdout.getvalue(), out_dir / "alg-equivalence.csv", elapsed


def quad_params(**overrides):
    return replace(QUAD.algorithm, **overrides)


def hessians_non_finite_on_call(monkeypatch, call, value):
    """Make the ``call``-th local Hessian evaluation of a Newton run (1: the
    initial state's) return ``value`` in one entry; x and g stay finite."""
    calls = []

    def patched(problem, xb):
        calls.append(None)
        H = batch_hessians(problem, xb)
        if len(calls) == call:
            H[2, 1, 1] = value
        return H

    monkeypatch.setattr(newton, "batch_hessians", patched)


def strip_wall_time(text: str) -> str:
    """A trace CSV's text with every ``wall_time`` value replaced by ``_``."""
    lines = text.splitlines()
    idx = lines[1].split(",").index("wall_time")
    out = [lines[0], lines[1]]
    for line in lines[2:]:
        parts = line.split(",")
        parts[idx] = "_"
        out.append(",".join(parts))
    return "\n".join(out)


def trace_sha256(path) -> str:
    """sha256 of a trace CSV without its wall_time values: the bits a run
    must reproduce from commit to commit."""
    with open(path) as fh:
        return hashlib.sha256(strip_wall_time(fh.read()).encode()).hexdigest()
