import hashlib

import numpy as np
import pytest

from decnewton import (
    AlgoParams,
    ConstantSchedule,
    GeometricRamp,
    centralized_solve,
    generate_topology,
    make_quadratic,
    metropolis_weights,
    newton,
)
from decnewton.compress import CompressorSpec
from decnewton.harness import SEED_ENV_VAR
from decnewton.objectives import batch_hessians

# Shared quadratic benchmark setup: n=10 nodes, tau=0.2, d=30, rank-3
# compression, gamma=0.03, alpha ramping 0.02 * 1.1^k up to 1, m=15.
QUAD = dict(n=10, d=30, tau=0.2, problem_seed=1, graph_seed=11)


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    """Unset DECNEWTON_SEED, so that a test that runs a ``decnewton`` command
    runs the config it wrote; a test that wants the override sets it."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


@pytest.fixture(scope="session")
def quad_graph():
    topology = generate_topology(QUAD["n"], QUAD["tau"], seed=QUAD["graph_seed"])
    return topology, metropolis_weights(topology)


@pytest.fixture(scope="session")
def quad_problem():
    return make_quadratic(QUAD["n"], QUAD["d"], 100.0, seed=QUAD["problem_seed"])


@pytest.fixture(scope="session")
def quad_xstar(quad_problem):
    return centralized_solve(quad_problem, tol=1e-12)


@pytest.fixture(scope="session")
def quad_x0(quad_problem):
    return np.zeros((quad_problem.n, quad_problem.d))


def quad_params(m=15, kind="rank_k", K=3, gamma=0.03, max_iters=2000,
                stop_tol=1e-10, alpha=None, M=0.0, cg_tol=None, variant="efficient"):
    return AlgoParams(
        compressor=CompressorSpec(kind, d=QUAD["d"], K=K),
        alpha=alpha if alpha is not None else GeometricRamp(0.02, 1.1, 1.0),
        gamma=gamma,
        m=m,
        M=M,
        cg_tol=cg_tol if cg_tol is not None else ConstantSchedule(1e-10),
        max_iters=max_iters,
        stop_tol=stop_tol,
        variant=variant,
    )


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
