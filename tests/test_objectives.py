import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from decnewton import objectives
from decnewton.harness import build_problem, preset_configs
from decnewton.objectives import (
    _ROUNDOFF_MULTIPLE,
    LogisticInstance,
    _loss_hessians,
    _neg_loss_grads,
    batch_gradients,
    batch_hessians,
    centralized_solve,
    global_gradient,
    global_hessian,
    global_value,
    make_logistic,
    make_quadratic,
)


@pytest.fixture(scope="module")
def logit_problem():
    return make_logistic(5, 8, 12, rho=0.01, seed=3)


def node_value(prob, i, x):
    """f_i(x), written out: the oracle for the batched derivatives."""
    if prob.family == "quadratic":
        Q, p = prob.data.Q[i], prob.data.p[i]
        return float(0.5 * x @ Q @ x + p @ x)
    O, y, rho = prob.data.samples[i], prob.data.labels[i], prob.data.rho
    z = (O @ x) * y
    return float(0.5 * rho * x @ x + prob.n * np.logaddexp(0.0, -z).sum())


def own_block(prob, i, x):
    """An (n, d) stack holding x at node i's block (and zeros elsewhere)."""
    xb = np.zeros((prob.n, prob.d))
    xb[i] = x
    return xb


def node_gradient(prob, i, x):
    return batch_gradients(prob, own_block(prob, i, x))[i]


def node_hessian(prob, i, x):
    return batch_hessians(prob, own_block(prob, i, x))[i]


def central_diff_gradient(f, x, h=1e-6):
    grad = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        grad[j] = (f(x + e) - f(x - e)) / (2 * h)
    return grad


def central_diff_jacobian(g, x, h=1e-6):
    d = x.size
    J = np.zeros((d, d))
    for j in range(d):
        e = np.zeros_like(x)
        e[j] = h
        J[:, j] = (g(x + e) - g(x - e)) / (2 * h)
    return J


def test_quadratic_condition_number_hits_target():
    for kappa in (10.0, 100.0, 1e4):
        prob = make_quadratic(10, 30, kappa, seed=1)
        ev = np.linalg.eigvalsh(prob.data.Q.mean(axis=0))
        assert ev[-1] / ev[0] == pytest.approx(kappa, rel=0.01)
        assert ev[0] > 0


def test_quadratic_nodes_positive_definite_and_heterogeneous():
    prob = make_quadratic(8, 12, 100.0, seed=2)
    Qbar = prob.data.Q.mean(axis=0)
    for Qi in prob.data.Q:
        assert np.allclose(Qi, Qi.T, atol=1e-12)
        assert np.linalg.eigvalsh(Qi)[0] > 0
        assert np.linalg.norm(Qi - Qbar) > 1e-3  # genuinely different nodes


def test_quadratic_averages_cached_and_read_only():
    prob = make_quadratic(6, 5, 20.0, seed=4)
    data = prob.data
    assert data.Qbar is data.Qbar and data.pbar is data.pbar
    assert np.array_equal(data.Qbar, data.Q.mean(axis=0))
    assert np.array_equal(data.pbar, data.p.mean(axis=0))
    with pytest.raises(ValueError):
        data.Qbar[0, 0] = 1.0
    with pytest.raises(AttributeError):
        data.pbar = np.zeros(5)
    x = np.linspace(-1.0, 1.0, 5)
    Qbar, pbar = data.Q.mean(axis=0), data.p.mean(axis=0)
    assert global_value(prob, x) == float(0.5 * x @ Qbar @ x + pbar @ x)
    assert np.array_equal(global_gradient(prob, x), Qbar @ x + pbar)
    assert np.array_equal(global_hessian(prob, x), Qbar)


def test_quadratic_gradient_at_zero_is_p():
    prob = make_quadratic(6, 9, 10.0, seed=5)
    assert np.allclose(batch_gradients(prob, np.zeros((prob.n, 9))), prob.data.p, atol=1e-14)


def test_quadratic_hessian_constant_in_x():
    prob = make_quadratic(4, 7, 10.0, seed=8)
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((2, prob.n, 7))
    assert np.array_equal(batch_hessians(prob, x), batch_hessians(prob, y))
    assert np.allclose(batch_hessians(prob, x), prob.data.Q)


def test_logistic_gradient_at_zero(logit_problem):
    prob = logit_problem
    grads = batch_gradients(prob, np.zeros((prob.n, prob.d)))
    for i in range(prob.n):
        O, y = prob.data.samples[i], prob.data.labels[i]
        expected = prob.n * (-0.5) * (y @ O)
        assert np.allclose(grads[i], expected, atol=1e-12)


def test_logistic_hessian_lower_bound(logit_problem):
    prob = logit_problem
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal((prob.n, prob.d))
        ev = np.linalg.eigvalsh(batch_hessians(prob, x))
        assert ev[:, 0].min() >= prob.data.rho * (1 - 1e-12)


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_gradient_matches_finite_differences(family, logit_problem):
    prob = make_quadratic(4, 6, 10.0, seed=11) if family == "quadratic" else logit_problem
    rng = np.random.default_rng(2)
    for _ in range(100):
        i = int(rng.integers(prob.n))
        x = rng.standard_normal(prob.d) * 0.5
        analytic = node_gradient(prob, i, x)
        numeric = central_diff_gradient(lambda z: node_value(prob, i, z), x)
        assert np.linalg.norm(analytic - numeric) <= 1e-6 * (1 + np.linalg.norm(analytic))


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_hessian_matches_finite_differences(family, logit_problem):
    prob = make_quadratic(4, 6, 10.0, seed=11) if family == "quadratic" else logit_problem
    rng = np.random.default_rng(3)
    for _ in range(100):
        i = int(rng.integers(prob.n))
        x = rng.standard_normal(prob.d) * 0.5
        analytic = node_hessian(prob, i, x)
        numeric = central_diff_jacobian(lambda z: node_gradient(prob, i, z), x)
        assert np.allclose(analytic, analytic.T, atol=1e-10)
        assert np.linalg.norm(analytic - numeric) <= 1e-5 * (1 + np.linalg.norm(analytic))


def test_batch_evaluators_match_single_node(logit_problem):
    # each node's derivatives written out on its own data and block
    prob = logit_problem
    rng = np.random.default_rng(4)
    xb = rng.standard_normal((prob.n, prob.d))
    grads = batch_gradients(prob, xb)
    hessians = batch_hessians(prob, xb)
    for i in range(prob.n):
        O, y, rho, x = prob.data.samples[i], prob.data.labels[i], prob.data.rho, xb[i]
        z = (O @ x) * y
        w = expit(z) * expit(-z)
        assert np.allclose(grads[i], rho * x - prob.n * ((expit(-z) * y) @ O), atol=1e-12)
        assert np.allclose(hessians[i], rho * np.eye(prob.d) + prob.n * ((O.T * w) @ O),
                           atol=1e-12)


def sigmoid_parts(z):
    """(sigmoid(-z), sigmoid(z) sigmoid(-z)) as the kernels take them, one margin
    per node: a single sample o = 1 with label +1 at x_i = z_i has margin z_i."""
    data = LogisticInstance(samples=np.ones((z.size, 1, 1)), labels=np.ones((z.size, 1)),
                            rho=1.0)
    return _neg_loss_grads(data, z[:, None])[:, 0], _loss_hessians(data, z[:, None])[:, 0, 0]


def test_sigmoid_parts_are_within_a_few_ulp_of_expit():
    # numpy's exp is not glibc's, so the parts are scipy's to a few ulp, not to the bit
    rng = np.random.default_rng(0)
    z = np.concatenate([rng.uniform(-700.0, 700.0, 100_000), 20.0 * rng.standard_normal(100_000),
                        [0.0, -0.0, 1e-300, -1e-300, 699.9, -699.9]])
    neg, weight = sigmoid_parts(z)
    ref_neg, ref_weight = expit(-z), expit(z) * expit(-z)
    assert np.all(np.abs(neg - ref_neg) <= 4 * np.spacing(ref_neg))
    assert np.all(np.abs(weight - ref_weight) <= 5 * np.spacing(ref_weight))


def test_sigmoid_parts_keep_the_exp_tail_past_the_float_range():
    # past |z| = 709.78 exp(-|z|) is subnormal: expit flushes it to 0, the
    # parts keep it, and 1 / (1 + exp(-z)) would overflow on the negative side
    tail = np.array([709.8, 720.0, 745.0, 746.0, 1e4])
    z = np.concatenate([tail, -tail])
    neg, weight = sigmoid_parts(z)
    assert np.array_equal(neg, np.concatenate([np.exp(-tail), np.ones(tail.size)]))
    assert np.array_equal(weight, np.exp(-np.abs(z)))
    assert np.all(neg[:3] > 0) and np.all(expit(-tail[:3]) == 0.0)


def test_logistic_derivatives_are_finite_at_huge_margins(logit_problem):
    # margins of about +-1e4 on every node: the sigmoid parts underflow to 0
    # or exactly 1, with no overflow or invalid warning (filterwarnings = error)
    prob = logit_problem
    x = 1e4 * np.random.default_rng(5).standard_normal(prob.d)
    xb = np.tile(x, (prob.n, 1))
    z = np.einsum("nmd,d->nm", prob.data.samples, x) * prob.data.labels
    assert np.abs(z).max() > 1e4
    for value in (batch_gradients(prob, xb), batch_hessians(prob, xb), global_value(prob, x),
                  global_gradient(prob, x), global_hessian(prob, x)):
        assert np.all(np.isfinite(value))


@pytest.mark.parametrize("layout", ["contiguous", "strided", "fortran"])
@pytest.mark.parametrize("columns", [1, 3, 7])
@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_stacked_gradients_match_lone_blocks(family, columns, layout, logit_problem):
    # every column of an (n, C, d) stack, in any memory layout, gets the
    # bits of a lone (n, d) call on that column's blocks
    prob = make_quadratic(10, 30, 100.0, seed=1) if family == "quadratic" else logit_problem
    rng = np.random.default_rng(columns)
    wide = rng.standard_normal((prob.n, 2 * columns, prob.d))
    stack = {"contiguous": np.ascontiguousarray(wide[:, :columns]),
             "strided": wide[:, ::2],
             "fortran": np.asfortranarray(wide[:, :columns])}[layout]
    grads = batch_gradients(prob, stack)
    assert grads.shape == stack.shape
    for c in range(columns):
        lone = batch_gradients(prob, np.ascontiguousarray(stack[:, c]))
        assert np.array_equal(grads[:, c].view(np.uint64), lone.view(np.uint64))


def test_centralized_solve_quadratic_matches_linear_solve():
    prob = make_quadratic(7, 10, 100.0, seed=6)
    x_star = centralized_solve(prob, tol=1e-12)
    direct = np.linalg.solve(prob.data.Q.mean(axis=0), -prob.data.p.mean(axis=0))
    assert np.linalg.norm(x_star - direct) <= 1e-10
    assert np.linalg.norm(global_gradient(prob, x_star)) <= 1e-12


def test_centralized_solve_logistic(logit_problem):
    x_star = centralized_solve(logit_problem, tol=1e-12)
    assert np.linalg.norm(global_gradient(logit_problem, x_star)) <= 1e-12
    # average local gradient vanishes at the optimum
    stacked = batch_gradients(logit_problem, np.tile(x_star, (logit_problem.n, 1)))
    assert np.linalg.norm(stacked.mean(axis=0)) <= 1e-8


@pytest.mark.parametrize("tol", [0.0, np.nan])
def test_centralized_solve_rejects_a_tol_no_norm_reaches(tol):
    # no norm is <= nan: the oracle ran until it stalled, then returned at its roundoff floor
    with pytest.raises(ValueError, match="tol must be positive"):
        centralized_solve(make_quadratic(4, 3, 10.0, seed=1), tol=tol)


@pytest.mark.parametrize("shift", [19, 156, 223])
def test_centralized_solve_stops_at_roundoff(shift):
    # logit-rank instances on which the Armijo test, run on F's roundoff,
    # once halved the step to nothing above 1e-12: full steps reach 1e-12,
    # and a tol below the roundoff floor of grad F stops at that floor
    config = preset_configs("logit-rank")[0]
    prob = build_problem(replace(config.problem, seed=config.problem.seed + shift))
    assert np.linalg.norm(global_gradient(prob, centralized_solve(prob, tol=1e-12))) <= 1e-12
    x_star = centralized_solve(prob, tol=1e-16)
    floor = np.finfo(float).eps * np.linalg.norm(global_gradient(prob, np.zeros(prob.d)))
    assert 1e-16 < np.linalg.norm(global_gradient(prob, x_star)) <= _ROUNDOFF_MULTIPLE * floor


@pytest.mark.parametrize("rho", [1e2, 1e3, 1e4])
def test_centralized_solve_solves_one_sample_per_node(rho):
    # kappa 1.07 to 1.9: near x* the Newton decrement (about ||grad||^2 / rho)
    # falls below F's roundoff, where the Armijo test can neither pass nor fail
    for seed in range(1, 21):
        prob = make_logistic(10, 20, 1, rho=rho, seed=seed)
        x_star = centralized_solve(prob, tol=1e-12)
        assert np.linalg.norm(global_gradient(prob, x_star)) <= 1e-12, seed


@pytest.mark.parametrize("seed", [0, 1])
def test_centralized_solve_backtracks(monkeypatch, seed):
    # rho = 1e-8 on two samples per node: one full Newton step fails the
    # Armijo test, is halved once, and the oracle still reaches 1e-12
    points = []  # every x at which F is evaluated

    def value(problem, x):
        points.append(x.copy())
        return global_value(problem, x)

    monkeypatch.setattr(objectives, "global_value", value)
    prob = make_logistic(10, 20, 2, rho=1e-8, seed=seed)
    x_star = centralized_solve(prob, tol=1e-12)
    # F at the start, then in each iteration at every trial step and once more
    # at the step taken, the same point as the trial that passed
    taken = sum(np.array_equal(a, b) for a, b in zip(points, points[1:]))
    assert len(points) - 1 - 2 * taken == 1  # one rejected trial
    assert np.linalg.norm(global_gradient(prob, x_star)) <= 1e-12


def test_centralized_solve_raises_above_roundoff(logit_problem):
    with pytest.raises(RuntimeError, match="did not reach tol"):
        centralized_solve(logit_problem, tol=1e-12, max_iters=2)


def test_centralized_solve_single_sample_bisection_oracle():
    # one node, one sample, rho = 1: the optimum lies on the ray s * y * o,
    # with rho * s = sigmoid(-s * ||o||^2) solved by bisection
    prob = make_logistic(1, 2, 1, rho=1.0, seed=9)
    o = prob.data.samples[0, 0]
    y = prob.data.labels[0, 0]
    nsq = float(o @ o)
    lo_s, hi_s = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo_s + hi_s)
        if mid - 1.0 / (1.0 + np.exp(mid * nsq)) < 0:
            lo_s = mid
        else:
            hi_s = mid
    expected = 0.5 * (lo_s + hi_s) * y * o
    x_star = centralized_solve(prob, tol=1e-12)
    assert np.linalg.norm(x_star - expected) <= 1e-9


def test_stored_constants_identity_quadratic():
    # kappa = 1 without jitter: every Q_i is the identity up to the rounding
    # of U I U^T
    prob = make_quadratic(3, 4, 1.0, seed=0, spread=0.0)
    assert (prob.L1, prob.L2, prob.mu) == pytest.approx((1.0, 0.0, 1.0), rel=1e-14)


def test_stored_constants_quadratic_kappa():
    prob = make_quadratic(6, 10, 10.0, seed=12)
    L1, L2, mu = prob.L1, prob.L2, prob.mu
    assert L2 == 0.0
    assert L1 / mu >= 10.0 * (1 - 1e-10)
    # matches an eigensolver on the instance data
    assert L1 == pytest.approx(max(np.linalg.eigvalsh(Q)[-1] for Q in prob.data.Q))
    assert mu == pytest.approx(np.linalg.eigvalsh(prob.data.Q.mean(axis=0))[0])


def test_stored_constants_logistic(logit_problem):
    L1, L2, mu = logit_problem.L1, logit_problem.L2, logit_problem.mu
    assert mu == logit_problem.data.rho
    assert L1 > mu
    assert L2 > 0
    # L2 formula: n * max_i sum_j ||o_ij||^3 / (6 sqrt(3))
    cubes = np.linalg.norm(logit_problem.data.samples, axis=2) ** 3
    expected = logit_problem.n * cubes.sum(axis=1).max() / (6 * np.sqrt(3))
    assert L2 == pytest.approx(expected)


@pytest.mark.parametrize("preset", ["quad-kappa", "logit-rank"])
def test_L1_matches_per_node_eigvalsh_oracle(preset):
    # the earlier per-node eigvalsh loop is the bit-for-bit oracle
    for config in preset_configs(preset):
        for shift in range(5):
            problem = build_problem(replace(config.problem, seed=config.problem.seed + shift))
            data = problem.data
            if problem.family == "quadratic":
                oracle = max(float(np.linalg.eigvalsh(Qi)[-1]) for Qi in data.Q)
            else:
                lmax = max(float(np.linalg.eigvalsh(O.T @ O)[-1]) for O in data.samples)
                oracle = data.rho + problem.n * 0.25 * lmax
            assert problem.L1 == oracle


def test_strong_convexity_witness(logit_problem):
    rng = np.random.default_rng(5)
    for prob in (make_quadratic(5, 8, 100.0, seed=13), logit_problem):
        for _ in range(100):
            x = rng.standard_normal(prob.d)
            ev = np.linalg.eigvalsh(global_hessian(prob, x))
            assert ev[0] >= prob.mu * (1 - 1e-8)


def test_global_average_consistency(logit_problem):
    # (1/n) sum_i f_i(x) == F(x) for a common point
    prob = logit_problem
    rng = np.random.default_rng(6)
    x = rng.standard_normal(prob.d)
    avg = np.mean([node_value(prob, i, x) for i in range(prob.n)])
    assert avg == pytest.approx(global_value(prob, x), rel=1e-12)
    grads = batch_gradients(prob, np.tile(x, (prob.n, 1))).mean(axis=0)
    assert np.allclose(grads, global_gradient(prob, x), atol=1e-10)
    hessians = batch_hessians(prob, np.tile(x, (prob.n, 1))).mean(axis=0)
    assert np.allclose(hessians, global_hessian(prob, x), atol=1e-10)


def test_reproducibility():
    a = make_quadratic(5, 6, 50.0, seed=21)
    b = make_quadratic(5, 6, 50.0, seed=21)
    assert np.array_equal(a.data.Q, b.data.Q)
    assert np.array_equal(a.data.p, b.data.p)
    c = make_logistic(4, 5, 6, rho=0.1, seed=22)
    d = make_logistic(4, 5, 6, rho=0.1, seed=22)
    assert np.array_equal(c.data.samples, d.data.samples)
    assert np.array_equal(c.data.labels, d.data.labels)


def test_validation_errors():
    with pytest.raises(ValueError):
        make_quadratic(4, 6, 0.5, seed=0)
    with pytest.raises(ValueError):
        make_logistic(4, 6, 0, rho=0.1, seed=0)
    with pytest.raises(ValueError):
        make_logistic(4, 6, 5, rho=0.0, seed=0)
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="kappa"):
            make_quadratic(4, 6, value, seed=0)
        with pytest.raises(ValueError, match="rho"):
            make_logistic(4, 6, 5, rho=value, seed=0)
    with pytest.raises(ValueError):
        centralized_solve(make_quadratic(4, 6, 2.0, seed=0), tol=0.0)


_SCIPY_PROBE = """
import sys
from dataclasses import replace
from decnewton.harness import preset_configs, run_experiment

def three_iterations(config):
    run_experiment(replace(config, algorithm=replace(config.algorithm, max_iters=3)))

three_iterations(next(c for c in preset_configs("quad-kappa") if c.label == "quad-k1e2-m15"))
if "scipy" in sys.modules:
    sys.exit("a quadratic run loaded scipy")
three_iterations(preset_configs("logit-topk")[0])
if "scipy" in sys.modules:
    sys.exit("a logistic run loaded scipy")
"""


def test_no_run_loads_scipy():
    # importing scipy.special alone about doubles a numpy-only process's
    # resident set; the logistic sigmoid parts are numpy, so no run needs it
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", _SCIPY_PROBE], env=env, check=True, timeout=120)
