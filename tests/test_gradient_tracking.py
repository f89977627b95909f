import numpy as np
import pytest

from decnewton.diagnostics import fit_rate
from decnewton.gradient_tracking import GTParams, gt_run, gt_step, tune_alpha
from decnewton.graph import generate_topology, metropolis_weights
from decnewton.newton import NetworkState
from decnewton.objectives import (
    batch_gradients,
    centralized_solve,
    global_gradient,
    make_quadratic,
)


@pytest.fixture(scope="module")
def setup():
    prob = make_quadratic(10, 30, 10.0, seed=1)
    W = metropolis_weights(generate_topology(10, 0.2, seed=11))
    x_star = centralized_solve(prob, tol=1e-12)
    x0 = np.zeros((prob.n, prob.d))
    return prob, W, x_star, x0


def test_fixed_point(setup):
    prob, W, x_star, _ = setup
    x = np.tile(x_star, (prob.n, 1))
    g = np.tile(global_gradient(prob, x_star), (prob.n, 1))
    params = GTParams(alpha=0.05, m=1)
    new, _ = gt_step(NetworkState(x=x, g=g, local_grads=batch_gradients(prob, x)), prob, W,
                     params, 0)
    assert np.max(np.abs(new.x - x)) <= 1e-10
    assert np.max(np.abs(new.g - g)) <= 1e-10


def test_zero_step_is_pure_consensus(setup):
    prob, W, _, _ = setup
    rng = np.random.default_rng(0)
    x = rng.standard_normal((prob.n, prob.d))
    g = batch_gradients(prob, x)
    params = GTParams(alpha=0.0, m=3)
    Wm = np.linalg.matrix_power(W.W, 3)
    new, row = gt_step(NetworkState(x=x, g=g, local_grads=g.copy()), prob, W, params, 4)
    assert np.allclose(new.x, Wm @ x, atol=1e-12)
    # the tracker mean still equals the mean local gradient
    assert np.max(np.abs(new.g.mean(0) - new.local_grads.mean(0))) <= 1e-12
    assert (row.iter, row.alpha_k, row.bits) == (5, 0.0, prob.n * 2 * 3 * prob.d * 64)


def test_average_identity_every_iteration(setup):
    prob, W, x_star, x0 = setup
    trace = gt_run(prob, W, GTParams(alpha=0.01, m=1, max_iters=150, stop_tol=0.0),
                   x0, x_star)
    for row in trace.rows[1:]:
        assert row.dac_g <= 1e-11


def test_converges_on_easy_quadratic(setup):
    prob, W, x_star, x0 = setup
    alpha = tune_alpha(prob, W, x0, x_star, m=1, target=1e-8, budget=2000)
    trace = gt_run(prob, W, GTParams(alpha=alpha, m=1, max_iters=4000, stop_tol=1e-8),
                   x0, x_star)
    assert trace.status == "converged"
    assert trace.final_rel_err <= 1e-8


def test_hessian_metrics_are_nan(setup):
    prob, W, x_star, x0 = setup
    trace = gt_run(prob, W, GTParams(alpha=0.01, m=1, max_iters=5, stop_tol=0.0),
                   x0, x_star)
    row = trace.rows[-1]
    assert np.isnan(row.track_H) and np.isnan(row.err_E) and np.isnan(row.u2)
    assert np.isfinite(row.u1) and np.isfinite(row.rel_err)
    assert row.bits_cum == 5 * prob.n * 2 * prob.d * 64


def test_rows_carry_step_wall_time(setup):
    prob, W, x_star, x0 = setup
    trace = gt_run(prob, W, GTParams(alpha=0.01, m=2, max_iters=30, stop_tol=0.0), x0, x_star)
    assert trace.rows[0].wall_time == 0.0
    assert all(row.wall_time > 0.0 for row in trace.rows[1:])


def test_determinism(setup):
    prob, W, x_star, x0 = setup
    params = GTParams(alpha=0.02, m=2, max_iters=50, stop_tol=0.0)
    a = gt_run(prob, W, params, x0, x_star)
    b = gt_run(prob, W, params, x0, x_star)
    assert [r.rel_err for r in a.rows] == [r.rel_err for r in b.rows]


def test_rate_degrades_monotonically_in_kappa():
    W = metropolis_weights(generate_topology(10, 0.2, seed=11))
    x0 = np.zeros((10, 30))
    rhos = []
    for kappa in (10.0, 100.0, 10000.0):
        prob = make_quadratic(10, 30, kappa, seed=1)
        x_star = centralized_solve(prob, tol=1e-12)
        alpha = tune_alpha(prob, W, x0, x_star, m=1, target=1e-6, budget=1200, evals=16)
        trace = gt_run(prob, W, GTParams(alpha=alpha, m=1, max_iters=1200, stop_tol=0.0),
                       x0, x_star)
        lo = trace.rows[len(trace.rows) // 3].iter
        rhos.append(fit_rate(trace, (lo, trace.iterations)).rho_hat)
    assert rhos[0] < rhos[1] < rhos[2] < 1.0


def test_params_validation():
    with pytest.raises(ValueError):
        GTParams(alpha=-0.1)
    with pytest.raises(ValueError):
        GTParams(alpha=0.1, m=0)
