import math

import numpy as np
import pytest

from decnewton.diagnostics import fit_rate
from decnewton.gradient_tracking import GTParams, gt_columns, gt_run, gt_step, tune_alpha
from decnewton.graph import generate_topology, metropolis_weights
from decnewton.newton import NetworkState
from decnewton.objectives import (
    batch_gradients,
    centralized_solve,
    global_gradient,
    make_logistic,
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


def _bits(trace):
    return np.array([r.rel_err for r in trace.rows]).view(np.uint64)


@pytest.mark.parametrize("alpha_L1,max_iters,status", [
    (1.0, 2000, "converged"), (0.01, 100, "max_iters"),
    (20.0, 400, "diverged"),   # rel_err passes DIVERGENCE_LIMIT
    (1e308, 10, "diverged"),   # the first step overflows: non-finite iterate
])
def test_tuning_filler_matches_full_fill(setup, alpha_L1, max_iters, status):
    # the tuner's lean path (a stack of one, rel_err only) against a fully
    # filled gt_run: same stop, same iteration count, same rel_errs bit for bit
    prob, W, x_star, x0 = setup
    params = GTParams(alpha=alpha_L1 / prob.L1, m=1, max_iters=max_iters, stop_tol=1e-6)
    with np.errstate(over="ignore", invalid="ignore"):
        full = gt_run(prob, W, params, x0, x_star)
        [(lean_status, errs)] = gt_columns(prob, W, [params.alpha], 1, x0, x_star,
                                           max_iters, 1e-6)
    assert full.status == status
    assert (lean_status, len(errs) - 1) == (full.status, full.iterations)
    assert np.array_equal(np.array(errs).view(np.uint64), _bits(full))


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_stacked_columns_match_lone_runs(setup, family):
    # one stack whose columns converge, reach max_iters and diverge (rel_err
    # past DIVERGENCE_LIMIT, or a first step that overflows) at different
    # iterations, so later columns keep stepping after others leave
    if family == "quadratic":
        prob, W, x_star, x0 = setup
        alphas_L1 = (0.3, 1.0, 0.01, 3.0, 20.0, 1e308)
    else:
        prob = make_logistic(8, 6, 20, rho=0.1, seed=3)
        W = metropolis_weights(generate_topology(8, 0.4, seed=4))
        x_star = centralized_solve(prob, tol=1e-12)
        x0 = np.zeros((prob.n, prob.d))
        alphas_L1 = (1.0, 3.0, 0.01, 20.0, 1e4, 1e308)
    alphas = [a / prob.L1 for a in alphas_L1]
    with np.errstate(over="ignore", invalid="ignore"):
        columns = gt_columns(prob, W, alphas, 2, x0, x_star, 400, 1e-6)
        lone = [gt_run(prob, W, GTParams(alpha=a, m=2, max_iters=400, stop_tol=1e-6), x0, x_star)
                for a in alphas]
    assert {t.status for t in lone} == {"converged", "max_iters", "diverged"}
    assert len({t.iterations for t in lone}) >= 4
    for (status, errs), trace in zip(columns, lone):
        assert (status, len(errs) - 1) == (trace.status, trace.iterations)
        assert np.array_equal(np.array(errs).view(np.uint64), _bits(trace))


@pytest.mark.filterwarnings("error")
def test_stopped_columns_leave_the_stack(setup):
    # the diverged column would overflow within the budget if it kept stepping
    prob, W, x_star, x0 = setup
    (first, errs), (second, _) = gt_columns(prob, W, [20.0 / prob.L1, 1.0 / prob.L1], 1, x0,
                                            x_star, 2000, 1e-6)
    assert (first, len(errs) - 1, second) == ("diverged", 4, "converged")


def test_stacked_columns_on_non_finite_start(setup):
    prob, W, x_star, x0 = setup
    x0 = x0.copy()
    x0[3, 4] = np.inf
    lone = gt_run(prob, W, GTParams(alpha=0.01, max_iters=5), x0, x_star)
    assert (lone.status, lone.iterations) == ("diverged", 0)
    for status, errs in gt_columns(prob, W, [0.01, 0.02], 1, x0, x_star, 5, 1e-6):
        assert status == "diverged"
        assert np.array_equal(np.array(errs).view(np.uint64), _bits(lone))  # one NaN row


@pytest.mark.parametrize("caller", ["gt_run", "tune_alpha"])
def test_start_of_the_wrong_shape_is_rejected(setup, caller):
    prob, W, x_star, x0 = setup
    with pytest.raises(ValueError, match="x0 must have shape"):
        if caller == "gt_run":
            gt_run(prob, W, GTParams(alpha=0.01), x0[:, :-1], x_star)
        else:
            tune_alpha(prob, W, x0[:, :-1], x_star, evals=2, budget=5)


def _sequential_golden_section(problem, W, x0, x_star, m, target, budget, evals):
    """tune_alpha as first written: a lone, fully filled gt_run per point,
    each comparison made before the next point is chosen."""
    hi = math.log10(2.0 / problem.L1)
    lo = hi - 5.0

    def score(log_alpha):
        params = GTParams(alpha=10.0 ** log_alpha, m=m, max_iters=budget, stop_tol=target)
        trace = gt_run(problem, W, params, x0, x_star)
        if trace.status == "diverged":
            return 1e12 * (1.0 + log_alpha - lo)
        if trace.final_rel_err <= target:
            return float(trace.iterations)
        tail = [r for r in trace.rows[len(trace.rows) // 2:] if r.rel_err > 0]
        if len(tail) >= 5:
            ks = np.array([r.iter for r in tail], dtype=float)
            ys = np.log([r.rel_err for r in tail])
            slope = float(np.polyfit(ks, ys, 1)[0])
            if slope < 0:
                shortfall = math.log(trace.final_rel_err) - math.log(target)
                return float(trace.iterations + shortfall / -slope)
        return 1e9 * (1.0 + log_alpha - lo)

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = score(c), score(d)
    for _ in range(evals - 2):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = score(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = score(d)
    best = c if fc <= fd else d
    return float(10.0 ** best)


@pytest.mark.parametrize("kappa,m,target,budget,evals", [
    (100.0, 1, 1e-8, 300, 22),     # the gt-tuned benchmark instance, short budget
    (100.0, 1, 1e-6, 300, 7),      # an odd number of steps ends on a stack of one
    (10.0, 20, 1e-6, 1500, 22),    # test_a4's instances, kappa = 1e4 on a
    (10000.0, 20, 1e-6, 600, 22),  # shorter budget to keep the test short
], ids=["gt-tuned", "odd-evals", "a4-k1e1", "a4-k1e4"])
def test_tune_alpha_matches_sequential_golden_section(kappa, m, target, budget, evals):
    prob = make_quadratic(10, 30, kappa, seed=1)
    W = metropolis_weights(generate_topology(10, 0.2, seed=11))
    x_star = centralized_solve(prob, tol=1e-12)
    args = (prob, W, np.zeros((10, 30)), x_star, m, target, budget, evals)
    assert tune_alpha(*args) == _sequential_golden_section(*args)


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


@pytest.mark.parametrize("field,value", [
    ("alpha", float("nan")), ("alpha", float("inf")), ("m", 1.5),
    ("stop_tol", -1e-3), ("stop_tol", float("nan")), ("stop_tol", float("inf")),
    ("max_iters", 0), ("max_iters", -5), ("max_iters", 2.5),
])
def test_params_reject_bad_run_values(field, value):
    with pytest.raises(ValueError, match=field):
        GTParams(**{"alpha": 0.1, field: value})
