import numpy as np
import pytest

from decnewton.objectives import (
    batch_gradients,
    batch_hessians,
    centralized_solve,
    estimate_constants,
    eval_gradient,
    eval_hessian,
    global_gradient,
    global_hessian,
    global_value,
    local_value,
    make_logistic,
    make_quadratic,
)


@pytest.fixture(scope="module")
def logit_problem():
    return make_logistic(5, 8, 12, rho=0.01, seed=3)


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
    x0 = np.zeros(9)
    for i in range(prob.n):
        assert np.allclose(eval_gradient(prob, i, x0), prob.data.p[i], atol=1e-14)


def test_quadratic_hessian_constant_in_x():
    prob = make_quadratic(4, 7, 10.0, seed=8)
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((2, 7))
    for i in range(prob.n):
        assert np.array_equal(eval_hessian(prob, i, x), eval_hessian(prob, i, y))
        assert np.allclose(eval_hessian(prob, i, x), prob.data.Q[i])


def test_logistic_gradient_at_zero(logit_problem):
    prob = logit_problem
    x0 = np.zeros(prob.d)
    for i in range(prob.n):
        O, y = prob.data.samples[i], prob.data.labels[i]
        expected = prob.n * (-0.5) * (y @ O)
        assert np.allclose(eval_gradient(prob, i, x0), expected, atol=1e-12)


def test_logistic_hessian_lower_bound(logit_problem):
    prob = logit_problem
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal(prob.d)
        for i in range(prob.n):
            ev = np.linalg.eigvalsh(eval_hessian(prob, i, x))
            assert ev[0] >= prob.data.rho * (1 - 1e-12)


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_gradient_matches_finite_differences(family, logit_problem):
    prob = make_quadratic(4, 6, 10.0, seed=11) if family == "quadratic" else logit_problem
    rng = np.random.default_rng(2)
    for _ in range(100):
        i = int(rng.integers(prob.n))
        x = rng.standard_normal(prob.d) * 0.5
        analytic = eval_gradient(prob, i, x)
        numeric = central_diff_gradient(lambda z: local_value(prob, i, z), x)
        assert np.linalg.norm(analytic - numeric) <= 1e-6 * (1 + np.linalg.norm(analytic))


@pytest.mark.parametrize("family", ["quadratic", "logistic"])
def test_hessian_matches_finite_differences(family, logit_problem):
    prob = make_quadratic(4, 6, 10.0, seed=11) if family == "quadratic" else logit_problem
    rng = np.random.default_rng(3)
    for _ in range(100):
        i = int(rng.integers(prob.n))
        x = rng.standard_normal(prob.d) * 0.5
        analytic = eval_hessian(prob, i, x)
        numeric = central_diff_jacobian(lambda z: eval_gradient(prob, i, z), x)
        assert np.allclose(analytic, analytic.T, atol=1e-10)
        assert np.linalg.norm(analytic - numeric) <= 1e-5 * (1 + np.linalg.norm(analytic))


def test_batch_evaluators_match_single_node(logit_problem):
    prob = logit_problem
    rng = np.random.default_rng(4)
    xb = rng.standard_normal((prob.n, prob.d))
    grads = batch_gradients(prob, xb)
    hessians = batch_hessians(prob, xb)
    for i in range(prob.n):
        assert np.allclose(grads[i], eval_gradient(prob, i, xb[i]), atol=1e-12)
        assert np.allclose(hessians[i], eval_hessian(prob, i, xb[i]), atol=1e-12)


def test_index_out_of_range(logit_problem):
    with pytest.raises(IndexError):
        eval_gradient(logit_problem, logit_problem.n, np.zeros(logit_problem.d))
    with pytest.raises(IndexError):
        eval_hessian(logit_problem, -1, np.zeros(logit_problem.d))


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


def test_estimate_constants_identity_quadratic():
    from decnewton.objectives import Problem, QuadraticInstance

    data = QuadraticInstance(Q=np.tile(np.eye(4), (3, 1, 1)), p=np.zeros((3, 4)))
    prob = Problem(family="quadratic", n=3, d=4, data=data, L1=1, L2=0, mu=1)
    assert estimate_constants(prob) == (1.0, 0.0, 1.0)


def test_estimate_constants_quadratic_kappa():
    prob = make_quadratic(6, 10, 10.0, seed=12)
    L1, L2, mu = estimate_constants(prob)
    assert L2 == 0.0
    assert L1 / mu >= 10.0 * (1 - 1e-10)
    # matches an eigensolver on the instance data
    assert L1 == pytest.approx(max(np.linalg.eigvalsh(Q)[-1] for Q in prob.data.Q))
    assert mu == pytest.approx(np.linalg.eigvalsh(prob.data.Q.mean(axis=0))[0])


def test_estimate_constants_logistic(logit_problem):
    L1, L2, mu = estimate_constants(logit_problem)
    assert mu == logit_problem.data.rho
    assert L1 > mu
    assert L2 > 0
    # L2 formula: n * max_i sum_j ||o_ij||^3 / (6 sqrt(3))
    cubes = np.linalg.norm(logit_problem.data.samples, axis=2) ** 3
    expected = logit_problem.n * cubes.sum(axis=1).max() / (6 * np.sqrt(3))
    assert L2 == pytest.approx(expected)


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
    avg = np.mean([local_value(prob, i, x) for i in range(prob.n)])
    assert avg == pytest.approx(global_value(prob, x), rel=1e-12)
    grads = np.mean([eval_gradient(prob, i, x) for i in range(prob.n)], axis=0)
    assert np.allclose(grads, global_gradient(prob, x), atol=1e-10)


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
    with pytest.raises(ValueError):
        centralized_solve(make_quadratic(4, 6, 2.0, seed=0), tol=0.0)
