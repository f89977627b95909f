import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import trace_sha256
from decnewton import gradient_tracking
from decnewton.diagnostics import fit_rate
from decnewton.gradient_tracking import (
    _INV_PHI,
    GTParams,
    _walk,
    gt_columns,
    gt_run,
    gt_step,
    tune_alpha,
)
from decnewton.graph import generate_topology, metropolis_weights
from decnewton.harness import SEED_ENV_VAR, preset_configs, run_experiment
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
    # one stack of 7, tune_alpha's widest, whose columns converge, reach
    # max_iters and diverge (rel_err past DIVERGENCE_LIMIT, or a first step
    # that overflows) at different iterations, so later columns keep stepping
    # after others leave
    if family == "quadratic":
        prob, W, x_star, x0 = setup
        alphas_L1 = (0.3, 1.0, 0.01, 3.0, 20.0, 1e308, 0.1)
    else:
        prob = make_logistic(8, 6, 20, rho=0.1, seed=3)
        W = metropolis_weights(generate_topology(8, 0.4, seed=4))
        x_star = centralized_solve(prob, tol=1e-12)
        x0 = np.zeros((prob.n, prob.d))
        alphas_L1 = (1.0, 3.0, 0.01, 20.0, 1e4, 1e308, 0.3)
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


def _sequential_golden_section(problem, W, x0, x_star, m, target, budget, evals, compared=None):
    """tune_alpha as first written: a lone, fully filled gt_run per point,
    each comparison made before the next point is chosen. ``compared`` gets
    the pair of run statuses each comparison reads."""
    hi = math.log10(2.0 / problem.L1)
    lo = hi - 5.0
    status = {}

    def score(log_alpha):
        params = GTParams(alpha=10.0 ** log_alpha, m=m, max_iters=budget, stop_tol=target)
        trace = gt_run(problem, W, params, x0, x_star)
        status[log_alpha] = trace.status
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
        if compared is not None:
            compared.add(tuple(sorted((status[c], status[d]))))
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = score(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = score(d)
    if compared is not None:
        compared.add(tuple(sorted((status[c], status[d]))))
    best = c if fc <= fd else d
    return float(10.0 ** best)


def _search_instance(kappa, seed, unstable):
    """The n = 10, d = 30 quadratic of ``seed`` with its graph and x*.
    ``unstable`` understates L1 tenfold and takes a denser graph, so the
    top decade of tune_alpha's grid diverges."""
    prob = make_quadratic(10, 30, kappa, seed=seed)
    x_star = centralized_solve(prob, tol=1e-12)
    if not unstable:
        return prob, metropolis_weights(generate_topology(10, 0.2, seed=11)), x_star
    return (replace(prob, L1=prob.L1 / 10),
            metropolis_weights(generate_topology(10, 0.5, seed=10 + seed)), x_star)


CONVERGED_VS_BUDGET = ("converged", "max_iters")
CONVERGED_VS_DIVERGED = ("converged", "diverged")


@pytest.mark.parametrize("kappa,seed,unstable,m,target,budget,evals,compares", [
    (100.0, 1, False, 1, 1e-8, 300, 22, ()),     # the gt-tuned benchmark instance, short budget
    (100.0, 1, False, 1, 1e-6, 300, 7, ()),      # five steps: the last stack looks past the end
    (10.0, 1, False, 20, 1e-6, 1500, 22, ()),    # test_a4's instances, kappa = 1e4 on a
    (10000.0, 1, False, 20, 1e-6, 600, 22, ()),  # shorter budget to keep the test short
    # a run converged at j decides its comparison with one still going at
    # j or later: the other run leaves the stack there
    (100.0, 1, True, 1, 1e-6, 300, 22, (CONVERGED_VS_BUDGET, CONVERGED_VS_DIVERGED)),
    (100.0, 2, True, 1, 1e-6, 150, 22, (CONVERGED_VS_BUDGET,)),
    (10000.0, 2, True, 1, 0.05, 600, 22, (CONVERGED_VS_BUDGET, CONVERGED_VS_DIVERGED)),
], ids=["gt-tuned", "odd-evals", "a4-k1e1", "a4-k1e4", "k1e2-diverging-top",
        "k1e2-short-budget", "k1e4-diverging-top"])
def test_tune_alpha_matches_sequential_golden_section(kappa, seed, unstable, m, target, budget,
                                                      evals, compares):
    prob, W, x_star = _search_instance(kappa, seed, unstable)
    args = (prob, W, np.zeros((10, 30)), x_star, m, target, budget, evals)
    compared = set()
    assert tune_alpha(*args) == _sequential_golden_section(*args, compared)
    assert compared.issuperset(compares)


@pytest.mark.slow
@pytest.mark.parametrize("budget", [150, 300, 450, 600])
@pytest.mark.parametrize("unstable", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kappa", [100.0, 10000.0])
def test_pruned_search_sweep(kappa, seed, unstable, budget):
    # kappa = 1e4 reaches 0.05 within 600 iterations only at the larger step sizes
    prob, W, x_star = _search_instance(kappa, seed, unstable)
    args = (prob, W, np.zeros((10, 30)), x_star, 1, 1e-6 if kappa < 1e3 else 0.05, budget, 22)
    assert tune_alpha(*args) == _sequential_golden_section(*args)


def test_search_decides_only_what_a_running_score_bound_decides():
    # one comparison (evals = 2), between the grid's first pair c < d; a run
    # still going at iteration k scores above k, and a tie goes to c
    lo, hi = -5.0, 0.0
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    assert _walk({d: 5.0}, {c: 5}, lo, hi, 2, 0)[1] == set()  # fc > 5 = fd
    assert _walk({d: 5.0}, {c: 4}, lo, hi, 2, 0)[1] == {c}    # fc = 5 would win the tie
    assert _walk({c: 5.0}, {d: 5}, lo, hi, 2, 0)[1] == set()
    assert _walk({c: 5.0, d: 7.0}, {}, lo, hi, 2, 3) == ([], set())
    assert _walk({}, {c: 9, d: 9}, lo, hi, 2, 0)[1] == {c, d}
    assert _walk({}, {c: 9}, lo, hi, 2, 0)[1] == {c}  # d, not yet run, meets c
    assert _walk({}, {}, lo, hi, 2, 1)[0] == [c]


def test_benchmark_instance_keeps_its_tuned_alpha(monkeypatch, tmp_path):
    # the gt-tuned benchmark run, full budget: a gradient kernel whose bits
    # move the search or the final run shows here. The alpha and the trace's
    # sha256 without wall_time hold for this numpy/OpenBLAS (numpy 2 with
    # OpenBLAS 0.3.31, Haswell kernels), at one BLAS thread or two.
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    stacks = []

    def recorded(*args, **kwargs):
        columns = gt_columns(*args, **kwargs)
        stacks.append(max(len(errs) - 1 for _, errs in columns))  # the stack's iterations
        return columns

    monkeypatch.setattr(gradient_tracking, "gt_columns", recorded)
    config = next(c for c in preset_configs("quad-kappa") if c.label == "quad-k1e2-m15")
    config = replace(config, method="gt", gt_alpha_mode="tuned", label="gt-tuned",
                     algorithm=GTParams(alpha=1.0, m=1))
    trace, path = run_experiment(config, out_dir=str(tmp_path))
    # 12,953 stacked iterations, also in 7 stacks, while every column ran to its stop
    assert (len(stacks), sum(stacks)) == (7, 11777)
    assert trace.rows[-1].alpha_k == 0.006771071029423611
    assert (trace.status, trace.iterations, trace.rows[-1].bits_cum) == ("converged", 1856,
                                                                          71270400)
    assert trace_sha256(path) == (
        "bb7851c5c1b4c798861d856af356a9aa7e5ec4d4ef97c1ab09d36b96234b33b8")


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
    with pytest.raises(ValueError, match="m must"):  # render_config would write m = True
        GTParams(alpha=0.1, m=True)
    assert GTParams(alpha=0.1, m=3).rounds(7) == 3


@pytest.mark.parametrize("field,value", [
    ("alpha", float("nan")), ("alpha", float("inf")), ("m", 1.5),
    ("stop_tol", -1e-3), ("stop_tol", float("nan")), ("stop_tol", float("inf")),
    ("max_iters", 0), ("max_iters", -5), ("max_iters", 2.5),
])
def test_params_reject_bad_run_values(field, value):
    with pytest.raises(ValueError, match=field):
        GTParams(**{"alpha": 0.1, field: value})
