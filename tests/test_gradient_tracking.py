import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import QUAD, trace_sha256
from decnewton import gradient_tracking, newton
from decnewton.compress import CompressorSpec
from decnewton.diagnostics import fit_rate
from decnewton.gradient_tracking import (
    GTParams,
    gt_columns,
    gt_run,
    tune_alpha,
)
from decnewton.graph import generate_topology, metropolis_weights
from decnewton.harness import (_instance, build_problem, preset_configs, repetitions,
                               run_experiment)
from decnewton.newton import AlgoParams, ConstantSchedule, NetworkState, exchange_bits
from decnewton.objectives import (batch_gradients, centralized_solve, global_gradient,
                                  make_logistic, make_quadratic)


def _kappa_preset(kappa):
    """The quad-kappa preset config of ``kappa`` at m = 15."""
    return next(c for c in preset_configs("quad-kappa") if c.problem.kappa == kappa)


@pytest.fixture(scope="module")
def setup():
    """The kappa = 10 benchmark instance: (problem, W, x*, x0)."""
    prob, W, x0, x_star = _instance(_kappa_preset(10.0))
    return prob, W, x_star, x0


def test_fixed_point(setup):
    prob, W, x_star, _ = setup
    x = np.tile(x_star, (prob.n, 1))
    g = np.tile(global_gradient(prob, x_star), (prob.n, 1))
    params = GTParams(alpha=0.05, m=1)
    new, _ = newton.step(NetworkState(x=x, g=g, local_grads=batch_gradients(prob, x)), prob, W,
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
    new, row = newton.step(NetworkState(x=x, g=g, local_grads=g.copy()), prob, W, params, 4)
    assert np.allclose(new.x, Wm @ x, atol=1e-12)
    # the tracker mean still equals the mean local gradient
    assert np.max(np.abs(new.g.mean(0) - new.local_grads.mean(0))) <= 1e-12
    assert (row.iter, row.alpha_k, row.bits) == (5, 0.0, prob.n * 2 * 3 * prob.d * 64)


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_both_methods_share_the_x_and_g_update(kind, m):
    # a Newton state whose direction is g moves x and g exactly as a tracking
    # state does: newton.step runs one x and g update for both methods
    prob = (make_quadratic(6, 4, 50.0, seed=2) if kind == "quadratic"
            else make_logistic(6, 4, 5, rho=0.1, seed=2))
    W = metropolis_weights(generate_topology(prob.n, 0.5, seed=0))
    rng = np.random.default_rng(1)
    x, g = rng.standard_normal((2, prob.n, prob.d))
    local_grads = batch_gradients(prob, x)
    newton_state = replace(newton.init_state(prob, x), g=g.copy(), d_dir=g.copy())
    newton_params = AlgoParams(compressor=CompressorSpec("identity", d=prob.d),
                               alpha=ConstantSchedule(0.3), gamma=0.2, m=m)
    new_n, _ = newton.step(newton_state, prob, W, newton_params, 2)
    gt_state = NetworkState(x=x.copy(), g=g.copy(), local_grads=local_grads)
    new_gt, row = newton.step(gt_state, prob, W, GTParams(alpha=0.3, m=m), 2)
    assert np.array_equal(new_n.x, new_gt.x) and np.array_equal(new_n.g, new_gt.g)
    assert new_gt.H is None and np.array_equal(new_gt.local_grads, batch_gradients(prob, new_gt.x))
    assert (row.iter, row.alpha_k, row.bits) == (3, 0.3, prob.n * exchange_bits(m, prob.d))
    assert (row.c_k, row.fallback_count, row.cg_max_rel_residual) == (0.0, 0, 0.0)
    hessian_side = (row.track_H, row.err_E, row.diff_Htilde, row.dac_H, row.hess_asymmetry)
    assert all(math.isnan(v) for v in hessian_side)


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
    # a stack of 7, whose lone runs converge, reach max_iters and diverge
    # (rel_err past DIVERGENCE_LIMIT, or a first step that overflows) at
    # different iterations, so later columns keep stepping after others leave.
    # The first convergence, or the horizon, ends the race: the runs still
    # going leave as dropped there. The stack of the runs that converge nowhere
    # runs to the budget.
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
        lone = {a: gt_run(prob, W, GTParams(alpha=a, m=2, max_iters=400, stop_tol=1e-6), x0,
                          x_star) for a in alphas}
    assert {t.status for t in lone.values()} == {"converged", "max_iters", "diverged"}
    assert len({t.iterations for t in lone.values()}) >= 4
    first = min(t.iterations for t in lone.values() if t.status == "converged")
    nowhere = [a for a in alphas if lone[a].status != "converged"]
    seen = []
    for stack, horizon, end in [(alphas, math.inf, first), (alphas, 40, 40),
                                (nowhere, math.inf, 400)]:
        with np.errstate(over="ignore", invalid="ignore"):
            columns = gt_columns(prob, W, stack, 2, x0, x_star, 400, 1e-6, horizon)
        for a, (status, errs) in zip(stack, columns):
            trace = lone[a]
            if trace.iterations > end:
                assert (status, len(errs) - 1) == ("dropped", end)
            else:
                assert (status, len(errs) - 1) == (trace.status, trace.iterations)
            assert np.array_equal(np.array(errs).view(np.uint64), _bits(trace)[:len(errs)])
        seen.append({status for status, _ in columns})
    assert seen == [{"converged", "diverged", "dropped"}, {"diverged", "dropped"},
                    {"max_iters", "diverged"}]


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


@pytest.mark.parametrize("caller", ["gt_run", "gt_columns", "tune_alpha", "newton.run"])
def test_start_of_the_wrong_shape_is_rejected(setup, caller):
    prob, W, x_star, x0 = setup
    with pytest.raises(ValueError, match="x0 must have shape"):
        if caller == "gt_run":
            gt_run(prob, W, GTParams(alpha=0.01), x0[:, :-1], x_star)
        elif caller == "gt_columns":
            gt_columns(prob, W, [0.01, 0.02], 1, x0[:-1], x_star, 5, 1e-6)
        elif caller == "tune_alpha":
            tune_alpha(prob, W, x0[:, :-1], x_star, budget=5)
        else:
            params = AlgoParams(CompressorSpec("identity", d=prob.d), ConstantSchedule(1.0), 0.1)
            newton.run(prob, W, params, x0[:, :-1], x_star)


def _trace_score(trace, log_alpha, lo, target):
    """tune_alpha's score of a fully filled run at ``10 ** log_alpha``, written
    apart from ``gradient_tracking._score``."""
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


def _lone_score(problem, W, x0, x_star, m, target, budget, log_alpha):
    params = GTParams(alpha=10.0 ** log_alpha, m=m, max_iters=budget, stop_tol=target)
    lo = math.log10(2.0 / problem.L1) - 5.0
    return _trace_score(gt_run(problem, W, params, x0, x_star), log_alpha, lo, target)


def _sequential_zoom(problem, W, x0, x_star, m, target, budget):
    """tune_alpha's grid and zooms with a lone, fully filled gt_run per point
    and no run leaving early: 11 points 0.5 decade apart over the 5 decades
    below 2/L1, run to the target or to 1e-3, whichever is looser, then three
    stacks at 0.1, 0.02 and 0.004 decade within 5 spacings of the best score
    so far, the larger alpha winning a tie. When a grid run converged at a
    looser 1e-3, the grid's scores only pick its best point; when none did,
    the grid scores at the target."""
    hi = math.log10(2.0 / problem.L1)
    scores = {}  # log10(alpha) -> score
    best = hi - 2.5
    for step in (125, 25, 5, 1):  # in 0.004 decade
        aim = max(target, 1e-3) if step == 125 else target
        i_best = round((best - hi) * 250) + 1250
        for i in range(i_best - 5 * step, i_best + 5 * step + 1, step):
            p = hi - (1250 - i) / 250
            if 0 <= i <= 1250 and p not in scores:
                scores[p] = _lone_score(problem, W, x0, x_star, m, aim, budget, p)
        if aim > target and min(scores.values()) > budget:  # no run converged
            aim = target
            scores = {p: _lone_score(problem, W, x0, x_star, m, aim, budget, p) for p in scores}
        best = min(scores, key=lambda p: (scores[p], -p))
        if aim > target:
            scores = {}
    return float(10.0 ** best)


def _sequential_golden_section(problem, W, x0, x_star, m, target, budget, evals):
    """The golden-section search tune_alpha ran before the zoom, a lone run per
    point: a quality oracle for the zoom."""
    hi = math.log10(2.0 / problem.L1)
    lo = hi - 5.0

    def score(log_alpha):
        return _lone_score(problem, W, x0, x_star, m, target, budget, log_alpha)

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


def _search_instance(kappa, seed, unstable):
    """The quad-kappa instance of ``kappa`` with problem seed ``seed``: its
    problem, graph and x*. ``unstable`` understates L1 tenfold and takes a
    denser graph, so the top decade of tune_alpha's range diverges."""
    config = _kappa_preset(kappa)
    prob, W, _, x_star = _instance(replace(config, problem=replace(config.problem, seed=seed)))
    if not unstable:
        return prob, W, x_star
    return (replace(prob, L1=prob.L1 / 10),
            metropolis_weights(generate_topology(10, 0.5, seed=10 + seed)), x_star)


@pytest.mark.parametrize("kappa,seed,unstable,m,target,budget,seen", [
    # nothing converges within the budget: every run is scored by extrapolation.
    # The gt-tuned instance, short budget: no grid run reaches 1e-3 either, so the
    # grid scores at the target (a grid run reaches 1e-3 within 140 iterations).
    (100.0, 1, False, 1, 1e-8, 120, {"max_iters"}),
    (100.0, 1, False, 1, 1e-6, 120, {"max_iters"}),
    # test_a4's instances, kappa = 1e4 on a shorter budget to keep the test short.
    # At kappa = 10 the top of the range wins the grid, and every later run
    # still going when k reaches its score leaves its stack.
    (10.0, 1, False, 20, 1e-6, 1500, {"converged", "dropped"}),
    (10000.0, 1, False, 20, 1e-6, 600, {"max_iters"}),
    # the top of the range diverges, and a run converged at j drops the runs
    # still going at j
    (100.0, 1, True, 1, 1e-6, 300, {"converged", "diverged", "dropped"}),
    (100.0, 2, True, 1, 1e-6, 150, {"converged", "diverged", "dropped"}),
    (10000.0, 2, True, 1, 0.05, 600, {"converged", "diverged", "dropped"}),
    # a loose target: runs tie on iterations, and the larger alpha wins
    (10.0, 1, False, 1, 1e-2, 300, {"converged", "dropped"}),
    # a grid run converges at 1e-3: the grid's scores only pick the first zoom's centre
    (10.0, 1, False, 20, 1e-8, 300, {"converged", "dropped"}),
], ids=["gt-tuned", "k1e2-target-1e-6", "a4-k1e1", "a4-k1e4", "k1e2-diverging-top",
        "k1e2-short-budget", "k1e4-diverging-top", "k1e1-ties", "k1e1-grid-to-1e-6"])
def test_tune_alpha_matches_sequential_zoom(monkeypatch, kappa, seed, unstable, m, target,
                                            budget, seen):
    prob, W, x_star = _search_instance(kappa, seed, unstable)
    args = (prob, W, np.zeros((10, 30)), x_star, m, target, budget)
    stacks = []

    def recorded(*call):
        columns = gt_columns(*call)
        stacks.append({status for status, _ in columns})
        return columns

    monkeypatch.setattr(gradient_tracking, "gt_columns", recorded)
    assert tune_alpha(*args) == _sequential_zoom(*args)
    assert len(stacks) == 4 and set().union(*stacks) == seen


@pytest.mark.parametrize("kappa,seed,unstable,budget", [
    # one case runs in the default suite: without the last zoom (0.004 decade) it fails
    pytest.param(*case, marks=() if case == (100.0, 1, True, 300) else pytest.mark.slow)
    for case in itertools.product([100.0, 10000.0], [1, 2, 3], [False, True],
                                  [150, 300, 450, 600])])
def test_zoom_scores_within_one_percent_of_golden_section(kappa, seed, unstable, budget):
    # kappa = 1e4 reaches 0.05 within 600 iterations only at the larger step sizes
    prob, W, x_star = _search_instance(kappa, seed, unstable)
    args = (prob, W, np.zeros((10, 30)), x_star, 1, 1e-6 if kappa < 1e3 else 0.05, budget)
    zoom, golden = tune_alpha(*args), _sequential_golden_section(*args, 22)
    assert _lone_score(*args, math.log10(zoom)) <= 1.01 * _lone_score(*args, math.log10(golden))


@pytest.mark.parametrize("kappa,shift,unstable,budget", [
    # one case runs in the default suite: a coarse target that moves its alpha fails it
    pytest.param(*case, marks=() if case == (100.0, 2, True, 1500) else pytest.mark.slow)
    for case in [*[(kappa, shift, False, 3000) for kappa in (10.0, 100.0) for shift in range(6)],
                 (100.0, 1, True, 1500), (100.0, 2, True, 1500), (10000.0, 2, True, 1500),
                 (10000.0, 3, True, 1500)]])
def test_coarse_grid_race_keeps_the_full_race_alpha(monkeypatch, kappa, shift, unstable, budget):
    # the grid races to 1e-3 only to pick where the zooms look; racing it to the
    # target, as a coarse target of 0 does, picks the same alpha. ``shift`` shifts
    # both seeds of the stable instances, and is the problem seed of the unstable ones.
    if unstable:
        prob, W, x_star = _search_instance(kappa, shift, True)
    else:
        config = repetitions(replace(_kappa_preset(kappa), repetitions=6))[shift]
        prob, W, _, x_star = _instance(config)
    args = (prob, W, np.zeros((prob.n, prob.d)), x_star, 1, 1e-10, budget)
    coarse = tune_alpha(*args)
    monkeypatch.setattr(gradient_tracking, "_COARSE_TARGET", 0.0)
    assert tune_alpha(*args) == coarse


@pytest.mark.parametrize("kappa,m,budget", [(100.0, 1, 120), (10000.0, 20, 600)],
                         ids=["gt-tuned", "a4-k1e4"])
def test_grid_short_of_the_coarse_target_races_as_to_the_target(monkeypatch, kappa, m, budget):
    # no grid run reaches 1e-3 within the budget, so none reaches the target: the
    # race to 1e-3 is the race to the target, and the grid keeps its scores to the
    # target. Every stack returns the columns of the search with a coarse target of 0.
    prob, W, x_star = _search_instance(kappa, 1, False)
    args = (prob, W, np.zeros((10, 30)), x_star, m, 1e-8, budget)

    def search():
        stacks = []

        def recorded(*call):
            stacks.append(gt_columns(*call))
            return stacks[-1]

        monkeypatch.setattr(gradient_tracking, "gt_columns", recorded)
        return tune_alpha(*args), stacks

    coarse = search()
    assert {status for stack in coarse[1] for status, _ in stack} == {"max_iters"}
    monkeypatch.setattr(gradient_tracking, "_COARSE_TARGET", 0.0)
    assert search() == coarse


@pytest.mark.parametrize("budget", [4, 5, 6, 7, 8])
def test_budget_too_short_to_score_is_rejected(budget):
    # _score fits 5 points of a run's last half: at a budget of 7 or less every run
    # still going would score as flat, and the search would return the bottom of its range
    prob = make_quadratic(4, 3, 10.0, 1)
    W = metropolis_weights(generate_topology(4, 0.9, seed=2))
    args = (prob, W, np.zeros((4, 3)), centralized_solve(prob))
    if budget == 8:  # the top of the range, 2/L1
        assert tune_alpha(*args, budget=budget) == 10.0 ** math.log10(2.0 / prob.L1)
    else:
        with pytest.raises(ValueError, match=f"budget must be at least 8.*got {budget}"):
            tune_alpha(*args, budget=budget)


def test_search_decides_only_what_a_running_score_bound_decides(setup, monkeypatch):
    # a run still going at iteration k scores above k: a stack races until one
    # of its runs converged or k reaches the best score of an earlier stack,
    # its horizon, and then every run still going leaves it. A grid that
    # converged at a looser aim than the target leaves no score to beat.
    prob, W, x_star, x0 = setup
    budget, target, best, stacks = 2000, 1e-6, math.inf, []

    def probed(problem, W, alphas, m, x0, x_star, max_iters, stop_tol, horizon):
        nonlocal best
        columns = gt_columns(problem, W, alphas, m, x0, x_star, max_iters, stop_tol, horizon)
        stacks.append((horizon, best, columns))
        best = min([best] + [len(errs) - 1 for status, errs in columns if status == "converged"])
        if stop_tol > target:  # scores to the looser aim only pick where the zooms look
            best = math.inf
        return columns

    monkeypatch.setattr(gradient_tracking, "gt_columns", probed)
    tune_alpha(prob, W, x0, x_star, m=1, target=target, budget=budget)
    assert len(stacks) == 4 and best < budget
    for horizon, earlier_best, columns in stacks:
        assert horizon == earlier_best  # inf for the grid: no earlier score
        ends = {status: [len(errs) - 1 for s, errs in columns if s == status]
                for status in ("converged", "dropped", "diverged", "max_iters")}
        end = min(ends["converged"] + [horizon])  # one convergence ends the stack
        assert ends["dropped"] and set(ends["dropped"]) == {end}
        assert set(ends["converged"]) <= {end} and not ends["max_iters"]
        assert all(k < end for k in ends["diverged"])


def test_benchmark_instance_keeps_its_tuned_alpha(monkeypatch, tmp_path):
    # the gt-tuned benchmark run, full budget: a gradient kernel whose bits
    # move the search or the final run shows here. The alpha and the trace's
    # sha256 without wall_time hold for this numpy/OpenBLAS (numpy 2 with
    # OpenBLAS 0.3.31, Haswell kernels), at one BLAS thread or two.
    stacks, columns = [], []  # each stack's iterations, and each column's

    def recorded(*args, **kwargs):
        stack = gt_columns(*args, **kwargs)
        columns.extend(len(errs) - 1 for _, errs in stack)
        stacks.append(max(columns[-len(stack):]))
        return stack

    monkeypatch.setattr(gradient_tracking, "gt_columns", recorded)
    config = replace(QUAD, method="gt", gt_alpha_mode="tuned", label="gt-tuned",
                     algorithm=GTParams(alpha=1.0, m=1))
    trace, path = run_experiment(config, out_dir=str(tmp_path))
    # stacked iterations, all in 4 stacks: 9,783 while every column ran to its stop,
    # 7,309 while the grid raced to 1e-10 too, 6,057 (47,584 column-iterations)
    # while it raced to 1e-6, and 5,323 with the grid's race to 1e-3
    assert (len(stacks), sum(stacks), sum(columns)) == (4, 5323, 39510)
    assert trace.rows[-1].alpha_k == 0.005998101768101717
    assert (trace.status, trace.iterations, trace.rows[-1].bits_cum) == ("converged", 1726,
                                                                          66278400)
    assert trace_sha256(path) == (
        "64bb25cd44358473f3d24b666f977a9d730236999032f653f0102277bb8acf5d")


def _tuned_gt_config(max_iters, stop_tol):
    return replace(_kappa_preset(10.0), method="gt", gt_alpha_mode="tuned", label="gt-k1e1",
                   algorithm=GTParams(alpha=1.0, m=1, max_iters=max_iters, stop_tol=stop_tol))


def test_tuned_run_converges_at_its_alpha_tuning_score(monkeypatch):
    # tuning runs at the final run's stop_tol, so the run stops where its alpha scored
    scored = {}

    def recorded(problem, W, alphas, *args):
        columns = gt_columns(problem, W, alphas, *args)
        scored.update((a, (status, len(errs) - 1)) for a, (status, errs) in zip(alphas, columns))
        return columns

    monkeypatch.setattr(gradient_tracking, "gt_columns", recorded)
    trace, _ = run_experiment(_tuned_gt_config(4000, 1e-9))
    assert trace.status == "converged"
    assert scored[trace.rows[-1].alpha_k] == ("converged", trace.iterations)


def test_tuned_run_shorter_than_a_score_tunes_over_eight_iterations():
    # tune_alpha rejects a budget below 8, and parse_config a tuned max_iters below 8; a
    # shorter tuned config built in code, such as the benchmark's three-iteration warm-up,
    # takes the alpha tuned over 8 iterations
    config = _tuned_gt_config(4, 1e-9)
    trace, _ = run_experiment(config)
    prob, W, x0, x_star = _instance(config)
    assert (trace.status, trace.iterations) == ("max_iters", 4)
    assert trace.rows[-1].alpha_k == tune_alpha(prob, W, x0, x_star, target=1e-9, budget=8)


def test_tuned_run_with_zero_stop_tol_runs():
    # tuning aims at the roundoff floor instead of taking log(0)
    config = _tuned_gt_config(60, 0.0)
    trace, _ = run_experiment(config)
    assert (trace.status, trace.iterations) == ("max_iters", 60)
    assert 0.0 < trace.rows[-1].alpha_k <= 2.0 / build_problem(config.problem).L1


def test_rate_degrades_monotonically_in_kappa():
    rhos = []
    for kappa in (10.0, 100.0, 10000.0):
        prob, W, x0, x_star = _instance(_kappa_preset(kappa))
        alpha = tune_alpha(prob, W, x0, x_star, m=1, target=1e-6, budget=1200)
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
