import math
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import QUAD, preset, quad_params
from decnewton.compress import delta_bound
from decnewton.diagnostics import (
    _DOT_CHUNK,
    RoundMetrics,
    Trace,
    _norm,
    alpha_cap,
    fill_state_metrics,
    fit_rate,
    gamma_cap,
    relative_error,
    squared_distances,
    stage2_m_threshold,
    stage_two_window,
    theoretical_caps,
)
from decnewton.harness import _instance, caps_report
from decnewton.newton import (
    AlgoParams,
    ConstantSchedule,
    NetworkState,
    init_state,
    run,
)
from decnewton.objectives import Problem, QuadraticInstance, batch_gradients, global_value


def scalar_problem():
    q = np.array([2.0, 3.0])
    p = np.array([1.0, -2.0])
    data = QuadraticInstance(Q=q.reshape(2, 1, 1), p=p.reshape(2, 1))
    return Problem(family="quadratic", n=2, d=1, data=data, L1=3.0, L2=0.5, mu=2.5)


def make_trace(rel_errs, alphas=None):
    rows = []
    for k, v in enumerate(rel_errs):
        rows.append(RoundMetrics(iter=k, rel_err=v,
                                 alpha_k=1.0 if alphas is None else alphas[k]))
    return Trace(rows=rows)


def test_metrics_vanish_at_exact_optimum(quad_problem, quad_xstar):
    n, d = quad_problem.n, quad_problem.d
    state = NetworkState(
        x=np.tile(quad_xstar, (n, 1)),
        g=np.zeros((n, d)),
        H=np.tile(quad_problem.data.Q.mean(axis=0), (n, 1, 1)),
        H_tilde=np.tile(quad_problem.data.Q.mean(axis=0), (n, 1, 1)),
        E=np.zeros((n, d, d)),
        local_grads=batch_gradients(quad_problem, np.tile(quad_xstar, (n, 1))),
    )
    row = fill_state_metrics(RoundMetrics(), state, quad_problem, quad_xstar, 0.9, 15, 0.05,
                             rel_err_den=1.0)
    assert row.rel_err <= 1e-25
    assert row.u1 == pytest.approx(0.0, abs=1e-12)
    assert row.delta_k == 0.0
    assert row.cons_x <= 1e-12 and row.track_g == 0.0


def test_u2_vanishes_for_consensual_uncompressed_hessians(quad_problem, quad_xstar):
    n, d = quad_problem.n, quad_problem.d
    Qbar = quad_problem.data.Q.mean(axis=0)
    state = NetworkState(
        x=np.zeros((n, d)), g=np.zeros((n, d)),
        H=np.tile(Qbar, (n, 1, 1)), H_tilde=np.tile(Qbar, (n, 1, 1)),
        E=np.zeros((n, d, d)),
    )
    row = fill_state_metrics(RoundMetrics(), state, quad_problem, quad_xstar, 0.9, 15, 0.05,
                             rel_err_den=1.0)
    scale = np.linalg.norm(Qbar)
    assert row.u2 <= 1e-12 * scale
    assert row.err_E == 0.0 and row.diff_Htilde == 0.0
    assert row.track_H <= 1e-12 * scale  # averaging identical blocks rounds


def test_u1_u3_scalar_hand_evaluation():
    prob = scalar_problem()
    x = np.array([[0.5], [-0.25]])
    g = np.array([[2.0], [-2.75]])
    state = NetworkState(x=x, g=g)
    sigma, m = 0.8, 4
    x_star = np.array([-(0.5 * (1.0 - 2.0)) / (0.5 * (2.0 + 3.0))])  # -pbar/qbar
    row = fill_state_metrics(RoundMetrics(c_k=0.0), state, prob, x_star, sigma, m, 0.05,
                             rel_err_den=1.0)

    xbar = 0.125
    cons2 = (0.5 - xbar) ** 2 + (-0.25 - xbar) ** 2
    gbar = (2.0 - 2.75) / 2
    track2 = (2.0 - gbar) ** 2 + (-2.75 - gbar) ** 2
    qbar, pbar = 2.5, -0.5
    fbar = 0.5 * qbar * xbar**2 + pbar * xbar
    fstar = 0.5 * qbar * x_star[0] ** 2 + pbar * x_star[0]
    u1 = cons2 + (1 - sigma**2) ** 2 / 50 * track2 / prob.L1**2 \
        + 2 * sigma ** (m - 1) * 2 * (fbar - fstar) / prob.L1
    assert row.u1 == pytest.approx(u1, rel=1e-12)
    u3 = math.sqrt(cons2) + sigma ** (-m / 4) * math.sqrt(track2) / prob.L1 \
        + 0.5 * sigma ** (-3 * m / 4) * math.sqrt(2) * abs(xbar - x_star[0])
    assert row.u3 == pytest.approx(u3, rel=1e-12)
    assert row.delta_k == pytest.approx(prob.L2 / (2 * prob.mu) * abs(xbar - x_star[0]))


def test_eps_k_formula(quad_problem, quad_xstar):
    # L2 = 2.0 so the consensus term counts; a quadratic's own L2 is 0
    problem = replace(quad_problem, L2=2.0)
    n, d = problem.n, problem.d
    state = init_state(problem, np.zeros((n, d)))
    ck = 1e-3
    row = fill_state_metrics(RoundMetrics(c_k=ck), state, problem, quad_xstar, 0.9, 15, 0.05,
                             rel_err_den=1.0)
    track_H = np.linalg.norm(state.H - state.H.mean(axis=0))
    expected = (2.0 / math.sqrt(n) * row.cons_x + track_H / math.sqrt(n)
                + ck * problem.mu) / (40 * problem.mu / 41)
    assert row.eps_k == pytest.approx(expected, rel=1e-12)


def _linalg_norm_metrics(row, state, problem, x_star, sigma, m, delta, rel_err_den=None,
                         f_star=None):
    """fill_state_metrics as first written, with np.linalg.norm and .mean."""
    x, g = state.x, state.g
    L1, L2, mu, M1 = problem.L1, problem.L2, problem.mu, 40.0 * problem.mu / 41.0
    n = x.shape[0]
    xbar = x.mean(axis=0)
    gbar = g.mean(axis=0)
    cons_x = float(np.linalg.norm(x - xbar))
    track_g = float(np.linalg.norm(g - gbar))
    row.cons_x = cons_x
    row.track_g = track_g
    err_mean = float(np.linalg.norm(xbar - x_star))
    if rel_err_den is not None:
        stacked_sq = float(np.linalg.norm(x - x_star[None, :]) ** 2)
        row.rel_err = (stacked_sq / n) / rel_err_den if rel_err_den > 0 else 0.0
    if f_star is None:
        f_star = global_value(problem, np.asarray(x_star))
    gap = global_value(problem, xbar) - f_star
    q1 = (cons_x ** 2, track_g ** 2 / L1 ** 2, n * gap / L1)
    row.u1 = q1[0] + (1 - sigma ** 2) ** 2 / 50.0 * q1[1] + 2.0 * sigma ** (m - 1) * q1[2]
    if sigma > 0:
        row.u3 = cons_x + sigma ** (-m / 4.0) * track_g / L1 \
            + 0.5 * sigma ** (-3.0 * m / 4.0) * math.sqrt(n) * err_mean
    else:
        row.u3 = float("nan")
    row.delta_k = L2 / (2.0 * mu) * err_mean
    if getattr(state, "local_grads", None) is not None:
        row.dac_g = float(np.max(np.abs(gbar - state.local_grads.mean(axis=0))))
    H = getattr(state, "H", None)
    if H is not None:
        Hbar = H.mean(axis=0)
        track_H = float(np.linalg.norm(H - Hbar))
        row.track_H = track_H
        row.err_E = float(np.linalg.norm(state.E))
        row.diff_Htilde = float(np.linalg.norm(H - state.H_tilde))
        e_weight = 0.0 if delta >= 1.0 else delta * (1 - sigma) / (8.0 * (1 - delta))
        row.u2 = e_weight * row.err_E + (1 - sigma) / 4.0 * row.diff_Htilde + track_H
        row.eps_k = (L2 / math.sqrt(n) * cons_x + track_H / math.sqrt(n) + row.c_k * mu) / M1
        if getattr(state, "local_hessians", None) is not None:
            row.dac_H = float(np.linalg.norm(Hbar - state.local_hessians.mean(axis=0)))
    return row


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("layout", ["gt", "newton"])
@pytest.mark.parametrize("sigma,seed", [(0.0, 1), (0.63, 2), (0.97, 3)])
def test_fill_state_metrics_matches_linalg_norm_oracle(quad_problem, quad_xstar, tiny,
                                                       layout, sigma, seed):
    # the trace CSV promises byte-stable values, so every field must equal
    # the np.linalg.norm / .mean formulas exactly, not approximately
    problem, x_star = (scalar_problem(), np.array([0.2])) if tiny else (quad_problem, quad_xstar)
    n, d = problem.n, problem.d
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-4, 4, size=6)
    state = NetworkState(x=scale[0] * rng.standard_normal((n, d)),
                         g=scale[1] * rng.standard_normal((n, d)),
                         local_grads=scale[1] * rng.standard_normal((n, d)))
    delta = 1.0
    if layout == "newton":
        delta = 0.05
        state.H, state.E, state.H_tilde, state.local_hessians = (
            s * rng.standard_normal((n, d, d)) for s in scale[2:])
    for den, f_star in ((None, None), (0.0, 0.3), (float(rng.uniform(1, 100)), None)):
        kwargs = dict(rel_err_den=den, f_star=f_star)
        got = fill_state_metrics(RoundMetrics(iter=4, c_k=1e-3), state, problem, x_star,
                                 sigma, seed * 5, delta, **kwargs)
        want = _linalg_norm_metrics(RoundMetrics(iter=4, c_k=1e-3), state, problem, x_star,
                                    sigma, seed * 5, delta, **kwargs)
        for f in fields(RoundMetrics):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert type(a) is type(b) and (a == b or (a != a and b != b)), f.name


def test_norms_past_the_blas_split_add_fixed_chunks_in_order():
    # OpenBLAS splits a dot of more than _DOT_CHUNK entries over its threads,
    # so a longer norm adds up fixed chunks in order; a quadratic (10, 30, 30)
    # stack keeps the one dot np.linalg.norm takes. Each run's squared distance
    # takes the same chunked dot.
    rng = np.random.default_rng(4)
    short = rng.standard_normal((10, 30, 30))
    assert _norm(short) == float(np.linalg.norm(short))
    long = rng.standard_normal((30, 20, 20))  # a logistic Hessian stack: 12,000 entries
    head, tail = long.ravel()[:_DOT_CHUNK], long.ravel()[_DOT_CHUNK:]
    assert _norm(long) == math.sqrt(float(head @ head) + float(tail @ tail))
    block = rng.standard_normal((1000, 30))  # one run of 30,000 entries: three chunks
    chunks = np.split(block.ravel(), 3)
    want = math.sqrt(float(chunks[0] @ chunks[0]) + float(chunks[1] @ chunks[1])
                     + float(chunks[2] @ chunks[2])) ** 2
    assert squared_distances(block, np.zeros(30)) == [want]
    stack = np.stack([2.0 * block, block], axis=1)  # two runs of one (n, C, d) stack
    assert squared_distances(stack, np.zeros(30)) == [4.0 * want, want]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relative_error_of_a_block_is_its_one_column_stack(seed):
    # one formula: an (n, d) block is a one-run stack, and each run of a wider
    # stack is bit for bit the run alone
    rng = np.random.default_rng(seed)
    x0, x, x_star = (10.0 ** rng.uniform(-4, 4) * rng.standard_normal(shape)
                     for shape in ((7, 11), (7, 11), (11,)))
    den = squared_distances(x0, x_star)[0]
    assert den == float(np.linalg.norm(x0 - x_star)) ** 2
    block = relative_error(x, x_star, den)
    assert type(block) is float and [block] == relative_error(x[:, None], x_star, den)
    stack = np.stack([x0, x, 2.0 * x], axis=1)
    assert relative_error(stack, x_star, den)[1] == block
    assert relative_error(x, x_star, 0.0) == 0.0


def test_fit_rate_exact_geometric():
    trace = make_trace([0.25**k for k in range(30)])
    fit = fit_rate(trace, (0, 29))
    assert fit.rho_hat == pytest.approx(0.5, abs=1e-6)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_unsquared_column():
    rows = [RoundMetrics(iter=k, rel_err=1.0, cons_x=0.7**k) for k in range(20)]
    fit = fit_rate(Trace(rows=rows), (0, 19), field="cons_x")
    assert fit.rho_hat == pytest.approx(0.7, abs=1e-6)


def test_fit_rate_rejects_degenerate_windows():
    with pytest.raises(ValueError):
        fit_rate(make_trace([0.5, 0.25, 0.125]), (0, 2))  # too short
    with pytest.raises(ValueError):
        fit_rate(make_trace([1.0] * 10), (0, 9))  # constant
    with pytest.raises(ValueError):
        fit_rate(make_trace([0.5, 0.4, 0.0, 0.2, 0.1, 0.05]), (0, 5))  # nonpositive


def test_pure_consensus_rate_matches_sigma_m(quad_problem, quad_graph, quad_xstar):
    W = quad_graph
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((quad_problem.n, quad_problem.d))
    m = 2
    params = quad_params(alpha=ConstantSchedule(0.0), m=m, max_iters=60, stop_tol=0.0)
    trace = run(quad_problem, W, params, x0, quad_xstar)
    fit = fit_rate(trace, (5, 55), field="cons_x")
    assert fit.rho_hat == pytest.approx(W.sigma**m, rel=0.05)


def test_stage_two_window():
    alphas = [0.0] * 5 + [1.0] * 20
    rels = [1e-2 * 0.5**k for k in range(25)]
    trace = make_trace(rels, alphas)
    lo, hi = stage_two_window(trace, floor=1e-30)
    assert lo == 7  # skips the first two saturated rows
    assert hi == 24
    with pytest.raises(ValueError):
        stage_two_window(make_trace([1.0] * 5, [0.5] * 5))


def test_gamma_cap_value():
    # delta = 0.05, sigma = 0.9 -> 0.05^2 * 0.1 / 50 = 5e-6
    assert gamma_cap(0.05, 0.9) == pytest.approx(5e-6)


def test_stage2_m_threshold_values():
    assert stage2_m_threshold(10.0, 0.5) == pytest.approx(4 * math.log(40) / math.log(2), rel=1e-12)
    assert stage2_m_threshold(10.0, 0.5) == pytest.approx(21.288, abs=0.01)
    assert stage2_m_threshold(25.0, 0.0) == 0.0


def test_theoretical_caps_report(quad_problem, quad_graph, quad_xstar):
    W = quad_graph
    state = init_state(quad_problem, np.zeros((quad_problem.n, quad_problem.d)))
    row = fill_state_metrics(RoundMetrics(), state, quad_problem, quad_xstar, W.sigma, 15, 0.05,
                             rel_err_den=1.0)
    report = theoretical_caps(quad_problem, W.sigma, 15, 0.05, row.u1, row.u2)
    assert report.gamma_cap == pytest.approx(gamma_cap(0.05, W.sigma))
    assert report.M_lower > 0
    assert report.alpha_cap_stage1 > 0
    assert report.cg_cap_stage2 == pytest.approx(W.sigma**7.5 / (41.0 * quad_problem.L1 / quad_problem.mu))
    text = report.render()
    assert "alpha <=" in text and "gamma <=" in text and "K  >=" in text


def test_metrics_at_a_consensus_depth_past_the_float_range(quad_problem, quad_graph, quad_xstar):
    # sigma = 0.9555 here: at m = 25000, sigma^(-3m/4) overflows a float and
    # sigma^(m-1) underflows to 0, so u3 is inf and u1 drops its gap term
    W = quad_graph
    state = init_state(quad_problem, np.zeros((quad_problem.n, quad_problem.d)))
    deep = fill_state_metrics(RoundMetrics(), state, quad_problem, quad_xstar, W.sigma, 25000,
                              0.05, rel_err_den=1.0)
    shallow = fill_state_metrics(RoundMetrics(), state, quad_problem, quad_xstar, W.sigma, 15,
                                 0.05, rel_err_den=1.0)
    assert deep.u3 == math.inf
    assert deep.u1 == shallow.cons_x ** 2 + (1 - W.sigma ** 2) ** 2 / 50.0 \
        * (shallow.track_g ** 2 / quad_problem.L1 ** 2)
    for name in ("rel_err", "cons_x", "track_g", "u2", "eps_k", "delta_k"):
        assert getattr(deep, name) == getattr(shallow, name), name


@pytest.mark.parametrize("m", [17000, 25000])
def test_caps_at_a_consensus_depth_past_the_float_range(quad_problem, quad_graph, quad_xstar, m):
    # sigma^(m-1) underflows to 0 by m = 17000, and sigma^(-(m-1)) overflows
    # by 25000: alpha's first cap takes its limit, inf, and the second is the cap
    W = quad_graph
    assert W.sigma ** (m - 1) == 0.0
    delta = delta_bound(QUAD.algorithm.compressor, quad_problem.d)
    state = init_state(quad_problem, np.zeros((quad_problem.n, quad_problem.d)))
    row = fill_state_metrics(RoundMetrics(), state, quad_problem, quad_xstar, W.sigma, m, delta)
    report = theoretical_caps(quad_problem, W.sigma, m, delta, row.u1, row.u2)
    M1, M2, L1 = report.M1_stage1, report.M2_stage1, quad_problem.L1
    assert report.alpha_cap_stage1 == M1 ** 2 / (200.0 * L1 * M2)
    text = caps_report(replace(QUAD, algorithm=quad_params(m=m)))
    assert text == report.render()


def test_stage_one_M1_is_mu_on_a_logistic_preset():
    # M_lower is about 4e11 here, so mu + M_lower - root_term - u2~_0 cancels to 0.000977
    config = preset("logit-topk-m15")
    problem, W, x0, x_star = _instance(config)
    m, delta = config.algorithm.m, delta_bound(config.algorithm.compressor, problem.d)
    row = fill_state_metrics(RoundMetrics(), init_state(problem, x0), problem, x_star, W.sigma,
                             m, delta)
    report = theoretical_caps(problem, W.sigma, m, delta, row.u1, row.u2)
    assert report.M_lower > 1e11
    assert report.M1_stage1 == problem.mu
    assert report.alpha_cap_stage1 == alpha_cap(problem.mu, report.M2_stage1, problem.L1,
                                                 W.sigma, m)


def test_identity_compressor_tracking_decay():
    # a well-connected graph and a healthy consensus step drive the Hessian
    # tracking error below 1e-6 while the error store stays exactly zero
    from decnewton.graph import generate_topology, metropolis_weights
    from decnewton.objectives import centralized_solve, make_quadratic
    from decnewton.compress import CompressorSpec
    from decnewton.newton import GeometricRamp

    prob = make_quadratic(8, 12, 100.0, seed=4)
    W = metropolis_weights(generate_topology(8, 0.8, seed=6))
    x_star = centralized_solve(prob, tol=1e-12)
    params = AlgoParams(
        compressor=CompressorSpec("identity"),
        alpha=GeometricRamp(0.05, 1.1, 1.0),
        gamma=0.5, m=4, M=0.0,
        cg_tol=ConstantSchedule(1e-10),
        max_iters=400, stop_tol=0.0,
    )
    trace = run(prob, W, params, np.zeros((8, 12)), x_star)
    assert trace.rows[-1].rel_err <= 1e-12
    assert trace.rows[-1].track_H <= 1e-6
    assert all(r.err_E == 0.0 for r in trace.rows)


def test_u1_monotone_under_stage1_caps(quad_problem, quad_graph, quad_xstar):
    # constant small step below the cap, M above its bound: u1 never grows
    # by more than one percent per iteration
    W = quad_graph
    state = init_state(quad_problem, np.zeros((quad_problem.n, quad_problem.d)))
    den = float(np.linalg.norm(np.zeros((quad_problem.n, quad_problem.d)) - quad_xstar) ** 2)
    row0 = fill_state_metrics(RoundMetrics(), state, quad_problem, quad_xstar, W.sigma, 15, 0.05,
                              rel_err_den=den)
    caps = theoretical_caps(quad_problem, W.sigma, 15, 0.05, row0.u1, row0.u2)
    params = quad_params(
        alpha=ConstantSchedule(caps.alpha_cap_stage1),
        gamma=min(caps.gamma_cap, 1.0),
        M=caps.M_lower * 1.5,
        cg_tol=ConstantSchedule(min(caps.cg_cap_stage1, 1.0)),
        max_iters=50,
        stop_tol=0.0,
    )
    trace = run(quad_problem, W, params, np.zeros((quad_problem.n, quad_problem.d)),
                quad_xstar)
    u1 = [r.u1 for r in trace.rows]
    assert all(b <= 1.01 * a for a, b in zip(u1, u1[1:]))


def test_rows_reject_unknown_fields():
    # a misspelt field would otherwise ride along and never reach the CSV
    row = RoundMetrics(iter=1)
    with pytest.raises(AttributeError):
        row.rel_error = 0.5
