from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import hessians_non_finite_on_call, quad_params
from decnewton.compress import CompressorSpec, compress, payload_bits
from decnewton.diagnostics import relative_error, squared_distances
from decnewton.gradient_tracking import GTParams, gt_run
from decnewton.graph import generate_topology, metropolis_weights
from decnewton.harness import preset_configs
from decnewton.newton import (
    AlgoParams,
    ConstantSchedule,
    GeometricRamp,
    NetworkState,
    VARIANTS,
    TwoStageSchedule,
    _solve_directions,
    exchange,
    init_state,
    max_state_deviation,
    run,
    run_lockstep,
    step,
)
from decnewton.objectives import (
    Problem,
    QuadraticInstance,
    batch_gradients,
    batch_hessians,
    make_logistic,
    make_quadratic,
)

def two_node_mixing():
    top = generate_topology(2, 1.0, seed=0)
    return metropolis_weights(top)


# ---------------------------------------------------------------------------
# schedules and params


def test_geometric_ramp_values():
    sched = GeometricRamp(0.02, 1.1, 1.0)
    assert sched.at(0) == pytest.approx(0.02)
    assert sched.at(10) == pytest.approx(0.02 * 1.1**10)
    assert sched.at(60) == 1.0


def test_two_stage_schedule():
    sched = TwoStageSchedule(0.01, 5, 1.0)
    assert [sched.at(k) for k in (0, 4, 5, 9)] == [0.01, 0.01, 1.0, 1.0]
    # the lower limits are valid: a zero value, and stage two from the start
    assert TwoStageSchedule(0.0, 0, 0.5).at(0) == 0.5


def test_params_validation():
    spec = CompressorSpec("identity")
    with pytest.raises(ValueError):
        AlgoParams(compressor=spec, alpha=ConstantSchedule(0.1), gamma=1.5, m=1)
    with pytest.raises(ValueError):
        AlgoParams(compressor=spec, alpha=ConstantSchedule(0.1), gamma=0.1, m=0)
    with pytest.raises(ValueError):
        AlgoParams(compressor=spec, alpha=ConstantSchedule(0.1), gamma=0.1, m=1, M=-1)
    with pytest.raises(ValueError, match="m must"):  # render_config would write m = True
        AlgoParams(compressor=spec, alpha=ConstantSchedule(0.1), gamma=0.1, m=True)
    growing = AlgoParams(compressor=spec, alpha=ConstantSchedule(0.1), gamma=0.1, m="k")
    assert exchange(growing.m, 0, 3) == (1, 2 * 3 * 64)
    assert exchange(growing.m, 7, 3) == (7, 7 * 2 * 3 * 64)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field,value", [
    ("M", NAN), ("M", INF),
    ("stop_tol", -1e-3), ("stop_tol", NAN), ("stop_tol", INF),
    ("max_iters", 0), ("max_iters", -5), ("max_iters", 2.5), ("max_iters", True),
])
def test_params_reject_bad_run_values(field, value):
    spec = CompressorSpec("identity")
    with pytest.raises(ValueError, match=field):
        AlgoParams(compressor=spec, alpha=ConstantSchedule(0.1), gamma=0.1, **{field: value})


@pytest.mark.parametrize("field,value", [
    ("alpha", 0.5), ("cg_tol", 1e-10), ("alpha", None), ("cg_tol", "const(1e-10)"),
])
def test_params_reject_an_alpha_or_cg_tol_that_is_no_schedule(field, value):
    # a quad-kappa config with alpha = 0.5, the form GTParams takes, or cg_tol = 1e-10 was
    # accepted; run_experiment built the instance and solved the oracle, and only then did
    # step raise AttributeError: 'float' object has no attribute 'at'
    algorithm = preset_configs("quad-kappa")[0].algorithm
    with pytest.raises(ValueError, match=rf"\[algorithm\] {field} must be a schedule"):
        replace(algorithm, **{field: value})


@pytest.mark.parametrize("schedule,args", [
    (ConstantSchedule, (NAN,)),
    (GeometricRamp, (NAN, 1.1, 1.0)), (GeometricRamp, (0.1, NAN, 1.0)),
    (GeometricRamp, (0.1, 1.1, NAN)),
    (TwoStageSchedule, (NAN, 5, 1.0)), (TwoStageSchedule, (0.1, 5, NAN)),
    # an infinite cap never saturates and base * growth**k overflows near k = 7450
    (GeometricRamp, (INF, 1.1, 1.0)), (GeometricRamp, (0.1, INF, 1.0)),
    (GeometricRamp, (0.02, 1.1, INF)),
    # a negative or infinite value, and a switch that is no iteration count
    (ConstantSchedule, (-1.0,)), (ConstantSchedule, (INF,)),
    (TwoStageSchedule, (-0.1, 5, 1.0)), (TwoStageSchedule, (0.1, 5, -1.0)),
    (TwoStageSchedule, (INF, 3, 1.0)), (TwoStageSchedule, (0.1, 3, INF)),
    (TwoStageSchedule, (1e-10, -5, 1e-3)), (TwoStageSchedule, (0.1, 2.5)),
    (TwoStageSchedule, (0.1, True)), (TwoStageSchedule, (0.1, None)),
])
def test_schedules_reject_nan(schedule, args):
    with pytest.raises(ValueError):
        schedule(*args)


# ---------------------------------------------------------------------------
# initialization


def test_init_state_quadratic_at_zero(quad_problem):
    x0 = np.zeros((quad_problem.n, quad_problem.d))
    state = init_state(quad_problem, x0)
    assert np.array_equal(state.g, quad_problem.data.p)
    assert np.array_equal(state.H, quad_problem.data.Q)
    assert not state.E.any() and not state.H_tilde.any() and not state.H_tilde_w.any()
    assert not state.d_dir.any()


def test_init_state_average_identities():
    prob = make_logistic(4, 5, 6, rho=0.1, seed=1)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((prob.n, prob.d))
    state = init_state(prob, x0)
    assert np.allclose(state.g.mean(axis=0), batch_gradients(prob, x0).mean(axis=0), atol=1e-15)
    assert np.allclose(state.H.mean(axis=0), batch_hessians(prob, x0).mean(axis=0), atol=1e-15)
    with pytest.raises(ValueError):
        init_state(prob, np.zeros((prob.n, prob.d + 1)))


# ---------------------------------------------------------------------------
# single-step semantics


def test_identity_compressor_gamma_zero_is_local_accumulation():
    prob = make_logistic(3, 4, 5, rho=0.2, seed=2)
    W = metropolis_weights(generate_topology(3, 1.0, seed=0))
    params = AlgoParams(
        compressor=CompressorSpec("identity"),
        alpha=ConstantSchedule(0.05),
        gamma=0.0,
        m=2,
        M=0.5,
        cg_tol=ConstantSchedule(0.0),
        variant="reference",
    )
    rng = np.random.default_rng(3)
    state = init_state(prob, rng.standard_normal((3, 4)))
    for k in range(4):
        prev_H = state.H.copy()
        prev_x = state.x.copy()
        state, _ = step(state, prob, W, params, k)
        expected = prev_H + batch_hessians(prob, state.x) - batch_hessians(prob, prev_x)
        assert np.allclose(state.H, expected, atol=1e-12)


def free_running_deviations(problem, W, params, iters):
    """``max_state_deviation`` of the two variants after each of ``iters``
    steps, each variant stepping from its own state."""
    ref = eff = init_state(problem, np.zeros((problem.n, problem.d)))
    deviations = []
    for k in range(iters):
        ref, _ = step(ref, problem, W, replace(params, variant="reference"), k)
        eff, _ = step(eff, problem, W, replace(params, variant="efficient"), k)
        deviations.append(max_state_deviation(ref, eff))
    return deviations


def test_gamma_zero_variants_bit_identical(quad_problem, quad_graph):
    deviations = free_running_deviations(quad_problem, quad_graph, quad_params(gamma=0.0), 30)
    assert max(deviations) == 0.0


@pytest.mark.parametrize("name", [field.name for field in fields(NetworkState)])
def test_max_state_deviation_reads_every_field(quad_problem, name):
    a = init_state(quad_problem, np.ones((quad_problem.n, quad_problem.d)))
    changed = getattr(a, name).copy()
    value = float(changed.flat[7])
    changed.flat[7] = value - 0.375
    assert max_state_deviation(a, replace(a, **{name: changed})) == value - (value - 0.375)
    assert max_state_deviation(a, replace(a, **{name: None})) == 0.0  # a field one state lacks


def test_consensus_start_matches_centralized_damped_newton():
    # identical curvature on every node: the mean iterate must follow the
    # centralized damped Newton recursion exactly
    n, d = 6, 5
    prob_any = make_quadratic(n, d, 10.0, seed=4, spread=0.0)
    Q = prob_any.data.Q[0]
    assert np.allclose(prob_any.data.Q, Q[None, :, :], atol=1e-12)
    W = metropolis_weights(generate_topology(n, 0.5, seed=1))
    alpha, M = 0.5, 1.0
    params = AlgoParams(
        compressor=CompressorSpec("identity"),
        alpha=ConstantSchedule(alpha),
        gamma=0.2,
        m=3,
        M=M,
        cg_tol=ConstantSchedule(0.0),
        variant="reference",
    )
    rng = np.random.default_rng(5)
    x_common = rng.standard_normal(d)
    state = init_state(prob_any, np.tile(x_common, (n, 1)))
    Qbar = prob_any.data.Q.mean(axis=0)
    pbar = prob_any.data.p.mean(axis=0)
    x_c = x_common.copy()
    reg = np.linalg.inv(Q + M * np.eye(d))
    for k in range(10):
        state, _ = step(state, prob_any, W, params, k)
        if k > 0:  # first update is pure consensus (d0 = 0)
            x_c = x_c - alpha * reg @ (Qbar @ x_c + pbar)
        assert np.linalg.norm(state.x.mean(axis=0) - x_c) <= 1e-10


def test_two_node_scalar_transcription():
    # d = 1 wiring check against plain-float arithmetic of the update rules
    q = np.array([2.0, 3.0])
    p = np.array([1.0, -2.0])
    data = QuadraticInstance(Q=q.reshape(2, 1, 1), p=p.reshape(2, 1))
    prob = Problem(family="quadratic", n=2, d=1, data=data, L1=3.0, L2=0.0, mu=2.5)
    W = two_node_mixing()
    alpha, gamma, M, m = 0.3, 0.2, 0.5, 2
    params = AlgoParams(
        compressor=CompressorSpec("top_k", K=1),
        alpha=ConstantSchedule(alpha),
        gamma=gamma,
        m=m,
        M=M,
        cg_tol=ConstantSchedule(0.0),
        variant="reference",
    )
    x0 = np.array([[0.5], [-0.25]])
    state = init_state(prob, x0)
    state, _ = step(state, prob, W, params, 0)

    # scalar oracle: W^m = [[.5,.5],[.5,.5]] for the 2-node gossip matrix
    w = 0.5
    x_old = [0.5, -0.25]
    g_old = [q[0] * x_old[0] + p[0], q[1] * x_old[1] + p[1]]
    x_new = [w * (x_old[0]) + w * (x_old[1])] * 2  # d0 = 0
    incr = [q[i] * x_new[i] + p[i] - g_old[i] for i in range(2)]
    g_new = [
        w * (g_old[0] + incr[0]) + w * (g_old[1] + incr[1]),
    ] * 2
    # compression on 1x1 blocks keeps everything: E stays 0, Htilde1 = H0
    h_hat = [q[0], q[1]]
    H_new = [
        q[0] - gamma * (w * (h_hat[0] - h_hat[0]) + w * (h_hat[0] - h_hat[1])),
        q[1] - gamma * (w * (h_hat[1] - h_hat[0]) + w * (h_hat[1] - h_hat[1])),
    ]
    d_new = [g_new[i] / (H_new[i] + M) for i in range(2)]

    assert np.allclose(state.x.ravel(), x_new, atol=1e-12)
    assert np.allclose(state.g.ravel(), g_new, atol=1e-12)
    assert np.allclose(state.H.ravel(), H_new, atol=1e-12)
    assert np.allclose(state.d_dir.ravel(), d_new, atol=1e-10)
    assert not state.E.any()
    assert np.allclose(state.H_tilde.ravel(), q, atol=1e-15)


@pytest.mark.parametrize("variant", VARIANTS)
def test_straight_line_numpy_oracle_with_compression(variant):
    # logistic 2-node d=2 with genuine top-k compression, three iterations
    # checked against a direct transcription of the update rules
    prob = make_logistic(2, 2, 3, rho=0.5, seed=6)
    W = two_node_mixing()
    Wm = np.linalg.matrix_power(W.W, 2)
    alpha, gamma, M, m = 0.2, 0.3, 0.8, 2
    spec = CompressorSpec("top_k", K=2)
    params = AlgoParams(
        compressor=spec, alpha=ConstantSchedule(alpha), gamma=gamma, m=m, M=M,
        cg_tol=ConstantSchedule(0.0), variant=variant,
    )
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((2, 2))
    state = init_state(prob, x0)

    x = x0.copy()
    g = batch_gradients(prob, x)
    H = batch_hessians(prob, x)
    Ht = np.zeros((2, 2, 2))
    E = np.zeros((2, 2, 2))
    d_dir = np.zeros((2, 2))
    for k in range(3):
        state, _ = step(state, prob, W, params, k)

        x_new = Wm @ (x - alpha * d_dir)
        g_new = Wm @ (g + batch_gradients(prob, x_new) - batch_gradients(prob, x))
        Q1 = np.stack([compress(spec, H[i] - Ht[i]) for i in range(2)])
        fed = E + H - Ht
        Q2 = np.stack([compress(spec, fed[i]) for i in range(2)])
        E = fed - Q2
        H_hat = Ht + Q2
        Ht = Ht + Q1
        WH_hat = np.tensordot(W.W, H_hat, axes=(1, 0))
        H = H - gamma * (H_hat - WH_hat) + batch_hessians(prob, x_new) - batch_hessians(prob, x)
        x = x_new
        g = g_new
        d_dir = np.stack([
            np.linalg.solve(0.5 * (H[i] + H[i].T) + M * np.eye(2), g[i]) for i in range(2)
        ])

        assert np.allclose(state.x, x, atol=1e-10)
        assert np.allclose(state.g, g, atol=1e-10)
        assert np.allclose(state.H, H, atol=1e-10)
        assert np.allclose(state.H_tilde, Ht, atol=1e-10)
        assert np.allclose(state.E, E, atol=1e-10)
        assert np.allclose(state.d_dir, d_dir, atol=1e-9)


def test_identity_compressor_stores(quad_problem, quad_graph):
    W = quad_graph
    params = quad_params(compressor=CompressorSpec("identity"))
    state = init_state(quad_problem, np.zeros((quad_problem.n, quad_problem.d)))
    prev_H = state.H.copy()
    for k in range(20):
        state, _ = step(state, quad_problem, W, params, k)
        assert not state.E.any()  # exactly zero under an exact compressor
        scale = 1 + np.abs(prev_H).max()
        assert np.max(np.abs(state.H_tilde - prev_H)) <= 1e-12 * scale
        prev_H = state.H.copy()


@pytest.mark.parametrize("variant", VARIANTS)
def test_average_identities_and_mean_dynamics(quad_problem, quad_graph, variant):
    W = quad_graph
    params = quad_params(variant=variant)
    state = init_state(quad_problem, np.zeros((quad_problem.n, quad_problem.d)))
    for k in range(25):
        x_bar = state.x.mean(axis=0)
        d_bar = state.d_dir.mean(axis=0)
        alpha = params.alpha.at(k)
        state, _ = step(state, quad_problem, W, params, k)
        # mean dynamics: the average moves exactly along the average direction
        drift = np.linalg.norm(state.x.mean(axis=0) - (x_bar - alpha * d_bar))
        assert drift <= 1e-12 * (1 + np.linalg.norm(x_bar))
        # dynamic average consensus conservation
        g_gap = np.abs(state.g.mean(axis=0) - state.local_grads.mean(axis=0)).max()
        assert g_gap <= 1e-11
        H_bar = state.H.mean(axis=0)
        H_gap = np.linalg.norm(H_bar - state.local_hessians.mean(axis=0))
        assert H_gap <= 1e-9 * (1 + np.linalg.norm(H_bar))


def test_efficient_accumulator_tracks_mixed_store(quad_problem, quad_graph):
    W = quad_graph
    params = quad_params()
    state = init_state(quad_problem, np.zeros((quad_problem.n, quad_problem.d)))
    for k in range(20):
        state, _ = step(state, quad_problem, W, params, k)
        direct = np.tensordot(W.W, state.H_tilde, axes=(1, 0))
        scale = 1 + np.linalg.norm(state.H_tilde)
        assert np.linalg.norm(state.H_tilde_w - direct) <= 1e-9 * scale


def test_lockstep_equivalence_per_step(quad_problem, quad_graph):
    W = quad_graph
    x0 = np.zeros((quad_problem.n, quad_problem.d))
    deviations = run_lockstep(quad_problem, W, quad_params(), x0, iters=60)
    assert max(deviations) <= 1e-9


def test_lockstep_free_running_identity_compressor(quad_problem, quad_graph):
    # without truncation discontinuities the trajectories track each other
    params = quad_params(compressor=CompressorSpec("identity"))
    assert max(free_running_deviations(quad_problem, quad_graph, params, 100)) <= 1e-9


def test_bits_accounting(quad_problem, quad_graph):
    W = quad_graph
    n, d, m = quad_problem.n, quad_problem.d, 15
    spec = CompressorSpec("rank_k", K=3)
    params = quad_params(m=m)
    state = init_state(quad_problem, np.zeros((n, d)))
    _, row_eff = step(state, quad_problem, W, params, 0)
    assert row_eff.bits == n * (2 * m * d * 64 + 2 * payload_bits(spec, d))
    _, row_ref = step(state, quad_problem, W, quad_params(m=m, variant="reference"), 0)
    assert row_ref.bits == n * (2 * m * d * 64 + d * d * 64)


def test_zero_step_size_is_pure_consensus(quad_problem, quad_graph, quad_xstar):
    W = quad_graph
    rng = np.random.default_rng(8)
    x0 = rng.standard_normal((quad_problem.n, quad_problem.d))
    params = quad_params(alpha=ConstantSchedule(0.0), max_iters=80, stop_tol=0.0)
    trace = run(quad_problem, W, params, x0, quad_xstar)
    # iterates converge to the initial average and the error plateaus there
    plateau = trace.rows[-1].rel_err
    expected = (np.linalg.norm(np.tile(x0.mean(axis=0), (quad_problem.n, 1))
                               - quad_xstar) ** 2 / quad_problem.n) \
        / np.linalg.norm(x0 - quad_xstar) ** 2
    assert plateau == pytest.approx(expected, rel=1e-6)
    assert trace.rows[-1].cons_x <= 1e-12


def test_run_determinism(quad_problem, quad_graph, quad_xstar):
    W = quad_graph
    x0 = np.zeros((quad_problem.n, quad_problem.d))
    t1 = run(quad_problem, W, quad_params(), x0, quad_xstar)
    t2 = run(quad_problem, W, quad_params(), x0, quad_xstar)
    assert t1.status == t2.status
    assert len(t1.rows) == len(t2.rows)
    for a, b in zip(t1.rows, t2.rows):
        assert a.rel_err == b.rel_err
        assert a.u1 == b.u1
        assert a.bits_cum == b.bits_cum


def test_run_rejects_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        quad_params(variant="fast")


def test_divergence_detector(quad_problem, quad_graph, quad_xstar):
    W = quad_graph
    x0 = np.zeros((quad_problem.n, quad_problem.d))
    params = quad_params(alpha=ConstantSchedule(50.0), max_iters=200, stop_tol=1e-12)
    trace = run(quad_problem, W, params, x0, quad_xstar)
    assert trace.status == "diverged"
    assert trace.note


@pytest.mark.parametrize("method", ["newton", "gt"])
def test_non_finite_tracker_diverges_where_it_appears(quad_problem, quad_graph, quad_xstar,
                                                      method):
    # a NaN in one node's linear term is already in the gradient tracker's
    # start g0 = grad f(x0), so the run ends before its first step
    W = quad_graph
    p = quad_problem.data.p.copy()
    p[3, 0] = np.nan
    prob = replace(quad_problem, data=replace(quad_problem.data, p=p))
    x0 = np.zeros((prob.n, prob.d))
    if method == "newton":
        trace = run(prob, W, quad_params(max_iters=20), x0, quad_xstar)
    else:
        trace = gt_run(prob, W, GTParams(alpha=0.01, max_iters=20), x0, quad_xstar)
    assert trace.status == "diverged" and trace.iterations == 0 and len(trace.rows) == 1
    assert "non-finite" in trace.note and trace.note.endswith("iteration 0")


def test_non_finite_hessian_diverges_at_iteration_0(quad_problem, quad_graph, quad_xstar,
                                                    monkeypatch):
    # a Hessian tracker that starts infinite ends the run before its first
    # step, instead of reaching the compressor through H - Htilde
    hessians_non_finite_on_call(monkeypatch, 1, np.inf)
    x0 = np.zeros((quad_problem.n, quad_problem.d))
    with np.errstate(invalid="ignore"):
        trace = run(quad_problem, quad_graph, quad_params(max_iters=5), x0, quad_xstar)
    assert trace.status == "diverged" and trace.iterations == 0
    assert trace.note == "non-finite iterate or tracker at iteration 0"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["newton", "gt"])
def test_non_finite_start_diverges_without_warnings(quad_problem, quad_graph, quad_xstar,
                                                     method):
    # row 0's metrics of an infinite start are NaN, and the note says why
    x0 = np.zeros((quad_problem.n, quad_problem.d))
    x0[2, 1] = np.inf
    if method == "newton":
        trace = run(quad_problem, quad_graph, quad_params(max_iters=5), x0, quad_xstar)
    else:
        trace = gt_run(quad_problem, quad_graph, GTParams(alpha=0.01, max_iters=5), x0,
                       quad_xstar)
    assert trace.status == "diverged" and trace.iterations == 0
    assert trace.note == "non-finite iterate or tracker at iteration 0"


def test_non_finite_hessian_diverges_mid_run(quad_problem, quad_graph, quad_xstar, monkeypatch):
    # the third evaluation is step 1's: the new Hessian tracker is NaN while
    # the node falls back to g_i / L1, so x and g stay finite
    hessians_non_finite_on_call(monkeypatch, 3, np.nan)
    x0 = np.zeros((quad_problem.n, quad_problem.d))
    trace = run(quad_problem, quad_graph, quad_params(max_iters=20), x0, quad_xstar)
    assert trace.status == "diverged" and trace.iterations == 2
    assert trace.rows[2].fallback_count == 1 and np.isfinite(trace.rows[2].rel_err)
    assert trace.note == "non-finite iterate or tracker at iteration 2"


def test_cg_fallback_direction(quad_problem, quad_graph):
    W = quad_graph
    params = quad_params(cg_tol=ConstantSchedule(0.0))
    state = init_state(quad_problem, np.zeros((quad_problem.n, quad_problem.d)))
    state.H[0] = -np.eye(quad_problem.d)  # force a breakdown on node 0
    new_state, row = step(state, quad_problem, W, params, 0)
    assert row.fallback_count == 1
    assert np.allclose(new_state.d_dir[0], new_state.g[0] / quad_problem.L1, atol=1e-15)


def test_solve_directions_stack_and_fallbacks():
    rng = np.random.default_rng(8)
    n, d, M, L1 = 7, 6, 0.3, 4.0
    G = rng.standard_normal((n, d, d))
    H = G @ G.transpose(0, 2, 1) + 0.1 * np.eye(d)
    H[1] += 0.01 * rng.standard_normal((d, d))  # asymmetric: solved on sym(H_1)
    H[2] = -np.eye(d)                          # not positive definite
    H[4, 0, 3] = np.nan                        # non-finite
    g = rng.standard_normal((n, d))
    g[6] = 0.0
    directions, fallbacks, max_rel, _ = _solve_directions(H, g, M, L1)
    assert fallbacks == 2
    for i in (2, 4):
        assert np.array_equal(directions[i], g[i] / L1)
    for i in (0, 1, 3, 5):
        direct = np.linalg.solve(0.5 * (H[i] + H[i].T) + M * np.eye(d), g[i])
        assert np.linalg.norm(directions[i] - direct) <= 1e-12 * np.linalg.norm(direct)
    assert not directions[6].any()
    assert 0.0 < max_rel <= 1e-12


def test_solve_directions_reports_asymmetry_and_all_fallbacks():
    H = np.stack([np.array([[1.0, 2.0], [0.0, 1.0]]), -np.eye(2)])
    g = np.ones((2, 2))
    directions, fallbacks, max_rel, asym = _solve_directions(H, g, 0.0, 2.0)
    assert asym == pytest.approx(np.sqrt(8.0))
    assert fallbacks == 2 and max_rel == 0.0
    assert np.array_equal(directions, g / 2.0)


def test_monotone_tail_after_ramp_saturation(quad_problem, quad_graph, quad_xstar):
    W = quad_graph
    x0 = np.zeros((quad_problem.n, quad_problem.d))
    trace = run(quad_problem, W, quad_params(stop_tol=1e-20, max_iters=300), x0, quad_xstar)
    assert trace.status == "converged"
    tail = [r.rel_err for r in trace.rows if r.alpha_k == 1.0]
    tail = tail[int(0.2 * len(tail)):]
    violations = sum(1 for a, b in zip(tail, tail[1:]) if b > a)
    assert violations <= 2


def test_growing_consensus_mode(quad_problem, quad_graph, quad_xstar):
    W = quad_graph
    x0 = np.zeros((quad_problem.n, quad_problem.d))
    trace = run(quad_problem, W, quad_params(m="k", max_iters=300), x0, quad_xstar)
    assert trace.status == "converged"


@pytest.mark.parametrize("method", ["newton", "gt"])
def test_on_step_sees_the_start_and_each_iteration(quad_problem, quad_graph, quad_xstar, method):
    # on_step(k, state) gets the state of trace row k, the start (k = 0) included,
    # in a run of either method
    W = quad_graph
    x0 = np.zeros((quad_problem.n, quad_problem.d))
    seen = []
    run_method, params = {"newton": (run, quad_params(max_iters=6, stop_tol=0.0)),
                          "gt": (gt_run, GTParams(alpha=0.01, m=15, max_iters=6, stop_tol=0.0))}[method]
    trace = run_method(quad_problem, W, params, x0, quad_xstar,
                       on_step=lambda k, state: seen.append((k, state.x.copy())))
    assert [k for k, _ in seen] == [row.iter for row in trace.rows] == list(range(7))
    assert np.array_equal(seen[0][1], x0)
    den = squared_distances(x0, quad_xstar)[0]
    assert [relative_error(x, quad_xstar, den) for _, x in seen] == [
        row.rel_err for row in trace.rows]
