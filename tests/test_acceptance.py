"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The shared fixtures run
the benchmark presets once and individual criteria read off their traces.
"""

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import decnewton
from conftest import QUAD, preset, quad_params, strip_wall_time, trace_sha256
from decnewton import harness
from decnewton.compress import CompressorSpec, compress
from decnewton.diagnostics import fit_rate, stage_two_window
from decnewton.gradient_tracking import GTParams, gt_run, tune_alpha
from decnewton.graph import consensus_apply, generate_topology, metropolis_weights
from decnewton.harness import (
    ExperimentConfig,
    GraphSpec,
    ProblemSpec,
    _instance,
    caps_report,
    preset_configs,
    run_experiment,
)
from decnewton.newton import (
    AlgoParams,
    ConstantSchedule,
    GeometricRamp,
    _solve_directions,
    init_state,
    step,
)

GT_ITER_CAP = 4000


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def preset_traces():
    """One run per benchmark preset config, keyed by label."""
    traces = {}
    for name in ("quad-kappa", "logit-topk", "logit-rank"):
        for config in preset_configs(name):
            trace, _ = run_experiment(config)
            traces[config.label] = trace
    return traces


# sha256 of each preset trace CSV without wall_time (``trace_sha256``): a
# change that moves any bit of a trace, fingerprint and status lines
# included, fails here. The hashes hold for this numpy/OpenBLAS (numpy 2 with
# OpenBLAS 0.3.31, Haswell kernels) at one BLAS thread or two. The logistic
# ones also depend on numpy's float64 ``exp``, which the sigmoid parts take: its
# bits follow the SIMD loop numpy picks for the CPU, not glibc's. The traces
# come from a child interpreter with BLAS on one thread, as the benchmark runs them.
PRESET_TRACE_SHA256 = {
    "quad-k1e1-m15": "dae60033247a802bd3da8f167073ab88e01b7669410da074af5a6b3d34a7e7fd",
    "quad-k1e1-m20": "a6c09a7807bf0051ec95477c385222a8766cddfadfa0fd59db9d441a9cbc35d2",
    "quad-k1e1-mk": "f29740e112159ee0f45aa932d60f5799f75c079e09d8b996ab79ee0b71ff92d2",
    "quad-k1e2-m15": "f9759b5f191b6f75069806ef158bdd98a2717acb072f3c8242e6c64e66d6e000",
    "quad-k1e2-m20": "103fdc69a1f962598ad0136142bda0c279bc29bc63b98c5edae33c3fe5baa86c",
    "quad-k1e2-mk": "4c214e0edfbd50c5bd6fb6cc5869f2a634730c1f0038ab58b38e1923ddc7b241",
    "quad-k1e4-m15": "18d8f42a6b23a63a0e8fd3291c8adad525fb5e4a00e0fee8223d46b96538193f",
    "quad-k1e4-m20": "054e57a8708efd2db4be2cadf33c11ae32ae61b42e80e6a8cbd8bc5ccc1bd18a",
    "quad-k1e4-mk": "2c9343480874ba640daf0b1e1c906c800ab1907bef1c7587443b2951d1876ebc",
    "logit-topk-m15": "bb39b7977abd660160bc30c4d0872439bb537f529d1eefcdfe08264366fdf34e",
    "logit-rank-m15": "20ee086bbaab41883af83b0b9e07495159e590ea663fdc71e7148beb5ccedeff",
}
LOGISTIC_PRESETS = ("logit-topk", "logit-rank")
TRACE_PRESETS = ("quad-kappa", *LOGISTIC_PRESETS)

# sha256 of each newton preset's ``caps_report`` text. ``sigma``, the problem
# constants and the start's Lyapunov terms feed every cap, and the text prints
# them to 6 significant digits: a change at that precision shows here (a
# 1e-5 relative change of sigma does), one in the last bit only in the trace
# pins above. The logistic pins also depend on numpy's float64 ``exp``, as the
# logistic trace pins do.
PRESET_CAPS_SHA256 = {
    "quad-k1e1-m15": "79501bf56c0a4818074b200c5e0a3f41b20a554e130354efd35cae2352888b96",
    "quad-k1e1-m20": "9441c4fbdbc87a9840216a7f01808f1a991ea6c4cca3941d980677118143d2d3",
    "quad-k1e1-mk": "0c38c9356eddd271ef0cda1c89b4c1a7e7793d1c622c599cc9bfa1213d8d827d",
    "quad-k1e2-m15": "d54e93311b2c5e5672772c4e4b710a63bebcdf0203b0bf72a2294489167c61a0",
    "quad-k1e2-m20": "ed372d7c0707b60ca36bfef454c8d7844c6af5cee35793eaad751ebbf50f6796",
    "quad-k1e2-mk": "b2fe208a49d89f105de56ecfc5d5c8c3e0f3335686d24095a887175184c64fb2",
    "quad-k1e4-m15": "9cfd842d0b2810cf21a56b8c4e64e98a8c8cb8f9062f7118ef585d3049e8cdcd",
    "quad-k1e4-m20": "bee87575254b7823b821d0d307a42935e781100251be0496e7ce0a7e23f82871",
    "quad-k1e4-mk": "d307824a5be7bce3acee152f362b2d832180c14275ac09ef9a174723f86efe7e",
    "logit-topk-m15": "19fe2faea6706dd1f23638334b2f5bed9a934ef0d54758e3b188ae9f74c5c570",
    "logit-rank-m15": "02393583810dbe0359e474ccf87dc0a29a924531770bd38a39a976f5e5bf3fe6",
}
_CHILD_RUN = """
import sys
from decnewton.harness import build_problem, preset_configs, run_experiment
from decnewton.objectives import centralized_solve
for config in (c for name in sys.argv[2:] for c in preset_configs(name)):
    run_experiment(config, out_dir=sys.argv[1])
    print(config.label, centralized_solve(build_problem(config.problem)).tobytes().hex())
"""


def run_presets_in_child(out_dir, threads: int) -> dict:
    """Run the ``TRACE_PRESETS`` in a child interpreter with BLAS on ``threads``
    threads, writing their trace CSVs to ``out_dir``: {label: x* as hex}."""
    src = os.path.dirname(os.path.dirname(decnewton.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
           "MKL_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", _CHILD_RUN, str(out_dir), *TRACE_PRESETS],
                         env=env, check=True, capture_output=True, text=True).stdout
    return dict(line.split() for line in out.splitlines())


@pytest.fixture(scope="module")
def one_thread_presets(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("one-thread")
    return out_dir, run_presets_in_child(out_dir, 1)


def test_preset_traces_keep_their_bits(one_thread_presets):
    one_dir, one_stars = one_thread_presets
    got = {label: trace_sha256(one_dir / f"{label}.csv") for label in one_stars}
    assert got == PRESET_TRACE_SHA256


def test_preset_caps_keep_their_text():
    got = {config.label: hashlib.sha256(caps_report(config).encode()).hexdigest()
           for name in TRACE_PRESETS for config in preset_configs(name)}
    assert got == PRESET_CAPS_SHA256


def test_logistic_traces_ignore_the_blas_thread_count(one_thread_presets, tmp_path):
    # the quadratic and logistic presets alike: every product they take is too
    # small for OpenBLAS to split over threads, and a norm past its dot split
    # adds fixed chunks, so two threads give the one-thread oracles and traces
    # bit for bit. A larger network is split: the one-round Hessian gossip
    # W @ (n, d*d) of a quadratic at n = 50, d = 30 is.
    one_dir, one_stars = one_thread_presets
    assert sorted(one_stars) == sorted(PRESET_TRACE_SHA256)
    assert run_presets_in_child(tmp_path, 2) == one_stars
    for label in one_stars:
        assert (strip_wall_time((tmp_path / f"{label}.csv").read_text())
                == strip_wall_time((one_dir / f"{label}.csv").read_text())), label


@pytest.fixture(scope="module")
def stage2_fits():
    """Fitted stage-two contraction factors of 170-iteration runs of the
    quad-kappa configs at m = 20 and at kappa = 1e2, m = 15: (kappa, m) -> rho_hat."""
    fits = {}
    for c in preset_configs("quad-kappa"):
        if c.algorithm.m == 20 or c == QUAD:
            trace, _ = run_experiment(replace(c, algorithm=replace(c.algorithm, max_iters=170,
                                                                   stop_tol=0.0)))
            fit = fit_rate(trace, stage_two_window(trace))
            fits[(c.problem.kappa, c.algorithm.m)] = fit.rho_hat
    return fits


def test_a1_compressor_contraction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    worst = 0.0
    for d in (5, 20, 30):
        mats = rng.standard_normal((1000, d, d))
        norms = np.linalg.norm(mats, axis=(1, 2))
        # rank-K error for every K at once: sqrt of singular-value tail sums
        s = np.linalg.svd(mats, compute_uv=False)
        rank_tail = np.sqrt(np.cumsum((s**2)[:, ::-1], axis=1)[:, ::-1])  # tail incl. s_K
        sq = np.sort(mats.reshape(1000, d * d) ** 2, axis=1)
        top_tail = np.sqrt(np.cumsum(sq, axis=1)[:, ::-1])
        for K in range(1, d + 1):
            delta = K / (2.0 * d)
            err = rank_tail[:, K] if K < d else np.zeros(1000)
            worst = max(worst, float((err - (1 - delta) * norms).max()))
        for K in range(1, d * d + 1):
            delta = K / (2.0 * d * d)
            err = top_tail[:, K] if K < d * d else np.zeros(1000)
            worst = max(worst, float((err - (1 - delta) * norms).max()))
        # the vectorized tails must agree with the real operators
        for A, rt, tt, norm in zip(mats[:3], rank_tail[:3], top_tail[:3], norms[:3]):
            for K in (1, d // 2, d):
                spec = CompressorSpec("rank_k", d=d, K=K)
                err = np.linalg.norm(compress(spec, A) - A)
                expected = rt[K] if K < d else 0.0
                assert err == pytest.approx(expected, abs=1e-8 * (1 + norm))
            for K in (1, d * d // 2, d * d):
                spec = CompressorSpec("top_k", d=d, K=K)
                err = np.linalg.norm(compress(spec, A) - A)
                expected = tt[K] if K < d * d else 0.0
                assert err == pytest.approx(expected, abs=1e-10 * (1 + norm))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(1, ok, f"contraction margin {worst:.2e} <= 1e-9 over all K sweeps, "
                  f"3000 Gaussian matrices, {elapsed:.1f}s < 10s")


def test_a2_algorithm_equivalence(equivalence_preset):
    # the alg-equivalence preset: run_lockstep on the quad-k1e2-m15 instance; the
    # CLI output and the CSV pin are checked by test_harness::test_cli_equivalence_preset
    code, _, path, elapsed = equivalence_preset
    assert code == 0
    worst = max(float(line.split(",")[1]) for line in path.read_text().splitlines()[1:])
    ok = worst <= harness.EQUIVALENCE_TOL and elapsed < 10.0
    report(2, ok, f"reference vs efficient, 200 lockstep iterations: max state deviation "
                  f"{worst:.2e} <= {harness.EQUIVALENCE_TOL:g}, {elapsed:.1f}s < 10s")


def test_a3_exact_convergence(preset_traces):
    t0 = time.perf_counter()
    quad = preset_traces["quad-k1e2-m15"]
    topk = preset_traces["logit-topk-m15"]
    rank = preset_traces["logit-rank-m15"]
    elapsed = time.perf_counter() - t0  # traces already computed; runs are timed below
    ok = (
        quad.status == "converged" and quad.final_rel_err <= 1e-10
        and quad.iterations <= 2000
        and topk.final_rel_err <= 1e-8 and rank.final_rel_err <= 1e-8
    )
    report(3, ok, f"quad preset rel_err {quad.final_rel_err:.1e} <= 1e-10 in "
                  f"{quad.iterations} iters; logistic top-20 {topk.final_rel_err:.1e} "
                  f"and rank-3 {rank.final_rel_err:.1e} <= 1e-8")


def test_a3_runtime_budget():
    t0 = time.perf_counter()
    for name in ("quad-kappa", "logit-topk", "logit-rank"):
        for config in preset_configs(name):
            if config.label in ("quad-k1e2-m15", "logit-topk-m15", "logit-rank-m15"):
                run_experiment(config)
    elapsed = time.perf_counter() - t0
    report("3-runtime", elapsed < 60.0, f"the three convergence runs take {elapsed:.1f}s < 60s")


def test_a4_kappa_independence(stage2_fits):
    rhos = [stage2_fits[(k, 20)] for k in (10.0, 100.0, 10000.0)]
    spread = max(rhos) / min(rhos)
    newton_ok = spread <= 1.5

    iters = {}
    for config in (preset("quad-k1e1-m20"), preset("quad-k1e4-m20")):
        prob, W, x0, x_star = _instance(config)
        alpha = tune_alpha(prob, W, x0, x_star, m=20, target=1e-6, budget=1500)
        trace = gt_run(prob, W, GTParams(alpha=alpha, m=20, max_iters=GT_ITER_CAP,
                                         stop_tol=1e-6), x0, x_star)
        reached = trace.iters_to(1e-6)
        iters[config.problem.kappa] = reached if reached > 0 else GT_ITER_CAP  # censored at the cap
    gt_ok = iters[10000.0] >= 10 * iters[10.0]
    ok = newton_ok and gt_ok
    report(4, ok, f"stage-two rho at m=20 for kappa 10/1e2/1e4: "
                  f"{rhos[0]:.3f}/{rhos[1]:.3f}/{rhos[2]:.3f} (spread {spread:.2f} <= 1.5); "
                  f"tuned gradient tracking needs {iters[10.0]} iters at kappa=10 vs "
                  f">= {iters[10000.0]} at kappa=1e4 ({iters[10000.0] / iters[10.0]:.0f}x >= 10x)")


def test_a5_m_dependence(stage2_fits, quad_graph):
    rho15 = stage2_fits[(100.0, 15)]
    rho20 = stage2_fits[(100.0, 20)]
    ratio = rho20 / rho15
    target = quad_graph.sigma ** 2.5
    ok = rho20 < rho15 and target / 3.0 <= ratio <= 3.0 * target
    report(5, ok, f"rho(m=20)={rho20:.3f} < rho(m=15)={rho15:.3f}; "
                  f"ratio {ratio:.3f} within 3x of sigma^(5/2)={target:.3f}")


def test_a6_dac_conservation(preset_traces):
    worst_g, worst_H = 0.0, 0.0
    for trace in preset_traces.values():
        for row in trace.rows[1:]:
            worst_g = max(worst_g, row.dac_g)
            worst_H = max(worst_H, row.dac_H)  # absolute ||Hbar - mean local Hessian||_F
    ok = worst_g <= 1e-11 and worst_H <= 1e-9
    report(6, ok, f"across all {len(preset_traces)} preset runs, every iteration: "
                  f"max |gbar - mean grad|_inf = {worst_g:.1e} <= 1e-11, "
                  f"max Hessian-average gap ||.||_F = {worst_H:.1e} <= 1e-9 (absolute)")


def _decay_config(family):
    if family == "quadratic":
        pspec = ProblemSpec(family="quadratic", n=10, d=20, kappa=100.0, seed=4)
        comp, m_rounds = ("rank_k", 3), 5
    else:
        pspec = ProblemSpec(family="logistic", n=10, d=10, rho=0.01,
                            m_per_node=30, seed=4)
        comp, m_rounds = ("top_k", 50), 5
    return ExperimentConfig(
        problem=pspec,
        graph=GraphSpec(tau=0.8, seed=6),
        method="newton",
        algorithm=AlgoParams(
            compressor=CompressorSpec(comp[0], d=pspec.d, K=comp[1]),
            alpha=GeometricRamp(0.05, 1.1, 1.0),
            gamma=0.3, m=m_rounds, M=0.0,
            cg_tol=ConstantSchedule(1e-10),
            max_iters=800, stop_tol=0.0,
        ),
        label=f"decay-{family}",
    )


def test_a7_compression_state_decay(quad_problem, quad_graph, quad_x0):
    finals = {}
    for family in ("quadratic", "logistic"):
        trace, _ = run_experiment(_decay_config(family))
        assert trace.rows[-1].rel_err <= 1e-10, "decay run must converge"
        finals[family] = (trace.rows[-1].err_E, trace.rows[-1].diff_Htilde)
    decay_ok = all(e <= 1e-6 and h <= 1e-6 for e, h in finals.values())

    # identity compressor keeps the error store at exactly zero
    params = quad_params(compressor=CompressorSpec("identity", d=quad_problem.d))
    state = init_state(quad_problem, quad_x0)
    exact_zero = True
    for k in range(50):
        state, _ = step(state, quad_problem, quad_graph, params, k)
        exact_zero = exact_zero and not state.E.any()
    ok = decay_ok and exact_zero
    q, l = finals["quadratic"], finals["logistic"]
    report(7, ok, f"on converging compressed runs ||E||/||H-Htilde|| fall to "
                  f"{q[0]:.1e}/{q[1]:.1e} (quad) and {l[0]:.1e}/{l[1]:.1e} (logit) <= 1e-6; "
                  f"identity compressor: E == 0 exactly every iteration: {exact_zero}")


def test_a8_cg_contract(preset_traces):
    # contract over every per-node solve of every quad-kappa and logit preset
    worst_rel = 0.0
    checked = [c.label for name in ("quad-kappa", "logit-topk", "logit-rank")
               for c in preset_configs(name)]
    for label in checked:
        for row in preset_traces[label].rows[1:]:
            worst_rel = max(worst_rel, row.cg_max_rel_residual / row.c_k)
    contract_ok = worst_rel <= 1.0

    rng = np.random.default_rng(271)
    agree = 0.0
    for _ in range(100):
        d = int(rng.integers(5, 31))
        G = rng.standard_normal((d, d))
        H = G @ G.T + 0.1 * np.eye(d)
        g = rng.standard_normal(d)
        # the direction solve every Newton step runs, on a one-node stack
        directions, _, _, _ = _solve_directions(H[None], g[None], 0.0, 1.0)
        direct = np.linalg.solve(H, g)
        agree = max(agree, float(np.linalg.norm(directions[0] - direct)
                                 / np.linalg.norm(direct)))
    exact_ok = agree <= 1e-8
    ok = contract_ok and exact_ok
    report(8, ok, f"residual <= c_k||g|| on every solve of {len(checked)} preset runs "
                  f"(worst ||r||/(c_k||g||) {worst_rel:.2e}); "
                  f"step direction solve (M = 0) vs np.linalg.solve on 100 random SPD systems: "
                  f"max rel diff {agree:.1e} <= 1e-8")


def test_a9_consensus_contraction():
    rng = np.random.default_rng(99)
    worst = -np.inf
    total = 0
    for t in range(10):
        n = int(rng.integers(5, 31))
        tau = float(rng.uniform(0.15, 0.9))
        if round(tau * n * (n - 1) / 2) < n - 1:
            tau = 1.0
        mix = metropolis_weights(generate_topology(n, tau, seed=t))
        m = int(rng.integers(1, 6))
        bound = mix.sigma ** m
        for _ in range(100):
            x = rng.standard_normal((n, 4))
            dev_in = np.linalg.norm(x - x.mean(axis=0))
            out = consensus_apply(mix, m, x)
            dev_out = np.linalg.norm(out - out.mean(axis=0))
            worst = max(worst, dev_out / dev_in - bound)
            total += 1
    ok = worst <= 1e-10
    report(9, ok, f"||W^m x - avg|| / ||x - avg|| <= sigma^m + 1e-10 on {total} "
                  f"random stacked vectors across 10 topologies (worst excess {worst:.1e})")


def test_a10_determinism(tmp_path):
    ok = True
    details = []
    for label in ("quad-k1e2-m15", "logit-topk-m15"):
        config = preset(label)
        _, p1 = run_experiment(config, out_dir=str(tmp_path / "one"))
        _, p2 = run_experiment(config, out_dir=str(tmp_path / "two"))
        same = strip_wall_time(Path(p1).read_text()) == strip_wall_time(Path(p2).read_text())
        ok = ok and same
        details.append(f"{label}: {'identical' if same else 'DIFFERENT'}")
    report(10, ok, "repeated preset runs byte-identical modulo wall_time ("
           + "; ".join(details) + ")")
