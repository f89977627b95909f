"""Robustness to the condition number on quadratic instances.

Runs the decentralized Newton method (rank-3 compression, step ramp
min(1, 0.02 * 1.1^k), gamma = 0.03) for kappa in {10, 1e2, 1e4} at m = 15
and m = 20, plus the m = k growing-consensus mode, and a tuned
gradient-tracking baseline. The second-order method converges at nearly the
same fitted rate across four orders of magnitude in kappa, while the
first-order baseline collapses; a larger m buys a faster rate.
"""

import numpy as np

from decnewton import (
    AlgoParams,
    ConstantSchedule,
    GeometricRamp,
    GTParams,
    centralized_solve,
    fit_rate,
    generate_topology,
    gt_run,
    make_quadratic,
    metropolis_weights,
    run,
    stage_two_window,
    tune_alpha,
)
from decnewton.compress import CompressorSpec

W = metropolis_weights(generate_topology(10, 0.2, seed=11))
x0 = np.zeros((10, 30))
print(f"network: n=10, tau=0.2, sigma={W.sigma:.4f}")


def newton_params(m, max_iters=170, stop_tol=0.0):
    return AlgoParams(
        compressor=CompressorSpec("rank_k", d=30, K=3),
        alpha=GeometricRamp(0.02, 1.1, 1.0),
        gamma=0.03, m=m, M=0.0,
        cg_tol=ConstantSchedule(1e-10),
        max_iters=max_iters, stop_tol=stop_tol,
    )


print(f"\n{'kappa':>8} {'method':>14} {'iters to 1e-9':>14} {'fitted rate':>12}")
for kappa in (10.0, 100.0, 10000.0):
    prob = make_quadratic(10, 30, kappa, seed=1)
    x_star = centralized_solve(prob, tol=1e-12)
    for m in (15, 20):
        trace = run(prob, W, newton_params(m), x0, x_star)
        rho = fit_rate(trace, stage_two_window(trace)).rho_hat
        print(f"{kappa:>8g} {f'newton m={m}':>14} {trace.iters_to(1e-9):>14d} {rho:>12.3f}")
    alpha = tune_alpha(prob, W, x0, x_star, m=1, target=1e-9, budget=1200)
    gt = gt_run(prob, W, GTParams(alpha=alpha, m=1, max_iters=3000, stop_tol=1e-9),
                x0, x_star)
    reached = gt.iters_to(1e-9)
    shown = str(reached) if reached > 0 else ">3000"
    print(f"{kappa:>8g} {'gt (tuned)':>14} {shown:>14}          --")

print("\ngrowing consensus m=k on the hardest instance (kappa = 1e4):")
prob = make_quadratic(10, 30, 10000.0, seed=1)
x_star = centralized_solve(prob, tol=1e-12)
trace = run(prob, W, newton_params("k", max_iters=300, stop_tol=1e-10), x0, x_star)
for row in trace.rows[::6]:
    print(f"  iter {row.iter:>3d}  rel_err {row.rel_err:.2e}")
print(f"  converged in {trace.iterations} iterations")
