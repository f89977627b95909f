"""Regularized logistic regression with compressed Hessian tracking.

n = 30 nodes, 100 Gaussian samples each, d = 20, ridge 0.001. Runs the
``logit-topk`` (Top-20) and ``logit-rank`` (Rank-3) presets at several
consensus depths m against a tuned gradient-tracking baseline, reporting
iterations, transmitted bits, and wall time to reach a 1e-8 relative error.
More consensus rounds per iteration means fewer iterations but more traffic.
"""

from dataclasses import replace

import numpy as np

from decnewton import GTParams, centralized_solve
from decnewton.harness import build_mixing, build_problem, preset_configs, run_experiment

configs = preset_configs("logit-topk") + preset_configs("logit-rank")
base = configs[0]
TOL = base.algorithm.stop_tol
_, W = build_mixing(base.graph, base.problem.n)
x_star = centralized_solve(build_problem(base.problem), tol=1e-12)
print(f"network: n={base.problem.n}, tau={base.graph.tau}, sigma={W.sigma:.4f};  "
      f"|x*| = {np.linalg.norm(x_star):.3f}")

runs = []
for config in configs:
    spec = config.algorithm.compressor
    for m in (3, 5, 15):
        trace, _ = run_experiment(replace(config, algorithm=replace(config.algorithm, m=m)))
        runs.append((f"{spec.kind} K={spec.K} m={m}", trace))
gt, _ = run_experiment(replace(base, method="gt", gt_alpha_mode="tuned", algorithm=GTParams(
    alpha=1.0, m=1, max_iters=2500, stop_tol=TOL)))
runs.append(("gradient tracking", gt))

print(f"\n{'method':>22} {'iters':>7} {'megabits':>10} {'seconds':>9}")
for label, trace in runs:
    iters, bits = trace.iters_to(TOL), trace.bits_to(TOL)
    iters_txt = str(iters) if iters > 0 else "not reached"
    bits_txt = f"{bits / 1e6:.2f}" if bits > 0 else "--"
    print(f"{label:>22} {iters_txt:>7} {bits_txt:>10} {sum(r.wall_time for r in trace.rows):>9.2f}")
