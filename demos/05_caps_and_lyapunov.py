"""Theory-side diagnostics: parameter caps and Lyapunov traces.

Prints the parameter caps under which the two-phase rate guarantees hold
for the quadratic benchmark (they are extremely conservative; the benchmark
schedule runs far outside them and still converges), then shows the
Lyapunov aggregates u1/u2/u3 and the local-phase coefficients eps/delta
along an actual run.
"""

import numpy as np

from decnewton import (
    AlgoParams,
    ConstantSchedule,
    GeometricRamp,
    RoundMetrics,
    centralized_solve,
    fill_state_metrics,
    generate_topology,
    init_state,
    make_quadratic,
    metropolis_weights,
    run,
    theoretical_caps,
)
from decnewton.compress import CompressorSpec, delta_bound

prob = make_quadratic(10, 30, 100.0, seed=1)
W = metropolis_weights(generate_topology(10, 0.2, seed=11))
x_star = centralized_solve(prob, tol=1e-12)
x0 = np.zeros((10, 30))

spec = CompressorSpec("rank_k", d=30, K=3)
delta = delta_bound(spec)
state = init_state(prob, x0)
row0 = fill_state_metrics(RoundMetrics(), state, prob, x_star, W.sigma, 15, delta,
                          rel_err_den=float(np.linalg.norm(x0 - x_star) ** 2))
print(theoretical_caps(prob, W.sigma, 15, delta, row0.u1, row0.u2).render())

print("\nLyapunov quantities along the benchmark run "
      "(alpha ramps to 1, gamma = 0.03, rank-3):")
params = AlgoParams(
    compressor=spec, alpha=GeometricRamp(0.02, 1.1, 1.0), gamma=0.03,
    m=15, M=0.0, cg_tol=ConstantSchedule(1e-10), max_iters=2000, stop_tol=1e-10,
)
trace = run(prob, W, params, x0, x_star)
print(f"{'iter':>5} {'rel_err':>10} {'u1':>10} {'u2':>10} {'u3':>10} {'eps_k':>10} {'delta_k':>10}")
for row in trace.rows[::5]:
    print(f"{row.iter:>5d} {row.rel_err:>10.2e} {row.u1:>10.2e} {row.u2:>10.2e} "
          f"{row.u3:>10.2e} {row.eps_k:>10.2e} {row.delta_k:>10.2e}")
print(f"converged at iteration {trace.iterations} with rel_err {trace.final_rel_err:.1e}")
