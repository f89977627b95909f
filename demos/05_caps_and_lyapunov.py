"""Theory-side diagnostics: parameter caps and Lyapunov traces.

Prints the parameter caps under which the two-phase rate guarantees hold
for the quadratic benchmark, the ``quad-k1e2-m15`` preset (they are
extremely conservative; the benchmark schedule runs far outside them and
still converges), then shows the Lyapunov aggregates u1/u2/u3 and the
local-phase coefficients eps/delta along an actual run.
"""

from decnewton.harness import caps_report, preset_configs, run_experiment

config = next(c for c in preset_configs("quad-kappa") if c.label == "quad-k1e2-m15")
print(caps_report(config))

print("\nLyapunov quantities along the benchmark run "
      "(alpha ramps to 1, gamma = 0.03, rank-3):")
trace, _ = run_experiment(config)
print(f"{'iter':>5} {'rel_err':>10} {'u1':>10} {'u2':>10} {'u3':>10} {'eps_k':>10} {'delta_k':>10}")
for row in trace.rows[::5]:
    print(f"{row.iter:>5d} {row.rel_err:>10.2e} {row.u1:>10.2e} {row.u2:>10.2e} "
          f"{row.u3:>10.2e} {row.eps_k:>10.2e} {row.delta_k:>10.2e}")
print(f"converged at iteration {trace.iterations} with rel_err {trace.final_rel_err:.1e}")
