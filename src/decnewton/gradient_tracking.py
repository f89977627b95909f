"""First-order gradient-tracking baseline.

Each node descends along a tracker of the network-average gradient and both
the iterates and the trackers are averaged with ``m`` gossip rounds per
iteration:

    x' = W^m (x - alpha g),    g' = W^m (g + grad f(x') - grad f(x)),

with ``g`` initialized to the local gradients so the tracker mean equals the
mean local gradient at every iteration. The constant step size is the only
knob that matters; ``tune_alpha`` picks it by golden-section search on a log
grid, scoring candidates by iterations-to-target (with a smooth penalty for
runs that fall short).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# fill_state_metrics is unused here but bound for perfbench/tracing.py, which patches it.
from .diagnostics import MetricWeights, RoundMetrics, Trace, fill_state_metrics  # noqa: F401
from .graph import MixingMatrix, consensus_apply
from .newton import NetworkState, iterate
from .objectives import Problem, batch_gradients

__all__ = ["GTParams", "gt_step", "gt_run", "tune_alpha"]


@dataclass(frozen=True)
class GTParams:
    alpha: float
    m: int = 1
    max_iters: int = 5000
    stop_tol: float = 1e-10

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")


def gt_step(state: NetworkState, problem: Problem, W: MixingMatrix, params: GTParams, k: int):
    """One tracking iteration from ``state``; returns the new state and its
    metrics row, as ``newton.step`` does. Bits count the x and g exchanges,
    m * d * 64 each per node."""
    x_new = consensus_apply(W, params.m, state.x - params.alpha * state.g)
    grads_new = batch_gradients(problem, x_new)
    g_new = consensus_apply(W, params.m, state.g + grads_new - state.local_grads)
    return (NetworkState(x=x_new, g=g_new, local_grads=grads_new),
            RoundMetrics(iter=k + 1, alpha_k=params.alpha,
                         bits=problem.n * 2 * params.m * problem.d * 64))


def gt_run(problem: Problem, W: MixingMatrix, params: GTParams, x0: np.ndarray,
           oracle_xstar: np.ndarray) -> Trace:
    """Full gradient-tracking run: ``gt_step`` through ``newton.iterate``, with
    the shared trace schema; Hessian-side metrics are NaN (no curvature state)."""
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (problem.n, problem.d):
        raise ValueError(f"x0 must have shape ({problem.n}, {problem.d}), got {x.shape}")
    grads = batch_gradients(problem, x)
    weights = MetricWeights.of(problem, W.sigma, params.m, delta=1.0)
    return iterate(gt_step, NetworkState(x=x, g=grads.copy(), local_grads=grads),
                   problem, W, params, oracle_xstar, lambda k: weights)


def tune_alpha(problem: Problem, W: MixingMatrix, x0: np.ndarray,
               oracle_xstar: np.ndarray, m: int = 1, target: float = 1e-6,
               budget: int = 1500, evals: int = 22) -> float:
    """Golden-section search over log10(alpha) for the fastest run to target.

    Candidates that converge within the budget score by iteration count.
    Candidates still running score by iterations-to-target extrapolated from
    the tail slope of log(rel_err). The grid tops out at 2/L1: steps beyond
    that can be unstable with a growth rate too slow for any budget-limited
    run to notice, while 2/L1 <= 2/lambda_max(average Hessian) keeps the
    near-centralized regime contractive.
    """
    hi = math.log10(2.0 / problem.L1)
    lo = hi - 5.0

    def score(log_alpha: float) -> float:
        alpha = 10.0 ** log_alpha
        params = GTParams(alpha=alpha, m=m, max_iters=budget, stop_tol=target)
        trace = gt_run(problem, W, params, x0, oracle_xstar)
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
        return 1e9 * (1.0 + log_alpha - lo)  # flat or growing tail

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
