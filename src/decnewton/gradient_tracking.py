"""First-order gradient-tracking baseline.

Each node descends along a tracker of the network-average gradient and both
the iterates and the trackers are averaged with ``m`` gossip rounds per
iteration:

    x' = W^m (x - alpha g),    g' = W^m (g + grad f(x') - grad f(x)),

with ``g`` initialized to the local gradients so the tracker mean equals the
mean local gradient at every iteration. The constant step size is the only
knob that matters; ``tune_alpha`` picks it by golden-section search on a log
grid, scoring candidates by iterations-to-target (with a smooth penalty for
runs that fall short). Its candidates run side by side on ``(n, C, d)``
stacks sharing each gossip round's matrix product, keeping only ``rel_err``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

# fill_state_metrics is unused here but bound for perfbench/tracing.py, which patches it.
from .diagnostics import fill_state_metrics  # noqa: F401
from .diagnostics import MetricWeights, RoundMetrics, Trace, relative_error
from .graph import MixingMatrix, consensus_apply
from .newton import DIVERGENCE_LIMIT, NetworkState, check_run_values, iterate
from .objectives import Problem, batch_gradients

__all__ = ["GTParams", "gt_step", "gt_run", "gt_columns", "tune_alpha"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_SPECULATION = 2  # golden-section steps per candidate stack, 2 ** steps - 1 points


@dataclass(frozen=True)
class GTParams:
    alpha: float
    m: int = 1
    max_iters: int = 5000
    stop_tol: float = 1e-10

    def __post_init__(self):
        check_run_values(self, "alpha")
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")


def gt_step(state: NetworkState, problem: Problem, W: MixingMatrix, params: GTParams, k: int):
    """One tracking iteration from ``state``; returns the new state and its
    metrics row, as ``newton.step`` does. Bits count the x and g exchanges, m * d * 64
    each per node. An ``(n, C, d)`` state with ``(C, 1)`` alphas steps C runs."""
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


def gt_columns(problem: Problem, W: MixingMatrix, alphas, m: int, x0: np.ndarray,
               oracle_xstar: np.ndarray, max_iters: int, stop_tol: float) -> list:
    """``gt_run`` at each of ``alphas`` on one ``(n, C, d)`` stack, a run leaving
    it when it stops: each run's status and rel_errs, bit for bit as alone."""
    x0, x_star = np.asarray(x0, dtype=float), np.asarray(oracle_xstar, dtype=float)
    if x0.shape != (problem.n, problem.d):
        raise ValueError(f"x0 must have shape ({problem.n}, {problem.d}), got {x0.shape}")
    den = float(np.linalg.norm(x0 - x_star[None, :]) ** 2)
    grads = batch_gradients(problem, x0)
    errs = [[relative_error(x0, x_star, den)] for _ in alphas]
    live = list(range(len(alphas))) if np.isfinite(x0).all() and np.isfinite(grads).all() else []
    status = ["max_iters" if live else "diverged"] * len(alphas)
    x, g = (np.repeat(a[:, None], len(alphas), axis=1) for a in (x0, grads))
    state = NetworkState(x=x, g=g, local_grads=g.copy())
    params = SimpleNamespace(alpha=np.array(alphas, dtype=float)[:, None], m=m)
    for k in range(max_iters):
        if not live:
            break
        state, _ = gt_step(state, problem, W, params, k)
        x, g = state.x, state.g
        total = np.add.reduce(x, None) + np.add.reduce(g, None)
        finite = ([True] * len(live) if math.isfinite(total)  # no entry is inf or NaN
                  else np.isfinite(x).all(axis=(0, 2)) & np.isfinite(g).all(axis=(0, 2)))
        for col, rel, ok in zip(live, relative_error(x, x_star, den), finite):
            errs[col].append(rel)
            status[col] = ("diverged" if not (ok and rel <= DIVERGENCE_LIMIT) else
                           "converged" if rel <= stop_tol else "max_iters")
        keep = [j for j, col in enumerate(live) if status[col] == "max_iters"]
        if len(keep) < len(live):
            live, params = [live[j] for j in keep], SimpleNamespace(alpha=params.alpha[keep], m=m)
            x, g, grads = (np.take(a, keep, axis=1) for a in (x, g, state.local_grads))
            state = NetworkState(x=x, g=g, local_grads=grads)
    return list(zip(status, errs))


def _score(status: str, errs: list, log_alpha: float, lo: float, target: float) -> float:
    """``tune_alpha``'s score of the run at ``10 ** log_alpha``, ``errs[k]`` its rel_err at k."""
    if status == "diverged":
        return 1e12 * (1.0 + log_alpha - lo)
    if errs[-1] <= target:
        return float(len(errs) - 1)
    tail = [k for k in range(len(errs) // 2, len(errs)) if errs[k] > 0]
    if len(tail) >= 5:
        ks = np.array(tail, dtype=float)
        ys = np.log([errs[k] for k in tail])
        slope = float(np.polyfit(ks, ys, 1)[0])
        if slope < 0:
            shortfall = math.log(errs[-1]) - math.log(target)
            return float(len(errs) - 1 + shortfall / -slope)
    return 1e9 * (1.0 + log_alpha - lo)  # flat or growing tail


def _golden_section(scores: dict, lo: float, hi: float, evals: int) -> float:
    """Golden-section search for the lowest of ``scores``; KeyError: a point not scored yet."""
    a, b, c, d = lo, hi, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = scores[c], scores[d]
    for _ in range(evals - 2):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = scores[c]
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = scores[d]
    return c if fc <= fd else d


def _next_points(scores: dict, lo: float, hi: float, evals: int, steps: int) -> list:
    """The points the search asks for in its next ``steps`` steps, either way
    each comparison goes: a point scored -inf wins its comparison, +inf loses."""
    try:
        _golden_section(scores, lo, hi, evals)
        return []
    except KeyError as missing:
        point = missing.args[0]
    return [point, *(p for f in ((-math.inf, math.inf) if steps > 1 else ())
                     for p in _next_points({**scores, point: f}, lo, hi, evals, steps - 1))]


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

    Candidates run as stacks (``gt_columns``): the first pair, then each next
    point with both that could follow it, so one stack covers two steps.
    """
    hi = math.log10(2.0 / problem.L1)
    lo = hi - 5.0
    scores = {}
    while points := list(dict.fromkeys(_next_points(scores, lo, hi, evals, _SPECULATION))):
        columns = gt_columns(problem, W, [10.0 ** p for p in points], m, x0, oracle_xstar,
                             budget, target)
        scores.update((p, _score(*column, p, lo, target)) for p, column in zip(points, columns))
    return float(10.0 ** _golden_section(scores, lo, hi, evals))
