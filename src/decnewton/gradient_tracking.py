"""First-order gradient-tracking baseline.

Each node descends along a tracker of the network-average gradient and both
the iterates and the trackers are averaged with ``m`` gossip rounds per
iteration:

    x' = W^m (x - alpha g),    g' = W^m (g + grad f(x') - grad f(x)),

with ``g`` initialized to the local gradients so the tracker mean equals the
mean local gradient at every iteration. One iteration is ``newton.step`` on a
state with no Hessian tracker. The constant step size is the only knob that
matters; ``tune_alpha`` picks it by a grid-and-zoom search over log10(alpha),
racing stacks of candidates side by side on ``(n, C, d)`` arrays
(``gt_columns``), as its docstring sets out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .config import FLOAT_MAX, check_fields, count, real
# The noqa imports are unused here but bound for perfbench/tracing.py, which patches them.
from .diagnostics import fill_state_metrics  # noqa: F401
from .diagnostics import Trace, relative_error, squared_distances
from .graph import MixingMatrix, consensus_apply  # noqa: F401
from .newton import NetworkState, _finite, iterate, run_status, start_state, step
from .objectives import Problem, batch_gradients  # noqa: F401

__all__ = ["GTParams", "gt_run", "gt_columns", "tune_alpha"]

_GRID = 1250  # tune_alpha's 5 decades in steps of 0.004 decade, its last stack's spacing
_SPACINGS = (125, 25, 5, 1)  # each stack's spacing, in grid steps
# The grid races to the target or to this, whichever is looser. It only picks where the
# zooms look, and a race to 1e-3 leads them to the alpha the race to the target does on
# every instance tested. gt-tuned's search takes 39,510 column-iterations, 47,584 at 1e-6.
_COARSE_TARGET = 1e-3
MIN_TUNING_BUDGET = 8  # _score's tail: 5 points in the last half of a run


@dataclass(frozen=True)
class GTParams:
    alpha: float
    m: int = 1  # positive int a float holds, as AlgoParams.m
    max_iters: int = 5000
    stop_tol: float = 1e-10
    KINDS = {"alpha": real(0), "m": count(1, most=FLOAT_MAX), "max_iters": count(1), "stop_tol": real(0)}

    def __post_init__(self):
        check_fields(self, "[algorithm]")


# perfbench/tracing.py binds this name, so gt_run and gt_columns call through it;
# delete it with that patch point.
gt_step = step


def gt_run(problem: Problem, W: MixingMatrix, params: GTParams, x0: np.ndarray,
           oracle_xstar: np.ndarray, on_step=None) -> Trace:
    """Full gradient-tracking run: ``newton.step`` through ``newton.iterate``, with the shared
    trace schema and ``on_step``; Hessian-side metrics are NaN (no curvature state)."""
    return iterate(gt_step, start_state(problem, x0), problem, W, params, oracle_xstar,
                   delta=1.0, on_step=on_step)


def gt_columns(problem: Problem, W: MixingMatrix, alphas, m: int, x0: np.ndarray,
               oracle_xstar: np.ndarray, max_iters: int, stop_tol: float,
               horizon: float = math.inf) -> list:
    """``gt_run`` at each of ``alphas`` on one ``(n, C, d)`` stack: each run's status and rel_errs,
    bit for bit as alone up to where it left. A run leaves when it stops, and the runs race: once one
    has converged at some k < ``max_iters``, or k reaches ``horizon``, the runs still going leave as
    ``"dropped"``. Like every run, they start from ``newton.start_state`` and stop by ``run_status``.
    The step takes a namespace of ``m`` and the ``(C, 1)`` alphas, which no ``GTParams`` can hold."""
    start, x_star = start_state(problem, x0), np.asarray(oracle_xstar, dtype=float)
    den = squared_distances(start.x, x_star)[0]
    errs = [[relative_error(start.x, x_star, den)] for _ in alphas]
    live = list(range(len(alphas))) if _finite(start) else []
    status = ["max_iters" if live else "diverged"] * len(alphas)
    x, g = (np.repeat(a[:, None], len(alphas), axis=1) for a in (start.x, start.g))
    state = NetworkState(x=x, g=g, local_grads=g.copy())
    params = SimpleNamespace(alpha=np.array(alphas, dtype=float)[:, None], m=m)
    for k in range(max_iters):
        if not live:
            break
        state, _ = gt_step(state, problem, W, params, k)
        x, g = state.x, state.g
        # x needs no test of its own: a non-finite x has a non-finite rel_err, which diverges.
        # A finite sum of g means that no entry of g is inf or NaN.
        finite = ([True] * len(live) if math.isfinite(np.add.reduce(g, None))
                  else np.isfinite(g).all(axis=(0, 2)))
        for col, rel, ok in zip(live, relative_error(x, x_star, den), finite):
            errs[col].append(rel)
            status[col] = run_status(ok, rel, stop_tol)
        if k + 1 < max_iters and (k + 1 >= horizon or "converged" in status):
            status = ["dropped" if s == "max_iters" else s for s in status]
            break
        keep = [j for j, col in enumerate(live) if status[col] == "max_iters"]
        if len(keep) < len(live):
            live, params.alpha = [live[j] for j in keep], params.alpha[keep]
            x, g, grads = (np.take(a, keep, axis=1) for a in (x, g, state.local_grads))
            state = NetworkState(x=x, g=g, local_grads=grads)
    return list(zip(status, errs))


def _score(status: str, errs: list, log_alpha: float, lo: float, target: float) -> float:
    """``tune_alpha``'s score of the run at ``10 ** log_alpha``, ``errs[k]`` its rel_err at k;
    a dropped run left its stack because it could not win, and scores +inf."""
    if status == "dropped":
        return math.inf
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


def tune_alpha(problem: Problem, W: MixingMatrix, x0: np.ndarray,
               oracle_xstar: np.ndarray, m: int = 1, target: float = 1e-6,
               budget: int = 1500) -> float:
    """Grid-and-zoom search over log10(alpha) for the fastest run to target.

    Candidates that converge within the budget score by iteration count, those still
    running by iterations-to-target extrapolated from the slope of log(rel_err) over
    the run's last half; a budget below ``MIN_TUNING_BUDGET`` raises ValueError. The
    range is the 5 decades below 2/L1: steps beyond that can be unstable with a growth
    rate too slow for any budget-limited run to notice, while 2/L1 <= 2/lambda_max
    (average Hessian) keeps the near-centralized regime contractive.

    The first stack runs 11 points 0.5 decade apart over the range, to the target or
    to 1e-3, whichever is looser. The grid only picks where the zooms look, within
    half a decade of its best point; on every instance tested, the point that reaches
    1e-3 first leads them to the alpha the race to the target does, in fewer iterations.
    Scores to a looser aim that a run reached only pick the best point; when no run
    reached it, the race was the race to the target and its scores stand. Each of
    three more stacks runs the points within 5 spacings of the best score so far, at
    1/5 of the spacing before (0.1, 0.02, 0.004 decade), in the range and with no
    score yet. Each races through ``gt_columns`` with the earlier stacks' best score
    as its ``horizon``: a run still going at j scores above j, cannot win, and scores
    +inf. Ties go to the larger alpha.
    """
    if budget < MIN_TUNING_BUDGET:
        start_state(problem, x0)  # an x0 of the wrong shape fails first
        raise ValueError(f"budget must be at least {MIN_TUNING_BUDGET} to score a run that falls short, got {budget}")
    hi = math.log10(2.0 / problem.L1)
    lo = hi - 5.0

    def log_alpha(i):  # grid index i: 0 at lo, _GRID at hi, 250 a decade
        return hi - (_GRID - i) / 250

    scores = {}
    best = _GRID // 2  # the first stack spans the range, with no score to beat
    for spacing in _SPACINGS:
        aim = max(target, _COARSE_TARGET) if spacing == _SPACINGS[0] else target
        points = [i for i in range(best - 5 * spacing, best + 5 * spacing + 1, spacing)
                  if 0 <= i <= _GRID and i not in scores]
        columns = gt_columns(problem, W, [10.0 ** log_alpha(i) for i in points], m, x0,
                             oracle_xstar, budget, aim, scores.get(best, math.inf))
        if "converged" not in (status for status, _ in columns):
            aim = target  # then the race to the target was the same, and its scores stand
        scores.update((i, _score(*column, log_alpha(i), lo, aim))
                      for i, column in zip(points, columns))
        best = min(scores, key=lambda i: (scores[i], -i))
        if aim > target:  # scores to another target: the first zoom races their best again
            scores.clear()
    return float(10.0 ** log_alpha(best))
