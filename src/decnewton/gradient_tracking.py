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
A stack holds every point the search may ask for in its next three steps,
following both outcomes of each comparison it cannot decide yet (up to 7
points). A running candidate leaves its stack as soon as no comparison the
search can still reach needs its score: a run that converged at iteration j
beats one still going at j or later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

# fill_state_metrics is unused here but bound for perfbench/tracing.py, which patches it.
from .diagnostics import fill_state_metrics  # noqa: F401
from .diagnostics import RoundMetrics, Trace, relative_error
from .graph import MixingMatrix, consensus_apply
from .newton import DIVERGENCE_LIMIT, NetworkState, check_run_values, iterate, positive_int
from .objectives import Problem, batch_gradients

__all__ = ["GTParams", "gt_step", "gt_run", "gt_columns", "tune_alpha"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_SPECULATION = 3  # golden-section steps per candidate stack, at most 2 ** steps - 1 points


@dataclass(frozen=True)
class GTParams:
    alpha: float
    m: int = 1
    max_iters: int = 5000
    stop_tol: float = 1e-10

    def __post_init__(self):
        check_run_values(self, "alpha")
        if not positive_int(self.m):
            raise ValueError(f"m must be a positive integer, got {self.m!r}")

    def rounds(self, k: int) -> int:
        return self.m


def gt_step(state: NetworkState, problem: Problem, W: MixingMatrix, params: GTParams, k: int):
    """One tracking iteration from ``state``; returns the new state and its
    metrics row, as ``newton.step`` does. Bits count the x and g exchanges, m * d * 64
    each per node. An ``(n, C, d)`` state with ``(C, 1)`` alphas steps C runs."""
    descent = params.alpha * state.g
    x_new = consensus_apply(W, params.m, np.subtract(state.x, descent, out=descent))
    grads_new = batch_gradients(problem, x_new)
    tracker = state.g + grads_new
    tracker -= state.local_grads
    g_new = consensus_apply(W, params.m, tracker)
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
    return iterate(gt_step, NetworkState(x=x, g=grads.copy(), local_grads=grads),
                   problem, W, params, oracle_xstar, delta=1.0)


def gt_columns(problem: Problem, W: MixingMatrix, alphas, m: int, x0: np.ndarray,
               oracle_xstar: np.ndarray, max_iters: int, stop_tol: float, reads=None) -> list:
    """``gt_run`` at each of ``alphas`` on one ``(n, C, d)`` stack, a run leaving
    it when it stops: each run's status and rel_errs, bit for bit as alone.

    ``reads(k, status, errs)``, if given, is called after each stacked
    iteration k but the last (k steps taken), with every run's status so far
    (``"max_iters"`` while it runs) and rel_errs, and returns the runs its
    caller still reads; the other running ones leave the stack as
    ``"dropped"``."""
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
        # x needs no test of its own: a non-finite x has a non-finite rel_err, which diverges.
        # A finite sum of g means that no entry of g is inf or NaN.
        finite = ([True] * len(live) if math.isfinite(np.add.reduce(g, None))
                  else np.isfinite(g).all(axis=(0, 2)))
        for col, rel, ok in zip(live, relative_error(x, x_star, den), finite):
            errs[col].append(rel)
            status[col] = ("diverged" if not (ok and rel <= DIVERGENCE_LIMIT) else
                           "converged" if rel <= stop_tol else "max_iters")
        if reads is not None and k + 1 < max_iters:
            read = reads(k + 1, status, errs)
            for col in live:
                if status[col] == "max_iters" and col not in read:
                    status[col] = "dropped"
        keep = [j for j, col in enumerate(live) if status[col] == "max_iters"]
        if len(keep) < len(live):
            live, params = [live[j] for j in keep], SimpleNamespace(alpha=params.alpha[keep], m=m)
            x, g, grads = (np.take(a, keep, axis=1) for a in (x, g, state.local_grads))
            state = NetworkState(x=x, g=g, local_grads=grads)
    return list(zip(status, errs))


def _score(status: str, errs: list, log_alpha: float, lo: float, target: float) -> float:
    """``tune_alpha``'s score of the run at ``10 ** log_alpha``, ``errs[k]`` its rel_err at k;
    a dropped run lost every comparison it was in and scores +inf."""
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


def _walk(scores: dict, running: dict, lo: float, hi: float, evals: int, depth: int):
    """Follow the golden-section search from its start through both outcomes
    of every comparison it cannot decide yet.

    A comparison is decided when both scores are known, or when one score is
    known and at most the iteration ``running[p]`` the other run ``p`` is
    still going at: a run still going at k scores above k. Returns the points
    the search may ask for that are neither scored nor running, at most
    ``depth`` on each path, and the running points some path still compares
    undecided. A path ends at a point past its ``depth``, whose comparison
    reads only the partner it meets.
    """
    asked, read = {}, set()

    def outcomes(c, d):  # the values ``fc <= fd`` can take
        fc, fd = scores.get(c), scores.get(d)
        if fc is not None and fd is not None:
            return (fc <= fd,)
        if fc is not None and fc <= running.get(d, -math.inf):
            return (True,)
        if fd is not None and fd <= running.get(c, -math.inf):
            return (False,)
        return (True, False)

    def visit(a, b, c, d, new, left, depth):
        for p in new:
            if p not in scores and p not in running:
                if not depth:
                    read.update(q for q in (c, d) if q in running)
                    return
                asked[p] = None
                depth -= 1
        ways = outcomes(c, d)
        if len(ways) == 2:
            read.update(q for q in (c, d) if q in running)
        for c_wins in ways if left > 1 else ():
            if c_wins:  # as _golden_section: b, d = d, c, then the new c
                e = d - _INV_PHI * (d - a)
                visit(a, d, e, c, (e,), left - 1, depth)
            else:
                e = c + _INV_PHI * (b - c)
                visit(c, b, d, e, (e,), left - 1, depth)

    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    visit(lo, hi, c, d, (c, d), max(evals - 1, 1), depth)
    return list(asked), read


def _pruner(points: list, scores: dict, lo: float, hi: float, evals: int, target: float):
    """``gt_columns``' ``reads`` for a stack of ``points``: scores each run as
    it stops, and walks the search again when one stops or k reaches a
    converged score, keeping the running points some path still compares."""
    read, stopped, checks = set(range(len(points))), 0, set(scores.values())

    def reads(k, status, errs):
        nonlocal read, stopped
        running = status.count("max_iters")
        if k not in checks and len(points) - running == stopped:
            return read
        scores.update((p, _score(s, e, p, lo, target))
                      for p, s, e in zip(points, status, errs) if s != "max_iters")
        walked = _walk(scores, {p: k for p, s in zip(points, status) if s == "max_iters"},
                       lo, hi, evals, 0)[1]
        read = {col for col, p in enumerate(points) if p in walked}
        stopped = len(points) - len(read)  # the runs not read leave the stack now
        return read

    return reads


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

    Candidates run as stacks (``gt_columns``). A stack holds the points the
    search may ask for in its next three steps, both ways round for each
    comparison not yet decided: up to 7, and the first pair with both points
    the first step could ask for at the start. A comparison is decided when
    both scores are known, or when one run converged at iteration j and the
    other is still going at j or later. A running candidate that no
    comparison on a reachable path still needs is dropped: it loses every
    comparison it is in, so it scores +inf. The tuned alpha is the
    sequential search's.
    """
    hi = math.log10(2.0 / problem.L1)
    lo = hi - 5.0
    scores = {}
    while points := _walk(scores, {}, lo, hi, evals, _SPECULATION)[0]:
        columns = gt_columns(problem, W, [10.0 ** p for p in points], m, x0, oracle_xstar,
                             budget, target, _pruner(points, scores, lo, hi, evals, target))
        scores.update((p, _score(*column, p, lo, target)) for p, column in zip(points, columns))
    return float(10.0 ** _golden_section(scores, lo, hi, evals))
