"""Decentralized Newton iteration with multi-step consensus and compression.

One iteration, per node:

1. move along the local direction and average for ``m`` gossip rounds:
   ``x^{k+1} = W^m (x^k - alpha_k d^k)``;
2. refresh the gradient tracker the same way:
   ``g^{k+1} = W^m (g^k + grad f(x^{k+1}) - grad f(x^k))``;
3. refresh the Hessian tracker through the compression pipeline. The
   difference ``H - Htilde`` is compressed, the leftover accumulates in the
   error store ``E`` and is fed back into the next compression, and the
   reconstruction ``Hhat`` drives one gossip round of Hessian averaging:
   ``H^{k+1} = H^k - gamma (I - W) Hhat^k + hess f(x^{k+1}) - hess f(x^k)``;
4. solve ``(sym(H_i^{k+1}) + M I) d_i^{k+1} = g_i^{k+1}`` on every node.
   The paper allows an inexact solve (residual <= c_k ||g_i||); the step
   solves all nodes exactly with one batched factorization, which meets any
   c_k, and records the true residual so the bound stays checked.

``step`` runs one iteration in the variant ``AlgoParams.variant`` names. The
``reference`` variant is the plain form above, which would ship the
uncompressed reconstruction ``Hhat``. The ``efficient`` variant ships only
the two compressed packets per node and keeps the extra accumulator
``H_tilde_w`` tracking ``W @ H_tilde``, so ``W @ Hhat = H_tilde_w + W @ Q2``;
the two produce the same trajectory up to floating-point reassociation.

Node averages are conserved by construction: the mean of ``g`` equals the
mean of the current local gradients and likewise for ``H`` (dynamic average
consensus), which the metrics record every iteration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .compress import CompressorSpec, compress, delta_bound, payload_bits
from .diagnostics import MetricWeights, RoundMetrics, Trace, fill_state_metrics
from .graph import MixingMatrix, consensus_apply, save_matrix
from .objectives import Problem, batch_gradients, batch_hessians, global_value

__all__ = [
    "ConstantSchedule",
    "GeometricRamp",
    "TwoStageSchedule",
    "AlgoParams",
    "NetworkState",
    "CGBreakdownError",
    "CGResult",
    "init_state",
    "cg_solve",
    "step",
    "VARIANTS",
    "iterate",
    "run",
    "run_lockstep",
    "max_state_deviation",
    "DIVERGENCE_LIMIT",
]

DIVERGENCE_LIMIT = 1e6

VARIANTS = ("efficient", "reference")

# Roundoff-restart guard for ``cg_solve``: recompute the true residual and
# continue for at most this many sweeps of <= d iterations each. Badly
# conditioned systems (condition number ~1e4) need tens of sweeps in floating
# point to approach relative residuals of 1e-10, and may still miss them.
CG_MAX_SWEEPS = 60


# ---------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class ConstantSchedule:
    value: float

    def __post_init__(self):
        if math.isnan(self.value):
            raise ValueError("schedule value must not be NaN")

    def at(self, k: int) -> float:
        return self.value


@dataclass(frozen=True)
class GeometricRamp:
    """min(cap, base * growth**k); the experiments ramp alpha up to 1."""

    base: float
    growth: float
    cap: float = 1.0

    def __post_init__(self):
        if not (self.base > 0 and self.growth > 0 and self.cap > 0):  # NaN fails too
            raise ValueError("ramp parameters must be positive")

    def at(self, k: int) -> float:
        if self.growth > 1.0 and k * math.log(self.growth) >= math.log(self.cap / self.base):
            return self.cap  # saturated; also dodges float overflow at huge k
        return min(self.cap, self.base * self.growth ** k)


@dataclass(frozen=True)
class TwoStageSchedule:
    """Constant stage-one value, switching to the stage-two value at a fixed k."""

    stage1: float
    switch_iter: int
    stage2: float = 1.0

    def __post_init__(self):
        if math.isnan(self.stage1) or math.isnan(self.stage2):
            raise ValueError("schedule values must not be NaN")

    def at(self, k: int) -> float:
        return self.stage1 if k < self.switch_iter else self.stage2


def check_run_values(params, *names):
    """Reject a ``params.max_iters`` that is not an int >= 1, and a NaN,
    infinite or negative ``params.stop_tol`` or other named field."""
    if isinstance(params.max_iters, bool) or not isinstance(params.max_iters, int) \
            or params.max_iters < 1:
        raise ValueError(f"max_iters must be an integer >= 1, got {params.max_iters!r}")
    for name in (*names, "stop_tol"):
        value = getattr(params, name)
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class AlgoParams:
    """Everything that parameterizes one decentralized Newton run."""

    compressor: CompressorSpec
    alpha: object  # schedule
    gamma: float
    m: object = 1  # positive int, or the string "k" for m growing with k
    M: float = 0.0
    cg_tol: object = ConstantSchedule(1e-10)
    max_iters: int = 2000
    stop_tol: float = 1e-10
    variant: str = "efficient"  # one of VARIANTS

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be efficient or reference, got {self.variant!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.m != "k" and (not isinstance(self.m, int) or self.m < 1):
            raise ValueError(f"m must be a positive integer or 'k', got {self.m!r}")
        check_run_values(self, "M")

    def rounds(self, k: int) -> int:
        return max(1, k) if self.m == "k" else self.m


# ---------------------------------------------------------------------------
# state


@dataclass
class NetworkState:
    """Per-node iterates stacked on axis 0.

    ``local_grads``/``local_hessians`` cache grad f_i(x_i) and hess f_i(x_i)
    at the current iterate; the tracking updates need the previous values
    and the average-conservation metrics read them directly.
    """

    x: np.ndarray                 # (n, d)
    g: np.ndarray                 # (n, d)
    H: np.ndarray | None = None   # (n, d, d)
    H_tilde: np.ndarray | None = None
    E: np.ndarray | None = None
    H_tilde_w: np.ndarray | None = None
    d_dir: np.ndarray | None = None
    local_grads: np.ndarray | None = None
    local_hessians: np.ndarray | None = None

    def arrays(self) -> dict:
        out = {"x": self.x, "g": self.g}
        for name in ("H", "H_tilde", "E", "H_tilde_w", "d_dir"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        return out


def init_state(problem: Problem, x0: np.ndarray) -> NetworkState:
    """Start from x0 with trackers seeded by the true local derivatives.

    The compression stores start at zero: E0 = Htilde0 = 0, which makes the
    efficient variant's accumulator W @ Htilde0 = 0 trivially consistent.
    The direction starts at zero, so the first x-update is pure consensus.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.n, problem.d):
        raise ValueError(f"x0 must have shape ({problem.n}, {problem.d}), got {x0.shape}")
    grads = batch_gradients(problem, x0)
    hessians = batch_hessians(problem, x0)
    shape3 = (problem.n, problem.d, problem.d)
    return NetworkState(
        x=x0.copy(),
        g=grads.copy(),
        H=hessians.copy(),
        H_tilde=np.zeros(shape3),
        E=np.zeros(shape3),
        H_tilde_w=np.zeros(shape3),
        d_dir=np.zeros_like(x0),
        local_grads=grads,
        local_hessians=hessians,
    )


# ---------------------------------------------------------------------------
# conjugate gradients


class CGBreakdownError(RuntimeError):
    """Nonpositive curvature or non-finite arithmetic: the system is not SPD."""


@dataclass(frozen=True)
class CGResult:
    direction: np.ndarray
    residual_norm: float
    iterations: int
    sweeps: int


def cg_solve(H_reg: np.ndarray, g: np.ndarray, c: float,
             max_sweeps: int = CG_MAX_SWEEPS, x0: np.ndarray | None = None) -> CGResult:
    """Solve H_reg d = g to relative residual c with conjugate gradients.

    The iteration itself solves exactly (``_solve_directions``); this is
    the matrix-free iterative solver for a single node's system.

    Each sweep runs at most d iterations (exact-arithmetic termination);
    if roundoff leaves the true residual above target, the sweep restarts
    from the recomputed residual, up to ``max_sweeps`` times or until two
    consecutive sweeps stop improving (the roundoff floor). ``c = 0`` solves
    to that floor. ``x0`` warm-starts the iterate. Raises CGBreakdownError on
    nonpositive curvature.
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"cg tolerance must lie in [0, 1], got {c}")
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)) or not np.all(np.isfinite(H_reg)):
        raise CGBreakdownError("non-finite entries in CG input")
    d = g.shape[0]
    gnorm = float(np.linalg.norm(g))
    x = np.zeros_like(g) if x0 is None else np.array(x0, dtype=float)
    if gnorm == 0.0:
        return CGResult(direction=np.zeros_like(g), residual_norm=0.0, iterations=0, sweeps=0)
    target = c * gnorm
    floor = 1e-14 * gnorm
    tol = max(target, floor)
    total_iters = 0
    res = gnorm
    stalled = 0
    for sweep in range(1, max_sweeps + 1):
        r = g - H_reg @ x
        res = float(np.linalg.norm(r))
        if res <= tol:
            return CGResult(x, res, total_iters, sweep - 1)
        prev_res = res
        p = r.copy()
        rs = float(r @ r)
        for _ in range(d):
            Hp = H_reg @ p
            curv = float(p @ Hp)
            if not np.isfinite(curv) or curv <= 0.0:
                raise CGBreakdownError(
                    f"nonpositive curvature {curv:.3e} at CG iteration {total_iters}"
                )
            a = rs / curv
            x += a * p
            r -= a * Hp
            total_iters += 1
            rs_new = float(r @ r)
            if np.sqrt(rs_new) <= 0.5 * tol:
                break
            p = r + (rs_new / rs) * p
            rs = rs_new
        if not np.all(np.isfinite(x)):
            raise CGBreakdownError("CG iterate became non-finite")
        res = float(np.linalg.norm(g - H_reg @ x))
        if res <= tol:
            return CGResult(x, res, total_iters, sweep)
        stalled = stalled + 1 if res >= 0.9 * prev_res else 0
        if stalled >= 2:
            break
    return CGResult(x, res, total_iters, max_sweeps)


def _solve_directions(H: np.ndarray, g: np.ndarray, M: float, L1: float):
    """Exact solves of (sym(H_i) + M I) d_i = g_i for the whole stack.

    Compressed tracking can leave H_i slightly asymmetric (top-k keeps
    different entries above and below the diagonal), so the systems use
    A_i = (H_i + H_i^T)/2 + M I. One batched Cholesky factorization checks
    that every A_i is positive definite; if it fails, the nodes are factored
    one at a time to find the ones that are not. Those nodes, and nodes with
    non-finite H_i or g_i, fall back to the scaled gradient g_i / L1 for this
    iteration; the rest are solved in one batched call. The search stays a loop:
    no batched numpy call reports which matrices of a stack failed, and another
    positive-definiteness test would change which nodes fall back.

    Returns the directions, the fallback count, the largest true relative
    residual ||g_i - A_i d_i|| / ||g_i|| over the solved nodes (an exact
    solve meets any c_k; the residual shows whether it did) and the largest
    Frobenius norm of H_i - H_i^T.
    """
    Ht = np.swapaxes(H, 1, 2)
    asym = float(np.max(np.linalg.norm(H - Ht, axis=(1, 2))))
    A = 0.5 * (H + Ht) + M * np.eye(g.shape[1])
    ok = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(g).all(axis=1)
    try:
        np.linalg.cholesky(A[ok])
    except np.linalg.LinAlgError:
        ok[ok] = [_positive_definite(Ai) for Ai in A[ok]]
    directions = g / L1
    max_rel = 0.0
    if ok.any():
        A_ok, g_ok = A[ok], g[ok][..., None]
        d_ok = np.linalg.solve(A_ok, g_ok)
        residual = np.linalg.norm(g_ok - A_ok @ d_ok, axis=(1, 2))
        gnorm = np.linalg.norm(g_ok, axis=(1, 2))
        max_rel = float(np.max(residual / np.where(gnorm > 0, gnorm, 1.0)))
        directions[ok] = d_ok[..., 0]
    return directions, int(np.count_nonzero(~ok)), max_rel, asym


def _positive_definite(A: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


# ---------------------------------------------------------------------------
# one iteration

def step(state: NetworkState, problem: Problem, W: MixingMatrix, params: AlgoParams, k: int):
    """One iteration from ``state``; returns the new state and its metrics row.

    ``params.variant`` chooses only how ``W @ Hhat`` is formed and what the
    Hessian exchange costs. ``"reference"`` gossips the reconstruction ``Hhat``
    itself and is charged a raw d x d matrix per node. ``"efficient"`` ships
    only the two compressed packets per node and takes ``W @ Hhat`` from the
    accumulator ``H_tilde_w`` plus ``W @ Q2``.
    """
    m = params.rounds(k)
    alpha = params.alpha.at(k)
    x_new = consensus_apply(W, m, state.x - alpha * state.d_dir)
    grads_new = batch_gradients(problem, x_new)
    g_new = consensus_apply(W, m, state.g + grads_new - state.local_grads)

    diff = state.H - state.H_tilde
    Q1 = compress(params.compressor, diff)
    Q2 = compress(params.compressor, state.E + diff)
    H_tilde_new = state.H_tilde + Q1
    H_tilde_w_new = state.H_tilde_w + consensus_apply(W, 1, Q1)
    H_hat = state.H_tilde + Q2
    n, d = state.x.shape
    if params.variant == "reference":
        H_hat_w = consensus_apply(W, 1, H_hat)
        hess_bits = d * d * 64
    else:
        H_hat_w = state.H_tilde_w + consensus_apply(W, 1, Q2)
        hess_bits = 2 * payload_bits(params.compressor)
    E_new = state.E + diff - Q2
    hess_new = batch_hessians(problem, x_new)
    H_new = state.H - params.gamma * (H_hat - H_hat_w) + hess_new - state.local_hessians

    d_new, fallbacks, max_rel, asym = _solve_directions(H_new, g_new, params.M, problem.L1)
    new_state = NetworkState(
        x=x_new, g=g_new, H=H_new, H_tilde=H_tilde_new, E=E_new,
        H_tilde_w=H_tilde_w_new, d_dir=d_new,
        local_grads=grads_new, local_hessians=hess_new,
    )
    row = RoundMetrics(
        iter=k + 1, alpha_k=alpha, c_k=params.cg_tol.at(k),
        bits=n * (2 * m * d * 64 + hess_bits),
        fallback_count=fallbacks, cg_max_rel_residual=max_rel, hess_asymmetry=asym,
    )
    return new_state, row


# ---------------------------------------------------------------------------
# full runs


def iterate(step_fn, state, problem: Problem, W: MixingMatrix, params, x_star: np.ndarray,
            weights, on_step=None) -> Trace:
    """Run ``step_fn(state, problem, W, params, k) -> (state, row)`` until
    rel_err <= params.stop_tol, divergence, or params.max_iters; every
    method's runs go through this loop.

    The loop times ``step_fn`` into ``wall_time``, fills the row's state
    metrics with ``fill_state_metrics(row, state, problem, x_star, weights(k),
    rel_err_den=, f_star=)`` and adds up ``bits_cum``. A non-finite x, g or H
    (the initial state's too), or rel_err past DIVERGENCE_LIMIT, ends the run
    as "diverged"; a non-finite initial state's row is filled without numpy's
    warnings, which the note explains. ``on_step(k, state)`` runs after each
    iteration, outside the timed part.
    """
    x_star = np.asarray(x_star, dtype=float)
    den = float(np.linalg.norm(state.x - x_star[None, :]) ** 2)
    f_star = global_value(problem, x_star)
    finite = _finite(state)
    with np.errstate(**({} if finite else {"invalid": "ignore", "over": "ignore"})):
        rows = [fill_state_metrics(RoundMetrics(iter=0), state, problem, x_star, weights(0),
                                   rel_err_den=den, f_star=f_star)]
    if not finite:
        return Trace(rows, "diverged", note="non-finite iterate or tracker at iteration 0")
    bits_cum = 0
    status, note = "max_iters", ""
    for k in range(params.max_iters):
        t0 = time.perf_counter()
        state, row = step_fn(state, problem, W, params, k)
        row.wall_time = time.perf_counter() - t0
        fill_state_metrics(row, state, problem, x_star, weights(k), rel_err_den=den,
                           f_star=f_star)
        bits_cum += row.bits
        row.bits_cum = bits_cum
        rows.append(row)
        if on_step is not None:
            on_step(k, state)
        finite = _finite(state)
        if not finite or not row.rel_err <= DIVERGENCE_LIMIT:
            status = "diverged"
            cause = (f"relative error {row.rel_err:.3e} exceeded {DIVERGENCE_LIMIT:.0e}"
                     if finite else "non-finite iterate or tracker")
            note = f"{cause} at iteration {k + 1}"
            break
        if row.rel_err <= params.stop_tol:
            status = "converged"
            break
    return Trace(rows=rows, status=status, note=note)


def _finite(state: NetworkState) -> bool:
    """Whether every entry of x, g and (when tracked) H is finite. A finite
    sum implies it; the entrywise test settles a sum that overflowed."""
    return all(math.isfinite(a.sum()) or np.isfinite(a).all()
               for a in (state.x, state.g, state.H) if a is not None)


def run(problem: Problem, W: MixingMatrix, params: AlgoParams, x0: np.ndarray,
        oracle_xstar: np.ndarray, dump_iters=(), dump_dir=None) -> Trace:
    """Decentralized Newton run; with ``dump_dir``, the stacked iterate is
    written there after each iteration in ``dump_iters``."""
    base = MetricWeights.of(problem, W.sigma, params.rounds(0), delta_bound(params.compressor))

    def weights(k):
        m = params.rounds(k)
        return base if m == base.m else replace(base, m=m)

    def dump(k, state):
        if dump_dir is not None and k + 1 in dump_iters:
            save_matrix(f"{dump_dir}/state_x_iter{k + 1:05d}.txt", state.x)

    return iterate(step, init_state(problem, x0), problem, W, params, oracle_xstar, weights,
                   on_step=dump)


def max_state_deviation(a: NetworkState, b: NetworkState) -> float:
    """Largest entrywise difference across all shared state arrays."""
    arrays_a, arrays_b = a.arrays(), b.arrays()
    dev = 0.0
    for name, arr in arrays_a.items():
        if name in arrays_b:
            dev = max(dev, float(np.max(np.abs(arr - arrays_b[name]))))
    return dev


def run_lockstep(problem: Problem, W: MixingMatrix, params: AlgoParams,
                 x0: np.ndarray, iters: int, resync: bool = True):
    """Compare the two variants in lockstep; returns per-iteration deviations.

    With ``resync`` (the default) both steps start from the same state each
    iteration and the trajectory continues from the efficient output, so the
    deviations measure the post-state equivalence of single steps. Without
    resync the trajectories evolve independently; note that rank/top
    truncation is discontinuous (near-crossing singular values), so any
    roundoff-level divergence can be amplified arbitrarily inside the
    error-feedback stores over a long horizon even though the iterates
    themselves stay put.
    """
    eff_params, ref_params = (replace(params, variant=v) for v in VARIANTS)
    ref = init_state(problem, x0)
    eff = init_state(problem, x0) if not resync else None
    deviations = []
    for k in range(iters):
        if resync:
            ref_next, _ = step(ref, problem, W, ref_params, k)
            eff_next, _ = step(ref, problem, W, eff_params, k)
            deviations.append(max_state_deviation(ref_next, eff_next))
            ref = eff_next
        else:
            ref, _ = step(ref, problem, W, ref_params, k)
            eff, _ = step(eff, problem, W, eff_params, k)
            deviations.append(max_state_deviation(ref, eff))
    return deviations
