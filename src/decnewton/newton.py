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
   The paper allows an inexact solve (residual <= c_k ||g_i||); the step solves
   all nodes exactly with one batched factorization, which meets any c_k. The row's
   ``cg_max_rel_residual`` holds the true residual; only tests read it, no run checks it.

``step`` runs one iteration in the variant ``AlgoParams.variant`` names; a state
with no Hessian tracker stops after step 2 with ``g`` as its direction, which is
the gradient-tracking baseline. The ``reference`` variant is the plain form above,
which would ship the uncompressed reconstruction ``Hhat``. The ``efficient`` variant
ships only the two compressed packets per node and keeps the extra accumulator
``H_tilde_w`` tracking ``W @ H_tilde``, so ``W @ Hhat = H_tilde_w + W @ Q2``;
the two produce the same trajectory up to floating-point reassociation.

Node averages are conserved by construction: the mean of ``g`` equals the
mean of the current local gradients and likewise for ``H`` (dynamic average
consensus), which the metrics record every iteration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .compress import COMPRESSOR, CompressorSpec, compress, delta_bound, payload_bits
from .config import FLOAT_MAX, call, check_fields, choice, count, instance, real
from .diagnostics import RoundMetrics, Trace, fill_state_metrics, squared_distances
from .graph import MixingMatrix, consensus_apply
from .objectives import Problem, batch_gradients, batch_hessians, global_value

__all__ = [
    "ConstantSchedule",
    "GeometricRamp",
    "TwoStageSchedule",
    "AlgoParams",
    "NetworkState",
    "init_state",
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


# ---------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class ConstantSchedule:
    value: float
    KINDS = {"value": real(0)}

    def __post_init__(self):
        check_fields(self, "const")

    def at(self, k: int) -> float:
        return self.value


@dataclass(frozen=True)
class GeometricRamp:
    """min(cap, base * growth**k); the experiments ramp alpha up to 1."""

    base: float
    growth: float
    cap: float = 1.0
    # an infinite cap would never saturate, and base * growth**k would overflow
    KINDS = {"base": real(0, above=True), "growth": real(0, above=True), "cap": real(0, above=True)}

    def __post_init__(self):
        check_fields(self, "ramp")

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
    KINDS = {"stage1": real(0), "switch_iter": count(0), "stage2": real(0)}

    def __post_init__(self):
        check_fields(self, "stage")

    def at(self, k: int) -> float:
        return self.stage1 if k < self.switch_iter else self.stage2


# config text writes a schedule as name(arg, ...), each argument by its class's KINDS
_SCHEDULES = {"const": ConstantSchedule, "ramp": GeometricRamp, "stage": TwoStageSchedule}
_SCHEDULE = call(instance("a schedule (ConstantSchedule, GeometricRamp or TwoStageSchedule)", *_SCHEDULES.values()),
                 {name: (cls, cls.KINDS) for name, cls in _SCHEDULES.items()},
                 lambda schedule: {cls: name for name, cls in _SCHEDULES.items()}[type(schedule)])


@dataclass(frozen=True)
class AlgoParams:
    """Everything that parameterizes one decentralized Newton run."""

    compressor: CompressorSpec
    alpha: object  # schedule
    gamma: float
    m: object = 1  # positive int a float holds (the metrics take sigma ** (m - 1)), or "k" for m = k
    M: float = 0.0
    cg_tol: object = ConstantSchedule(1e-10)
    max_iters: int = 2000
    stop_tol: float = 1e-10
    variant: str = "efficient"  # one of VARIANTS
    # a float alpha, as GTParams takes, would fail only in step
    KINDS = {"m": count(1, "k", FLOAT_MAX), "gamma": real(0, 1), "M": real(0), "alpha": _SCHEDULE,
             "cg_tol": _SCHEDULE, "compressor": COMPRESSOR, "variant": choice(*VARIANTS),
             "max_iters": count(1), "stop_tol": real(0)}

    def __post_init__(self):
        check_fields(self, "[algorithm]")


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


def start_state(problem: Problem, x0: np.ndarray) -> NetworkState:
    """Every run's start: x0, and the gradient tracker seeded by the local gradients."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.n, problem.d):
        raise ValueError(f"x0 must have shape ({problem.n}, {problem.d}), got {x0.shape}")
    grads = batch_gradients(problem, x0)
    return NetworkState(x=x0.copy(), g=grads.copy(), local_grads=grads)


def init_state(problem: Problem, x0: np.ndarray) -> NetworkState:
    """``start_state`` with the Hessian tracker seeded by the true local Hessians.

    The compression stores start at zero: E0 = Htilde0 = 0, which makes the
    efficient variant's accumulator W @ Htilde0 = 0 trivially consistent.
    The direction starts at zero, so the first x-update is pure consensus.
    """
    state = start_state(problem, x0)
    H = batch_hessians(problem, state.x)
    return replace(state, H=H.copy(), H_tilde=np.zeros_like(H), E=np.zeros_like(H),
                   H_tilde_w=np.zeros_like(H), d_dir=np.zeros_like(state.x), local_hessians=H)


# ---------------------------------------------------------------------------
# direction solve


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


# perfbench/tracing.py binds this name and no run calls it; delete it with that patch point.
cg_solve = _solve_directions


# ---------------------------------------------------------------------------
# one iteration

def exchange(m, k: int, d: int) -> tuple[int, int]:
    """Iteration k's x and g gossip at the config's ``m``, for both methods: its rounds of W
    (``max(1, k)`` when ``m`` is ``"k"``), which are also the depth the metrics and caps take,
    and the bits one node sends over them (2 float64 d-vectors a round)."""
    rounds = max(1, k) if m == "k" else m
    return rounds, 2 * rounds * d * 64


def step(state: NetworkState, problem: Problem, W: MixingMatrix, params: AlgoParams, k: int):
    """One iteration from ``state``; returns the new state and its metrics row.

    Both methods step here, with the x and g gossip ``exchange(params.m, k, d)`` gives. A state
    with no Hessian tracker (``state.H is None``) steps along ``g`` at a ``GTParams``' constant alpha
    and skips the Hessian half and its bits; an ``(n, C, d)`` stack with ``(C, 1)`` alphas steps C runs.

    For a Newton state, ``params.variant`` chooses only how ``W @ Hhat`` is formed and
    what the Hessian exchange costs. ``"reference"`` gossips the reconstruction ``Hhat``
    itself and is charged a raw d x d matrix per node. ``"efficient"`` ships only the
    two compressed packets per node and takes ``W @ Hhat`` from the accumulator
    ``H_tilde_w`` plus ``W @ Q2``.

    The two packets, ``Q1 = Q(H - Htilde)`` and ``Q2 = Q(E + H - Htilde)``, are
    compressed in one ``compress`` call on their ``(2n, d, d)`` stack, which
    compresses each matrix on its own; the new error store reuses the stacked
    ``E + H - Htilde``.
    """
    n, d = problem.n, problem.d
    m, xg_bits = exchange(params.m, k, d)
    first_order = state.H is None
    alpha = params.alpha if first_order else params.alpha.at(k)
    descent = alpha * (state.g if first_order else state.d_dir)
    x_new = consensus_apply(W, m, np.subtract(state.x, descent, out=descent))
    grads_new = batch_gradients(problem, x_new)
    tracker = state.g + grads_new
    tracker -= state.local_grads
    g_new = consensus_apply(W, m, tracker)
    if first_order:
        return (NetworkState(x=x_new, g=g_new, local_grads=grads_new),
                RoundMetrics(iter=k + 1, alpha_k=alpha, bits=n * xg_bits))

    diff = state.H - state.H_tilde
    packets = np.concatenate([diff, state.E + diff])
    Q = compress(params.compressor, packets)
    Q1, Q2 = Q[:n], Q[n:]
    H_tilde_new = state.H_tilde + Q1
    H_tilde_w_new = state.H_tilde_w + consensus_apply(W, 1, Q1)
    H_hat = state.H_tilde + Q2
    if params.variant == "reference":
        H_hat_w = consensus_apply(W, 1, H_hat)
        hess_bits = payload_bits(CompressorSpec("identity"), d)  # the dense reconstruction
    else:
        H_hat_w = state.H_tilde_w + consensus_apply(W, 1, Q2)
        hess_bits = 2 * payload_bits(params.compressor, d)
    E_new = packets[n:] - Q2  # (E + diff) - Q2, the error compression left
    hess_new = batch_hessians(problem, x_new)
    H_new = state.H - params.gamma * (H_hat - H_hat_w) + hess_new - state.local_hessians

    d_new, fallbacks, max_rel, asym = _solve_directions(H_new, g_new, params.M, problem.L1)
    return (NetworkState(x=x_new, g=g_new, H=H_new, H_tilde=H_tilde_new, E=E_new,
                         H_tilde_w=H_tilde_w_new, d_dir=d_new, local_grads=grads_new,
                         local_hessians=hess_new),
            RoundMetrics(iter=k + 1, alpha_k=alpha, c_k=params.cg_tol.at(k),
                         bits=n * (xg_bits + hess_bits), fallback_count=fallbacks,
                         cg_max_rel_residual=max_rel, hess_asymmetry=asym))


# ---------------------------------------------------------------------------
# full runs


def iterate(step_fn, state, problem: Problem, W: MixingMatrix, params, x_star: np.ndarray,
            delta: float, on_step=None) -> Trace:
    """Run ``step_fn(state, problem, W, params, k) -> (state, row)`` from the start
    ``state`` until ``run_status`` stops it or params.max_iters; every method's runs
    go through this loop. Iteration k's gossip depth is the rounds ``exchange(params.m,
    k, d)`` gives, as in the step; ``delta`` is the compressor's contraction factor (1.0
    for a run that compresses nothing).

    The loop times ``step_fn`` into ``wall_time``, fills the row's state metrics
    with ``fill_state_metrics(row, state, problem, x_star, W.sigma, rounds, delta,
    rel_err_den=, f_star=)`` and adds up ``bits_cum``. A non-finite start
    ends the run as "diverged" at iteration 0; its row is filled without numpy's
    warnings, which the note explains. ``on_step(k, state)`` sees the start (k = 0)
    before that test and the state after each iteration k, outside the timed part.
    """
    x_star = np.asarray(x_star, dtype=float)
    den = squared_distances(state.x, x_star)[0]
    f_star = global_value(problem, x_star)
    if on_step is not None:
        on_step(0, state)
    finite = _finite(state)
    with np.errstate(**({} if finite else {"invalid": "ignore", "over": "ignore"})):
        rows = [fill_state_metrics(RoundMetrics(iter=0), state, problem, x_star, W.sigma,
                                   exchange(params.m, 0, problem.d)[0], delta, rel_err_den=den, f_star=f_star)]
    if not finite:
        return Trace(rows, "diverged", note="non-finite iterate or tracker at iteration 0")
    bits_cum = 0
    status, note = "max_iters", ""
    for k in range(params.max_iters):
        t0 = time.perf_counter()
        state, row = step_fn(state, problem, W, params, k)
        row.wall_time = time.perf_counter() - t0
        fill_state_metrics(row, state, problem, x_star, W.sigma, exchange(params.m, k, problem.d)[0],
                           delta, rel_err_den=den, f_star=f_star)
        bits_cum += row.bits
        row.bits_cum = bits_cum
        rows.append(row)
        if on_step is not None:
            on_step(k + 1, state)
        finite = _finite(state)
        status = run_status(finite, row.rel_err, params.stop_tol)
        if status == "diverged":
            cause = (f"relative error {row.rel_err:.3e} exceeded {DIVERGENCE_LIMIT:.0e}"
                     if finite else "non-finite iterate or tracker")
            note = f"{cause} at iteration {k + 1}"
        if status != "max_iters":
            break
    return Trace(rows=rows, status=status, note=note)


def run_status(finite: bool, rel_err: float, stop_tol: float) -> str:
    """Every run's status after a step: "diverged" (state not ``finite``, rel_err NaN or
    past DIVERGENCE_LIMIT), "converged" (rel_err <= stop_tol), else "max_iters" (going on)."""
    if not (finite and rel_err <= DIVERGENCE_LIMIT):
        return "diverged"
    return "converged" if rel_err <= stop_tol else "max_iters"


def _finite(state: NetworkState) -> bool:
    """Whether every entry of x, g and (when tracked) H is finite. A finite
    sum implies it; the entrywise test settles a sum that overflowed."""
    return all(math.isfinite(a.sum()) or np.isfinite(a).all()
               for a in (state.x, state.g, state.H) if a is not None)


def run(problem: Problem, W: MixingMatrix, params: AlgoParams, x0: np.ndarray,
        oracle_xstar: np.ndarray, on_step=None) -> Trace:
    """Decentralized Newton run from ``init_state(problem, x0)``; ``on_step`` is ``iterate``'s.
    A compressor K too large for ``problem.d`` raises a ``ValueError`` before the run starts."""
    delta = delta_bound(params.compressor, problem.d)
    return iterate(step, init_state(problem, x0), problem, W, params, oracle_xstar, delta, on_step=on_step)


def max_state_deviation(a: NetworkState, b: NetworkState) -> float:
    """Largest entrywise difference across the state arrays both hold."""
    dev = 0.0
    for field in fields(NetworkState):
        arr_a, arr_b = getattr(a, field.name), getattr(b, field.name)
        if arr_a is not None and arr_b is not None:
            dev = max(dev, float(np.max(np.abs(arr_a - arr_b))))
    return dev


def run_lockstep(problem: Problem, W: MixingMatrix, params: AlgoParams,
                 x0: np.ndarray, iters: int):
    """Step both variants from the same state each iteration and continue from
    the efficient one; returns each step's ``max_state_deviation``."""
    eff_params, ref_params = (replace(params, variant=v) for v in VARIANTS)
    state = init_state(problem, x0)
    deviations = []
    for k in range(iters):
        ref, _ = step(state, problem, W, ref_params, k)
        state, _ = step(state, problem, W, eff_params, k)
        deviations.append(max_state_deviation(ref, state))
    return deviations
