"""Finite-sum problem instances with batched per-node and global derivatives.

Two families:

* quadratic: ``f_i(x) = 0.5 x^T Q_i x + p_i^T x`` with every ``Q_i``
  symmetric positive definite and the average ``Qbar`` conditioned exactly
  to a requested ``kappa``.
* logistic: ``f_i(x) = (rho/2) ||x||^2 + n * sum_j ln(1 + exp(-(o_ij^T x) p_ij))``.
  The ``n`` multiplier on the sample loss and the per-node split of the
  ridge term make the network average ``(1/n) sum_i f_i`` equal to the
  plain (un-averaged) regularized logistic loss over all samples.

A ``Problem`` carries the instance data plus the smoothness/convexity
constants L1 (gradient Lipschitz), L2 (Hessian Lipschitz), and mu (strong
convexity of the average objective F). ``centralized_solve`` is the oracle
that pre-computes the minimizer of F to high accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Problem",
    "QuadraticInstance",
    "LogisticInstance",
    "make_quadratic",
    "make_logistic",
    "batch_gradients",
    "batch_hessians",
    "global_value",
    "global_gradient",
    "global_hessian",
    "centralized_solve",
]


@dataclass(frozen=True)
class QuadraticInstance:
    Q: np.ndarray  # (n, d, d), each symmetric positive definite
    p: np.ndarray  # (n, d)

    # Averages for F and its derivatives: computed once, handed out read-only.
    @cached_property
    def Qbar(self) -> np.ndarray:
        Qbar = self.Q.mean(axis=0)
        Qbar.flags.writeable = False
        return Qbar

    @cached_property
    def pbar(self) -> np.ndarray:
        pbar = self.p.mean(axis=0)
        pbar.flags.writeable = False
        return pbar


@dataclass(frozen=True)
class LogisticInstance:
    samples: np.ndarray  # (n, m, d)
    labels: np.ndarray   # (n, m), entries in {-1, +1}
    rho: float


@dataclass(frozen=True)
class Problem:
    """Immutable finite-sum instance: data plus (L1, L2, mu)."""

    family: str
    n: int
    d: int
    data: object
    L1: float
    L2: float
    mu: float


def make_quadratic(n: int, d: int, kappa_target: float, seed: int, spread: float = 0.4) -> Problem:
    """Quadratic instance whose average Hessian has condition number kappa_target.

    All nodes share one random eigenbasis. The mean spectrum is log-uniform
    on [1, kappa] with the extremes pinned to 1 and kappa, and each node
    perturbs it with a zero-mean multiplicative jitter, so ``Qbar`` hits the
    target condition number exactly while every ``Q_i`` stays positive
    definite and the nodes remain genuinely heterogeneous.
    """
    if not 1 <= kappa_target < np.inf:  # NaN fails too
        raise ValueError(f"kappa must be finite and >= 1, got {kappa_target}")
    if d == 1 and kappa_target != 1:
        raise ValueError("a 1-dimensional quadratic cannot have kappa > 1")
    if not 0 <= spread < 0.5:
        raise ValueError(f"jitter spread must lie in [0, 0.5), got {spread}")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d, d))
    U, R = np.linalg.qr(G)
    U = U * np.sign(np.diag(R))  # make the QR factor deterministic in sign
    s = np.exp(rng.uniform(0.0, np.log(kappa_target) if kappa_target > 1 else 0.0, size=d))
    s = np.sort(s)
    if d >= 2:
        s[0] = 1.0
        s[-1] = kappa_target
    eta = rng.uniform(-spread, spread, size=(n, d))
    eta -= eta.mean(axis=0)  # exact zero mean per direction -> cond(Qbar) exact
    lam = s[None, :] * (1.0 + eta)
    Q = np.einsum("ij,nj,kj->nik", U, lam, U)
    Q = 0.5 * (Q + np.swapaxes(Q, 1, 2))
    p = rng.standard_normal((n, d))
    data = QuadraticInstance(Q=Q, p=p)
    L1, L2, mu = _constants_quadratic(data)
    return Problem(family="quadratic", n=n, d=d, data=data, L1=L1, L2=L2, mu=mu)


def make_logistic(n: int, d: int, m_per_node: int, rho: float, seed: int) -> Problem:
    """Regularized logistic regression with standard Gaussian features."""
    if m_per_node < 1:
        raise ValueError(f"m_per_node must be >= 1, got {m_per_node}")
    if not 0 < rho < np.inf:  # NaN fails too
        raise ValueError(f"rho must be finite and positive, got {rho}")
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((n, m_per_node, d))
    labels = rng.choice(np.array([-1.0, 1.0]), size=(n, m_per_node))
    data = LogisticInstance(samples=samples, labels=labels, rho=rho)
    L1, L2, mu = _constants_logistic(data)
    return Problem(family="logistic", n=n, d=d, data=data, L1=L1, L2=L2, mu=mu)


# ---------------------------------------------------------------------------
# evaluators
#
# The per-node kernels contract each node's data with its own block as a row
# vector times a matrix, broadcast over any candidate axes: one BLAS call per
# node and column, so a column of an (n, C, d) stack gets the bits it gets alone.
# Blocks are made C-contiguous first: a row that is not unit-stride would take
# numpy's own loop instead of BLAS, and other bits. F and its derivatives take
# the same products at x on every node and add them up in node order: no product
# is large enough for BLAS to split, so the bits ignore the BLAS thread count.
# The logistic sigmoid parts take one e = exp(-|z|) in [0, 1] per margin: they
# overflow at no margin, and past |z| = 709.78 they keep exp's subnormal tail.


def _per_node(data: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Node-indexed ``data`` with an axis of 1 for each candidate axis of ``xb``."""
    return data[(slice(None),) + (None,) * (xb.ndim - 2)]


def _margins(data: LogisticInstance, xb: np.ndarray) -> np.ndarray:
    """z_ij = (o_ij^T x_i) y_ij as (n, ..., 1, m) rows, for ``xb`` (n, ..., d)."""
    O = _per_node(data.samples, xb)
    return (xb[..., None, :] @ np.swapaxes(O, -1, -2)) * _per_node(data.labels, xb)[..., None, :]


def _neg_loss_grads(data: LogisticInstance, xb: np.ndarray) -> np.ndarray:
    """sum_j sigmoid(-z_ij) y_ij o_ij, each node's sample-loss gradient negated: (n, ..., d).

    sigmoid(-z) = e / (1 + e) for z > 0 and 1 / (1 + e) otherwise."""
    z = _margins(data, xb)
    e = np.exp(-np.abs(z))
    s = np.where(z > 0, e, 1.0) / (1.0 + e) * _per_node(data.labels, xb)[..., None, :]
    return (s @ _per_node(data.samples, xb))[..., 0, :]


def _loss_hessians(data: LogisticInstance, xb: np.ndarray) -> np.ndarray:
    """sum_j sigmoid'(z_ij) o_ij o_ij^T, each node's sample-loss Hessian: (n, d, d).

    sigmoid'(z) = sigmoid(z) sigmoid(-z) = e / (1 + e)^2 at either sign of z."""
    e = np.exp(-np.abs(_margins(data, xb)[:, 0, :]))
    w = e / ((1.0 + e) * (1.0 + e))
    return (data.samples * w[..., None]).transpose(0, 2, 1) @ data.samples


def batch_gradients(problem: Problem, xb: np.ndarray) -> np.ndarray:
    """Gradients of every f_i at its own block: xb (n, d) -> (n, d), or at C
    blocks each, (n, C, d) -> (n, C, d), every column bit for bit as alone.

    The quadratic gradient is taken as ``x^T Q_i``, which is ``(Q_i x)^T``
    because ``make_quadratic`` makes every ``Q_i`` exactly symmetric."""
    xb = np.ascontiguousarray(xb, dtype=float)
    data = problem.data
    if problem.family == "quadratic":
        return (xb[..., None, :] @ _per_node(data.Q, xb))[..., 0, :] + _per_node(data.p, xb)
    return data.rho * xb - problem.n * _neg_loss_grads(data, xb)


def batch_hessians(problem: Problem, xb: np.ndarray) -> np.ndarray:
    """Hessians of every f_i at its own block: xb (n, d) -> (n, d, d)."""
    xb = np.ascontiguousarray(xb, dtype=float)
    if problem.family == "quadratic":
        return problem.data.Q.copy()
    return problem.n * _loss_hessians(problem.data, xb) + problem.data.rho * np.eye(problem.d)


def global_value(problem: Problem, x: np.ndarray) -> float:
    """F(x) = (1/n) sum_i f_i(x) at one common point."""
    x = np.asarray(x, dtype=float)
    if problem.family == "quadratic":
        return float(0.5 * x @ problem.data.Qbar @ x + problem.data.pbar @ x)
    z = _margins(problem.data, np.broadcast_to(x, (problem.n, problem.d)))
    return float(0.5 * problem.data.rho * x @ x + np.logaddexp(0.0, -z).sum())


def global_gradient(problem: Problem, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if problem.family == "quadratic":
        return problem.data.Qbar @ x + problem.data.pbar
    neg_grads = _neg_loss_grads(problem.data, np.broadcast_to(x, (problem.n, problem.d)))
    return problem.data.rho * x - np.add.reduce(neg_grads, axis=0)


def global_hessian(problem: Problem, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if problem.family == "quadratic":
        return problem.data.Qbar
    hessians = _loss_hessians(problem.data, np.broadcast_to(x, (problem.n, problem.d)))
    return problem.data.rho * np.eye(problem.d) + np.add.reduce(hessians, axis=0)


# ---------------------------------------------------------------------------
# oracles


# A stalled oracle accepts ||grad F|| <= _ROUNDOFF_MULTIPLE * eps * ||grad F(0)||.
_ROUNDOFF_MULTIPLE = 1e4


def centralized_solve(problem: Problem, tol: float = 1e-12, max_iters: int = 100) -> np.ndarray:
    """Minimize F with a damped Newton iteration until ||grad F|| <= tol.

    A Newton decrement within F's own roundoff (``4 eps |F|``) is below what the Armijo
    test can see, so that step is taken in full. ``tol`` can lie below the roundoff
    floor of grad F: when such a step stops lowering ||grad F||, x stops moving, or at
    ``max_iters``, ||grad F|| <= ``_ROUNDOFF_MULTIPLE * eps * ||grad F(0)||`` is accepted too.
    """
    if not tol > 0:  # NaN fails too: no norm is <= nan, and the oracle would run to its floor
        raise ValueError(f"tol must be positive, got {tol}")
    x = np.zeros(problem.d)
    fx, grad = global_value(problem, x), global_gradient(problem, x)
    floor = _ROUNDOFF_MULTIPLE * np.finfo(float).eps * float(np.linalg.norm(grad))
    for _ in range(max_iters):
        norm = float(np.linalg.norm(grad))
        if norm <= tol:
            return x
        step = np.linalg.solve(global_hessian(problem, x), grad)
        decrement = float(grad @ step)
        t, roundoff = 1.0, decrement <= 4 * np.finfo(float).eps * abs(fx)
        if not roundoff:
            for _ in range(60):
                if global_value(problem, x - t * step) <= fx - 1e-4 * t * decrement:
                    break
                t *= 0.5
        x_new = x - t * step
        grad_new = global_gradient(problem, x_new)
        if np.array_equal(x_new, x) or roundoff and np.linalg.norm(grad_new) >= norm:
            break  # stalled: no later step can lower ||grad F||
        x, fx, grad = x_new, global_value(problem, x_new), grad_new
    norm = float(np.linalg.norm(grad))
    if norm <= tol or norm <= floor:
        return x
    raise RuntimeError(f"centralized Newton did not reach tol={tol} or the roundoff floor "
                       f"{floor:.3e} in {max_iters} iterations (final ||grad||={norm:.3e}); "
                       "instance may be ill-posed")


def _constants_quadratic(data: QuadraticInstance):
    L1 = float(np.linalg.eigvalsh(data.Q)[:, -1].max())
    mu = float(np.linalg.eigvalsh(data.Qbar)[0])
    return L1, 0.0, mu


def _constants_logistic(data: LogisticInstance):
    S, rho = data.samples, data.rho
    n = S.shape[0]
    lmax = float(np.linalg.eigvalsh(np.swapaxes(S, 1, 2) @ S)[:, -1].max())
    L1 = rho + n * 0.25 * lmax
    cubes = np.linalg.norm(S, axis=2) ** 3  # (n, m)
    L2 = n * float(cubes.sum(axis=1).max()) / (6.0 * np.sqrt(3.0))
    return float(L1), L2, float(rho)
