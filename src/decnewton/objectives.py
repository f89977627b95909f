"""Finite-sum problem instances with per-node gradient/Hessian evaluators.

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
from scipy.special import expit

__all__ = [
    "Problem",
    "QuadraticInstance",
    "LogisticInstance",
    "make_quadratic",
    "make_logistic",
    "eval_gradient",
    "eval_hessian",
    "batch_gradients",
    "batch_hessians",
    "global_value",
    "global_gradient",
    "global_hessian",
    "centralized_solve",
    "estimate_constants",
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
    seed: int | None = None

    @property
    def kappa_F(self) -> float:
        return self.L1 / self.mu


def make_quadratic(n: int, d: int, kappa_target: float, seed: int, spread: float = 0.4) -> Problem:
    """Quadratic instance whose average Hessian has condition number kappa_target.

    All nodes share one random eigenbasis. The mean spectrum is log-uniform
    on [1, kappa] with the extremes pinned to 1 and kappa, and each node
    perturbs it with a zero-mean multiplicative jitter, so ``Qbar`` hits the
    target condition number exactly while every ``Q_i`` stays positive
    definite and the nodes remain genuinely heterogeneous.
    """
    if kappa_target < 1:
        raise ValueError(f"kappa_target must be >= 1, got {kappa_target}")
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
    return Problem(family="quadratic", n=n, d=d, data=data, L1=L1, L2=L2, mu=mu, seed=seed)


def make_logistic(n: int, d: int, m_per_node: int, rho: float, seed: int) -> Problem:
    """Regularized logistic regression with standard Gaussian features."""
    if m_per_node < 1:
        raise ValueError(f"m_per_node must be >= 1, got {m_per_node}")
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((n, m_per_node, d))
    labels = rng.choice(np.array([-1.0, 1.0]), size=(n, m_per_node))
    data = LogisticInstance(samples=samples, labels=labels, rho=rho)
    L1, L2, mu = _constants_logistic(data)
    return Problem(family="logistic", n=n, d=d, data=data, L1=L1, L2=L2, mu=mu, seed=seed)


# ---------------------------------------------------------------------------
# evaluators


def _check_index(problem: Problem, i: int) -> None:
    if not 0 <= i < problem.n:
        raise IndexError(f"node index {i} out of range for n={problem.n}")


def local_value(problem: Problem, i: int, x: np.ndarray) -> float:
    _check_index(problem, i)
    x = np.asarray(x, dtype=float)
    if problem.family == "quadratic":
        Q, p = problem.data.Q[i], problem.data.p[i]
        return float(0.5 * x @ Q @ x + p @ x)
    O, y, rho = problem.data.samples[i], problem.data.labels[i], problem.data.rho
    z = (O @ x) * y
    # ln(1 + exp(-z)) evaluated stably
    return float(0.5 * rho * x @ x + problem.n * np.logaddexp(0.0, -z).sum())


def eval_gradient(problem: Problem, i: int, x: np.ndarray) -> np.ndarray:
    _check_index(problem, i)
    x = np.asarray(x, dtype=float)
    if problem.family == "quadratic":
        return problem.data.Q[i] @ x + problem.data.p[i]
    O, y, rho = problem.data.samples[i], problem.data.labels[i], problem.data.rho
    z = (O @ x) * y
    return rho * x - problem.n * ((expit(-z) * y) @ O)


def eval_hessian(problem: Problem, i: int, x: np.ndarray) -> np.ndarray:
    _check_index(problem, i)
    x = np.asarray(x, dtype=float)
    if problem.family == "quadratic":
        return problem.data.Q[i].copy()
    O, y, rho = problem.data.samples[i], problem.data.labels[i], problem.data.rho
    z = (O @ x) * y
    w = expit(z) * expit(-z)
    return rho * np.eye(problem.d) + problem.n * ((O.T * w) @ O)


def batch_gradients(problem: Problem, xb: np.ndarray) -> np.ndarray:
    """Gradients of every f_i at its own block: xb (n, d) -> (n, d), or at C
    blocks each, (n, C, d) -> (n, C, d), every column bit for bit as alone."""
    xb = np.asarray(xb, dtype=float)
    per_node = (slice(None),) + (None,) * (xb.ndim - 2)  # (n, k) data over the candidates
    if problem.family == "quadratic":
        return np.einsum("nij,n...j->n...i", problem.data.Q, xb) + problem.data.p[per_node]
    O, y, rho = problem.data.samples, problem.data.labels[per_node], problem.data.rho
    z = np.einsum("nmd,n...d->n...m", O, xb) * y
    return rho * xb - problem.n * np.einsum("n...m,nmd->n...d", expit(-z) * y, O)


def batch_hessians(problem: Problem, xb: np.ndarray) -> np.ndarray:
    """Hessians of every f_i at its own block: xb (n, d) -> (n, d, d)."""
    xb = np.asarray(xb, dtype=float)
    if problem.family == "quadratic":
        return problem.data.Q.copy()
    O, y, rho = problem.data.samples, problem.data.labels, problem.data.rho
    z = np.einsum("nmd,nd->nm", O, xb) * y
    w = expit(z) * expit(-z)
    H = problem.n * ((O * w[..., None]).transpose(0, 2, 1) @ O)
    H += rho * np.eye(problem.d)[None, :, :]
    return H


def global_value(problem: Problem, x: np.ndarray) -> float:
    """F(x) = (1/n) sum_i f_i(x) at one common point."""
    x = np.asarray(x, dtype=float)
    if problem.family == "quadratic":
        return float(0.5 * x @ problem.data.Qbar @ x + problem.data.pbar @ x)
    O, y, rho = problem.data.samples, problem.data.labels, problem.data.rho
    z = np.einsum("nmd,d->nm", O, x) * y
    return float(0.5 * rho * x @ x + np.logaddexp(0.0, -z).sum())


def global_gradient(problem: Problem, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if problem.family == "quadratic":
        return problem.data.Qbar @ x + problem.data.pbar
    O, y, rho = problem.data.samples, problem.data.labels, problem.data.rho
    z = np.einsum("nmd,d->nm", O, x) * y
    return rho * x - np.einsum("nm,nmd->d", expit(-z) * y, O)


def global_hessian(problem: Problem, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if problem.family == "quadratic":
        return problem.data.Qbar
    O, y, rho = problem.data.samples, problem.data.labels, problem.data.rho
    z = np.einsum("nmd,d->nm", O, x) * y
    w = expit(z) * expit(-z)
    return rho * np.eye(problem.d) + np.einsum("nm,nmd,nme->de", w, O, O)


# ---------------------------------------------------------------------------
# oracles


def centralized_solve(problem: Problem, tol: float = 1e-12, max_iters: int = 100) -> np.ndarray:
    """Minimize F with a damped Newton iteration until ||grad F|| <= tol."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    x = np.zeros(problem.d)
    fx = global_value(problem, x)
    for _ in range(max_iters):
        grad = global_gradient(problem, x)
        if np.linalg.norm(grad) <= tol:
            return x
        H = global_hessian(problem, x)
        step = np.linalg.solve(H, grad)
        t = 1.0
        decrement = float(grad @ step)
        for _ in range(60):
            trial = x - t * step
            f_trial = global_value(problem, trial)
            if f_trial <= fx - 1e-4 * t * decrement:
                break
            t *= 0.5
        x = x - t * step
        fx = global_value(problem, x)
    grad = global_gradient(problem, x)
    if np.linalg.norm(grad) <= tol:
        return x
    raise RuntimeError(
        f"centralized Newton did not reach tol={tol} in {max_iters} iterations "
        f"(final ||grad||={np.linalg.norm(grad):.3e}); instance may be ill-posed"
    )


def estimate_constants(problem: Problem):
    """Return (L1, L2, mu) recomputed from the instance data."""
    if problem.family == "quadratic":
        return _constants_quadratic(problem.data)
    return _constants_logistic(problem.data)


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
