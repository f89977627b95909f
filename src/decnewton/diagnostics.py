"""Per-iteration convergence diagnostics and parameter-cap reports.

Everything the simulator records about one iteration lives in a
``RoundMetrics`` row; a ``Trace`` is the ordered list of rows plus the run
status. The headline quantity is the relative error
``(1/n) ||x - x*_stacked||^2 / ||x0 - x*_stacked||^2``. Alongside it we
evaluate three weighted Lyapunov aggregates,

* ``u1`` combines the consensus error, the gradient-tracking error, and the
  averaged optimality gap with weights ``(1, (1-sigma^2)^2/50, 2 sigma^(m-1))``,
* ``u2`` combines the compression error ``||E||_F``, the compressor-state
  difference ``||H - Htilde||_F``, and the Hessian tracking error with
  weights ``(delta(1-sigma)/(8(1-delta)), (1-sigma)/4, 1)``,
* ``u3`` combines the unsquared consensus error, gradient-tracking error,
  and mean-iterate error with weights ``(1, sigma^(-m/4), 0.5 sigma^(-3m/4))``,

plus the local-phase coefficients ``eps_k`` and ``delta_k`` built from the
Hessian tracking error and the distance of the mean iterate to the optimum.
``fit_rate`` extracts empirical contraction factors from a trace window, and
``theoretical_caps`` echoes the parameter bounds under which the two-phase
rate guarantees hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .objectives import global_value

__all__ = [
    "RoundMetrics",
    "Trace",
    "RateFit",
    "CapsReport",
    "CSV_COLUMNS",
    "fill_state_metrics",
    "relative_error",
    "fit_rate",
    "stage_two_window",
    "gamma_cap",
    "alpha_cap",
    "stage1_cg_cap",
    "stage2_cg_cap",
    "stage2_m_threshold",
    "theoretical_caps",
]

_NAN = float("nan")
ROUNDOFF_FLOOR = 1e-24  # a rel_err below this is floating-point roundoff, not progress


@dataclass(slots=True)
class RoundMetrics:
    """One iteration's worth of diagnostics (CSV columns first). Slotted: a
    run keeps every row, and a misspelt field raises instead of riding along
    unserialized."""

    iter: int = 0
    rel_err: float = _NAN
    cons_x: float = _NAN
    track_g: float = _NAN
    track_H: float = _NAN
    err_E: float = _NAN
    diff_Htilde: float = _NAN
    u1: float = _NAN
    u2: float = _NAN
    u3: float = _NAN
    eps_k: float = _NAN
    delta_k: float = _NAN
    alpha_k: float = 0.0
    c_k: float = 0.0
    fallback_count: int = 0
    bits_cum: int = 0
    wall_time: float = 0.0
    # extras (not serialized)
    bits: int = 0
    dac_g: float = _NAN
    dac_H: float = _NAN
    cg_max_rel_residual: float = 0.0
    hess_asymmetry: float = _NAN


# Fixed trace-CSV schema, in column order: the RoundMetrics fields up to
# wall_time. The later fields are in-process diagnostics and never serialized.
CSV_COLUMNS = [f.name for f in fields(RoundMetrics)]
del CSV_COLUMNS[CSV_COLUMNS.index("wall_time") + 1:]


@dataclass
class Trace:
    """Ordered RoundMetrics rows plus run outcome and config fingerprint."""

    rows: list
    status: str = "max_iters"  # converged | max_iters | diverged
    fingerprint: str = ""
    label: str = ""
    note: str = ""

    @property
    def final_rel_err(self) -> float:
        return self.rows[-1].rel_err

    @property
    def iterations(self) -> int:
        return self.rows[-1].iter

    def _first_within(self, tol: float):
        """The first row with rel_err <= tol, or None if no row reaches it."""
        return next((r for r in self.rows if r.rel_err <= tol), None)

    def iters_to(self, tol: float) -> int:
        """First iteration index with rel_err <= tol, or -1 if never reached."""
        row = self._first_within(tol)
        return -1 if row is None else row.iter

    def bits_to(self, tol: float) -> int:
        """Cumulative bits at ``iters_to(tol)``, or -1 if never reached."""
        row = self._first_within(tol)
        return -1 if row is None else row.bits_cum


def _local_floor(mu: float) -> float:
    return 40.0 * mu / 41.0


def _weight(sigma: float, exponent: float) -> float:
    """``sigma ** exponent``, or inf where it overflows a float (sigma < 1 and a
    large negative exponent, as at m in the tens of thousands)."""
    try:
        return sigma ** exponent
    except OverflowError:
        return math.inf


def fill_state_metrics(row: RoundMetrics, state, problem, x_star, sigma: float, m: int,
                       delta: float, rel_err_den: float | None = None,
                       f_star: float | None = None) -> RoundMetrics:
    """Populate the state-derived fields of an existing row in place and
    return it. The Lyapunov weights take the run's ``sigma``, gossip rounds
    ``m`` and compressor ``delta``, the problem's ``L1``, ``L2`` and ``mu``,
    and the local-phase floor M1 = 40 mu / 41; ``eps_k`` reads the row's own
    ``c_k``.

    ``state`` needs attributes x, g (n, d) and optionally H, H_tilde, E
    (n, d, d) plus the cached local gradients/Hessians; the Hessian-side
    metrics come out NaN when those are absent (first-order runs).
    """
    x, g = state.x, state.g
    L1, L2, mu = problem.L1, problem.L2, problem.mu
    n = x.shape[0]
    xbar = x.sum(axis=0) / n
    gbar = g.sum(axis=0) / n
    cons_x = _norm(x - xbar)
    track_g = _norm(g - gbar)
    row.cons_x = cons_x
    row.track_g = track_g

    err_mean = _norm(xbar - x_star)
    if rel_err_den is not None:
        row.rel_err = relative_error(x, x_star, rel_err_den)

    if f_star is None:
        f_star = global_value(problem, np.asarray(x_star))
    gap = global_value(problem, xbar) - f_star
    q1 = (cons_x ** 2, track_g ** 2 / L1 ** 2, n * gap / L1)
    row.u1 = q1[0] + (1 - sigma ** 2) ** 2 / 50.0 * q1[1] + 2.0 * sigma ** (m - 1) * q1[2]

    if sigma > 0:
        row.u3 = cons_x + _weight(sigma, -m / 4.0) * track_g / L1 \
            + 0.5 * _weight(sigma, -3.0 * m / 4.0) * math.sqrt(n) * err_mean
    else:
        row.u3 = _NAN  # weights blow up at sigma = 0 (exact averaging)
    row.delta_k = L2 / (2.0 * mu) * err_mean

    if getattr(state, "local_grads", None) is not None:
        row.dac_g = float(np.abs(gbar - state.local_grads.sum(axis=0) / n).max())

    H = getattr(state, "H", None)
    if H is not None:
        Hbar = H.sum(axis=0) / n
        track_H = _norm(H - Hbar)
        row.track_H = track_H
        row.err_E = _norm(state.E)
        row.diff_Htilde = _norm(H - state.H_tilde)
        if delta >= 1.0:
            e_weight = 0.0  # exact compressor: E is identically zero
        else:
            e_weight = delta * (1 - sigma) / (8.0 * (1 - delta))
        row.u2 = e_weight * row.err_E + (1 - sigma) / 4.0 * row.diff_Htilde + track_H
        row.eps_k = (L2 / math.sqrt(n) * cons_x + track_H / math.sqrt(n) + row.c_k * mu) \
            / _local_floor(mu)
        if getattr(state, "local_hessians", None) is not None:
            row.dac_H = _norm(Hbar - state.local_hessians.sum(axis=0) / n)
    return row


def relative_error(x: np.ndarray, x_star: np.ndarray, den: float):
    """``(1/n) ||x - x*_stacked||^2 / den`` of each run of the ``(n, C, d)`` stack ``x`` in a
    list, or of the ``(n, d)`` block ``x``; ``den`` is the start's, and <= 0 gives 0.0."""
    errs = [(sq / x.shape[0]) / den if den > 0 else 0.0 for sq in squared_distances(x, x_star)]
    return errs if x.ndim == 3 else errs[0]


def squared_distances(x: np.ndarray, x_star: np.ndarray) -> list:
    """``||x - x*_stacked||^2`` of each run of an ``(n, C, d)`` stack or ``(n, d)`` block; each
    run's x - x* is written C-ordered and takes ``_norm``'s dot, so it gets its bits alone."""
    stack = x if x.ndim == 3 else x[:, None]
    v = np.subtract(stack.transpose(1, 0, 2), x_star, order="C").reshape(stack.shape[1], -1)
    return [math.sqrt(sq) ** 2 for sq in _row_dots(v).tolist()]


# OpenBLAS splits a dot product of more entries than this across its threads.
_DOT_CHUNK = 10_000


def _row_dots(v: np.ndarray) -> np.ndarray:
    """``v[r] @ v[r]`` of each row of the 2-D ``v``: a longer row than ``_DOT_CHUNK`` adds up
    its chunks' dots in order, so its bits do not depend on the BLAS thread count."""
    dots = np.vecdot(v[:, :_DOT_CHUNK], v[:, :_DOT_CHUNK])
    for i in range(_DOT_CHUNK, v.shape[1], _DOT_CHUNK):
        dots += np.vecdot(v[:, i:i + _DOT_CHUNK], v[:, i:i + _DOT_CHUNK])
    return dots


def _norm(a: np.ndarray) -> float:
    """Frobenius norm of any array: the square root of the flattened array's ``_row_dots``,
    as np.linalg.norm(a) computes it (one dot up to ``_DOT_CHUNK``), without its overhead."""
    return math.sqrt(_row_dots(a.ravel(order="K")[None])[0])


# ---------------------------------------------------------------------------
# empirical contraction rates


@dataclass(frozen=True)
class RateFit:
    window: tuple
    rho_hat: float
    r2: float


def fit_rate(trace: Trace, window: tuple, field: str = "rel_err") -> RateFit:
    """Least-squares geometric rate of a trace column over an iteration window.

    ``rel_err`` is a squared norm, so the per-iteration contraction factor is
    ``exp(slope/2)``; unsquared columns (``cons_x``, ``track_g``, ...) use
    ``exp(slope)``. Raises on windows shorter than 5 points, non-positive
    values, or a constant column (zero slope, r2 undefined).
    """
    lo, hi = window
    ks, vals = [], []
    for r in trace.rows:
        if lo <= r.iter <= hi:
            ks.append(r.iter)
            vals.append(getattr(r, field))
    if len(ks) < 5:
        raise ValueError(f"window {window} holds {len(ks)} points; need at least 5")
    vals = np.asarray(vals, dtype=float)
    if not np.all(vals > 0):
        raise ValueError(f"{field} must be positive over the window to fit a rate")
    y = np.log(vals)
    if np.ptp(y) == 0.0:
        raise ValueError(f"{field} is constant over the window; rate undefined")
    ks = np.asarray(ks, dtype=float)
    slope, intercept = np.polyfit(ks, y, 1)
    fitted = slope * ks + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    rho = math.exp(slope / 2.0) if field == "rel_err" else math.exp(slope)
    return RateFit(window=(lo, hi), rho_hat=float(rho), r2=float(r2))


def stage_two_window(trace: Trace, floor: float = ROUNDOFF_FLOOR, skip: int = 2) -> tuple:
    """Iteration window where the step-size ramp is saturated at 1 and the
    relative error is still above the floating-point floor."""
    sat = [r.iter for r in trace.rows if r.alpha_k == 1.0]
    if len(sat) <= skip:
        raise ValueError("trace never saturates the step-size ramp")
    lo = sat[skip]
    hi = lo
    for r in trace.rows:
        if r.iter >= lo and r.rel_err > floor:
            hi = r.iter
    if hi - lo < 4:
        raise ValueError(f"stage-two window [{lo}, {hi}] too short to fit")
    return lo, hi


# ---------------------------------------------------------------------------
# parameter caps for the two-phase guarantees


def gamma_cap(delta: float, sigma: float) -> float:
    """Hessian-consensus step bound for the global phase."""
    return delta ** 2 * (1 - sigma) / 50.0


def alpha_cap(M1: float, M2: float, L1: float, sigma: float, m: int) -> float:
    """Step-size bound for the global phase. Where ``sigma ** (m - 1)`` underflows
    to 0 the first term takes its limit, inf, and the second is the bound."""
    den = 100.0 * L1 * M2 * sigma ** (m - 1)
    return min(
        M1 ** 2 * (1 - sigma ** 2) ** 3 / den if den > 0 else math.inf,
        M1 ** 2 / (200.0 * L1 * M2),
    )


def stage1_cg_cap(M1: float, M2: float, kappa_F: float) -> float:
    return M1 / (4.0 * M2 * math.sqrt(2.0 * kappa_F))


def stage2_cg_cap(mu: float, kappa_F: float, sigma: float, m: int) -> float:
    return _local_floor(mu) * sigma ** (m / 2.0) / (40.0 * mu * kappa_F)


def stage2_m_threshold(kappa_F: float, sigma: float) -> float:
    """Consensus rounds beyond which the local phase contracts at sigma^(m/2)."""
    if sigma <= 0.0:
        return 0.0
    return 4.0 * math.log(4.0 * kappa_F) / (-math.log(sigma))


@dataclass(frozen=True)
class CapsReport:
    """Echo of the theory-side parameter caps for one instance + topology."""

    n: int
    sigma: float
    m: int
    delta: float
    L1: float
    L2: float
    mu: float
    kappa_F: float
    u1_0: float
    u2_0: float
    C: float
    u2_tilde_0: float
    M_lower: float
    M1_stage1: float
    M2_stage1: float
    alpha_cap_stage1: float
    cg_cap_stage1: float
    gamma_cap: float
    m_threshold_stage2: float
    cg_cap_stage2: float
    phi: float
    K_stage1: float

    def render(self) -> str:
        lines = [
            "parameter caps for the two-phase schedule",
            f"  instance: n={self.n}  L1={self.L1:.6g}  L2={self.L2:.6g}  mu={self.mu:.6g}  kappa_F={self.kappa_F:.6g}",
            f"  topology: sigma={self.sigma:.6g}  m={self.m}  compressor delta={self.delta:.6g}",
            f"  initialization: u1_0={self.u1_0:.6g}  u2_0={self.u2_0:.6g}  C={self.C:.6g}  u2~_0={self.u2_tilde_0:.6g}",
            "global phase (small constant step):",
            f"  M  >= {self.M_lower:.6g}   (then M1={self.M1_stage1:.6g}, M2={self.M2_stage1:.6g})",
            f"  alpha <= {self.alpha_cap_stage1:.6g}",
            f"  cg tol c_k <= {self.cg_cap_stage1:.6g}",
            f"  gamma <= {self.gamma_cap:.6g}",
            "local phase (unit step, M = 0):",
            f"  m > {self.m_threshold_stage2:.6g}",
            f"  cg tol c_k <= {self.cg_cap_stage2:.6g}",
            f"  gamma <= 1",
            "phase switch (diagnostic only; depends on initialization constants):",
            f"  phi = {self.phi:.6g}",
            f"  K  >= {self.K_stage1:.6g}",
        ]
        return "\n".join(lines)


def theoretical_caps(problem, sigma: float, m: int, delta: float,
                     u1_0: float, u2_0: float) -> CapsReport:
    """Compute the parameter caps of the two-phase guarantees.

    ``u1_0``/``u2_0`` are the Lyapunov values at the intended initialization
    (they gate nothing at runtime; the caller evaluates them via
    ``fill_state_metrics`` on the initial state). The constants C and u2~_0 are
    mutually coupled with the step caps, so one fixed-point refinement pass
    resolves them; K can come out astronomically large or non-finite for
    some initializations and is reported verbatim.
    """
    L1, L2, mu = problem.L1, problem.L2, problem.mu
    n = problem.n
    kappa = L1 / mu
    root_term = L2 * math.sqrt(max(u1_0, 0.0) / n)

    g_cap, u2t = gamma_cap(delta, sigma), u2_0
    for _ in range(2):  # a provisional pass with u2~_0 ~ u2_0, then C refined once
        M_lower = root_term + u2t
        M2 = L1 + M_lower + root_term + u2t
        a_cap = alpha_cap(mu, M2, L1, sigma, m)  # M1 = mu at the minimal M
        C = _compression_offset(L2, sigma, m, u1_0, mu, a_cap, M2, g_cap)
        if math.isfinite(C):
            u2t = max(u2_0 - C, C)
    c1 = stage1_cg_cap(mu, M2, kappa)

    phi = max(1.0 - g_cap * (1 - sigma) / 2.0, 1.0 - mu * a_cap / (4.0 * M2))
    K = _phase_switch_iterations(kappa, mu, n, sigma, m, L2, u1_0, u2t, phi)

    return CapsReport(
        n=n, sigma=sigma, m=m, delta=delta, L1=L1, L2=L2, mu=mu, kappa_F=kappa,
        u1_0=u1_0, u2_0=u2_0, C=C, u2_tilde_0=u2t,
        M_lower=M_lower, M1_stage1=mu, M2_stage1=M2,
        alpha_cap_stage1=a_cap, cg_cap_stage1=c1, gamma_cap=g_cap,
        m_threshold_stage2=stage2_m_threshold(kappa, sigma),
        cg_cap_stage2=stage2_cg_cap(mu, kappa, sigma, m),
        phi=phi, K_stage1=K,
    )


def _compression_offset(L2, sigma, m, u1_0, mu, alpha, M2, gamma):
    """Geometric-coupling constant feeding u2~_0; may be non-finite."""
    if L2 == 0.0 or u1_0 <= 0.0:
        return 0.0
    denom = math.sqrt(max(1.0 - mu * alpha / (2.0 * M2), 0.0)) - (1.0 - gamma * (1 - sigma) / 2.0)
    num = 3.75 * L2 * math.sqrt(_weight(sigma, -(m - 1)) * u1_0)
    if denom == 0.0:
        return math.inf
    return num / denom


def _phase_switch_iterations(kappa, mu, n, sigma, m, L2, u1_0, u2t, phi):
    inner = u2t
    if L2 > 0.0 and u1_0 > 0.0 and sigma > 0.0:
        inner = u2t + 52.0 * L2 * kappa * math.sqrt(kappa) * _weight(sigma, -5.0 * m / 4.0) \
            / ((1.0 - sigma ** (m / 2.0)) * (1.0 - sigma ** 2)) * math.sqrt(u1_0)
    if inner <= 0.0 or phi <= 0.0 or phi >= 1.0:
        return math.nan
    num = (m / 2.0) * math.log(sigma) - math.log(41.0 * kappa / (mu * math.sqrt(n)) * inner)
    return num / math.log(phi)
