"""Maximum-likelihood estimation for the Poisson transmuted-G family.

The log-likelihood is maximized by derivative-free simplex search from many
Latin-hypercube starting points, in transformed coordinates that keep every
iterate inside the parameter domain: alpha = tanh(a), beta unconstrained
(with a small exclusion band around zero), positive baseline parameters via
log.  Standard errors come from inverting the observed information matrix,
itself a central finite-difference Hessian in the original coordinates.

``log_likelihood`` and ``FitResult`` serve every model of the shared
protocol (``PtgParams``, the baselines and the competitor models): the
log-likelihood is the sum of the model's ``log_pdf``, and a fit record is
built from the estimates and their observed information alike.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize
from scipy.stats import norm, qmc

from .baselines import BASELINE_FAMILIES
from .data import check_sample
from .distributions import DEFAULT_BETA_FLOOR, PtgParams

__all__ = [
    "FitOptions",
    "FitResult",
    "log_likelihood",
    "fit",
    "observed_information",
    "wald_ci",
    "multistart_maximize",
]


@dataclass(frozen=True)
class FitOptions:
    """Tuning knobs for :func:`fit`."""

    n_starts: int = 20
    max_iter: int = 2000
    tol: float = 1e-10
    seed: int = 0
    fd_step: float = 1e-4

    def __post_init__(self):
        if self.n_starts < 1 or self.max_iter < 1:
            raise ValueError("n_starts and max_iter must be positive")
        if self.tol <= 0 or self.fd_step <= 0:
            raise ValueError("tol and fd_step must be positive")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a maximum-likelihood fit; ``estimates`` is the fitted model."""

    estimates: object
    loglik: float
    std_errors: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    info_matrix: np.ndarray
    converged: bool
    n_restarts_used: int
    n_obs: int
    degenerate_info: bool = False

    @property
    def param_names(self):
        return self.estimates.names

    @property
    def k(self):
        return len(self.estimates.values)

    @classmethod
    def from_information(cls, estimates, loglik, info, converged, n_restarts_used, n_obs):
        """Fit record with standard errors from the observed information
        ``info`` and 95% Wald intervals; warns when the fit did not converge
        or the information is singular."""
        if not converged:
            warnings.warn("fit did not fully converge; results are flagged", stacklevel=3)
        k = len(estimates.values)
        if np.all(np.isfinite(info)):
            eigvals = np.linalg.eigvalsh(info)
            degenerate = bool(eigvals.min() < 1e-10 * max(1.0, eigvals.max()))
            cov = np.linalg.pinv(info) if degenerate else np.linalg.inv(info)
            var = np.diag(cov)
            se = np.sqrt(np.where(var > 0, var, np.nan))
        else:
            # a finite-difference step left the domain (alpha at +-1): the
            # matrix holds inf/NaN and has no curvature to invert
            degenerate = True
            se = np.full(k, np.nan)
        if degenerate:
            warnings.warn("observed information is singular to tolerance", stacklevel=3)
        partial = cls(
            estimates=estimates,
            loglik=loglik,
            std_errors=se,
            ci_low=np.full(k, np.nan),
            ci_high=np.full(k, np.nan),
            info_matrix=info,
            converged=converged,
            n_restarts_used=n_restarts_used,
            n_obs=int(n_obs),
            degenerate_info=degenerate,
        )
        low, high = wald_ci(partial, 0.95)
        return replace(partial, ci_low=low, ci_high=high)


def log_likelihood(data, model):
    """Log-likelihood of ``data`` under ``model``: the sum of its ``log_pdf``.

    Returns ``-inf`` whenever any observation falls where the density is
    zero (for PT-G, where the transmuted factor is nonpositive).
    """
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise ValueError("data must be nonempty")
    return float(np.sum(model.log_pdf(data)))


# ---------------------------------------------------------------------------
# generic multistart simplex engine
# ---------------------------------------------------------------------------


def _fd_gradient(f, x, rel_step=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        h = rel_step * max(1.0, abs(x[i]))
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def multistart_maximize(loglik_z, starts, max_iter=2000, ftol=1e-10, xtol=1e-8):
    """Maximize ``loglik_z`` (transformed coordinates) from each start point.

    Runs a Nelder-Mead search per start, keeps the best optimum, then
    polishes it with two further simplex restarts.  Returns
    ``(z_best, loglik_best, n_launches, converged)`` where ``converged``
    requires simplex convergence and a small numerical gradient.
    """

    def neg(z):
        v = loglik_z(z)
        return np.inf if not np.isfinite(v) else -v

    best = None
    n_launches = 0
    for z0 in starts:
        res = minimize(
            neg,
            np.asarray(z0, dtype=float),
            method="Nelder-Mead",
            options=dict(maxiter=max_iter, maxfev=max_iter, xatol=xtol, fatol=ftol),
        )
        n_launches += 1
        if best is None or res.fun < best.fun:
            best = res
    for _ in range(2):  # polish: fresh simplex around the incumbent optimum
        res = minimize(
            neg,
            best.x,
            method="Nelder-Mead",
            options=dict(
                maxiter=2 * max_iter, maxfev=2 * max_iter, xatol=xtol, fatol=ftol
            ),
        )
        n_launches += 1
        if res.fun <= best.fun:
            best = res
    grad = _fd_gradient(lambda z: -neg(z), best.x)
    converged = bool(best.success) and bool(np.max(np.abs(grad)) < 1e-3)
    return best.x, -best.fun, n_launches, converged


# ---------------------------------------------------------------------------
# PT-G fit
# ---------------------------------------------------------------------------


def _family_transform(family_tag, beta_floor):
    """Unconstrained-coordinate map z -> PtgParams for one baseline family."""
    cls = BASELINE_FAMILIES[family_tag]
    q = len(cls.names)

    def to_params(z):
        alpha = math.tanh(z[0])
        beta = z[1]
        if abs(beta) < beta_floor:
            return None
        return PtgParams(alpha, beta, cls(*np.exp(z[2 : 2 + q])))

    return to_params, q


def _lhs_starts(xbar, opts, q):
    """Latin-hypercube initial points over alpha in (-0.9, 0.9),
    beta in (-10, 10) excluding (-0.1, 0.1), lambda log-uniform in
    (0.1/xbar, 10/xbar), and any further shape parameter log-uniform in
    (0.25, 4)."""
    sampler = qmc.LatinHypercube(d=2 + q, seed=opts.seed)
    u = sampler.random(opts.n_starts)
    starts = np.empty_like(u)
    starts[:, 0] = np.arctanh(-0.9 + 1.8 * u[:, 0])
    lo = u[:, 1] < 0.5
    starts[:, 1] = np.where(
        lo,
        -10.0 + (u[:, 1] / 0.5) * 9.9,
        0.1 + ((u[:, 1] - 0.5) / 0.5) * 9.9,
    )
    starts[:, 2] = np.log(0.1 / xbar) + u[:, 2] * math.log(100.0)
    for j in range(3, 2 + q):
        starts[:, j] = math.log(0.25) + u[:, j] * math.log(16.0)
    return starts


def fit(data, baseline_family="exponential", opts=None):
    """Fit a PT-G model by multistart maximum likelihood.

    Parameters
    ----------
    data : array-like of positive finite floats
    baseline_family : {"exponential", "weibull"}
    opts : FitOptions, optional

    Returns
    -------
    FitResult
        Estimates, log-likelihood, observed information, standard errors
        and 95% Wald intervals.  ``converged`` is False (never silent) when
        the search did not reach a stationary point.
    """
    opts = opts or FitOptions()
    data = check_sample(data)
    to_params, q = _family_transform(baseline_family, DEFAULT_BETA_FLOOR)
    if data.size < (2 + q) + 1:
        raise ValueError("need at least one more observation than parameters")

    def loglik_z(z):
        p = to_params(z)
        return -np.inf if p is None else log_likelihood(data, p)

    starts = _lhs_starts(float(data.mean()), opts, q)
    z_best, ll_best, n_launches, converged = multistart_maximize(
        loglik_z, starts, max_iter=opts.max_iter, ftol=opts.tol, xtol=1e-8
    )
    estimates = to_params(z_best)
    info = observed_information(data, estimates, fd_step=opts.fd_step)
    return FitResult.from_information(
        estimates, ll_best, info, converged, n_launches, data.size
    )


def _fd_hessian(f, x, rel_step):
    """Symmetric central-difference Hessian with per-coordinate relative steps."""
    x = np.asarray(x, dtype=float)
    k = x.size
    h = rel_step * np.maximum(np.abs(x), 1.0)
    hess = np.empty((k, k))
    f0 = f(x)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h[i]
        hess[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / h[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = h[j]
            hess[i, j] = hess[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return (hess + hess.T) / 2.0


def observed_information(data, p_hat, fd_step=1e-4):
    """Observed information: negated FD Hessian of the log-likelihood at p_hat,
    in the original (alpha, beta, baseline...) coordinates."""
    data = np.asarray(data, dtype=float)
    theta = np.asarray(p_hat.values, dtype=float)
    steps = fd_step * np.maximum(np.abs(theta), 1.0)
    edges = [1.0 - abs(theta[0]), abs(theta[1]) - p_hat.beta_floor, *theta[2:]]
    if any(e < 10.0 * s for e, s in zip(edges, steps)):
        warnings.warn(
            "a parameter sits within 10 finite-difference steps of its domain "
            "edge; the Hessian may be unreliable",
            stacklevel=2,
        )
    baseline_cls = type(p_hat.baseline)

    def f(th):
        try:
            p = PtgParams(th[0], th[1], baseline_cls(*th[2:]))
        except ValueError:
            return -np.inf
        return log_likelihood(data, p)

    return -_fd_hessian(f, theta, fd_step)


def wald_ci(fit_result, level=0.95):
    """Wald confidence intervals, truncated to the parameter domain.

    For PT-G, alpha is clipped to [-1, 1] and beta to the sign region of its
    estimate; every other parameter (baseline or competitor) to [0, inf).
    A zero standard error degenerates to the point estimate; an unknown
    (NaN) one gives NaN bounds.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    z = norm.ppf(0.5 * (1.0 + level))
    est = np.asarray(fit_result.estimates.values, dtype=float)
    se = np.asarray(fit_result.std_errors, dtype=float)
    lo, hi = np.zeros(est.size), np.full(est.size, np.inf)  # the parameter domain
    if isinstance(fit_result.estimates, PtgParams):
        lo[:2] = -1.0, (-np.inf if est[1] < 0 else 0.0)
        hi[:2] = 1.0, (0.0 if est[1] < 0 else np.inf)
    return np.maximum(est - z * se, lo), np.minimum(est + z * se, hi)
