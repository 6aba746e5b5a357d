"""Maximum-likelihood estimation for the Poisson transmuted-G family.

The log-likelihood is maximized from many Latin-hypercube starting points
at once: one lockstep quasi-Newton engine (``minimize``, BFGS steps with a
backtracking line search) advances every start on one (starts x n) array,
driven by the analytic score.  The search runs in transformed coordinates
that keep every iterate inside the parameter domain: alpha = sin(z0), which
reaches the edges alpha = +-1 at finite z0 and has no flat tail to strand a
start in, beta unconstrained (with a small exclusion band around zero), and
positive baseline parameters via log.  The Marshall-Olkin fit in
``competitors`` runs on the same engine.  Standard errors come from
inverting the observed information matrix, the exact negated Hessian in the
original coordinates, built from the per-observation derivatives the score
uses.

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
from scipy.stats import norm, qmc

from .baselines import baseline_class
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
    """Multistart settings for :func:`fit`: the number of starts and their seed."""

    n_starts: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("n_starts must be positive")


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
            # an overflowed Hessian term: inf/NaN has no curvature to invert
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
# lockstep quasi-Newton multistart engine
# ---------------------------------------------------------------------------

_ARMIJO = 1e-4  # sufficient-decrease constant of the line search
_MAX_HALVINGS = 20  # step halvings before a line search gives up
_ROUNDING = 1e-13  # relative rounding of a summed log-likelihood
_XTOL = 1e-10  # relative step below which a start has stopped moving
_GTOL = 1e-10  # score max-norm at which a start stops
_MAX_ITER = 2000  # quasi-Newton steps of each start; the polish takes twice as many
_CONVERGED_SCORE = 1e-3  # score max-norm below which a fit counts as converged
# search box, as half-widths in transformed coordinates: a start that leaves
# it stops (beta -> +inf with lambda -> 0 is a runaway on dataset II).  The
# log-parameters are centred on the data's scale.  z0 = asin(alpha) needs no
# box: every z0 is a point of the domain.
_BETA_BOX = 1e4
_LOG_BOX = 50.0
_BETA_WARN = 700.0  # documented |beta| range of the Poisson layer


def _bfgs_update(h, s, y):
    """BFGS update of the inverse Hessians ``h`` (S, k, k) by the steps ``s``
    and gradient changes ``y`` (S, k); rows without positive curvature keep
    their matrix."""
    sy = np.einsum("si,si->s", s, y)
    ok = sy > 1e-12 * np.linalg.norm(s, axis=1) * np.linalg.norm(y, axis=1)
    rho = np.where(ok, 1.0 / np.where(ok, sy, 1.0), 0.0)[:, None, None]
    left = np.eye(s.shape[1]) - rho * s[:, :, None] * y[:, None, :]
    return left @ h @ left.transpose(0, 2, 1) + rho * s[:, :, None] * s[:, None, :]


def minimize(fun, z0, box, max_iter=_MAX_ITER):
    """Minimize a batched objective from every row of ``z0`` in lockstep.

    ``fun(Z)`` maps an (S, k) array of points to their values (S,) and
    gradients (S, k).  All rows advance together: a BFGS direction, then a
    backtracking line search that evaluates only the rows still searching.
    A trial point is accepted on Armijo's sufficient decrease or, where the
    decrease is lost in the value's rounding, on a smaller gradient.  A row
    starts from the identity inverse Hessian with a step of at most unit
    max-norm and rescales it by its first curvature pair; a failed search
    along a quasi-Newton direction sends the row back to that start.

    A row stops when its gradient's max-norm falls below ``_GTOL``, when its
    line search fails along steepest descent, when a step no longer moves it
    (relative change below ``_XTOL``), when it leaves ``box`` (lower and
    upper bounds, each of length k), or after ``max_iter`` steps.  Returns
    the final points, values and gradients.
    """
    z = np.array(z0, dtype=float)
    f, g = fun(z)
    n_rows, k = z.shape
    eye = np.eye(k)
    h = np.tile(eye, (n_rows, 1, 1))
    fresh = np.ones(n_rows, dtype=bool)  # inverse Hessian still the identity
    active = np.isfinite(f) & np.all(np.isfinite(g), axis=1)
    lo, hi = box
    for _ in range(max_iter):
        active &= np.max(np.abs(g), axis=1) >= _GTOL
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        gr = g[rows]
        d = -np.einsum("sij,sj->si", h[rows], gr)
        slope = np.einsum("si,si->s", d, gr)
        steep = fresh[rows] | ~(slope < 0.0)  # no descent: back to the gradient
        fresh[rows[steep]] = True
        h[rows[steep]] = eye
        d[steep] = -gr[steep] / np.maximum(np.max(np.abs(gr[steep]), axis=1), 1.0)[:, None]
        slope[steep] = np.einsum("si,si->s", d[steep], gr[steep])

        step = np.ones(rows.size)
        z_new, f_new, g_new = z[rows], f[rows], gr.copy()
        done = np.zeros(rows.size, dtype=bool)
        for _ in range(_MAX_HALVINGS):
            p = np.flatnonzero(~done)
            zt = z[rows[p]] + step[p, None] * d[p]
            ft, gt = fun(zt)
            f0 = f[rows[p]]
            noise = _ROUNDING * np.maximum(np.abs(f0), 1.0)
            ok = (
                np.isfinite(ft)
                & np.all(np.isfinite(gt), axis=1)
                & (
                    (ft <= f0 + _ARMIJO * step[p] * slope[p])
                    | (
                        (ft <= f0 + noise)
                        & (np.max(np.abs(gt), axis=1) < np.max(np.abs(gr[p]), axis=1))
                    )
                )
            )
            z_new[p[ok]], f_new[p[ok]], g_new[p[ok]] = zt[ok], ft[ok], gt[ok]
            done[p[ok]] = True
            step[p[~ok]] *= 0.5
            if done.all():
                break

        failed = rows[~done]
        active[failed[fresh[failed]]] = False  # even steepest descent failed
        fresh[failed] = True
        h[failed] = eye
        moved, m = rows[done], np.flatnonzero(done)
        s, y = z_new[m] - z[moved], g_new[m] - g[moved]
        first = fresh[moved]
        sy, yy = np.einsum("si,si->s", s, y), np.einsum("si,si->s", y, y)
        scale = np.where((sy > 0.0) & (yy > 0.0), sy / np.where(yy > 0.0, yy, 1.0), 1.0)
        h[moved[first]] *= scale[first, None, None]
        h[moved] = _bfgs_update(h[moved], s, y)
        fresh[moved] = False
        z[moved], f[moved], g[moved] = z_new[m], f_new[m], g_new[m]
        still = np.max(np.abs(s) / np.maximum(np.abs(z[moved]), 1.0), axis=1) > _XTOL
        active[moved] &= still & np.all((z[moved] >= lo) & (z[moved] <= hi), axis=1)
    return z, f, g


def multistart_maximize(loglik_score, starts, box):
    """Maximize a batched log-likelihood from every start, in lockstep.

    ``loglik_score(Z)`` maps an (S, k) array of transformed coordinates to
    the log-likelihoods (S,) and scores (S, k).  :func:`minimize` climbs
    from all starts at once inside ``box``; the best end point is then
    polished by two further restarts from it, each with a fresh inverse
    Hessian.  Returns ``(z_best, loglik_best, n_launches, converged)``:
    ``n_launches`` counts the starts and the two polishing restarts, and
    ``converged`` requires the score's max-norm at ``z_best`` to be below
    ``_CONVERGED_SCORE``.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or len(starts) == 0:
        raise ValueError("need at least one start")

    def neg(z):
        ll, score = loglik_score(z)
        return np.where(np.isnan(ll), np.inf, -ll), -score

    z, f, g = minimize(neg, starts, box)
    i = int(np.argmin(f))
    z_best, f_best, g_best = z[i], f[i], g[i]
    for _ in range(2):  # polish: a fresh inverse Hessian at the incumbent
        z, f, g = minimize(neg, z_best[None], box, 2 * _MAX_ITER)
        if f[0] <= f_best:
            z_best, f_best, g_best = z[0], f[0], g[0]
    converged = bool(np.max(np.abs(g_best)) < _CONVERGED_SCORE)
    return z_best, -f_best, len(starts) + 2, converged


# ---------------------------------------------------------------------------
# PT-G fit
# ---------------------------------------------------------------------------


def _ptg_loglik_score(data, family):
    """Batched PT-G log-likelihood and score over any baseline ``family``.

    Returns ``f(Z) -> (loglik (S,), score (S, k))`` for rows of transformed
    coordinates z = (asin alpha, beta, log of each baseline parameter).
    With G the baseline cdf, T = G (1 + alpha - alpha G) and
    c(beta) = log|beta| - log|1 - exp(-beta)|,

        l = n c(beta) + sum log g + sum log(1 + alpha - 2 alpha G) - beta sum T,

    and the score follows by the chain rule through alpha = sin z0 and the
    log-parameters.  Rows with |beta| below ``DEFAULT_BETA_FLOOR`` or a
    nonpositive transmuted factor get ``-inf``.
    """
    x = np.asarray(data, dtype=float)
    n = x.size

    def loglik_score(z):
        with np.errstate(all="ignore"):  # overflow only ever gives a rejected row
            alpha, beta = np.sin(z[:, 0:1]), z[:, 1]
            phi = np.exp(z[:, 2:])
            cdf, d_cdf = family.d_cdf(x, phi)
            log_g, d_log_g = family.d_log_pdf(x, phi)
            fac = 1.0 + alpha - 2.0 * alpha * cdf
            t = cdf * (1.0 + alpha - alpha * cdf)
            b = np.abs(beta)
            # log|1 - exp(-beta)| = max(-beta, 0) + log(1 - exp(-|beta|))
            const = np.log(b) - np.maximum(-beta, 0.0) - np.log(-np.expm1(-b))
            ll = n * const + np.sum(log_g + np.log(fac) - beta[:, None] * t, axis=1)
            score = np.empty_like(z)
            score[:, 0] = np.cos(z[:, 0]) * (
                np.sum((1.0 - 2.0 * cdf) / fac, axis=1)
                - beta * np.sum(cdf * (1.0 - cdf), axis=1)
            )
            score[:, 1] = n * (1.0 / beta - 1.0 / np.expm1(beta)) - np.sum(t, axis=1)
            weight = 2.0 * alpha / fac + beta[:, None] * fac
            score[:, 2:] = phi * np.sum(d_log_g - weight * d_cdf, axis=2).T
        bad = (b < DEFAULT_BETA_FLOOR) | np.any(fac <= 0.0, axis=1)
        return np.where(bad, -np.inf, ll), score

    return loglik_score


def _lhs_starts(xbar, opts, q):
    """Latin-hypercube initial points over alpha in (-0.9, 0.9),
    beta in (-10, 10) excluding (-0.1, 0.1), lambda log-uniform in
    (0.1/xbar, 10/xbar), and any further shape parameter log-uniform in
    (0.25, 4)."""
    sampler = qmc.LatinHypercube(d=2 + q, seed=opts.seed)
    u = sampler.random(opts.n_starts)
    starts = np.empty_like(u)
    starts[:, 0] = np.arcsin(-0.9 + 1.8 * u[:, 0])
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
    family = baseline_class(baseline_family)
    q = len(family.names)
    if data.size < (2 + q) + 1:
        raise ValueError("need at least one more observation than parameters")

    xbar = float(data.mean())
    centre = np.zeros(2 + q)
    centre[2] = -math.log(xbar)
    half = np.array([np.inf, _BETA_BOX] + [_LOG_BOX] * q)
    z_best, _, n_launches, converged = multistart_maximize(
        _ptg_loglik_score(data, family),
        _lhs_starts(xbar, opts, q),
        box=(centre - half, centre + half),
    )
    # the best start has a finite log-likelihood, so |beta| >= the floor
    estimates = PtgParams(math.sin(z_best[0]), z_best[1], family(*np.exp(z_best[2:])))
    if abs(estimates.beta) > _BETA_WARN:
        warnings.warn(
            f"fitted beta = {estimates.beta:.6g} lies outside the documented "
            f"|beta| <= {_BETA_WARN:g}",
            stacklevel=2,
        )
    info = observed_information(data, estimates)
    return FitResult.from_information(
        estimates, log_likelihood(data, estimates), info, converged, n_launches, data.size
    )


def _c2(beta):
    """c''(beta) of c = log|beta| - log|1 - exp(-beta)|, free of overflow,
    and by its series below |beta| = 1e-2, where the closed form cancels."""
    b = abs(beta)
    if b < 1e-2:
        return -1.0 / 12.0 + b**2 / 240.0 - b**4 / 6048.0
    return math.exp(-b) / math.expm1(-b) ** 2 - 1.0 / b**2


def observed_information(data, p_hat):
    """Observed information: the exact negated Hessian of the log-likelihood
    at ``p_hat`` in (alpha, beta, baseline...), finite at alpha = +-1.

    With fac = 1 + alpha - 2 alpha G and baseline parameters phi, psi:
    l_aa = -sum (1-2G)^2/fac^2, l_ab = -sum G(1-G), l_bb = n c''(beta),
    l_a,phi = sum G_phi (-2/fac^2 - beta (1-2G)), l_b,phi = -sum fac G_phi,
    l_phi,psi = sum [(log g)_phi,psi - (2 alpha/fac + beta fac) G_phi,psi
    + (2 alpha beta - 4 alpha^2/fac^2) G_phi G_psi]."""
    x = np.asarray(data, dtype=float)
    a, b = p_hat.alpha, p_hat.beta
    family, phi = type(p_hat.baseline), np.array([p_hat.baseline.values], dtype=float)
    cdf, d_cdf = (v[..., 0, :] for v in family.d_cdf(x, phi))
    d2_cdf, d2_log_g = (v[..., 0, :] for v in family.d2(x, phi))
    fac = 1.0 + a - 2.0 * a * cdf
    hess = np.empty((2 + len(d_cdf),) * 2)
    hess[0, 0] = -np.sum(((1.0 - 2.0 * cdf) / fac) ** 2)
    hess[0, 1] = hess[1, 0] = -np.sum(cdf * (1.0 - cdf))
    hess[1, 1] = x.size * _c2(b)
    hess[0, 2:] = hess[2:, 0] = d_cdf @ (-2.0 / fac**2 - b * (1.0 - 2.0 * cdf))
    hess[1, 2:] = hess[2:, 1] = -(d_cdf @ fac)
    cross = (2.0 * a * b - 4.0 * a**2 / fac**2) * d_cdf[:, None] * d_cdf[None]
    hess[2:, 2:] = np.sum(d2_log_g + (-2.0 * a / fac - b * fac) * d2_cdf + cross, axis=2)
    return -hess


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
