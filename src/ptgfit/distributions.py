"""Transmuted and Poisson-compounded distribution layers.

Two stacked constructions over a baseline cdf G:

* transmuted layer (quadratic rank transmutation): cdf ``G * (1 + a - a*G)``
  with transmutation parameter ``a`` in [-1, 1];
* zero-truncated Poisson compounding of that cdf with tilt parameter ``b``
  (any nonzero real): cdf ``(1 - exp(-b*T)) / (1 - exp(-b))``.

All functions are pure, accept scalar or array ``x``/``u`` and return a
matching float or ndarray.  Stable ``expm1``/``log1p`` forms are used
throughout so both signs of ``b`` and near-zero tilts evaluate cleanly;
for ``b < 0`` the Poisson layer is factored by ``exp(b)`` so that no
intermediate overflows, however negative ``b`` is.  A negative or NaN ``x``
is a ``ValueError``.  The log-density is written once, as ``_log_c`` plus
``_log_body``: ``ptg_log_pdf``, ``ptg_pdf`` (its exponential) and the
fit's batched ``ptg_loglik_derivatives`` all use it.  The private
``_ptg_upper_quantile`` inverts the cdf from the upper-tail probability
1 - u, which keeps its digits where u rounds to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import Exponential, Weibull, _nonnegative

__all__ = [
    "PtgParams",
    "tg_cdf",
    "tg_pdf",
    "tg_quantile",
    "ptg_cdf",
    "ptg_pdf",
    "ptg_log_pdf",
    "ptg_hrf",
    "ptg_quantile",
    "ptg_sample",
    "pte_params",
    "ptw_params",
]

DEFAULT_BETA_FLOOR = 1e-8


@dataclass(frozen=True)
class PtgParams:
    """Full parameter vector of a Poisson transmuted-G distribution.

    It carries the model protocol shared with the baselines and the
    competitor models; its methods call the ``ptg_*`` functions.

    Parameters
    ----------
    alpha : float
        Transmutation parameter, in the closed interval [-1, 1].
    beta : float
        Poisson tilt parameter.  Any sign is admitted; exactly zero is
        excluded (the compounding degenerates): |beta| must be at least
        ``DEFAULT_BETA_FLOOR``.
    baseline : Exponential or Weibull
        The parent distribution G.
    """

    alpha: float
    beta: float
    baseline: Exponential | Weibull

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not np.isfinite(self.beta) or abs(self.beta) < DEFAULT_BETA_FLOOR:
            raise ValueError(
                f"beta must be a nonzero real with |beta| >= {DEFAULT_BETA_FLOOR}, "
                f"got {self.beta!r}"
            )

    @property
    def names(self):
        return ("alpha", "beta") + tuple(self.baseline.names)

    @property
    def values(self):
        return (self.alpha, self.beta) + tuple(self.baseline.values)

    def pdf(self, x):
        return ptg_pdf(x, self)

    def cdf(self, x):
        return ptg_cdf(x, self)

    def log_pdf(self, x):
        return ptg_log_pdf(x, self)

    def quantile(self, u):
        return ptg_quantile(u, self)


def pte_params(alpha, beta, lam):
    """PT-exponential parameter vector (alpha, beta, lam)."""
    return PtgParams(alpha, beta, Exponential(lam))


def ptw_params(alpha, beta, lam, theta):
    """PT-Weibull parameter vector (alpha, beta, lam, theta)."""
    return PtgParams(alpha, beta, Weibull(lam, theta))


def _validated_x(x):
    arr = _nonnegative(x)
    return arr, np.isscalar(x) or arr.ndim == 0


def _validated_u(u):
    arr = np.asarray(u, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):  # also refuses NaN
        raise ValueError("u must lie strictly inside (0, 1) (and not be NaN)")
    return arr, np.isscalar(u) or arr.ndim == 0


def _check_alpha(alpha):
    if not np.isfinite(alpha) or abs(alpha) > 1.0:
        raise ValueError(f"alpha must lie in [-1, 1], got {alpha!r}")


def _ret(value, scalar):
    return float(value) if scalar else value


# ---------------------------------------------------------------------------
# transmuted layer
# ---------------------------------------------------------------------------


def tg_cdf(x, alpha, baseline):
    """Transmuted cdf G(x) * (1 + alpha - alpha*G(x))."""
    _check_alpha(alpha)
    x, scalar = _validated_x(x)
    g = baseline.cdf(x)
    return _ret(g * (1.0 + alpha - alpha * g), scalar)


def tg_pdf(x, alpha, baseline):
    """Transmuted pdf g(x) * (1 + alpha - 2*alpha*G(x))."""
    _check_alpha(alpha)
    x, scalar = _validated_x(x)
    g = baseline.cdf(x)
    return _ret(baseline.pdf(x) * (1.0 + alpha - 2.0 * alpha * g), scalar)


def _tg_invert(u, alpha):
    """Baseline-cdf value G solving G*(1 + alpha - alpha*G) = u.

    The defining quadratic is solved in the cancellation-free conjugate
    form ``2u / ((1+alpha) + sqrt((1+alpha)^2 - 4*alpha*u))``, which is the
    smaller root for alpha != 0 and degrades gracefully to G = u at
    alpha = 0, so no small-alpha branch is needed.
    """
    disc = (1.0 + alpha) ** 2 - 4.0 * alpha * u
    if np.any(disc < -1e-12):
        raise ArithmeticError("negative discriminant in transmuted inversion")
    disc = np.maximum(disc, 0.0)
    return 2.0 * u / ((1.0 + alpha) + np.sqrt(disc))


def tg_quantile(u, alpha, baseline):
    """Inverse of :func:`tg_cdf` on (0, 1)."""
    _check_alpha(alpha)
    u, scalar = _validated_u(u)
    return _ret(baseline.quantile(_tg_invert(u, alpha)), scalar)


def _tg_upper_quantile(v, alpha, baseline):
    """The transmuted quantile at u = 1 - v, from the upper-tail probability
    ``v``: 1 - T = (1 - G)(1 - alpha + alpha (1 - G)) is the transmuted cdf
    at -alpha in 1 - G, and x is the baseline's inverse survival function."""
    return baseline.isf(_tg_invert(v, -alpha))


# ---------------------------------------------------------------------------
# Poisson-compounded layer
# ---------------------------------------------------------------------------


def ptg_cdf(x, p):
    """Poisson transmuted-G cdf.

    Computed as ``expm1(-beta*T) / expm1(-beta)`` with T the transmuted cdf
    for beta > 0, and for beta = -b < 0 as
    ``exp(b*(T-1)) * expm1(-b*T) / expm1(-b)``, the same ratio with exp(b)
    cancelled.  Both are exact at the endpoints and overflow for no beta.
    """
    x, scalar = _validated_x(x)
    t = tg_cdf(x, p.alpha, p.baseline)
    if p.beta > 0:
        return _ret(np.expm1(-p.beta * t) / np.expm1(-p.beta), scalar)
    b = -p.beta
    return _ret(np.exp(b * (t - 1.0)) * np.expm1(-b * t) / np.expm1(-b), scalar)


def _log_c(beta):
    """c(beta) = log(beta / (1 - exp(-beta))), overflow-free for either sign:
    |1 - exp(-beta)| = exp(max(-beta, 0)) * (1 - exp(-|beta|))."""
    b = np.abs(beta)
    return np.log(b) - np.maximum(-beta, 0.0) - np.log(-np.expm1(-b))


def _log_body(alpha, beta, g, log_g):
    """The log-density less c(beta), log g + log(fac) - beta T, elementwise in
    the baseline cdf ``g`` and log-density ``log_g``, with fac = 1 + alpha -
    2 alpha G and T; NaN or -inf where fac <= 0, which the callers mask."""
    fac = 1.0 + alpha - 2.0 * alpha * g
    t = g * (1.0 + alpha - alpha * g)
    return log_g + np.log(fac) - beta * t, fac, t


def ptg_pdf(x, p):
    """Poisson transmuted-G density, the exponential of :func:`ptg_log_pdf`."""
    log_f = ptg_log_pdf(x, p)
    return _ret(np.exp(log_f), np.ndim(log_f) == 0)


def ptg_log_pdf(x, p):
    """Log-density computed in log space (never forms the density itself).

    Returns ``-inf`` wherever the transmuted factor 1 + alpha - 2*alpha*G
    is nonpositive, i.e. where the density vanishes at a support boundary.
    """
    x, scalar = _validated_x(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        body, fac, _ = _log_body(p.alpha, p.beta, p.baseline.cdf(x), p.baseline.log_pdf(x))
    return _ret(np.where(fac > 0.0, _log_c(p.beta) + body, -np.inf), scalar)


def _c2(beta):
    """c''(beta), free of overflow; by its series below |beta| = 1e-2."""
    b = np.abs(beta)
    closed = np.exp(-b) / np.expm1(-b) ** 2 - 1.0 / b**2
    return np.where(b < 1e-2, -1.0 / 12.0 + b**2 / 240.0 - b**4 / 6048.0, closed)


def ptg_loglik_derivatives(data, family, theta, order=1):
    """Log-likelihoods (S,) and scores (S, k) of ``data`` at the parameter
    rows ``theta`` (S, k) = (alpha, beta, baseline ``family`` parameters),
    and at ``order`` 2 the Hessians (S, k, k).  Rows with |beta| below
    ``DEFAULT_BETA_FLOOR`` or a nonpositive fac = 1 + alpha - 2 alpha G get
    ``-inf``.  With baseline parameters phi, psi: l_aa = -sum (1-2G)^2/fac^2,
    l_ab = -sum G(1-G), l_bb = n c''(beta), l_a,phi = sum G_phi (-2/fac^2 -
    beta (1-2G)), l_b,phi = -sum fac G_phi, l_phi,psi = sum [(log g)_phi,psi
    - (2 alpha/fac + beta fac) G_phi,psi + (2 alpha beta - 4 alpha^2/fac^2)
    G_phi G_psi]."""
    x = np.asarray(data, dtype=float)
    n = x.size
    with np.errstate(all="ignore"):  # overflow only ever gives a rejected row
        alpha, beta, phi = theta[:, 0:1], theta[:, 1], theta[:, 2:]
        beta_col = beta[:, None]
        cdf, d_cdf = family.d_cdf(x, phi)
        log_g, d_log_g = family.d_log_pdf(x, phi)
        body, fac, t = _log_body(alpha, beta_col, cdf, log_g)
        bad = (np.abs(beta) < DEFAULT_BETA_FLOOR) | np.any(fac <= 0.0, axis=1)
        ll = np.where(bad, -np.inf, n * _log_c(beta) + np.sum(body, axis=1))
        slope, spread = (1.0 - 2.0 * cdf) / fac, cdf * (1.0 - cdf)
        weight = 2.0 * alpha / fac + beta_col * fac
        score = np.empty_like(theta)
        score[:, 0] = np.sum(slope, axis=1) - beta * np.sum(spread, axis=1)
        score[:, 1] = n * (1.0 / beta - 1.0 / np.expm1(beta)) - np.sum(t, axis=1)
        score[:, 2:] = np.sum(d_log_g - weight * d_cdf, axis=2).T
        if order == 1:
            return ll, score
        d2_cdf, d2_log_g = family.d2(x, phi)
        hess = np.empty(theta.shape + theta.shape[1:])
        hess[:, 0, 0] = -np.sum(slope**2, axis=1)
        hess[:, 0, 1] = hess[:, 1, 0] = -np.sum(spread, axis=1)
        hess[:, 1, 1] = n * _c2(beta)
        d_cdf_rows = d_cdf.transpose(1, 0, 2)  # (S, q, n): one matrix product per row
        a_phi = -2.0 / fac**2 - beta_col * (1.0 - 2.0 * cdf)
        hess[:, 0, 2:] = hess[:, 2:, 0] = (d_cdf_rows @ a_phi[:, :, None])[..., 0]
        hess[:, 1, 2:] = hess[:, 2:, 1] = -(d_cdf_rows @ fac[:, :, None])[..., 0]
        cross = (2.0 * alpha * beta_col - 4.0 * alpha**2 / fac**2) * d_cdf[:, None]
        phi_phi = np.sum(d2_log_g - weight * d2_cdf + cross * d_cdf[None], axis=3)
        hess[:, 2:, 2:] = phi_phi.transpose(2, 0, 1)
    return ll, score, hess


def ptg_hrf(x, p):
    """Hazard rate f / (1 - F).

    Uses the cancellation-free identity ``beta * f_tg(x) /
    (-expm1(-beta * (1 - T)))``, defined while T < 1 even where F rounds to 1.
    """
    x, scalar = _validated_x(x)
    t = tg_cdf(x, p.alpha, p.baseline)
    if np.any(t >= 1.0):
        raise ValueError("hazard undefined where the transmuted cdf has reached 1")
    f_tg = tg_pdf(x, p.alpha, p.baseline)
    return _ret(p.beta * f_tg / (-np.expm1(-p.beta * (1.0 - t))), scalar)


def ptg_quantile(u, p):
    """Inverse of :func:`ptg_cdf` on (0, 1), in closed form.

    First unwinds the Poisson layer, t = -log1p(u * expm1(-beta)) / beta,
    then the transmuted layer via the conjugate quadratic root.  Below
    beta = -700, where expm1(-beta) approaches overflow, the same t is taken
    as ``1 + log(u + (1-u) * exp(beta)) / -beta``, exp(-beta) divided out.
    """
    u, scalar = _validated_u(u)
    if p.beta > -700.0:
        t = -np.log1p(u * np.expm1(-p.beta)) / p.beta
    else:
        b = -p.beta
        t = 1.0 + np.log(u + (1.0 - u) * np.exp(-b)) / b
    return _ret(p.baseline.quantile(_tg_invert(t, p.alpha)), scalar)


def _ptg_upper_quantile(v, p):
    """The quantile at u = 1 - v from the upper-tail probability ``v`` (an
    array in (0, 1/2]), accurate where 1 - v rounds to 1.

    1 - T = log1p(v * expm1(beta)) / beta, and x follows from 1 - T by
    :func:`_tg_upper_quantile`.  Past beta = 700, where expm1(beta) nears
    overflow, the same 1 - T is taken as
    ``1 + log(v + (1-v) * exp(-beta)) / beta``, exp(beta) divided out.
    """
    if p.beta <= 700.0:
        t_bar = np.log1p(v * np.expm1(p.beta)) / p.beta
    else:
        t_bar = 1.0 + np.log(v + (1.0 - v) * np.exp(-p.beta)) / p.beta
    return _tg_upper_quantile(t_bar, p.alpha, p.baseline)


def ptg_sample(n, model, seed):
    """Draw ``n`` values from ``model`` (a ``PtgParams``, a baseline or a
    competitor model) through its ``quantile``, deterministic in ``seed``."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    u = np.random.default_rng(seed).random(n)
    # rng.random() lives in [0, 1); nudge any exact zero into the open interval
    return model.quantile(np.maximum(u, np.finfo(float).tiny))
