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
intermediate overflows, however negative ``b`` is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .baselines import Exponential, Weibull

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
        excluded (the compounding degenerates), guarded by ``beta_floor``.
    baseline : Exponential or Weibull
        The parent distribution G.
    beta_floor : float
        Smallest admissible |beta|.
    """

    alpha: float
    beta: float
    baseline: Exponential | Weibull
    beta_floor: float = field(default=DEFAULT_BETA_FLOOR, repr=False)

    def __post_init__(self):
        if not np.isfinite(self.alpha) or abs(self.alpha) > 1.0:
            raise ValueError(f"alpha must lie in [-1, 1], got {self.alpha!r}")
        if not np.isfinite(self.beta) or abs(self.beta) < self.beta_floor:
            raise ValueError(
                f"beta must be a nonzero real with |beta| >= {self.beta_floor}, "
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
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("x must be nonnegative")
    return arr, np.isscalar(x) or arr.ndim == 0


def _validated_u(u):
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
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


def ptg_pdf(x, p):
    """Poisson transmuted-G density ``beta * f_tg * exp(-beta*T) / (1 - exp(-beta))``.

    For beta = -b < 0, exp(b) is cancelled from numerator and denominator:
    ``b * f_tg * exp(b*(T-1)) / (1 - exp(-b))``.
    """
    x, scalar = _validated_x(x)
    t = tg_cdf(x, p.alpha, p.baseline)
    f_tg = tg_pdf(x, p.alpha, p.baseline)
    if p.beta > 0:
        return _ret(p.beta * f_tg * np.exp(-p.beta * t) / (-np.expm1(-p.beta)), scalar)
    b = -p.beta
    return _ret(b * f_tg * np.exp(b * (t - 1.0)) / (-np.expm1(-b)), scalar)


def ptg_log_pdf(x, p):
    """Log-density computed in log space (never forms the density itself).

    Returns ``-inf`` wherever the transmuted factor 1 + alpha - 2*alpha*G
    is nonpositive, i.e. where the density vanishes at a support boundary.
    """
    x, scalar = _validated_x(x)
    g = p.baseline.cdf(x)
    fac = 1.0 + p.alpha - 2.0 * p.alpha * g
    t = g * (1.0 + p.alpha - p.alpha * g)
    # log(beta / (1 - exp(-beta))) for either sign, with
    # |1 - exp(-beta)| = exp(max(-beta, 0)) * (1 - exp(-|beta|)) so that
    # nothing overflows however negative beta is
    b = abs(p.beta)
    const = math.log(b) - max(-p.beta, 0.0) - math.log(-math.expm1(-b))
    with np.errstate(divide="ignore", invalid="ignore"):
        body = p.baseline.log_pdf(x) + np.log(fac) - p.beta * t
    out = np.where(fac > 0.0, const + body, -np.inf)
    return _ret(out, scalar)


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


def ptg_sample(n, p, seed):
    """Draw ``n`` values by inverse-transform sampling, deterministic in ``seed``."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    # rng.random() lives in [0, 1); nudge any exact zero into the open interval
    u = np.maximum(u, np.finfo(float).tiny)
    return ptg_quantile(u, p)
