"""Baseline lifetime distributions used as the parent G of the transmuted layers.

Each baseline exposes the model protocol shared with ``PtgParams`` and the
competitor models: ``names``, ``values``, ``pdf``, ``cdf``, ``log_pdf`` and
``quantile``.  Both shipped families live on
(0, inf); the ``support`` attribute carries that so future baselines on the
whole real line can declare otherwise.

For the maximum-likelihood score each family also has the class-level,
parameter-batched ``d_cdf`` and ``d_log_pdf``: given observations ``x`` of
shape (n,) and parameter rows ``params`` of shape (S, q), columns in
``names`` order, they return the value, shape (S, n), and its derivative in
each parameter, shape (q, S, n); ``d2`` returns both second derivatives,
each of shape (q, q, S, n), for the observed information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _check_positive(name, value):
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")


@dataclass(frozen=True)
class Exponential:
    """Exponential baseline with rate ``lam``: g(x) = lam * exp(-lam*x)."""

    lam: float

    family_tag = "exponential"
    names = ("lam",)
    support = (0.0, np.inf)

    def __post_init__(self):
        _check_positive("lam", self.lam)

    @property
    def values(self):
        return (self.lam,)

    def pdf(self, x):
        return self.lam * np.exp(-self.lam * np.asarray(x, dtype=float))

    def log_pdf(self, x):
        return np.log(self.lam) - self.lam * np.asarray(x, dtype=float)

    def cdf(self, x):
        return -np.expm1(-self.lam * np.asarray(x, dtype=float))

    def quantile(self, u):
        return -np.log1p(-np.asarray(u, dtype=float)) / self.lam

    def mgf_sup(self):
        # E[exp(sX)] is finite exactly for s < lam.
        return self.lam

    @staticmethod
    def d_cdf(x, params):
        lam = params[:, 0:1]
        tail = np.exp(-lam * x)
        return -np.expm1(-lam * x), (x * tail)[None]

    @staticmethod
    def d_log_pdf(x, params):
        lam = params[:, 0:1]
        return np.log(lam) - lam * x, (1.0 / lam - x)[None]

    @staticmethod
    def d2(x, params):
        lam = params[:, 0:1]
        d2_log_pdf = np.broadcast_to(-1.0 / lam**2, (1, 1, len(lam), x.size))
        return (-x * x * np.exp(-lam * x))[None, None], d2_log_pdf


@dataclass(frozen=True)
class Weibull:
    """Weibull baseline, g(x) = lam * theta * x**(theta-1) * exp(-lam * x**theta).

    ``lam`` is a rate-like scale factor and ``theta`` the shape; ``theta = 1``
    reduces exactly to :class:`Exponential` with the same ``lam``.
    """

    lam: float
    theta: float

    family_tag = "weibull"
    names = ("lam", "theta")
    support = (0.0, np.inf)

    def __post_init__(self):
        _check_positive("lam", self.lam)
        _check_positive("theta", self.theta)

    @property
    def values(self):
        return (self.lam, self.theta)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.lam * self.theta * x ** (self.theta - 1.0) * np.exp(
                -self.lam * x**self.theta
            )
        if self.theta > 1.0:
            out = np.where(x == 0.0, 0.0, out)
        return out

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return (
                np.log(self.lam)
                + np.log(self.theta)
                + (self.theta - 1.0) * np.log(x)
                - self.lam * x**self.theta
            )

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return -np.expm1(-self.lam * x**self.theta)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return (-np.log1p(-u) / self.lam) ** (1.0 / self.theta)

    def mgf_sup(self):
        if self.theta > 1.0:
            return np.inf
        if self.theta == 1.0:
            return self.lam
        return 0.0  # sub-exponential tail: no positive exponential moment

    @staticmethod
    def d_cdf(x, params):
        lam, theta = params[:, 0:1], params[:, 1:2]
        log_x = np.log(x)
        xt = np.exp(theta * log_x)
        d_lam = xt * np.exp(-lam * xt)
        return -np.expm1(-lam * xt), np.stack([d_lam, lam * log_x * d_lam])

    @staticmethod
    def d_log_pdf(x, params):
        lam, theta = params[:, 0:1], params[:, 1:2]
        log_x = np.log(x)
        xt = np.exp(theta * log_x)
        value = np.log(lam) + np.log(theta) + (theta - 1.0) * log_x - lam * xt
        return value, np.stack([1.0 / lam - xt, 1.0 / theta + log_x * (1.0 - lam * xt)])

    @staticmethod
    def d2(x, params):
        lam, theta = params[:, 0:1], params[:, 1:2]
        log_x = np.log(x)
        xt = np.exp(theta * log_x)
        d_lam = xt * np.exp(-lam * xt)
        cross = log_x * d_lam * (1.0 - lam * xt)
        d2_cdf = np.array([[-xt * d_lam, cross], [cross, lam * log_x * cross]])
        lam_lam, log_cross = np.broadcast_to(-1.0 / lam**2, xt.shape), -log_x * xt
        theta_theta = -1.0 / theta**2 + lam * log_x * log_cross
        return d2_cdf, np.array([[lam_lam, log_cross], [log_cross, theta_theta]])


BASELINE_FAMILIES = {
    "exponential": Exponential,
    "weibull": Weibull,
}


def baseline_class(family_tag):
    """The baseline class of a family tag; ``ValueError`` names the known tags."""
    try:
        return BASELINE_FAMILIES[family_tag]
    except KeyError:
        raise ValueError(
            f"unknown baseline family {family_tag!r}; "
            f"expected one of {sorted(BASELINE_FAMILIES)}"
        ) from None


def make_baseline(family_tag, params):
    """Construct a baseline from its family tag and positional parameters."""
    return baseline_class(family_tag)(*params)
