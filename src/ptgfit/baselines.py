"""The plain lifetime models: the baselines G of the transmuted layers and the
competitor models fitted alongside the PT-G family.

The baselines are ``Exponential`` and ``Weibull``.  The competitors are the
exponential (``Exponential`` again, closed-form MLE 1/xbar), the moment
exponential (length-biased exponential, f(x) = x exp(-x/sigma)/sigma^2,
closed-form MLE xbar/2) and the Marshall-Olkin exponential (tilted survival
S(x) = a exp(-lx) / (1 - (1-a) exp(-lx)), fitted numerically by ``mle.fit``
from its batched log-likelihood, score and Hessian,
``moe_loglik_derivatives``, which shares ``log_pdf``'s one formula; that
kernel is all the Marshall-Olkin row of ``mle.MODELS`` supplies).
Every model exposes the protocol shared with ``PtgParams``: ``names``,
``values``, ``pdf``, ``cdf``, ``log_pdf`` and ``quantile``; the first three
refuse a negative or NaN x with ``ValueError``.  The baselines also have
``isf``, the inverse survival function, for the upper-tail quantiles.

For the PT-G score and information each baseline also has the class-level,
parameter-batched ``d_cdf`` and ``d_log_pdf``: given observations ``x`` of
shape (n,) and parameter rows ``params`` of shape (S, q), columns in
``names`` order, they return the value, shape (S, n), and its derivative in
each parameter, shape (q, S, n); ``d2`` returns both second derivatives,
each of shape (q, q, S, n), for the observed information.  ``cdf`` and
``log_pdf`` share these forms' formulas, so the two agree bit for bit; for
Weibull x**theta is exp(theta log x), except at theta = 1, where the scalar
forms take x itself and equal ``Exponential``'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import check_sample


def _nonnegative(x):
    """``x`` as a float array; ``ValueError`` for a negative or NaN value."""
    arr = np.asarray(x, dtype=float)
    if not np.all(arr >= 0.0):  # also refuses NaN
        raise ValueError("x must be nonnegative (and not NaN)")
    return arr


def _probability(u):
    """``u`` as a float array; ``ValueError`` outside [0, 1] or for NaN."""
    arr = np.asarray(u, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # also refuses NaN
        raise ValueError("u must lie in [0, 1] (and not be NaN)")
    return arr


def _check_positive(name, value):
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")


@dataclass(frozen=True)
class Exponential:
    """Exponential baseline with rate ``lam``: g(x) = lam * exp(-lam*x)."""

    lam: float

    names = ("lam",)

    def __post_init__(self):
        _check_positive("lam", self.lam)

    @property
    def values(self):
        return (self.lam,)

    def pdf(self, x):
        return self.lam * np.exp(-self.lam * _nonnegative(x))

    def log_pdf(self, x):
        return np.log(self.lam) - self.lam * _nonnegative(x)

    def cdf(self, x):
        return -np.expm1(-self.lam * _nonnegative(x))

    def quantile(self, u):
        return -np.log1p(-np.asarray(u, dtype=float)) / self.lam

    def isf(self, h):
        """Inverse survival function: the x with 1 - G(x) = h."""
        return -np.log(h) / self.lam

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

    names = ("lam", "theta")

    def __post_init__(self):
        _check_positive("lam", self.lam)
        _check_positive("theta", self.theta)

    @property
    def values(self):
        return (self.lam, self.theta)

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    def _log_and_power(self, x):
        """log x and x**theta, the power as exp(theta log x) like the batched
        forms, except at theta = 1, where it is x itself like Exponential's."""
        x = _nonnegative(x)
        with np.errstate(divide="ignore"):  # log 0 = -inf
            log_x = np.log(x)
        return log_x, x if self.theta == 1.0 else np.exp(self.theta * log_x)

    def log_pdf(self, x):
        log_x, xt = self._log_and_power(x)
        # the factor x**(theta-1) is 1 at x = 0 when theta = 1
        shape_term = 0.0 if self.theta == 1.0 else (self.theta - 1.0) * log_x
        return np.log(self.lam) + np.log(self.theta) + shape_term - self.lam * xt

    def cdf(self, x):
        return -np.expm1(-self.lam * self._log_and_power(x)[1])

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return (-np.log1p(-u) / self.lam) ** (1.0 / self.theta)

    def isf(self, h):
        """Inverse survival function: the x with 1 - G(x) = h."""
        return (-np.log(h) / self.lam) ** (1.0 / self.theta)

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


@dataclass(frozen=True)
class MomentExponential:
    sigma: float

    names = ("sigma",)

    def __post_init__(self):
        _check_positive("sigma", self.sigma)

    def pdf(self, x):
        x = _nonnegative(x)
        return x * np.exp(-x / self.sigma) / self.sigma**2

    def cdf(self, x):
        x = _nonnegative(x)
        # Gamma(shape 2, scale sigma): 1 - (1 + x/sigma) exp(-x/sigma)
        return 1.0 - (1.0 + x / self.sigma) * np.exp(-x / self.sigma)

    def log_pdf(self, x):
        x = _nonnegative(x)
        return np.log(x) - x / self.sigma - 2.0 * math.log(self.sigma)

    def quantile(self, u):
        return self.sigma * _gamma2_quantile(_probability(u))

    @property
    def values(self):
        return (self.sigma,)


_NEWTON_MAX = 50
_NEWTON_RTOL = 1e-15  # relative Newton step at which a level has converged

# log1p(y) - y = -y t + 2 t^3 sum_k t^(2k) / (2k + 3) with t = y / (2 + y), from
# log1p(y) = 2 atanh(t); t <= 1/5 below y = 1/2, so 13 terms reach 1e-18
_LOG1PMX_SERIES = 1.0 / np.arange(27.0, 1.0, -2.0)


def _log1pmx(y):
    """log1p(y) - y for y >= 0, without the cancellation of the direct form
    below y = 1/2."""
    t = y / (2.0 + y)
    t2 = t * t
    series = np.zeros_like(t)
    for c in _LOG1PMX_SERIES:
        series = series * t2 + c
    return np.where(y < 0.5, 2.0 * t * t2 * series - y * t, np.log1p(y) - y)


def _gamma2_quantile(u):
    """The quantile y of the unit-scale gamma(2) law: (1 + y) e^(-y) = 1 - u,
    solved as log1p(y) - y = log1p(-u) by Newton's method.  The left side is
    concave and decreasing, so from the first step on the iterates fall
    monotonically to the root."""
    with np.errstate(divide="ignore", invalid="ignore"):  # u = 0 or 1: a NaN step
        target = np.log1p(-u)
        # starts below the root: log1p(y) - y >= -y^2/2, and log1p(y) >= 0
        y = np.where(target > -1.0, np.sqrt(-2.0 * target), -target)
        for _ in range(_NEWTON_MAX):
            step = (_log1pmx(y) - target) * (1.0 + y) / y
            live = np.isfinite(step) & (np.abs(step) > _NEWTON_RTOL * y)
            if not live.any():
                break
            y = np.where(live, y + step, y)
    return y  # the starts are already exact at u = 0 (y = 0) and u = 1 (y = inf)


def _moe_log_density(tilt, lam, x):
    """Marshall-Olkin log-density, elementwise, with e = exp(-lam x) and
    D = 1 - (1 - tilt) e."""
    tail = np.exp(-lam * x)
    denom = 1.0 - (1.0 - tilt) * tail
    return np.log(tilt) + np.log(lam) - lam * x - 2.0 * np.log(denom), tail, denom


@dataclass(frozen=True)
class MarshallOlkinExponential:
    tilt: float
    lam: float

    names = ("tilt", "lam")

    def __post_init__(self):
        _check_positive("tilt", self.tilt)
        _check_positive("lam", self.lam)

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    def cdf(self, x):
        x = _nonnegative(x)
        return -np.expm1(-self.lam * x) / (1.0 - (1.0 - self.tilt) * np.exp(-self.lam * x))

    def log_pdf(self, x):
        return _moe_log_density(self.tilt, self.lam, _nonnegative(x))[0]

    def loglik(self, data):
        """Log-likelihood of the sample ``data``: the sum of :meth:`log_pdf`."""
        return float(np.sum(self.log_pdf(check_sample(data))))

    def quantile(self, u):
        # invert S(x) = a*y / (1 - (1-a)*y) with y = exp(-lam*x)
        s = 1.0 - _probability(u)
        y = s / (self.tilt + s * (1.0 - self.tilt))
        with np.errstate(divide="ignore"):  # u = 1: x = inf
            return -np.log(y) / self.lam

    @property
    def values(self):
        return (self.tilt, self.lam)


def moe_loglik_derivatives(data, theta, order=1):
    """Log-likelihoods (S,) and scores (S, 2) of ``data`` at the parameter
    rows ``theta`` (S, 2) = (tilt, lam), and at ``order`` 2 the Hessians
    (S, 2, 2)."""
    x = np.asarray(data, dtype=float)
    n = x.size
    with np.errstate(all="ignore"):  # overflow only ever gives a rejected row
        tilt, lam = theta.T
        log_f, tail, denom = _moe_log_density(tilt[:, None], lam[:, None], x)
        w = tail / denom
        ll = np.sum(log_f, axis=1)
        score = np.column_stack([
            n / tilt - 2.0 * np.sum(w, axis=1),
            n / lam - np.sum(x) - 2.0 * (1.0 - tilt) * np.sum(x * w, axis=1),
        ])
        if order == 1:
            return ll, score
        w2 = w / denom
        hess = np.empty((len(theta), 2, 2))
        hess[:, 0, 0] = -n / tilt**2 + 2.0 * np.sum(tail * w2, axis=1)
        hess[:, 0, 1] = hess[:, 1, 0] = 2.0 * np.sum(x * w2, axis=1)
        hess[:, 1, 1] = -n / lam**2 + 2.0 * (1.0 - tilt) * np.sum(x**2 * w2, axis=1)
    return ll, score, hess
