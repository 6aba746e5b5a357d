"""The plain lifetime models: the baselines G of the transmuted layers and the
competitor models fitted alongside the PT-G family.

The baselines are ``Weibull`` and ``Exponential``, the Weibull law at
theta = 1: a subclass that fixes theta and adds only its density, as the
product lam exp(-lam x), and its one-parameter kernel.  The competitors are the
exponential (``Exponential`` again, closed-form MLE 1/xbar), the moment
exponential (length-biased exponential, f(x) = x exp(-x/sigma)/sigma^2,
closed-form MLE xbar/2) and the Marshall-Olkin exponential (tilted survival
S(x) = a exp(-lx) / (1 - (1-a) exp(-lx)), fitted numerically by ``mle.fit``
from its batched log-likelihood, score and Hessian,
``moe_loglik_derivatives``, which shares ``log_pdf``'s one formula; that
kernel is all the Marshall-Olkin row of ``mle.MODELS`` supplies).
Every model exposes the protocol shared with ``PtgParams``: ``names``,
``values``, ``pdf``, ``cdf``, ``sf``, ``log_pdf`` and ``quantile``; the four
functions of x refuse a negative or NaN x with ``ValueError``.  ``sf`` is the
survival function 1 - cdf in its own exact form (exp(-lam H) with H = x or
x**theta, exp(log1p(y) - y) with y = x/sigma, and the Marshall-Olkin tilted
tail), never a subtraction, so it keeps its digits where the cdf rounds to 1.
The baselines also have ``isf``, the inverse survival function, for the
upper-tail quantiles.

For the PT-G score and information each baseline also has one class-level,
parameter-batched method, ``derivatives(x, params, order=1)``: given
observations ``x`` of shape (1, n), or (S, n) with one row of observations
per parameter row, and parameter rows ``params`` of shape (S, q), columns in
``names`` order, it returns ``(cdf, d_cdf, log_pdf, d_log_pdf)``, the values
of shape (S, n) and their derivatives in each parameter of shape (q, S, n);
at ``order`` 2 it adds ``(d2_cdf, d2_log_pdf)``, each of shape (q, q, S, n),
for the observed information.  The shared terms
(Exponential's exp(-lam x), Weibull's log x, x**theta and dG/dlam) are
computed once.  ``cdf`` and ``log_pdf`` share its formulas, so the two agree
bit for bit; for Weibull x**theta is exp(theta log x), except at theta = 1,
where the scalar forms take x itself, which is how they serve ``Exponential``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import check_sample


def _nonnegative(x):
    """``x`` as a float array; ``ValueError`` for a negative or NaN value."""
    arr = np.asarray(x, dtype=float)
    if not (arr >= 0.0).all():  # also refuses NaN
        raise ValueError("x must be nonnegative (and not NaN)")
    return arr


def _probability(u):
    """``u`` as a float array; ``ValueError`` outside [0, 1] or for NaN."""
    arr = np.asarray(u, dtype=float)
    if not ((arr >= 0.0) & (arr <= 1.0)).all():  # also refuses NaN
        raise ValueError("u must lie in [0, 1] (and not be NaN)")
    return arr


def _check_positive(name, value):
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")


@dataclass(frozen=True)
class Weibull:
    """Weibull baseline, g(x) = lam * theta * x**(theta-1) * exp(-lam * x**theta).

    ``lam`` is a rate-like scale factor and ``theta`` the shape; ``theta = 1``
    is the exponential law, :class:`Exponential`, served by the same methods.
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
        forms; at theta = 1 the power is x itself, and log x, which no
        formula then needs, is None."""
        x = _nonnegative(x)
        if self.theta == 1.0:
            return None, x
        with np.errstate(divide="ignore"):  # log 0 = -inf
            log_x = np.log(x)
        return log_x, np.exp(self.theta * log_x)

    def log_pdf(self, x):
        log_x, xt = self._log_and_power(x)
        if log_x is None:  # the factor x**(theta-1) is 1, also at x = 0
            return np.log(self.lam) - self.lam * xt
        return np.log(self.lam) + np.log(self.theta) + (self.theta - 1.0) * log_x - self.lam * xt

    def cdf(self, x):
        return -np.expm1(-self.lam * self._log_and_power(x)[1])

    def sf(self, x):
        return np.exp(-self.lam * self._log_and_power(x)[1])

    def quantile(self, u):
        u = _probability(u)
        with np.errstate(divide="ignore"):  # u = 1: x = inf
            xt = -np.log1p(-u) / self.lam
        return xt if self.theta == 1.0 else xt ** (1.0 / self.theta)

    def isf(self, h):
        """Inverse survival function: the x with 1 - G(x) = h."""
        xt = -np.log(h) / self.lam
        return xt if self.theta == 1.0 else xt ** (1.0 / self.theta)

    def mgf_sup(self):
        if self.theta > 1.0:
            return np.inf
        if self.theta == 1.0:
            return self.lam
        return 0.0  # sub-exponential tail: no positive exponential moment

    @staticmethod
    def derivatives(x, params, order=1):
        lam, theta = params[:, 0:1], params[:, 1:2]
        log_x = np.log(x)
        xt = np.exp(theta * log_x)
        lam_xt, lam_log_x = lam * xt, lam * log_x
        d_lam, one_less = xt * np.exp(-lam_xt), 1.0 - lam_xt
        log_pdf = np.log(lam) + np.log(theta) + (theta - 1.0) * log_x - lam_xt
        first = (-np.expm1(-lam_xt), np.stack([d_lam, lam_log_x * d_lam]),
                 log_pdf, np.stack([1.0 / lam - xt, 1.0 / theta + log_x * one_less]))
        if order == 1:
            return first
        cross = log_x * d_lam * one_less
        d2_cdf = np.array([[-xt * d_lam, cross], [cross, lam_log_x * cross]])
        lam_lam, log_cross = np.broadcast_to(-1.0 / lam**2, xt.shape), -log_x * xt
        theta_theta = -1.0 / theta**2 + lam_log_x * log_cross
        return (*first, d2_cdf, np.array([[lam_lam, log_cross], [log_cross, theta_theta]]))


@dataclass(frozen=True)
class Exponential(Weibull):
    """Exponential baseline with rate ``lam``, g(x) = lam * exp(-lam*x): the
    Weibull law at theta = 1, whose theta = 1 path serves every method but
    ``pdf``, the product itself, and the one-parameter kernel ``derivatives``."""

    theta: float = field(default=1.0, init=False, repr=False)

    names = ("lam",)

    @property
    def values(self):
        return (self.lam,)

    def pdf(self, x):
        return self.lam * np.exp(-self.lam * _nonnegative(x))

    @staticmethod
    def derivatives(x, params, order=1):
        lam = params[:, 0:1]
        lam_x = lam * x
        tail = np.exp(-lam_x)
        first = -np.expm1(-lam_x), (x * tail)[None], np.log(lam) - lam_x, (1.0 / lam - x)[None]
        if order == 1:
            return first
        d2_log_pdf = np.broadcast_to(-1.0 / lam**2, (1, 1, *lam_x.shape))
        return (*first, (-x * x * tail)[None, None], d2_log_pdf)


@dataclass(frozen=True)
class MomentExponential:
    sigma: float

    names = ("sigma",)

    def __post_init__(self):
        _check_positive("sigma", self.sigma)

    def pdf(self, x):
        x = _nonnegative(x)
        return x * np.exp(-x / self.sigma) / self.sigma**2

    def _log_sf(self, x):
        """log S = log1p(y) - y with y = x/sigma: Gamma(shape 2, scale sigma)
        has S = (1 + y) exp(-y)."""
        return _log1pmx(_nonnegative(x) / self.sigma)

    def cdf(self, x):
        return 0.0 - np.expm1(self._log_sf(x))  # 0.0 - keeps cdf(0) = +0.0

    def sf(self, x):
        return np.exp(self._log_sf(x))

    def log_pdf(self, x):
        x = _nonnegative(x)
        with np.errstate(divide="ignore"):  # log 0 = -inf
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
    D = 1 - (1 - tilt) e, formed as tilt - (1 - tilt) expm1(-lam x), which
    does not cancel where e is near 1 and tilt small."""
    lam_x = lam * x
    tail = np.exp(-lam_x)
    denom = tilt - (1.0 - tilt) * np.expm1(-lam_x)
    return np.log(tilt) + np.log(lam) - lam_x - 2.0 * np.log(denom), tail, denom


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
        return -np.expm1(-self.lam * x) / _moe_log_density(self.tilt, self.lam, x)[2]

    def sf(self, x):
        _, tail, denom = _moe_log_density(self.tilt, self.lam, _nonnegative(x))
        return self.tilt * tail / denom

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


def _runs(n_obs, width):
    """``(rows, n)`` for each run of consecutive rows of the same own length n
    in ``n_obs``; one run of every row at ``width`` when n_obs is None."""
    if n_obs is None:
        return [(slice(None), width)]
    runs, lo = [], 0
    for n, run in itertools.groupby(n_obs.tolist()):
        hi = lo + len(list(run))
        runs.append((slice(lo, hi), n))
        lo = hi
    return runs


def _own_sums(a, runs):
    """Sums of ``a`` (..., S, width) over its last axis, each run of rows of
    ``_runs`` over its own first n entries: the terms of each sample alone,
    in their order (a sum over a padded row would group numpy's pairwise
    summation differently and move last digits)."""
    out = np.empty(a.shape[:-1])
    for rows, n in runs:
        np.add.reduce(a[..., rows, :n], axis=-1, out=out[..., rows])
    return out


def _own_dots(u, v, runs):
    """The products u (S, q, width) @ v (S, width), each run of rows of
    ``_runs`` over its own first n entries: (S, q)."""
    out = np.empty(u.shape[:-1])
    for rows, n in runs:
        out[rows] = (u[rows, :, :n] @ v[rows, :n, None])[..., 0]
    return out


def moe_loglik_derivatives(data, theta, order=1, n_obs=None):
    """Log-likelihoods (S,) and scores (S, 2) of ``data`` at the parameter
    rows ``theta`` (S, 2) = (tilt, lam), and at ``order`` 2 the Hessians
    (S, 2, 2).  ``data`` is one sample (n,) for every row, or one row of
    observations per parameter row (S, n); ``n_obs`` (S,), if given, holds
    each row's own sample size, its sample in the row's first n_obs entries
    and padding after them that every sum leaves out."""
    x = np.atleast_2d(np.asarray(data, dtype=float))
    runs = _runs(n_obs, x.shape[1])
    n = x.shape[1] if n_obs is None else n_obs
    with np.errstate(all="ignore"):  # overflow only ever gives a rejected row
        tilt, lam = theta.T
        log_f, tail, denom = _moe_log_density(tilt[:, None], lam[:, None], x)
        # the per-observation terms, summed in one pass
        terms = np.empty((4,) + log_f.shape)
        terms[0], terms[2] = log_f, x
        w = np.divide(tail, denom, out=terms[1])
        np.multiply(x, w, out=terms[3])
        ll, w_sum, x_sum, xw_sum = _own_sums(terms, runs)
        score = np.column_stack([
            n / tilt - 2.0 * w_sum,
            n / lam - x_sum - 2.0 * (1.0 - tilt) * xw_sum,
        ])
        if order == 1:
            return ll, score
        w2 = w / denom
        hess = np.empty((len(theta), 2, 2))
        hess[:, 0, 0] = -n / tilt**2 + 2.0 * _own_sums(tail * w2, runs)
        hess[:, 0, 1] = hess[:, 1, 0] = 2.0 * _own_sums(x * w2, runs)
        hess[:, 1, 1] = -n / lam**2 + 2.0 * (1.0 - tilt) * _own_sums(x**2 * w2, runs)
    return ll, score, hess
