"""Series expansions and derived quantities of the Poisson transmuted-G family.

The compounded density and cdf admit expansions in powers of the transmuted
cdf T:

* density:  ``f = f_tg(x) * sum_i delta_i * T^i`` with
  ``delta_i = (-1)^i beta^(i+1) / ((1 - exp(-beta)) * i!)``;
* cdf:      ``F = sum_{j>=1} xi_j * T^j`` with
  ``xi_j = (-1)^(j+1) beta^j / ((1 - exp(-beta)) * j!)`` and ``xi_0 = 0``
  (the Taylor expansion of the compounding has no constant term).

Moments, the mgf, probability weighted moments, order statistics,
stress-strength reliability, residual life, Renyi entropy and mean
deviations are computed here.  One vectorised double-exponential rule,
:func:`quad`, is the only evaluation of every integral quantity, to a
relative 1e-11.  Moments, probability weighted moments, mean deviations,
stress-strength reliability and residual life are integrated in
probability space, E[h(X)] = int_a^b h(Q(u)) du, by the tanh-sinh map, with
Q the closed-form quantile below u = 1/2 and its upper-tail form, taken
from v = 1 - u, above; the mgf and the Renyi entropy are integrated over
x by the exp-sinh map, with log-space integrands.  The series forms
(``series_pdf``, ``series_cdf`` and ``order_stat_pdf`` in series mode) are
the paper's expansions, kept as cross-checks of the closed forms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .baselines import Weibull
from .distributions import (
    _ptg_upper_quantile,
    _tg_upper_quantile,
    ptg_cdf,
    ptg_log_pdf,
    ptg_pdf,
    ptg_quantile,
    tg_cdf,
    tg_pdf,
    tg_quantile,
)

__all__ = [
    "TruncationWarning",
    "QuadratureWarning",
    "SeriesCoeffs",
    "PowerSeries",
    "delta_coeffs",
    "xi_coeffs",
    "default_truncation",
    "series_tail_bound",
    "series_pdf",
    "series_cdf",
    "raise_series",
    "quad",
    "raw_moment",
    "mgf",
    "pwm",
    "order_stat_pdf",
    "stress_strength",
    "residual_moment",
    "reversed_residual_moment",
    "renyi_entropy",
    "mean_deviation",
]

HARD_CAP = 200


class TruncationWarning(UserWarning):
    """A requested series truncation leaves a non-negligible tail."""


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesCoeffs:
    """Coefficient vector of one of the family expansions.

    ``kind`` is ``"delta"`` (density) or ``"xi"`` (cdf).  ``values[i]`` is
    the coefficient of T^i; ``truncation_n`` is the largest retained index.
    """

    kind: str
    beta: float
    values: np.ndarray
    truncation_n: int


def _check_beta(beta):
    if not np.isfinite(beta) or beta == 0.0:
        raise ValueError("beta must be a nonzero real")


def delta_coeffs(beta, n_max):
    """Density-expansion coefficients delta_0 .. delta_{n_max}.

    Built iteratively from delta_0 = beta / (1 - exp(-beta)) with ratio
    -beta / i, which avoids forming beta^i and i! separately.
    """
    _check_beta(beta)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    vals = np.empty(n_max + 1)
    vals[0] = beta / (-np.expm1(-beta))
    for i in range(1, n_max + 1):
        vals[i] = vals[i - 1] * (-beta) / i
    return SeriesCoeffs("delta", float(beta), vals, n_max)


def xi_coeffs(beta, n_max):
    """Cdf-expansion coefficients xi_0 .. xi_{n_max}, with xi_0 forced to 0."""
    _check_beta(beta)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    vals = np.zeros(n_max + 1)
    if n_max >= 1:
        vals[1] = beta / (-np.expm1(-beta))
        for j in range(2, n_max + 1):
            vals[j] = vals[j - 1] * (-beta) / j
    return SeriesCoeffs("xi", float(beta), vals, n_max)


def series_tail_bound(beta, n_max):
    """Analytic bound |beta|^(n_max+1) / ((n_max+1)! |1 - exp(-beta)|) on the next term."""
    _check_beta(beta)
    log_b = (n_max + 1) * math.log(abs(beta)) - math.lgamma(n_max + 2)
    return math.exp(log_b - math.log(abs(math.expm1(-beta))))


def default_truncation(beta):
    """Adaptive truncation order: stop once the next-term bound is negligible.

    The term bounds |beta|^(i+1)/(i+1)! grow until i ~ |beta| before the
    factorial wins, so the stop rule only engages past that peak.
    """
    _check_beta(beta)
    scale = abs(math.expm1(-beta))
    term = abs(beta)  # |beta|^(i+1) / (i+1)! at i = 0
    for i in range(HARD_CAP + 1):
        if i + 1 > abs(beta) and term < 1e-14 * scale:
            return i
        term *= abs(beta) / (i + 2)
    return HARD_CAP


def _resolve_n_max(beta, n_max):
    if n_max is None:
        return default_truncation(beta)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if series_tail_bound(beta, n_max) > 1e-8:
        warnings.warn(
            f"series truncated at n_max={n_max} with tail bound "
            f"{series_tail_bound(beta, n_max):.3g} > 1e-8",
            TruncationWarning,
            stacklevel=3,
        )
    return n_max


def series_pdf(x, p, n_max=None):
    """Density via the truncated expansion in powers of the transmuted cdf."""
    n = _resolve_n_max(p.beta, n_max)
    t = tg_cdf(x, p.alpha, p.baseline)
    return tg_pdf(x, p.alpha, p.baseline) * npoly.polyval(
        t, delta_coeffs(p.beta, n).values
    )


def series_cdf(x, p, n_max=None):
    """Cdf via the truncated expansion; exact 0 at T = 0 since xi_0 = 0."""
    n = _resolve_n_max(p.beta, n_max)
    t = tg_cdf(x, p.alpha, p.baseline)
    return npoly.polyval(t, xi_coeffs(p.beta, n).values)


# ---------------------------------------------------------------------------
# formal power series raised to integer powers
# ---------------------------------------------------------------------------


@dataclass
class PowerSeries:
    """Formal power series with cached integer powers of itself."""

    coeffs: np.ndarray
    _raised: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)

    def raised(self, n):
        if n not in self._raised:
            self._raised[n] = _raise_coeffs(self.coeffs, n)
        return self._raised[n]


def _raise_coeffs(a, n):
    """Coefficients of (sum_i a_i u^i)^n, truncated to len(a) terms.

    Repeated convolution, cut to len(a) after every product.  No step
    divides by a_0: the classical recurrence does, and its rounding grows
    like (max|a| / |a_0|)^i.
    """
    a = np.asarray(a, dtype=float)
    if a[0] == 0.0:
        raise ValueError("power raising requires a nonzero leading coefficient")
    if n < 1:
        raise ValueError("power must be a positive integer")
    c = a.copy()
    for _ in range(n - 1):
        c = np.convolve(c, a)[: len(a)]
    return c


def raise_series(series, n):
    """Raise a :class:`PowerSeries` to the positive integer power ``n``."""
    return PowerSeries(series.raised(n))


# ---------------------------------------------------------------------------
# quadrature backbone: one double-exponential rule
# ---------------------------------------------------------------------------


class QuadratureWarning(UserWarning):
    """The finest level of :func:`quad` did not reach its tolerance."""


_LEVELS = 8  # the step h halves from 1 to 1/256
_RTOL = 1e-11
_TINY = np.finfo(float).tiny


def _node_levels():
    """Per level, the nodes t = k h that are new at that level.  |t| stays
    below asinh(700 / pi): the tanh-sinh fractions stay above exp(-700) and
    the exp-sinh nodes inside exp(+-350)."""
    per_unit = 2**_LEVELS
    k_max = int(math.asinh(700.0 / math.pi) * per_unit)
    k = np.arange(-k_max, k_max + 1)
    levels = [k[k % per_unit == 0]]
    for level in range(1, _LEVELS + 1):
        stride = 2 ** (_LEVELS - level)
        levels.append(k[k % (2 * stride) == stride])
    return [kk / per_unit for kk in levels]


def _tanh_sinh(t):
    """Fraction q(t) = (1 + tanh(pi/2 sinh t)) / 2 of the way into the
    interval, its complement 1 - q, each without cancellation, and dq/dt."""
    s = math.pi * np.sinh(t)
    q, q_bar = 1.0 / (1.0 + np.exp(-s)), 1.0 / (1.0 + np.exp(s))
    return q, q_bar, math.pi * np.cosh(t) * q * q_bar


def _exp_sinh(t):
    """Nodes x(t) = exp(pi/2 sinh t) on (0, inf) and log dx/dt."""
    log_x = 0.5 * math.pi * np.sinh(t)
    return np.exp(log_x), log_x + np.log(0.5 * math.pi * np.cosh(t))


_TANH_SINH, _EXP_SINH = zip(*((_tanh_sinh(t), _exp_sinh(t)) for t in _node_levels()))


def quad(fn, a, b):
    """Integral over [a, b] by the double-exponential rule (Takahasi & Mori
    1974), calling ``fn`` once per level on all of that level's new nodes.

    On [a, b] within [0, 1] the map is tanh-sinh and ``fn(u, v)`` returns the
    integrand at the nodes u and their complements v = 1 - u; v is carried
    apart from u, as ``(1 - b) + (b - a) * (1 - q)``, so it keeps the digits
    that 1 - u loses next to u = 1.  On [0, inf) (``b = inf``) the map is
    exp-sinh and ``fn(x)`` returns the *log* of the integrand, so that a
    factor such as exp(s x) cannot overflow before the density's decay
    brings the product down.  The step halves from 1 to 1/256 and the rule
    stops when two successive levels agree to a relative 1e-11; if the
    finest level does not, or every level sums to an exact 0, it warns with
    :class:`QuadratureWarning` and returns the finest level's sum.
    """
    if b == np.inf:
        if a != 0.0:
            raise ValueError("the half-line rule integrates over [0, inf)")

        def level_sum(nodes):
            x, log_w = nodes
            with np.errstate(over="ignore"):  # far nodes of a decaying integrand
                return np.sum(np.exp(fn(x) + log_w))

        levels = _EXP_SINH
    else:
        width = b - a

        def level_sum(nodes):
            q, q_bar, w = nodes
            return width * np.sum(fn(a + width * q, (1.0 - b) + width * q_bar) * w)

        levels = _TANH_SINH
    total = None
    for level, nodes in enumerate(levels):
        part = level_sum(nodes) / 2**level
        previous, total = total, part if total is None else 0.5 * total + part
        # a sum of exact zeros is every node missing the integrand
        if level >= 2 and total != 0.0 and abs(total - previous) <= _RTOL * abs(total):
            return float(total)
    warnings.warn(
        f"quadrature over [{a}, {b}] did not reach a relative {_RTOL:g} at "
        f"step 1/{2**_LEVELS}; returning {float(total)!r}",
        QuadratureWarning,
        stacklevel=3,
    )
    return float(total)


def _split(u, v, lower, upper):
    """A quantile at the nodes u with complements v: ``lower(u)`` up to
    u = 1/2 and ``upper(v)``, an upper-tail form, above it."""
    low = u <= 0.5
    x = np.empty_like(u)
    if np.any(low):
        # nodes of [0, b] underflow to u = 0 once b < 5e-20
        x[low] = lower(np.maximum(u[low], _TINY))
    if not np.all(low):
        x[~low] = upper(v[~low])
    return x


def _quantile(u, v, p):
    """The PT-G quantile at the nodes u with complements v."""
    return _split(u, v, lambda w: ptg_quantile(w, p), lambda w: _ptg_upper_quantile(w, p))


def _over_x(log_h, p):
    """int_0^inf exp(log_h(x)) dx, with the exp-sinh nodes x = m exp(pi/2
    sinh t) scaled by the median m of ``p``, so that they are as dense about
    its bulk at every scale of the baseline."""
    m = float(ptg_quantile(0.5, p))
    return quad(lambda y: log_h(m * y) + math.log(m), 0.0, np.inf)


def pwm(p_exp, q_exp, r_exp, dist):
    """Probability weighted moment of the transmuted layer of ``dist``,
    integrated in probability space: integral_0^1 Q_tg(u)^p u^q (1-u)^r du."""
    for name, v in (("p", p_exp), ("q", q_exp), ("r", r_exp)):
        if int(v) != v or v < 0:
            raise ValueError(f"{name} exponent must be a nonnegative integer")
    p_exp, q_exp, r_exp = int(p_exp), int(q_exp), int(r_exp)
    alpha, base = dist.alpha, dist.baseline

    def integrand(u, v):
        x = _split(u, v, lambda w: tg_quantile(w, alpha, base),
                   lambda w: _tg_upper_quantile(w, alpha, base))
        return x**p_exp * u**q_exp * v**r_exp

    return quad(integrand, 0.0, 1.0)


def raw_moment(s, p):
    """s-th raw moment E[X^s], integrated in probability space over the quantile."""
    if int(s) != s or s < 1:
        raise ValueError("moment order must be a positive integer")
    s = int(s)
    return quad(lambda u, v: _quantile(u, v, p) ** s, 0.0, 1.0)


def mgf(s, p):
    """Moment generating function E[exp(sX)], integrated over x on [0, inf)."""
    if s == 0.0:
        return 1.0
    sup = p.baseline.mgf_sup()
    if s >= sup:
        raise ValueError(f"mgf diverges for s >= {sup} with this baseline")
    return _over_x(lambda x: s * x + ptg_log_pdf(x, p), p)


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------


def _order_const(r, n):
    return math.exp(math.lgamma(n + 1) - math.lgamma(r) - math.lgamma(n - r + 1))


def order_stat_pdf(x, r, n, p, mode="direct", n_max=None):
    """Density of the r-th order statistic in a sample of size n.

    ``direct`` evaluates C * f * F^(r-1) * (1-F)^(n-r); ``series`` evaluates
    the expansion whose coefficients come from the delta/xi vectors and
    truncated power raising.  The two agree to the series truncation error.
    """
    if int(r) != r or int(n) != n or not 1 <= r <= n:
        raise ValueError("need integers 1 <= r <= n")
    r, n = int(r), int(n)
    c = _order_const(r, n)
    if mode == "direct":
        f = ptg_pdf(x, p)
        big_f = ptg_cdf(x, p)
        return c * f * big_f ** (r - 1) * (1.0 - big_f) ** (n - r)
    if mode != "series":
        raise ValueError(f"unknown mode {mode!r}")

    # the composite expansion of f * F^(m+r-1) grows like exp(n*|beta|*T),
    # so the adaptive truncation is taken at the inflated rate
    n_trunc = default_truncation(n * p.beta) if n_max is None else _resolve_n_max(p.beta, n_max)
    dvals = delta_coeffs(p.beta, n_trunc).values
    xvals = xi_coeffs(p.beta, n_trunc).values
    shifted = PowerSeries(xvals[1:]) if n_trunc >= 1 else None

    # D[j] = sum_m (-1)^m C(n-r, m) * [coeff of T^j in (sum_j xi_j T^j)^(m+r-1)]
    big_d = np.zeros(n_trunc + 1)
    for m in range(0, n - r + 1):
        k = m + r - 1
        w = (-1.0) ** m * math.comb(n - r, m)
        if k == 0:
            big_d[0] += w
        else:
            # xi_0 = 0, so the k-th power carries a T^k prefactor and the
            # shifted series (leading coefficient xi_1) is raised instead
            ck = shifted.raised(k)
            big_d[k : n_trunc + 1] += w * ck[: n_trunc + 1 - k]
    pow_coeffs = c * np.convolve(dvals, big_d)[: n_trunc + 1]

    t = tg_cdf(x, p.alpha, p.baseline)
    return tg_pdf(x, p.alpha, p.baseline) * npoly.polyval(t, pow_coeffs)


# ---------------------------------------------------------------------------
# reliability, residual life, entropy, deviations
# ---------------------------------------------------------------------------


def stress_strength(p1, p2):
    """Component reliability integral: pdf(p1) * cdf(p2) over the support.

    Equals P(X2 <= X1) for independent variates X1 ~ p1, X2 ~ p2, i.e. the
    probability that the p1 variate outlasts the p2 variate (reliability of
    a p1-strength component under p2-stress).  Evaluated in probability
    space as the expectation of cdf_p2 under p1.
    """
    if type(p1.baseline) is not type(p2.baseline):
        raise ValueError("stress and strength must share a baseline family")
    return quad(lambda u, v: ptg_cdf(_quantile(u, v, p1), p2), 0.0, 1.0)


def residual_moment(n, t, p):
    """n-th moment of the residual life at age t, E[(X-t)^n | X > t]."""
    if int(n) != n or n < 1:
        raise ValueError("moment order must be a positive integer")
    if t < 0:
        raise ValueError("age t must be nonnegative")
    big_f = ptg_cdf(t, p) if t > 0 else 0.0
    if big_f >= 1.0 - 1e-15:
        raise ValueError("residual life undefined where the cdf has reached 1")
    val = quad(lambda u, v: (_quantile(u, v, p) - t) ** n, big_f, 1.0)
    return val / (1.0 - big_f)


def reversed_residual_moment(n, t, p):
    """n-th moment of the reversed residual life, E[(t-X)^n | X <= t]."""
    if int(n) != n or n < 1:
        raise ValueError("moment order must be a positive integer")
    if t <= 0:
        raise ValueError("age t must be positive")
    big_f = ptg_cdf(t, p)
    if big_f <= 1e-300:
        raise ValueError("reversed residual life undefined where the cdf is 0")
    # divided inside: the integral alone underflows once F(t) * t^n < 1e-308
    return quad(lambda u, v: (t - _quantile(u, v, p)) ** n / big_f, 0.0, big_f)


def renyi_entropy(delta, p):
    """Renyi entropy (1-delta)^(-1) * log integral f^delta, integrated over x
    on [0, inf) in log space."""
    if delta <= 0 or delta == 1.0:
        raise ValueError("delta must be positive and != 1")
    base = p.baseline
    if isinstance(base, Weibull) and delta * (base.theta - 1.0) <= -1.0:
        raise ValueError("Renyi integral diverges at 0 for this shape/delta")
    val = _over_x(lambda x: delta * ptg_log_pdf(x, p), p)
    return math.log(val) / (1.0 - delta)


def mean_deviation(about, p):
    """Mean absolute deviation about the mean or the median.

    Uses the closed combinations 2*mu*F(mu) - 2*Phi(mu) and mu - 2*Phi(M)
    with Phi(t) the partial first moment integral_0^t x f(x) dx; mu and Phi
    are both quantile integrals in probability space.
    """
    mu = raw_moment(1, p)
    if about == "mean":
        c = mu
    elif about == "median":
        c = ptg_quantile(0.5, p)
    else:
        raise ValueError(f"about must be 'mean' or 'median', got {about!r}")
    big_f = ptg_cdf(c, p)
    phi = quad(lambda u, v: _quantile(u, v, p), 0.0, big_f)
    if about == "mean":
        return 2.0 * mu * big_f - 2.0 * phi
    return mu - 2.0 * phi
