"""Derived quantities of the Poisson transmuted-G family.

Moments, the mgf, probability weighted moments, order statistics,
stress-strength reliability, residual life, Renyi entropy and mean
deviations are computed here.  One vectorised double-exponential rule,
:func:`quad`, is the only evaluation of every integral quantity, to a
relative 1e-11.  Moments, probability weighted moments, mean deviations,
stress-strength reliability and residual life are integrated in
probability space, E[h(X)] = int_a^b h(Q(u)) du, by the tanh-sinh map, with
Q the quantile core of :mod:`distributions` at each node u and the
complement v = 1 - u that the rule carries, so the upper tail keeps its
digits; the mgf and the Renyi entropy are integrated over x by the
exp-sinh map, with log-space integrands.  Every upper-tail quantity reads
the survival function S = 1 - F of :func:`distributions.ptg_sf`, never 1 - F
by subtraction: the residual life integrates over v in [0, S(t)] and divides
by S(t), and the order-statistic density is the direct form
C * f * F^(r-1) * S^(n-r).  The paper's
series expansions live in :mod:`series`, as cross-checks of these forms.
"""

from __future__ import annotations

import math

import numpy as np

from .data import _integer, _warn
from .distributions import (
    _ptg_quantile,
    _tg_quantile,
    ptg_cdf,
    ptg_log_pdf,
    ptg_pdf,
    ptg_quantile,
    ptg_sf,
)

__all__ = [
    "QuadratureWarning",
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

# ---------------------------------------------------------------------------
# quadrature backbone: one double-exponential rule
# ---------------------------------------------------------------------------


class QuadratureWarning(UserWarning):
    """The finest level of :func:`quad` did not reach its tolerance."""


_LEVELS = 8  # the step h halves from 1 to 1/256
_RTOL = 1e-11


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
    :class:`QuadratureWarning` and returns the finest level's sum.  A
    non-finite ``a``, or a ``b`` that is NaN or -inf, is a ``ValueError``.
    """
    if not (math.isfinite(a) and -np.inf < b):  # also refuses NaN
        raise ValueError(f"quad integrates from a finite a to a finite b or inf, got [{a}, {b}]")
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
    _warn(f"quadrature over [{a}, {b}] did not reach a relative {_RTOL:g} at "
          f"step 1/{2**_LEVELS}; returning {float(total)!r}", QuadratureWarning)
    return float(total)


def _over_x(log_h, p):
    """int_0^inf exp(log_h(x)) dx, with the exp-sinh nodes x = m exp(pi/2
    sinh t) scaled by the median m of ``p``, so that they are as dense about
    its bulk at every scale of the baseline."""
    m = float(ptg_quantile(0.5, p))
    return quad(lambda y: log_h(m * y) + math.log(m), 0.0, np.inf)


def pwm(p_exp, q_exp, r_exp, dist):
    """Probability weighted moment of the transmuted layer of ``dist``,
    integrated in probability space: integral_0^1 Q_tg(u)^p u^q (1-u)^r du."""
    p_exp, q_exp, r_exp = (
        _integer(v, 0, f"{name} exponent must be a nonnegative integer")
        for name, v in (("p", p_exp), ("q", q_exp), ("r", r_exp))
    )
    alpha, base = dist.alpha, dist.baseline
    return quad(lambda u, v: _tg_quantile(u, v, alpha, base) ** p_exp * u**q_exp * v**r_exp,
                0.0, 1.0)


def raw_moment(s, p):
    """s-th raw moment E[X^s], integrated in probability space over the quantile."""
    s = _integer(s, 1, "moment order must be a positive integer")
    return quad(lambda u, v: _ptg_quantile(u, v, p) ** s, 0.0, 1.0)


def mgf(s, p):
    """Moment generating function E[exp(sX)], integrated over x on [0, inf)."""
    if s == 0.0:
        return 1.0
    sup = p.baseline.mgf_sup()
    if not -np.inf < s < sup:  # also refuses NaN
        raise ValueError(f"mgf needs a finite s < {sup} with this baseline, got {s!r}")
    return _over_x(lambda x: s * x + ptg_log_pdf(x, p), p)


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------


def _order_const(r, n):
    """n! / ((r-1)! (n-r)!), the constant of the r-th of n order statistics."""
    r = _integer(r, 1, "need integers 1 <= r <= n")
    n = _integer(n, r, "need integers 1 <= r <= n")
    return math.exp(math.lgamma(n + 1) - math.lgamma(r) - math.lgamma(n - r + 1))


def order_stat_pdf(x, r, n, p):
    """Density C * f * F^(r-1) * S^(n-r) of the r-th order statistic in a
    sample of size n, with S = 1 - F the survival function; a power of 0
    reads neither F nor S."""
    c = _order_const(r, n)
    r, n = int(r), int(n)
    dens = c * ptg_pdf(x, p)
    if r > 1:
        dens = dens * ptg_cdf(x, p) ** (r - 1)
    if n > r:
        dens = dens * ptg_sf(x, p) ** (n - r)
    return dens


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
    return quad(lambda u, v: ptg_cdf(_ptg_quantile(u, v, p1), p2), 0.0, 1.0)


def residual_moment(n, t, p):
    """n-th moment of the residual life at age t, E[(X-t)^n | X > t],
    integrated over the upper-tail levels v in [0, S(t)], S = 1 - F the
    survival function, and divided by S(t)."""
    n = _integer(n, 1, "moment order must be a positive integer")
    if not 0.0 <= t < np.inf:  # also refuses NaN
        raise ValueError(f"age t must be nonnegative and finite, got {t!r}")
    surv = ptg_sf(t, p) if t > 0 else 1.0  # S(0) = 1
    if surv < np.finfo(float).tiny:
        raise ValueError("residual life undefined where the survival function underflows")
    # quad hands the levels v = 1 - u first, exact, and their complements u
    return quad(lambda v, u: (_ptg_quantile(u, v, p) - t) ** n, 0.0, surv) / surv


def reversed_residual_moment(n, t, p):
    """n-th moment of the reversed residual life, E[(t-X)^n | X <= t]."""
    n = _integer(n, 1, "moment order must be a positive integer")
    if not 0.0 < t < np.inf:  # also refuses NaN
        raise ValueError(f"age t must be positive and finite, got {t!r}")
    big_f = ptg_cdf(t, p)
    if big_f <= 1e-300:
        raise ValueError("reversed residual life undefined where the cdf is 0")
    # divided inside: the integral alone underflows once F(t) * t^n < 1e-308
    return quad(lambda u, v: (t - _ptg_quantile(u, v, p)) ** n / big_f, 0.0, big_f)


def renyi_entropy(delta, p):
    """Renyi entropy (1-delta)^(-1) * log integral f^delta, integrated over x
    on [0, inf) in log space."""
    if not 0.0 < delta < np.inf or delta == 1.0:  # also refuses NaN
        raise ValueError(f"delta must be positive, finite and != 1, got {delta!r}")
    if delta * (p.baseline.theta - 1.0) <= -1.0:
        raise ValueError("Renyi integral diverges at 0 for this shape/delta")
    val = _over_x(lambda x: delta * ptg_log_pdf(x, p), p)
    return math.log(val) / (1.0 - delta)


def mean_deviation(about, p):
    """Mean absolute deviation about the mean or the median.

    Uses the closed combinations 2*mu*F(mu) - 2*Phi(mu) and mu - 2*Phi(M)
    with Phi(t) the partial first moment integral_0^t x f(x) dx; mu and Phi
    are both quantile integrals in probability space.
    """
    if about not in ("mean", "median"):  # before the integral of mu
        raise ValueError(f"about must be 'mean' or 'median', got {about!r}")
    mu = raw_moment(1, p)
    c = mu if about == "mean" else ptg_quantile(0.5, p)
    big_f = ptg_cdf(c, p)
    phi = quad(lambda u, v: _ptg_quantile(u, v, p), 0.0, big_f)
    if about == "mean":
        return 2.0 * mu * big_f - 2.0 * phi
    return mu - 2.0 * phi
