"""PT-G formulas written apart from ptgfit, used to check its results.

Nothing here imports ptgfit.  The distribution is written from its
definition: baseline cdf G (exponential or Weibull), transmuted cdf
T = G (1 + a - a G), and compounded cdf F = (1 - exp(-b T)) / (1 - exp(-b)).
The quantile inverts both layers in closed form, so every integral the
checks need is taken in probability space, E[h(X)] = int_0^1 h(Q(u)) du,
by scipy's adaptive quadrature over scalar integrands.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

# largest double below 1: keeps the baseline inversion finite when the
# quadrature samples u within one rounding step of 1
_ONE_MINUS = math.nextafter(1.0, 0.0)


class PtgReference:
    """One PT-E (theta = 1) or PT-W distribution, from its definition."""

    def __init__(self, alpha, beta, lam, theta=1.0):
        self.alpha, self.beta, self.lam, self.theta = alpha, beta, lam, theta
        # log(beta / (1 - exp(-beta))), positive argument for either sign
        if beta > 0:
            self._log_const = math.log(beta) - math.log1p(-math.exp(-beta))
        else:
            self._log_const = math.log(-beta) + beta - math.log1p(-math.exp(beta))
        self._expm1_neg_beta = math.expm1(-beta)

    # -- scalar forms, for quadrature integrands -------------------------

    def quantile(self, u):
        a, b = self.alpha, self.beta
        t = -math.log1p(u * self._expm1_neg_beta) / b
        disc = max((1.0 + a) ** 2 - 4.0 * a * t, 0.0)
        g = min(2.0 * t / ((1.0 + a) + math.sqrt(disc)), _ONE_MINUS)
        return (-math.log1p(-g) / self.lam) ** (1.0 / self.theta)

    def cdf(self, x):
        a = self.alpha
        g = -math.expm1(-self.lam * x**self.theta)
        t = g * (1.0 + a - a * g)
        return math.expm1(-self.beta * t) / self._expm1_neg_beta

    def log_pdf(self, x):
        a, lam, theta = self.alpha, self.lam, self.theta
        z = lam * x**theta
        g = -math.expm1(-z)
        log_base = math.log(lam * theta) + (theta - 1.0) * math.log(x) - z
        return (
            self._log_const
            + log_base
            + math.log(1.0 + a - 2.0 * a * g)
            - self.beta * g * (1.0 + a - a * g)
        )

    def pdf(self, x):
        return math.exp(self.log_pdf(x))

    # -- array forms ------------------------------------------------------

    def log_pdf_sum(self, data):
        """Sum of log-densities over a positive sample (the log-likelihood)."""
        x = np.asarray(data, dtype=float)
        a, lam, theta = self.alpha, self.lam, self.theta
        z = lam * x**theta
        g = -np.expm1(-z)
        terms = (
            np.log(lam * theta)
            + (theta - 1.0) * np.log(x)
            - z
            + np.log(1.0 + a - 2.0 * a * g)
            - self.beta * g * (1.0 + a - a * g)
        )
        return float(x.size * self._log_const + terms.sum())

    def quantiles(self, u):
        return np.array([self.quantile(float(v)) for v in u])

    def pdfs(self, x):
        return np.array([self.pdf(float(v)) for v in x])

    def cdfs(self, x):
        return np.array([self.cdf(float(v)) for v in x])

    # -- derived quantities -----------------------------------------------

    def expect(self, h, lo=0.0, hi=1.0):
        """int_lo^hi h(Q(u)) du."""
        return integrate(lambda u: h(self.quantile(u)), lo, hi)

    def raw_moment(self, s):
        return self.expect(lambda x: x**s)

    def tg_pwm(self, p, q, r):
        """int_0^1 Q_T(u)^p u^q (1-u)^r du, Q_T the transmuted-layer quantile."""
        a = self.alpha

        def q_tg(u):
            disc = max((1.0 + a) ** 2 - 4.0 * a * u, 0.0)
            g = min(2.0 * u / ((1.0 + a) + math.sqrt(disc)), _ONE_MINUS)
            return (-math.log1p(-g) / self.lam) ** (1.0 / self.theta)

        return integrate(lambda u: q_tg(u) ** p * u**q * (1.0 - u) ** r, 0.0, 1.0)


def integrate(fn, lo, hi):
    """Adaptive quadrature at a tighter tolerance than the checks need."""
    return quad(fn, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=500, full_output=1)[0]


def order_stat_const(r, n):
    return math.exp(math.lgamma(n + 1) - math.lgamma(r) - math.lgamma(n - r + 1))


def close(got, want, rel, floor=1.0):
    """|got - want| <= rel * max(floor, |want|), false for non-finite values."""
    got, want = float(got), float(want)
    return math.isfinite(got) and abs(got - want) <= rel * max(floor, abs(want))
