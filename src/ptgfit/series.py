"""The paper's series expansions of the Poisson transmuted-G family, kept as
cross-checks of the closed forms and of the quadrature in :mod:`expansions`.

The compounded density and cdf are power series in the transmuted cdf T:

* density:  ``f = f_tg(x) * sum_i delta_i * T^i`` with
  ``delta_i = (-1)^i beta^(i+1) / ((1 - exp(-beta)) * i!)``;
* cdf:      ``F = sum_{j>=1} xi_j * T^j`` with
  ``xi_j = (-1)^(j+1) beta^j / ((1 - exp(-beta)) * j!)`` and ``xi_0 = 0``
  (the Taylor expansion of the compounding has no constant term).

The density of the r-th order statistic is the product of these series,
``C * delta * xi^(r-1) * (1 - xi)^(n-r)`` times f_tg, with every product
cut at the truncation order.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from .data import _integer, _warn
from .distributions import _transmuted
from .expansions import _order_const

__all__ = [
    "HARD_CAP",
    "TruncationWarning",
    "delta_coeffs",
    "xi_coeffs",
    "series_tail_bound",
    "default_truncation",
    "series_pdf",
    "series_cdf",
    "series_order_stat_pdf",
]

HARD_CAP = 200


class TruncationWarning(UserWarning):
    """A requested series truncation leaves a non-negligible tail."""


def _check_beta(beta):
    if not np.isfinite(beta) or beta == 0.0:
        raise ValueError("beta must be a nonzero real")


def _n_max(n_max):
    return _integer(n_max, 0, f"n_max must be a nonnegative integer, got {n_max!r}")


def delta_coeffs(beta, n_max):
    """Density-expansion coefficients delta_0 .. delta_{n_max}.

    Built iteratively from delta_0 = beta / (1 - exp(-beta)) with ratio
    -beta / i, which avoids forming beta^i and i! separately.
    """
    _check_beta(beta)
    n_max = _n_max(n_max)
    vals = np.empty(n_max + 1)
    vals[0] = beta / (-np.expm1(-beta))
    for i in range(1, n_max + 1):
        vals[i] = vals[i - 1] * (-beta) / i
    return vals


def xi_coeffs(beta, n_max):
    """Cdf-expansion coefficients xi_0 .. xi_{n_max}: xi_0 = 0 and
    xi_j = delta_{j-1} / j, the cdf series being the density series integrated."""
    delta = delta_coeffs(beta, n_max)
    return np.concatenate(([0.0], delta[:-1] / np.arange(1, delta.size)))


def series_tail_bound(beta, n_max):
    """Analytic bound |beta|^(n_max+1) / ((n_max+1)! |1 - exp(-beta)|) on the next term."""
    _check_beta(beta)
    n_max = _n_max(n_max)
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
    n_max = _n_max(n_max)
    bound = series_tail_bound(beta, n_max)
    if bound > 1e-8:
        _warn(f"series truncated at n_max={n_max} with tail bound {bound:.3g} > 1e-8",
              TruncationWarning)
    return n_max


def series_pdf(x, p, n_max=None):
    """Density via the truncated expansion in powers of the transmuted cdf."""
    n = _resolve_n_max(p.beta, n_max)
    t, fac = _transmuted(p.alpha, p.baseline.cdf(x))
    return p.baseline.pdf(x) * fac * npoly.polyval(t, delta_coeffs(p.beta, n))


def series_cdf(x, p, n_max=None):
    """Cdf via the truncated expansion; exact 0 at T = 0 since xi_0 = 0."""
    n = _resolve_n_max(p.beta, n_max)
    t, _ = _transmuted(p.alpha, p.baseline.cdf(x))
    return npoly.polyval(t, xi_coeffs(p.beta, n))


def series_order_stat_pdf(x, r, n, p, n_max=None):
    """Density of the r-th order statistic in a sample of size n, as the
    series C * delta * xi^(r-1) * (1 - xi)^(n-r) in powers of T; it agrees
    with :func:`expansions.order_stat_pdf` to the truncation error."""
    c = _order_const(r, n)
    r, n = int(r), int(n)
    # the product grows like exp(n*|beta|*T), so the adaptive truncation is
    # taken at the inflated rate
    n_trunc = default_truncation(n * p.beta) if n_max is None else _resolve_n_max(p.beta, n_max)
    xi = xi_coeffs(p.beta, n_trunc)
    survival = -xi
    survival[0] = 1.0  # 1 - F, since xi_0 = 0
    coeffs = c * delta_coeffs(p.beta, n_trunc)
    # the survival factors first: of the orders tried, this one strays least
    # from the direct form (at beta = 6.6, 9e-10 of the peak density; xi
    # first, 5e-9)
    for factor, power in ((survival, n - r), (xi, r - 1)):
        for _ in range(power):
            coeffs = npoly.polymul(coeffs, factor)[: n_trunc + 1]
    t, fac = _transmuted(p.alpha, p.baseline.cdf(x))
    return p.baseline.pdf(x) * fac * npoly.polyval(t, coeffs)
