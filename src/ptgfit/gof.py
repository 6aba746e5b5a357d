"""Model-selection criteria, EDF goodness-of-fit statistics and the TTT transform.

The empirical-distribution statistics operate on the probability integral
transform u_i = F(x_(i)) of the sorted sample:

* Kolmogorov-Smirnov: D = max_i max(i/n - u_i, u_i - (i-1)/n), p-value from
  the asymptotic Kolmogorov series;
* Anderson-Darling:   A^2 = -n - (1/n) sum (2i-1) [ln u_i + ln(1 - u_{n+1-i})];
* Cramer-von Mises:   W^2 = sum (u_i - (2i-1)/(2n))^2 + 1/(12n).

No small-sample modification factors are applied.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import check_sample

__all__ = [
    "InformationCriteria",
    "GofReport",
    "information_criteria",
    "kolmogorov_pvalue",
    "ks_test",
    "anderson_darling",
    "cramer_von_mises",
    "ttt_points",
    "evaluate_gof",
]


class InformationCriteria(NamedTuple):
    aic: float
    bic: float
    caic: float
    hqic: float


@dataclass(frozen=True, slots=True)
class GofReport:
    """All criteria and EDF statistics for one fitted model on one dataset."""

    k: int
    n: int
    loglik: float
    aic: float
    bic: float
    caic: float
    hqic: float
    ks: float
    ks_pvalue: float
    ad: float
    cvm: float


def information_criteria(loglik, k, n):
    """AIC, BIC, CAIC (second-order AIC) and HQIC for a fitted model."""
    if n <= k + 1:
        raise ValueError("need n > k + 1 for the CAIC denominator")
    aic = -2.0 * loglik + 2.0 * k
    bic = -2.0 * loglik + k * math.log(n)
    caic = aic + 2.0 * k * (k + 1) / (n - k - 1)
    hqic = -2.0 * loglik + 2.0 * k * math.log(math.log(n))
    return InformationCriteria(aic, bic, caic, hqic)


_KOLMOGOROV_TERMS = 100  # of the series below, ample from t = 0.05 on


def kolmogorov_pvalue(t):
    """Asymptotic Kolmogorov survival function 2 * sum (-1)^(m-1) exp(-2 m^2 t^2)."""
    if t < 0.05:
        # the alternating series needs impractically many terms here and the
        # true value is 1 to within double precision
        return 1.0
    m = np.arange(1, _KOLMOGOROV_TERMS + 1)
    total = 2.0 * np.sum((-1.0) ** (m - 1) * np.exp(-2.0 * m**2 * t**2))
    return float(min(max(total, 0.0), 1.0))


def _pit(data, cdf):
    """The sample size and the probability integral transform of the sorted
    sample, which must pass :func:`data.check_sample`; a transform that is
    not one value per observation, NaN or outside [0, 1] is refused."""
    x = np.sort(check_sample(data))
    u = np.asarray(cdf(x), dtype=float)
    if u.shape != x.shape:  # a scalar would broadcast into the statistics
        raise ValueError(f"cdf(x) must return one value per observation, got shape {u.shape}")
    bad = ~((u >= 0.0) & (u <= 1.0))  # also NaN
    if bad.any():
        raise ValueError(
            f"the probability integral transform cdf(x) must lie in [0, 1], got {float(u[bad][0])}")
    return x.size, u


def _ks(n, u):
    i = np.arange(1, n + 1)
    d = max(np.max(i / n - u), np.max(u - (i - 1) / n))
    return float(d), kolmogorov_pvalue(math.sqrt(n) * d)


def _clipped(u):
    """``u`` kept away from {0, 1} for the logarithms of A^2, with a warning
    located at the caller of the public function that asked for it.  W^2
    takes no logarithm and reads ``u`` as it is."""
    if (u <= 1e-12).any() or (u >= 1.0 - 1e-12).any():
        warnings.warn(
            "probability integral transform clipped away from {0, 1}",
            stacklevel=3,
        )
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return u


def _ad(n, u):
    i = np.arange(1, n + 1)
    return float(-n - np.mean((2 * i - 1) * (np.log(u) + np.log(1.0 - u[::-1]))))


def _cvm(n, u):
    i = np.arange(1, n + 1)
    return float(np.sum((u - (2 * i - 1) / (2 * n)) ** 2) + 1.0 / (12 * n))


def ks_test(data, cdf):
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    return _ks(*_pit(data, cdf))


def anderson_darling(data, cdf):
    n, u = _pit(data, cdf)
    return _ad(n, _clipped(u))


def cramer_von_mises(data, cdf):
    return _cvm(*_pit(data, cdf))


def ttt_points(data):
    """Scaled total-time-on-test transform.

    Returns the n pairs (i/n, T_i) with
    T_i = [sum_{j<=i} x_(j) + (n-i) x_(i)] / sum_j x_(j); T_n = 1 exactly.
    A concave curve indicates increasing hazard, the diagonal constant hazard.
    The data pass :func:`data.check_sample` first.
    """
    x = np.sort(check_sample(data))
    n = x.size
    if n < 2:
        raise ValueError("need at least two observations")
    total = x.sum()
    i = np.arange(1, n + 1)
    t = (np.cumsum(x) + (n - i) * x) / total
    return np.column_stack([i / n, t])


def evaluate_gof(data, cdf, k, loglik):
    """Assemble the full :class:`GofReport` for one fitted model; the three
    EDF statistics share one probability integral transform, which only
    A^2 clips.  The data pass :func:`data.check_sample` first."""
    data = check_sample(data)
    ic = information_criteria(loglik, k, data.size)
    n, u = _pit(data, cdf)
    ks, ks_p = _ks(n, u)
    return GofReport(
        k=int(k),
        n=int(data.size),
        loglik=float(loglik),
        aic=ic.aic,
        bic=ic.bic,
        caic=ic.caic,
        hqic=ic.hqic,
        ks=ks,
        ks_pvalue=ks_p,
        ad=_ad(n, _clipped(u)),
        cvm=_cvm(n, u),
    )
