"""Reference models fitted alongside the PT-G family in comparisons.

Three lightweight lifetime models: exponential (``baselines.Exponential``,
closed-form MLE), moment exponential (length-biased exponential,
f(x) = x exp(-x/sigma)/sigma^2, closed-form sigma_hat = xbar/2) and
Marshall-Olkin exponential (tilted survival
S(x) = a exp(-lx) / (1 - (1-a) exp(-lx)), fitted numerically on the
lockstep quasi-Newton engine of ``mle``, driven by its analytic score).

The models carry the protocol of ``PtgParams`` (``names``, ``values``,
``pdf``, ``cdf``, ``log_pdf``, ``quantile``), and ``fit_competitor`` returns
the same ``FitResult`` as ``mle.fit``, with the fitted model as
``estimates``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import Exponential, _check_positive
from .data import check_sample
from .mle import _LOG_BOX, FitResult, log_likelihood, multistart_maximize

__all__ = [
    "MomentExponential",
    "MarshallOlkinExponential",
    "fit_competitor",
    "COMPETITOR_TAGS",
]

COMPETITOR_TAGS = ("exp", "me", "moe")


@dataclass(frozen=True)
class MomentExponential:
    sigma: float

    names = ("sigma",)

    def __post_init__(self):
        _check_positive("sigma", self.sigma)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return x * np.exp(-x / self.sigma) / self.sigma**2

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        # Gamma(shape 2, scale sigma): 1 - (1 + x/sigma) exp(-x/sigma)
        return 1.0 - (1.0 + x / self.sigma) * np.exp(-x / self.sigma)

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.log(x) - x / self.sigma - 2.0 * math.log(self.sigma)

    def quantile(self, u):
        from scipy.stats import gamma

        return gamma.ppf(np.asarray(u, dtype=float), a=2, scale=self.sigma)

    @property
    def values(self):
        return (self.sigma,)


@dataclass(frozen=True)
class MarshallOlkinExponential:
    tilt: float
    lam: float

    names = ("tilt", "lam")

    def __post_init__(self):
        _check_positive("tilt", self.tilt)
        _check_positive("lam", self.lam)

    def _denom(self, x):
        return 1.0 - (1.0 - self.tilt) * np.exp(-self.lam * np.asarray(x, dtype=float))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return self.tilt * self.lam * np.exp(-self.lam * x) / self._denom(x) ** 2

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return -np.expm1(-self.lam * x) / self._denom(x)

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        return (
            math.log(self.tilt) + math.log(self.lam)
            - self.lam * x - 2.0 * np.log(self._denom(x))
        )

    def loglik(self, data):
        """Log-likelihood of ``data``: the sum of :meth:`log_pdf`."""
        return log_likelihood(data, self)

    def quantile(self, u):
        # invert S(x) = a*y / (1 - (1-a)*y) with y = exp(-lam*x)
        s = 1.0 - np.asarray(u, dtype=float)
        y = s / (self.tilt + s * (1.0 - self.tilt))
        return -np.log(y) / self.lam

    @property
    def values(self):
        return (self.tilt, self.lam)


def _moe_loglik_score(data):
    """Batched Marshall-Olkin log-likelihood and score.

    Returns ``f(Z) -> (loglik (S,), score (S, 2))`` for rows of
    z = (log tilt, log lam).  With D = 1 - (1 - tilt) exp(-lam x),

        l = n log tilt + n log lam - lam sum x - 2 sum log D.
    """
    x = np.asarray(data, dtype=float)
    n, sum_x = x.size, float(x.sum())

    def loglik_score(z):
        with np.errstate(all="ignore"):  # overflow only ever gives a rejected row
            tilt, lam = np.exp(z[:, 0:1]), np.exp(z[:, 1:2])
            tail = np.exp(-lam * x)
            denom = 1.0 - (1.0 - tilt) * tail
            w = tail / denom
            tilt, lam = tilt[:, 0], lam[:, 0]
            ll = n * (z[:, 0] + z[:, 1]) - lam * sum_x - 2.0 * np.sum(np.log(denom), axis=1)
            score = np.column_stack(
                [
                    n - 2.0 * tilt * np.sum(w, axis=1),
                    n - lam * sum_x - 2.0 * lam * (1.0 - tilt) * np.sum(x * w, axis=1),
                ]
            )
        return ll, score

    return loglik_score


def _moe_information(data, model):
    """Exact observed information of the Marshall-Olkin ``model`` at the array
    ``data``, in (tilt, lam): with e = exp(-lam x) and D = 1 - (1 - tilt) e, l_aa =
    -n/tilt^2 + 2 sum (e/D)^2, l_al = 2 sum x e/D^2, l_ll = -n/lam^2 + 2 (1-tilt) sum x^2 e/D^2."""
    tilt, lam = model.values
    e = np.exp(-lam * data)
    w = e / model._denom(data) ** 2
    l_al = 2.0 * np.sum(data * w)
    l_aa = -data.size / tilt**2 + 2.0 * np.sum(e * w)
    l_ll = -data.size / lam**2 + 2.0 * (1.0 - tilt) * np.sum(data**2 * w)
    return -np.array([[l_aa, l_al], [l_al, l_ll]])


def fit_competitor(data, tag, seed=0, n_starts=20):
    """Fit one competitor by tag and return its ``FitResult``.

    Closed-form information is used for the exponential (n/lam^2, so
    SE = lam/sqrt(n)) and moment exponential (2n/sigma^2, SE =
    sigma/sqrt(2n)); the Marshall-Olkin fit runs ``n_starts`` seeded
    starts on ``mle.multistart_maximize`` and its information is the exact
    observed information.
    """
    data = check_sample(data)
    n = data.size
    if tag == "exp":
        model = Exponential(1.0 / data.mean())
        info, n_launches, converged = np.array([[n / model.lam**2]]), 0, True
    elif tag == "me":
        model = MomentExponential(data.mean() / 2.0)
        info, n_launches, converged = np.array([[2.0 * n / model.sigma**2]]), 0, True
    elif tag == "moe":
        if n < 3:
            raise ValueError("need at least three observations")
        xbar = data.mean()
        rng = np.random.default_rng(seed)
        starts = np.column_stack(
            [
                rng.uniform(math.log(0.01), math.log(100.0), n_starts),
                rng.uniform(math.log(0.1 / xbar), math.log(10.0 / xbar), n_starts),
            ]
        )
        centre = np.array([0.0, -math.log(xbar)])
        z, _, n_launches, converged = multistart_maximize(
            _moe_loglik_score(data),
            starts,
            box=(centre - _LOG_BOX, centre + _LOG_BOX),
        )
        model = MarshallOlkinExponential(math.exp(z[0]), math.exp(z[1]))
        info = _moe_information(data, model)
    else:
        raise ValueError(f"unknown competitor tag {tag!r}; expected {COMPETITOR_TAGS}")
    return FitResult.from_information(
        model, log_likelihood(data, model), info, converged, n_launches, n
    )
