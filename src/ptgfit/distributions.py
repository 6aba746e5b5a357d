"""Transmuted and Poisson-compounded distribution layers.

Two stacked constructions over a baseline cdf G:

* transmuted layer (quadratic rank transmutation): cdf ``G * (1 + a - a*G)``
  with ``a`` in [-1, 1] and dT/dG = ``1 + a - 2*a*G``, both in ``_transmuted``;
* zero-truncated Poisson compounding of that cdf with tilt parameter ``b``
  (any nonzero real): cdf ``(1 - exp(-b*T)) / (1 - exp(-b))``.

All functions are pure, accept scalar or array ``x``/``u`` and return a
matching float or ndarray.  Stable ``expm1``/``log1p`` forms are used
throughout so both signs of ``b`` and near-zero tilts evaluate cleanly;
for ``b < 0`` the Poisson layer is factored by ``exp(b)`` so that no
intermediate overflows, however negative ``b`` is.  A negative or NaN ``x``
is a ``ValueError``.  Each layer's complement is that layer mirrored, never
a subtraction: 1 - T is the transmuted cdf at -a in the baseline's exact
survival function 1 - G, and 1 - F is the Poisson layer at -b in 1 - T.  So
the Poisson formula is written once, ``_poisson``, which ``ptg_cdf`` calls
at (T, b) and ``ptg_sf`` at (1 - T, -b), and ``ptg_hrf`` takes 1 - T and
dT/dG from the one transmuted formula, ``_transmuted``; none of them loses
its digits where the cdf rounds to 1.  The log-density is written once, as
``_log_c`` plus ``_log_body``: ``ptg_log_pdf``, ``ptg_pdf`` (its
exponential) and the fit's batched ``ptg_loglik_derivatives`` all use it.
Every function reads G, or 1 - G, once per call.  Each layer's quantile, at levels u with complements v,
is one private core (``_tg_quantile``, ``_ptg_quantile``): the closed form in
u up to u = 1/2 and above it the upper-tail form in v, which keeps its digits
where u rounds to 1.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .baselines import Exponential, Weibull, _nonnegative, _own_sums, _runs
from .data import _integer

__all__ = [
    "PtgParams",
    "tg_cdf",
    "tg_pdf",
    "tg_quantile",
    "ptg_cdf",
    "ptg_sf",
    "ptg_pdf",
    "ptg_log_pdf",
    "ptg_hrf",
    "ptg_quantile",
    "ptg_sample",
    "pte_params",
    "ptw_params",
]

DEFAULT_BETA_FLOOR = 1e-8
_TINY = np.finfo(float).tiny
_LEAST = np.nextafter(0.0, 1.0)  # the smallest positive (subnormal) double


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
        excluded (the compounding degenerates): |beta| must be at least
        ``DEFAULT_BETA_FLOOR``.
    baseline : Weibull
        The parent distribution G: a ``Weibull``, or an ``Exponential``,
        the Weibull law at theta = 1.
    """

    alpha: float
    beta: float
    baseline: Weibull

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not np.isfinite(self.beta) or abs(self.beta) < DEFAULT_BETA_FLOOR:
            raise ValueError(
                f"beta must be a nonzero real with |beta| >= {DEFAULT_BETA_FLOOR}, "
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

    def sf(self, x):
        return ptg_sf(x, self)

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
    arr = _nonnegative(x)
    return arr, np.isscalar(x) or arr.ndim == 0


def _validated_u(u):
    arr = np.asarray(u, dtype=float)
    if not ((arr > 0.0) & (arr < 1.0)).all():  # also refuses NaN
        raise ValueError("u must lie strictly inside (0, 1) (and not be NaN)")
    return arr, np.isscalar(u) or arr.ndim == 0


def _check_alpha(alpha):
    if not np.isfinite(alpha) or abs(alpha) > 1.0:
        raise ValueError(f"alpha must lie in [-1, 1], got {alpha!r}")


def _ret(value, scalar):
    return float(value) if scalar else value


# ---------------------------------------------------------------------------
# transmuted layer
# ---------------------------------------------------------------------------


def _transmuted(alpha, g, out=None):
    """T = G (1 + alpha - alpha G), written to ``out`` if given, and
    fac = dT/dG = 1 + alpha - 2 alpha G."""
    return np.multiply(g, 1.0 + alpha - alpha * g, out=out), 1.0 + alpha - 2.0 * alpha * g


def tg_cdf(x, alpha, baseline):
    """Transmuted cdf G(x) * (1 + alpha - alpha*G(x))."""
    _check_alpha(alpha)
    x, scalar = _validated_x(x)
    return _ret(_transmuted(alpha, baseline.cdf(x))[0], scalar)


def tg_pdf(x, alpha, baseline):
    """Transmuted pdf g(x) * (1 + alpha - 2*alpha*G(x))."""
    _check_alpha(alpha)
    x, scalar = _validated_x(x)
    return _ret(baseline.pdf(x) * _transmuted(alpha, baseline.cdf(x))[1], scalar)


def _tg_invert(u, alpha):
    """Baseline-cdf value G solving G*(1 + alpha - alpha*G) = u.

    The defining quadratic is solved in the cancellation-free conjugate
    form ``2u / ((1+alpha) + sqrt((1+alpha)^2 - 4*alpha*u))``, which is the
    smaller root for alpha != 0 and degrades gracefully to G = u at
    alpha = 0, so no small-alpha branch is needed.  Its clamps absorb only
    rounding, the discriminant's below 0 and G's above 1 near u = 1, and the
    0/0 at alpha = -1, u = 0, where G = 0."""
    disc = np.maximum((1.0 + alpha) ** 2 - 4.0 * alpha * u, 0.0)
    return np.minimum(2.0 * u / np.maximum((1.0 + alpha) + np.sqrt(disc), _TINY), 1.0)


def _split(u, v, lower, upper):
    """A quantile at the levels u with complements v: ``lower(u)`` up to
    u = 1/2 and ``upper(v)``, an upper-tail form, above it.  A scalar level
    stays a numpy scalar, whose power (libm's) is not the array loop's."""
    # the quadrature's nodes of [0, b] underflow to u = 0 once b < 5e-20, and
    # to v = 0 likewise; a subnormal level is kept, not moved to the smallest
    # normal, which would move all the nodes below it to one point
    low, u = u <= 0.5, np.maximum(u, _LEAST)
    if low.all():
        return lower(u)
    v = np.maximum(v, _LEAST)
    if not low.any():
        return upper(v)
    x = np.empty_like(u)
    x[low], x[~low] = lower(u[low]), upper(v[~low])
    return x


def _tg_quantile(u, v, alpha, baseline):
    """The transmuted quantile at the levels u with complements v.  Above
    u = 1/2 it is taken from v: 1 - T = (1 - G)(1 - alpha + alpha (1 - G))
    is the transmuted cdf at -alpha in 1 - G, and x is the baseline's
    inverse survival function."""
    return _split(u, v, lambda w: baseline.quantile(_tg_invert(w, alpha)),
                  lambda w: baseline._isf(_tg_invert(w, -alpha)))


def tg_quantile(u, alpha, baseline):
    """Inverse of :func:`tg_cdf` on (0, 1); above u = 1/2 from the exact 1 - u."""
    _check_alpha(alpha)
    u, scalar = _validated_u(u)
    return _ret(_tg_quantile(u, 1.0 - u, alpha, baseline), scalar)


# ---------------------------------------------------------------------------
# Poisson-compounded layer
# ---------------------------------------------------------------------------


def _poisson(t, beta):
    """The Poisson layer (1 - exp(-beta t)) / (1 - exp(-beta)) at t in [0, 1].

    Computed as ``expm1(-beta*t) / expm1(-beta)`` for beta > 0, and for
    beta = -b < 0 as ``exp(b*(t-1)) * expm1(-b*t) / expm1(-b)``, the same
    ratio with exp(b) cancelled.  Both are exact at the endpoints and
    overflow for no beta."""
    if beta > 0:
        return np.expm1(-beta * t) / np.expm1(-beta)
    b = -beta
    return np.exp(b * (t - 1.0)) * np.expm1(-b * t) / np.expm1(-b)


def ptg_cdf(x, p):
    """Poisson transmuted-G cdf: the Poisson layer at (T, beta), T the
    transmuted cdf."""
    x, scalar = _validated_x(x)
    return _ret(_poisson(_transmuted(p.alpha, p.baseline.cdf(x))[0], p.beta), scalar)


def ptg_sf(x, p):
    """Poisson transmuted-G survival function 1 - F, without the subtraction:
    the Poisson layer at (1 - T, -beta), with 1 - T the transmuted cdf at
    -alpha in the baseline's survival function 1 - G, so it keeps its digits
    where F rounds to 1."""
    x, scalar = _validated_x(x)
    return _ret(_poisson(_transmuted(-p.alpha, p.baseline.sf(x))[0], -p.beta), scalar)


def _log_c(beta):
    """c(beta) = log(beta / (1 - exp(-beta))), overflow-free for either sign:
    |1 - exp(-beta)| = exp(max(-beta, 0)) * (1 - exp(-|beta|))."""
    b = np.abs(beta)
    return np.log(b) - np.maximum(-beta, 0.0) - np.log(-np.expm1(-b))


def _log_body(alpha, beta, g, log_g, out=(None, None)):
    """(log g + log(fac) - beta T, fac, T), the log-density less c(beta) with T
    and fac of the one transmuted formula :func:`_transmuted`, elementwise in
    ``g`` and ``log_g``, the body and T written to the pair ``out`` if given;
    NaN or -inf where fac <= 0, which the callers mask."""
    t, fac = _transmuted(alpha, g, out[1])
    body = np.add(np.log(fac, out=out[0]), log_g, out=out[0])
    return np.subtract(body, beta * t, out=out[0]), fac, t


def ptg_pdf(x, p):
    """Poisson transmuted-G density, the exponential of :func:`ptg_log_pdf`."""
    log_f = ptg_log_pdf(x, p)
    return _ret(np.exp(log_f), np.ndim(log_f) == 0)


def ptg_log_pdf(x, p):
    """Log-density computed in log space (never forms the density itself).

    Returns ``-inf`` wherever the transmuted factor 1 + alpha - 2*alpha*G
    is nonpositive, i.e. where the density vanishes at a support boundary.
    """
    x, scalar = _validated_x(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        body, fac, _ = _log_body(p.alpha, p.beta, p.baseline.cdf(x), p.baseline.log_pdf(x))
    return _ret(np.where(fac > 0.0, _log_c(p.beta) + body, -np.inf), scalar)


def _c2(beta):
    """c''(beta), free of overflow; by its series below |beta| = 1e-2."""
    b = np.abs(beta)
    closed = np.exp(-b) / np.expm1(-b) ** 2 - 1.0 / b**2
    return np.where(b < 1e-2, -1.0 / 12.0 + b**2 / 240.0 - b**4 / 6048.0, closed)


def ptg_loglik_derivatives(data, family, theta, order=1, n_obs=None):
    """Log-likelihoods (S,) and scores (S, k) of ``data`` at the parameter
    rows ``theta`` (S, k) = (alpha, beta, baseline ``family`` parameters),
    and at ``order`` 2 the Hessians (S, k, k), each a sum of per-observation
    terms, the log-likelihood that of ``ptg_log_pdf`` bit for bit.  ``data``
    is one sample (n,) for every row, or one row of observations per
    parameter row (S, n); ``n_obs`` (S,), if given, holds each row's own
    sample size, its sample in the row's first n_obs entries and, after them,
    padding taken from that sample, which every sum leaves out.  G, log g and their derivatives in
    the baseline parameters come from one call,
    ``family.derivatives(x, phi, order)``.  Rows with |beta| below
    ``DEFAULT_BETA_FLOOR`` or a nonpositive fac = 1 + alpha - 2 alpha G get
    ``-inf``.  With baseline parameters phi, psi: l_aa = -sum (1-2G)^2/fac^2,
    l_ab = -sum G(1-G), l_bb = n c''(beta), l_a,phi = sum G_phi (-2/fac^2 -
    beta (1-2G)), l_b,phi = -sum fac G_phi, l_phi,psi = sum [(log g)_phi,psi
    - (2 alpha/fac + beta fac) G_phi,psi + (2 alpha beta - 4 alpha^2/fac^2)
    G_phi G_psi]."""
    x = np.atleast_2d(np.asarray(data, dtype=float))
    runs = _runs(n_obs, x.shape[1])
    n = x.shape[1] if n_obs is None else n_obs
    with np.errstate(all="ignore"):  # overflow only ever gives a rejected row
        alpha, beta, phi = theta[:, 0:1], theta[:, 1], theta[:, 2:]
        beta_col = beta[:, None]
        cdf, d_cdf, log_g, d_log_g, *second = family.derivatives(x, phi, order)
        # the per-observation terms, summed in one pass: the log-density,
        # slope, spread and T, then the baseline score terms
        terms = np.empty((4 + phi.shape[1],) + cdf.shape)
        body, fac, t = _log_body(alpha, beta_col, cdf, log_g, (terms[0], terms[3]))
        body += _log_c(beta)[:, None]
        slope = np.divide(1.0 - 2.0 * cdf, fac, out=terms[1])
        spread = np.multiply(cdf, 1.0 - cdf, out=terms[2])
        weight = 2.0 * alpha / fac + beta_col * fac
        np.subtract(d_log_g, weight * d_cdf, out=terms[4:])
        sums = _own_sums(terms, runs)
        # the padding repeats values of the row's sample: it adds no bad point
        bad = (np.abs(beta) < DEFAULT_BETA_FLOOR) | (fac <= 0.0).any(axis=1)
        ll = np.where(bad, -np.inf, sums[0])
        score = np.empty_like(theta)
        score[:, 0] = sums[1] - beta * sums[2]
        score[:, 1] = n * (1.0 / beta - 1.0 / np.expm1(beta)) - sums[3]
        score[:, 2:] = sums[4:].T
        if order == 1:
            return ll, score
        d2_cdf, d2_log_g = second
        hess = np.empty(theta.shape + theta.shape[1:])
        hess[:, 0, 0] = -_own_sums(slope**2, runs)
        hess[:, 0, 1] = hess[:, 1, 0] = -sums[2]
        hess[:, 1, 1] = n * _c2(beta)
        a_phi = -2.0 / fac**2 - beta_col * (1.0 - 2.0 * cdf)
        hess[:, 0, 2:] = hess[:, 2:, 0] = _own_sums(d_cdf * a_phi, runs).T
        hess[:, 1, 2:] = hess[:, 2:, 1] = -_own_sums(d_cdf * fac, runs).T
        cross = (2.0 * alpha * beta_col - 4.0 * alpha**2 / fac**2) * d_cdf[:, None]
        phi_phi = _own_sums(d2_log_g - weight * d2_cdf + cross * d_cdf[None], runs)
        hess[:, 2:, 2:] = phi_phi.transpose(2, 0, 1)
    return ll, score, hess


def ptg_hrf(x, p):
    """Hazard rate f / (1 - F).

    Uses the cancellation-free identity ``|beta| g fac exp(-max(-beta, 0)
    (1 - T)) / (-expm1(-|beta| (1 - T)))``, free of overflow for either sign
    of beta like :func:`_log_c`, with 1 - T and fac = dT/dG the transmuted
    layer at -alpha in the baseline's survival function 1 - G, so it reads
    no cdf.  It is not f / S: both underflow long before the hazard does.
    It refuses only where 1 - T is below the smallest normal double.
    """
    x, scalar = _validated_x(x)
    t_bar, fac = _transmuted(-p.alpha, p.baseline.sf(x))
    if (t_bar < _TINY).any():
        raise ValueError("hazard undefined where the survival function underflows")
    b = abs(p.beta)
    hrf = b * p.baseline.pdf(x) * fac * np.exp(-max(-p.beta, 0.0) * t_bar) / -np.expm1(-b * t_bar)
    return _ret(hrf, scalar)


def _poisson_invert(w, beta):
    """T = -log1p(w * expm1(-beta)) / beta, the Poisson layer's inverse at
    the probability ``w``.  At beta <= -700, where expm1(-beta) nears
    overflow, w * expm1(-beta) = w exp(-beta) (1 - exp(beta)) is taken as
    exp(log w - beta), its last factor being 1 to the last bit, and
    log1p(exp(.)) as ``logaddexp``, so T keeps its relative digits where it
    is small."""
    if beta > -700.0:
        return -np.log1p(w * np.expm1(-beta)) / beta
    return -np.logaddexp(0.0, np.log(w) - beta) / beta


def _ptg_quantile(u, v, p):
    """The PT-G quantile at the levels u with complements v, in closed form:
    the Poisson layer unwound by :func:`_poisson_invert`, then the
    transmuted layer.  Above u = 1/2 it is taken from v: 1 - F is the
    Poisson layer at -beta in 1 - T, so 1 - T is :func:`_poisson_invert` at
    -beta, and x follows from 1 - T as in :func:`_tg_quantile`."""
    alpha, beta, base = p.alpha, p.beta, p.baseline
    return _split(u, v, lambda w: base.quantile(_tg_invert(_poisson_invert(w, beta), alpha)),
                  lambda w: base._isf(_tg_invert(_poisson_invert(w, -beta), -alpha)))


def ptg_quantile(u, p):
    """Inverse of :func:`ptg_cdf` on (0, 1), accurate up to the top double:
    its upper-tail form, above u = 1/2, reads 1 - u, which is exact there."""
    u, scalar = _validated_u(u)
    return _ret(_ptg_quantile(u, 1.0 - u, p), scalar)


def ptg_sample(n, model, seed):
    """Draw ``n`` values from ``model`` (a ``PtgParams``, a baseline or a
    competitor model) through its ``quantile``, deterministic in ``seed``:
    a nonnegative integer, a sequence of them, or numpy's ``Generator`` or
    ``SeedSequence``, as ``numpy.random.default_rng`` takes it.  ``n`` and
    every number of ``seed`` must be integer values (3.0 is taken as 3);
    None is refused, since numpy would draw a new sample on each call."""
    n = _integer(n, 1, f"n must be a positive integer, got {n}")
    if isinstance(seed, np.ndarray):
        seed = seed.tolist()  # a 0-d array is its number
    # numpy's refusals name no argument
    if isinstance(seed, numbers.Real):
        seed = _integer(seed, 0, f"seed must be a nonnegative integer, got {seed}")
    elif seed is None or isinstance(seed, (str, bytes, Sequence)):
        message = f"seed must be a nonnegative integer or a sequence of them, got {seed!r}"
        if seed is None or isinstance(seed, (str, bytes)):
            raise ValueError(message)
        seed = [_integer(entry, 0, message) for entry in seed]
    u = np.random.default_rng(seed).random(n)
    # rng.random() lives in [0, 1); nudge any exact zero into the open interval
    return model.quantile(np.maximum(u, np.finfo(float).tiny))
