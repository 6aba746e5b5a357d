"""Maximum-likelihood estimation for the PT-G family and its competitors.

``fit(data, model)`` fits every model tag of ``MODELS``: PT-exponential
(``pte``), PT-Weibull (``ptw``), exponential (``exp``), moment exponential
(``me``) and Marshall-Olkin exponential (``moe``).  The exponential and
moment-exponential estimates are closed-form.  The others are maximized
from many Latin-hypercube starting points at once (``_latin_hypercube``,
numpy's generator seeded by ``FitOptions.seed``): one lockstep
quasi-Newton engine (``minimize``, BFGS steps with a backtracking line
search) advances every start on one (starts x n) array, driven by the
model's analytic score.  The first objective call of a line search
evaluates the full step of every start, the second the next four halvings
of every start still searching and the third the other fifteen, so a search
takes at most three calls, and the loop carries only the starts that have
not stopped (its working set).
``fit_samples(samples, model)`` fits one tag to several samples in the
same lockstep search, and ``fit`` is its one-sample case: every start row
carries the label of its sample, its own search box and its sample's data,
so that each sample's rows follow exactly the path they follow alone.  A
start stops on a small score, a failed search, a stalled step, a step out
of its search box (which sends it back to its last point inside) or its
step budget, and is frozen once its log-likelihood lies far below the best
start's of its own sample and has stopped closing the gap (dataset II's
runaways to beta -> +inf).  The search runs in transformed coordinates
that keep every iterate inside the parameter domain: alpha = sin(z0),
which reaches the edges alpha = +-1 at finite z0 and has no flat tail to
strand a start in; beta log-like, z itself for |beta| <= 3 and
+-3 exp(|z| / 3 - 1) beyond (far out at beta < 0 the likelihood moves with
log |beta|), with the kernel's small exclusion band around zero; and
positive parameters via log.  Standard errors come from inverting the
observed information matrix, the exact negated Hessian in the original
coordinates.  A fit records the cost of its search
(``FitResult.objective_calls`` and ``start_rows``).

A numerical model supplies only its batched kernel, ``kernel(data, theta,
order=1, n_obs=None)`` (``ptg_loglik_derivatives`` with its baseline family
bound, or ``moe_loglik_derivatives``), which takes one sample (n,) for
every parameter row or one row of data per parameter row (S, n).  One
adapter turns any kernel into the search objective ``f(Z, labels)`` by the
chain rule, from the table of coordinate kinds (``_KINDS``: each kind's map
back to its parameter and that map's derivative), with one kernel call per
evaluation: the samples are stacked into one array, a shorter one padded
with its own first observation, and ``n_obs`` gives each row's own sample
size, over which alone the kernel sums.  The information is the negated
order-2 kernel.

``log_likelihood`` and ``FitResult`` serve every model of the shared
protocol (``PtgParams``, the baselines and the competitor models): the
log-likelihood is the sum of the model's ``log_pdf``, and a fit record is
built from the estimates and their observed information alike.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .baselines import (
    Exponential,
    MarshallOlkinExponential,
    MomentExponential,
    Weibull,
    moe_loglik_derivatives,
)
from .data import _integer, check_sample
from .distributions import PtgParams, ptg_loglik_derivatives, pte_params, ptw_params

__all__ = [
    "FitOptions",
    "FitResult",
    "log_likelihood",
    "fit",
    "fit_samples",
    "MODELS",
    "observed_information",
    "wald_ci",
    "multistart_maximize",
]


def _warn(message):
    """A ``UserWarning`` located at the first caller outside this module, so
    that ``fit`` and ``fit_samples`` warn at the line that called them."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals is globals():
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


@dataclass(frozen=True)
class FitOptions:
    """Multistart settings for :func:`fit`: the number of starts and their
    seed, each an integer value (3.0 is kept as 3)."""

    n_starts: int = 20
    seed: int = 0

    def __post_init__(self):
        # numpy would refuse a non-integer or negative count without naming the option
        object.__setattr__(self, "n_starts", _integer(
            self.n_starts, 1, f"n_starts must be a positive integer, got {self.n_starts}"))
        object.__setattr__(self, "seed", _integer(
            self.seed, 0, f"seed must be a nonnegative integer, got {self.seed}"))


@dataclass(frozen=True, slots=True)
class FitResult:
    """Outcome of a maximum-likelihood fit; ``estimates`` is the fitted model.
    Its 95% Wald bounds ``ci_low`` and ``ci_high`` are :func:`wald_ci` of its
    estimates and standard errors, computed when read rather than stored.
    ``objective_calls`` and ``start_rows`` are the cost of the search it ran
    in, shared by one :func:`fit_samples` call's results (0 if closed-form)."""

    estimates: object
    loglik: float
    std_errors: np.ndarray
    info_matrix: np.ndarray
    converged: bool
    n_restarts_used: int
    n_obs: int
    degenerate_info: bool = False
    objective_calls: int = 0
    start_rows: int = 0

    @property
    def ci_low(self):
        return wald_ci(self)[0]

    @property
    def ci_high(self):
        return wald_ci(self)[1]

    @property
    def param_names(self):
        return self.estimates.names

    @property
    def k(self):
        return len(self.estimates.values)

    @classmethod
    def from_information(cls, estimates, loglik, info, converged, n_restarts_used, n_obs, cost):
        """Fit record with standard errors from the observed information
        ``info`` and the search's ``cost`` (objective calls, start-rows);
        warns if the fit did not converge or the information is singular."""
        if not converged:
            _warn("fit did not fully converge; results are flagged")
        k = len(estimates.values)
        if np.isfinite(info).all():
            eigvals = np.linalg.eigvalsh(info)
            degenerate = bool(eigvals.min() < 1e-10 * max(1.0, eigvals.max()))
            cov = np.linalg.pinv(info) if degenerate else np.linalg.inv(info)
            var = np.diag(cov)
            se = np.sqrt(np.where(var > 0, var, np.nan))
        else:
            # an overflowed Hessian term: inf/NaN has no curvature to invert
            degenerate = True
            se = np.full(k, np.nan)
        if degenerate:
            _warn("observed information is singular to tolerance")
        return cls(
            estimates=estimates,
            loglik=loglik,
            std_errors=se,
            info_matrix=info,
            converged=converged,
            n_restarts_used=n_restarts_used,
            n_obs=int(n_obs),
            degenerate_info=degenerate,
            objective_calls=cost[0],
            start_rows=cost[1],
        )


def log_likelihood(data, model):
    """Log-likelihood of ``data`` under ``model``: the sum of its ``log_pdf``.

    Returns ``-inf`` whenever any observation falls where the density is
    zero (for PT-G, where the transmuted factor is nonpositive).
    """
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise ValueError("data must be nonempty")
    if not (data >= 0.0).all():  # also refuses NaN
        raise ValueError("data must be nonnegative (and not NaN)")
    return float(np.sum(model.log_pdf(data)))


# ---------------------------------------------------------------------------
# lockstep quasi-Newton multistart engine
# ---------------------------------------------------------------------------

_ARMIJO = 1e-4  # sufficient-decrease constant of the line search
_MAX_HALVINGS = 20  # step halvings before a line search gives up
_STEPS = np.ldexp(1.0, -np.arange(_MAX_HALVINGS))  # the line search's trial steps 2^-j
# the trials of each objective call of a search: the full step, then the next
# four, then the other fifteen.  Of the 2,000 searches of ``ptgfit reproduce``
# 1,797 accept the full step and 185 of the other 203 one of the next four.
_CALLS = (slice(0, 1), slice(1, 5), slice(5, _MAX_HALVINGS))
_ROUNDING = 1e-13  # relative rounding of a summed log-likelihood
_XTOL = 1e-10  # relative step below which a start has stopped moving
_GTOL = 1e-10  # score max-norm at which a start stops
_MAX_ITER = 2000  # quasi-Newton steps of each start; the polish takes twice as many
_CONVERGED_SCORE = 1e-3  # score max-norm below which a fit counts as converged
# freeze of dead starts (see minimize): a gap of 1 froze the PT-W start on
# dataset II (seed 17, 6 starts) that later climbs the flat beta ridge to the
# optimum
_FREEZE_GAP = 5.0
_FREEZE_WINDOW = 10
_FREEZE_CLOSE = 0.1
# search box, as half-widths in transformed coordinates: a start that leaves
# it stops (beta -> +inf with lambda -> 0 is a runaway on dataset II).  The
# log rate is centred on the data's scale.  z0 = asin(alpha) needs no box:
# every z0 is a point of the domain.
_BETA_BOX = 1e4
_LOG_BOX = 50.0
_BETA_WARN = 700.0  # documented |beta| range of the Poisson layer


def _bfgs_update(h, s, y, sy, eye):
    """BFGS update of the inverse Hessians ``h`` (S, k, k) by the steps ``s``
    and gradient changes ``y`` (S, k), their products ``sy`` (S,) and the
    identity ``eye`` (k, k) given; rows without positive curvature keep their
    matrix."""
    # the Euclidean norms, as np.linalg.norm computes them
    s_norm, y_norm = np.sqrt(np.add.reduce(s * s, axis=1)), np.sqrt(np.add.reduce(y * y, axis=1))
    ok = sy > 1e-12 * s_norm * y_norm
    rho_s = np.where(ok, 1.0 / np.where(ok, sy, 1.0), 0.0)[:, None, None] * s[:, :, None]
    left = eye - rho_s * y[:, None, :]
    return left @ h @ left.transpose(0, 2, 1) + rho_s * s[:, None, :]


def minimize(fun, z0, box, labels=None, max_iter=_MAX_ITER):
    """Minimize a batched objective from every row of ``z0`` in lockstep.

    Each row belongs to a sample, its label in ``labels`` (nonnegative
    integers, all 0 when omitted); ``fun(Z, labels)`` maps an (S, k) array of
    points and their labels (S,) to their values (S,) and gradients (S, k).
    All rows advance together: a BFGS direction, then a backtracking line
    search over the steps 2^-j, j < ``_MAX_HALVINGS``.  A trial point is
    accepted on Armijo's sufficient decrease or, where the decrease is lost
    in the value's rounding, on a smaller gradient, and each row takes its
    first acceptable step.  The search batches its halvings (``_CALLS``):
    the first ``fun`` call evaluates the full step of every row, the second
    the steps 2^-1 to 2^-4 of every row still searching and the third the
    other fifteen, a row's trials adjacent, so that a search takes at most
    three calls where one trial per call would take up to 20, and a row ends
    at the same step and value.  Most searches accept the full step, and
    most others one of the next four.  A row starts from the identity
    inverse Hessian with a step of at most unit max-norm and rescales it by
    its first curvature pair; a failed search along a quasi-Newton direction
    sends the row back to that start.

    A row stops when its gradient's max-norm falls below ``_GTOL``, when its
    line search fails along steepest descent, when a step no longer moves it
    (relative change below ``_XTOL``), when a step leaves ``box`` (lower and
    upper bounds, each of length k or one row per start), when it is frozen,
    or after ``max_iter`` steps.  A row whose accepted step leaves the box
    goes back to the point, value and gradient it held before that step, its
    last point in the box, and stops there, so that no row ends outside its
    box and none can win with the value of a point beyond it.  A row is
    frozen when its value lies more than ``_FREEZE_GAP`` above the lowest
    finite value among the rows of its sample, stopped rows included, and it
    closed less than ``_FREEZE_CLOSE`` of that gap over its last
    ``_FREEZE_WINDOW`` steps: a dead start that can no longer win.  The
    lowest row of a sample is never frozen.  The loop holds only the live
    rows (the working set) and writes a row back when it stops.  A row's
    path depends on the rows of its own sample alone.  Returns the final
    points, values and gradients.
    """
    z = np.array(z0, dtype=float)
    n_rows, k = z.shape
    labels = np.zeros(n_rows, dtype=int) if labels is None else np.asarray(labels)
    f, g = fun(z, labels)
    eye = np.eye(k)
    lo, hi = (np.broadcast_to(bound, z.shape) for bound in box)
    live = np.isfinite(f) & np.isfinite(g).all(axis=1)
    best_stopped = np.full(labels.max() + 1, np.inf)  # each sample's lowest finite stopped value
    dead = ~live & np.isfinite(f)
    np.minimum.at(best_stopped, labels[dead], f[dead])
    # the working set: each live row's index, point, value, gradient and its
    # max-norm, label, box, inverse Hessian, whether that is still the
    # identity, and its values of the last steps
    idx = np.flatnonzero(live)
    zs, fs, gs, lab, los, his = z[idx], f[idx], g[idx], labels[idx], lo[idx], hi[idx]
    gmax = np.abs(gs).max(axis=1)
    hs = np.tile(eye, (idx.size, 1, 1))
    fresh = np.ones(idx.size, dtype=bool)
    past = np.empty((idx.size, _FREEZE_WINDOW))
    going = np.ones(idx.size, dtype=bool)
    for it in range(max_iter):
        going &= gmax >= _GTOL
        slot = it % _FREEZE_WINDOW
        if it >= _FREEZE_WINDOW:  # live rows hold finite values: no inf - inf
            best = best_stopped.copy()
            np.minimum.at(best, lab, fs)
            gap = fs - best[lab]
            going &= (gap <= _FREEZE_GAP) | (past[:, slot] - fs >= _FREEZE_CLOSE * gap)
        if not going.all():  # write the stopped rows back and drop them
            stop = ~going
            z[idx[stop]], f[idx[stop]], g[idx[stop]] = zs[stop], fs[stop], gs[stop]
            np.minimum.at(best_stopped, lab[stop], fs[stop])
            idx, zs, fs, gs, gmax, lab, los, his, hs, fresh, past = (
                a[going] for a in (idx, zs, fs, gs, gmax, lab, los, his, hs, fresh, past)
            )
        if idx.size == 0:  # also when no row started live
            break
        past[:, slot] = fs
        d = -np.einsum("sij,sj->si", hs, gs)
        slope = np.einsum("si,si->s", d, gs)
        steep = fresh | ~(slope < 0.0)  # no descent: back to the gradient
        if steep.any():
            fresh |= steep
            hs[steep] = eye
            d[steep] = -gs[steep] / np.maximum(gmax[steep], 1.0)[:, None]
            slope[steep] = np.einsum("si,si->s", d[steep], gs[steep])

        # the line search, a failed row keeping its point
        z_new, f_new, g_new, gmax_new = zs.copy(), fs.copy(), gs.copy(), gmax.copy()
        level = fs + _ROUNDING * np.maximum(np.abs(fs), 1.0)  # fs up to its rounding
        p = slice(None)  # the rows still searching: all of them on the first call
        for trials in _CALLS:
            ladder = _STEPS[trials]
            zt = zs[p, None] + ladder[:, None] * d[p, None]  # (rows, trials, k)
            rows, size = zt.shape[:2]
            # a row's trials adjacent: each sample's rows stay contiguous
            ft, gt = fun(zt.reshape(-1, k), np.repeat(lab[p], size))
            ft, gt = ft.reshape(rows, size), gt.reshape(rows, size, k)
            gt_max = np.abs(gt).max(axis=2)  # NaN or inf unless the gradient is finite
            ok = (
                np.isfinite(ft)
                & np.isfinite(gt_max)
                & (
                    (ft <= fs[p, None] + _ARMIJO * ladder * slope[p, None])
                    | ((ft <= level[p, None]) & (gt_max < gmax[p, None]))
                )
            )
            hit = ok.any(axis=1)
            searching = np.arange(rows) if isinstance(p, slice) else p
            t, q = ok.argmax(axis=1)[hit], searching[hit]  # each row's first accepted trial
            z_new[q], f_new[q], g_new[q] = zt[hit, t], ft[hit, t], gt[hit, t]
            gmax_new[q] = gt_max[hit, t]
            p = searching[~hit]
            if not p.size:
                break

        inside = ((z_new >= los) & (z_new <= his)).all(axis=1)
        if not inside.all():  # a step out of the box: back to the last in-box point
            out = ~inside
            z_new[out], f_new[out], g_new[out] = zs[out], fs[out], gs[out]
            gmax_new[out] = gmax[out]
        s, y = z_new - zs, g_new - gs
        sy = np.einsum("si,si->s", s, y)
        if fresh.any():  # a first curvature pair rescales the identity
            sy_f, y_f = sy[fresh], y[fresh]
            yy = np.einsum("si,si->s", y_f, y_f)
            scale = np.where((sy_f > 0.0) & (yy > 0.0), sy_f / np.where(yy > 0.0, yy, 1.0), 1.0)
            hs[fresh] *= scale[:, None, None]
        hs = _bfgs_update(hs, s, y, sy, eye)
        zs, fs, gs, gmax = z_new, f_new, g_new, gmax_new
        going = inside & ((np.abs(s) / np.maximum(np.abs(zs), 1.0)).max(axis=1) > _XTOL)
        if p.size:  # a failed search stops a row on steepest descent, else restarts it there
            going[p] = ~fresh[p]
            hs[p] = eye
        fresh = np.zeros(idx.size, dtype=bool)
        fresh[p] = True
    z[idx], f[idx], g[idx] = zs, fs, gs
    return z, f, g


def multistart_maximize(loglik_score, starts, box, labels=None):
    """Maximize a batched log-likelihood from every start, in lockstep.

    ``loglik_score(Z, labels)`` maps an (S, k) array of transformed
    coordinates and their sample labels to the log-likelihoods (S,) and
    scores (S, k).  :func:`minimize` climbs from all starts of all samples
    at once inside ``box``; the best end point of each sample is then
    polished by two further restarts from it, each with a fresh inverse
    Hessian and each one :func:`minimize` call for every sample whose
    incumbent could take a step: one with a finite value and score whose
    max-norm is at least ``_GTOL``.  :func:`minimize` would stop any other
    incumbent where it is, so it is left out, and no call is made when none
    is left.  Returns ``(z_best, loglik_best, cost, converged)``, one row or
    entry per sample in the order of its label but ``cost``, the objective
    calls of every launch and the rows they evaluated; ``converged`` requires
    the score's max-norm at ``z_best`` to be below ``_CONVERGED_SCORE``.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or len(starts) == 0:
        raise ValueError("need at least one start")
    labels = np.zeros(len(starts), dtype=int) if labels is None else np.asarray(labels)
    lo, hi = (np.broadcast_to(bound, starts.shape) for bound in box)
    cost = [0, 0]  # the objective calls and the rows they evaluate

    def neg(z, labels):
        cost[0] += 1
        cost[1] += len(z)
        ll, score = loglik_score(z, labels)
        return np.where(np.isnan(ll), np.inf, -ll), -score

    z, f, g = minimize(neg, starts, (lo, hi), labels)
    samples = np.unique(labels)
    best = np.array([np.flatnonzero(labels == s)[np.argmin(f[labels == s])] for s in samples])
    z_best, f_best, g_best = z[best], f[best], g[best]
    for _ in range(2):  # polish: a fresh inverse Hessian at each incumbent
        # minimize would stop a non-finite or stationary incumbent before a first step
        gmax = np.abs(g_best).max(axis=1)
        rows = np.flatnonzero(np.isfinite(f_best) & np.isfinite(gmax) & (gmax >= _GTOL))
        if not rows.size:
            break
        z, f, g = minimize(neg, z_best[rows], (lo[best[rows]], hi[best[rows]]), samples[rows],
                           2 * _MAX_ITER)
        better = f <= f_best[rows]
        z_best[rows[better]], f_best[rows[better]], g_best[rows[better]] = (
            z[better], f[better], g[better])
    converged = np.abs(g_best).max(axis=1) < _CONVERGED_SCORE
    return z_best, -f_best, tuple(cost), converged


# ---------------------------------------------------------------------------
# one fit for every model tag
# ---------------------------------------------------------------------------

class _Kind(NamedTuple):
    """A kind of search coordinate: the parameter at coordinate z, elementwise;
    the derivative of that map ``(z, parameter) -> d parameter / dz``; the
    starts from a Latin-hypercube column u and the sample mean m; the box
    half-width; and whether the box is centred on the data's scale -log m
    rather than on 0.  The kinds: alpha = sin z, beta log-like
    (``_log_like``) and every positive parameter exp z."""

    value: object
    slope: object
    start: object
    half: float
    centred: bool = False


# the knee of the log-like beta coordinate: beta = z for |z| <= _KNEE and
# +-_KNEE exp(|z| / _KNEE - 1) beyond, the map and its slope continuous there.
# For beta = -b << 0, F ~ exp(-b (1 - alpha) G_bar - b alpha G_bar^2): the
# likelihood moves with log b, and a linear coordinate creeps along that ridge.
_KNEE = 3.0


def _log_like(z):
    """beta at the log-like coordinate z."""
    far = _KNEE * np.exp(np.abs(z) / _KNEE - 1.0)
    return np.where(np.abs(z) <= _KNEE, z, np.copysign(far, z))


def _log_like_slope(z, beta):
    """d beta / dz at z, where beta = ``_log_like(z)``: 1 up to the knee,
    exp(|z| / _KNEE - 1) beyond."""
    return np.where(np.abs(z) <= _KNEE, 1.0, np.exp(np.abs(z) / _KNEE - 1.0))


def _log_like_inverse(beta):
    """The log-like coordinate z of beta, the inverse of ``_log_like``."""
    far = np.maximum(np.abs(beta), _KNEE)  # no log of the near values, which the where drops
    return np.where(far == _KNEE, beta, np.copysign(_KNEE * (1.0 + np.log(far / _KNEE)), beta))


_KINDS = {
    "alpha": _Kind(
        np.sin, lambda z, p: np.cos(z), lambda u, m: np.arcsin(-0.9 + 1.8 * u), np.inf
    ),
    "beta": _Kind(  # starts in (-10, -0.1) and (0.1, 10); the box |beta| <= _BETA_BOX
        _log_like,
        _log_like_slope,
        lambda u, m: _log_like_inverse(
            np.where(u < 0.5, -10.0 + (u / 0.5) * 9.9, 0.1 + ((u - 0.5) / 0.5) * 9.9)),
        float(_log_like_inverse(_BETA_BOX)),
    ),
    "rate": _Kind(np.exp, lambda z, p: p, lambda u, m: np.log(0.1 / m) + u * math.log(100.0),
                  _LOG_BOX, True),
    "shape": _Kind(np.exp, lambda z, p: p, lambda u, m: math.log(0.25) + u * math.log(16.0),
                   _LOG_BOX),
    "tilt": _Kind(np.exp, lambda z, p: p, lambda u, m: math.log(0.01) + u * math.log(1e4),
                  _LOG_BOX),
}


def _latin_hypercube(n, d, seed):
    """``n`` Latin-hypercube points in [0, 1)^d (McKay, Beckman & Conover
    1979): each column puts one point, uniformly jittered, in each of the n
    strata, the strata shuffled per column.  The draws are scipy's
    ``qmc.LatinHypercube(d, seed=seed).random(n)``, bit for bit."""
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(size=(n, d))
    perms = np.tile(np.arange(1, n + 1), (d, 1))
    for row in perms:
        rng.shuffle(row)
    return (perms.T - jitter) / n


@dataclass(frozen=True)
class _Model:
    """One tag of :func:`fit`: the model from its parameter values, its exact
    observed information ``(data, model) -> matrix``, and either the
    closed-form estimate ``data -> values`` or the kinds of its search
    coordinates with its batched ``kernel(data, theta, order=1, n_obs=None)``,
    the log-likelihoods (S,), scores (S, k) and at ``order`` 2 Hessians
    (S, k, k) at the parameter rows ``theta`` (S, k), ``data`` one sample or
    one padded row per parameter row with its own size in ``n_obs``."""

    make: object
    information: object
    closed_form: object = None
    search: tuple = ()
    kernel: object = None


def _ptg_kernel(family):
    """The batched PT-G kernel with the baseline ``family`` bound."""
    def kernel(data, theta, order=1, n_obs=None):
        return ptg_loglik_derivatives(data, family, theta, order, n_obs)

    return kernel


# the PT-G information is looked up at call time, so that a rebinding of
# ``observed_information`` (perfbench/tracing.py) is seen
MODELS = {
    "pte": _Model(pte_params, lambda x, p: observed_information(x, p),
                  search=("alpha", "beta", "rate"), kernel=_ptg_kernel(Exponential)),
    "ptw": _Model(ptw_params, lambda x, p: observed_information(x, p),
                  search=("alpha", "beta", "rate", "shape"), kernel=_ptg_kernel(Weibull)),
    "exp": _Model(Exponential, lambda x, m: np.array([[x.size / m.lam**2]]),
                  closed_form=lambda x: (1.0 / x.mean(),)),
    "me": _Model(MomentExponential, lambda x, m: np.array([[2.0 * x.size / m.sigma**2]]),
                 closed_form=lambda x: (x.mean() / 2.0,)),
    "moe": _Model(MarshallOlkinExponential,
                  lambda x, m: -moe_loglik_derivatives(x, np.array([m.values]), order=2)[2][0],
                  search=("tilt", "rate"), kernel=moe_loglik_derivatives),
}


def _loglik_score(samples, model):
    """``f(Z, labels) -> (loglik (S,), score (S, k))`` of the numerical model
    tagged ``model`` at rows Z of its search coordinates, row s on the sample
    ``samples[labels[s]]``: one kernel call at the parameters the kinds map Z
    to, the score chained through each map's derivative.  The samples are
    stacked into one array, each shorter one padded with its own first
    observation, and the kernel sums each row over its own sample size; a
    call reads only the columns up to the largest own size among its rows."""
    spec = MODELS[model]
    kinds = [_KINDS[kind] for kind in spec.search]
    # one exp of all of Z maps the log-parameters; the other columns are set over it
    maps = [(j, kind.value) for j, kind in enumerate(kinds) if kind.value is not np.exp]
    sizes = np.array([x.size for x in samples])
    stacked = np.array([np.append(x, np.full(sizes.max() - x.size, x[0])) for x in samples])

    def loglik_score(z, labels):
        with np.errstate(all="ignore"):  # overflow only ever gives a rejected row
            theta = np.exp(z)
            for j, value in maps:
                theta[:, j] = value(z[:, j])
            n_obs = sizes[labels]
            ll, score = spec.kernel(stacked[labels, :n_obs.max()], theta, n_obs=n_obs)
            for j, kind in enumerate(kinds):
                score[:, j] *= kind.slope(z[:, j], theta[:, j])
        return ll, score

    return loglik_score


def fit_samples(samples, model="pte", opts=None):
    """Fit the model tagged ``model`` to each sample of ``samples`` by
    maximum likelihood: the list of their :func:`fit` results, bit for bit
    but for the cost of the one search, which they share.

    A numerical model runs one lockstep multistart for all samples: each
    sample's Latin-hypercube starts and search box are built as if it were
    fitted alone, its rows carry its label, and each row's path depends on
    its own sample's rows alone.  The closed-form models fit each sample in
    turn.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {list(MODELS)}")
    spec, opts = MODELS[model], opts or FitOptions()
    samples = [check_sample(x) for x in samples]
    if not samples:
        raise ValueError("need at least one sample")
    if spec.closed_form is not None:
        fitted, cost = [(spec.closed_form(x), 0, True) for x in samples], (0, 0)
    else:
        if min(x.size for x in samples) < len(spec.search) + 1:
            raise ValueError("need at least one more observation than parameters")
        kinds = [_KINDS[kind] for kind in spec.search]
        u = _latin_hypercube(opts.n_starts, len(kinds), opts.seed)
        half = np.array([kind.half for kind in kinds])
        starts, centres = [], []
        for x in samples:
            xbar = float(x.mean())
            starts.append(np.column_stack([kind.start(u[:, j], xbar)
                                           for j, kind in enumerate(kinds)]))
            centres.append([-math.log(xbar) if kind.centred else 0.0 for kind in kinds])
        centre = np.repeat(centres, opts.n_starts, axis=0)
        z_best, _, cost, converged = multistart_maximize(
            _loglik_score(samples, model),
            np.concatenate(starts),
            box=(centre - half, centre + half),
            labels=np.repeat(np.arange(len(samples)), opts.n_starts),
        )
        # each best start has a finite log-likelihood: a valid parameter point
        # (its starts and the two polishes, run or not, are n_starts + 2)
        fitted = [
            ([kind.value(z) for kind, z in zip(kinds, z_row)], opts.n_starts + 2, bool(ok))
            for z_row, ok in zip(z_best, converged)
        ]
    results = []
    for x, (values, n_launches, converged) in zip(samples, fitted):
        estimates = spec.make(*map(float, values))
        if "beta" in spec.search and abs(estimates.beta) > _BETA_WARN:
            _warn(
                f"fitted beta = {estimates.beta:.6g} lies outside the documented "
                f"|beta| <= {_BETA_WARN:g}"
            )
        info = spec.information(x, estimates)
        results.append(FitResult.from_information(
            estimates, log_likelihood(x, estimates), info, converged, n_launches, x.size, cost
        ))
    return results


def fit(data, model="pte", opts=None):
    """Fit the model tagged ``model`` by maximum likelihood:
    ``fit_samples([data], model, opts)[0]``.

    Parameters
    ----------
    data : array-like of positive finite floats
    model : {"pte", "ptw", "exp", "me", "moe"}
        PT-exponential, PT-Weibull, exponential, moment exponential or
        Marshall-Olkin exponential.
    opts : FitOptions, optional
        The multistart of the numerical fits (PT-G and Marshall-Olkin).

    Returns
    -------
    FitResult
        The fitted model as ``estimates``, the log-likelihood, the exact
        observed information, standard errors and 95% Wald intervals.
        ``converged`` is False (never silent) when the search did not reach
        a stationary point; ``objective_calls`` and ``start_rows`` are the
        search's cost, and a closed-form fit counts no launches and no cost.
    """
    return fit_samples([data], model, opts)[0]


def observed_information(data, p_hat):
    """Observed information: the exact negated Hessian of the log-likelihood
    at ``p_hat`` in (alpha, beta, baseline...), finite at alpha = +-1."""
    theta = np.array([p_hat.values], dtype=float)
    return -ptg_loglik_derivatives(data, type(p_hat.baseline), theta, order=2)[2][0]


# the standard normal quantile at 0.975, scipy's norm.ppf(0.975) bit for bit
_Z95 = 1.959963984540054


def wald_ci(fit_result):
    """95% Wald confidence intervals, truncated to the parameter domain.

    For PT-G, alpha is clipped to [-1, 1] and beta to the sign region of its
    estimate; every other parameter (baseline or competitor) to [0, inf).
    A zero standard error degenerates to the point estimate; an unknown
    (NaN) one gives NaN bounds.
    """
    est = np.asarray(fit_result.estimates.values, dtype=float)
    se = np.asarray(fit_result.std_errors, dtype=float)
    lo, hi = np.zeros(est.size), np.full(est.size, np.inf)  # the parameter domain
    if isinstance(fit_result.estimates, PtgParams):
        lo[:2] = -1.0, (-np.inf if est[1] < 0 else 0.0)
        hi[:2] = 1.0, (0.0 if est[1] < 0 else np.inf)
    return np.maximum(est - _Z95 * se, lo), np.minimum(est + _Z95 * se, hi)
