"""Maximum-likelihood estimation for the PT-G family and its competitors.

``fit(data, model)`` fits every model tag of ``MODELS``: PT-exponential
(``pte``), PT-Weibull (``ptw``), exponential (``exp``), moment exponential
(``me``) and Marshall-Olkin exponential (``moe``).  The exponential and
moment-exponential estimates are closed-form.  The others are maximized
from many Latin-hypercube starting points at once (``_latin_hypercube``,
numpy's generator seeded by ``FitOptions.seed``): one lockstep
quasi-Newton engine (``minimize``, BFGS steps with a backtracking line
search) advances every start on one (starts x n) array, driven by the
model's analytic score.  Each start's line search runs in up to three
stages, its full step, then its next four halvings, then the other
fifteen, and each pass of the engine makes exactly one objective call, on
the current stage of every start: a start whose full step failed tries its
halvings beside the other starts' next steps.
``fit_models(samples, models)`` fits several tags to several samples in one
lockstep search, ``fit_samples(samples, model)`` is its one-tag case and
``fit`` the one-sample case of that: every start row carries the label of
its (model, sample), its own search box and its sample's data, a narrower
model's rows padded to the widest model's coordinates with a zero score
and a [0, 0] box, so that each row follows exactly the path it follows
alone.  A start stops on a small score, a failed search, a stalled step, a
step out of its search box (which sends it back to its last point inside)
or its step budget, and is frozen once its log-likelihood lies far below
the best start's of its own sample and has stopped closing the gap
(dataset II's runaways to beta -> +inf).  The search runs in transformed
coordinates that keep every iterate inside the parameter domain: alpha =
sin(z0), which reaches the edges alpha = +-1 at finite z0 and has no flat
tail to strand a start in; beta log-like, z itself for |beta| <= 3 and
+-3 exp(|z| / 3 - 1) beyond (far out at beta < 0 the likelihood moves with
log |beta|), with the kernel's small exclusion band around zero; and
positive parameters via log.  Standard errors come from inverting the
observed information matrix, the exact negated Hessian in the original
coordinates: a numerical model's order-2 kernel at the estimate, negated
(PT-G's is public as ``observed_information``); that call also gives the
reported log-likelihood, ``log_likelihood``'s bit for bit.  A fit records
the cost of its search (``FitResult.objective_calls`` and ``start_rows``),
which every result of one ``fit_models`` call shares.

Each row of ``MODELS`` carries ``make``, the model from its parameter
values; ``exp`` and ``me`` add their closed-form ``information``, the
observed information at the estimate.  A numerical model adds the kinds of
its search coordinates and its batched kernel, ``kernel(data, theta, order=1, n_obs=None)``
(``ptg_loglik_derivatives`` with its baseline family bound, or
``moe_loglik_derivatives``), which takes one sample (n,) for
every parameter row or one row of data per parameter row (S, n).  One
adapter (``_loglik_score``) turns the kernels of a search's models into its
objective ``f(Z, labels)`` by the chain rule, from the table of coordinate
kinds (``_KINDS``: each kind's map back to its parameter and that map's
derivative at z, none for exp, whose derivative is the parameter itself),
with one kernel call per model among an evaluation's rows, which form one
block since the labels ascend, and one product that chains the block's
score: the samples are stacked once per search, one row per sample, a
shorter one padded with its own first observation, and ``n_obs`` gives each
row's own sample size, over which alone the kernel sums.

``log_likelihood`` and ``FitResult`` serve every model of the shared
protocol (``PtgParams``, the baselines and the competitor models): the
log-likelihood is the sum of the model's ``log_pdf``, and a fit record is
built from the estimates and their observed information alike.
"""

from __future__ import annotations

import math
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
from .data import _integer, _warn, check_sample
from .distributions import PtgParams, ptg_loglik_derivatives, pte_params, ptw_params

__all__ = [
    "FitOptions",
    "FitResult",
    "log_likelihood",
    "fit",
    "fit_samples",
    "fit_models",
    "MODELS",
    "observed_information",
    "wald_ci",
    "multistart_maximize",
]


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
    in (0 if closed-form), shared by every numerical result of one
    :func:`fit_models` call: its models and samples, or one
    :func:`fit_samples` call's samples."""

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
# the stages of a line search, one objective call each: the full step, then
# the next four, then the other fifteen, as each stage's first trial and its
# number of trials.  Of the 2,000 searches of ``ptgfit reproduce`` 1,797
# accept the full step and 185 of the other 203 one of the next four.
_STAGE_FIRST = np.array([0, 1, 5])
_STAGE_SIZE = np.array([1, 4, _MAX_HALVINGS - 5])
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
    Each row takes BFGS steps, each found by a backtracking line search over
    the steps 2^-j, j < ``_MAX_HALVINGS``.  A trial point is accepted on
    Armijo's sufficient decrease or, where the decrease is lost in the
    value's rounding, on a smaller gradient, and the row takes its first
    acceptable step.  A row's search runs in up to three stages: the full
    step, then the steps 2^-1 to 2^-4, then the other fifteen, the trials of
    a stage together.  Every pass of the engine makes exactly one ``fun``
    call, on the current stage of every live row, a row's trials adjacent:
    a row whose full step failed tries its halvings in the next pass, beside
    the other rows' next steps.  So a row ends at the step and value it
    would reach alone, and the calls number one for the start and one per
    stage of the row with the most stages.  Most searches accept the full
    step, and most others one of the next four.  A row starts from the
    identity inverse Hessian with a step of at most unit max-norm and
    rescales it by its first curvature pair; a failed search along a
    quasi-Newton direction sends the row back to that start.

    Before each of its steps a row stops when its gradient's max-norm falls
    below ``_GTOL``, when it is frozen or after ``max_iter`` steps, and
    after a step when its line search failed along steepest descent, when
    the step no longer moved it (relative change below ``_XTOL``) or when
    the step left ``box`` (lower and upper bounds, each of length k or one
    row per start).  A row whose accepted step leaves the box goes back to
    the point, value and gradient it held before that step, its last point
    in the box, and stops there, so that no row ends outside its box and
    none can win with the value of a point beyond it.  A row is frozen when
    its value lies more than ``_FREEZE_GAP`` above the lowest finite value
    among the rows of its sample, stopped rows included and each live row
    at the value it holds in that pass, and it closed less than
    ``_FREEZE_CLOSE`` of that gap over its last ``_FREEZE_WINDOW`` steps: a
    dead start that can no longer win.  The lowest row of a sample is never
    frozen.  Each call after the first takes the live rows in the order of
    ``z0``, so labels that ascend in ``z0`` ascend in every ``fun`` call.  A
    row's path depends on the rows of its own sample alone.  Returns the
    final points, values and gradients.
    """
    z = np.array(z0, dtype=float)
    labels = np.zeros(len(z), dtype=int) if labels is None else np.asarray(labels)
    f, g = fun(z, labels)
    eye = np.eye(z.shape[1])
    lo, hi = (np.broadcast_to(bound, z.shape) for bound in box)
    counted = np.isfinite(f)  # the rows whose values count in the freeze
    # each row's gradient max-norm, inverse Hessian, whether that is still the
    # identity, its values of the last steps, its steps taken, its search
    # stage (0 for a new step) and its search's direction, slope and level
    gmax = np.abs(g).max(axis=1)
    going = counted & np.isfinite(gmax)
    hs = np.tile(eye, (len(z), 1, 1))
    fresh = np.ones(len(z), dtype=bool)
    past = np.empty((len(z), _FREEZE_WINDOW))
    steps = np.zeros(len(z), dtype=int)
    stage = np.zeros(len(z), dtype=int)
    d, slope, level = np.empty_like(z), np.empty(len(z)), np.empty(len(z))
    while True:
        new = going & (stage == 0)  # the live rows about to take a new step
        going &= ~new | ((gmax >= _GTOL) & (steps < max_iter))
        c = np.flatnonzero(new & (steps >= _FREEZE_WINDOW))
        if c.size:  # the counted rows hold finite values: no inf - inf
            best = np.full(labels.max() + 1, np.inf)
            np.minimum.at(best, labels[counted], f[counted])
            gap = f[c] - best[labels[c]]
            going[c] &= (gap <= _FREEZE_GAP) | (
                past[c, steps[c] % _FREEZE_WINDOW] - f[c] >= _FREEZE_CLOSE * gap)
        live = np.flatnonzero(going)
        if not live.size:  # also when no row started live
            break

        r = np.flatnonzero(new & going)
        if r.size:  # the new steps' directions
            past[r, steps[r] % _FREEZE_WINDOW] = f[r]
            gr, gmr, fr = g[r], gmax[r], fresh[r]
            dr = -np.einsum("sij,sj->si", hs[r], gr)
            sl = np.einsum("si,si->s", dr, gr)
            steep = fr | ~(sl < 0.0)  # no descent: back to the gradient
            if steep.any():
                fresh[r] = fr | steep
                hs[r[steep]] = eye
                dr[steep] = -gr[steep] / np.maximum(gmr[steep], 1.0)[:, None]
                sl[steep] = np.einsum("si,si->s", dr[steep], gr[steep])
            d[r], slope[r] = dr, sl
            level[r] = f[r] + _ROUNDING * np.maximum(np.abs(f[r]), 1.0)  # f up to its rounding

        # the trial points of every live row's stage, each trial's row ``at``
        # and step ``ladder``, a row's trials adjacent so that each sample's
        # rows stay contiguous
        size = _STAGE_SIZE[stage[live]]
        at = np.repeat(live, size)
        shift = np.repeat(_STAGE_FIRST[stage[live]] - np.cumsum(size) + size, size)
        ladder = _STEPS[np.arange(at.size) + shift]
        zt = z[at] + ladder[:, None] * d[at]
        ft, gt = fun(zt, labels[at])
        gt_max = np.abs(gt).max(axis=1)  # NaN or inf unless the gradient is finite
        ok = (
            np.isfinite(ft)
            & np.isfinite(gt_max)
            & (
                (ft <= f[at] + _ARMIJO * ladder * slope[at])
                | ((ft <= level[at]) & (gt_max < gmax[at]))
            )
        )
        t = np.flatnonzero(ok)
        hit_rows = at[t]
        first = np.ones(t.size, dtype=bool)
        first[1:] = hit_rows[1:] != hit_rows[:-1]
        t = t[first]  # each row's first accepted trial
        hit = np.zeros(len(z), dtype=bool)
        hit[hit_rows] = True
        # the rows whose search ended: a step found, or the last stage failed
        c = live[hit[live] | (stage[live] == _STAGE_SIZE.size - 1)]
        stage[live] += 1
        if not c.size:
            continue

        # the step, the box, the BFGS update
        failed = ~hit[c]
        z_old, f_old, g_old, gmax_old = z[c], f[c], g[c], gmax[c]
        z_new, f_new, g_new, gmax_new = z_old.copy(), f_old.copy(), g_old.copy(), gmax_old.copy()
        a = ~failed
        z_new[a], f_new[a], g_new[a], gmax_new[a] = zt[t], ft[t], gt[t], gt_max[t]
        inside = ((z_new >= lo[c]) & (z_new <= hi[c])).all(axis=1)
        if not inside.all():  # a step out of the box: back to the last in-box point
            out = ~inside
            z_new[out], f_new[out], g_new[out] = z_old[out], f_old[out], g_old[out]
            gmax_new[out] = gmax_old[out]
        s, y = z_new - z_old, g_new - g_old
        sy = np.einsum("si,si->s", s, y)
        hc, fresh_c = hs[c], fresh[c]
        if fresh_c.any():  # a first curvature pair rescales the identity
            sy_f, y_f = sy[fresh_c], y[fresh_c]
            yy = np.einsum("si,si->s", y_f, y_f)
            scale = np.where((sy_f > 0.0) & (yy > 0.0), sy_f / np.where(yy > 0.0, yy, 1.0), 1.0)
            hc[fresh_c] *= scale[:, None, None]
        hc = _bfgs_update(hc, s, y, sy, eye)
        going_c = inside & ((np.abs(s) / np.maximum(np.abs(z_new), 1.0)).max(axis=1) > _XTOL)
        if failed.any():  # a failed search stops a row on steepest descent, else restarts it there
            going_c[failed] = ~fresh_c[failed]
            hc[failed] = eye
        z[c], f[c], g[c], gmax[c], hs[c], going[c], fresh[c] = (
            z_new, f_new, g_new, gmax_new, hc, going_c, failed)
        steps[c] += 1
        stage[c] = 0
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
    # each sample's best row, the first of its rows in a stable sort by f: a tie
    # goes to the earlier row, as argmin's does (f is never NaN)
    order = np.lexsort((f, labels))
    ranked = labels[order]
    best = order[np.r_[True, ranked[1:] != ranked[:-1]]]
    samples = labels[best]
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
    the derivative of that map at z, ``z -> d parameter / dz``, None for exp,
    whose derivative is the parameter itself; the starts from a
    Latin-hypercube column u and the sample mean m; the box half-width; and
    whether the box is centred on the data's scale -log m rather than on 0.
    The kinds: alpha = sin z, beta log-like (``_log_like``) and every positive
    parameter exp z."""

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


def _log_like_slope(z):
    """d beta / dz at z, where beta = ``_log_like(z)``: 1 up to the knee,
    exp(|z| / _KNEE - 1) beyond."""
    return np.where(np.abs(z) <= _KNEE, 1.0, np.exp(np.abs(z) / _KNEE - 1.0))


def _log_like_inverse(beta):
    """The log-like coordinate z of beta, the inverse of ``_log_like``."""
    far = np.maximum(np.abs(beta), _KNEE)  # no log of the near values, which the where drops
    return np.where(far == _KNEE, beta, np.copysign(_KNEE * (1.0 + np.log(far / _KNEE)), beta))


_KINDS = {
    "alpha": _Kind(np.sin, np.cos, lambda u, m: np.arcsin(-0.9 + 1.8 * u), np.inf),
    "beta": _Kind(  # starts in (-10, -0.1) and (0.1, 10); the box |beta| <= _BETA_BOX
        _log_like,
        _log_like_slope,
        lambda u, m: _log_like_inverse(
            np.where(u < 0.5, -10.0 + (u / 0.5) * 9.9, 0.1 + ((u - 0.5) / 0.5) * 9.9)),
        float(_log_like_inverse(_BETA_BOX)),
    ),
    "rate": _Kind(np.exp, None, lambda u, m: np.log(0.1 / m) + u * math.log(100.0), _LOG_BOX,
                  True),
    "shape": _Kind(np.exp, None, lambda u, m: math.log(0.25) + u * math.log(16.0), _LOG_BOX),
    "tilt": _Kind(np.exp, None, lambda u, m: math.log(0.01) + u * math.log(1e4), _LOG_BOX),
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
    """One tag of :func:`fit`: the model from its parameter values, and
    either the closed-form estimate ``data -> values`` and observed
    information ``(data, model) -> matrix``, or the kinds of its search
    coordinates with its batched ``kernel(data, theta, order=1, n_obs=None)``,
    the log-likelihoods (S,), scores (S, k) and at ``order`` 2 Hessians
    (S, k, k) at the parameter rows ``theta`` (S, k), ``data`` one sample or
    one padded row per parameter row with its own size in ``n_obs``; the
    negated Hessian at the estimate is the model's observed information."""

    make: object
    information: object = None
    closed_form: object = None
    search: tuple = ()
    kernel: object = None


def _ptg_kernel(family):
    """The batched PT-G kernel with the baseline ``family`` bound."""
    def kernel(data, theta, order=1, n_obs=None):
        return ptg_loglik_derivatives(data, family, theta, order, n_obs)

    return kernel


MODELS = {
    "pte": _Model(pte_params, search=("alpha", "beta", "rate"), kernel=_ptg_kernel(Exponential)),
    "ptw": _Model(ptw_params, search=("alpha", "beta", "rate", "shape"),
                  kernel=_ptg_kernel(Weibull)),
    "exp": _Model(Exponential, lambda x, m: np.array([[x.size / m.lam**2]]),
                  closed_form=lambda x: (1.0 / x.mean(),)),
    "me": _Model(MomentExponential, lambda x, m: np.array([[2.0 * x.size / m.sigma**2]]),
                 closed_form=lambda x: (x.mean() / 2.0,)),
    "moe": _Model(MarshallOlkinExponential, search=("tilt", "rate"),
                  kernel=moe_loglik_derivatives),
}


def _loglik_score(samples, models):
    """``f(Z, labels) -> (loglik (S,), score (S, k))`` of the numerical models
    tagged in ``models`` at rows Z of their search coordinates: a row labelled
    m * len(samples) + i is model ``models[m]``'s row on ``samples[i]``, its
    coordinates the first columns of Z, as many as the model has, and any
    other column a pad that gets a zero score.  The labels must not decrease
    along Z, as :func:`minimize` hands them over, so that each model's rows
    form one block: a block makes one kernel call at the parameters the kinds
    map its coordinates to, and one product with each map's derivative at z
    chains the kernel's score.  The samples are stacked once per search, one
    row per sample, each shorter sample padded with its own first
    observation, and the kernel sums each row over its own sample size; a
    call reads only the columns up to the largest own size among its rows."""
    n = len(samples)
    sizes = np.array([x.size for x in samples])
    stacked = np.array([np.append(x, np.full(sizes.max() - x.size, x[0])) for x in samples])
    blocks = []
    for model in models:
        kinds = [_KINDS[kind] for kind in MODELS[model].search]
        # one exp maps a block's log-parameters and is their derivative; ``maps`` the rest
        maps = [(j, kind) for j, kind in enumerate(kinds) if kind.slope is not None]
        blocks.append((MODELS[model].kernel, len(kinds), maps))
    firsts = np.arange(len(models) + 1) * n  # each model's first label, and the end

    def loglik_score(z, labels):
        ll, score = np.empty(len(z)), np.zeros(z.shape)
        bounds = labels.searchsorted(firsts).tolist()
        with np.errstate(all="ignore"):  # overflow only ever gives a rejected row
            for (kernel, k, maps), a, b in zip(blocks, bounds, bounds[1:]):
                if a == b:
                    continue
                zb, rows = z[a:b, :k], labels[a:b] % n
                theta = np.exp(zb)
                slope = theta.copy()
                for j, kind in maps:
                    theta[:, j], slope[:, j] = kind.value(zb[:, j]), kind.slope(zb[:, j])
                n_obs = sizes[rows]
                ll[a:b], sb = kernel(stacked[rows, :n_obs.max()], theta, n_obs=n_obs)
                np.multiply(sb, slope, out=score[a:b, :k])
        return ll, score

    return loglik_score


def fit_models(samples, models, opts=None):
    """Fit each model tagged in ``models`` to each sample of ``samples`` by
    maximum likelihood: a dict from each tag to the list of the samples'
    :func:`fit` results, bit for bit but for the cost of the one search,
    which every numerical result shares.

    Every numerical model's starts run in one lockstep multistart.  Its rows
    are labelled per (model, sample); each sample's Latin-hypercube starts
    and search box are built as if it were fitted alone, and a narrower
    model's rows are padded to the widest model's coordinates with zeros, a
    zero score and the box [0, 0], so that the padding never moves.  Each
    row's path depends on the rows of its own model and sample alone.  The
    closed-form models fit each sample in turn.  Each sample must be
    one-dimensional, and ``models`` a sequence of tags, not one tag string.
    """
    if isinstance(models, str):  # its letters would read as tags
        raise ValueError(f"models must be a sequence of model tags, not the string {models!r}")
    for model in models:
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}; expected one of {list(MODELS)}")
    models, opts = list(dict.fromkeys(models)), opts or FitOptions()
    if not models:
        raise ValueError("need at least one model")
    samples = [check_sample(x) for x in samples]
    if not samples:
        raise ValueError("need at least one sample")
    for x in samples:
        if x.ndim != 1:  # 0-d where one sample was passed as the list of samples
            raise ValueError(f"each sample must be one-dimensional, got shape {x.shape}")
    searched = [model for model in models if MODELS[model].closed_form is None]
    fitted = {model: [(MODELS[model].closed_form(x), 0, True) for x in samples]
              for model in models if model not in searched}
    cost = (0, 0)
    if searched:
        kinds = {model: [_KINDS[kind] for kind in MODELS[model].search] for model in searched}
        widths = [len(kinds[model]) for model in searched]
        width = max(widths)
        if min(x.size for x in samples) < width + 1:
            raise ValueError("need at least one more observation than parameters")
        starts, bounds = [], []
        for model, k in zip(searched, widths):
            u = _latin_hypercube(opts.n_starts, k, opts.seed)
            half = np.array([kind.half for kind in kinds[model]])
            for x in samples:
                xbar = float(x.mean())
                start = np.zeros((opts.n_starts, width))
                start[:, :k] = np.column_stack([kind.start(u[:, j], xbar)
                                                for j, kind in enumerate(kinds[model])])
                centre = np.array([-math.log(xbar) if kind.centred else 0.0
                                   for kind in kinds[model]])
                bound = np.zeros((2, width))
                bound[:, :k] = centre - half, centre + half
                starts.append(start)
                bounds.append(bound)
        n = len(samples)
        box = np.repeat(bounds, opts.n_starts, axis=0)
        z_best, _, cost, converged = multistart_maximize(
            _loglik_score(samples, searched),
            np.concatenate(starts),
            box=(box[:, 0], box[:, 1]),
            labels=np.repeat(np.arange(len(searched) * n), opts.n_starts),
        )
        # each best start has a finite log-likelihood: a valid parameter point
        # (its starts and the two polishes, run or not, are n_starts + 2)
        for m, (model, k) in enumerate(zip(searched, widths)):
            fitted[model] = [
                ([kind.value(z) for kind, z in zip(kinds[model], z_row[:k])],
                 opts.n_starts + 2, bool(ok))
                for z_row, ok in zip(z_best[m * n:(m + 1) * n], converged[m * n:(m + 1) * n])
            ]
    results = {}
    for model in models:
        spec, results[model] = MODELS[model], []
        for x, (values, n_launches, converged) in zip(samples, fitted[model]):
            estimates = spec.make(*map(float, values))
            if "beta" in spec.search and abs(estimates.beta) > _BETA_WARN:
                _warn(
                    f"fitted beta = {estimates.beta:.6g} lies outside the documented "
                    f"|beta| <= {_BETA_WARN:g}"
                )
            if model in searched:
                ll, _, hess = spec.kernel(x, np.array([estimates.values]), order=2)
                loglik, info = float(ll[0]), -hess[0]
            else:
                loglik, info = log_likelihood(x, estimates), spec.information(x, estimates)
            results[model].append(FitResult.from_information(
                estimates, loglik, info, converged, n_launches, x.size,
                cost if model in searched else (0, 0),
            ))
    return results


def fit_samples(samples, model="pte", opts=None):
    """Fit the model tagged ``model`` to each sample of ``samples`` by
    maximum likelihood: ``fit_models(samples, (model,), opts)[model]``, the
    list of their :func:`fit` results, bit for bit but for the cost of the
    one search, which they share."""
    return fit_models(samples, (model,), opts)[model]


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
