"""Maximum-likelihood estimation for the PT-G family and its competitors.

``fit(data, model)`` fits every model tag of ``MODELS``: PT-exponential
(``pte``), PT-Weibull (``ptw``), exponential (``exp``), moment exponential
(``me``) and Marshall-Olkin exponential (``moe``).  The exponential and
moment-exponential estimates are closed-form.  The others are maximized
from many Latin-hypercube starting points at once (``_latin_hypercube``,
numpy's generator seeded by ``FitOptions.seed``): one lockstep
quasi-Newton engine (``minimize``, BFGS steps with a backtracking line
search) advances every start on one (starts x n) array, driven by the
model's analytic score.  The search runs in transformed coordinates that
keep every iterate inside the parameter domain: alpha = sin(z0), which
reaches the edges alpha = +-1 at finite z0 and has no flat tail to strand a
start in, beta unconstrained (with a small exclusion band around zero), and
positive parameters via log.  Standard errors come from inverting the
observed information matrix, the exact negated Hessian in the original
coordinates.

A numerical model supplies only its batched kernel, ``kernel(data, theta,
order=1)`` (``ptg_loglik_derivatives`` with its baseline family bound, or
``moe_loglik_derivatives``).  One adapter turns any kernel into the search
objective by the chain rule, from the table of coordinate kinds
(``_KINDS``: each kind's map back to its parameter and that map's
derivative), and the information is the negated order-2 kernel.

``log_likelihood`` and ``FitResult`` serve every model of the shared
protocol (``PtgParams``, the baselines and the competitor models): the
log-likelihood is the sum of the model's ``log_pdf``, and a fit record is
built from the estimates and their observed information alike.
"""

from __future__ import annotations

import math
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
from .data import check_sample
from .distributions import PtgParams, ptg_loglik_derivatives, pte_params, ptw_params

__all__ = [
    "FitOptions",
    "FitResult",
    "log_likelihood",
    "fit",
    "MODELS",
    "observed_information",
    "wald_ci",
    "multistart_maximize",
]


@dataclass(frozen=True)
class FitOptions:
    """Multistart settings for :func:`fit`: the number of starts and their seed."""

    n_starts: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("n_starts must be positive")


@dataclass(frozen=True)
class FitResult:
    """Outcome of a maximum-likelihood fit; ``estimates`` is the fitted model."""

    estimates: object
    loglik: float
    std_errors: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    info_matrix: np.ndarray
    converged: bool
    n_restarts_used: int
    n_obs: int
    degenerate_info: bool = False

    @property
    def param_names(self):
        return self.estimates.names

    @property
    def k(self):
        return len(self.estimates.values)

    @classmethod
    def from_information(cls, estimates, loglik, info, converged, n_restarts_used, n_obs):
        """Fit record with standard errors from the observed information
        ``info`` and 95% Wald intervals; warns when the fit did not converge
        or the information is singular."""
        if not converged:
            warnings.warn("fit did not fully converge; results are flagged", stacklevel=3)
        k = len(estimates.values)
        if np.all(np.isfinite(info)):
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
            warnings.warn("observed information is singular to tolerance", stacklevel=3)
        low, high = _wald_bounds(estimates, se, 0.95)
        return cls(
            estimates=estimates,
            loglik=loglik,
            std_errors=se,
            ci_low=low,
            ci_high=high,
            info_matrix=info,
            converged=converged,
            n_restarts_used=n_restarts_used,
            n_obs=int(n_obs),
            degenerate_info=degenerate,
        )


def log_likelihood(data, model):
    """Log-likelihood of ``data`` under ``model``: the sum of its ``log_pdf``.

    Returns ``-inf`` whenever any observation falls where the density is
    zero (for PT-G, where the transmuted factor is nonpositive).
    """
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise ValueError("data must be nonempty")
    if not np.all(data >= 0.0):  # also refuses NaN
        raise ValueError("data must be nonnegative (and not NaN)")
    return float(np.sum(model.log_pdf(data)))


# ---------------------------------------------------------------------------
# lockstep quasi-Newton multistart engine
# ---------------------------------------------------------------------------

_ARMIJO = 1e-4  # sufficient-decrease constant of the line search
_MAX_HALVINGS = 20  # step halvings before a line search gives up
_ROUNDING = 1e-13  # relative rounding of a summed log-likelihood
_XTOL = 1e-10  # relative step below which a start has stopped moving
_GTOL = 1e-10  # score max-norm at which a start stops
_MAX_ITER = 2000  # quasi-Newton steps of each start; the polish takes twice as many
_CONVERGED_SCORE = 1e-3  # score max-norm below which a fit counts as converged
# search box, as half-widths in transformed coordinates: a start that leaves
# it stops (beta -> +inf with lambda -> 0 is a runaway on dataset II).  The
# log rate is centred on the data's scale.  z0 = asin(alpha) needs no box:
# every z0 is a point of the domain.
_BETA_BOX = 1e4
_LOG_BOX = 50.0
_BETA_WARN = 700.0  # documented |beta| range of the Poisson layer


def _bfgs_update(h, s, y):
    """BFGS update of the inverse Hessians ``h`` (S, k, k) by the steps ``s``
    and gradient changes ``y`` (S, k); rows without positive curvature keep
    their matrix."""
    sy = np.einsum("si,si->s", s, y)
    ok = sy > 1e-12 * np.linalg.norm(s, axis=1) * np.linalg.norm(y, axis=1)
    rho = np.where(ok, 1.0 / np.where(ok, sy, 1.0), 0.0)[:, None, None]
    left = np.eye(s.shape[1]) - rho * s[:, :, None] * y[:, None, :]
    return left @ h @ left.transpose(0, 2, 1) + rho * s[:, :, None] * s[:, None, :]


def minimize(fun, z0, box, max_iter=_MAX_ITER):
    """Minimize a batched objective from every row of ``z0`` in lockstep.

    ``fun(Z)`` maps an (S, k) array of points to their values (S,) and
    gradients (S, k).  All rows advance together: a BFGS direction, then a
    backtracking line search that evaluates only the rows still searching.
    A trial point is accepted on Armijo's sufficient decrease or, where the
    decrease is lost in the value's rounding, on a smaller gradient.  A row
    starts from the identity inverse Hessian with a step of at most unit
    max-norm and rescales it by its first curvature pair; a failed search
    along a quasi-Newton direction sends the row back to that start.

    A row stops when its gradient's max-norm falls below ``_GTOL``, when its
    line search fails along steepest descent, when a step no longer moves it
    (relative change below ``_XTOL``), when it leaves ``box`` (lower and
    upper bounds, each of length k), or after ``max_iter`` steps.  Returns
    the final points, values and gradients.
    """
    z = np.array(z0, dtype=float)
    f, g = fun(z)
    n_rows, k = z.shape
    eye = np.eye(k)
    h = np.tile(eye, (n_rows, 1, 1))
    fresh = np.ones(n_rows, dtype=bool)  # inverse Hessian still the identity
    active = np.isfinite(f) & np.all(np.isfinite(g), axis=1)
    lo, hi = box
    for _ in range(max_iter):
        active &= np.max(np.abs(g), axis=1) >= _GTOL
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        gr = g[rows]
        d = -np.einsum("sij,sj->si", h[rows], gr)
        slope = np.einsum("si,si->s", d, gr)
        steep = fresh[rows] | ~(slope < 0.0)  # no descent: back to the gradient
        fresh[rows[steep]] = True
        h[rows[steep]] = eye
        d[steep] = -gr[steep] / np.maximum(np.max(np.abs(gr[steep]), axis=1), 1.0)[:, None]
        slope[steep] = np.einsum("si,si->s", d[steep], gr[steep])

        step = np.ones(rows.size)
        z_new, f_new, g_new = z[rows], f[rows], gr.copy()
        done = np.zeros(rows.size, dtype=bool)
        for _ in range(_MAX_HALVINGS):
            p = np.flatnonzero(~done)
            zt = z[rows[p]] + step[p, None] * d[p]
            ft, gt = fun(zt)
            f0 = f[rows[p]]
            noise = _ROUNDING * np.maximum(np.abs(f0), 1.0)
            ok = (
                np.isfinite(ft)
                & np.all(np.isfinite(gt), axis=1)
                & (
                    (ft <= f0 + _ARMIJO * step[p] * slope[p])
                    | (
                        (ft <= f0 + noise)
                        & (np.max(np.abs(gt), axis=1) < np.max(np.abs(gr[p]), axis=1))
                    )
                )
            )
            z_new[p[ok]], f_new[p[ok]], g_new[p[ok]] = zt[ok], ft[ok], gt[ok]
            done[p[ok]] = True
            step[p[~ok]] *= 0.5
            if done.all():
                break

        failed = rows[~done]
        active[failed[fresh[failed]]] = False  # even steepest descent failed
        fresh[failed] = True
        h[failed] = eye
        moved, m = rows[done], np.flatnonzero(done)
        s, y = z_new[m] - z[moved], g_new[m] - g[moved]
        first = fresh[moved]
        sy, yy = np.einsum("si,si->s", s, y), np.einsum("si,si->s", y, y)
        scale = np.where((sy > 0.0) & (yy > 0.0), sy / np.where(yy > 0.0, yy, 1.0), 1.0)
        h[moved[first]] *= scale[first, None, None]
        h[moved] = _bfgs_update(h[moved], s, y)
        fresh[moved] = False
        z[moved], f[moved], g[moved] = z_new[m], f_new[m], g_new[m]
        still = np.max(np.abs(s) / np.maximum(np.abs(z[moved]), 1.0), axis=1) > _XTOL
        active[moved] &= still & np.all((z[moved] >= lo) & (z[moved] <= hi), axis=1)
    return z, f, g


def multistart_maximize(loglik_score, starts, box):
    """Maximize a batched log-likelihood from every start, in lockstep.

    ``loglik_score(Z)`` maps an (S, k) array of transformed coordinates to
    the log-likelihoods (S,) and scores (S, k).  :func:`minimize` climbs
    from all starts at once inside ``box``; the best end point is then
    polished by two further restarts from it, each with a fresh inverse
    Hessian.  Returns ``(z_best, loglik_best, n_launches, converged)``:
    ``n_launches`` counts the starts and the two polishing restarts, and
    ``converged`` requires the score's max-norm at ``z_best`` to be below
    ``_CONVERGED_SCORE``.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or len(starts) == 0:
        raise ValueError("need at least one start")

    def neg(z):
        ll, score = loglik_score(z)
        return np.where(np.isnan(ll), np.inf, -ll), -score

    z, f, g = minimize(neg, starts, box)
    i = int(np.argmin(f))
    z_best, f_best, g_best = z[i], f[i], g[i]
    for _ in range(2):  # polish: a fresh inverse Hessian at the incumbent
        z, f, g = minimize(neg, z_best[None], box, 2 * _MAX_ITER)
        if f[0] <= f_best:
            z_best, f_best, g_best = z[0], f[0], g[0]
    converged = bool(np.max(np.abs(g_best)) < _CONVERGED_SCORE)
    return z_best, -f_best, len(starts) + 2, converged


# ---------------------------------------------------------------------------
# one fit for every model tag
# ---------------------------------------------------------------------------

class _Kind(NamedTuple):
    """A kind of search coordinate: the parameter at coordinate z, elementwise;
    the derivative of that map ``(z, parameter) -> d parameter / dz``, None
    where it is 1; the starts from a Latin-hypercube column u and the sample
    mean m; the box half-width; and whether the box is centred on the data's
    scale -log m rather than on 0."""

    value: object
    slope: object
    start: object
    half: float
    centred: bool = False


_KINDS = {
    "alpha": _Kind(
        np.sin, lambda z, p: np.cos(z), lambda u, m: np.arcsin(-0.9 + 1.8 * u), np.inf
    ),
    "beta": _Kind(  # starts in (-10, -0.1) and (0.1, 10)
        lambda z: z,
        None,
        lambda u, m: np.where(u < 0.5, -10.0 + (u / 0.5) * 9.9, 0.1 + ((u - 0.5) / 0.5) * 9.9),
        _BETA_BOX,
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
    coordinates with its batched ``kernel(data, theta, order=1)``, the
    log-likelihoods (S,), scores (S, k) and at ``order`` 2 Hessians
    (S, k, k) at the parameter rows ``theta`` (S, k)."""

    make: object
    information: object
    closed_form: object = None
    search: tuple = ()
    kernel: object = None


# the PT-G information is looked up at call time, so that a rebinding of
# ``observed_information`` (perfbench/tracing.py) is seen
MODELS = {
    "pte": _Model(pte_params, lambda x, p: observed_information(x, p),
                  search=("alpha", "beta", "rate"),
                  kernel=lambda x, t, order=1: ptg_loglik_derivatives(x, Exponential, t, order)),
    "ptw": _Model(ptw_params, lambda x, p: observed_information(x, p),
                  search=("alpha", "beta", "rate", "shape"),
                  kernel=lambda x, t, order=1: ptg_loglik_derivatives(x, Weibull, t, order)),
    "exp": _Model(Exponential, lambda x, m: np.array([[x.size / m.lam**2]]),
                  closed_form=lambda x: (1.0 / x.mean(),)),
    "me": _Model(MomentExponential, lambda x, m: np.array([[2.0 * x.size / m.sigma**2]]),
                 closed_form=lambda x: (x.mean() / 2.0,)),
    "moe": _Model(MarshallOlkinExponential,
                  lambda x, m: -moe_loglik_derivatives(x, np.array([m.values]), order=2)[2][0],
                  search=("tilt", "rate"), kernel=moe_loglik_derivatives),
}


def _loglik_score(data, model):
    """``f(Z) -> (loglik (S,), score (S, k))`` of the numerical model tagged
    ``model`` at rows Z of its search coordinates: its kernel at the
    parameters the kinds map Z to, the score chained through each map's
    derivative."""
    spec = MODELS[model]
    kinds = [_KINDS[kind] for kind in spec.search]
    # one exp of all of Z maps the log-parameters; the other columns are set over it
    maps = [(j, kind.value) for j, kind in enumerate(kinds) if kind.value is not np.exp]
    slopes = [(j, kind.slope) for j, kind in enumerate(kinds) if kind.slope is not None]

    def loglik_score(z):
        with np.errstate(all="ignore"):  # overflow only ever gives a rejected row
            theta = np.exp(z)
            for j, value in maps:
                theta[:, j] = value(z[:, j])
            ll, score = spec.kernel(data, theta)
            for j, slope in slopes:
                score[:, j] *= slope(z[:, j], theta[:, j])
        return ll, score

    return loglik_score


def fit(data, model="pte", opts=None):
    """Fit the model tagged ``model`` by maximum likelihood.

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
        a stationary point; a closed-form fit counts no launches.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {list(MODELS)}")
    spec, opts, data = MODELS[model], opts or FitOptions(), check_sample(data)
    if spec.closed_form is not None:
        values, n_launches, converged = spec.closed_form(data), 0, True
    else:
        if data.size < len(spec.search) + 1:
            raise ValueError("need at least one more observation than parameters")
        xbar = float(data.mean())
        kinds = [_KINDS[kind] for kind in spec.search]
        u = _latin_hypercube(opts.n_starts, len(kinds), opts.seed)
        centre = np.array([-math.log(xbar) if kind.centred else 0.0 for kind in kinds])
        half = np.array([kind.half for kind in kinds])
        z_best, _, n_launches, converged = multistart_maximize(
            _loglik_score(data, model),
            np.column_stack([kind.start(u[:, j], xbar) for j, kind in enumerate(kinds)]),
            box=(centre - half, centre + half),
        )
        # the best start has a finite log-likelihood: a valid parameter point
        values = [kind.value(z) for kind, z in zip(kinds, z_best)]
    estimates = spec.make(*map(float, values))
    if "beta" in spec.search and abs(estimates.beta) > _BETA_WARN:
        warnings.warn(
            f"fitted beta = {estimates.beta:.6g} lies outside the documented "
            f"|beta| <= {_BETA_WARN:g}",
            stacklevel=2,
        )
    info = spec.information(data, estimates)
    return FitResult.from_information(
        estimates, log_likelihood(data, estimates), info, converged, n_launches, data.size
    )


def observed_information(data, p_hat):
    """Observed information: the exact negated Hessian of the log-likelihood
    at ``p_hat`` in (alpha, beta, baseline...), finite at alpha = +-1."""
    theta = np.array([p_hat.values], dtype=float)
    return -ptg_loglik_derivatives(data, type(p_hat.baseline), theta, order=2)[2][0]


def wald_ci(fit_result, level=0.95):
    """Wald confidence intervals, truncated to the parameter domain.

    For PT-G, alpha is clipped to [-1, 1] and beta to the sign region of its
    estimate; every other parameter (baseline or competitor) to [0, inf).
    A zero standard error degenerates to the point estimate; an unknown
    (NaN) one gives NaN bounds.
    """
    return _wald_bounds(fit_result.estimates, fit_result.std_errors, level)


def _wald_bounds(estimates, std_errors, level):
    """The bounds of :func:`wald_ci` from the estimates and standard errors."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    z = _ndtri(0.5 * (1.0 + level))
    est = np.asarray(estimates.values, dtype=float)
    se = np.asarray(std_errors, dtype=float)
    lo, hi = np.zeros(est.size), np.full(est.size, np.inf)  # the parameter domain
    if isinstance(estimates, PtgParams):
        lo[:2] = -1.0, (-np.inf if est[1] < 0 else 0.0)
        hi[:2] = 1.0, (0.0 if est[1] < 0 else np.inf)
    return np.maximum(est - z * se, lo), np.minimum(est + z * se, hi)


# Cephes ndtri (Moshier 1989): the standard normal quantile by three rational
# approximations, in y - 1/2 on the centre and in 1/sqrt(-2 log y) on each
# tail beyond exp(-2); equal to scipy.special.ndtri bit for bit.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_NDTRI_CENTRE = (
    (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
     1.39312609387279679503e1, -1.23916583867381258016e0),
    (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
     -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
     1.59056225126211695515e1, -1.18331621121330003142e0),
)
_NDTRI_TAIL = (  # sqrt(-2 log y) below 8, i.e. y above exp(-32)
    (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
     4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
     -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4),
    (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
     1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
     -3.80806407691578277194e-2, -9.33259480895457427372e-4),
)
_NDTRI_FAR_TAIL = (
    (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
     1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
     3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9),
    (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
     2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
     2.89247864745380683936e-6, 6.79019408009981274425e-9),
)


def _rational(x, coeffs):
    """x P(x) / Q(x), each polynomial by Horner from its highest power; Q's
    leading coefficient 1 is implied."""
    p, q = coeffs
    num, den = p[0], x + q[0]
    for c in p[1:]:
        num = num * x + c
    for c in q[1:]:
        den = den * x + c
    return x * num / den


def _ndtri(y):
    """The standard normal quantile of the probability ``y`` (a float)."""
    if y == 0.0 or y == 1.0:
        return math.copysign(math.inf, y - 0.5)
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * _rational(y2, _NDTRI_CENTRE)) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    tail = _rational(1.0 / x, _NDTRI_TAIL if x < 8.0 else _NDTRI_FAR_TAIL)
    x = x - math.log(x) / x - tail
    return x if upper else -x
