"""The benchmark's workloads: their inputs, their operations and their checks.

Each workload is built from the seed, warms up, and hands out rounds of
operations.  An operation is one call into ptgfit's public API; its check
runs after the timed loop and compares the result with ``reference`` (code
written apart from ptgfit) or with a property the method must have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from reference import PtgReference, close, integrate, order_stat_const


@dataclass
class Op:
    """One operation: a label, the call, and what its check needs."""

    label: str
    call: Callable[[], Any]
    inputs: Any = None
    input_bytes: int = 0


def _local_max_problems(data, theta, loglik, steps, tol, label):
    """Coordinate steps of relative size ``steps`` that raise the loglik by more than tol."""
    problems = []
    for i, value in enumerate(theta):
        for step in steps:
            for sign in (1.0, -1.0):
                moved = list(theta)
                moved[i] = value + sign * step * max(1.0, abs(value))
                if abs(moved[0]) > 1.0 or any(v <= 0.0 for v in moved[2:]):
                    continue  # the step leaves the parameter domain
                ll = PtgReference(*moved).log_pdf_sum(data)
                if ll > loglik + tol:
                    problems.append(
                        f"{label}: step {sign * step:+g} on coordinate {i} raises "
                        f"the loglik by {ll - loglik:.3g}"
                    )
    return problems


# ---------------------------------------------------------------------------
# reproduce: the paper's two applications, end to end
# ---------------------------------------------------------------------------

# dataset-II gates that the publication's own numbers contradict (the
# package README explains each); every other gate must pass
DOCUMENTED_II_FAILURES = frozenset(
    f"fit[II] {name}"
    for name in (
        "pte.alpha", "pte.beta", "pte.lam", "pte.ad", "pte.cvm",
        "moe.tilt", "moe.lam", "moe.aic",
    )
)


class Reproduce:
    """One operation is ``reproduce.run_reproduction()``, the ``ptgfit
    reproduce`` command.  Its inputs are the two embedded datasets and the
    command's default search seed, so the benchmark seed does not change
    them: the reproduction is one fixed computation."""

    def __init__(self, ptgfit_modules, seed):
        self.reproduce = ptgfit_modules["reproduce"]
        data = ptgfit_modules["data"]
        self.datasets = {
            "I": data.embedded_dataset("guinea_pigs_I").values,
            "II": data.embedded_dataset("relief_times_II").values,
        }

    def warm_up(self):
        self.reproduce.run_reproduction(n_starts=2)

    def round(self, k):
        nbytes = sum(v.nbytes for v in self.datasets.values())
        return [Op("run_reproduction", lambda: self.reproduce.run_reproduction(),
                   input_bytes=nbytes)]

    def check(self, op, report):
        problems = []
        for gate in report.gates:
            if gate.passed or gate.label in DOCUMENTED_II_FAILURES:
                continue
            problems.append(f"gate {gate.label} failed: {gate.computed} vs {gate.reference}")
        for key, data in self.datasets.items():
            fit = report.fit_rows[("pte", key)]
            theta = tuple(float(v) for v in fit.estimates.values)
            own = PtgReference(*theta).log_pdf_sum(data)
            if not abs(fit.loglik - own) <= 1e-9:
                problems.append(f"PT-E[{key}] loglik {fit.loglik!r} != own {own!r}")
            problems += _local_max_problems(
                data, theta, fit.loglik, (1e-3, 1e-5), 1e-6, f"PT-E[{key}]"
            )
        return problems


# ---------------------------------------------------------------------------
# fit_large: one PT-E fit on a large seeded sample
# ---------------------------------------------------------------------------

FIT_LARGE_N = 10_000
# dataset I's fitted optimum (alpha, beta, lam).  PT-W samples of this size
# leave alpha so weakly identified that a few percent of seeded fits end at
# alpha = +-1, where mle.fit raises LinAlgError; PT-E keeps alpha-hat
# within about 0.15 of the generating value.
FIT_LARGE_GEN = (0.8133, -6.5878, 0.841)
WARM_SEED = 0  # warm-up sample, the same for every benchmark seed


class FitLarge:
    """One operation is ``mle.fit(x, "exponential")`` on a fresh sample of
    ``FIT_LARGE_N`` PT-E draws from ``FIT_LARGE_GEN``; round k draws with
    seed (benchmark seed, k + 1)."""

    def __init__(self, ptgfit_modules, seed):
        self.mle = ptgfit_modules["mle"]
        self.distributions = ptgfit_modules["distributions"]
        self.gen = self.distributions.pte_params(*FIT_LARGE_GEN)
        self.seed = seed
        self.warm_sample = self.distributions.ptg_sample(1000, self.gen, seed=WARM_SEED)

    def warm_up(self):
        self.mle.fit(self.warm_sample, "exponential", self.mle.FitOptions(n_starts=2))

    def round(self, k):
        x = self.distributions.ptg_sample(FIT_LARGE_N, self.gen, seed=[self.seed, k + 1])
        return [Op(f"fit[{k}]", lambda: self.mle.fit(x, "exponential"), inputs=x,
                   input_bytes=x.nbytes)]

    def check(self, op, fit):
        x = op.inputs
        problems = []
        if not fit.converged:
            problems.append(f"{op.label}: converged is false")
        theta = tuple(float(v) for v in fit.estimates.values)
        own = PtgReference(*theta).log_pdf_sum(x)
        if not close(fit.loglik, own, 1e-11):
            problems.append(f"{op.label}: loglik {fit.loglik!r} != own {own!r}")
        at_gen = PtgReference(*FIT_LARGE_GEN).log_pdf_sum(x)
        if not own >= at_gen - 1e-9 * abs(at_gen):
            problems.append(f"{op.label}: loglik {own!r} below the generating point's {at_gen!r}")
        problems += _local_max_problems(x, theta, fit.loglik, (1e-3, 1e-5), 1e-6, op.label)
        return problems


# ---------------------------------------------------------------------------
# props: the paper's property sheet at one parameter point
# ---------------------------------------------------------------------------

# the paper's two fitted optima and the two points where raw_moment's
# alternating series has lost every digit (beta = 30, 40): not jittered
FIXED_POINTS = (
    ("optimum-I", (0.8133, -6.5878, 0.841)),
    ("optimum-II", (0.936, -101.3, 1.637)),
    ("beta30", (0.5, 30.0, 1.0)),
    ("beta40", (0.5, 40.0, 1.0)),
)

# anchors across the documented domain (both tilt signs, alpha near both
# ends, Weibull shape below and above 1); the seed jitters each one
ANCHORS = (
    ("pte-a", (0.5, 2.0, 1.0)),
    ("pte-b", (-0.8, -3.0, 0.5)),
    ("ptw-a", (-0.3, -5.0, 0.5, 2.0)),
    ("ptw-b", (0.9, 0.5, 2.0, 0.8)),
)

RENYI_ORDERS = (0.5, 2.0)
ORDER_STAT = (2, 5)  # r-th smallest of n
# Gauss-Legendre nodes and weights on (0, 1), exact for the order-statistic
# density's probability-space form, a polynomial of degree n - 1
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
GL_U, GL_W = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS


def _jitter(values, rng):
    alpha, beta, *base = values
    alpha = float(np.clip(alpha + rng.uniform(-0.05, 0.05), -1.0, 1.0))
    beta = beta * (1.0 + rng.uniform(-0.02, 0.02))
    base = [v * (1.0 + rng.uniform(-0.1, 0.1)) for v in base]
    return (alpha, beta, *base)


class Props:
    """One operation is the property sheet at one point, through the public
    functions of ``expansions``.  A round visits the anchors, the fixed
    points, the anchors again and optimum II again.  The median operation is
    an anchor and half the round's time is optimum II; visiting each twice,
    some 25 s apart, averages the host's slow swings in speed.

    The sheet starts with the two mean deviations: ``mean_deviation`` needs
    E[X] from ``raw_moment``, so a point whose moments are wrong fails after
    one moment instead of after the whole sheet."""

    def __init__(self, ptgfit_modules, seed):
        self.ex = ptgfit_modules["expansions"]
        dist = ptgfit_modules["distributions"]
        rng = np.random.default_rng(seed)
        anchors = [(label, _jitter(v, rng)) for label, v in ANCHORS]
        # a cheap point first: the traced run's memory probe repeats op 0
        points = anchors + list(FIXED_POINTS) + anchors + [FIXED_POINTS[1]]
        self.points = []
        for label, values in points:
            make = dist.pte_params if len(values) == 3 else dist.ptw_params
            ref = PtgReference(*values)
            strength = make(*values[:2], values[2] * 1.25, *values[3:])
            grid = ref.quantiles(GL_U)
            self.points.append((label, values, make(*values), strength, ref, grid))
        self.warm_point = dist.pte_params(0.5, 0.5, 1.0)
        self._expected = {}

    def warm_up(self):
        p, ex = self.warm_point, self.ex
        ex.mean_deviation("median", p)
        ex.mgf(0.5, p)
        ex.pwm(1, 1, 1, p)
        ex.order_stat_pdf(GL_U, *ORDER_STAT, p)
        ex.stress_strength(p, p)
        ex.residual_moment(1, 0.5, p)
        ex.reversed_residual_moment(1, 0.5, p)
        ex.renyi_entropy(2.0, p)

    def _sheet(self, p, strength, grid, median):
        ex = self.ex
        s_mgf = 0.5 * p.baseline.lam if p.baseline.mgf_sup() > 0 else None
        return {
            "md_mean": ex.mean_deviation("mean", p),
            "md_median": ex.mean_deviation("median", p),
            "moments": [ex.raw_moment(s, p) for s in (1, 2, 3, 4)],
            "mgf0": ex.mgf(0.0, p) if s_mgf is not None else None,
            "mgf": ex.mgf(s_mgf, p) if s_mgf is not None else None,
            "pwm": ex.pwm(1, 1, 1, p),
            "order_stat": ex.order_stat_pdf(grid, *ORDER_STAT, p),
            "ss_self": ex.stress_strength(p, p),
            "ss": ex.stress_strength(p, strength),
            "residual0": ex.residual_moment(1, 0.0, p),
            "residual": ex.residual_moment(1, median, p),
            "reversed": ex.reversed_residual_moment(1, median, p),
            "renyi": [ex.renyi_entropy(d, p) for d in RENYI_ORDERS],
        }

    def round(self, k):
        ops = []
        for label, values, p, strength, ref, grid in self.points:
            median = ref.quantile(0.5)
            ops.append(
                Op(
                    label,
                    lambda p=p, s=strength, g=grid, m=median: self._sheet(p, s, g, m),
                    inputs=(values, ref, grid, median),
                    input_bytes=grid.nbytes,
                )
            )
        return ops

    def _reference(self, op):
        """The sheet computed apart from ptgfit, once per point."""
        if op.label in self._expected:
            return self._expected[op.label]
        values, ref, grid, median = op.inputs
        lam = values[2]
        theta = values[3] if len(values) == 4 else 1.0
        strength = PtgReference(values[0], values[1], lam * 1.25, *values[3:])
        moments = [ref.raw_moment(s) for s in (1, 2, 3, 4)]
        mean = moments[0]
        f_mean = ref.cdf(mean)
        md_mean = ref.expect(lambda x: mean - x, 0.0, f_mean) + ref.expect(
            lambda x: x - mean, f_mean, 1.0
        )
        md_median = ref.expect(lambda x: median - x, 0.0, 0.5) + ref.expect(
            lambda x: x - median, 0.5, 1.0
        )
        s_mgf = 0.5 * lam if theta >= 1.0 else None
        f_t = ref.cdf(median)
        r, n = ORDER_STAT
        big_f = ref.cdfs(grid)
        expected = {
            "md_mean": md_mean,
            "md_median": md_median,
            "sd": math.sqrt(moments[1] - mean**2),
            "moments": moments,
            "mgf": ref.expect(lambda x: math.exp(s_mgf * x)) if s_mgf else None,
            "pwm": ref.tg_pwm(1, 1, 1),
            "order_stat": order_stat_const(r, n) * ref.pdfs(grid)
            * big_f ** (r - 1) * (1.0 - big_f) ** (n - r),
            "pdf_grid": ref.pdfs(grid),
            "ss": ref.expect(strength.cdf),
            "residual": ref.expect(lambda x: x - median, f_t, 1.0) / (1.0 - f_t),
            "reversed": ref.expect(lambda x: median - x, 0.0, f_t) / f_t,
            "renyi": [
                math.log(integrate(lambda u, d=d: ref.pdf(ref.quantile(u)) ** (d - 1.0), 0.0, 1.0))
                / (1.0 - d)
                for d in RENYI_ORDERS
            ],
        }
        self._expected[op.label] = expected
        return expected

    def check(self, op, got):
        want = self._reference(op)
        problems = []

        def expect(name, ok):
            if not ok:
                problems.append(f"{op.label}: {name}")

        m = got["moments"]
        for s, (g, w) in enumerate(zip(m, want["moments"]), start=1):
            expect(f"raw_moment({s}) = {g!r}, own {w!r}", close(g, w, 1e-6))
        expect("E[X^2] < E[X]^2", m[1] >= m[0] ** 2)
        for key in ("md_mean", "md_median"):
            expect(f"{key} = {got[key]!r}, own {want[key]!r}", close(got[key], want[key], 1e-6))
            expect(f"{key} outside [0, sd]", 0.0 <= got[key] <= want["sd"])
        if want["mgf"] is not None:
            expect(f"mgf(0) = {got['mgf0']!r}", got["mgf0"] == 1.0)
            expect(f"mgf = {got['mgf']!r}, own {want['mgf']!r}", close(got["mgf"], want["mgf"], 1e-6))
        expect(f"pwm = {got['pwm']!r}, own {want['pwm']!r}", close(got["pwm"], want["pwm"], 1e-6))
        os_pdf = np.asarray(got["order_stat"])
        expect("order_stat_pdf differs from own", np.allclose(os_pdf, want["order_stat"], rtol=1e-8, atol=0.0))
        mass = float(np.sum(GL_W * os_pdf / want["pdf_grid"]))
        expect(f"order-statistic density integrates to {mass!r}", close(mass, 1.0, 1e-8))
        expect(f"stress_strength(p, p) = {got['ss_self']!r}", close(got["ss_self"], 0.5, 1e-8))
        expect(f"stress_strength = {got['ss']!r}, own {want['ss']!r}", close(got["ss"], want["ss"], 1e-7))
        expect(f"residual_moment(1, 0) = {got['residual0']!r}, E[X] {want['moments'][0]!r}",
               close(got["residual0"], want["moments"][0], 1e-7))
        for key in ("residual", "reversed"):
            expect(f"{key} = {got[key]!r}, own {want[key]!r}", close(got[key], want[key], 1e-6))
        for d, g, w in zip(RENYI_ORDERS, got["renyi"], want["renyi"]):
            expect(f"renyi_entropy({d}) = {g!r}, own {w!r}", close(g, w, 1e-6))
        return problems


WORKLOADS = {"reproduce": Reproduce, "fit_large": FitLarge, "props": Props}
