import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from ptgfit.baselines import Exponential, MarshallOlkinExponential, MomentExponential, Weibull
from ptgfit.distributions import (
    PtgParams,
    _tg_invert,
    pte_params,
    ptg_cdf,
    ptg_hrf,
    ptg_log_pdf,
    ptg_pdf,
    ptg_quantile,
    ptg_sample,
    ptw_params,
    tg_cdf,
    tg_pdf,
    tg_quantile,
)
from ptgfit.gof import ks_test

EXP1 = Exponential(1.0)

# admissible corners and interior points of the (alpha, beta) domain
PARAM_GRID = [
    PtgParams(a, b, base)
    for a in (-1.0, -0.5, 0.0, 0.5, 1.0)
    for b in (-6.6, -0.5, 2.0)
    for base in (Exponential(1.0), Weibull(1.2, 1.6))
]


def _bisect_quantile(cdf, u, lo=0.0, hi=1e3, iters=200):
    """Independent inversion oracle: plain bisection on a monotone cdf."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# transmuted layer
# ---------------------------------------------------------------------------


class TestTransmutedLayer:
    def test_alpha_zero_reduces_to_baseline(self):
        x = 0.35667494393873245  # G(x) = 0.3 for Exp(1)
        assert tg_cdf(x, 0.0, EXP1) == pytest.approx(0.3, abs=1e-12)
        assert tg_pdf(x, 0.0, EXP1) == pytest.approx(EXP1.pdf(x), abs=1e-15)

    def test_alpha_one_at_half(self):
        x = math.log(2.0)  # G = 0.5
        assert tg_cdf(x, 1.0, EXP1) == pytest.approx(0.5 * (2 - 0.5), abs=1e-12)
        assert tg_pdf(x, 1.0, EXP1) == pytest.approx(EXP1.pdf(x), abs=1e-12)

    def test_limits(self):
        for a in (-1.0, -0.3, 0.7, 1.0):
            assert tg_cdf(0.0, a, EXP1) == 0.0
            assert tg_cdf(800.0, a, EXP1) == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            tg_cdf(1.0, 1.5, EXP1)
        with pytest.raises(ValueError):
            tg_cdf(-0.1, 0.5, EXP1)
        with pytest.raises(ValueError):
            tg_quantile(0.0, 0.5, EXP1)
        with pytest.raises(ValueError):
            tg_quantile(1.0, 0.5, EXP1)

    def test_pdf_integrates_to_cdf(self):
        # adaptive-quadrature oracle for the derivative relationship
        for a in (-0.9, 0.4, 1.0):
            for x_hi in (0.7, 2.3):
                val = quad(lambda t: tg_pdf(t, a, EXP1), 0, x_hi)[0]
                assert val == pytest.approx(tg_cdf(x_hi, a, EXP1), abs=1e-8)

    def test_quantile_alpha_zero_is_baseline_median(self):
        assert tg_quantile(0.5, 0.0, EXP1) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_quantile_alpha_one_three_quarters(self):
        # F = 0.75 at alpha = 1 happens exactly where G = 0.5
        x = tg_quantile(0.75, 1.0, EXP1)
        assert EXP1.cdf(x) == pytest.approx(0.5, abs=1e-12)

    def test_roundtrip_against_bisection_oracle(self):
        for a in (-1.0, -0.6, -1e-7, 0.0, 1e-7, 0.6, 1.0):
            for u in np.arange(0.01, 1.0, 0.09):
                x = tg_quantile(u, a, EXP1)
                assert tg_cdf(x, a, EXP1) == pytest.approx(u, abs=1e-9)
                x_oracle = _bisect_quantile(lambda t: tg_cdf(t, a, EXP1), u, hi=60.0)
                assert x == pytest.approx(x_oracle, abs=1e-7)

    def test_inversion_stays_in_unit_interval(self):
        # the closed domain's corners, then seeded interior points
        rng = np.random.default_rng(1818)
        alphas = np.concatenate([[-1.0, -0.5, 0.0, 0.5, 1.0], rng.uniform(-1.0, 1.0, 100)])
        us = np.concatenate([[0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0], rng.random(100)])
        for a in alphas:
            g = _tg_invert(us, a)
            assert np.all(np.isfinite(g) & (g >= 0.0) & (g <= 1.0)), a
        assert _tg_invert(np.array([0.0, 1.0]), -1.0).tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("alpha", [-1.0, 1.0])
    def test_quantile_finite_at_extreme_alpha(self, alpha):
        rng = np.random.default_rng(1819)
        u = np.concatenate([[5e-324, 1e-300, 0.5, 1.0 - 1e-12], rng.random(100)])
        assert np.all(np.isfinite(tg_quantile(u, alpha, EXP1)))

    # at alpha = -1, G = sqrt(u) rounds to 1 at the top double, so only the
    # upper-tail form, in 1 - u, keeps the quantile finite
    @pytest.mark.parametrize("alpha", [-1.0, 1.0])
    def test_quantile_finite_at_top_double(self, alpha):
        with np.errstate(divide="ignore"):
            assert np.isfinite(tg_quantile(1.0 - 2.0**-53, alpha, EXP1))

    @given(
        a=st.floats(-1.0, 1.0),
        u=st.floats(0.001, 0.999),
        lam=st.floats(0.2, 5.0),
    )
    def test_roundtrip_property(self, a, u, lam):
        base = Exponential(lam)
        assert tg_cdf(tg_quantile(u, a, base), a, base) == pytest.approx(u, abs=1e-9)


# ---------------------------------------------------------------------------
# Poisson-compounded layer
# ---------------------------------------------------------------------------


class TestCompoundedCdf:
    def test_value_from_exponential_series_oracle(self):
        # alpha=0, beta=1, lam=1 at x = ln 2: (1 - e^-0.5) / (1 - e^-1)
        p = pte_params(0.0, 1.0, 1.0)
        expected = -math.expm1(-0.5) / -math.expm1(-1.0)
        assert ptg_cdf(math.log(2.0), p) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.6225, abs=2e-4)

    def test_boundary_limits(self):
        for p in PARAM_GRID:
            assert ptg_cdf(0.0, p) == 0.0
            assert ptg_cdf(900.0, p) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_on_sorted_grid(self):
        xs = np.geomspace(1e-3, 40.0, 300)
        for p in PARAM_GRID:
            diffs = np.diff(ptg_cdf(xs, p))
            assert np.all(diffs >= -1e-14)

    def test_poisson_reduction_at_alpha_zero(self):
        # algebraic identity with the plain compounded-exponential cdf
        xs = np.linspace(0.05, 8.0, 60)
        for beta in (-6.6, -0.5, 0.5, 6.6):
            p = pte_params(0.0, beta, 0.7)
            g = Exponential(0.7).cdf(xs)
            reference = np.expm1(-beta * g) / np.expm1(-beta)
            assert np.max(np.abs(ptg_cdf(xs, p) - reference)) <= 1e-15

    def test_beta_to_zero_limit_is_transmuted_cdf(self):
        xs = np.linspace(0.05, 6.0, 50)
        for beta in (1e-7, -1e-7):
            p = pte_params(0.3, beta, 1.0)
            assert np.max(np.abs(ptg_cdf(xs, p) - tg_cdf(xs, 0.3, EXP1))) <= 1e-6

    def test_weibull_shape_one_equals_pte(self):
        xs = np.linspace(0.01, 5.0, 40)
        pw = ptw_params(0.5, -2.0, 1.3, 1.0)
        pe = pte_params(0.5, -2.0, 1.3)
        assert np.max(np.abs(ptg_cdf(xs, pw) - ptg_cdf(xs, pe))) <= 1e-15
        assert np.max(np.abs(ptg_pdf(xs, pw) - ptg_pdf(xs, pe))) <= 1e-15


class TestCompoundedPdf:
    def test_alpha_zero_poisson_density(self):
        xs = np.linspace(0.05, 5.0, 40)
        beta, lam = 2.0, 1.0
        p = pte_params(0.0, beta, lam)
        f = Exponential(lam).pdf(xs)
        big_f = Exponential(lam).cdf(xs)
        reference = beta * f * np.exp(-beta * big_f) / -np.expm1(-beta)
        assert np.allclose(ptg_pdf(xs, p), reference, atol=1e-15)

    def test_normalization_grid(self):
        for p in PARAM_GRID:
            total = quad(lambda x: ptg_pdf(x, p), 0, np.inf, limit=200)[0]
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_golden_value_from_cdf_central_difference(self):
        # frozen via the h=1e-6 central-difference oracle on the cdf
        p = pte_params(0.5, 2.0, 1.0)
        assert ptg_pdf(1.0, p) == pytest.approx(0.16531093832308205, abs=1e-12)
        h = 1e-6
        oracle = (ptg_cdf(1.0 + h, p) - ptg_cdf(1.0 - h, p)) / (2 * h)
        assert ptg_pdf(1.0, p) == pytest.approx(oracle, abs=1e-6)

    def test_matches_cdf_derivative_on_log_grid(self):
        xs = np.geomspace(0.05, 10.0, 25)
        h = 1e-6
        for p in PARAM_GRID:
            fd = (ptg_cdf(xs + h, p) - ptg_cdf(xs - h, p)) / (2 * h)
            assert np.max(np.abs(fd - ptg_pdf(xs, p))) <= 1e-6


class TestLogPdf:
    def test_exp_of_log_pdf_is_pdf(self):
        xs = np.geomspace(0.05, 12.0, 30)
        for p in PARAM_GRID:
            lp = ptg_log_pdf(xs, p)
            pdf = ptg_pdf(xs, p)
            mask = pdf > 0
            assert np.allclose(np.exp(lp[mask]), pdf[mask], rtol=1e-12)

    def test_sentinel_where_density_vanishes(self):
        # the transmuted factor hits zero only at support endpoints
        assert ptg_log_pdf(0.0, pte_params(-1.0, 1.0, 1.0)) == -np.inf
        assert ptg_log_pdf(800.0, pte_params(1.0, 1.0, 1.0)) == -np.inf

    @pytest.mark.parametrize("theta, log_g0", [(0.5, np.inf), (1.0, 0.0), (2.0, -np.inf)])
    def test_weibull_at_zero(self, theta, log_g0):
        # x**(theta-1) is 1 at x = 0 when theta = 1: no 0 * log 0 = NaN there
        base = Weibull(1.0, theta)
        with np.errstate(divide="ignore"):
            assert base.log_pdf(0.0) == np.log(base.pdf(0.0)) == log_g0
            # PT-W at 0: T = 0, so f = beta / (1 - exp(-beta)) * f_tg
            ref = np.log(2.0 / -np.expm1(-2.0) * tg_pdf(0.0, 0.5, base))
        assert ptg_log_pdf(0.0, PtgParams(0.5, 2.0, base)) == pytest.approx(ref, rel=1e-15)
        if theta == 1.0:
            assert ptg_pdf(0.0, PtgParams(0.5, 2.0, base)) == pytest.approx(3.4696, abs=1e-4)

    @pytest.mark.parametrize("fn", [ptg_log_pdf, ptg_pdf, ptg_cdf])
    def test_nan_observation_rejected(self, fn):
        # a NaN observation is refused, not reported as a zero density
        with pytest.raises(ValueError, match="NaN"):
            fn(np.array([np.nan, 1.0]), pte_params(0.5, 2.0, 1.0))

    def test_dataset_I_loglik_matches_published_criteria(self, data_I):
        # back-solved from the published AIC/BIC of the PT-E fit
        p = pte_params(0.813, -6.587, 0.841)
        total = float(np.sum(ptg_log_pdf(data_I, p)))
        assert total == pytest.approx(-98.045, abs=0.01)


class TestHazard:
    def test_identity_on_grid(self):
        for p in PARAM_GRID:
            xs = ptg_quantile(np.linspace(0.05, 0.95, 19), p)
            lhs = ptg_hrf(xs, p) * (1.0 - ptg_cdf(xs, p))
            assert np.max(np.abs(lhs - ptg_pdf(xs, p))) <= 1e-10

    def test_closed_form_pte(self):
        # independent evaluation of the exponential-baseline hazard formula
        a, b, lam, x = 0.5, 1.0, 1.0, 1.0
        g_x = 1 - math.exp(-lam * x)
        t = g_x * (1 + a - a * g_x)
        num = b * lam * math.exp(-lam * x) * (1 + a - 2 * a * g_x) * math.exp(-b * t)
        den = math.exp(-b * t) - math.exp(-b)
        assert ptg_hrf(x, pte_params(a, b, lam)) == pytest.approx(num / den, rel=1e-10)

    def test_beta_to_zero_alpha_zero_is_constant_baseline_hazard(self):
        p = pte_params(0.0, 1e-6, 2.0)
        for x in (0.1, 0.7, 2.0, 4.0):
            assert ptg_hrf(x, p) == pytest.approx(2.0, abs=1e-4)

    @pytest.mark.parametrize("beta, x", [(40.0, 1.5), (800.0, 0.5)])
    def test_defined_where_only_the_cdf_has_rounded_to_one(self, beta, x):
        # F is within an ulp of 1 but 1 - T > 0, so the hazard exists
        a, lam = 0.5, 1.0
        g_x = 1 - math.exp(-lam * x)
        t = g_x * (1 + a - a * g_x)
        num = beta * lam * math.exp(-lam * x) * (1 + a - 2 * a * g_x)
        den = -math.expm1(-beta * (1 - t))
        assert ptg_hrf(x, pte_params(a, beta, lam)) == pytest.approx(num / den, rel=1e-10)

    def test_domain_error_at_saturated_cdf(self):
        with pytest.raises(ValueError):
            ptg_hrf(4000.0, pte_params(0.0, 1.0, 1.0))


class _CountingExponential(Exponential):
    """An exponential baseline that records each call of its cdf."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "cdf_calls", [])

    def cdf(self, x):
        self.cdf_calls.append(x)
        return super().cdf(x)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda x, p: tg_cdf(x, p.alpha, p.baseline),
        lambda x, p: tg_pdf(x, p.alpha, p.baseline),
        ptg_cdf,
        ptg_pdf,
        ptg_log_pdf,
        ptg_hrf,
    ],
    ids=["tg_cdf", "tg_pdf", "ptg_cdf", "ptg_pdf", "ptg_log_pdf", "ptg_hrf"],
)
def test_one_baseline_cdf_read_per_call(evaluate):
    base = _CountingExponential(1.3)
    evaluate(np.array([0.0, 0.3, 1.1, 2.5]), PtgParams(0.5, 2.0, base))
    assert len(base.cdf_calls) == 1


def _mp_ptg_quantile(u, alpha, beta, base):
    """The PT-G quantile at the double u, at 50 digits: the Poisson layer
    inverted for T up to u = 1/2 and for 1 - T from 1 - u (exact there)
    above it, then the transmuted quadratic for G or 1 - G by its conjugate
    root, then the baseline's inverse."""
    with mpmath.workdps(50):
        a, b, lam = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(base.lam)
        if u <= 0.5:
            t = -mpmath.log1p(u * mpmath.expm1(-b)) / b
            g = 2 * t / ((1 + a) + mpmath.sqrt((1 + a) ** 2 - 4 * a * t))
            log_h = mpmath.log1p(-g)
        else:
            t_bar = mpmath.log1p((1 - mpmath.mpf(u)) * mpmath.expm1(b)) / b
            log_h = mpmath.log(2 * t_bar / ((1 - a) + mpmath.sqrt((1 - a) ** 2 + 4 * a * t_bar)))
        return float((-log_h / lam) ** (1 / mpmath.mpf(getattr(base, "theta", 1.0))))


class TestQuantile:
    def test_roundtrip_grid(self):
        u = np.linspace(0.001, 0.999, 101)
        for p in PARAM_GRID:
            x = ptg_quantile(u, p)
            assert np.max(np.abs(ptg_cdf(x, p) - u)) <= 1e-9

    def test_inverse_of_cdf_example(self):
        p = pte_params(0.0, 1.0, 1.0)
        u0 = -math.expm1(-0.5) / -math.expm1(-1.0)
        assert ptg_quantile(u0, p) == pytest.approx(math.log(2.0), abs=1e-6)

    def test_bisection_oracle(self):
        p = pte_params(0.7, -3.0, 0.8)
        for u in (0.05, 0.4, 0.9):
            x_oracle = _bisect_quantile(lambda t: ptg_cdf(t, p), u, hi=80.0)
            assert ptg_quantile(u, p) == pytest.approx(x_oracle, abs=1e-7)

    def test_small_u_goes_to_zero(self):
        assert 0.0 < ptg_quantile(1e-12, pte_params(0.5, 2.0, 1.0)) < 1e-5

    def test_domain_errors(self):
        p = pte_params(0.5, 2.0, 1.0)
        for u in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                ptg_quantile(u, p)

    # the public quantile lost the upper tail: inf at the first two, 33.964 at the third
    @pytest.mark.parametrize(
        "alpha, beta, u, rounded",
        [(0.0, -100.0, 1.0 - 1e-15, 39.1447), (0.5, -1.0, 1.0 - 2.0**-53, 36.5023),
         (0.5, 2.0, 1.0 - 2.0**-52, 34.189)],
    )
    def test_upper_tail_regressions(self, alpha, beta, u, rounded):
        got = ptg_quantile(u, pte_params(alpha, beta, 1.0))
        assert got == pytest.approx(_mp_ptg_quantile(u, alpha, beta, EXP1), rel=1e-12)
        assert got == pytest.approx(rounded, abs=5e-4)

    def test_against_mpmath_over_both_tails(self):
        # the seed and the bound were fixed before the first run
        rng = np.random.default_rng(619)
        alphas = [-1.0, 1.0, *rng.uniform(-1.0, 1.0, 2)]
        betas = [-700.0, -101.0, -6.6, 1e-6, 30.0, 700.0]
        for alpha in alphas:
            for beta in betas:
                for base in (Exponential(rng.uniform(0.3, 3.0)),
                             Weibull(rng.uniform(0.3, 3.0), rng.uniform(0.5, 3.0))):
                    u = np.array([10.0 ** -rng.uniform(0.3, 300.0),
                                  1.0 - 10.0 ** -rng.uniform(0.3, 15.9),
                                  rng.choice([1e-300, 0.5, 1.0 - 2.0**-53])])
                    got = ptg_quantile(u, PtgParams(alpha, beta, base))
                    for ui, x in zip(u, got):
                        want = _mp_ptg_quantile(ui, alpha, beta, base)
                        assert abs(x - want) <= 1e-12 * want, (alpha, beta, base, ui)

    def test_nan_level_refused(self):
        # pte_params(0.5, 2, 1).quantile(nan) returned nan
        p = pte_params(0.5, 2.0, 1.0)
        for u in (np.nan, [0.5, np.nan]):
            with pytest.raises(ValueError, match="NaN"):
                p.quantile(u)
        with pytest.raises(ValueError, match="NaN"):
            tg_quantile(np.nan, 0.5, EXP1)


def _log_space_reference(x, alpha, b, lam, theta=1.0):
    """log F and log f of PT-G at tilt -b < 0, written from the definition
    with exp(b) divided out: F = exp(b(T-1)) (1 - e^{-bT}) / (1 - e^{-b})."""
    g = -math.expm1(-lam * x**theta)
    t = g * (1.0 + alpha - alpha * g)
    log_norm = math.log(-math.expm1(-b))
    log_cdf = b * (t - 1.0) + math.log(-math.expm1(-b * t)) - log_norm
    log_g = math.log(lam * theta) + (theta - 1.0) * math.log(x) - lam * x**theta
    log_pdf = (
        math.log(b) + log_g + math.log(1.0 + alpha - 2.0 * alpha * g)
        + b * (t - 1.0) - log_norm
    )
    return log_cdf, log_pdf


class TestStronglyNegativeTilt:
    """beta far below -709, where exp(-beta) overflows a double: the fitted
    PT-W optimum on dataset II sits at beta ~ -7910."""

    CASES = [
        (0.5, -800.0, 1.0, 1.0),
        (0.991, -7910.0, 1.0, 1.0),
        (0.991, -7910.0, 0.6, 1.5),
    ]

    @pytest.mark.parametrize("alpha,beta,lam,theta", CASES)
    def test_cdf_and_pdf_against_log_space_reference(self, alpha, beta, lam, theta):
        p = PtgParams(alpha, beta, Weibull(lam, theta))
        xs = np.linspace(0.05, 12.0, 40)
        cdf, pdf, log_pdf = ptg_cdf(xs, p), ptg_pdf(xs, p), ptg_log_pdf(xs, p)
        assert np.all(np.isfinite(cdf)) and np.all(np.isfinite(log_pdf))
        assert np.all(np.diff(cdf) >= 0.0) and cdf[-1] <= 1.0
        for x, c, f, lf in zip(xs, cdf, pdf, log_pdf):
            ref_log_cdf, ref_log_pdf = _log_space_reference(x, alpha, -beta, lam, theta)
            assert c == pytest.approx(math.exp(ref_log_cdf), rel=1e-9, abs=1e-300)
            assert f == pytest.approx(math.exp(ref_log_pdf), rel=1e-9, abs=1e-300)
            assert lf == pytest.approx(ref_log_pdf, rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("alpha,beta,lam,theta", CASES)
    def test_quantile_inverts_log_space_cdf(self, alpha, beta, lam, theta):
        p = PtgParams(alpha, beta, Weibull(lam, theta))
        u = np.array([1e-200, 1e-12, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-9])
        xs = ptg_quantile(u, p)
        assert np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0.0)
        for ui, x in zip(u, xs):
            ref_log_cdf, _ = _log_space_reference(x, alpha, -beta, lam, theta)
            assert ref_log_cdf == pytest.approx(math.log(ui), abs=1e-9)


class TestSampling:
    def test_determinism(self):
        p = pte_params(0.5, 2.0, 1.0)
        assert np.array_equal(ptg_sample(500, p, 42), ptg_sample(500, p, 42))
        assert not np.array_equal(ptg_sample(500, p, 42), ptg_sample(500, p, 43))

    def test_ks_band_at_fitted_parameters(self):
        # 99% Kolmogorov band for n = 1e5 is ~0.0051; the gate is 0.006
        p = pte_params(0.813, -6.587, 0.841)
        x = ptg_sample(100_000, p, 2024)
        d, _ = ks_test(x, lambda v: ptg_cdf(v, p))
        assert d < 0.006

    def test_exponential_limit_mean(self):
        # beta -> 0, alpha = 0 degenerates to Exponential(2), mean 0.5
        p = pte_params(0.0, 1e-6, 2.0)
        x = ptg_sample(100_000, p, 7)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 0.5) < 3 * se

    @pytest.mark.parametrize(
        "model",
        [pte_params(0.5, 2.0, 1.0), Weibull(1.2, 1.6), MomentExponential(1.5),
         MarshallOlkinExponential(8.0, 1.4)],
        ids=("pte", "weibull", "me", "moe"),
    )
    def test_every_model_through_its_quantile(self, model):
        u = np.random.default_rng(3).random(50)
        assert np.array_equal(ptg_sample(50, model, 3), model.quantile(u))

    def test_positive_and_validated(self):
        assert np.all(ptg_sample(1000, pte_params(-1.0, -6.6, 1.0), 5) > 0)
        with pytest.raises(ValueError):
            ptg_sample(0, pte_params(0.5, 2.0, 1.0), 1)


class TestParamsValidation:
    @pytest.mark.parametrize("alpha", [-1.2, 1.01, math.nan])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            PtgParams(alpha, 1.0, EXP1)

    @pytest.mark.parametrize("beta", [0.0, 1e-9, -1e-12, math.nan])
    def test_beta_floor(self, beta):
        with pytest.raises(ValueError):
            PtgParams(0.5, beta, EXP1)

    def test_names_and_values(self):
        p = ptw_params(0.1, 2.0, 1.5, 0.9)
        assert p.names == ("alpha", "beta", "lam", "theta")
        assert p.values == (0.1, 2.0, 1.5, 0.9)
