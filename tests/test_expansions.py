import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from ptgfit import expansions
from ptgfit.baselines import Exponential, Weibull
from ptgfit.distributions import (
    pte_params,
    ptg_cdf,
    ptg_pdf,
    ptg_quantile,
    ptg_sample,
    ptw_params,
    tg_cdf,
    tg_pdf,
)
from ptgfit.expansions import (
    QuadratureWarning,
    mean_deviation,
    mgf,
    order_stat_pdf,
    quad as quad_rule,
    pwm,
    raw_moment,
    renyi_entropy,
    residual_moment,
    reversed_residual_moment,
    stress_strength,
)
from ptgfit.series import (
    TruncationWarning,
    default_truncation,
    delta_coeffs,
    series_cdf,
    series_order_stat_pdf,
    series_pdf,
    series_tail_bound,
    xi_coeffs,
)

P_HALF_2_1 = pte_params(0.5, 2.0, 1.0)
P_HALF_1_1 = pte_params(0.5, 1.0, 1.0)


def _tight_quad(fn, lo, hi):
    return quad(fn, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=500)[0]


def _u_space(h, p):
    """int_0^1 h(Q(u)) du: a probability-space expectation, the other space
    from the x-space quadratures of ``mgf`` and ``renyi_entropy``."""
    return _tight_quad(lambda u: h(float(ptg_quantile(u, p))), 0.0, 1.0)


SERIES_GRID = [
    (a, b) for a in (-0.9, -0.3, 0.3, 0.9) for b in (-6.6, -2.0, -0.5, 0.5, 2.0, 6.6)
]


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------


class TestCoefficients:
    def test_delta_leading_value(self):
        c = delta_coeffs(1.0, 5)
        assert c[0] == pytest.approx(1.0 / -math.expm1(-1.0), rel=1e-14)
        assert c[0] == pytest.approx(1.5820, abs=1e-4)

    def test_delta_matches_factorial_formula(self):
        beta = -2.5
        c, xi = delta_coeffs(beta, 12), xi_coeffs(beta, 13)
        for i in (0, 1, 5, 12):
            ref = (-1.0) ** i * beta ** (i + 1) / (-math.expm1(-beta) * math.factorial(i))
            assert c[i] == pytest.approx(ref, rel=1e-12)
            # xi_j = (-1)^(j+1) beta^j / ((1 - e^-beta) j!) at j = i + 1
            assert xi[i + 1] == pytest.approx(ref / (i + 1), rel=1e-12)

    @pytest.mark.parametrize("beta", [-10.0, -6.587, -0.5, 0.3, 2.0, 6.6, 10.0])
    def test_delta_normalization_identity(self, beta):
        c = delta_coeffs(beta, 200)
        total = math.fsum(c[i] / (i + 1) for i in range(len(c)))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [-10.0, -6.587, -0.5, 0.3, 2.0, 6.6, 10.0])
    def test_xi_normalization_identity(self, beta):
        c = xi_coeffs(beta, 200)
        assert math.fsum(c) == pytest.approx(1.0, abs=1e-12)

    def test_xi_zeroth_forced_to_zero(self):
        c = xi_coeffs(1.0, 8)
        assert c[0] == 0.0
        assert c[1] == pytest.approx(1.0 / -math.expm1(-1.0), rel=1e-14)

    def test_terms_eventually_decay(self):
        c = delta_coeffs(6.6, 60)
        ratios = np.abs(c[41:] / c[40:-1])
        assert np.all(ratios < 0.2)  # |beta|/(i+1) at i >= 40

    def test_zero_beta_rejected(self):
        for fn in (delta_coeffs, xi_coeffs):
            with pytest.raises(ValueError):
                fn(0.0, 10)


P_FAT = pte_params(0.5, 6.6, 1.0)  # small truncation orders warn here
# every function of series that takes a truncation order
N_MAX_CALLS = {
    "delta_coeffs": lambda n: delta_coeffs(6.6, n),
    "xi_coeffs": lambda n: xi_coeffs(6.6, n),
    "series_tail_bound": lambda n: series_tail_bound(6.6, n),
    "series_pdf": lambda n: series_pdf(1.0, P_FAT, n),
    "series_cdf": lambda n: series_cdf(1.0, P_FAT, n),
    "series_order_stat_pdf": lambda n: series_order_stat_pdf(1.0, 2, 5, P_FAT, n_max=n),
}


@pytest.mark.parametrize("name", list(N_MAX_CALLS))
@pytest.mark.parametrize("n_max, same", [(3.0, 3), (30.0, 30), (True, 1)])
def test_integral_n_max_is_taken_as_its_int(name, n_max, same):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        np.testing.assert_array_equal(N_MAX_CALLS[name](n_max), N_MAX_CALLS[name](same))


@pytest.mark.parametrize("name", list(N_MAX_CALLS))
@pytest.mark.parametrize("n_max", [2.5, "3", -1])
def test_bad_n_max_is_refused_by_name_before_any_warning(name, n_max):
    message = f"n_max must be a nonnegative integer, got {n_max!r}"
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        with pytest.raises(ValueError, match=re.escape(message)):
            N_MAX_CALLS[name](n_max)


# ---------------------------------------------------------------------------
# truncated series vs closed forms
# ---------------------------------------------------------------------------


def _tail_n(beta, target=1e-8):
    n = 0
    while series_tail_bound(beta, n) > target:
        n += 1
    return n


class TestSeriesEvaluation:
    @pytest.mark.parametrize("alpha,beta", SERIES_GRID)
    @pytest.mark.parametrize("base", [Exponential(1.0), Weibull(1.2, 1.6)])
    def test_remainder_bound(self, alpha, beta, base):
        """Truncation error stays inside the analytic tail bound."""
        from ptgfit.distributions import PtgParams

        p = PtgParams(alpha, beta, base)
        n = _tail_n(beta)
        xs = ptg_quantile(np.linspace(0.05, 0.95, 19), p)
        tail = series_tail_bound(beta, n)
        geo = 1.0 / (1.0 - abs(beta) / (n + 2))
        g_max = float(np.max(tg_pdf(xs, alpha, base)))
        pdf_err = np.max(np.abs(series_pdf(xs, p, n) - ptg_pdf(xs, p)))
        cdf_err = np.max(np.abs(series_cdf(xs, p, n) - ptg_cdf(xs, p)))
        assert pdf_err <= tail * abs(beta) * geo * g_max
        assert cdf_err <= tail * geo

    @pytest.mark.parametrize("alpha,beta", SERIES_GRID)
    def test_adaptive_truncation_reaches_float_noise(self, alpha, beta):
        p = pte_params(alpha, beta, 1.0)
        xs = ptg_quantile(np.linspace(0.05, 0.95, 19), p)
        assert np.max(np.abs(series_pdf(xs, p) - ptg_pdf(xs, p))) <= 1e-10
        assert np.max(np.abs(series_cdf(xs, p) - ptg_cdf(xs, p))) <= 1e-10

    def test_explicit_sixty_terms(self):
        assert series_pdf(1.0, P_HALF_2_1, 60) == pytest.approx(
            ptg_pdf(1.0, P_HALF_2_1), abs=1e-12
        )

    def test_single_term_alpha_zero(self):
        # i = 0 truncation leaves beta * g / (1 - e^-beta)
        beta, lam, x = 2.0, 1.0, 0.8
        p = pte_params(0.0, beta, lam)
        expected = beta * lam * math.exp(-lam * x) / -math.expm1(-beta)
        with pytest.warns(TruncationWarning):
            assert series_pdf(x, p, 0) == pytest.approx(expected, rel=1e-14)

    def test_fitted_parameters_high_order(self, data_I):
        p = pte_params(0.813, -6.587, 0.841)
        x = float(np.median(data_I))
        assert series_pdf(x, p, 100) == pytest.approx(ptg_pdf(x, p), abs=1e-10)

    def test_series_cdf_zero_at_origin(self):
        assert series_cdf(0.0, P_HALF_2_1) == 0.0

    def test_truncation_warning_on_fat_tail(self):
        with pytest.warns(TruncationWarning):
            series_pdf(1.0, pte_params(0.5, 6.6, 1.0), 3)

    def test_extreme_beta_still_agrees(self):
        p = pte_params(0.9, -101.0, 1.6)
        xs = np.linspace(0.5, 3.0, 7)
        assert np.max(np.abs(series_pdf(xs, p) - ptg_pdf(xs, p))) <= 1e-10

    @pytest.mark.parametrize("beta", [300.0, -300.0])
    @pytest.mark.parametrize("series", [series_pdf, series_cdf])
    def test_default_truncation_past_the_cap_is_refused(self, series, beta):
        # at beta = 300 the pdf series returned 1.14e97 against 2.98e-96
        message = f"no truncation up to 200 meets the tail bound at beta = {beta!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            series(1.0, pte_params(0.5, beta, 1.0))

    def test_order_statistic_truncation_past_the_cap_is_refused(self):
        # its truncation is taken at n * beta = 100, past the cap, though beta = 20 is not
        with pytest.raises(ValueError, match=re.escape("at beta = 100.0")):
            series_order_stat_pdf(1.0, 2, 5, pte_params(0.5, 20.0, 1.0))


# ---------------------------------------------------------------------------
# moments, mgf, PWM
# ---------------------------------------------------------------------------


class TestMoments:
    def test_exponential_limit_mean(self):
        p = pte_params(0.0, 1e-6, 2.0)
        assert raw_moment(1, p) == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize(
        "p",
        [
            P_HALF_2_1,
            pte_params(-0.7, -3.0, 0.8),
            ptw_params(0.4, 2.0, 1.0, 1.5),
            pte_params(0.9, -6.6, 1.2),
        ],
    )
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_against_direct_quadrature(self, p, s):
        direct = quad(lambda x: x**s * ptg_pdf(x, p), 0, np.inf, limit=200)[0]
        assert raw_moment(s, p) == pytest.approx(direct, rel=1e-6)

    def test_variance_nonnegative_on_grid(self):
        wide = [(a, b) for a in (-0.9, 0.9) for b in (-300.0, -100.0, -30.0, 30.0, 100.0, 300.0)]
        for a, b in SERIES_GRID + wide:
            p = pte_params(a, b, 1.0)
            assert raw_moment(2, p) - raw_moment(1, p) ** 2 >= 0.0

    def test_mean_near_sample_mean_at_true_optimum(self, fit_II, data_II):
        # the fitted model's first moment tracks the sample mean
        assert raw_moment(1, fit_II.estimates) == pytest.approx(
            float(np.mean(data_II)), abs=0.15
        )

    @pytest.mark.xfail(
        strict=True,
        reason="published relief-times estimates are not the likelihood optimum "
        "of the published data (their log-likelihood is -20.93, not -15.42); "
        "the model mean at those values is 1.656, off the sample mean by 0.24",
    )
    def test_mean_at_published_relief_estimates(self):
        p = pte_params(0.301, -9.997, 1.555)
        assert raw_moment(1, p) == pytest.approx(1.900, abs=0.15)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            raw_moment(0, P_HALF_2_1)


class _TransmutedSpaceReference:
    """PT-E expectations written apart from ``expansions``: integrated over
    the transmuted cdf t, whose density on (0, 1) is the truncated
    exponential beta e^{-beta t} / (1 - e^{-beta}), evaluated in log space."""

    def __init__(self, alpha, beta, lam):
        self.alpha, self.beta, self.lam = alpha, beta, lam
        b = abs(beta)
        self._log_norm = math.log(b) - math.log(-math.expm1(-b))
        # the weight's peak: width 1/|beta| at t = 0 (beta > 0) or t = 1 (beta < 0)
        edges = [min(k / b, 0.5) for k in (1.0, 10.0, 50.0)]
        self.points = edges if beta > 0 else [1.0 - e for e in edges]

    def x(self, t):
        a = self.alpha
        g = 2.0 * t / ((1.0 + a) + math.sqrt(max((1.0 + a) ** 2 - 4.0 * a * t, 0.0)))
        return -math.log1p(-g) / self.lam

    def t_of_x(self, x):
        g = -math.expm1(-self.lam * x)
        return g * (1.0 + self.alpha - self.alpha * g)

    def weight(self, t):
        shift = t if self.beta > 0 else t - 1.0
        return math.exp(self._log_norm - self.beta * shift)

    def log_cdf_t(self, t):
        b = abs(self.beta)
        shift = 0.0 if self.beta > 0 else b * (t - 1.0)
        return shift + math.log(-math.expm1(-b * t)) - math.log(-math.expm1(-b))

    def expect(self, h, lo=0.0, hi=1.0):
        pts = [q for q in self.points if lo < q < hi]
        return quad(
            lambda t: h(self.x(t)) * self.weight(t), lo, hi,
            points=pts or None, epsabs=0.0, epsrel=1e-11, limit=400,
        )[0]

    def abs_deviation(self, c):
        t_c = self.t_of_x(c)
        return self.expect(lambda x: c - x, 0.0, t_c) + self.expect(lambda x: x - c, t_c, 1.0)

    def median(self):
        t_med = brentq(lambda t: self.log_cdf_t(t) - math.log(0.5), 1e-300, 1.0 - 1e-16,
                       xtol=1e-300, rtol=1e-15)
        return self.x(t_med)


class TestMomentsAtLargeTilt:
    """For beta > 0 the delta-series of the moments cancels like e^beta and
    gives negative means at these points.  The quadrature moments must
    match an independent reference at either sign of a large tilt."""

    BETAS = [30.0, 40.0, 100.0, -300.0]

    @pytest.mark.parametrize("beta", BETAS)
    def test_raw_moments_against_reference(self, beta):
        ref = _TransmutedSpaceReference(0.5, beta, 1.0)
        p = pte_params(0.5, beta, 1.0)
        m = [raw_moment(s, p) for s in (1, 2, 3, 4)]
        for s, got in enumerate(m, start=1):
            # abs: the quadrature's own absolute target, which governs the
            # higher moments at beta >= 30 (E[X^4] ~ 1e-8 .. 1e-5)
            want = ref.expect(lambda x, s=s: x**s)
            assert got == pytest.approx(want, rel=1e-7, abs=1e-10)
        assert m[0] > 0.0
        assert m[1] >= m[0] ** 2

    @pytest.mark.parametrize("beta", BETAS)
    def test_mean_deviations_against_reference(self, beta):
        ref = _TransmutedSpaceReference(0.5, beta, 1.0)
        p = pte_params(0.5, beta, 1.0)
        mean = ref.expect(lambda x: x)
        assert mean_deviation("mean", p) == pytest.approx(ref.abs_deviation(mean), rel=1e-7)
        assert mean_deviation("median", p) == pytest.approx(
            ref.abs_deviation(ref.median()), rel=1e-7
        )


class TestSeriesDiagnosticsRefuse:
    """At beta = 30 the alternating delta-series of the mgf and the residual
    life keeps about 3 of 16 digits, which is why quadrature is their only
    evaluation; the quadrature forms must answer at either sign of a large
    tilt."""

    P30 = pte_params(0.5, 30.0, 1.0)

    def test_mgf_by_quadrature(self):
        assert mgf(0.5, self.P30) == pytest.approx(1.0117, abs=1e-4)

    def test_residual_moment_by_quadrature(self):
        assert residual_moment(1, 0.0, self.P30) == pytest.approx(0.02311, abs=1e-5)

    def test_negative_tilt_series_still_answers(self):
        p = pte_params(0.5, -20.0, 1.0)
        want = _u_space(lambda x: math.exp(0.2 * x), p)
        assert mgf(0.2, p) == pytest.approx(want, rel=1e-9)


class TestMgf:
    def test_at_zero_is_one(self):
        assert mgf(0.0, P_HALF_2_1) == 1.0
        # Weibull shape < 1: no s > 0 is admissible, but E[e^0] = 1 always
        assert mgf(0.0, ptw_params(0.5, 2.0, 1.0, 0.5)) == 1.0

    def test_derivative_at_zero_is_mean(self):
        h = 1e-4
        deriv = (mgf(h, P_HALF_2_1) - mgf(-h, P_HALF_2_1)) / (2 * h)
        assert deriv == pytest.approx(raw_moment(1, P_HALF_2_1), abs=1e-5)

    def test_golden_value(self):
        # frozen from the adaptive-quadrature oracle
        assert mgf(0.3, P_HALF_1_1) == pytest.approx(1.2197770970369204, abs=1e-9)

    def test_series_agrees_with_quadrature(self):
        for s in (-1.0, 0.2, 0.5):
            want = _u_space(lambda x, s=s: math.exp(s * x), P_HALF_1_1)
            assert mgf(s, P_HALF_1_1) == pytest.approx(want, abs=1e-9)

    def test_divergence_boundary(self):
        with pytest.raises(ValueError):
            mgf(1.0, P_HALF_1_1)
        with pytest.raises(ValueError):
            mgf(0.1, ptw_params(0.0, 1.0, 1.0, 0.5))

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_rejected(self, s):
        # NaN passed the old s >= sup check and came back as NaN
        with pytest.raises(ValueError):
            mgf(s, P_HALF_1_1)


class TestPwm:
    def test_normalization(self):
        assert pwm(0, 0, 0, P_HALF_1_1) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("q", [1, 2, 5])
    def test_pure_cdf_powers(self, q):
        assert pwm(0, q, 0, P_HALF_1_1) == pytest.approx(1.0 / (q + 1), abs=1e-9)

    def test_golden_first_weighted_moment(self):
        # 55/96, confirmed against x-space quadrature of x * F_tg * f_tg
        got = pwm(1, 1, 0, P_HALF_1_1)
        assert got == pytest.approx(55.0 / 96.0, abs=1e-9)
        base = Exponential(1.0)
        oracle = quad(
            lambda x: x * tg_cdf(x, 0.5, base) * tg_pdf(x, 0.5, base), 0, np.inf
        )[0]
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            pwm(-1, 0, 0, P_HALF_1_1)
        with pytest.raises(ValueError):
            pwm(0, 0.5, 0, P_HALF_1_1)


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------


class TestOrderStatistics:
    def test_single_observation_is_plain_pdf(self):
        xs = np.linspace(0.1, 4.0, 9)
        assert np.allclose(
            order_stat_pdf(xs, 1, 1, P_HALF_2_1), ptg_pdf(xs, P_HALF_2_1), rtol=1e-14
        )

    @pytest.mark.parametrize("r,n", [(1, 5), (3, 5), (5, 5)])
    def test_normalization(self, r, n):
        total = quad(lambda x: order_stat_pdf(x, r, n, P_HALF_2_1), 0, np.inf, limit=200)[0]
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_series_matches_direct(self):
        xs = np.linspace(0.1, 4.0, 25)
        for r, n in ((2, 4), (1, 3), (4, 4)):
            direct = order_stat_pdf(xs, r, n, P_HALF_2_1)
            series = series_order_stat_pdf(xs, r, n, P_HALF_2_1)
            assert np.max(np.abs(series - direct)) < 1e-6

    def test_series_matches_direct_negative_beta(self):
        p = pte_params(0.3, -2.0, 1.0)
        xs = np.linspace(0.1, 5.0, 25)
        direct = order_stat_pdf(xs, 2, 4, p)
        series = series_order_stat_pdf(xs, 2, 4, p)
        assert np.max(np.abs(series - direct)) < 1e-6

    @pytest.mark.parametrize("alpha,beta", SERIES_GRID)
    @pytest.mark.parametrize("base", [Exponential(1.0), Weibull(1.2, 1.6)])
    def test_series_tracks_direct_across_grid(self, alpha, beta, base):
        from ptgfit.distributions import PtgParams

        p = PtgParams(alpha, beta, base)
        xs = ptg_quantile(np.linspace(0.05, 0.95, 19), p)
        for r, n in ((1, 3), (2, 4), (4, 4), (3, 5)):
            direct = order_stat_pdf(xs, r, n, p)
            gap = np.max(np.abs(series_order_stat_pdf(xs, r, n, p) - direct))
            assert gap <= 1e-6 * np.max(direct), (r, n)

    def test_upper_tail_against_mpmath(self):
        # (1 - F)^2 by subtraction was off in the 4th digit here
        with mpmath.workdps(50):
            x, g_bar = mpmath.mpf(30), mpmath.exp(-30)
            t = (1 - g_bar) * (1 + g_bar / 2)
            f = 2 * g_bar * (1 + g_bar) * mpmath.exp(-2 * t) / -mpmath.expm1(-2)
            s = (mpmath.exp(-2 * t) - mpmath.exp(-2)) / -mpmath.expm1(-2)
            want = float(3 * f * s**2)
        assert order_stat_pdf(x, 1, 3, P_HALF_2_1) == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            order_stat_pdf(1.0, 0, 3, P_HALF_2_1)
        with pytest.raises(ValueError):
            order_stat_pdf(1.0, 4, 3, P_HALF_2_1)


# ---------------------------------------------------------------------------
# reliability, residual life, entropy, deviations
# ---------------------------------------------------------------------------


class TestStressStrength:
    def test_identical_parameters_give_half(self):
        assert stress_strength(P_HALF_2_1, P_HALF_2_1) == pytest.approx(0.5, abs=1e-9)

    def test_complement_symmetry(self):
        p1 = pte_params(0.3, 1.0, 1.0)
        p2 = pte_params(-0.5, -2.0, 1.7)
        r12 = stress_strength(p1, p2)
        r21 = stress_strength(p2, p1)
        assert r12 + r21 == pytest.approx(1.0, abs=1e-9)

    def test_golden_value_vs_series(self):
        p1 = pte_params(0.3, 1.0, 1.0)
        p2 = pte_params(0.3, 1.0, 2.0)
        r = stress_strength(p1, p2)
        assert r == pytest.approx(0.6488028642978885, abs=1e-8)
        # x space, against the probability-space form of stress_strength
        want = _tight_quad(lambda x: float(ptg_pdf(x, p1) * ptg_cdf(x, p2)), 0.0, np.inf)
        assert r == pytest.approx(want, abs=1e-9)

    def test_mixed_families_rejected(self):
        with pytest.raises(ValueError):
            stress_strength(P_HALF_2_1, ptw_params(0.5, 2.0, 1.0, 2.0))

    # the Monte Carlo points of the stress-strength criterion; the bound was
    # fixed before the first run
    @pytest.mark.parametrize("strength, stress", [((0.3, 1.0, 1.0), (0.3, 1.0, 2.0)),
                                                  ((0.3, 1.0, 2.0), (0.3, 1.0, 1.0))])
    def test_against_mpmath_at_the_monte_carlo_points(self, strength, stress):
        with mpmath.workdps(50):
            pdf, _ = _mp_pte(*strength)
            _, cdf = _mp_pte(*stress)
            want = float(mpmath.quad(lambda x: pdf(x) * cdf(x), [0, 1, 4, mpmath.inf]))
        got = stress_strength(pte_params(*strength), pte_params(*stress))
        assert got == pytest.approx(want, rel=1e-9)


def _mp_pte(alpha, beta, lam):
    """The PT-E density and cdf from the definition, as functions of an mpf x
    at the working precision."""
    a, b, lam = (mpmath.mpf(v) for v in (alpha, beta, lam))

    def t(x):
        g = -mpmath.expm1(-lam * x)
        return g, g * (1 + a - a * g)

    def pdf(x):
        g, tx = t(x)
        density = b * lam * mpmath.exp(-lam * x) * (1 + a - 2 * a * g)
        return density * mpmath.exp(-b * tx) / -mpmath.expm1(-b)

    return pdf, lambda x: mpmath.expm1(-b * t(x)[1]) / mpmath.expm1(-b)


def _mp_residual_moment(n, t, alpha, beta, lam, theta=1.0):
    """E[(X-t)^n | X > t] = n int_t^inf (x-t)^(n-1) S(x) dx / S(t) of PT-W at
    50 digits, with S = (e^(-beta T) - e^(-beta)) / (1 - e^(-beta)) from the
    definition and breakpoints that close in on t."""
    with mpmath.workdps(50):
        a, b, lam, theta, t = (mpmath.mpf(v) for v in (alpha, beta, lam, theta, t))

        def sf(x):
            g = -mpmath.expm1(-lam * x**theta)
            return (mpmath.exp(-b * g * (1 + a - a * g)) - mpmath.exp(-b)) / -mpmath.expm1(-b)

        s_t = sf(t)
        points = [t] + [t + mpmath.mpf(2) ** k for k in range(-12, 6, 2)] + [mpmath.inf]
        return float(n * mpmath.quad(lambda x: (x - t) ** (n - 1) * sf(x) / s_t, points))


class TestResidualLife:
    # the bound was fixed before the first run: the rule's own relative 1e-11
    @pytest.mark.parametrize("n", [1, 2])
    def test_against_mpmath_at_the_monte_carlo_point(self, n):
        med = float(ptg_quantile(0.5, P_HALF_1_1))
        want = _mp_residual_moment(n, med, 0.5, 1.0, 1.0)
        assert residual_moment(n, med, P_HALF_1_1) == pytest.approx(want, rel=1e-11)

    # S(t) is about e^-574, e^-648 and e^-686: 1 - F by subtraction refused
    # all three; clamping the levels v at the smallest normal double, not at
    # the smallest positive one, is 2e-6 off at t = 2, n = 2
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_against_mpmath_where_the_cdf_has_rounded_to_one(self, n, t):
        want = _mp_residual_moment(n, t, 1.0, 700.0, 1.3, 0.6)
        got = residual_moment(n, t, ptw_params(1.0, 700.0, 1.3, 0.6))
        assert got == pytest.approx(want, rel=1e-11)


    def test_at_zero_is_mean(self):
        assert residual_moment(1, 0.0, P_HALF_2_1) == pytest.approx(
            raw_moment(1, P_HALF_2_1), abs=1e-8
        )

    def test_exponential_memorylessness(self):
        p = pte_params(0.0, 1e-6, 2.0)
        for t in (0.3, 1.0, 3.0):
            assert residual_moment(1, t, p) == pytest.approx(0.5, abs=1e-4)

    def test_series_diagnostic_agrees(self):
        # x space, against the probability-space form of residual_moment
        p = P_HALF_2_1
        for n, t in ((1, 0.5), (2, 0.5), (2, 1.5)):
            tail = _tight_quad(lambda x, n=n, t=t: (x - t) ** n * float(ptg_pdf(x, p)), t, np.inf)
            want = tail / (1.0 - float(ptg_cdf(t, p)))
            assert residual_moment(n, t, p) == pytest.approx(want, abs=1e-9)

    def test_second_moment_vs_monte_carlo(self):
        med = ptg_quantile(0.5, P_HALF_1_1)
        val = residual_moment(2, med, P_HALF_1_1)
        draws = ptg_sample(10_000_000, P_HALF_1_1, 777)
        cond = (draws[draws > med] - med) ** 2
        se = cond.std(ddof=1) / math.sqrt(cond.size)
        assert val == pytest.approx(cond.mean(), abs=3 * se)

    def test_saturated_cdf_rejected(self):
        with pytest.raises(ValueError):
            residual_moment(1, 5000.0, P_HALF_2_1)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_age_rejected(self, t):
        with pytest.raises(ValueError):
            residual_moment(1, t, P_HALF_2_1)


class TestReversedResidualLife:
    def test_bounded_by_age_power(self):
        for a, b in SERIES_GRID[:8]:
            p = pte_params(a, b, 1.0)
            for n, t in ((1, 0.8), (2, 2.0)):
                val = reversed_residual_moment(n, t, p)
                assert 0.0 <= val <= t**n

    def test_large_age_limit(self):
        # M1(t) -> t - mean as the conditioning event becomes certain
        t = 50.0
        val = reversed_residual_moment(1, t, P_HALF_1_1)
        assert val == pytest.approx(t - raw_moment(1, P_HALF_1_1), abs=1e-4)

    # the Monte Carlo point below; the bound was fixed before the first run
    def test_against_mpmath_at_relief_median(self):
        # E[t - X | X <= t] = int_0^t F(x) dx / F(t)
        with mpmath.workdps(50):
            _, cdf = _mp_pte(0.301, -9.997, 1.555)
            t = mpmath.mpf(1.7)
            want = float(mpmath.quad(cdf, [0, 0.5, t]) / cdf(t))
        got = reversed_residual_moment(1, 1.7, pte_params(0.301, -9.997, 1.555))
        assert got == pytest.approx(want, rel=1e-9)

    def test_monte_carlo_at_relief_median(self):
        p = pte_params(0.301, -9.997, 1.555)
        val = reversed_residual_moment(1, 1.7, p)
        draws = ptg_sample(10_000_000, p, 778)
        cond = 1.7 - draws[draws <= 1.7]
        se = cond.std(ddof=1) / math.sqrt(cond.size)
        assert val == pytest.approx(cond.mean(), abs=3 * se)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            reversed_residual_moment(1, 1e-310, P_HALF_2_1)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_age_rejected(self, t):
        with pytest.raises(ValueError):
            reversed_residual_moment(1, t, P_HALF_2_1)


class TestRenyiEntropy:
    def test_divergent_integral_at_zero_is_refused(self):
        # delta (theta - 1) = -1.2: f^delta grows like x^-1.2 at 0
        message = "Renyi integral diverges at 0 for this shape/delta"
        with pytest.raises(ValueError, match=re.escape(message)):
            renyi_entropy(2.0, ptw_params(0.5, 2.0, 1.0, 0.4))

    def test_exponential_limit_closed_form(self):
        # Exp(1): I_R(2) = -log integral e^{-2x} = log 2
        p = pte_params(0.0, 1e-6, 1.0)
        assert renyi_entropy(2.0, p) == pytest.approx(math.log(2.0), abs=1e-3)

    def test_brackets_shannon_entropy(self):
        shannon = quad(
            lambda x: -ptg_pdf(x, P_HALF_2_1)
            * np.log(np.maximum(ptg_pdf(x, P_HALF_2_1), 1e-300)),
            0,
            np.inf,
            limit=200,
        )[0]
        hi = renyi_entropy(1.0 - 1e-4, P_HALF_2_1)
        lo = renyi_entropy(1.0 + 1e-4, P_HALF_2_1)
        assert lo <= shannon <= hi

    def test_golden_value(self):
        assert renyi_entropy(2.0, P_HALF_1_1) == pytest.approx(
            -0.02665324063820884, abs=1e-8
        )

    @pytest.mark.parametrize("delta", [0.5, 2.0, 3.5])
    def test_series_cross_check_positive_beta(self, delta):
        # int f^delta dx = int_0^1 f(Q(u))^(delta - 1) du
        p = P_HALF_1_1
        integral = _u_space(lambda x: float(ptg_pdf(x, p)) ** (delta - 1.0), p)
        want = math.log(integral) / (1.0 - delta)
        assert renyi_entropy(delta, p) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize(
        "delta",
        [
            0.5,
            pytest.param(0.1, marks=pytest.mark.xfail(
                strict=True,
                reason="at alpha = 1 ptg_log_pdf forms fac from G and reads -inf once G "
                "rounds to 1 (x > 37 at rate 1), a tail that delta = 0.1 weights: about "
                "4e-4 low, with a QuadratureWarning (ROADMAP item 6)",
            )),
        ],
    )
    @pytest.mark.parametrize("beta", [2.0, -700.0])
    def test_alpha_one_against_mpmath(self, beta, delta):
        with mpmath.workdps(30):
            pdf, _ = _mp_pte(1.0, beta, 1.0)
            d = mpmath.mpf(delta)
            integral = mpmath.quad(lambda x: pdf(x) ** d, [0, 1, 4, 16, 64, 256, mpmath.inf])
            want = float(mpmath.log(integral) / (1 - d))
        with warnings.catch_warnings():
            warnings.simplefilter("error", QuadratureWarning)
            got = renyi_entropy(delta, pte_params(1.0, beta, 1.0))
        assert got == pytest.approx(want, rel=1e-6)

    def test_domain_validation(self):
        # NaN came back as NaN, and inf as NaN with a RuntimeWarning
        for bad in (0.0, -1.0, 1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                renyi_entropy(bad, P_HALF_2_1)


class TestMeanDeviation:
    def test_exponential_limit(self):
        # Exp(1): mean deviation about the mean is 2/e
        p = pte_params(0.0, 1e-6, 1.0)
        assert mean_deviation("mean", p) == pytest.approx(2.0 / math.e, abs=1e-3)

    def test_consistency_with_direct_quadrature(self):
        mu = raw_moment(1, P_HALF_2_1)
        med = ptg_quantile(0.5, P_HALF_2_1)
        for about, c in (("mean", mu), ("median", med)):
            direct = (
                quad(lambda x: (c - x) * ptg_pdf(x, P_HALF_2_1), 0, c)[0]
                + quad(lambda x: (x - c) * ptg_pdf(x, P_HALF_2_1), c, np.inf)[0]
            )
            assert mean_deviation(about, P_HALF_2_1) == pytest.approx(direct, abs=1e-7)

    def test_median_minimizes_absolute_deviation(self):
        for a, b in SERIES_GRID[:10]:
            p = pte_params(a, b, 1.0)
            assert mean_deviation("median", p) <= mean_deviation("mean", p) + 1e-12

    def test_bounds(self):
        mu = raw_moment(1, P_HALF_2_1)
        d = mean_deviation("mean", P_HALF_2_1)
        assert 0.0 <= d <= raw_moment(1, P_HALF_2_1) + mu

    def test_unknown_center_rejected(self):
        with pytest.raises(ValueError):
            mean_deviation("mode", P_HALF_2_1)

    def test_unknown_center_integrates_nothing(self, monkeypatch):
        calls = []

        def counting_quad(*args):
            calls.append(args)
            return quad_rule(*args)

        monkeypatch.setattr(expansions, "quad", counting_quad)
        mean_deviation("mean", P_HALF_2_1)
        assert len(calls) == 2  # mu and the partial moment: the wrapper counts
        calls.clear()
        with pytest.raises(ValueError, match="about must be 'mean' or 'median'"):
            mean_deviation("mode", P_HALF_2_1)
        assert calls == []


class TestReparameterizationInvariance:
    """PT-W at shape 1 is the same distribution as PT-E; every derived
    quantity must agree."""

    PE = pte_params(0.4, -1.5, 0.9)
    PW = ptw_params(0.4, -1.5, 0.9, 1.0)

    def test_matching_derived_quantities(self):
        assert raw_moment(2, self.PW) == pytest.approx(raw_moment(2, self.PE), abs=1e-10)
        assert renyi_entropy(2.0, self.PW) == pytest.approx(
            renyi_entropy(2.0, self.PE), abs=1e-10
        )
        assert residual_moment(1, 0.7, self.PW) == pytest.approx(
            residual_moment(1, 0.7, self.PE), abs=1e-10
        )
        assert reversed_residual_moment(1, 1.5, self.PW) == pytest.approx(
            reversed_residual_moment(1, 1.5, self.PE), abs=1e-10
        )
        assert mean_deviation("mean", self.PW) == pytest.approx(
            mean_deviation("mean", self.PE), abs=1e-10
        )
        assert stress_strength(self.PW, self.PW) == pytest.approx(0.5, abs=1e-9)
        assert mgf(0.2, self.PW) == pytest.approx(mgf(0.2, self.PE), abs=1e-10)
        assert pwm(1, 1, 0, self.PW) == pytest.approx(pwm(1, 1, 0, self.PE), abs=1e-10)

    def test_matching_pointwise_series(self):
        xs = np.linspace(0.1, 4.0, 9)
        assert np.allclose(series_pdf(xs, self.PW), series_pdf(xs, self.PE), atol=1e-12)
        assert np.allclose(
            series_order_stat_pdf(xs, 2, 4, self.PW),
            series_order_stat_pdf(xs, 2, 4, self.PE),
            atol=1e-10,
        )


@pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan, 2.5, "2"])
class TestIntegerArguments:
    """An order or exponent that is not an integer, infinite, NaN and a
    string included, is refused with the documented ValueError."""

    def test_raw_moment(self, v):
        with pytest.raises(ValueError, match="moment order must be a positive integer"):
            raw_moment(v, P_HALF_2_1)

    def test_residual_moment(self, v):
        with pytest.raises(ValueError, match="moment order must be a positive integer"):
            residual_moment(v, 0.5, P_HALF_2_1)

    def test_reversed_residual_moment(self, v):
        with pytest.raises(ValueError, match="moment order must be a positive integer"):
            reversed_residual_moment(v, 0.5, P_HALF_2_1)

    def test_pwm(self, v):
        for name, exponents in (("p", (v, 0, 0)), ("q", (0, v, 0)), ("r", (0, 0, v))):
            with pytest.raises(ValueError, match=f"{name} exponent must be a nonnegative integer"):
                pwm(*exponents, P_HALF_1_1)

    def test_order_stat_pdf(self, v):
        for r, n in ((v, 5), (1, v)):
            with pytest.raises(ValueError, match="need integers 1 <= r <= n"):
                order_stat_pdf(1.0, r, n, P_HALF_2_1)
