import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptgfit.baselines import Exponential, Weibull
from ptgfit.competitors import MarshallOlkinExponential, fit_competitor
from ptgfit.distributions import PtgParams, pte_params, ptg_log_pdf
from ptgfit.mle import (
    FitOptions,
    FitResult,
    _ptg_loglik_score,
    fit,
    log_likelihood,
    multistart_maximize,
    observed_information,
    wald_ci,
)


def richardson_gradient(f, z, rel_step=1e-4):
    """Central differences of ``f`` at ``z``, Richardson-extrapolated from
    steps h and 2h so that the truncation error is O(h^4).  Row i is the
    derivative in z[i], so a vector-valued ``f`` gives its Jacobian's
    transpose."""
    grad = []
    for i in range(z.size):
        h = rel_step * max(1.0, abs(z[i]))
        e = np.zeros(z.size)
        e[i] = h
        d1 = (f(z + e) - f(z - e)) / (2.0 * h)
        d2 = (f(z + 2.0 * e) - f(z - 2.0 * e)) / (4.0 * h)
        grad.append((4.0 * d1 - d2) / 3.0)
    return np.array(grad)


ALPHAS = (-0.9, 0.0, 0.95)
BETAS = (-800.0, -101.0, -6.6, 0.5, 30.0)
BASELINES = (Exponential(0.8), Weibull(0.8, 1.3))


class TestLogLikelihood:
    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(-0.95, 0.95),
        beta=st.floats(-8.0, 8.0).filter(lambda b: abs(b) > 0.05),
        lam=st.floats(0.2, 4.0),
    )
    def test_equals_sum_of_log_densities(self, alpha, beta, lam):
        rng = np.random.default_rng(1234)
        data = rng.exponential(1.0, size=60) + 0.01
        p = pte_params(alpha, beta, lam)
        closed = log_likelihood(data, p)
        direct = float(np.sum(ptg_log_pdf(data, p)))
        assert closed == pytest.approx(direct, abs=1e-10)

    def test_single_observation_alpha_zero(self):
        beta, lam, x = 1.7, 0.9, 1.3
        p = pte_params(0.0, beta, lam)
        g_x = 1 - math.exp(-lam * x)
        expected = (
            math.log(beta)
            - math.log(1 - math.exp(-beta))
            + math.log(lam * math.exp(-lam * x))
            - beta * g_x
        )
        assert log_likelihood([x], p) == pytest.approx(expected, abs=1e-12)

    def test_dataset_I_at_published_estimates(self, data_I):
        # back-solved from the published AIC 202.09 and BIC 208.92
        val = log_likelihood(data_I, pte_params(0.813, -6.587, 0.841))
        assert val == pytest.approx(-98.045, abs=0.01)

    @pytest.mark.xfail(
        strict=True,
        reason="the published relief-times row is internally inconsistent: the "
        "log-likelihood at (0.301, -9.997, 1.555) is -20.93, while the published "
        "AIC 36.84 implies -15.42",
    )
    def test_dataset_II_at_published_estimates(self, data_II):
        val = log_likelihood(data_II, pte_params(0.301, -9.997, 1.555))
        assert val == pytest.approx(-15.42, abs=0.02)

    def test_dataset_II_published_row_actual_value(self, data_II):
        # pin the measured inconsistency so any dataset change is caught
        val = log_likelihood(data_II, pte_params(0.301, -9.997, 1.555))
        assert val == pytest.approx(-20.934, abs=0.01)

    def test_sentinel_for_zero_density_region(self):
        # the transmuted factor vanishes at x = 0 for alpha = -1 and in the
        # numerically saturated tail for alpha = +1
        assert log_likelihood([0.0, 1.0], pte_params(-1.0, 1.0, 1.0)) == -np.inf
        assert log_likelihood([1.0, 900.0], pte_params(1.0, 1.0, 1.0)) == -np.inf

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            log_likelihood([], pte_params(0.5, 1.0, 1.0))

    def test_scale_equivariance(self, data_I):
        # scaling data by c and the rate by 1/c shifts the likelihood by -n log c
        p = pte_params(0.6, -2.0, 1.1)
        c = 3.7
        p_scaled = pte_params(0.6, -2.0, 1.1 / c)
        shift = log_likelihood(c * data_I, p_scaled) - log_likelihood(data_I, p)
        assert shift == pytest.approx(-data_I.size * math.log(c), abs=1e-8)

    def test_stable_for_extreme_beta(self, data_II):
        # the closed form must not overflow anywhere the optimizer can wander
        assert np.isfinite(log_likelihood(data_II, pte_params(0.9, -5000.0, 1.6)))


class TestFit:
    def test_dataset_I_reproduces_published_estimates(self, fit_I):
        a, b, lam = fit_I.estimates.values
        assert fit_I.converged
        assert a == pytest.approx(0.813, abs=0.05)
        assert b == pytest.approx(-6.587, abs=0.3)
        assert lam == pytest.approx(0.841, abs=0.05)
        assert fit_I.loglik == pytest.approx(-98.045, abs=0.01)

    @pytest.mark.xfail(
        strict=True,
        reason="the likelihood optimum of the published relief-times data is near "
        "(0.94, -101, 1.64) with log-likelihood -15.56; the published parameter row "
        "(0.301, -9.997, 1.555) has log-likelihood -20.93 and is not an optimum "
        "(beta -9.997 sits at the edge of a [-10, 10] search box)",
    )
    def test_dataset_II_published_estimates(self, fit_II):
        a, b, lam = fit_II.estimates.values
        assert a == pytest.approx(0.301, abs=0.05)
        assert b == pytest.approx(-9.997, abs=0.5)
        assert lam == pytest.approx(1.555, abs=0.08)

    def test_dataset_II_beats_published_likelihood(self, fit_II, data_II):
        assert fit_II.loglik > log_likelihood(data_II, pte_params(0.301, -9.997, 1.555))
        assert fit_II.loglik == pytest.approx(-15.564, abs=0.01)

    def test_synthetic_recovery_within_three_ses(self, synthetic_fit):
        truth, _, res = synthetic_fit
        assert res.converged
        for est, se, true_val in zip(
            res.estimates.values, res.std_errors, truth.values
        ):
            assert abs(est - true_val) <= 3 * se

    def test_deterministic_given_seed(self, data_II):
        r1 = fit(data_II, "exponential", FitOptions(seed=9, n_starts=6))
        r2 = fit(data_II, "exponential", FitOptions(seed=9, n_starts=6))
        assert r1.estimates.values == r2.estimates.values
        assert r1.loglik == r2.loglik

    def test_more_starts_never_worse(self, data_I, fit_I):
        shallow = fit(data_I, "exponential", FitOptions(seed=3, n_starts=4))
        assert fit_I.loglik >= shallow.loglik - 1e-6

    def test_gradient_small_at_optimum(self, fit_I, data_I):
        # transformed coordinates: a = atanh(alpha), b = beta, l = log(lam)
        a_hat, b_hat, lam_hat = fit_I.estimates.values
        z = np.array([math.atanh(a_hat), b_hat, math.log(lam_hat)])

        def ll(zv):
            return log_likelihood(
                data_I, pte_params(math.tanh(zv[0]), zv[1], math.exp(zv[2]))
            )

        grad = []
        for i in range(3):
            h = 1e-6 * max(1.0, abs(z[i]))
            e = np.zeros(3)
            e[i] = h
            grad.append((ll(z + e) - ll(z - e)) / (2 * h))
        assert np.max(np.abs(grad)) < 1e-3
        # the analytic score in the search coordinates (asin alpha, beta, log lam)
        z_search = np.array([[math.asin(a_hat), b_hat, math.log(lam_hat)]])
        _, score = _ptg_loglik_score(data_I, Exponential)(z_search)
        assert np.max(np.abs(score)) < 1e-6

    def test_profile_sanity(self, synthetic_fit):
        # +-5 SE single-parameter perturbations strictly decrease the likelihood
        _, x, res = synthetic_fit
        base = np.asarray(res.estimates.values)
        for j in range(3):
            for sign in (-1.0, 1.0):
                perturbed = base.copy()
                perturbed[j] += sign * 5.0 * res.std_errors[j]
                perturbed[0] = np.clip(perturbed[0], -1.0, 1.0)
                if abs(perturbed[1]) < 1e-8 or perturbed[2] <= 0:
                    continue
                p = pte_params(*perturbed)
                assert log_likelihood(x, p) < res.loglik

    def test_weibull_family_fit(self, data_I, fit_I):
        res = fit(data_I, "weibull", FitOptions(seed=0, n_starts=12))
        assert res.converged
        assert len(res.estimates.values) == 4
        # the extra shape parameter cannot lower the maximized likelihood
        assert res.loglik >= fit_I.loglik - 1e-6

    @pytest.mark.parametrize(
        "dataset, family, loglik",
        [
            ("I", "exponential", -98.04683378832306),
            ("I", "weibull", -98.03667416677402),
            ("II", "exponential", -15.564165689918028),
            ("II", "weibull", -15.35789512991596),
        ],
    )
    def test_optimum_pinned(self, data_I, data_II, dataset, family, loglik):
        # the optima found by the earlier Nelder-Mead multistart (seed 0)
        data = data_I if dataset == "I" else data_II
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # PT-W on II: beta outside 700
            res = fit(data, family, FitOptions(seed=0))
        assert res.converged
        assert res.loglik == pytest.approx(loglik, abs=1e-8)

    def test_out_of_domain_tilt_warns_without_moving(self, data_II):
        # the PT-W likelihood on dataset II rises along a ridge to
        # beta ~ -7910; the landing is reported as found, with a warning
        with pytest.warns(UserWarning, match="singular"), pytest.warns(
            UserWarning, match=r"fitted beta = -79\d\d.* outside the documented"
        ):
            res = fit(data_II, "weibull", FitOptions(seed=0))
        assert res.estimates.beta == pytest.approx(-7910.5, abs=1.0)
        assert res.loglik == pytest.approx(-15.35789512991596, abs=1e-8)

    def test_no_warning_inside_documented_range(self, data_I):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit(data_I, "exponential", FitOptions(seed=0, n_starts=4))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit([1.0, -2.0, 3.0, 4.0], "exponential")
        with pytest.raises(ValueError):
            fit([1.0, 2.0], "exponential")  # fewer points than parameters + 1

    def test_unknown_baseline_family_names_the_known_ones(self, data_I):
        with pytest.raises(ValueError, match=r"unknown baseline family 'gamma'.*exponential"):
            fit(data_I, "gamma")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_data(self, bad):
        with pytest.raises(ValueError, match="nonempty, finite and strictly positive"):
            fit([1.0, bad, 2.0, 3.5, 4.0], "exponential")

    def test_result_invariants(self, fit_I):
        info = fit_I.info_matrix
        assert np.allclose(info, info.T, rtol=1e-8)
        assert np.all(np.linalg.eigvalsh(info) > 0)
        assert np.all(fit_I.ci_low <= np.asarray(fit_I.estimates.values))
        assert np.all(np.asarray(fit_I.estimates.values) <= fit_I.ci_high)
        assert fit_I.n_obs == 72
        assert fit_I.k == 3


class TestObservedInformation:
    @pytest.mark.parametrize("baseline", BASELINES, ids=("exponential", "weibull"))
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("beta", BETAS)
    def test_matches_differences_of_the_score(self, data_I, baseline, alpha, beta):
        # the analytic score in natural coordinates: the search-coordinate
        # score divided by the Jacobian of (asin alpha, beta, log baseline)
        f = _ptg_loglik_score(data_I, type(baseline))

        def score(theta):
            z = np.array([math.asin(theta[0]), theta[1], *np.log(theta[2:])])
            return f(z[None])[1][0] / np.array([math.cos(z[0]), 1.0, *theta[2:]])

        theta = np.array([alpha, beta, *baseline.values])
        info = observed_information(data_I, PtgParams(alpha, beta, baseline))
        assert np.allclose(-info, richardson_gradient(score, theta), rtol=1e-7, atol=1e-7)

    @pytest.mark.parametrize("beta", [-2e-2, -1e-3, -1e-6, 1e-6, 1e-3, 2e-2])
    def test_beta_curvature_near_zero(self, data_I, beta):
        # l_bb = n c''(beta), whose series at zero is -1/12 + b^2/240 - b^4/6048;
        # at |beta| = 2e-2 the closed form is in use and must agree with it
        info = observed_information(data_I, pte_params(0.3, beta, 1.0))
        series = -1.0 / 12.0 + beta**2 / 240.0 - beta**4 / 6048.0
        assert -info[1, 1] == pytest.approx(data_I.size * series, rel=1e-10)

    @pytest.mark.parametrize(
        "dataset, model, se",
        [
            ("I", "pte", (0.18257771, 1.44850264, 0.19235721)),
            ("I", "ptw", (0.20067002, 2.54555669, 0.24559344, 0.17220953)),
            ("II", "pte", (0.0794165415, 108.179484, 0.557046598)),
            ("I", "moe", (3.55519713, 0.19370365)),
            ("II", "moe", (191.22285539, 0.59272746)),
        ],
    )
    def test_standard_errors_pinned(self, data_I, data_II, dataset, model, se):
        # PT-W on dataset II is left out: its information is singular to
        # tolerance (smallest eigenvalue about 9e-11)
        data = data_I if dataset == "I" else data_II
        if model == "moe":
            res = fit_competitor(data, "moe", seed=0)
        else:
            family = "exponential" if model == "pte" else "weibull"
            res = fit(data, family, FitOptions(seed=0))
        assert res.std_errors == pytest.approx(se, rel=1e-6)

    def test_dataset_I_standard_errors_match_published(self, fit_I):
        published = np.array([0.182, 1.448, 0.192])
        rel = np.abs(fit_I.std_errors - published) / published
        assert np.all(rel < 0.25)

    @pytest.mark.xfail(
        strict=True,
        reason="published relief-times standard errors (0.037, 3.336, 0.241) were "
        "evaluated at the published non-optimal estimates; at the actual optimum "
        "the beta direction is nearly flat and its standard error is ~108",
    )
    def test_dataset_II_standard_errors_match_published(self, fit_II):
        published = np.array([0.037, 3.336, 0.241])
        rel = np.abs(fit_II.std_errors - published) / published
        assert np.all(rel < 0.25)

    def test_fit_ending_at_alpha_edge_reports_finite_info(self, data_I):
        # one start lands at alpha = -1; the exact information is finite and
        # positive definite there, and the alpha interval is clipped to the edge
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(data_I, "exponential", FitOptions(n_starts=1))
        assert res.estimates.alpha == -1.0
        info = res.info_matrix
        assert np.all(np.isfinite(info)) and np.array_equal(info, info.T)
        assert np.all(np.linalg.eigvalsh(info) > 0)
        assert not res.degenerate_info
        assert res.std_errors == pytest.approx([0.0403, 6.20, 0.0694], rel=2e-3)
        assert res.ci_low[0] == -1.0
        assert res.ci_high[0] == pytest.approx(-0.921, abs=5e-4)

    def test_symmetric_by_construction(self, data_II):
        info = observed_information(data_II, pte_params(0.3, -2.0, 1.0))
        assert np.array_equal(info, info.T)


def _result_from(estimates, se):
    k = len(estimates.values)
    return FitResult(
        estimates=estimates,
        loglik=0.0,
        std_errors=np.asarray(se, dtype=float),
        ci_low=np.full(k, np.nan),
        ci_high=np.full(k, np.nan),
        info_matrix=np.eye(k),
        converged=True,
        n_restarts_used=1,
        n_obs=50,
    )


class TestWaldCi:
    def test_dataset_I_lambda_interval(self):
        res = _result_from(pte_params(0.813, -6.587, 0.841), [0.182, 1.448, 0.192])
        low, high = wald_ci(res, 0.95)
        assert low[2] == pytest.approx(0.46, abs=0.01)
        assert high[2] == pytest.approx(1.22, abs=0.01)

    def test_dataset_II_alpha_interval(self):
        res = _result_from(pte_params(0.301, -9.997, 1.555), [0.037, 3.336, 0.241])
        low, high = wald_ci(res, 0.95)
        assert low[0] == pytest.approx(0.22, abs=0.01)
        assert high[0] == pytest.approx(0.37, abs=0.01)

    def test_zero_se_degenerates_to_point(self):
        res = _result_from(pte_params(0.3, 2.0, 1.0), [0.0, 0.0, 0.0])
        low, high = wald_ci(res, 0.95)
        assert np.allclose(low, [0.3, 2.0, 1.0])
        assert np.allclose(high, [0.3, 2.0, 1.0])

    def test_domain_truncation(self):
        res = _result_from(pte_params(0.9, -0.5, 0.05), [0.5, 2.0, 0.2])
        low, high = wald_ci(res, 0.95)
        assert high[0] == 1.0  # alpha clipped to [-1, 1]
        assert high[1] == 0.0  # beta keeps the sign of its estimate
        assert low[2] == 0.0  # positive baseline parameter

    def test_competitor_bounds_and_unknown_se(self):
        # competitor parameters are clipped at 0 only; a NaN standard error
        # gives NaN bounds rather than the point estimate
        res = _result_from(MarshallOlkinExponential(0.5, 2.0), [1.0, np.nan])
        low, high = wald_ci(res, 0.95)
        assert low[0] == 0.0
        assert high[0] == pytest.approx(0.5 + 1.959963984540054, abs=1e-12)
        assert np.isnan(low[1]) and np.isnan(high[1])

    def test_level_validation(self):
        res = _result_from(pte_params(0.3, 2.0, 1.0), [0.1, 0.1, 0.1])
        with pytest.raises(ValueError):
            wald_ci(res, 1.5)


class TestFitOptions:
    def test_defaults(self):
        o = FitOptions()
        assert o.n_starts == 20 and o.seed == 0

    @pytest.mark.parametrize("kwargs", [dict(n_starts=0)])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FitOptions(**kwargs)


class TestScore:
    """The batched PT-G log-likelihood and its analytic score."""

    @staticmethod
    def _z(alpha, beta, baseline):
        return np.array([math.asin(alpha), beta, *np.log(baseline.values)])

    @pytest.mark.parametrize("baseline", BASELINES, ids=("exponential", "weibull"))
    def test_loglik_equals_sum_of_log_pdf(self, data_I, baseline):
        f = _ptg_loglik_score(data_I, type(baseline))
        rows = [(a, b) for a in ALPHAS for b in BETAS]
        ll, _ = f(np.array([self._z(a, b, baseline) for a, b in rows]))
        for (a, b), value in zip(rows, ll):
            direct = float(np.sum(ptg_log_pdf(data_I, PtgParams(a, b, baseline))))
            assert value == pytest.approx(direct, rel=1e-12), (a, b)

    @pytest.mark.parametrize("baseline", BASELINES, ids=("exponential", "weibull"))
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("beta", BETAS)
    def test_score_matches_central_differences(self, data_I, baseline, alpha, beta):
        f = _ptg_loglik_score(data_I, type(baseline))
        z = self._z(alpha, beta, baseline)
        _, score = f(z[None])
        numeric = richardson_gradient(lambda v: f(v[None])[0][0], z)
        assert np.allclose(score[0], numeric, rtol=1e-7, atol=1e-7)

    def test_rows_outside_the_domain_are_minus_inf(self, data_I):
        f = _ptg_loglik_score(data_I, Exponential)
        ll, _ = f(np.array([[0.3, 1e-9, 0.0], [0.3, -2.0, 0.0]]))
        assert ll[0] == -np.inf and np.isfinite(ll[1])


def test_multistart_refuses_empty_start_set(data_I):
    f = _ptg_loglik_score(data_I, Exponential)
    box = (np.full(3, -np.inf), np.full(3, np.inf))
    with pytest.raises(ValueError, match="need at least one start"):
        multistart_maximize(f, np.empty((0, 3)), box=box)
