import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import kolmogorov as scipy_kolmogorov
from scipy.stats import kstest as scipy_kstest

from ptgfit.distributions import pte_params, ptg_cdf, ptg_sample
from ptgfit.gof import (
    anderson_darling,
    cramer_von_mises,
    evaluate_gof,
    information_criteria,
    kolmogorov_pvalue,
    ks_test,
    ttt_points,
)

# published criterion rows (model, k, aic, bic) used for the internal
# consistency identity BIC - AIC = k (ln n - 2)
PUBLISHED_ROWS_I = [  # n = 72
    (1, 234.63, 236.91),
    (1, 210.40, 212.68),
    (2, 210.36, 214.92),
    (3, 210.54, 217.38),
    (3, 209.42, 216.24),
    (3, 207.38, 214.22),
    (4, 209.44, 218.56),
    (4, 207.82, 216.94),
    (4, 205.42, 214.50),
    (4, 206.63, 215.74),
    (3, 202.09, 208.92),
]
PUBLISHED_ROWS_II = [  # n = 20
    (1, 67.67, 68.67),
    (1, 54.32, 55.31),
    (2, 43.51, 45.51),
    (3, 42.75, 45.74),
    (3, 41.78, 44.75),
    (3, 43.48, 46.45),
    (4, 41.58, 45.54),
    (4, 42.88, 46.84),
    (4, 38.07, 42.02),
    (4, 38.32, 42.28),
    (3, 36.84, 39.81),
]


class TestInformationCriteria:
    def test_guinea_pig_row(self):
        ic = information_criteria(-98.045, 3, 72)
        assert ic.aic == pytest.approx(202.09, abs=0.01)
        assert ic.bic == pytest.approx(208.92, abs=0.01)
        assert ic.caic == pytest.approx(202.44, abs=0.01)
        assert ic.hqic == pytest.approx(204.81, abs=0.01)

    def test_relief_row(self):
        ic = information_criteria(-15.42, 3, 20)
        assert ic.aic == pytest.approx(36.84, abs=0.02)
        assert ic.caic == pytest.approx(38.34, abs=0.02)
        # the published BIC/HQIC for this row carry ~0.02-0.05 rounding slack
        assert ic.bic == pytest.approx(39.81, abs=0.05)
        assert ic.hqic == pytest.approx(37.38, abs=0.05)

    def test_degenerate_zero_parameters(self):
        ic = information_criteria(0.0, 0, 10)
        assert ic == (0.0, 0.0, 0.0, 0.0)

    def test_small_sample_guard(self):
        with pytest.raises(ValueError):
            information_criteria(-10.0, 3, 4)

    @pytest.mark.parametrize(
        "n,rows", [(72, PUBLISHED_ROWS_I), (20, PUBLISHED_ROWS_II)]
    )
    def test_published_tables_internally_consistent(self, n, rows):
        # five of the printed competitor rows carry rounding residuals up to
        # 0.033, so the identity holds at 0.035 across the board and at 0.02
        # for the reproduced headline rows
        for k, aic, bic in rows:
            assert bic - aic == pytest.approx(k * (math.log(n) - 2.0), abs=0.035)
        k, aic, bic = rows[-1]
        assert bic - aic == pytest.approx(k * (math.log(n) - 2.0), abs=0.02)


def _brute_force_ks(data, cdf):
    """O(n^2)-flavored oracle: evaluate the EDF gap from both sides at every
    observation."""
    x = np.sort(np.asarray(data, dtype=float))
    n = x.size
    best = 0.0
    for i, xi in enumerate(x, start=1):
        f = float(cdf(xi))
        ecdf_right = np.mean(x <= xi)
        ecdf_left = np.mean(x < xi)
        best = max(best, abs(ecdf_right - f), abs(ecdf_left - f))
        assert ecdf_right == pytest.approx(i_last(x, xi) / n)
    return best


def i_last(x, v):
    return int(np.searchsorted(x, v, side="right"))


class TestKsTest:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            data = rng.gamma(2.0, 1.0, size=rng.integers(5, 60))
            cdf = lambda v: 1.0 - np.exp(-0.7 * np.asarray(v))
            d, _ = ks_test(data, cdf)
            assert d == pytest.approx(_brute_force_ks(data, cdf), abs=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(6)
        data = rng.exponential(1.0, 40)
        d, _ = ks_test(data, lambda v: 1.0 - np.exp(-np.asarray(v)))
        ref = scipy_kstest(data, "expon").statistic
        assert d == pytest.approx(float(ref), abs=1e-12)

    def test_quantile_spaced_data_boundary_pattern(self):
        # x_i at the F-quantiles i/(n+1) gives D = 1/(n+1) exactly
        n = 25
        u = np.arange(1, n + 1) / (n + 1)
        data = -np.log1p(-u)
        d, _ = ks_test(data, lambda v: 1.0 - np.exp(-np.asarray(v)))
        assert d == pytest.approx(1.0 / (n + 1), abs=1e-12)
        assert d == pytest.approx(_brute_force_ks(data, lambda v: 1.0 - np.exp(-np.asarray(v))), abs=1e-12)

    def test_pvalue_against_scipy_kolmogorov(self):
        for t in (0.3, 0.6, 1.0, 1.63, 2.2):
            assert kolmogorov_pvalue(t) == pytest.approx(
                float(scipy_kolmogorov(t)), abs=1e-10
            )

    def test_pvalue_saturates_at_tiny_statistic(self):
        assert kolmogorov_pvalue(0.01) == 1.0

    def test_ties_allowed(self):
        data = [1.0, 1.0, 1.0, 2.0, 2.0]
        d, p = ks_test(data, lambda v: np.clip(np.asarray(v) / 3.0, 0, 1))
        assert 0.0 <= d <= 1.0 and 0.0 <= p <= 1.0

    def test_relief_times_against_fitted_exponential(self, data_II):
        # reproduces the published rejection of the plain exponential
        d, p = ks_test(data_II, lambda v: 1.0 - np.exp(-0.526 * np.asarray(v)))
        assert d == pytest.approx(0.44, abs=0.01)
        assert p == pytest.approx(0.004, abs=0.01)


class TestEdfStatistics:
    def test_uniform_pit_gives_floor_cvm(self):
        # u_i = (2i-1)/(2n) zeroes the sum, leaving exactly 1/(12n)
        n = 16
        u = (2 * np.arange(1, n + 1) - 1) / (2 * n)
        data = u.copy()  # cdf == identity on [0, 1]
        w = cramer_von_mises(data, lambda v: np.asarray(v))
        assert w == pytest.approx(1.0 / (12 * n), abs=1e-15)

    def test_anderson_darling_known_small_case(self):
        # cross-check against the direct formula on a tiny handworked case
        data = np.array([0.2, 0.5, 0.9])
        u = data
        i = np.arange(1, 4)
        expected = -3 - np.mean((2 * i - 1) * (np.log(u) + np.log(1 - u[::-1])))
        assert anderson_darling(data, lambda v: np.asarray(v)) == pytest.approx(
            expected, abs=1e-14
        )

    def test_clipping_warns(self):
        data = np.array([0.5, 1.0])
        with pytest.warns(UserWarning, match="clipped"):
            anderson_darling(data, lambda v: np.clip(np.asarray(v), 0, 1))

    def test_cramer_von_mises_reads_the_unclipped_transform(self):
        # the largest u is 1 - 2^-40 (about 1 - 9.1e-13), inside A^2's clip
        # band: W^2 takes no logarithm, so it reads u as it is, without a
        # warning, while A^2 clips it and warns
        identity = lambda v: np.asarray(v)
        u = np.array([0.1, 0.4, 0.7, 1.0 - 2.0**-40])
        mid = (2 * np.arange(1, 5) - 1) / 8.0
        want = float(np.sum((u - mid) ** 2) + 1.0 / 48.0)
        clipped = np.append(u[:3], 1.0 - 1e-12)
        assert float(np.sum((clipped - mid) ** 2) + 1.0 / 48.0) != want  # the clip moves W^2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cramer_von_mises(u, identity) == want
        with pytest.warns(UserWarning, match="clipped") as record:
            report = evaluate_gof(u, identity, 1, -3.0)
        assert report.cvm == want and len(record) == 1
        with pytest.warns(UserWarning, match="clipped"):
            assert report.ad == anderson_darling(u, identity)

    def test_pit_invariance_under_monotone_transform(self):
        p = pte_params(0.5, 2.0, 1.0)
        data = ptg_sample(64, p, 99)
        cdf = lambda v: ptg_cdf(np.asarray(v), p)
        cube = lambda v: ptg_cdf(np.cbrt(np.asarray(v)), p)
        d0, p0 = ks_test(data, cdf)
        d1, p1 = ks_test(data**3, cube)
        assert d0 == pytest.approx(d1, abs=1e-10)
        assert p0 == pytest.approx(p1, abs=1e-10)
        assert anderson_darling(data, cdf) == pytest.approx(
            anderson_darling(data**3, cube), abs=1e-10
        )
        assert cramer_von_mises(data, cdf) == pytest.approx(
            cramer_von_mises(data**3, cube), abs=1e-10
        )

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.05, 10.0), min_size=3, max_size=40))
    def test_statistic_ranges(self, values):
        data = np.asarray(values)
        cdf = lambda v: 1.0 - np.exp(-np.asarray(v) / 2.0)
        d, pv = ks_test(data, cdf)
        assert 0.0 <= d <= 1.0 and 0.0 <= pv <= 1.0
        assert cramer_von_mises(data, cdf) >= 0.0


class TestTtt:
    def test_flat_top_for_constant_data(self):
        pts = ttt_points(np.full(7, 3.3))
        assert np.allclose(pts[:, 1], 1.0, atol=1e-15)

    def test_endpoint_exact(self):
        rng = np.random.default_rng(3)
        pts = ttt_points(rng.exponential(2.0, 35))
        assert pts[-1, 0] == 1.0
        assert pts[-1, 1] == pytest.approx(1.0, abs=1e-15)
        assert pts[0, 0] == pytest.approx(1.0 / 35.0)

    def test_exponential_data_near_diagonal(self):
        # constant hazard: the scaled transform concentrates on the diagonal
        rng = np.random.default_rng(12)
        pts = ttt_points(rng.exponential(1.0, 500))
        assert np.max(np.abs(pts[:, 1] - pts[:, 0])) < 0.1

    def test_population_curve_concave_over_the_bulk(self):
        """The exact transform of the guinea-pig fitted model is concave up to
        the 78th percentile, where its hazard peaks and turns gently down.

        Empirical second differences are spacing-level noise (their sign is a
        coin flip at every index for any hazard shape), so concavity is
        checked on the population curve and the seeded samples are checked
        against the weaker above-diagonal property below.
        """
        from scipy.integrate import quad

        from ptgfit.distributions import ptg_cdf, ptg_quantile

        p = pte_params(0.813, -6.587, 0.841)
        mean = quad(lambda x: 1 - ptg_cdf(x, p), 0, np.inf)[0]
        us = np.linspace(0.02, 0.78, 39)
        phi = np.array(
            [
                quad(lambda x: 1 - ptg_cdf(x, p), 0, ptg_quantile(u, p))[0] / mean
                for u in us
            ]
        )
        assert np.all(np.diff(phi, n=2) <= 1e-10)
        assert np.all(phi >= us)

    def test_sampled_curves_sit_above_diagonal(self):
        # 100 seeds at the sample size of the guinea-pig data
        p = pte_params(0.813, -6.587, 0.841)
        above = [
            np.mean(np.diff(ttt_points(ptg_sample(72, p, seed)), axis=1) >= 0)
            for seed in range(100)
        ]
        assert np.mean(above) >= 0.95

    def test_short_data_rejected(self):
        with pytest.raises(ValueError):
            ttt_points([1.0])

    @pytest.mark.parametrize("values", [[1.0, math.nan, 2.0], [1.0, -3.0, 2.0]])
    def test_invalid_data_rejected(self, values):
        # NaN gave a NaN column, and -3 a division by a zero total
        with pytest.raises(ValueError):
            ttt_points(values)


class TestEvaluateGof:
    def test_report_assembly(self, data_II):
        p = pte_params(0.5, -2.0, 1.0)
        rep = evaluate_gof(data_II, lambda v: ptg_cdf(v, p), 3, -20.0)
        assert rep.n == 20 and rep.k == 3
        assert rep.aic == pytest.approx(46.0)
        assert rep.ks >= 0 and rep.ad >= 0 and rep.cvm >= 0
        assert 0 <= rep.ks_pvalue <= 1

    def test_one_transform_serves_the_three_statistics(self, data_II):
        # the cdf is evaluated once per report, and each statistic equals its
        # public function's bit for bit, with and without clipping
        p = pte_params(0.5, -2.0, 1.0)
        for cdf in (lambda v: ptg_cdf(v, p), lambda v: np.minimum(ptg_cdf(v, p) * 3.0, 1.0)):
            calls = []

            def counted(v):
                calls.append(len(v))
                return cdf(v)

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rep = evaluate_gof(data_II, counted, 3, -20.0)
                want = (ks_test(data_II, cdf), anderson_darling(data_II, cdf),
                        cramer_von_mises(data_II, cdf))
            assert calls == [data_II.size]
            assert ((rep.ks, rep.ks_pvalue), rep.ad, rep.cvm) == want

    def test_clipping_warns_once_at_the_caller(self):
        with pytest.warns(UserWarning, match="clipped") as record:
            evaluate_gof(np.array([0.5, 1.0, 2.0, 3.0]), lambda v: np.clip(v / 2.0, 0, 1), 1, -3.0)
        assert [w.filename for w in record] == [__file__]


def _exp_cdf(v):
    return 1.0 - np.exp(-np.asarray(v))


# each public EDF statistic as a call of (data, cdf)
EDF_CALLS = {
    "ks_test": ks_test,
    "anderson_darling": anderson_darling,
    "cramer_von_mises": cramer_von_mises,
    "evaluate_gof": lambda data, cdf: evaluate_gof(data, cdf, 1, -3.0),
}


@pytest.mark.parametrize("call", EDF_CALLS.values(), ids=EDF_CALLS.keys())
class TestRefusedInputs:
    def test_nan_data(self, call):
        # gave NaN statistics
        with pytest.raises(ValueError, match="finite"):
            call([1.0, math.nan, 2.0, 3.0, 4.0], _exp_cdf)

    def test_negative_data(self, call):
        # gave a KS statistic of 1.918, above its maximum of 1
        with pytest.raises(ValueError, match="strictly positive"):
            call([-1.0, 1.0, 2.0, 3.0, 4.0], _exp_cdf)

    def test_transform_above_one(self, call):
        with pytest.raises(ValueError, match=r"probability integral transform .* got 1\.2"):
            call([1.0, 2.0, 3.0, 4.0, 5.0], lambda v: np.minimum(0.3 * np.asarray(v), 1.2))

    def test_transform_of_another_shape(self, call):
        # a scalar gave a KS statistic and a W^2 as if every u were 0.5
        with pytest.raises(ValueError, match=r"one value per observation, got shape \(\)"):
            call([1.0, 2.0, 3.0, 4.0, 5.0], lambda v: 0.5)

    def test_nan_transform(self, call):
        with pytest.raises(ValueError, match="probability integral transform .* got nan"):
            call([1.0, 2.0, 3.0, 4.0, 5.0], lambda v: np.where(np.asarray(v) > 4.5, np.nan, 0.1))
