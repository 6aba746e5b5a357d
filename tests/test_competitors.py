import math

import numpy as np
import pytest
from scipy.integrate import quad

from ptgfit.baselines import Exponential, moe_loglik_derivatives
from ptgfit.competitors import MarshallOlkinExponential, MomentExponential, fit_competitor
from ptgfit.mle import MODELS, _loglik_score


def _objective(data, model):
    """The search objective of ``model`` on the one sample ``data``, every
    row of Z under label 0."""
    f = _loglik_score([data], model)
    return lambda z: f(z, np.zeros(len(z), dtype=int))


class TestExponential:
    def test_dataset_closed_forms(self, data_I, data_II):
        res_i = fit_competitor(data_I, "exp")
        lam_i = res_i.estimates.lam
        assert lam_i == pytest.approx(0.540, abs=0.001)
        assert res_i.loglik == pytest.approx(data_I.size * (math.log(lam_i) - 1.0), abs=1e-10)
        assert fit_competitor(data_II, "exp").estimates.lam == pytest.approx(0.526, abs=0.001)

    def test_single_point(self):
        assert fit_competitor([1.0], "exp").estimates.lam == 1.0

    def test_standard_error(self, data_I):
        cfit = fit_competitor(data_I, "exp")
        assert cfit.std_errors[0] == pytest.approx(0.063, abs=0.002)


class TestMomentExponential:
    def test_dataset_closed_forms(self, data_I, data_II):
        assert fit_competitor(data_I, "me").estimates.sigma == pytest.approx(0.925, abs=0.001)
        assert fit_competitor(data_II, "me").estimates.sigma == pytest.approx(0.950, abs=0.001)

    def test_two_twos(self):
        assert fit_competitor([2.0, 2.0], "me").estimates.sigma == 1.0

    def test_cdf_is_integral_of_pdf(self):
        m = MomentExponential(0.9)
        for x in (0.3, 1.0, 4.0):
            assert m.cdf(x) == pytest.approx(quad(m.pdf, 0, x)[0], abs=1e-10)

    def test_standard_error_best_effort(self, data_I):
        # sigma / sqrt(2n) lands on the published 0.077
        cfit = fit_competitor(data_I, "me")
        assert cfit.std_errors[0] == pytest.approx(0.077, rel=0.30)
        assert cfit.std_errors[0] == pytest.approx(0.0771, abs=0.001)


class TestMarshallOlkin:
    def test_guinea_pig_fit_matches_published(self, data_I):
        res = fit_competitor(data_I, "moe", seed=0)
        (tilt, lam), ll = res.estimates.values, res.loglik
        assert tilt == pytest.approx(8.778, abs=0.8)
        assert lam == pytest.approx(1.379, abs=0.1)
        assert -2 * ll + 4 == pytest.approx(210.36, abs=0.5)

    @pytest.mark.xfail(
        strict=True,
        reason="the published relief-times Marshall-Olkin row (54.474, 2.316, "
        "AIC 43.51) is a premature optimizer stop; the likelihood optimum is "
        "near (175, 2.89) with AIC 42.27 and near-zero gradient",
    )
    def test_relief_fit_matches_published(self, data_II):
        res = fit_competitor(data_II, "moe", seed=0)
        (tilt, lam), ll = res.estimates.values, res.loglik
        assert tilt == pytest.approx(54.474, abs=8.0)
        assert lam == pytest.approx(2.316, abs=0.2)
        assert -2 * ll + 4 == pytest.approx(43.51, abs=0.5)

    def test_relief_fit_beats_published_likelihood(self, data_II):
        ll = fit_competitor(data_II, "moe", seed=0).loglik
        published = MarshallOlkinExponential(54.474, 2.316).loglik(data_II)
        assert ll > published
        assert -2 * ll + 4 == pytest.approx(42.27, abs=0.05)

    def test_unit_tilt_reduces_to_exponential(self, data_I):
        res = fit_competitor(data_I, "exp")
        moe = MarshallOlkinExponential(1.0, res.estimates.lam)
        assert moe.loglik(data_I) == pytest.approx(res.loglik, abs=1e-10)

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            fit_competitor([1.0, 2.0], "moe")


@pytest.mark.parametrize(
    "model",
    [
        Exponential(0.7),
        MomentExponential(1.3),
        MarshallOlkinExponential(8.0, 1.4),
        MarshallOlkinExponential(0.2, 0.9),
    ],
)
class TestDensityContract:
    def test_normalization(self, model):
        assert quad(model.pdf, 0, np.inf)[0] == pytest.approx(1.0, abs=1e-8)

    def test_cdf_monotone_with_limits(self, model):
        xs = np.geomspace(1e-3, 60.0, 200)
        c = model.cdf(xs)
        assert np.all(np.diff(c) >= -1e-14)
        assert model.cdf(0.0) == pytest.approx(0.0, abs=1e-14)
        assert model.cdf(1e3) == pytest.approx(1.0, abs=1e-10)

    def test_quantile_roundtrip(self, model):
        u = np.linspace(0.01, 0.99, 33)
        assert np.allclose(model.cdf(model.quantile(u)), u, atol=1e-9)


def test_fit_competitor_rejects_unknown_tag(data_II):
    with pytest.raises(ValueError):
        fit_competitor(data_II, "gamma")


@pytest.mark.parametrize("tag", ["exp", "me", "moe"])
def test_fit_competitor_rejects_non_finite_data(tag):
    with pytest.raises(ValueError, match="nonempty, finite and strictly positive"):
        fit_competitor([1.0, np.nan, 2.0, np.inf, 3.5], tag)


def test_fit_competitor_moe_record(data_I):
    cfit = fit_competitor(data_I, "moe", seed=0)
    assert cfit.k == 2
    assert np.all(np.isfinite(cfit.std_errors))
    assert cfit.converged


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: MomentExponential(-1.0), "sigma"),
        (lambda: MomentExponential(np.nan), "sigma"),
        (lambda: MarshallOlkinExponential(-1.0, 2.0), "tilt"),
        (lambda: MarshallOlkinExponential(0.0, 2.0), "tilt"),
        (lambda: MarshallOlkinExponential(1.0, -2.0), "lam"),
        (lambda: MarshallOlkinExponential(1.0, np.inf), "lam"),
    ],
)
def test_competitor_parameters_validated(make, name):
    with pytest.raises(ValueError, match=f"{name} must be a positive finite real"):
        make()


@pytest.mark.parametrize("fitter", [fit_competitor])
def test_moe_fit_refuses_empty_start_set(data_I, fitter):
    with pytest.raises(ValueError, match="n_starts must be a positive integer, got 0"):
        fitter(data_I, "moe", n_starts=0)


@pytest.mark.parametrize(
    "data_key, loglik", [("I", -103.18060125779724), ("II", -19.13566254239342)]
)
def test_moe_optimum_pinned(data_I, data_II, data_key, loglik):
    # the optima found by the earlier Nelder-Mead multistart (seed 0)
    res = fit_competitor(data_I if data_key == "I" else data_II, "moe", seed=0)
    assert res.converged
    assert res.loglik == pytest.approx(loglik, abs=1e-8)


TILTS = (0.05, 1.0, 8.0, 175.0)
LAMS = (0.3, 1.4, 2.9)


def richardson(f, z, steps):
    """Central differences of ``f`` at ``z`` with per-coordinate ``steps``,
    Richardson-extrapolated from h and 2h; row i is the derivative in z[i]."""
    rows = []
    for i, h in enumerate(steps):
        e = np.zeros(z.size)
        e[i] = h
        d1 = (f(z + e) - f(z - e)) / (2.0 * h)
        d2 = (f(z + 2 * e) - f(z - 2 * e)) / (4.0 * h)
        rows.append((4.0 * d1 - d2) / 3.0)
    return np.array(rows)


class TestMarshallOlkinScore:
    def test_loglik_equals_sum_of_log_pdf(self, data_II):
        rows = [(a, lam) for a in TILTS for lam in LAMS]
        ll, _ = _objective(data_II, "moe")(np.log(rows))
        for (a, lam), value in zip(rows, ll):
            direct = float(np.sum(MarshallOlkinExponential(a, lam).log_pdf(data_II)))
            assert value == pytest.approx(direct, rel=1e-12), (a, lam)

    @pytest.mark.parametrize("tilt", TILTS)
    @pytest.mark.parametrize("lam", LAMS)
    def test_score_matches_central_differences(self, data_II, tilt, lam):
        f = _objective(data_II, "moe")
        z = np.log([tilt, lam])
        _, score = f(z[None])
        numeric = richardson(lambda v: f(v[None])[0][0], z, (1e-4, 1e-4))
        assert np.allclose(score[0], numeric, rtol=1e-7, atol=1e-7)

    @pytest.mark.parametrize("tilt", TILTS)
    @pytest.mark.parametrize("lam", LAMS)
    def test_information_matches_differences_of_the_score(self, data_II, tilt, lam):
        # the analytic score in natural coordinates: the log-coordinate score
        # divided by the Jacobian of (log tilt, log lam)
        f = _objective(data_II, "moe")
        theta = np.array([tilt, lam])
        numeric = richardson(lambda t: f(np.log(t)[None])[1][0] / t, theta, 1e-4 * theta)
        info = MODELS["moe"].information(data_II, MarshallOlkinExponential(tilt, lam))
        assert np.allclose(-info, numeric, rtol=1e-7, atol=1e-7)

    def test_batched_hessian(self, data_II):
        # one batched order-2 call over the grid equals the row-by-row calls
        # bit for bit, and its Hessian matches differences of its score
        theta = np.array([(a, lam) for a in TILTS for lam in LAMS])
        batched = moe_loglik_derivatives(data_II, theta, order=2)
        for s, row in enumerate(theta):
            single = moe_loglik_derivatives(data_II, row[None], order=2)
            for whole, one in zip(batched, single):
                assert np.array_equal(whole[s], one[0]), row
        for s, row in enumerate(theta):
            numeric = richardson(
                lambda t: moe_loglik_derivatives(data_II, t[None])[1][0], row, 1e-4 * row
            )
            assert np.allclose(batched[2][s], numeric, rtol=1e-7, atol=1e-7), row
