import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ptgfit.baselines import (
    Exponential,
    MarshallOlkinExponential,
    MomentExponential,
    Weibull,
)
from ptgfit.distributions import pte_params, ptw_params
from ptgfit.expansions import renyi_entropy


def test_exponential_basics():
    e = Exponential(2.0)
    x = np.linspace(0.0, 5.0, 50)
    assert np.allclose(e.cdf(x), 1 - np.exp(-2 * x), atol=1e-15)
    assert np.allclose(e.pdf(x), 2 * np.exp(-2 * x), atol=1e-15)
    assert np.allclose(np.exp(e.log_pdf(x)), e.pdf(x), rtol=1e-13)


def test_weibull_shape_one_is_exponential():
    w = Weibull(1.3, 1.0)
    e = Exponential(1.3)
    assert isinstance(e, Weibull) and e.theta == 1.0
    assert w.mgf_sup() == e.mgf_sup() == 1.3
    x = np.concatenate([[0.0], np.linspace(0.01, 6.0, 59)])
    u = np.concatenate([[0.0, 1.0], np.linspace(0.01, 0.99, 23)])
    cases = [(x, ("cdf", "sf", "log_pdf")), (u, ("quantile", "isf"))]
    for arg, methods in cases:
        # every point as a 0-d input, and all of them as one 2-d input
        for a in [*arg.tolist(), arg.reshape(5, -1)]:
            for name in methods:
                assert np.array_equal(getattr(w, name)(a), getattr(e, name)(a)), (name, a)
    assert np.allclose(w.pdf(x), e.pdf(x), rtol=1e-14)
    # Renyi's rule delta (theta - 1) <= -1 refuses no further delta at theta = 1
    pte, ptw = pte_params(0.5, 2.0, 1.3), ptw_params(0.5, 2.0, 1.3, 1.0)
    for delta in (0.0, -0.5, 1.0, math.inf, math.nan):
        for p in (pte, ptw):
            with pytest.raises(ValueError, match="delta"):
                renyi_entropy(delta, p)
    for delta in (0.05, 0.5, 2.0):
        assert math.isclose(renyi_entropy(delta, pte), renyi_entropy(delta, ptw), rel_tol=1e-12)


@given(
    lam=st.floats(0.1, 10.0),
    theta=st.floats(0.3, 4.0),
    u=st.floats(0.01, 0.99),
)
def test_weibull_quantile_roundtrip(lam, theta, u):
    w = Weibull(lam, theta)
    x = w.quantile(u)
    assert math.isclose(w.cdf(x), u, rel_tol=1e-10)


def test_quantile_cdf_roundtrip_bulk():
    # quantile(cdf(x)) = x to 1e-10 relative in the bulk of the support
    for base in (Exponential(0.5), Weibull(2.0, 1.7), Weibull(0.8, 0.6)):
        x = base.quantile(np.linspace(0.05, 0.95, 19))
        assert np.allclose(base.quantile(base.cdf(x)), x, rtol=1e-10)


def test_cdf_limits():
    for base in (Exponential(1.0), Weibull(1.0, 2.0)):
        assert base.cdf(0.0) == 0.0
        assert base.cdf(1e3) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_positive_parameter_validation(bad):
    with pytest.raises(ValueError):
        Exponential(bad)
    with pytest.raises(ValueError):
        Weibull(bad, 1.0)
    with pytest.raises(ValueError):
        Weibull(1.0, bad)


def test_mgf_boundaries():
    assert Exponential(1.5).mgf_sup() == 1.5
    assert Weibull(1.0, 2.0).mgf_sup() == np.inf
    assert Weibull(1.0, 1.0).mgf_sup() == 1.0
    assert Weibull(1.0, 0.5).mgf_sup() == 0.0


@pytest.mark.parametrize("cls, rows", [
    (Exponential, [(0.3,), (1.0,), (4.0,)]),
    (Weibull, [(0.3, 0.5), (1.0, 1.0), (4.0, 2.5)]),
])
def test_batched_derivatives(cls, rows):
    # derivatives: the values equal the scalar methods row by row, and each
    # parameter derivative matches a central difference of that method; order
    # 2 repeats order 1 bit for bit, and its second derivatives match central
    # differences of the first
    x = np.linspace(0.05, 3.0, 17)
    params = np.array(rows, dtype=float)
    cdf, d_cdf, log_pdf, d_log_pdf, d2_cdf, d2_log_pdf = cls.derivatives(x, params, 2)
    first = cls.derivatives(x, params)
    assert len(first) == 4
    assert all(np.array_equal(a, b) for a, b in zip(first, (cdf, d_cdf, log_pdf, d_log_pdf)))
    for value, deriv, method in ((cdf, d_cdf, "cdf"), (log_pdf, d_log_pdf, "log_pdf")):
        assert value.shape == (len(rows), x.size)
        assert deriv.shape == (len(cls.names), len(rows), x.size)
        for s, row in enumerate(rows):
            assert np.allclose(value[s], getattr(cls(*row), method)(x), rtol=1e-13, atol=1e-15)
            for j in range(len(row)):
                h = 1e-6 * row[j]
                up, down = list(row), list(row)
                up[j] += h
                down[j] -= h
                numeric = (getattr(cls(*up), method)(x) - getattr(cls(*down), method)(x)) / (2 * h)
                assert np.allclose(deriv[j, s], numeric, rtol=1e-6, atol=1e-8)
    q = len(cls.names)
    for k, second in ((1, d2_cdf), (3, d2_log_pdf)):
        assert second.shape == (q, q, len(rows), x.size)
        for j in range(q):
            h = 1e-6 * params[:, j:j + 1]
            up, down = params.copy(), params.copy()
            up[:, j:j + 1] += h
            down[:, j:j + 1] -= h
            numeric = (cls.derivatives(x, up)[k] - cls.derivatives(x, down)[k]) / (2 * h)
            assert np.allclose(second[:, j], numeric, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize(
    "model",
    [Exponential(1.0), Weibull(1.0, 2.0), MomentExponential(1.0),
     MarshallOlkinExponential(2.0, 1.0)],
    ids=["exponential", "weibull", "moment-exponential", "marshall-olkin"],
)
def test_negative_or_nan_x_rejected(model):
    # Weibull(1, 2).pdf(-1) was -0.736, Exponential(1).cdf(-1) was -1.718
    for method in (model.pdf, model.cdf, model.sf, model.log_pdf):
        for bad in (-1.0, np.nan, [0.5, -1e-300]):
            with pytest.raises(ValueError):
                method(bad)
        assert np.isfinite(method(0.5))


@pytest.mark.parametrize("model", [Exponential(1.0), Weibull(1.3, 2.0)],
                         ids=["exponential", "weibull"])
def test_isf_refuses_a_level_outside_the_unit_interval(model):
    # Exponential(1).isf(2.0) was -0.693, and isf(-0.5) NaN with numpy's RuntimeWarning
    for bad in (2.0, -0.5, np.nan, [0.5, 1.5]):
        for method in (model.isf, model.quantile):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                method(bad)
    xt = -np.log(0.3) / model.lam  # the arithmetic before the check
    want = xt if model.theta == 1.0 else xt ** (1.0 / model.theta)
    assert float.hex(float(model.isf(0.3))) == float.hex(float(want))
    assert model.isf(1.0) == 0.0
    # isf(0) warned with numpy's divide by zero, where quantile(1.0), the same point, did not
    assert model.isf(0.0) == model.quantile(1.0) == np.inf


def test_weibull_scalar_forms_are_the_batched_forms(data_I):
    # one formula, x**theta = exp(theta log x): at the dataset-I PT-W estimate
    # 5 of the 72 cdf values and 14 of the log-densities differed in the last
    # bits when cdf and log_pdf took x**theta and xlogy
    from ptgfit.mle import fit

    lam, theta = fit(data_I, "ptw").estimates.baseline.values
    w, params = Weibull(lam, theta), np.array([[lam, theta]])
    cdf, _, log_pdf, _ = Weibull.derivatives(data_I, params)
    assert np.array_equal(w.cdf(data_I), cdf[0])
    assert np.array_equal(w.log_pdf(data_I), log_pdf[0])
    assert np.array_equal(w.pdf(data_I), np.exp(w.log_pdf(data_I)))


def _gamma2_quantile_mpmath(u):
    """The unit-scale gamma(2) quantile, log1p(y) - y = log1p(-u), solved by
    mpmath with enough digits to resolve y^2/2 next to y when u is tiny."""
    import mpmath

    u = mpmath.mpf(u)
    with mpmath.workdps(40 + int(max(0.0, -mpmath.log10(u)))):
        target = mpmath.log1p(-u)
        y = mpmath.findroot(lambda y: mpmath.log1p(y) - y - target, mpmath.sqrt(-2 * target))
        return float(y)


@pytest.mark.parametrize("sigma", [1.0, 2.5])
def test_moment_exponential_quantile_against_mpmath(sigma):
    # seed and bound fixed before the first run: 4e-15 relative, about 18 ulp
    rng = np.random.default_rng(12)
    u = np.concatenate([
        rng.uniform(size=100),
        10.0 ** rng.uniform(-300.0, -12.0, 40),  # u <= 1e-12
        1.0 - 10.0 ** rng.uniform(-16.0, -12.0, 40),  # 1 - u <= 1e-12
    ])
    want = sigma * np.array([_gamma2_quantile_mpmath(v) for v in u])
    assert np.allclose(MomentExponential(sigma).quantile(u), want, rtol=4e-15, atol=0.0)


# 1 - (1 + y) e^-y gave 0.0 and 5.000444502911705e-13 at the two points
@pytest.mark.parametrize("sigma", [1.0, 2.5])
@pytest.mark.parametrize("y", [1e-9, 1e-6])
def test_moment_exponential_cdf_lower_tail_against_mpmath(sigma, y):
    import mpmath

    with mpmath.workdps(50):
        y_mp = mpmath.mpf(y * sigma) / sigma  # the y of the double x
        want = float(-mpmath.expm1(mpmath.log1p(y_mp) - y_mp))
    assert MomentExponential(sigma).cdf(y * sigma) == pytest.approx(want, rel=1e-15)


def test_moment_exponential_cdf_at_zero_is_plus_zero():
    assert math.copysign(1.0, MomentExponential(1.0).cdf(0.0)) == 1.0


def _mp_cdf(model, x):
    """The model's cdf at the double x, from its definition at 360 digits."""
    import mpmath

    x = mpmath.mpf(x)
    if isinstance(model, MomentExponential):
        y = x / mpmath.mpf(model.sigma)
        return 1 - (1 + y) * mpmath.exp(-y)
    if isinstance(model, MarshallOlkinExponential):
        tail = mpmath.exp(-mpmath.mpf(model.lam) * x)
        return (1 - tail) / (1 - (1 - mpmath.mpf(model.tilt)) * tail)
    return 1 - mpmath.exp(-mpmath.mpf(model.lam) * x ** mpmath.mpf(model.theta))


@pytest.mark.parametrize(
    "model",
    [Exponential(1.3), Weibull(1.0, 1.5), MomentExponential(2.5),
     MarshallOlkinExponential(0.3, 1.1)],
    ids=["exponential", "weibull", "moment-exponential", "marshall-olkin"],
)
def test_sf_against_mpmath_in_both_tails(model):
    # the points and the bound were fixed before the first run
    import mpmath

    x = np.array([0.0, 1e-6, 0.3, 2.0, 20.0, 50.0, 300.0])
    got = model.sf(x)
    with mpmath.workdps(360):
        want = [float(1 - _mp_cdf(model, xi)) for xi in x]
    for xi, g, w in zip(x, got, want):
        if w >= np.finfo(float).tiny:
            assert g == pytest.approx(w, rel=1e-12), xi


@pytest.mark.parametrize("tilt", [1e-6, 1e-3])
def test_marshall_olkin_small_tilt_near_zero_against_mpmath(tilt):
    # D = 1 - (1 - tilt) e cancelled near x = 0: sf(0) read 0.9999999999712443
    # at tilt 1e-6.  The points and the sf and cdf bounds were fixed before the
    # first run; the log-density's is absolute, since its terms log tilt and
    # -2 log D cancel to -0.002 at tilt 1e-6, x = 1e-3
    import mpmath

    model = MarshallOlkinExponential(tilt, 1.0)
    x = np.array([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1])
    got = zip(x, model.sf(x), model.cdf(x), model.log_pdf(x))
    with mpmath.workdps(60):
        a = mpmath.mpf(tilt)
        for xi, sf, cdf, log_pdf in got:
            tail = mpmath.exp(-mpmath.mpf(xi))
            denom = 1 - (1 - a) * tail
            assert sf == pytest.approx(float(a * tail / denom), rel=1e-14, abs=0.0), xi
            assert cdf == pytest.approx(float((1 - tail) / denom), rel=1e-14, abs=0.0), xi
            want = mpmath.log(a) - xi - 2 * mpmath.log(denom)
            assert log_pdf == pytest.approx(float(want), rel=0.0, abs=1e-14), xi


def test_moment_exponential_log_pdf_at_zero():
    # x = 0 is admitted; log 0 escaped its errstate as a RuntimeWarning
    assert MomentExponential(1.0).log_pdf(0.0) == -np.inf


@pytest.mark.parametrize(
    "model",
    [Exponential(1.0), Weibull(1.0, 2.0), MomentExponential(1.0),
     MarshallOlkinExponential(2.0, 1.0)],
    ids=["exponential", "weibull", "moment-exponential", "marshall-olkin"],
)
def test_quantile_refuses_bad_levels(model):
    # MarshallOlkinExponential(2, 1).quantile(-0.1) was -0.2007,
    # Exponential(1).quantile(-0.1) was -0.0953 and Weibull(1, 2).quantile(1.5)
    # and MomentExponential(1).quantile(1.5) were NaN
    for bad in (-0.1, 1.5, np.nan, [0.5, np.nan]):
        with pytest.raises(ValueError):
            model.quantile(bad)
    assert model.quantile(0.0) == 0.0 and model.quantile(1.0) == np.inf
    assert np.array_equal(model.quantile([0.0, 1.0]), [0.0, np.inf])
