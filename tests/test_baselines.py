import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ptgfit.baselines import Exponential, Weibull, make_baseline


def test_exponential_basics():
    e = Exponential(2.0)
    x = np.linspace(0.0, 5.0, 50)
    assert np.allclose(e.cdf(x), 1 - np.exp(-2 * x), atol=1e-15)
    assert np.allclose(e.pdf(x), 2 * np.exp(-2 * x), atol=1e-15)
    assert np.allclose(np.exp(e.log_pdf(x)), e.pdf(x), rtol=1e-13)


def test_weibull_shape_one_is_exponential():
    w = Weibull(1.3, 1.0)
    e = Exponential(1.3)
    x = np.linspace(0.01, 6.0, 60)
    assert np.array_equal(w.cdf(x), e.cdf(x))
    assert np.allclose(w.pdf(x), e.pdf(x), rtol=1e-14)
    u = np.linspace(0.01, 0.99, 25)
    assert np.allclose(w.quantile(u), e.quantile(u), rtol=1e-14)


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


def test_make_baseline():
    assert make_baseline("exponential", (2.0,)) == Exponential(2.0)
    assert make_baseline("weibull", (1.0, 2.0)) == Weibull(1.0, 2.0)
    with pytest.raises(ValueError, match="unknown baseline family"):
        make_baseline("gamma", (1.0,))


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
    # d_cdf / d_log_pdf: values equal the scalar methods row by row, and each
    # parameter derivative matches a central difference of that method; d2's
    # second derivatives match central differences of the batched first ones
    x = np.linspace(0.05, 3.0, 17)
    params = np.array(rows, dtype=float)
    for batched, method in ((cls.d_cdf, "cdf"), (cls.d_log_pdf, "log_pdf")):
        value, deriv = batched(x, params)
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
    for batched, second in zip((cls.d_cdf, cls.d_log_pdf), cls.d2(x, params)):
        assert second.shape == (q, q, len(rows), x.size)
        for j in range(q):
            h = 1e-6 * params[:, j:j + 1]
            up, down = params.copy(), params.copy()
            up[:, j:j + 1] += h
            down[:, j:j + 1] -= h
            numeric = (batched(x, up)[1] - batched(x, down)[1]) / (2 * h)
            assert np.allclose(second[:, j], numeric, rtol=1e-6, atol=1e-8)
