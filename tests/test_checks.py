"""The input checks of baselines, distributions, data and mle at every input
rank: each refuses a NaN, a negative x or an out-of-range level with its
message, in a Python float, a numpy scalar, a 1-d and a 2-d array alike, and
a scalar input gives a Python float back."""

import math

import numpy as np
import pytest

from ptgfit.baselines import Exponential, MarshallOlkinExponential, MomentExponential, Weibull
from ptgfit.data import check_sample
from ptgfit.distributions import (
    _split,
    pte_params,
    ptg_cdf,
    ptg_hrf,
    ptg_log_pdf,
    ptg_pdf,
    ptg_quantile,
    ptg_sf,
    ptw_params,
    tg_cdf,
    tg_pdf,
    tg_quantile,
)
from ptgfit.mle import log_likelihood

P = pte_params(0.5, 2.0, 1.0)
BASELINES = [Exponential(1.5), Weibull(1.2, 1.6), MomentExponential(1.5),
             MarshallOlkinExponential(8.0, 1.4)]


def _ranks(good, bad):
    """``bad`` as a Python float and a numpy scalar, and beside ``good`` in a
    1-d and a 2-d array."""
    return [bad, np.float64(bad), np.array([good, bad]), np.array([[good, good], [bad, good]])]


RANK_IDS = ["float", "float64", "1d", "2d"]

X_MESSAGE = r"x must be nonnegative \(and not NaN\)"
X_CHECKS = (
    [(f"{type(b).__name__}.{m}", getattr(b, m)) for b in BASELINES
     for m in ("pdf", "cdf", "sf", "log_pdf")]
    + [(f.__name__, lambda x, f=f: f(x, P)) for f in (ptg_cdf, ptg_sf, ptg_pdf, ptg_log_pdf, ptg_hrf)]
    + [(f.__name__, lambda x, f=f: f(x, 0.5, Weibull(1.2, 1.6))) for f in (tg_cdf, tg_pdf)]
)


@pytest.mark.parametrize("name, check", X_CHECKS, ids=[name for name, _ in X_CHECKS])
@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan], ids=["negative", "tiny", "nan"])
@pytest.mark.parametrize("rank", range(4), ids=RANK_IDS)
def test_x_checks_refuse_negative_and_nan(name, check, bad, rank):
    with pytest.raises(ValueError, match=X_MESSAGE):
        check(_ranks(0.5, bad)[rank])


@pytest.mark.parametrize("name, check", X_CHECKS, ids=[name for name, _ in X_CHECKS])
def test_x_checks_keep_the_rank(name, check):
    assert np.shape(check(np.array([[0.0, 0.5], [2.0, 3.0]]))) == (2, 2)
    for x in (0.5, np.float64(0.5), np.array(0.5)):
        out = check(x)
        # the PT-G and transmuted functions return a Python float
        assert type(out) is float if "." not in name else np.ndim(out) == 0


@pytest.mark.parametrize("model", BASELINES, ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("bad", [-0.25, 1.0 + 1e-15, math.nan], ids=["below", "above", "nan"])
@pytest.mark.parametrize("rank", range(4), ids=RANK_IDS)
def test_baseline_quantile_refuses_levels_outside_0_1(model, bad, rank):
    with pytest.raises(ValueError, match=r"u must lie in \[0, 1\] \(and not be NaN\)"):
        model.quantile(_ranks(0.5, bad)[rank])


@pytest.mark.parametrize("model", BASELINES, ids=lambda m: type(m).__name__)
def test_baseline_quantile_takes_the_closed_interval(model):
    x = model.quantile(np.array([[0.0, 0.25], [0.75, 1.0]]))
    assert x.shape == (2, 2) and x[0, 0] == 0.0 and x[1, 1] == np.inf


QUANTILES = [("ptg_quantile", lambda u: ptg_quantile(u, P)),
             ("ptw_quantile", lambda u: ptg_quantile(u, ptw_params(-0.5, -6.0, 1.2, 1.6))),
             ("tg_quantile", lambda u: tg_quantile(u, 0.5, Weibull(1.2, 1.6)))]


@pytest.mark.parametrize("name, quantile", QUANTILES, ids=[name for name, _ in QUANTILES])
@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, math.nan])
@pytest.mark.parametrize("rank", range(4), ids=RANK_IDS)
def test_quantiles_refuse_levels_outside_the_open_interval(name, quantile, bad, rank):
    with pytest.raises(ValueError, match=r"u must lie strictly inside \(0, 1\) \(and not be NaN\)"):
        quantile(_ranks(0.5, bad)[rank])


@pytest.mark.parametrize("name, quantile", QUANTILES, ids=[name for name, _ in QUANTILES])
@pytest.mark.parametrize("u", [0.25, 0.5, 0.75])
def test_quantiles_keep_scalars_scalar(name, quantile, u):
    for level in (u, np.float64(u), np.array(u)):
        assert type(quantile(level)) is float
    # an array keeps its shape; a scalar's power is libm's, not the array
    # loop's, so the values agree to rounding
    want = quantile(u)
    assert quantile(np.array([u, u])) == pytest.approx([want, want], rel=1e-15)
    assert quantile(np.full((2, 3), u)).shape == (2, 3)


class TestSplit:
    """``_split`` sends each level to the lower form up to u = 1/2 and to the
    upper form above it; a 0-d level goes whole to one side."""

    @staticmethod
    def _sides(u):
        u = np.asarray(u, dtype=float)
        calls = []

        def side(tag):
            def form(w):
                calls.append((tag, np.ndim(w), np.shape(w)))
                return np.full(np.shape(w), 1.0 if tag == "lower" else 2.0)
            return form

        x = _split(u, 1.0 - u, side("lower"), side("upper"))
        return x, calls

    @pytest.mark.parametrize("u, tag", [(0.25, "lower"), (0.5, "lower"), (0.75, "upper")])
    def test_zero_d_level_goes_whole_to_one_side(self, u, tag):
        x, calls = self._sides(u)
        assert calls == [(tag, 0, ())]
        assert np.ndim(x) == 0 and float(x) == (1.0 if tag == "lower" else 2.0)

    @pytest.mark.parametrize("u, tag", [([0.1, 0.5], "lower"), ([[0.6, 0.9]], "upper")])
    def test_one_sided_array_makes_one_call(self, u, tag):
        x, calls = self._sides(u)
        assert calls == [(tag, np.ndim(u), np.shape(u))]
        assert x.shape == np.shape(u)

    def test_mixed_array_splits_by_level(self):
        u = np.array([[0.1, 0.7], [0.5, 0.9]])
        x, calls = self._sides(u)
        assert calls == [("lower", 1, (2,)), ("upper", 1, (2,))]
        assert x.tolist() == [[1.0, 2.0], [1.0, 2.0]]


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("rank", range(4), ids=RANK_IDS)
def test_check_sample_refuses_at_every_rank(bad, rank):
    with pytest.raises(ValueError, match="nonempty, finite and strictly positive"):
        check_sample(_ranks(1.0, bad)[rank])


@pytest.mark.parametrize("bad", [-1.0, math.nan])
@pytest.mark.parametrize("rank", range(4), ids=RANK_IDS)
def test_log_likelihood_refuses_at_every_rank(bad, rank):
    with pytest.raises(ValueError, match=r"data must be nonnegative \(and not NaN\)"):
        log_likelihood(_ranks(1.0, bad)[rank], P)


def test_log_likelihood_takes_every_rank():
    x = np.array([[0.5, 1.0], [2.0, 0.25]])
    want = log_likelihood(x.ravel(), P)
    assert log_likelihood(x, P) == want
    assert log_likelihood(0.5, P) == log_likelihood(np.float64(0.5), P) == ptg_log_pdf(0.5, P)


@pytest.mark.parametrize("rank", range(4), ids=RANK_IDS)
def test_hazard_refuses_an_underflowed_survival_at_every_rank(rank):
    # 1 - G(800) = exp(-800) underflows to 0 for the unit-rate exponential
    with pytest.raises(ValueError, match="hazard undefined where the survival function underflows"):
        ptg_hrf(_ranks(0.5, 800.0)[rank], P)
