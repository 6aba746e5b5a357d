"""The double-exponential rule behind every derived quantity, checked at the
points where earlier rules failed, against mpmath values or frozen values."""

import math

import mpmath
import numpy as np
import pytest

from ptgfit.baselines import Exponential, Weibull
from ptgfit.distributions import (
    PtgParams,
    _poisson_invert,
    _ptg_quantile,
    _tg_invert,
    pte_params,
    ptg_quantile,
    ptw_params,
)
from ptgfit.expansions import (
    QuadratureWarning,
    mean_deviation,
    mgf,
    pwm,
    quad,
    raw_moment,
    renyi_entropy,
    residual_moment,
    reversed_residual_moment,
    stress_strength,
)


def _mp_pte_moment(s, alpha, beta, lam):
    """E[X^s] of PT-E at 40 digits, integrated over x between its quantiles."""
    p = pte_params(alpha, beta, lam)
    cuts = [0.0] + [float(ptg_quantile(u, p)) for u in (1e-6, 0.1, 0.5, 0.9, 0.9999)]
    with mpmath.workdps(40):
        a, b, rate = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(lam)
        c = b / -mpmath.expm1(-b)

        def pdf(x):
            g = -mpmath.expm1(-rate * x)
            t = g * (1 + a - a * g)
            return c * rate * mpmath.exp(-rate * x) * (1 + a - 2 * a * g) * mpmath.exp(-b * t)

        cuts.append(mpmath.inf)
        return float(mpmath.quad(lambda x: x**s * pdf(x), cuts))


class TestRule:
    def test_polynomial_and_endpoint_singularity(self):
        assert quad(lambda u, v: u**3 * v, 0.0, 1.0) == pytest.approx(0.05, rel=1e-13)
        # log(1/v)^4 is unbounded at u = 1; its integral is 4! = 24
        assert quad(lambda u, v: np.log(v) ** 4, 0.0, 1.0) == pytest.approx(24.0, rel=1e-12)

    def test_complement_is_carried_apart(self):
        # on [1 - 1e-12, 1] u has 4 significant digits left above its
        # rounding, and 1 - u as many; v keeps all of them
        a = 1.0 - 1e-12
        width = 1.0 - a  # exact
        assert quad(lambda u, v: v, a, 1.0) == pytest.approx(width**2 / 2.0, rel=1e-12)

    def test_half_line_takes_a_log_integrand(self):
        # the Gamma(301) density: its factor x^300 alone overflows at the peak
        got = quad(lambda x: 300.0 * np.log(x) - x - math.lgamma(301.0), 0.0, np.inf)
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_unresolved_zero_is_not_silent(self):
        # a peak narrower than the finest step: every level sums to 0
        with pytest.warns(QuadratureWarning):
            quad(lambda x: -((x - 700.0) ** 2) * 1e4, 0.0, np.inf)

    def test_reversed_residual_life_at_a_tiny_mass(self):
        # F(t) = 3.5e-200: the density is flat on [0, t], so E[t - X | X <= t]
        # is t/2; the unscaled integral F(t) t / 2 underflowed to 0
        t = 1e-200
        got = reversed_residual_moment(1, t, pte_params(0.5, 2.0, 1.0))
        assert got == pytest.approx(t / 2, rel=1e-10)

    def test_no_convergence_warns(self):
        # an integrand that no level resolves: sign flips at the node scale
        with pytest.warns(QuadratureWarning):
            quad(lambda u, v: np.sign(np.sin(1e6 * u)), 0.0, 1.0)

    @pytest.mark.parametrize("a, b", [
        (0.0, math.nan),  # returned NaN after a QuadratureWarning
        (0.0, -math.inf),  # returned inf after a QuadratureWarning
        (math.nan, 1.0),
        (-math.inf, 1.0),
        (math.inf, math.inf),
    ], ids=["nan_b", "minus_inf_b", "nan_a", "minus_inf_a", "inf_a"])
    def test_refuses_bounds_it_cannot_integrate(self, a, b):
        with pytest.raises(ValueError, match="from a finite a to a finite b or inf"):
            quad(lambda u, v: u, a, b)

    def test_half_line_rule_refuses_a_lower_end_past_zero(self):
        with pytest.raises(ValueError, match=r"the half-line rule integrates over \[0, inf\)"):
            quad(lambda x: -x, 1.0, math.inf)


class TestMpmathOracles:
    def test_fourth_moment_at_beta_30(self):
        # scipy quad's absolute target gave 9.004831e-6 here
        want = 9.004873785192059e-6
        assert _mp_pte_moment(4, 0.5, 30.0, 1.0) == pytest.approx(want, rel=1e-12)
        assert raw_moment(4, pte_params(0.5, 30.0, 1.0)) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize(
        "s, p, want",
        [
            # a u-space rule gave 2.84e93 and 13.07 at these two points
            (30.0, ptw_params(0.5, 1.0, 1.0, 2.0), 8.050636655939194e98),
            (0.99, pte_params(0.5, 2.0, 1.0), 16.92165135774698),
        ],
    )
    def test_mgf(self, s, p, want):
        assert mgf(s, p) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "p, want",
        [
            # alpha = 1: G rounds to 1 in u space and 1 + a - 2aG to 0, which
            # gave inf; mpmath at 40 digits
            (pte_params(1.0, -700.0, 1.0), 1.1447298858494002),
            (ptw_params(1.0, 0.5, 2.0, 1.5), 0.014019742267613559),
        ],
    )
    def test_renyi_at_alpha_one(self, p, want):
        assert renyi_entropy(0.5, p) == pytest.approx(want, rel=1e-12)


# the whole property sheet with scipy's adaptive quadrature, frozen; a rule
# that left 1 - u to rounding gave NaN at both points
SHEETS = {
    (0.8133, -6.5878, 0.841): {
        "md_mean": 0.82132393375163,
        "md_median": 0.7966372682663594,
        "m1": 1.8312217100092796,
        "m2": 4.609212432602704,
        "m3": 15.53135134720055,
        "m4": 68.51456192908068,
        "mgf": 2.541087738234812,
        "mgf_neg": 0.289447332102729,
        "pwm111": 0.0946667209911285,
        "pwm210": 0.9844062098963154,
        "ss_self": 0.5000000000000001,
        "ss": 0.6067645488542838,
        "res0": 1.8312217100092796,
        "res2": 2.1927785961013377,
        "rev": 0.5561014574909139,
        "renyi0.5": 1.6632921320205698,
        "renyi2": 1.122653047451097,
    },
    (0.94, -101.0, 1.64): {
        "md_mean": 0.4359786702193904,
        "md_median": 0.4228667353878315,
        "m1": 1.8504894565048797,
        "m2": 3.776218246957289,
        "m3": 8.651416289308086,
        "m4": 22.669714710789396,
        "mgf": 5.424337438482971,
        "mgf_neg": 0.06613420171465056,
        "pwm111": 0.044227588075861766,
        "pwm210": 0.1938361342453185,
        "ss_self": 0.499999999999998,
        "ss": 0.715431677952539,
        "res0": 1.8504894565048797,
        "res2": 0.6138324087944611,
        "rev": 0.29506667337863507,
        "renyi0.5": 1.0396058070760954,
        "renyi2": 0.4895010072114774,
    },
}


@pytest.mark.parametrize("theta", list(SHEETS), ids=["optimum-I", "beta-101"])
def test_sheet_at_the_optima(theta):
    p, strength = pte_params(*theta), pte_params(theta[0], theta[1], theta[2] * 1.25)
    lam, median = theta[2], float(ptg_quantile(0.5, p))
    got = {
        "md_mean": mean_deviation("mean", p),
        "md_median": mean_deviation("median", p),
        **{f"m{s}": raw_moment(s, p) for s in (1, 2, 3, 4)},
        "mgf": mgf(0.5 * lam, p),
        "mgf_neg": mgf(-lam, p),
        "pwm111": pwm(1, 1, 1, p),
        "pwm210": pwm(2, 1, 0, p),
        "ss_self": stress_strength(p, p),
        "ss": stress_strength(p, strength),
        "res0": residual_moment(1, 0.0, p),
        "res2": residual_moment(2, median, p),
        "rev": reversed_residual_moment(1, median, p),
        "renyi0.5": renyi_entropy(0.5, p),
        "renyi2": renyi_entropy(2.0, p),
    }
    for key, want in SHEETS[theta].items():
        assert math.isfinite(got[key]), key
        assert got[key] == pytest.approx(want, rel=1e-8), key


BASELINES = [Exponential(1.3), Weibull(0.7, 1.8)]
TAIL_BETAS = [-7910.0, -700.0, -101.0, -6.6, 1e-6, 30.0, 700.0, 7910.0]


class TestUpperTailQuantile:
    @pytest.mark.parametrize("base", BASELINES, ids=["exponential", "weibull"])
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("beta", TAIL_BETAS)
    def test_matches_quantile_and_stays_finite(self, beta, alpha, base):
        p = PtgParams(alpha, beta, base)
        v = np.array([0.5, 0.2, 0.05])
        # the lower-tail closed form, written out
        want = p.baseline.quantile(_tg_invert(_poisson_invert(1.0 - v, p.beta), p.alpha))
        assert np.allclose(_ptg_quantile(1.0 - v, v, p), want, rtol=1e-9, atol=0.0)
        far = _ptg_quantile(np.array([1.0]), np.array([1e-300]), p)
        near = _ptg_quantile(np.array([1.0 - 1e-3]), np.array([1e-3]), p)
        assert np.isfinite(far[0]) and far[0] > near[0]

    @pytest.mark.parametrize("alpha, beta", [(0.5, 30.0), (-1.0, -101.0), (1.0, 700.0)])
    @pytest.mark.parametrize("v", [1e-30, 1e-300])
    def test_against_mpmath_where_one_minus_v_rounds_to_one(self, alpha, beta, v):
        lam = 1.3
        with mpmath.workdps(60):
            b, a = mpmath.mpf(beta), mpmath.mpf(alpha)
            t_bar = mpmath.log1p(mpmath.mpf(v) * mpmath.expm1(b)) / b
            # 1 - T = H (1 - a + a H) in H = 1 - G
            guess = mpmath.sqrt(t_bar) if a == 1 else t_bar / (1 - a)
            h = mpmath.findroot(lambda h: h * (1 - a + a * h) - t_bar, guess)
            want = float(-mpmath.log(h) / lam)
        got = _ptg_quantile(np.array([1.0 - v]), np.array([v]), pte_params(alpha, beta, lam))[0]
        assert got == pytest.approx(want, rel=1e-12)
