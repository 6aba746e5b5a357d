"""Acceptance suite: every quantitative and property gate in one place.

Each test prints one PASS/FAIL line per criterion (run with ``pytest -s``
to see them inline).  Three clauses concerning the relief-times dataset are
strict expected failures: the published parameter rows for that dataset are
internally inconsistent with their own criterion values (details in the
test reasons and in the package README), and the assertions are kept as
stated rather than weakened.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ptgfit.baselines import Exponential, Weibull
from ptgfit.competitors import fit_competitor
from ptgfit.data import describe, embedded_dataset
from ptgfit.distributions import (
    PtgParams,
    pte_params,
    ptg_cdf,
    ptg_hrf,
    ptg_pdf,
    ptg_quantile,
    ptg_sample,
)
from ptgfit.expansions import (
    order_stat_pdf,
    renyi_entropy,
    residual_moment,
    stress_strength,
    raw_moment,
)
from ptgfit.gof import evaluate_gof
from ptgfit.mle import log_likelihood
from ptgfit.series import (
    delta_coeffs,
    series_cdf,
    series_order_stat_pdf,
    series_pdf,
    series_tail_bound,
    xi_coeffs,
)


def _report(name, checks):
    """Print one PASS/FAIL line for a criterion and assert all its clauses."""
    failed = [(label, detail) for label, ok, detail in checks if not ok]
    print(f"[{'FAIL' if failed else 'PASS'}] {name}")
    for label, detail in failed:
        print(f"       {label}: {detail}")
    assert not failed, f"{name}: " + "; ".join(label for label, _ in failed)


@pytest.fixture(scope="module")
def gof_pte_I(data_I, fit_I):
    return evaluate_gof(
        data_I, lambda x: ptg_cdf(x, fit_I.estimates), fit_I.k, fit_I.loglik
    )


@pytest.fixture(scope="module")
def gof_pte_II(data_II, fit_II):
    return evaluate_gof(
        data_II, lambda x: ptg_cdf(x, fit_II.estimates), fit_II.k, fit_II.loglik
    )


def _within(value, ref, tol, label):
    return (label, abs(value - ref) <= tol, f"{value:.6g} vs {ref} (tol {tol})")


# ---------------------------------------------------------------------------
# 1. descriptive statistics
# ---------------------------------------------------------------------------


def test_criterion_1_descriptive_statistics():
    st2 = describe(embedded_dataset("relief_times_II"))
    st1 = describe(embedded_dataset("guinea_pigs_I"))
    checks = [("II n", st2.n == 20, st2.n)]
    for field, ref in (
        ("min", 1.100), ("mean", 1.900), ("median", 1.700), ("sd", 0.704),
        ("q1", 1.475), ("q3", 2.050), ("max", 4.100),
    ):
        checks.append(_within(getattr(st2, field), ref, 5e-4, f"II {field}"))
    checks.append(("I n", st1.n == 72, st1.n))
    for field, ref in (
        ("min", 0.100), ("mean", 1.851), ("median", 1.560), ("sd", 1.200),
        ("skewness", 1.788), ("kurtosis", 4.157), ("q1", 1.080),
        ("q3", 2.303), ("max", 7.000),
    ):
        checks.append(_within(getattr(st1, field), ref, 1e-3, f"I {field}"))
    _report("criterion 1: reference descriptive statistics", checks)


# ---------------------------------------------------------------------------
# 2-3. PT-E fits
# ---------------------------------------------------------------------------


def test_criterion_2_pte_fit_guinea_pigs(fit_I, gof_pte_I):
    a, b, lam = fit_I.estimates.values
    checks = [
        _within(a, 0.813, 0.05, "alpha"),
        _within(b, -6.587, 0.3, "beta"),
        _within(lam, 0.841, 0.05, "lam"),
        _within(gof_pte_I.aic, 202.09, 0.5, "aic"),
        _within(gof_pte_I.bic, 208.92, 0.5, "bic"),
        _within(gof_pte_I.caic, 202.44, 0.5, "caic"),
        _within(gof_pte_I.hqic, 204.81, 0.5, "hqic"),
    ]
    for se, ref, name in zip(fit_I.std_errors, (0.182, 1.448, 0.192),
                             ("se_alpha", "se_beta", "se_lam")):
        checks.append((name, abs(se - ref) / ref <= 0.25, f"{se:.4g} vs {ref}"))
    _report("criterion 2: PT-E fit on the guinea-pig data", checks)


def test_criterion_3_pte_fit_relief_aic(gof_pte_II):
    _report(
        "criterion 3 (criteria part): PT-E AIC on the relief-times data",
        [_within(gof_pte_II.aic, 36.84, 0.5, "aic")],
    )


@pytest.mark.xfail(
    strict=True,
    reason="unattainable: the published relief-times estimates (0.301, -9.997, "
    "1.555) are not the likelihood optimum of the published data (log-likelihood "
    "-20.93 there vs -15.56 at the optimum near (0.94, -101, 1.64); -9.997 sits "
    "at the edge of a [-10, 10] search box).  The AIC clause above does pass.",
)
def test_criterion_3_pte_fit_relief_parameters(fit_II):
    a, b, lam = fit_II.estimates.values
    _report(
        "criterion 3 (parameter part): PT-E estimates on the relief-times data",
        [
            _within(a, 0.301, 0.05, "alpha"),
            _within(b, -9.997, 0.5, "beta"),
            _within(lam, 1.555, 0.08, "lam"),
        ],
    )


# ---------------------------------------------------------------------------
# 4. goodness of fit
# ---------------------------------------------------------------------------


def test_criterion_4_gof_guinea_pigs(gof_pte_I):
    _report(
        "criterion 4 (guinea pigs): PT-E EDF statistics",
        [
            _within(gof_pte_I.ks, 0.07, 0.01, "ks"),
            _within(gof_pte_I.ks_pvalue, 0.86, 0.05, "ks p"),
            _within(gof_pte_I.ad, 0.36, 0.03, "A"),
            _within(gof_pte_I.cvm, 0.05, 0.01, "W"),
        ],
    )


def test_criterion_4_gof_relief_ks(gof_pte_II):
    _report(
        "criterion 4 (relief times, KS): PT-E EDF statistics",
        [_within(gof_pte_II.ks, 0.11, 0.01, "ks")],
    )


@pytest.mark.xfail(
    strict=True,
    reason="unattainable: the published A/W values for the relief-times PT-E row "
    "correspond to neither the published estimates (A 2.39, W 0.48 there) nor "
    "the actual optimum (A 0.187, W 0.028); KS does reproduce at the optimum.",
)
def test_criterion_4_gof_relief_ad_cvm(gof_pte_II):
    _report(
        "criterion 4 (relief times, A/W): PT-E EDF statistics",
        [
            _within(gof_pte_II.ad, 0.37, 0.03, "A"),
            _within(gof_pte_II.cvm, 0.04, 0.01, "W"),
        ],
    )


# ---------------------------------------------------------------------------
# 5-6. competitors and ranking
# ---------------------------------------------------------------------------


def test_criterion_5_competitors(data_I, data_II):
    exp_i = fit_competitor(data_I, "exp")
    exp_ii = fit_competitor(data_II, "exp")
    me_i = fit_competitor(data_I, "me")
    me_ii = fit_competitor(data_II, "me")
    moe_i = fit_competitor(data_I, "moe", seed=0)
    moe_aic = -2.0 * moe_i.loglik + 4.0
    _report(
        "criterion 5: competitor fits",
        [
            _within(exp_i.estimates.lam, 0.540, 1e-3, "Exp lam (I)"),
            _within(exp_ii.estimates.lam, 0.526, 1e-3, "Exp lam (II)"),
            _within(me_i.estimates.sigma, 0.925, 1e-3, "ME sigma (I)"),
            _within(me_ii.estimates.sigma, 0.950, 1e-3, "ME sigma (II)"),
            _within(moe_i.estimates.tilt, 8.778, 0.8, "MO-E tilt (I)"),
            _within(moe_i.estimates.lam, 1.379, 0.1, "MO-E lam (I)"),
            _within(moe_aic, 210.36, 0.5, "MO-E AIC (I)"),
        ],
    )


def test_criterion_6_aic_ranking(data_I, data_II, gof_pte_I, gof_pte_II):
    checks = []
    for tag, data, pte_aic in (
        ("I", data_I, gof_pte_I.aic),
        ("II", data_II, gof_pte_II.aic),
    ):
        others = []
        for comp in ("exp", "me", "moe"):
            cfit = fit_competitor(data, comp, seed=0)
            others.append(-2.0 * cfit.loglik + 2.0 * cfit.k)
        checks.append(
            (
                f"dataset {tag}",
                pte_aic < min(others),
                f"PT-E {pte_aic:.2f} vs best competitor {min(others):.2f}",
            )
        )
    _report("criterion 6: PT-E has strictly minimal AIC", checks)


# ---------------------------------------------------------------------------
# 7. distribution validity grid
# ---------------------------------------------------------------------------


def test_criterion_7_distribution_validity_grid():
    checks = []
    u_grid = np.linspace(0.001, 0.999, 41)
    for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0):
        for beta in (-6.6, -2.0, -0.5, 0.5, 2.0, 6.6):
            for base in (Exponential(1.0), Weibull(1.2, 1.6)):
                p = PtgParams(alpha, beta, base)
                tag = f"a={alpha} b={beta} {type(base).__name__}"
                norm = quad(lambda x: ptg_pdf(x, p), 0, np.inf, limit=200)[0]
                x = ptg_quantile(u_grid, p)
                roundtrip = float(np.max(np.abs(ptg_cdf(x, p) - u_grid)))
                xs = np.sort(x)
                monotone = bool(np.all(np.diff(ptg_cdf(xs, p)) >= -1e-14))
                x_in = ptg_quantile(np.linspace(0.05, 0.95, 19), p)
                hrf_gap = float(
                    np.max(
                        np.abs(
                            ptg_hrf(x_in, p) * (1 - ptg_cdf(x_in, p)) - ptg_pdf(x_in, p)
                        )
                    )
                )
                ok = (
                    abs(norm - 1) <= 1e-8
                    and roundtrip <= 1e-9
                    and monotone
                    and hrf_gap <= 1e-10
                )
                if not ok:
                    checks.append(
                        (tag, False, f"norm {norm}, rt {roundtrip}, hrf {hrf_gap}")
                    )
    checks.append(("grid", True, ""))
    _report("criterion 7: distribution validity across the parameter grid", checks)


# ---------------------------------------------------------------------------
# 8-9. series cross-checks
# ---------------------------------------------------------------------------


def test_criterion_8_series_equivalence():
    checks = []
    for alpha in (-0.9, -0.3, 0.3, 0.9):
        for beta in (-6.6, -2.0, -0.5, 0.5, 2.0, 6.6):
            for base in (Exponential(1.0), Weibull(1.2, 1.6)):
                p = PtgParams(alpha, beta, base)
                n = 0
                while series_tail_bound(beta, n) > 1e-8:
                    n += 1
                xs = ptg_quantile(np.linspace(0.05, 0.95, 19), p)
                tail = series_tail_bound(beta, n)
                geo = 1.0 / (1.0 - abs(beta) / (n + 2))
                from ptgfit.distributions import tg_pdf

                g_max = float(np.max(tg_pdf(xs, alpha, base)))
                pdf_err = float(np.max(np.abs(series_pdf(xs, p, n) - ptg_pdf(xs, p))))
                cdf_err = float(np.max(np.abs(series_cdf(xs, p, n) - ptg_cdf(xs, p))))
                if not (pdf_err <= tail * abs(beta) * geo * g_max and cdf_err <= tail * geo):
                    checks.append(
                        (f"a={alpha} b={beta} {type(base).__name__}", False,
                         f"pdf {pdf_err}, cdf {cdf_err}, tail {tail}")
                    )
    for beta in (-10.0, -6.6, -0.5, 0.5, 6.6, 10.0):
        d = delta_coeffs(beta, 200)
        x = xi_coeffs(beta, 200)
        s1 = math.fsum(d[i] / (i + 1) for i in range(d.size))
        s2 = math.fsum(x)
        checks.append(_within(s1, 1.0, 1e-12, f"sum delta b={beta}"))
        checks.append(_within(s2, 1.0, 1e-12, f"sum xi b={beta}"))
    _report("criterion 8: series forms match the closed forms", checks)


def test_criterion_9_order_statistic_series():
    checks = []
    p = pte_params(0.5, 1.0, 1.0)
    xs = np.linspace(0.1, 4.0, 25)
    gap = float(
        np.max(
            np.abs(
                series_order_stat_pdf(xs, 2, 4, p) - order_stat_pdf(xs, 2, 4, p)
            )
        )
    )
    checks.append(("order stats series vs direct", gap <= 1e-6, f"gap {gap}"))
    _report("criterion 9: order-statistic series", checks)


# ---------------------------------------------------------------------------
# 10. stress-strength
# ---------------------------------------------------------------------------


def test_criterion_10_stress_strength():
    p1 = pte_params(0.3, 1.0, 1.0)
    p2 = pte_params(0.3, 1.0, 2.0)
    r_self = stress_strength(p1, p1)
    r12 = stress_strength(p1, p2)
    r21 = stress_strength(p2, p1)
    x1 = ptg_sample(10_000_000, p1, 555)
    x2 = ptg_sample(10_000_000, p2, 556)
    # the reliability integral is the probability that the p2 variate falls
    # below the p1 variate
    mc = float(np.mean(x2 < x1))
    sigma = math.sqrt(mc * (1 - mc) / x1.size)
    _report(
        "criterion 10: stress-strength reliability",
        [
            _within(r_self, 0.5, 1e-9, "R(p,p)"),
            _within(r12 + r21, 1.0, 1e-9, "complement"),
            _within(r12, mc, 3 * sigma, "Monte Carlo"),
        ],
    )


# ---------------------------------------------------------------------------
# 11-12. sampling and MLE self-consistency
# ---------------------------------------------------------------------------


def test_criterion_11_sampling_ks(fit_I, fit_II):
    from ptgfit.gof import ks_test

    checks = []
    for tag, res, seed in (("I", fit_I, 1001), ("II", fit_II, 1002)):
        draws = ptg_sample(100_000, res.estimates, seed)
        _, pval = ks_test(draws, lambda v: ptg_cdf(v, res.estimates))
        checks.append((f"dataset {tag} fit", pval > 0.01, f"p = {pval:.4f}"))
    _report("criterion 11: simulated samples pass the KS gate", checks)


def test_criterion_12_mle_self_consistency(synthetic_fit, data_I):
    truth, x, res = synthetic_fit
    checks = []
    for est, se, true_val, name in zip(
        res.estimates.values, res.std_errors, truth.values, res.param_names
    ):
        checks.append(
            (f"recovery {name}", abs(est - true_val) <= 3 * se,
             f"{est:.4g} vs {true_val} (se {se:.4g})")
        )
    a_hat, b_hat, lam_hat = res.estimates.values
    z = np.array([math.atanh(a_hat), b_hat, math.log(lam_hat)])

    def ll(zv):
        return log_likelihood(x, pte_params(math.tanh(zv[0]), zv[1], math.exp(zv[2])))

    grad = []
    for i in range(3):
        h = 1e-6 * max(1.0, abs(z[i]))
        e = np.zeros(3)
        e[i] = h
        grad.append((ll(z + e) - ll(z - e)) / (2 * h))
    checks.append(
        ("gradient at optimum", float(np.max(np.abs(grad))) < 1e-3,
         f"max |grad| = {np.max(np.abs(grad)):.2e}")
    )
    c = 2.9
    p0 = pte_params(0.6, -2.0, 1.1)
    p_scaled = pte_params(0.6, -2.0, 1.1 / c)
    shift = log_likelihood(c * data_I, p_scaled) - log_likelihood(data_I, p0)
    checks.append(
        _within(shift, -data_I.size * math.log(c), 1e-8, "scale equivariance")
    )
    _report("criterion 12: MLE self-consistency", checks)


# ---------------------------------------------------------------------------
# 13. residual life and entropy limits
# ---------------------------------------------------------------------------


def test_criterion_13_residual_life_and_entropy_limits():
    p = pte_params(0.5, 2.0, 1.0)
    m1_zero = residual_moment(1, 0.0, p)
    mean = raw_moment(1, p)
    p_exp = pte_params(0.0, 1e-6, 2.0)
    memoryless = [abs(residual_moment(1, t, p_exp) - 0.5) for t in (0.3, 1.0, 3.0)]
    p_unit = pte_params(0.0, 1e-6, 1.0)
    renyi_gap = abs(renyi_entropy(2.0, p_unit) - math.log(2.0))
    _report(
        "criterion 13: residual life and entropy limits",
        [
            _within(m1_zero, mean, 1e-8, "m1(0) = mean"),
            ("memorylessness", max(memoryless) <= 1e-4, f"max gap {max(memoryless):.2e}"),
            ("Renyi exponential limit", renyi_gap <= 1e-3, f"gap {renyi_gap:.2e}"),
        ],
    )
