"""End-to-end reproduction of the reference analyses on the embedded datasets.

Fits the exponential, moment exponential, Marshall-Olkin exponential and
PT-exponential models on both embedded datasets, computes descriptive
statistics and goodness-of-fit criteria, and compares every quantity with a
stated tolerance against the published reference value.  Published criterion
values for seven further generalized-exponential families are carried along
as context constants (those families are not implemented here).

Known discrepancy, documented rather than hidden: for the relief-times
dataset the published PT-E parameter row is internally inconsistent.  At the
published estimates (0.301, -9.997, 1.555) the log-likelihood is -20.93,
which contradicts the published AIC of 36.84 (log-likelihood -15.42); the
published KS/A/W values are likewise irreproducible at those estimates.  The
actual likelihood maximum lies near (0.94, -101, 1.64) and does reproduce
the published AIC within 0.3 and KS within 0.01.  The parameter and A/W
gates for that dataset therefore fail by construction; the corresponding
exit status is the honest outcome.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .competitors import fit_competitor  # noqa: F401  (rebound by perfbench/tracing.py)
from .data import describe, embedded_dataset
from .distributions import ptg_cdf  # noqa: F401  (rebound by perfbench/tracing.py)
from .gof import evaluate_gof
from .mle import FitOptions, fit

__all__ = ["Gate", "ReproductionReport", "run_reproduction", "REFERENCE_CONSTANTS"]


# Published criterion values (AIC, BIC, CAIC, HQIC, A, W, KS, KS p-value)
# for the seven out-of-scope competitor families, context only.
REFERENCE_CONSTANTS = {
    "I": {
        "GMO-E": (210.54, 217.38, 210.89, 213.24, 1.02, 0.16, 0.09, 0.51),
        "Kw-E": (209.42, 216.24, 209.77, 212.12, 0.74, 0.11, 0.08, 0.50),
        "B-E": (207.38, 214.22, 207.73, 210.08, 0.98, 0.15, 0.11, 0.34),
        "MOKw-E": (209.44, 218.56, 210.04, 213.04, 0.79, 0.12, 0.10, 0.44),
        "KwMO-E": (207.82, 216.94, 208.42, 211.42, 0.61, 0.11, 0.08, 0.73),
        "BP-E": (205.42, 214.50, 206.02, 209.02, 0.55, 0.08, 0.09, 0.81),
        "KwP-E": (206.63, 215.74, 207.23, 210.26, 0.48, 0.07, 0.09, 0.79),
    },
    "II": {
        "GMO-E": (42.75, 45.74, 44.25, 43.34, 0.51, 0.08, 0.15, 0.78),
        "Kw-E": (41.78, 44.75, 43.28, 42.32, 0.45, 0.07, 0.14, 0.86),
        "B-E": (43.48, 46.45, 44.98, 44.02, 0.70, 0.12, 0.16, 0.80),
        "MOKw-E": (41.58, 45.54, 44.25, 42.30, 0.60, 0.11, 0.14, 0.87),
        "KwMO-E": (42.88, 46.84, 45.55, 43.60, 1.08, 0.19, 0.15, 0.86),
        "BP-E": (38.07, 42.02, 40.73, 38.78, 0.39, 0.06, 0.14, 0.91),
        "KwP-E": (38.32, 42.28, 40.98, 39.04, 0.41, 0.05, 0.13, 0.93),
    },
}

_DESCRIPTIVE_REFERENCE = {
    # n, min, mean, median, sd, skewness, kurtosis, q1, q3, max / tolerance
    "I": ((72, 0.100, 1.851, 1.560, 1.200, 1.788, 4.157, 1.080, 2.303, 7.000), 0.001),
    "II": ((20, 1.100, 1.900, 1.700, 0.704, 1.592, 2.346, 1.475, 2.050, 4.100), 0.0005),
}

_STAT_FIELDS = ("n", "min", "mean", "median", "sd", "skewness", "kurtosis", "q1", "q3", "max")

# the published tables truncate rather than round the moment ratios, so
# skewness/kurtosis carry the looser formula-variant tolerance
_MOMENT_RATIO_TOL = 0.05

# (quantity, reference, absolute tolerance) per (model, dataset) fit
_FIT_REFERENCE = {
    ("exp", "I"): [("lam", 0.540, 0.001)],
    ("exp", "II"): [("lam", 0.526, 0.001)],
    ("me", "I"): [("sigma", 0.925, 0.001)],
    ("me", "II"): [("sigma", 0.950, 0.001)],
    ("moe", "I"): [("tilt", 8.778, 0.8), ("lam", 1.379, 0.1), ("aic", 210.36, 0.5)],
    ("moe", "II"): [("tilt", 54.474, 8.0), ("lam", 2.316, 0.2), ("aic", 43.51, 0.5)],
    ("pte", "I"): [
        ("alpha", 0.813, 0.05),
        ("beta", -6.587, 0.3),
        ("lam", 0.841, 0.05),
        ("se_alpha", 0.182, 0.25 * 0.182),
        ("se_beta", 1.448, 0.25 * 1.448),
        ("se_lam", 0.192, 0.25 * 0.192),
        ("aic", 202.09, 0.5),
        ("bic", 208.92, 0.5),
        ("caic", 202.44, 0.5),
        ("hqic", 204.81, 0.5),
        ("ks", 0.07, 0.01),
        ("ks_pvalue", 0.86, 0.05),
        ("ad", 0.36, 0.03),
        ("cvm", 0.05, 0.01),
    ],
    ("pte", "II"): [
        ("alpha", 0.301, 0.05),
        ("beta", -9.997, 0.5),
        ("lam", 1.555, 0.08),
        ("aic", 36.84, 0.5),
        ("ks", 0.11, 0.01),
        ("ad", 0.37, 0.03),
        ("cvm", 0.04, 0.01),
    ],
}

_DATASET_IDS = {"I": "guinea_pigs_I", "II": "relief_times_II"}


@dataclass(frozen=True)
class Gate:
    """One reproduction check: a computed value against its reference."""

    table: str
    dataset: str
    model: str
    quantity: str
    computed: float
    reference: float
    tol: float
    passed: bool

    @property
    def label(self):
        model = f" {self.model}" if self.model else ""
        return f"{self.table}[{self.dataset}]{model}.{self.quantity}"


@dataclass
class ReproductionReport:
    gates: list = field(default_factory=list)
    descriptives: dict = field(default_factory=dict)
    fit_rows: dict = field(default_factory=dict)
    gof_rows: dict = field(default_factory=dict)
    reference_constants: dict = field(default_factory=lambda: REFERENCE_CONSTANTS)
    elapsed_seconds: float = 0.0

    @property
    def all_passed(self):
        return all(g.passed for g in self.gates)

    @property
    def failures(self):
        return [g for g in self.gates if not g.passed]


def _abs_gate(gates, table, dataset, model, quantity, computed, reference, tol):
    gates.append(
        Gate(
            table,
            dataset,
            model,
            quantity,
            float(computed),
            float(reference),
            float(tol),
            bool(abs(computed - reference) <= tol),
        )
    )


def run_reproduction(seed=0, n_starts=20):
    """Run the full reproduction and return a gated report; ``seed`` and
    ``n_starts`` drive both numerical fits, PT-E and Marshall-Olkin.  The
    models are fitted, and their gates listed, in ``_FIT_REFERENCE``'s order."""
    t0 = time.perf_counter()
    report = ReproductionReport()

    for ds_key, ds_id in _DATASET_IDS.items():
        data = embedded_dataset(ds_id)
        st = describe(data)
        report.descriptives[ds_key] = st
        refs, tol = _DESCRIPTIVE_REFERENCE[ds_key]
        for name, ref in zip(_STAT_FIELDS, refs):
            value = getattr(st, name)
            if name == "n":
                this_tol = 0
            elif name in ("skewness", "kurtosis"):
                this_tol = max(tol, _MOMENT_RATIO_TOL) if ds_key == "II" else tol
            else:
                this_tol = tol
            _abs_gate(report.gates, "descriptives", ds_key, "", name, value, ref, this_tol)

        opts = FitOptions(seed=seed, n_starts=n_starts)
        fits = {tag: fit(data.values, tag, opts) for tag, key in _FIT_REFERENCE if key == ds_key}
        aic_by_model = {}
        for tag, res in fits.items():
            gof = evaluate_gof(data.values, res.estimates.cdf, res.k, res.loglik)
            report.fit_rows[(tag, ds_key)] = res
            report.gof_rows[(tag, ds_key)] = gof
            aic_by_model[tag] = gof.aic
            available = dict(zip(res.param_names, res.estimates.values))
            available.update({f"se_{n}": s for n, s in zip(res.param_names, res.std_errors)})
            available.update(
                aic=gof.aic, bic=gof.bic, caic=gof.caic, hqic=gof.hqic,
                ks=gof.ks, ks_pvalue=gof.ks_pvalue, ad=gof.ad, cvm=gof.cvm,
            )
            for quantity, ref, qtol in _FIT_REFERENCE[(tag, ds_key)]:
                value = available[quantity]
                _abs_gate(report.gates, "fit", ds_key, tag, quantity, value, ref, qtol)

        best_other = min(v for k_, v in aic_by_model.items() if k_ != "pte")
        report.gates.append(
            Gate(
                "ranking",
                ds_key,
                "pte",
                "aic_minimal",
                aic_by_model["pte"],
                best_other,
                0.0,
                bool(aic_by_model["pte"] < best_other),
            )
        )

    report.elapsed_seconds = time.perf_counter() - t0
    return report
