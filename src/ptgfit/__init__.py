"""Poisson transmuted-G distributions: evaluation, sampling, series
expansions, maximum-likelihood fitting and goodness-of-fit comparison."""

from .baselines import Exponential, Weibull
from .data import Dataset, DescriptiveStats, describe, embedded_dataset, load_observations
from .distributions import (
    PtgParams,
    pte_params,
    ptg_cdf,
    ptg_hrf,
    ptg_log_pdf,
    ptg_pdf,
    ptg_quantile,
    ptg_sample,
    ptw_params,
    tg_cdf,
    tg_pdf,
    tg_quantile,
)
from .gof import evaluate_gof, information_criteria, ks_test, ttt_points
from .mle import FitOptions, FitResult, fit, log_likelihood, observed_information, wald_ci

__version__ = "0.1.0"

__all__ = [
    "Exponential",
    "Weibull",
    "Dataset",
    "DescriptiveStats",
    "describe",
    "embedded_dataset",
    "load_observations",
    "PtgParams",
    "pte_params",
    "ptw_params",
    "tg_cdf",
    "tg_pdf",
    "tg_quantile",
    "ptg_cdf",
    "ptg_pdf",
    "ptg_log_pdf",
    "ptg_hrf",
    "ptg_quantile",
    "ptg_sample",
    "evaluate_gof",
    "information_criteria",
    "ks_test",
    "ttt_points",
    "FitOptions",
    "FitResult",
    "fit",
    "log_likelihood",
    "observed_information",
    "wald_ci",
    "__version__",
]
