"""Every warning of ptgfit names the line that called into the package: each
public source of a warning, called from this file, warns at this file."""

import numpy as np
import pytest

from ptgfit import cli
from ptgfit.data import embedded_dataset
from ptgfit.distributions import pte_params, ptw_params
from ptgfit.expansions import QuadratureWarning, mgf, quad, renyi_entropy
from ptgfit.gof import anderson_darling
from ptgfit.mle import fit_models
from ptgfit.series import TruncationWarning, series_cdf, series_order_stat_pdf, series_pdf

AT_BETA_30 = pte_params(0.5, 30.0, 1.0)

# (category, call) for each public source; none depends on the alpha = 1 fault
SOURCES = {
    # the quadrature warnings named expansions.py, the frame of mgf and of _over_x
    "mgf": (QuadratureWarning, lambda: mgf(0.9999999, pte_params(0.5, 2.0, 1.0))),
    "renyi_entropy": (QuadratureWarning,
                      lambda: renyi_entropy(1.9, ptw_params(0.5, 2.0, 1.0, 0.5))),
    "quad": (QuadratureWarning, lambda: quad(lambda u, v: 0.0 * u, 0.0, 1.0)),
    "anderson_darling": (UserWarning, lambda: anderson_darling(
        np.array([0.5, 1.0, 2.0, 3.0]), lambda v: np.clip(v / 2.0, 0, 1))),
    "series_pdf": (TruncationWarning, lambda: series_pdf(0.5, AT_BETA_30, n_max=5)),
    "series_cdf": (TruncationWarning, lambda: series_cdf(0.5, AT_BETA_30, n_max=5)),
    "series_order_stat_pdf": (TruncationWarning,
                              lambda: series_order_stat_pdf(0.5, 1, 3, AT_BETA_30, n_max=5)),
    # the fit lands beyond |beta| = 700
    "fit_models": (UserWarning,
                   lambda: fit_models([embedded_dataset("relief_times_II").values], ("ptw",))),
    # named cli.py, the line of cmd_gof that fits
    "cli.main": (UserWarning,
                 lambda: cli.main(["gof", "--model", "ptw", "--data", "embedded:II"])),
}


@pytest.mark.parametrize("category, call", SOURCES.values(), ids=SOURCES.keys())
def test_every_warning_names_the_callers_line(category, call):
    with pytest.warns(category) as record:
        call()
    assert [w.filename for w in record] == [__file__] * len(record)
