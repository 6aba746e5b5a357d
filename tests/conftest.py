import pytest

from ptgfit.data import embedded_dataset
from ptgfit.distributions import pte_params, ptg_sample
from ptgfit.mle import FitOptions, fit


@pytest.fixture(scope="session")
def data_I():
    return embedded_dataset("guinea_pigs_I").values


@pytest.fixture(scope="session")
def data_II():
    return embedded_dataset("relief_times_II").values


@pytest.fixture(scope="session")
def fit_I(data_I):
    return fit(data_I, "pte", FitOptions(seed=0))


@pytest.fixture(scope="session")
def fit_II(data_II):
    return fit(data_II, "pte", FitOptions(seed=0))


@pytest.fixture(scope="session")
def synthetic_fit():
    """5000 draws from PT-E(0.5, 2, 1) and their refit."""
    truth = pte_params(0.5, 2.0, 1.0)
    x = ptg_sample(5000, truth, seed=31415)
    return truth, x, fit(x, "pte", FitOptions(seed=1))


def assert_close(a, b, atol=0.0, rtol=0.0, label=""):
    a, b = float(a), float(b)
    tol = atol + rtol * abs(b)
    assert abs(a - b) <= tol, f"{label}: {a} vs {b} (tol {tol})"
