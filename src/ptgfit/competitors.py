"""Reference models fitted alongside the PT-G family in comparisons.

The three competitor models, exponential (``baselines.Exponential``), moment
exponential and Marshall-Olkin exponential, live in ``baselines`` and are
re-exported here.  ``mle.fit`` fits them by their tags ``exp``, ``me`` and
``moe`` like the PT-G models; ``fit_competitor`` is the older call form of
that one fit.
"""

from __future__ import annotations

from .baselines import MarshallOlkinExponential, MomentExponential
from .mle import FitOptions, fit
from .mle import multistart_maximize  # noqa: F401  (rebound by perfbench/tracing.py)

__all__ = [
    "MomentExponential",
    "MarshallOlkinExponential",
    "fit_competitor",
]


def fit_competitor(data, tag, seed=0, n_starts=20):
    """``mle.fit(data, tag, FitOptions(n_starts, seed))``: the ``FitResult``
    of the model ``tag`` (``exp``, ``me`` or ``moe``; any tag of ``mle.fit``)."""
    return fit(data, tag, FitOptions(n_starts=n_starts, seed=seed))
