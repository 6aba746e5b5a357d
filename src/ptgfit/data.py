"""Embedded reference datasets, file ingestion and descriptive statistics.

Two classic failure-time datasets ship with the package:

* ``guinea_pigs_I``: survival times (days/100) of 72 guinea pigs infected
  with virulent tubercle bacilli, Bjerkedal (1960).  Several transcriptions
  of this series circulate; the one embedded here is gated at load time
  against its published n, min, max, mean and median (``PUBLISHED``) and
  the loader fails loudly on any mismatch rather than fitting wrong data.
* ``relief_times_II``: relief times (minutes) of 20 patients receiving an
  analgesic, Gross & Clark (1975).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "DescriptiveStats",
    "embedded_dataset",
    "load_observations",
    "describe",
    "check_sample",
    "DATASET_IDS",
    "EMBEDDED",
    "PUBLISHED",
]

# the embedded datasets by the names the published tables give them
EMBEDDED = {"I": "guinea_pigs_I", "II": "relief_times_II"}
DATASET_IDS = tuple(EMBEDDED.values())

_GUINEA_PIGS = (
    0.1, 0.33, 0.44, 0.56, 0.59, 0.72, 0.74, 0.77, 0.92, 0.93, 0.96, 1.0,
    1.0, 1.02, 1.05, 1.07, 1.08, 1.08, 1.08, 1.09, 1.12, 1.13, 1.15, 1.16,
    1.2, 1.21, 1.22, 1.22, 1.24, 1.3, 1.34, 1.36, 1.39, 1.44, 1.46, 1.53,
    1.59, 1.6, 1.63, 1.63, 1.68, 1.71, 1.72, 1.76, 1.83, 1.95, 1.96, 1.97,
    2.02, 2.13, 2.15, 2.16, 2.22, 2.3, 2.31, 2.4, 2.45, 2.51, 2.53, 2.54,
    2.54, 2.78, 2.93, 3.27, 3.42, 3.47, 3.61, 4.02, 4.32, 4.58, 5.55, 7.0,
)

_RELIEF_TIMES = (
    1.1, 1.4, 1.3, 1.7, 1.9, 1.8, 1.6, 2.2, 1.7, 2.7,
    4.1, 1.8, 1.5, 1.2, 1.4, 3.0, 1.7, 2.3, 1.6, 2.0,
)

_SERIES = {
    "guinea_pigs_I": (_GUINEA_PIGS, "Bjerkedal (1960), guinea pig survival times, days/100"),
    "relief_times_II": (_RELIEF_TIMES, "Gross & Clark (1975), analgesic relief times, minutes"),
}


def check_sample(values):
    """Return ``values`` as a float array, or raise ``ValueError`` unless they
    are nonempty, finite and strictly positive."""
    x = np.asarray(values, dtype=float)
    if x.size == 0 or not np.isfinite(x).all() or (x <= 0).any():
        raise ValueError("data must be nonempty, finite and strictly positive")
    return x


def _integer(value, low, message):
    """``value`` as an int; ``ValueError(message)`` unless it is an integer
    of at least ``low`` (NaN and +-inf are not, and nor is a non-number)."""
    try:
        ok = math.isfinite(value) and int(value) == value and value >= low
    except TypeError:  # a string, a list, None: math.isfinite names no argument
        ok = False
    if not ok:
        raise ValueError(message)
    return int(value)


def _warn(message, category=UserWarning):
    """Every warning of ptgfit, located at the first frame outside the
    package: the line that called into ptgfit."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == "ptgfit":
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


@dataclass(frozen=True)
class Dataset:
    """Ordered positive finite observations with a provenance label."""

    id: str
    values: np.ndarray
    source: str

    def __post_init__(self):
        values = check_sample(self.values).copy()  # never freeze the caller's array
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n(self):
        return int(self.values.size)


@dataclass(frozen=True, slots=True)
class DescriptiveStats:
    n: int
    min: float
    mean: float
    median: float
    sd: float
    skewness: float
    kurtosis: float
    q1: float
    q3: float
    max: float


# the published summary of each embedded series: its n, min, max, mean and
# median gate the series at load time, and ``reproduce`` gates every field
PUBLISHED = {
    "guinea_pigs_I": DescriptiveStats(
        72, 0.100, 1.851, 1.560, 1.200, 1.788, 4.157, 1.080, 2.303, 7.000),
    "relief_times_II": DescriptiveStats(
        20, 1.100, 1.900, 1.700, 0.704, 1.592, 2.346, 1.475, 2.050, 4.100),
}


@lru_cache(maxsize=None)
def embedded_dataset(dataset_id):
    """Return one of the embedded reference datasets (cached, immutable).

    The returned object is the same instance on every call.  Each series is
    validated against its frozen reference summary before first use.
    """
    if dataset_id not in _SERIES:
        raise ValueError(f"unknown dataset id {dataset_id!r}; expected {DATASET_IDS}")
    raw, source = _SERIES[dataset_id]
    d = Dataset(dataset_id, np.array(raw), source)

    ref, st = PUBLISHED[dataset_id], describe(d)
    problems = []
    if st.n != ref.n:
        problems.append(f"n={st.n} != {ref.n}")
    if abs(st.min - ref.min) > 1e-9:
        problems.append(f"min={st.min} != {ref.min}")
    if abs(st.max - ref.max) > 1e-9:
        problems.append(f"max={st.max} != {ref.max}")
    if abs(st.mean - ref.mean) > 0.001:
        problems.append(f"mean={st.mean:.4f} not within 0.001 of {ref.mean}")
    if abs(st.median - ref.median) > 0.001:
        problems.append(f"median={st.median:.4f} not within 0.001 of {ref.median}")
    if problems:
        raise RuntimeError(
            f"embedded dataset {dataset_id!r} failed its reference gate: "
            + "; ".join(problems)
        )
    return d


def load_observations(path, fmt=None):
    """Read positive finite observations from a text file.

    ``fmt`` is ``"whitespace"`` (any blank-separated layout) or
    ``"csv_single_column"``; ``None`` picks the CSV reading when a comma
    appears outside the comments.  Blank lines and ``#`` comments are
    skipped; parse, sign and non-finite errors, and a CSV line with more
    than one non-empty field, name the offending line.
    """
    if fmt not in (None, "whitespace", "csv_single_column"):
        raise ValueError(f"unknown format {fmt!r}")
    path = Path(path)
    lines = [
        (lineno, line.split("#", 1)[0].strip())
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
    ]
    if fmt is None:
        fmt = "csv_single_column" if any("," in body for _, body in lines) else "whitespace"
    values = []
    for lineno, body in lines:
        tokens = body.split(",") if fmt == "csv_single_column" else body.split()
        tokens = [tok.strip() for tok in tokens if tok.strip()]
        if fmt == "csv_single_column" and len(tokens) > 1:
            raise ValueError(f"{path}:{lineno}: {len(tokens)} fields in a single-column CSV")
        for tok in tokens:
            try:
                v = float(tok)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: cannot parse {tok!r} as a number") from None
            if not math.isfinite(v):
                raise ValueError(f"{path}:{lineno}: non-finite value {tok!r}")
            if v <= 0:
                raise ValueError(f"{path}:{lineno}: nonpositive value {v}")
            values.append(v)
    if not values:
        raise ValueError(f"{path}: no observations found")
    return Dataset("user", np.array(values), str(path))


def describe(d):
    """Descriptive statistics: type-7 quartiles, n-1 sample sd, and the
    b-type moment ratios skewness = m3/s^3, kurtosis = m4/s^4 - 3 (s the
    sample sd), which reproduce the reference summaries of the embedded
    datasets to printed precision.

    Constant data yields sd 0 with skewness and kurtosis flagged as NaN.
    Raw values pass :func:`check_sample` first.
    """
    x = check_sample(getattr(d, "values", d))
    if x.size < 2:
        raise ValueError("need at least two observations")
    mean = float(x.mean())
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        skew = kurt = math.nan
    else:
        dev = x - mean
        skew = float(np.mean(dev**3) / sd**3)
        kurt = float(np.mean(dev**4) / sd**4 - 3.0)
    q1, med, q3 = (float(v) for v in np.percentile(x, [25, 50, 75]))
    return DescriptiveStats(
        n=int(x.size),
        min=float(x.min()),
        mean=mean,
        median=med,
        sd=sd,
        skewness=skew,
        kurtosis=kurt,
        q1=q1,
        q3=q3,
        max=float(x.max()),
    )
