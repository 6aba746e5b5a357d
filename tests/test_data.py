import dataclasses
import math

import numpy as np
import pytest

from ptgfit import data
from ptgfit.data import Dataset, check_sample, describe, embedded_dataset, load_observations

RELIEF_REFERENCE = {
    "n": 20, "min": 1.100, "mean": 1.900, "median": 1.700, "sd": 0.704,
    "skewness": 1.592, "kurtosis": 2.346, "q1": 1.475, "q3": 2.050, "max": 4.100,
}
GUINEA_REFERENCE = {
    "n": 72, "min": 0.100, "mean": 1.851, "median": 1.560, "sd": 1.200,
    "skewness": 1.788, "kurtosis": 4.157, "q1": 1.080, "q3": 2.303, "max": 7.000,
}


class TestEmbeddedDatasets:
    def test_relief_times_matches_reference_summary(self):
        st = describe(embedded_dataset("relief_times_II"))
        assert st.n == 20
        for field in ("min", "mean", "median", "sd", "q1", "q3", "max"):
            assert getattr(st, field) == pytest.approx(
                RELIEF_REFERENCE[field], abs=5e-4
            ), field
        # moment ratios at the looser formula-variant tolerance
        assert st.skewness == pytest.approx(1.592, abs=0.05)
        assert st.kurtosis == pytest.approx(2.346, abs=0.05)

    def test_guinea_pigs_matches_reference_summary(self):
        st = describe(embedded_dataset("guinea_pigs_I"))
        assert st.n == 72
        for field, ref in GUINEA_REFERENCE.items():
            if field == "n":
                continue
            assert getattr(st, field) == pytest.approx(ref, abs=1e-3), field

    def test_relief_sum_and_extremes(self):
        d = embedded_dataset("relief_times_II")
        assert d.values.sum() == pytest.approx(38.0, abs=1e-12)
        assert d.values.min() == 1.1 and d.values.max() == 4.1

    def test_idempotent_and_allocation_stable(self):
        a = embedded_dataset("guinea_pigs_I")
        b = embedded_dataset("guinea_pigs_I")
        assert a is b
        assert a.values is b.values
        assert not a.values.flags.writeable

    def test_provenance_labels(self):
        assert "Bjerkedal" in embedded_dataset("guinea_pigs_I").source
        assert "Gross" in embedded_dataset("relief_times_II").source

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown dataset id"):
            embedded_dataset("user")

    def test_load_time_gate_names_the_failing_field(self, monkeypatch):
        # the first value 0.1 corrupted to 0.2 moves the minimum
        values, source = data._SERIES["guinea_pigs_I"]
        monkeypatch.setitem(data._SERIES, "guinea_pigs_I", ((0.2,) + values[1:], source))
        embedded_dataset.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="'guinea_pigs_I' failed its reference "
                                                   "gate: min=0.2 != 0.1"):
                embedded_dataset("guinea_pigs_I")
        finally:
            embedded_dataset.cache_clear()

    def test_load_time_gate_names_every_failing_field(self, monkeypatch):
        # a reference summary off in each gated field: n, min, max, mean, median
        off = dataclasses.replace(data.PUBLISHED["relief_times_II"], n=21, min=1.2, max=4.0,
                                  mean=1.8, median=1.6)
        monkeypatch.setitem(data.PUBLISHED, "relief_times_II", off)
        embedded_dataset.cache_clear()
        try:
            with pytest.raises(RuntimeError) as refused:
                embedded_dataset("relief_times_II")
        finally:
            embedded_dataset.cache_clear()
        assert str(refused.value) == (
            "embedded dataset 'relief_times_II' failed its reference gate: n=20 != 21; "
            "min=1.1 != 1.2; max=4.1 != 4.0; mean=1.9000 not within 0.001 of 1.8; "
            "median=1.7000 not within 0.001 of 1.6")


class TestDescribe:
    def test_constant_data_flagged(self):
        st = describe(np.full(5, 2.5))
        assert st.sd == 0.0
        assert np.isnan(st.skewness) and np.isnan(st.kurtosis)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            describe(np.array([1.0]))

    @pytest.mark.parametrize("values", [[1.0, math.nan, 2.0], [1.0, -3.0, 2.0], [0.0, 1.0]])
    def test_invalid_data_rejected(self, values):
        # NaN gave an all-NaN summary
        with pytest.raises(ValueError):
            describe(values)

    def test_quartile_order_invariant(self):
        rng = np.random.default_rng(0)
        st = describe(rng.gamma(2.0, 1.0, 101))
        assert st.min <= st.q1 <= st.median <= st.q3 <= st.max

    def test_type7_quartiles(self):
        # 20-point relief series pins the interpolation convention
        st = describe(embedded_dataset("relief_times_II"))
        assert st.q1 == pytest.approx(1.475, abs=1e-12)
        assert st.q3 == pytest.approx(2.050, abs=1e-12)


class TestLoadObservations:
    def test_whitespace_lines(self, tmp_path):
        f = tmp_path / "obs.txt"
        f.write_text("1.1\n2.2\n")
        d = load_observations(f)
        assert d.id == "user"
        assert np.array_equal(d.values, [1.1, 2.2])

    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "obs.txt"
        f.write_text("# header\n\n1.5 2.5\n3.5  # trailing comment\n")
        d = load_observations(f)
        assert np.array_equal(d.values, [1.5, 2.5, 3.5])

    def test_csv_single_column(self, tmp_path):
        f = tmp_path / "obs.csv"
        f.write_text("0.5,\n1.5\n")
        d = load_observations(f, "csv_single_column")
        assert np.array_equal(d.values, [0.5, 1.5])

    @pytest.mark.parametrize("fmt", ["csv_single_column", None])
    def test_csv_line_with_two_fields_names_line(self, tmp_path, fmt):
        # two columns are an error, not twice the observations
        f = tmp_path / "two.csv"
        f.write_text("1.5,2\n2.5,3\n4,0.5\n")
        with pytest.raises(ValueError, match=r"two\.csv:1: 2 fields"):
            load_observations(f, fmt)
        f.write_text("0.5,\n1.5, ,2,\n")
        with pytest.raises(ValueError, match=r"two\.csv:2: 2 fields"):
            load_observations(f, fmt)

    def test_format_sniffed_outside_comments(self, tmp_path):
        f = tmp_path / "obs.txt"
        f.write_text("# relief times, minutes\n1.1 1.4\n")
        assert np.array_equal(load_observations(f).values, [1.1, 1.4])
        f.write_text("# one value per row\n0.5,\n1.5\n")
        assert np.array_equal(load_observations(f).values, [0.5, 1.5])

    def test_nonpositive_value_names_line(self, tmp_path):
        f = tmp_path / "obs.txt"
        f.write_text("-1.0\n")
        with pytest.raises(ValueError, match=r":1: nonpositive"):
            load_observations(f)

    def test_non_finite_value_names_line(self, tmp_path):
        f = tmp_path / "obs.txt"
        f.write_text("1.0\n2.0 inf 3.5\n1.0 nan 2.0\n")
        with pytest.raises(ValueError, match=r"obs.txt:2: non-finite value 'inf'"):
            load_observations(f)

    def test_parse_error_names_line(self, tmp_path):
        f = tmp_path / "obs.txt"
        f.write_text("1.0\nnot-a-number\n")
        with pytest.raises(ValueError, match=r":2: cannot parse"):
            load_observations(f)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "obs.txt"
        f.write_text("# only a comment\n")
        with pytest.raises(ValueError, match="no observations"):
            load_observations(f)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            load_observations(tmp_path / "x.txt", "tsv")

    def test_roundtrip_exact_for_finite_decimals(self, tmp_path):
        values = embedded_dataset("relief_times_II").values
        f = tmp_path / "echo.txt"
        f.write_text("\n".join(repr(float(v)) for v in values))
        assert np.array_equal(load_observations(f).values, values)


class TestDatasetType:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset("user", np.array([]), "nowhere")

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Dataset("user", np.array([1.0, 0.0]), "nowhere")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="nonempty, finite and strictly positive"):
            Dataset("user", np.array([1.0, bad, 2.0]), "nowhere")

    def test_values_frozen(self):
        d = Dataset("user", np.array([1.0, 2.0]), "nowhere")
        with pytest.raises(ValueError):
            d.values[0] = 5.0
        assert d.n == 2

    def test_leaves_the_callers_array_alone(self):
        # the values were the caller's own array, frozen in place
        a = np.array([1.0, 2.0])
        d = Dataset("user", a, "nowhere")
        assert d.values is not a and a.flags.writeable
        a[0] = 5.0
        assert d.values[0] == 1.0 and not d.values.flags.writeable


@pytest.mark.parametrize(
    "values", [[], [1.0, 0.0], [1.0, -2.0], [1.0, np.nan, 2.0], [1.0, np.inf], [-np.inf]]
)
def test_check_sample_rejects(values):
    with pytest.raises(ValueError, match="nonempty, finite and strictly positive"):
        check_sample(values)
