import csv
import io
import json

import numpy as np
import pytest

from ptgfit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestFitCommand:
    def test_pte_guinea_pigs_json(self, capsys):
        code, payload, _ = run_json(
            capsys, "fit", "--model", "pte", "--data", "embedded:I", "--seed", "0"
        )
        assert code == 0
        assert payload["converged"] is True
        assert payload["estimates"]["alpha"] == pytest.approx(0.813, abs=0.05)
        assert payload["estimates"]["beta"] == pytest.approx(-6.587, abs=0.3)
        assert payload["estimates"]["lam"] == pytest.approx(0.841, abs=0.05)

    def test_exp_relief_times(self, capsys):
        code, payload, _ = run_json(
            capsys, "fit", "--model", "exp", "--data", "embedded:II"
        )
        assert code == 0
        assert payload["estimates"]["lam"] == pytest.approx(0.526, abs=0.001)

    def test_missing_file_exit_and_message(self, capsys):
        code, out, err = run_cli(
            capsys, "fit", "--model", "pte", "--data", "/no/such/file.txt"
        )
        assert code == 1
        assert "/no/such/file.txt" in err

    def test_usage_error_exit_code(self, capsys):
        assert run_cli(capsys, "fit", "--model", "nope", "--data", "embedded:I")[0] == 1

    def test_nonconvergence_exit_code(self, capsys, monkeypatch):
        import ptgfit.cli as cli_mod

        real_fit = cli_mod.fit

        def fake_fit(*args, **kwargs):
            import dataclasses

            return dataclasses.replace(real_fit(*args, **kwargs), converged=False)

        monkeypatch.setattr(cli_mod, "fit", fake_fit)
        code, payload, _ = run_json(
            capsys, "fit", "--model", "pte", "--data", "embedded:II", "--starts", "2"
        )
        assert code == 2
        assert payload["converged"] is False

    def test_moe_nonconvergence_exit_code(self, capsys, monkeypatch):
        import ptgfit.competitors as comp_mod

        real = comp_mod.multistart_maximize

        def not_converged(*args, **kwargs):
            z, ll, n_launches, _ = real(*args, **kwargs)
            return z, ll, n_launches, False

        monkeypatch.setattr(comp_mod, "multistart_maximize", not_converged)
        with pytest.warns(UserWarning, match="did not fully converge"):
            code, payload, _ = run_json(
                capsys, "fit", "--model", "moe", "--data", "embedded:II"
            )
        assert code == 2
        assert payload["converged"] is False

    def test_starts_reach_marshall_olkin_fit(self, capsys, monkeypatch):
        import ptgfit.competitors as comp_mod

        real = comp_mod.multistart_maximize
        launched = []

        def counting(loglik_z, starts, **kwargs):
            launched.append(len(starts))
            return real(loglik_z, starts, **kwargs)

        monkeypatch.setattr(comp_mod, "multistart_maximize", counting)
        code, payload, _ = run_json(
            capsys, "fit", "--model", "moe", "--data", "embedded:I", "--starts", "1"
        )
        assert code == 0
        assert launched == [1]
        assert payload["n_restarts_used"] == 3  # one start and two polishing restarts

    @pytest.mark.parametrize("model", ["exp", "moe", "pte"])
    def test_non_finite_data_rejected(self, capsys, tmp_path, model):
        f = tmp_path / "obs.txt"
        f.write_text("1.0 nan 2.0 inf 3.5\n")
        code, out, err = run_cli(capsys, "fit", "--model", model, "--data", str(f))
        assert code == 1 and out == ""
        assert "obs.txt:1: non-finite value 'nan'" in err

    @staticmethod
    def _unknown_information(monkeypatch):
        import ptgfit.mle as mle_mod

        monkeypatch.setattr(
            mle_mod, "observed_information", lambda data, p: np.full((3, 3), np.nan)
        )

    def test_strict_json_and_unknown_intervals(self, capsys, monkeypatch):
        # an information matrix that is not finite: the standard errors are
        # unknown, and so are the intervals
        self._unknown_information(monkeypatch)
        with pytest.warns(UserWarning, match="singular"):
            code, out, _ = run_cli(
                capsys, "fit", "--model", "pte", "--data", "embedded:I", "--format", "json"
            )

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads(out, parse_constant=reject)
        assert code == 0
        for key in ("std_errors", "ci_low", "ci_high"):
            assert payload[key] == {"alpha": None, "beta": None, "lam": None}, key

    def test_csv_keeps_printing_nan(self, capsys, monkeypatch):
        self._unknown_information(monkeypatch)
        with pytest.warns(UserWarning, match="singular"):
            code, out, _ = run_cli(
                capsys, "fit", "--model", "pte", "--data", "embedded:I", "--format", "csv"
            )
        header, rows = read_csv(out)
        assert rows[0][header.index("se_alpha")] == "nan"
        assert rows[0][header.index("ci_low_alpha")] == "nan"


class TestGofCommand:
    def test_pte_guinea_pigs(self, capsys):
        code, payload, _ = run_json(
            capsys, "gof", "--model", "pte", "--data", "embedded:I", "--seed", "0"
        )
        assert code == 0
        assert payload["aic"] == pytest.approx(202.09, abs=0.5)
        assert payload["ks"] == pytest.approx(0.07, abs=0.01)

    def test_exp_guinea_pigs(self, capsys):
        code, payload, _ = run_json(
            capsys, "gof", "--model", "exp", "--data", "embedded:I"
        )
        assert code == 0
        assert payload["aic"] == pytest.approx(234.63, abs=0.01)
        assert payload["ad"] == pytest.approx(6.53, abs=0.03)

    def test_ptw_relief_statistics_finite(self, capsys):
        # the PT-W optimum on dataset II sits at beta ~ -7910, where the
        # compounded cdf once overflowed to NaN
        with pytest.warns(UserWarning, match="singular"), pytest.warns(
            UserWarning, match="outside the documented"
        ):
            code, payload, _ = run_json(
                capsys, "gof", "--model", "ptw", "--data", "embedded:II"
            )
        assert code == 0
        for key in ("ks", "ks_pvalue", "ad", "cvm"):
            assert np.isfinite(payload[key]), key


class TestSampleCommand:
    def test_deterministic_given_seed(self, capsys):
        args = ("sample", "--model", "pte", "--params", "0.5,2.0,1.0", "--n", "40",
                "--seed", "11", "--format", "csv")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        header, rows = read_csv(out1)
        assert header == ["x"] and len(rows) == 40

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("PTGFIT_SEED", "123")
        args = ("sample", "--model", "pte", "--params", "0.5,2.0,1.0", "--n", "10",
                "--format", "csv")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args, "--seed", "123")
        assert out1 == out2

    def test_competitor_model(self, capsys):
        code, payload, _ = run_json(
            capsys, "sample", "--model", "moe", "--params", "8.0,1.4",
            "--n", "25", "--seed", "4"
        )
        assert code == 0
        assert len(payload["samples"]) == 25
        assert all(v > 0 for v in payload["samples"])


    @pytest.mark.parametrize(
        "argv, name",
        [(("--model", "me", "--params", "-1"), "sigma"), (("--model", "moe", "--params=-1,2"), "tilt")],
    )
    def test_competitor_parameters_out_of_domain(self, capsys, argv, name):
        code, out, err = run_cli(capsys, "sample", *argv, "--n", "3")
        assert code == 1 and out == ""
        assert f"{name} must be a positive finite real" in err


class TestPropsCommand:
    def test_moment_matches_quadrature_mean(self, capsys):
        from scipy.integrate import quad

        from ptgfit.distributions import pte_params, ptg_pdf

        code, payload, _ = run_json(
            capsys, "props", "--model", "pte", "--params", "0.5,2.0,1.0",
            "--delta", "2.0,0.5", "--tlist", "1.0"
        )
        assert code == 0
        mean = quad(lambda x: x * ptg_pdf(x, pte_params(0.5, 2.0, 1.0)), 0, np.inf)[0]
        assert payload["moments"]["1"] == pytest.approx(mean, abs=1e-6)
        assert payload["stress_strength_vs_params2"] == pytest.approx(0.5, abs=1e-6)
        assert set(payload["renyi_entropy"]) == {"2.0", "0.5"}

    def test_rejected_for_competitors(self, capsys):
        code, _, err = run_cli(capsys, "props", "--model", "exp", "--params", "1.0")
        assert code == 1 and "PT models" in err


class TestCurvesCommand:
    def test_grid_shape_and_monotone_cdf(self, capsys):
        code, out, _ = run_cli(
            capsys, "curves", "--model", "pte", "--params", "0.813,-6.587,0.841",
            "--grid", "64", "--format", "csv"
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "pdf", "cdf", "hrf"]
        assert len(rows) == 64
        cdf = [float(r[2]) for r in rows]
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))
        assert cdf[-1] >= 0.998

    def test_histogram_block_with_data(self, capsys):
        code, payload, _ = run_json(
            capsys, "curves", "--model", "pte", "--data", "embedded:I",
            "--seed", "0", "--grid", "32"
        )
        assert code == 0
        hist = payload["histogram"]
        assert len(hist["bin_left"]) == len(hist["bin_density"])
        assert len(hist["ogive_x"]) == 72
        assert hist["ogive_y"][-1] == 1.0


class TestTttCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "ttt", "--data", "embedded:II", "--format", "csv")
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["u", "t"]
        assert len(rows) == 20
        assert float(rows[-1][0]) == 1.0
        assert float(rows[-1][1]) == 1.0


class TestReproduceCommand:
    def test_json_report(self, capsys):
        code, payload, _ = run_json(capsys, "reproduce", "--seed", "0")
        # known published-table defects on the relief-times dataset force
        # the gate-failure exit status
        assert code == 3
        assert payload["all_passed"] is False
        by_label = {g["label"]: g for g in payload["gates"]}
        assert by_label["fit[I] pte.alpha"]["passed"] is True
        assert by_label["fit[I] pte.aic"]["passed"] is True
        assert by_label["ranking[I] pte.aic_minimal"]["passed"] is True
        assert by_label["ranking[II] pte.aic_minimal"]["passed"] is True
        assert by_label["fit[II] pte.aic"]["passed"] is True
        assert by_label["fit[II] pte.beta"]["passed"] is False
        failing = {g["label"] for g in payload["gates"] if not g["passed"]}
        assert failing == {
            "fit[II] moe.tilt",
            "fit[II] moe.lam",
            "fit[II] moe.aic",
            "fit[II] pte.alpha",
            "fit[II] pte.beta",
            "fit[II] pte.lam",
            "fit[II] pte.ad",
            "fit[II] pte.cvm",
        }
        assert "GMO-E" in payload["reference_constants"]["I"]

    def test_table_output_identifies_failures(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--seed", "0", "--format", "table")
        assert code == 3
        assert "failing cells:" in out
        assert "[PASS]" in out and "[FAIL]" in out


class TestOutputFiles:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "ttt.csv"
        code, out, _ = run_cli(
            capsys, "ttt", "--data", "embedded:II", "--format", "csv",
            "--out", str(out_path)
        )
        assert code == 0 and out == ""
        header, rows = read_csv(out_path.read_text())
        assert header == ["u", "t"] and len(rows) == 20

    def test_curves_hist_sidecar(self, tmp_path, capsys):
        out_path = tmp_path / "curves.csv"
        code, _, _ = run_cli(
            capsys, "curves", "--model", "exp", "--data", "embedded:II",
            "--grid", "16", "--format", "csv", "--out", str(out_path)
        )
        assert code == 0
        assert out_path.exists()
        sidecar = tmp_path / "curves.hist.csv"
        assert sidecar.exists()
        header, rows = read_csv(sidecar.read_text())
        assert header == ["bin_left", "bin_right", "bin_density"]
