import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ptgfit import cli
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
        import ptgfit.mle as mle_mod

        real = mle_mod.multistart_maximize

        def not_converged(*args, **kwargs):
            z, ll, cost, converged = real(*args, **kwargs)
            return z, ll, cost, np.zeros_like(converged)

        monkeypatch.setattr(mle_mod, "multistart_maximize", not_converged)
        with pytest.warns(UserWarning, match="did not fully converge"):
            code, payload, _ = run_json(
                capsys, "fit", "--model", "moe", "--data", "embedded:II"
            )
        assert code == 2
        assert payload["converged"] is False

    def test_starts_reach_marshall_olkin_fit(self, capsys, monkeypatch):
        import ptgfit.mle as mle_mod

        real = mle_mod.multistart_maximize
        launched = []

        def counting(loglik_z, starts, **kwargs):
            launched.append(len(starts))
            return real(loglik_z, starts, **kwargs)

        monkeypatch.setattr(mle_mod, "multistart_maximize", counting)
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
        # a PT-E kernel whose order-2 Hessian, the fit's information, is NaN
        import ptgfit.mle as mle_mod

        spec = mle_mod.MODELS["pte"]

        def kernel(data, theta, order=1, n_obs=None):
            out = spec.kernel(data, theta, order, n_obs)
            return out if order == 1 else (*out[:2], np.full_like(out[2], np.nan))

        monkeypatch.setitem(mle_mod.MODELS, "pte", dataclasses.replace(spec, kernel=kernel))

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

    def test_console_script_prints_warnings_plainly(self, capsys):
        # entrypoint() printed "<string>:1: UserWarning: fitted beta = ..."
        # when called from python -c, and its wrapper's line when installed
        argv = ["fit", "--model", "ptw", "--data", "embedded:II", "--format", "json"]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", "from ptgfit.cli import entrypoint; entrypoint()", *argv],
            capture_output=True, text=True, env=env)
        lines = done.stderr.splitlines()
        assert done.returncode == 0
        assert len(lines) == 2 and all(w.startswith("ptgfit: warning: ") for w in lines)
        assert ".py:" not in done.stderr and "<string>:" not in done.stderr
        with pytest.warns(UserWarning):  # main() keeps the caller's location
            assert json.loads(done.stdout) == run_json(capsys, *argv[:-2])[1]


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


class TestSeedValidation:
    """A negative seed is an input error that names its source, not numpy's
    "expected non-negative integer"."""

    @pytest.mark.parametrize("argv", [
        ("fit", "--model", "pte", "--data", "embedded:I"),
        ("reproduce",),
        ("sample", "--model", "pte", "--params", "0.5,2,1", "--n", "3"),
        # refused also where the seed goes unused
        ("props", "--model", "pte", "--params", "0.5,2,1"),
        ("curves", "--model", "pte", "--params", "0.5,2,1"),
    ])
    def test_negative_seed_names_the_option(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert (code, out) == (1, "")
        assert err == "error: --seed must be a nonnegative integer, got -1\n"

    @pytest.mark.parametrize("value", ["-3", "x"])
    def test_bad_environment_seed_names_the_variable(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PTGFIT_SEED", value)
        code, out, err = run_cli(capsys, "fit", "--model", "pte", "--data", "embedded:I")
        assert (code, out) == (1, "")
        assert err == f"error: PTGFIT_SEED must be a nonnegative integer, got {value!r}\n"

    def test_zero_seed_is_valid(self, capsys, monkeypatch):
        monkeypatch.setenv("PTGFIT_SEED", "0")
        code, _, err = run_cli(capsys, "sample", "--model", "pte", "--params", "0.5,2,1",
                               "--n", "3")
        assert (code, err) == (0, "")


@pytest.mark.parametrize("command", ["fit", "gof", "sample", "props", "curves", "reproduce"])
def test_zero_starts_names_the_option(capsys, command):
    # refused before any work, by every command that takes --starts
    argv = () if command == "reproduce" else ("--model", "pte", "--data", "embedded:I")
    code, out, err = run_cli(capsys, command, *argv, "--starts", "0")
    assert (code, out, err) == (1, "", "error: --starts must be a positive integer, got 0\n")


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

    def test_zero_draws_is_an_error(self, capsys):
        code, out, err = run_cli(
            capsys, "sample", "--model", "pte", "--params", "0.5,2.0,1.0", "--n", "0"
        )
        assert code == 1 and out == ""
        assert "n must be a positive integer" in err

    def test_zero_draws_refused_before_a_fit(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--model", "pte", "--data", "embedded:I",
                                 "--n", "0")
        assert (code, out, err) == (1, "", "error: --n must be a positive integer, got 0\n")

    @pytest.mark.parametrize(
        "argv, name",
        [(("--model", "me", "--params", "-1"), "sigma"), (("--model", "moe", "--params=-1,2"), "tilt")],
    )
    def test_competitor_parameters_out_of_domain(self, capsys, argv, name):
        code, out, err = run_cli(capsys, "sample", *argv, "--n", "3")
        assert code == 1 and out == ""
        assert f"{name} must be a positive finite real" in err


@pytest.mark.parametrize("argv, message", [
    (("fit", "--model", "pte"), "--data is required for this command"),
    (("fit", "--model", "pte", "--data", "embedded:III"),
     "unknown embedded dataset 'embedded:III'; use embedded:I or embedded:II"),
    (("props", "--model", "pte", "--params", "0.5,2,1", "--delta", "0.5,x"),
     "cannot parse delta list '0.5,x'"),
    (("sample", "--model", "pte", "--params", "0.5,2", "--n", "3"),
     "pte expects --params alpha,beta,lam"),
], ids=["no_data", "unknown_embedded", "bad_delta", "short_params"])
def test_input_errors_name_their_cause(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("argv", [("sample", "--n", "3"), ("props",), ("curves",)])
def test_model_needs_params_or_data(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "--model", "pte", *argv[1:])
    assert code == 1 and out == ""
    assert "either --params or --data is required" in err


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

    def test_table_names_the_stress_strength_direction(self, capsys):
        # stress_strength(p, p2) is P(X2 <= X1) with X1 from --params and X2
        # from --params2; a Monte Carlo check with 4e5 draws gives 0.7199
        code, out, _ = run_cli(
            capsys, "props", "--model", "pte", "--params", "0.5,2,1", "--params2", "0.5,2,3",
            "--format", "table",
        )
        assert code == 0
        assert [line.split() for line in out.splitlines() if "X1" in line] == [
            ["P(X2", "<=", "X1)", "0.720309"]
        ]

    @pytest.mark.parametrize("option", ["--tlist", "--delta"])
    def test_nan_argument_is_an_error(self, capsys, option):
        # a NaN age or order once printed null and exited 0
        code, out, err = run_cli(
            capsys, "props", "--model", "pte", "--params", "0.5,2,1", option, "nan"
        )
        assert code == 1 and out == ""
        assert "got nan" in err

    def test_sheet_where_the_cdf_has_rounded_to_one(self, capsys):
        # residual life by 1 - F refused F >= 1 - 1e-15 at t = 0.5, where
        # S(t) is about e^-574, and the command exited 1 with no sheet
        from ptgfit.distributions import ptw_params
        from ptgfit.expansions import residual_moment

        code, payload, err = run_json(capsys, "props", "--model", "ptw", "--params=1,700,1.3,0.6")
        assert (code, err) == (0, "")
        assert payload["mean_residual_life"]["0.5"] == 0.00390109
        mrl = residual_moment(1, 0.5, ptw_params(1.0, 700.0, 1.3, 0.6))
        assert mrl == pytest.approx(0.0039010867295650215, rel=1e-12)

    def test_rejected_for_competitors(self, capsys):
        code, _, err = run_cli(capsys, "props", "--model", "exp", "--params", "1.0")
        assert code == 1 and "PT models" in err

    def test_csv_format_is_a_usage_error(self, capsys):
        # props writes JSON or a table; a CSV request is refused, not ignored
        code, out, err = run_cli(
            capsys, "props", "--model", "pte", "--params", "0.5,2.0,1.0", "--format", "csv"
        )
        assert code == 1 and out == ""
        assert "invalid choice: 'csv'" in err


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

    @pytest.mark.parametrize(
        "model, params", [("exp", "1.5"), ("me", "1.5"), ("moe", "0.3,1.1"), ("ptw", "1,700,1.3,0.6")]
    )
    def test_hazard_is_pdf_over_sf(self, capsys, model, params):
        from ptgfit.cli import _model_from_params

        code, payload, _ = run_json(capsys, "curves", "--model", model, f"--params={params}",
                                    "--grid", "16")
        assert code == 0
        dist = _model_from_params(model, params)
        want = dist.pdf(np.array(payload["x"])) / dist.sf(np.array(payload["x"]))
        assert np.allclose(payload["hrf"], want, rtol=1e-5, atol=0.0)

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

    def test_empty_grid_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "curves", "--model", "exp", "--params", "1.5",
                                 "--grid", "0")
        assert (code, out, err) == (1, "", "error: --grid must be a positive integer, got 0\n")


class TestTttCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "ttt", "--data", "embedded:II", "--format", "csv")
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["u", "t"]
        assert len(rows) == 20
        assert float(rows[-1][0]) == 1.0
        assert float(rows[-1][1]) == 1.0

    def test_seed_is_a_usage_error(self, capsys):
        # the TTT transform draws nothing at random: it takes no --seed
        code, out, err = run_cli(capsys, "ttt", "--data", "embedded:II", "--seed", "3")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --seed 3" in err


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

    def test_json_report_is_pinned(self, capsys):
        # every number of the reproduction, at the default seed and starts
        code, payload, _ = run_json(capsys, "reproduce", "--seed", "0")
        del payload["elapsed_seconds"]
        golden = Path(__file__).parent / "pinned" / "reproduce.json"
        assert (code, payload) == (3, json.loads(golden.read_text()))

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


class TestDataFiles:
    def test_comma_in_comment_keeps_whitespace_format(self, capsys, tmp_path):
        # the format is decided from the lines outside the # comments
        f = tmp_path / "obs_comment.txt"
        f.write_text("# relief times, minutes\n1.1 1.4 1.3\n1.7 1.9\n")
        code, payload, err = run_json(capsys, "fit", "--model", "exp", "--data", str(f))
        assert (code, err) == (0, "")
        assert payload["n"] == 5
        assert payload["estimates"]["lam"] == pytest.approx(5 / 7.4, rel=1e-5)

    def test_commas_outside_comments_read_as_csv(self, capsys, tmp_path):
        f = tmp_path / "obs.csv"
        f.write_text("# one value per row\n1.1,\n1.4\n")
        code, payload, _ = run_json(capsys, "fit", "--model", "exp", "--data", str(f))
        assert code == 0 and payload["n"] == 2

    def test_two_column_csv_exits_1(self, capsys, tmp_path):
        f = tmp_path / "two.csv"
        f.write_text("1.5,2\n2.5,3\n4,0.5\n")
        code, out, err = run_cli(capsys, "fit", "--model", "exp", "--data", str(f))
        assert (code, out) == (1, "")
        assert "two.csv:1: 2 fields" in err


class TestDefaultFormat:
    CASES = [
        (("fit", "--model", "exp", "--data", "embedded:I"), "maximum-likelihood fit"),
        (("gof", "--model", "exp", "--data", "embedded:I"), "goodness of fit"),
        (("props", "--model", "pte", "--params", "0.5,2,1"), "distribution properties"),
        (("reproduce",), "reproduction report"),
        (("sample", "--model", "exp", "--params", "1.5", "--n", "3"), "x"),
        (("curves", "--model", "exp", "--params", "1.5", "--grid", "3"), "x,pdf,cdf,hrf"),
        (("ttt", "--data", "embedded:II"), "u,t"),
    ]

    @pytest.mark.parametrize("argv, first_line", CASES, ids=[a[0] for a, _ in CASES])
    def test_terminal_gets_the_table_else_csv(self, capsys, monkeypatch, argv, first_line):
        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        code, out, _ = run_cli(capsys, *argv)
        assert code == (3 if argv[0] == "reproduce" else 0)
        assert out.splitlines()[0] == first_line

    @pytest.mark.parametrize("argv", [a for a, _ in CASES], ids=[a[0] for a, _ in CASES])
    def test_pipe_gets_json(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys.stdout, "isatty", lambda: False)
        code, out, _ = run_cli(capsys, *argv)
        assert code == (3 if argv[0] == "reproduce" else 0)
        assert json.loads(out)["command"] == argv[0]


# Byte-exact output of cases whose six significant digits are stable.  Each
# text is the whole of stdout; every format, CSV too, ends its lines in "\n".
PINNED = {
    "fit --model exp --data embedded:I --format json": """\
{
  "command": "fit",
  "model": "exp",
  "dataset": "guinea_pigs_I",
  "n": 72,
  "converged": true,
  "loglik": -116.315,
  "estimates": {
    "lam": 0.540378
  },
  "std_errors": {
    "lam": 0.0636842
  },
  "ci_low": {
    "lam": 0.41556
  },
  "ci_high": {
    "lam": 0.665197
  },
  "n_restarts_used": 0
}
""",
    "fit --model exp --data embedded:I --format csv": """\
model,dataset,n,converged,loglik,lam,se_lam,ci_low_lam,ci_high_lam
exp,guinea_pigs_I,72,True,-116.315,0.540378,0.0636842,0.41556,0.665197
""",
    "fit --model exp --data embedded:I --format table": """\
maximum-likelihood fit
  model      exp
  dataset    guinea_pigs_I
  n          72
  converged  True
  loglik     -116.315
  lam        0.540378 (se 0.0636842) [0.41556, 0.665197]
""",
    "fit --model pte --data embedded:I --format csv": """\
model,dataset,n,converged,loglik,alpha,se_alpha,ci_low_alpha,ci_high_alpha,beta,se_beta,ci_low_beta,ci_high_beta,lam,se_lam,ci_low_lam,ci_high_lam
pte,guinea_pigs_I,72,True,-98.0468,0.813341,0.182578,0.455495,1,-6.58782,1.4485,-9.42683,-3.74881,0.840957,0.192357,0.463943,1.21797
""",
    "fit --model pte --data embedded:I --format table": """\
maximum-likelihood fit
  model      pte
  dataset    guinea_pigs_I
  n          72
  converged  True
  loglik     -98.0468
  alpha      0.813341 (se 0.182578) [0.455495, 1]
  beta       -6.58782 (se 1.4485) [-9.42683, -3.74881]
  lam        0.840957 (se 0.192357) [0.463943, 1.21797]
""",
    "gof --model me --data embedded:II --format csv": """\
command,model,dataset,n,k,converged,loglik,aic,bic,caic,hqic,ad,cvm,ks,ks_pvalue
gof,me,relief_times_II,20,1,True,-26.1632,54.3264,55.3221,54.5486,54.5207,2.76058,0.528388,0.322104,0.0315273
""",
    "props --model pte --params 0.5,2,1 --format json": """\
{
  "command": "props",
  "model": "pte",
  "params": {
    "alpha": 0.5,
    "beta": 2.0,
    "lam": 1.0
  },
  "moments": {
    "1": 0.419575,
    "2": 0.506673,
    "3": 1.17925,
    "4": 4.18397
  },
  "renyi_entropy": {
    "2.0": -0.389885
  },
  "mean_deviation_mean": 0.365019,
  "mean_deviation_median": 0.324016,
  "stress_strength_vs_params2": 0.5,
  "mean_residual_life": {
    "0.5": 0.618894,
    "1.0": 0.756315,
    "2.0": 0.903941
  }
}
""",
    "props --model pte --params 0.5,2,1 --format table": """\
distribution properties
  model              pte
  param alpha        0.5
  param beta         2
  param lam          1
  moment 1           0.419575
  moment 2           0.506673
  moment 3           1.17925
  moment 4           4.18397
  renyi(2.0)         -0.389885
  mean dev (mean)    0.365019
  mean dev (median)  0.324016
  P(X2 <= X1)        0.5
  MRL(0.5)           0.618894
  MRL(1.0)           0.756315
  MRL(2.0)           0.903941
""",
    "sample --model pte --params 0.5,2,1 --n 5 --seed 3 --format csv": """\
x
0.0262115
0.0816669
0.626927
0.294341
0.0289859
""",
    "sample --model pte --params 0.5,2,1 --n 5 --seed 3 --format json": """\
{
  "command": "sample",
  "model": "pte",
  "n": 5,
  "seed": 3,
  "samples": [
    0.0262115,
    0.0816669,
    0.626927,
    0.294341,
    0.0289859
  ]
}
""",
    "curves --model exp --params 1.5 --grid 4 --format csv": """\
x,pdf,cdf,hrf
0.000667,1.4985,0.001,1.5
1.5355,0.1499,0.900067,1.5
3.07034,0.014995,0.990003,1.5
4.60517,0.0015,0.999,1.5
""",
    "ttt --data embedded:II --format json": """\
{
  "command": "ttt",
  "dataset": "relief_times_II",
  "u": [
    0.05,
    0.1,
    0.15,
    0.2,
    0.25,
    0.3,
    0.35,
    0.4,
    0.45,
    0.5,
    0.55,
    0.6,
    0.65,
    0.7,
    0.75,
    0.8,
    0.85,
    0.9,
    0.95,
    1.0
  ],
  "t": [
    0.578947,
    0.628947,
    0.676316,
    0.721053,
    0.721053,
    0.760526,
    0.797368,
    0.797368,
    0.828947,
    0.828947,
    0.828947,
    0.852632,
    0.852632,
    0.871053,
    0.886842,
    0.913158,
    0.923684,
    0.955263,
    0.971053,
    1.0
  ]
}
""",
}


@pytest.mark.parametrize("argv", list(PINNED))
def test_output_is_pinned(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert out == PINNED[argv]
