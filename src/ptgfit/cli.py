"""Command-line interface.

Subcommands: fit, gof, sample, props, curves, ttt, reproduce; the models are
the tags of ``mle.MODELS``.  Output is human-readable on a terminal (a table,
or CSV for the grids of sample, curves and ttt) and JSON when piped;
``--format`` overrides, offering only the formats the subcommand writes.  All
numbers are printed to 6 significant digits.  Exit codes: 0 ok, 1 usage or
I/O error, 2 non-convergence, 3 reproduction gate failure.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import os
import sys

import numpy as np

from .data import embedded_dataset, load_observations
from .distributions import ptg_sample
from .expansions import (
    mean_deviation,
    raw_moment,
    renyi_entropy,
    residual_moment,
    stress_strength,
)
from .gof import evaluate_gof, ttt_points
from .mle import MODELS, FitOptions, fit
from .reproduce import run_reproduction

_EMBEDDED_ALIASES = {
    "embedded:i": "guinea_pigs_I",
    "embedded:ii": "relief_times_II",
    "embedded:guinea_pigs_i": "guinea_pigs_I",
    "embedded:relief_times_ii": "relief_times_II",
}


def _sig6(x):
    if isinstance(x, (bool, int, np.bool_, np.integer)):
        return int(x) if not isinstance(x, (bool, np.bool_)) else bool(x)
    if x is None or isinstance(x, str):
        return x
    v = float(x)
    if not np.isfinite(v):
        return v
    return float(f"{v:.6g}")


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.6g}"


def _resolve_seed(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("PTGFIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"PTGFIT_SEED must be an integer, got {env!r}") from None
    return 0


def _resolve_format(args):
    if args.format:
        return args.format
    return "table" if sys.stdout.isatty() else "json"


def _load_data(args):
    source = args.data
    if source is None:
        raise ValueError("--data is required for this command")
    key = source.lower()
    if key in _EMBEDDED_ALIASES:
        return embedded_dataset(_EMBEDDED_ALIASES[key])
    if key.startswith("embedded:"):
        raise ValueError(f"unknown embedded dataset {source!r}; use embedded:I or embedded:II")
    if not os.path.exists(source):
        raise OSError(f"data file not found: {source}")
    fmt = args.data_format
    if fmt is None:
        with open(source) as fh:
            fmt = "csv_single_column" if "," in fh.read() else "whitespace"
    return load_observations(source, fmt)


def _parse_float_list(text, what):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"cannot parse {what} list {text!r}") from None


def _model_from_params(tag, text, what="params"):
    make = MODELS[tag].make
    names = list(inspect.signature(make).parameters)
    values = _parse_float_list(text, what)
    if len(values) != len(names):
        raise ValueError(f"{tag} expects --{what} {','.join(names)}")
    return make(*values)


def _fit(args, data):
    """Fit ``--model`` to the data; every model gives a ``FitResult``."""
    opts = FitOptions(seed=_resolve_seed(args), n_starts=args.starts)
    return fit(data.values, args.model, opts)


def _model(args, data=None):
    """The ``--model`` distribution: from ``--params``, else fitted to ``--data``."""
    if args.params:
        return _model_from_params(args.model, args.params)
    return _fit(args, data if data is not None else _load_data(args)).estimates


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_safe(obj):
    """``obj`` with every NaN or infinite float replaced by ``None`` (JSON null)."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_safe(v) for v in obj]
    return obj


def _emit_json(args, payload):
    _emit(args, json.dumps(_json_safe(payload), indent=2, allow_nan=False) + "\n")


def _emit_csv(args, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _emit(args, buf.getvalue())


def _emit_kv_table(args, title, pairs):
    width = max(len(k) for k, _ in pairs)
    lines = [title] + [f"  {k:<{width}}  {_fmt(v)}" for k, v in pairs]
    _emit(args, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args):
    data = _load_data(args)
    fmt = _resolve_format(args)
    res = _fit(args, data)
    names = res.param_names
    payload = {
        "command": "fit",
        "model": args.model,
        "dataset": data.id,
        "n": res.n_obs,
        "converged": bool(res.converged),
        "loglik": _sig6(res.loglik),
        "estimates": {k: _sig6(v) for k, v in zip(names, res.estimates.values)},
        "std_errors": {k: _sig6(v) for k, v in zip(names, res.std_errors)},
        "ci_low": {k: _sig6(v) for k, v in zip(names, res.ci_low)},
        "ci_high": {k: _sig6(v) for k, v in zip(names, res.ci_high)},
        "n_restarts_used": res.n_restarts_used,
    }

    if fmt == "json":
        _emit_json(args, payload)
    elif fmt == "csv":
        header = ["model", "dataset", "n", "converged", "loglik"]
        row = [payload["model"], payload["dataset"], payload["n"],
               payload["converged"], payload["loglik"]]
        for k in payload["estimates"]:
            header += [k, f"se_{k}", f"ci_low_{k}", f"ci_high_{k}"]
            row += [payload["estimates"][k], payload["std_errors"][k],
                    payload["ci_low"][k], payload["ci_high"][k]]
        _emit_csv(args, header, [row])
    else:
        pairs = [("model", payload["model"]), ("dataset", payload["dataset"]),
                 ("n", payload["n"]), ("converged", payload["converged"]),
                 ("loglik", payload["loglik"])]
        for k in payload["estimates"]:
            pairs.append(
                (k, f"{_fmt(payload['estimates'][k])} "
                    f"(se {_fmt(payload['std_errors'][k])}) "
                    f"[{_fmt(payload['ci_low'][k])}, {_fmt(payload['ci_high'][k])}]")
            )
        _emit_kv_table(args, "maximum-likelihood fit", pairs)
    return 0 if res.converged else 2


def cmd_gof(args):
    data = _load_data(args)
    fmt = _resolve_format(args)
    res = _fit(args, data)
    rep = evaluate_gof(data.values, res.estimates.cdf, res.k, res.loglik)
    payload = {
        "command": "gof",
        "model": args.model,
        "dataset": data.id,
        "n": rep.n,
        "k": rep.k,
        "converged": bool(res.converged),
        "loglik": _sig6(rep.loglik),
        "aic": _sig6(rep.aic),
        "bic": _sig6(rep.bic),
        "caic": _sig6(rep.caic),
        "hqic": _sig6(rep.hqic),
        "ad": _sig6(rep.ad),
        "cvm": _sig6(rep.cvm),
        "ks": _sig6(rep.ks),
        "ks_pvalue": _sig6(rep.ks_pvalue),
    }
    if fmt == "json":
        _emit_json(args, payload)
    elif fmt == "csv":
        keys = list(payload)
        _emit_csv(args, keys, [[payload[k_] for k_ in keys]])
    else:
        _emit_kv_table(args, "goodness of fit", [(k_, payload[k_]) for k_ in payload])
    return 0 if res.converged else 2


def cmd_sample(args):
    if args.n < 1:  # before a --data fit, not after it
        raise ValueError("--n must be a positive integer")
    fmt = _resolve_format(args)
    x = ptg_sample(args.n, _model(args), _resolve_seed(args))
    if fmt == "json":
        _emit_json(args, {"command": "sample", "model": args.model, "n": args.n,
                          "seed": _resolve_seed(args),
                          "samples": [_sig6(v) for v in x]})
    else:
        _emit_csv(args, ["x"], [[v] for v in x])
    return 0


def cmd_props(args):
    pt_models = [tag for tag, spec in MODELS.items() if "alpha" in spec.search]
    if args.model not in pt_models:
        raise ValueError(f"props applies to the PT models ({', '.join(pt_models)})")
    fmt = _resolve_format(args)
    p = _model(args)
    p2 = _model_from_params(args.model, args.params2, "params2") if args.params2 else p
    deltas = _parse_float_list(args.delta, "delta")
    tlist = _parse_float_list(args.tlist, "t")
    payload = {
        "command": "props",
        "model": args.model,
        "params": {k: _sig6(v) for k, v in zip(p.names, p.values)},
        "moments": {str(s): _sig6(raw_moment(s, p)) for s in (1, 2, 3, 4)},
        "renyi_entropy": {str(d): _sig6(renyi_entropy(d, p)) for d in deltas},
        "mean_deviation_mean": _sig6(mean_deviation("mean", p)),
        "mean_deviation_median": _sig6(mean_deviation("median", p)),
        "stress_strength_vs_params2": _sig6(stress_strength(p, p2)),
        "mean_residual_life": {str(t): _sig6(residual_moment(1, t, p)) for t in tlist},
    }
    if fmt == "json":
        _emit_json(args, payload)
    else:
        pairs = [("model", payload["model"])]
        pairs += [(f"param {k}", v) for k, v in payload["params"].items()]
        pairs += [(f"moment {s}", v) for s, v in payload["moments"].items()]
        pairs += [(f"renyi({d})", v) for d, v in payload["renyi_entropy"].items()]
        pairs += [
            ("mean dev (mean)", payload["mean_deviation_mean"]),
            ("mean dev (median)", payload["mean_deviation_median"]),
            ("P(X2 <= X1)", payload["stress_strength_vs_params2"]),
        ]
        pairs += [(f"MRL({t})", v) for t, v in payload["mean_residual_life"].items()]
        _emit_kv_table(args, "distribution properties", pairs)
    return 0


def cmd_curves(args):
    fmt = _resolve_format(args)
    data = _load_data(args) if args.data else None
    model = _model(args, data)
    grid = np.linspace(model.quantile(0.001), model.quantile(0.999), args.grid)
    pdf_v, cdf_v = model.pdf(grid), model.cdf(grid)
    hrf_v = pdf_v / (1.0 - cdf_v)

    rows = list(zip(grid, pdf_v, cdf_v, hrf_v))
    hist_block = None
    if data is not None:
        counts, edges = np.histogram(data.values, bins="auto", density=True)
        xs = np.sort(data.values)
        hist_block = {
            "bin_left": [_sig6(v) for v in edges[:-1]],
            "bin_right": [_sig6(v) for v in edges[1:]],
            "bin_density": [_sig6(v) for v in counts],
            "ogive_x": [_sig6(v) for v in xs],
            "ogive_y": [_sig6(v) for v in np.arange(1, xs.size + 1) / xs.size],
        }

    if fmt == "json":
        payload = {
            "command": "curves",
            "model": args.model,
            "x": [_sig6(v) for v in grid],
            "pdf": [_sig6(v) for v in pdf_v],
            "cdf": [_sig6(v) for v in cdf_v],
            "hrf": [_sig6(v) for v in hrf_v],
        }
        if hist_block:
            payload["histogram"] = hist_block
        _emit_json(args, payload)
    else:
        _emit_csv(args, ["x", "pdf", "cdf", "hrf"], rows)
        if hist_block and args.out:
            hist_rows = list(zip(hist_block["bin_left"], hist_block["bin_right"],
                                 hist_block["bin_density"]))
            base, ext = os.path.splitext(args.out)
            with open(f"{base}.hist{ext or '.csv'}", "w") as fh:
                w = csv.writer(fh)
                w.writerow(["bin_left", "bin_right", "bin_density"])
                w.writerows(hist_rows)
    return 0


def cmd_ttt(args):
    data = _load_data(args)
    fmt = _resolve_format(args)
    pts = ttt_points(data.values)
    if fmt == "json":
        _emit_json(args, {"command": "ttt", "dataset": data.id,
                          "u": [_sig6(v) for v in pts[:, 0]],
                          "t": [_sig6(v) for v in pts[:, 1]]})
    else:
        _emit_csv(args, ["u", "t"], pts.tolist())
    return 0


def cmd_reproduce(args):
    fmt = _resolve_format(args)
    report = run_reproduction(seed=_resolve_seed(args), n_starts=args.starts)
    if fmt == "json":
        payload = {
            "command": "reproduce",
            "all_passed": report.all_passed,
            "elapsed_seconds": _sig6(report.elapsed_seconds),
            "gates": [
                {
                    "label": g.label,
                    "computed": _sig6(g.computed),
                    "reference": _sig6(g.reference),
                    "tol": _sig6(g.tol),
                    "passed": g.passed,
                }
                for g in report.gates
            ],
            "reference_constants": {
                ds: {m: list(v) for m, v in rows.items()}
                for ds, rows in report.reference_constants.items()
            },
        }
        _emit_json(args, payload)
    else:
        lines = ["reproduction report", "=" * 67]
        current = None
        for g in report.gates:
            section = f"{g.table} / dataset {g.dataset}" + (f" / {g.model}" if g.model else "")
            if section != current:
                lines.append(f"\n-- {section}")
                current = section
            mark = "PASS" if g.passed else "FAIL"
            lines.append(
                f"  [{mark}] {g.quantity:<12} computed {_fmt(g.computed):>12}  "
                f"reference {_fmt(g.reference):>10}  tol {_fmt(g.tol)}"
            )
        lines.append("\n-- published criterion values of unimplemented families (context)")
        for ds, rows in report.reference_constants.items():
            lines.append(f"  dataset {ds}: AIC BIC CAIC HQIC A W KS p")
            for m, v in rows.items():
                lines.append(f"    {m:<7} " + " ".join(f"{x:g}" for x in v))
        n_fail = len(report.failures)
        lines.append(f"\ngates: {len(report.gates) - n_fail} passed, {n_fail} failed "
                     f"({report.elapsed_seconds:.1f}s)")
        if n_fail:
            lines.append("failing cells: " + ", ".join(g.label for g in report.failures))
        _emit(args, "\n".join(lines) + "\n")
    return 0 if report.all_passed else 3


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ptgfit",
        description="Poisson transmuted-G distributions: fitting, sampling, "
        "goodness of fit and reproduction of the reference analyses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, formats, seed=True, model=False, data=False, starts=False):
        sp.add_argument("--format", choices=formats, default=None)
        if seed:
            sp.add_argument("--seed", type=int, default=None,
                            help="RNG seed (fallback: PTGFIT_SEED, then 0)")
        sp.add_argument("--out", default=None, help="write output to this path")
        if model:
            sp.add_argument("--model", choices=list(MODELS), required=True)
        if data:
            sp.add_argument("--data", default=None,
                            help="embedded:I, embedded:II, or a file path")
            sp.add_argument("--data-format", choices=["whitespace", "csv_single_column"],
                            default=None)
        if starts:
            sp.add_argument("--starts", type=int, default=20,
                            help="multistart count for numerical fits")

    every_format = ["json", "csv", "table"]
    sp = sub.add_parser("fit", help="maximum-likelihood fit")
    add_common(sp, every_format, model=True, data=True, starts=True)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("gof", help="model-selection criteria and EDF statistics")
    add_common(sp, every_format, model=True, data=True, starts=True)
    sp.set_defaults(func=cmd_gof)

    sp = sub.add_parser("sample", help="seeded inverse-transform sampling")
    add_common(sp, ["json", "csv"], model=True, data=True, starts=True)
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--params", default=None, help="comma-separated parameter values")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("props", help="moments, entropy, deviations, reliability")
    add_common(sp, ["json", "table"], model=True, data=True, starts=True)
    sp.add_argument("--params", default=None)
    sp.add_argument("--params2", default=None,
                    help="parameter set of the stress X2 in the stress-strength "
                         "reliability P(X2 <= X1), X1 from --params")
    sp.add_argument("--delta", default="2.0", help="Renyi orders, comma-separated")
    sp.add_argument("--tlist", default="0.5,1.0,2.0",
                    help="ages for mean residual life, comma-separated")
    sp.set_defaults(func=cmd_props)

    sp = sub.add_parser("curves", help="pdf/cdf/hrf grid for external plotting")
    add_common(sp, ["json", "csv"], model=True, data=True, starts=True)
    sp.add_argument("--params", default=None)
    sp.add_argument("--grid", type=int, default=512)
    sp.set_defaults(func=cmd_curves)

    sp = sub.add_parser("ttt", help="scaled total-time-on-test transform")
    add_common(sp, ["json", "csv"], seed=False, data=True)
    sp.set_defaults(func=cmd_ttt)

    sp = sub.add_parser("reproduce", help="rerun the reference analyses with PASS/FAIL gates")
    add_common(sp, ["json", "table"], starts=True)
    sp.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for non-convergence
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
