"""Command-line interface.

Subcommands: fit, gof, sample, props, curves, ttt, reproduce; the models are
the tags of ``mle.MODELS``.  Each subcommand builds one payload of raw values
and hands it, with its CSV and table views, to ``_emit``, the one place that
knows the output policy: human-readable on a terminal (a table, or CSV where
a subcommand has no table) and JSON when piped; ``--format`` overrides,
offering only the formats the subcommand writes.  All numbers are printed to
6 significant digits; JSON writes NaN and infinities as ``null``.  Exit
codes: 0 ok, 1 usage or I/O error, 2 non-convergence, 3 reproduction gate
failure.
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

from .data import EMBEDDED, embedded_dataset, load_observations
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
from .reproduce import REFERENCE_CONSTANTS, run_reproduction

# embedded:I or embedded:guinea_pigs_I (any case), and likewise for II
_EMBEDDED_ALIASES = {f"embedded:{name.lower()}": ds_id
                     for key, ds_id in EMBEDDED.items() for name in (key, ds_id)}


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.6g}"


def _resolve_seed(args):
    """The seed from ``--seed``, else ``PTGFIT_SEED``, else 0: a nonnegative
    integer, or an input error that names where it came from."""
    if getattr(args, "seed", None) is not None:
        name, value = "--seed", args.seed
    else:
        name, value = "PTGFIT_SEED", os.environ.get("PTGFIT_SEED", "0")
    try:
        seed = int(value)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


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
    return load_observations(source, args.data_format)


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
    if data is None and args.data is None:
        raise ValueError("either --params or --data is required for this command")
    return _fit(args, data if data is not None else _load_data(args)).estimates


def _json_data(obj):
    """``obj`` as plain JSON data: every float rounded to 6 significant
    digits, NaN and infinities as ``None``, numpy scalars, arrays and tuples
    as Python numbers and lists."""
    if isinstance(obj, dict):
        return {k: _json_data(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_json_data(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{obj:.6g}") if math.isfinite(obj) else None
    return obj


def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(args, payload, csv=None, table=None):
    """Write ``payload`` in the ``--format`` asked for, to ``--out`` or stdout,
    and return that format.

    ``csv`` is ``(header, rows)`` and ``table`` is ``(title, pairs)`` or the
    finished text; a subcommand passes the views it offers.  Without
    ``--format``, a terminal gets the table, else the CSV, and a pipe JSON.
    """
    fmt = args.format
    if fmt is None:
        fmt = ("csv" if table is None else "table") if sys.stdout.isatty() else "json"
    if fmt == "json":
        text = json.dumps(_json_data(payload), indent=2, allow_nan=False) + "\n"
    elif fmt == "csv":
        header, rows = csv
        text = _csv_text(header, ([_fmt(v) for v in row] for row in rows))
    elif isinstance(table, str):
        text = table
    else:
        title, pairs = table
        width = max(len(k) for k, _ in pairs)
        text = "\n".join([title] + [f"  {k:<{width}}  {_fmt(v)}" for k, v in pairs]) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return fmt


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args):
    data = _load_data(args)
    res = _fit(args, data)
    head = {"model": args.model, "dataset": data.id, "n": res.n_obs,
            "converged": res.converged, "loglik": res.loglik}
    columns = {"estimates": res.estimates.values, "std_errors": res.std_errors,
               "ci_low": res.ci_low, "ci_high": res.ci_high}
    payload = {"command": "fit", **head,
               **{key: dict(zip(res.param_names, v)) for key, v in columns.items()},
               "n_restarts_used": res.n_restarts_used}
    params = list(zip(res.param_names, *columns.values()))  # (name, est, se, lo, hi)
    header = [*head, *(f"{pre}{k}" for k, *_ in params
                       for pre in ("", "se_", "ci_low_", "ci_high_"))]
    row = [*head.values(), *(v for _, *values in params for v in values)]
    pairs = [*head.items(), *((k, f"{_fmt(est)} (se {_fmt(se)}) [{_fmt(lo)}, {_fmt(hi)}]")
                              for k, est, se, lo, hi in params)]
    _emit(args, payload, csv=(header, [row]), table=("maximum-likelihood fit", pairs))
    return 0 if res.converged else 2


def cmd_gof(args):
    data = _load_data(args)
    res = _fit(args, data)
    rep = evaluate_gof(data.values, res.estimates.cdf, res.k, res.loglik)
    payload = {"command": "gof", "model": args.model, "dataset": data.id, "n": rep.n,
               "k": rep.k, "converged": res.converged}
    for key in ("loglik", "aic", "bic", "caic", "hqic", "ad", "cvm", "ks", "ks_pvalue"):
        payload[key] = getattr(rep, key)
    _emit(args, payload, csv=(list(payload), [list(payload.values())]),
          table=("goodness of fit", list(payload.items())))
    return 0 if res.converged else 2


def cmd_sample(args):
    if args.n < 1:  # before a --data fit, not after it
        raise ValueError("--n must be a positive integer")
    seed = _resolve_seed(args)
    x = ptg_sample(args.n, _model(args), seed)
    payload = {"command": "sample", "model": args.model, "n": args.n, "seed": seed, "samples": x}
    _emit(args, payload, csv=(["x"], zip(payload["samples"])))
    return 0


# table labels of the props payload; "{}" takes the key of a nested entry
_PROPS_LABELS = {
    "model": "model",
    "params": "param {}",
    "moments": "moment {}",
    "renyi_entropy": "renyi({})",
    "mean_deviation_mean": "mean dev (mean)",
    "mean_deviation_median": "mean dev (median)",
    "stress_strength_vs_params2": "P(X2 <= X1)",
    "mean_residual_life": "MRL({})",
}


def cmd_props(args):
    pt_models = [tag for tag, spec in MODELS.items() if "alpha" in spec.search]
    if args.model not in pt_models:
        raise ValueError(f"props applies to the PT models ({', '.join(pt_models)})")
    p = _model(args)
    p2 = _model_from_params(args.model, args.params2, "params2") if args.params2 else p
    deltas = _parse_float_list(args.delta, "delta")
    tlist = _parse_float_list(args.tlist, "t")
    payload = {
        "command": "props",
        "model": args.model,
        "params": dict(zip(p.names, p.values)),
        "moments": {str(s): raw_moment(s, p) for s in (1, 2, 3, 4)},
        "renyi_entropy": {str(d): renyi_entropy(d, p) for d in deltas},
        "mean_deviation_mean": mean_deviation("mean", p),
        "mean_deviation_median": mean_deviation("median", p),
        "stress_strength_vs_params2": stress_strength(p, p2),
        "mean_residual_life": {str(t): residual_moment(1, t, p) for t in tlist},
    }
    pairs = []
    for key, label in _PROPS_LABELS.items():
        entries = payload[key].items() if isinstance(payload[key], dict) else [("", payload[key])]
        pairs += [(label.format(k), v) for k, v in entries]
    _emit(args, payload, table=("distribution properties", pairs))
    return 0


def cmd_curves(args):
    if args.grid < 1:  # an empty grid is no curve
        raise ValueError("--grid must be a positive integer")
    data = _load_data(args) if args.data else None
    model = _model(args, data)
    grid = np.linspace(model.quantile(0.001), model.quantile(0.999), args.grid)
    # the grid ends at the 0.999 quantile, where sf >= 1e-3
    pdf_v = model.pdf(grid)
    payload = {"command": "curves", "model": args.model, "x": grid, "pdf": pdf_v,
               "cdf": model.cdf(grid), "hrf": pdf_v / model.sf(grid)}
    if data is not None:
        counts, edges = np.histogram(data.values, bins="auto", density=True)
        xs = np.sort(data.values)
        payload["histogram"] = {
            "bin_left": edges[:-1],
            "bin_right": edges[1:],
            "bin_density": counts,
            "ogive_x": xs,
            "ogive_y": np.arange(1, xs.size + 1) / xs.size,
        }
    columns = ["x", "pdf", "cdf", "hrf"]
    fmt = _emit(args, payload, csv=(columns, zip(*(payload[c] for c in columns))))
    if fmt == "csv" and args.out and data is not None:
        # the sidecar holds the JSON values, each written as its str()
        hist = _json_data(payload["histogram"])
        bins = ["bin_left", "bin_right", "bin_density"]
        base, ext = os.path.splitext(args.out)
        with open(f"{base}.hist{ext or '.csv'}", "w") as fh:
            fh.write(_csv_text(bins, zip(*(hist[c] for c in bins))))
    return 0


def cmd_ttt(args):
    data = _load_data(args)
    pts = ttt_points(data.values)
    payload = {"command": "ttt", "dataset": data.id, "u": pts[:, 0], "t": pts[:, 1]}
    _emit(args, payload, csv=(["u", "t"], zip(payload["u"], payload["t"])))
    return 0


def _reproduce_text(report):
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
    for ds, rows in REFERENCE_CONSTANTS.items():
        lines.append(f"  dataset {ds}: AIC BIC CAIC HQIC A W KS p")
        for m, v in rows.items():
            lines.append(f"    {m:<7} " + " ".join(f"{x:g}" for x in v))
    n_fail = len(report.failures)
    lines.append(f"\ngates: {len(report.gates) - n_fail} passed, {n_fail} failed "
                 f"({report.elapsed_seconds:.1f}s)")
    if n_fail:
        lines.append("failing cells: " + ", ".join(g.label for g in report.failures))
    return "\n".join(lines) + "\n"


def cmd_reproduce(args):
    report = run_reproduction(seed=_resolve_seed(args), n_starts=args.starts)
    payload = {
        "command": "reproduce",
        "all_passed": report.all_passed,
        "elapsed_seconds": report.elapsed_seconds,
        "gates": [
            {"label": g.label, "computed": g.computed, "reference": g.reference,
             "tol": g.tol, "passed": g.passed}
            for g in report.gates
        ],
        "reference_constants": REFERENCE_CONSTANTS,
    }
    _emit(args, payload, table=_reproduce_text(report))
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
        if getattr(args, "starts", 1) < 1:  # refused before any work, by every command with it
            raise ValueError(f"--starts must be a positive integer, got {args.starts}")
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
