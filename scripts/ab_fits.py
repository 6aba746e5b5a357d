#!/usr/bin/env python3
"""Write the fits of a fixed sweep bit for bit, or diff two such files.

The sweep fits PT-E, PT-W and Marshall-Olkin to the embedded datasets I and
II and to eight seeded samples (four drawn from a PT-E law, four from a PT-W
law, n = 72 each), at seeds 0-3 and at 1, 3, 6 and 20 starts, one ``mle.fit``
per sample; then once more at 6 and 20 starts, all ten samples of a model in
one fused ``mle.fit_samples`` call; and once more at 6 and 20 starts, the
three models and the ten samples in one joint ``mle.fit_models`` call.  For
each of the 960 fits it records the ``float.hex`` of the estimates, the
log-likelihood and the standard errors, with ``converged``,
``n_restarts_used`` and the search's cost (``objective_calls`` and
``start_rows``).  Run it on two versions of the package on one machine and
diff the files: a change that means to keep every search path reports 0
differing fits.  numpy's transcendental loops differ in their last bits
between CPU dispatch targets, so compare files written on the same machine
only.

    PYTHONPATH=src python3 scripts/ab_fits.py --out before.json
    PYTHONPATH=src python3 scripts/ab_fits.py --out after.json
    PYTHONPATH=src python3 scripts/ab_fits.py --diff before.json after.json

``--diff`` prints each fit that differs, with the fields that differ, and a
count; it exits 1 when any fit differs or is missing from one file.  It ends
with a summary for each start count, over the fits in both files (solo and
fused and joint): how many differ, the largest |change| of the
log-likelihood, how many end higher and how many lower by more than 1e-9,
how many flip ``converged`` each way, and the objective calls of their
searches, a fused search counted once for the ten fits that share it and a
joint one once for its thirty.
"""

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

from ptgfit import mle
from ptgfit.data import EMBEDDED, embedded_dataset
from ptgfit.distributions import pte_params, ptg_sample, ptw_params

MODELS = ("pte", "ptw", "moe")
SEEDS = (0, 1, 2, 3)
STARTS = (1, 3, 6, 20)
FUSED_STARTS = (6, 20)
N_DRAWN = 72
MOVED = 1e-9  # a log-likelihood change the summary counts as higher or lower
# the laws of the drawn samples: dataset I's PT-E fit, and a PT-W law with an
# increasing hazard
PTE_LAW = (0.8133, -6.5878, 0.841)
PTW_LAW = (0.5, -6.0, 1.0, 1.5)


def samples():
    """The ten samples of the sweep by name."""
    out = {key: embedded_dataset(ds_id).values for key, ds_id in EMBEDDED.items()}
    for tag, law in (("pte", pte_params(*PTE_LAW)), ("ptw", ptw_params(*PTW_LAW))):
        for k in range(4):
            out[f"{tag}-{k}"] = ptg_sample(N_DRAWN, law, k)
    return out


def record(result):
    return {
        "estimates": [float.hex(float(v)) for v in result.estimates.values],
        "loglik": float.hex(float(result.loglik)),
        "std_errors": [float.hex(float(v)) for v in result.std_errors],
        "converged": bool(result.converged),
        "n_restarts_used": int(result.n_restarts_used),
        "objective_calls": int(result.objective_calls),
        "start_rows": int(result.start_rows),
    }


def sweep():
    data = samples()
    fits = {}
    with warnings.catch_warnings():  # some fits land beyond |beta| = 700
        warnings.simplefilter("ignore")
        for model in MODELS:
            for seed in SEEDS:
                for n_starts in STARTS:
                    opts = mle.FitOptions(n_starts=n_starts, seed=seed)
                    for name, x in data.items():
                        fits[f"{model} {name} seed {seed} starts {n_starts}"] = record(
                            mle.fit(x, model, opts))
                for n_starts in FUSED_STARTS:
                    opts = mle.FitOptions(n_starts=n_starts, seed=seed)
                    results = mle.fit_samples(list(data.values()), model, opts)
                    for name, result in zip(data, results):
                        fits[f"{model} {name} seed {seed} starts {n_starts} fused"] = record(result)
        for seed in SEEDS:
            for n_starts in FUSED_STARTS:
                opts = mle.FitOptions(n_starts=n_starts, seed=seed)
                joint = mle.fit_models(list(data.values()), MODELS, opts)
                for model, results in joint.items():
                    for name, result in zip(data, results):
                        fits[f"{model} {name} seed {seed} starts {n_starts} joint"] = record(result)
    return fits


def summary(old, new):
    """One line per start count over the fits in both ``old`` and ``new``:
    the fits that differ, the largest |change| of the log-likelihood, the
    fits higher and lower by more than ``MOVED``, the ``converged`` flips
    false -> true and true -> false, and the objective calls old -> new of
    their searches, each fused or joint search once."""
    rows, searches = {}, set()
    for key in old.keys() & new.keys():
        a, b = old[key], new[key]
        change = float.fromhex(b["loglik"]) - float.fromhex(a["loglik"])
        words = key.split()
        row = rows.setdefault(int(words[5]), [0] * 9)
        row[0] += 1
        row[1] += a != b
        row[2] = max(row[2], abs(change))  # NaN if either log-likelihood is
        row[3] += change > MOVED
        row[4] += change < -MOVED
        row[5] += b["converged"] and not a["converged"]
        row[6] += a["converged"] and not b["converged"]
        # the search a fit ran in: a fused one holds a model's ten samples,
        # a joint one every model's
        search = {"fused": " ".join(words[:1] + words[2:]), "joint": " ".join(words[2:])}.get(
            words[-1], key)
        if search not in searches:  # a shared search's cost once
            searches.add(search)
            row[7] += a["objective_calls"]
            row[8] += b["objective_calls"]
    print(f"{'starts':>6} {'fits':>5} {'differ':>6} {'max |dl|':>9} {'higher':>6} {'lower':>6}"
          f" {'F->T':>5} {'T->F':>5} {'calls old':>9} {'calls new':>9}")
    for n_starts, (fits, differ, most, up, down, gained, lost, before, after) in sorted(
            rows.items()):
        print(f"{n_starts:>6} {fits:>5} {differ:>6} {most:>9.2g} {up:>6} {down:>6}"
              f" {gained:>5} {lost:>5} {before:>9} {after:>9}")


def diff(old, new):
    """Print each fit that differs between the sweeps ``old`` and ``new``,
    then their ``summary``; the number of fits that differ or are in one
    sweep only."""
    keys, differing = sorted(old.keys() | new.keys()), 0
    for key in keys:
        if key not in old or key not in new:
            print(f"{key}: only in {'new' if key in new else 'old'}")
        elif old[key] != new[key]:
            fields = [f for f in old[key] if old[key][f] != new[key].get(f)]
            print(f"{key}: {', '.join(fields)}")
        else:
            continue
        differing += 1
    print(f"{differing} of {len(keys)} fits differ")
    summary(old, new)
    return differing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="run the sweep and write its fits to this JSON file")
    mode.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                      help="print the fits that differ between two written sweeps")
    args = parser.parse_args(argv)
    if args.diff:
        old, new = (json.loads(Path(path).read_text()) for path in args.diff)
        return 1 if diff(old, new) else 0
    start = time.perf_counter()
    fits = sweep()
    Path(args.out).write_text(json.dumps(fits, indent=1, sort_keys=True) + "\n")
    print(f"{len(fits)} fits in {time.perf_counter() - start:.1f} s -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
