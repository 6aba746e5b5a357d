#!/usr/bin/env python3
"""Print the machine-independent cost of the six numerical fits.

For PT-E, PT-W and Marshall-Olkin on the embedded datasets I and II, at each
given seed, prints the cost that each fit records: the batched objective
calls of its lockstep search (the multistart and its polish), the start-rows
those calls evaluate (``FitResult.objective_calls`` and ``start_rows``), and
the fitted log-likelihood.  Each row's line search runs in up to three
stages, its full step, then its next four halvings, then the other
fifteen, and every call evaluates the current stage of every live row, so
the start-rows count trial points, not only the starts, and a search makes
one call for its starts and one per stage of its slowest row.  The polish
restarts only an incumbent that could take a step (a score max-norm of at
least 1e-10).  Below them, the ``reproduce`` line is the one search that
``ptgfit reproduce`` runs: Marshall-Olkin and PT-E, both fitted to both
datasets in one lockstep search (``mle.fit_models``, whose results share
its cost).  The counts do not depend on the machine, so a change to the
search can report them beside its timings.  The total sums the six solo
lines.

    PYTHONPATH=src python3 scripts/fit_cost.py --seeds 0 1 2
"""

import argparse
import sys
import warnings

from ptgfit import mle
from ptgfit.data import EMBEDDED, embedded_dataset

FITS = [(model, key) for key in EMBEDDED for model in ("pte", "ptw", "moe")]
FUSED = ("moe", "pte")  # the numerical fits of the reproduction


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    samples = {key: embedded_dataset(ds_id).values for key, ds_id in EMBEDDED.items()}
    print(f"{'fit':<9} {'seed':>4} {'calls':>6} {'rows':>7} {'loglik':>14}")
    total_calls = total_rows = 0
    with warnings.catch_warnings():  # PT-W on dataset II lands beyond |beta| = 700
        warnings.simplefilter("ignore")
        for seed in args.seeds:
            opts = mle.FitOptions(seed=seed)
            for model, key in FITS:
                res = mle.fit(samples[key], model, opts)
                total_calls += res.objective_calls
                total_rows += res.start_rows
                print(f"{model + ' ' + key:<9} {seed:>4} {res.objective_calls:>6} "
                      f"{res.start_rows:>7} {res.loglik:>14.6f}")
            res = mle.fit_models(list(samples.values()), FUSED, opts)[FUSED[0]][0]
            print(f"{'reproduce':<9} {seed:>4} {res.objective_calls:>6} {res.start_rows:>7}")
    print(f"{'total':<9} {'':>4} {total_calls:>6} {total_rows:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
