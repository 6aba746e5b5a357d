#!/usr/bin/env python3
"""Print the machine-independent cost of the six numerical fits.

For PT-E, PT-W and Marshall-Olkin on the embedded datasets I and II, at each
given seed, prints the batched objective calls of the lockstep search (the
multistart and its polish), the start-rows those calls evaluate (the sum of
their row counts) and the fitted log-likelihood.  A line search makes at
most three calls: the full step of each row, then its next four halvings,
then the other fifteen, so the start-rows count trial points, not only the
starts.  The polish restarts only an incumbent that could take a step (a
score max-norm of at least 1e-10), and makes no call when none can.  Below
them, the ``reproduce`` line counts the fits that ``ptgfit reproduce`` runs:
Marshall-Olkin and PT-E, each fitted to both datasets in one lockstep search
(``mle.fit_samples``).  The counts do not depend on the machine, so a change
to the search can report them beside its timings.  The total sums the six
solo lines.

    PYTHONPATH=src python3 scripts/fit_cost.py --seeds 0 1 2
"""

import argparse
import sys
import warnings

from ptgfit import mle
from ptgfit.data import EMBEDDED, embedded_dataset

FITS = [(model, key) for key in EMBEDDED for model in ("pte", "ptw", "moe")]
FUSED = ("moe", "pte")  # the numerical fits of the reproduction


def fit_cost(fit_all, seed):
    """``(calls, rows, results)`` of ``fit_all(opts)`` with the default 20
    starts, counted by wrapping the objective that
    :func:`ptgfit.mle.multistart_maximize` hands to :func:`ptgfit.mle.minimize`."""
    tally = [0, 0]
    minimize = mle.minimize

    def counted(fun, z0, box, *args):
        def fun_counted(z, labels):
            tally[0] += 1
            tally[1] += len(z)
            return fun(z, labels)

        return minimize(fun_counted, z0, box, *args)

    mle.minimize = counted
    try:
        with warnings.catch_warnings():  # PT-W on dataset II lands beyond |beta| = 700
            warnings.simplefilter("ignore")
            results = fit_all(mle.FitOptions(seed=seed))
    finally:
        mle.minimize = minimize
    return tally[0], tally[1], results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    samples = {key: embedded_dataset(ds_id).values for key, ds_id in EMBEDDED.items()}
    print(f"{'fit':<9} {'seed':>4} {'calls':>6} {'rows':>7} {'loglik':>14}")
    total_calls = total_rows = 0
    for seed in args.seeds:
        for model, key in FITS:
            calls, rows, result = fit_cost(lambda o: mle.fit(samples[key], model, o), seed)
            total_calls += calls
            total_rows += rows
            print(f"{model + ' ' + key:<9} {seed:>4} {calls:>6} {rows:>7} {result.loglik:>14.6f}")
        calls, rows, _ = fit_cost(
            lambda o: [mle.fit_samples(list(samples.values()), model, o) for model in FUSED], seed
        )
        print(f"{'reproduce':<9} {seed:>4} {calls:>6} {rows:>7}")
    print(f"{'total':<9} {'':>4} {total_calls:>6} {total_rows:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
