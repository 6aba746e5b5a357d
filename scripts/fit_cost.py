#!/usr/bin/env python3
"""Print the machine-independent cost of the six numerical fits.

For PT-E, PT-W and Marshall-Olkin on the embedded datasets I and II, at each
given seed, prints the batched objective calls of the lockstep search (the
multistart and its polish), the start-rows those calls evaluate (the sum of
their row counts) and the fitted log-likelihood.  The counts do not depend on
the machine, so a change to the search can report them beside its timings.

    PYTHONPATH=src python3 scripts/fit_cost.py --seeds 0 1 2
"""

import argparse
import sys
import warnings

from ptgfit import mle
from ptgfit.data import EMBEDDED, embedded_dataset

FITS = [(model, key) for key in EMBEDDED for model in ("pte", "ptw", "moe")]


def fit_cost(model, key, seed):
    """``(calls, rows, loglik)`` of one fit with the default 20 starts,
    counted by wrapping the objective that
    :func:`ptgfit.mle.multistart_maximize` hands to :func:`ptgfit.mle.minimize`."""
    tally = [0, 0]
    minimize = mle.minimize

    def counted(fun, z0, box, *args):
        def fun_counted(z):
            tally[0] += 1
            tally[1] += len(z)
            return fun(z)

        return minimize(fun_counted, z0, box, *args)

    mle.minimize = counted
    try:
        with warnings.catch_warnings():  # PT-W on dataset II lands beyond |beta| = 700
            warnings.simplefilter("ignore")
            result = mle.fit(embedded_dataset(EMBEDDED[key]).values, model,
                             mle.FitOptions(seed=seed))
    finally:
        mle.minimize = minimize
    return tally[0], tally[1], result.loglik


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    print(f"{'fit':<8} {'seed':>4} {'calls':>6} {'rows':>7} {'loglik':>14}")
    total_calls = total_rows = 0
    for seed in args.seeds:
        for model, key in FITS:
            calls, rows, loglik = fit_cost(model, key, seed)
            total_calls += calls
            total_rows += rows
            print(f"{model + ' ' + key:<8} {seed:>4} {calls:>6} {rows:>7} {loglik:>14.6f}")
    print(f"{'total':<8} {'':>4} {total_calls:>6} {total_rows:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
