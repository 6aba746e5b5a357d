#!/usr/bin/env python3
"""Write the JSON output of every CLI command, or diff two such files.

The sweep runs ``fit``, ``gof``, ``sample``, ``curves`` and ``props`` for
every model tag of ``mle.MODELS`` on each embedded dataset, ``ttt`` on each
dataset and ``reproduce`` once, all at seed 0 and in one process through
``cli.main``; ``props`` refuses the models other than PT-E and PT-W, and
its refusals are outputs too.  For each command line it records the exit
code, the JSON written to stdout (without ``elapsed_seconds``, the only
field that reads a clock), anything written to stderr and the message of
each warning raised.
Run it on two versions of the package on one machine and diff the files: a
change that means to keep every output reports no difference.

    PYTHONPATH=src python3 scripts/ab_outputs.py --out before.json
    PYTHONPATH=src python3 scripts/ab_outputs.py --out after.json
    PYTHONPATH=src python3 scripts/ab_outputs.py --diff before.json after.json

``--diff`` prints each command whose output differs, with the fields that
differ, and a count; it exits 1 when any output differs or is missing from
one file.
"""

import argparse
import contextlib
import io
import json
import sys
import time
import warnings
from pathlib import Path

from ab_fits import differences  # this script's directory leads sys.path
from ptgfit import cli
from ptgfit.data import EMBEDDED
from ptgfit.mle import MODELS

FITTED = ("fit", "gof", "sample", "curves", "props")  # the commands that fit --model to --data


def command_lines():
    """Every command line of the sweep, without ``--format json``."""
    lines = []
    for key in EMBEDDED:
        data = ["--data", f"embedded:{key}"]
        lines += [[command, "--model", model, *data, "--seed", "0"]
                  for command in FITTED for model in MODELS]
        lines.append(["ttt", *data])
    lines.append(["reproduce", "--seed", "0"])
    return lines


def run(argv):
    """One command's exit code, JSON payload, stderr and warning messages."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([*argv, "--format", "json"])
    payload = json.loads(out.getvalue()) if out.getvalue() else None
    if isinstance(payload, dict):
        payload.pop("elapsed_seconds", None)
    return {"code": code, "json": payload, "stderr": err.getvalue(),
            "warnings": [str(w.message) for w in caught]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="run the sweep and write its outputs to this JSON file")
    mode.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                      help="print the outputs that differ between two written sweeps")
    args = parser.parse_args(argv)
    if args.diff:
        old, new = (json.loads(Path(path).read_text()) for path in args.diff)
        return 1 if differences(old, new, "outputs") else 0
    start = time.perf_counter()
    outputs = {" ".join(line): run(line) for line in command_lines()}
    Path(args.out).write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    print(f"{len(outputs)} outputs in {time.perf_counter() - start:.1f} s -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
