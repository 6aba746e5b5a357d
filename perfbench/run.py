"""Run one benchmark workload against the ptgfit sources of this checkout.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 35 --trace 0

A closed loop with one client: the operations of a workload run one after
another, in this process and on one thread, in whole rounds until
``--seconds`` have passed.  Every result is checked after the timed loop.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The run's details (host, seed, each operation's time and outcome, and the
spans of a traced run) go to ``perfbench/results/``.

Exit status 2 means the run could not start: no ptgfit under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_SAMPLES = 3  # fresh interpreters timed per run for setup_s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


WORKLOAD_NAMES = ("reproduce", "fit_large", "props")


class NoProgram(Exception):
    """The checkout holds no ptgfit sources to benchmark."""


def import_ptgfit():
    """Import ptgfit from ``src/`` of this checkout and nowhere else."""
    src = ROOT / "src"
    if not (src / "ptgfit" / "__init__.py").is_file():
        raise NoProgram(f"no ptgfit package under {src}")
    sys.path.insert(0, str(src))
    import ptgfit
    from ptgfit import competitors, data, distributions, expansions, mle, reproduce

    if Path(ptgfit.__file__).resolve().parent != src / "ptgfit":
        raise NoProgram(f"imported ptgfit from {ptgfit.__file__}, not from {src}")
    return {
        "competitors": competitors, "data": data, "distributions": distributions,
        "expansions": expansions, "mle": mle, "reproduce": reproduce,
    }


def set_up(workload_name, seed):
    """Import, build the inputs and warm up; returns the workload and its timings."""
    t0 = time.perf_counter()
    modules = import_ptgfit()
    t1 = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](modules, seed)
    t2 = time.perf_counter()
    workload.warm_up()
    t3 = time.perf_counter()
    timings = {"import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2}
    return modules, workload, timings


def setup_in_fresh_interpreter(workload_name, seed):
    """Seconds from starting a new interpreter to the point where the first
    timed operation would begin: what a command-line user pays per command."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload_name, "--seed", str(seed)]
    start = time.time()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    ready = json.loads(done.stdout.strip().splitlines()[-1])["ready"]
    return ready - start


def run_loop(workload, seconds, tracer):
    """Whole rounds until ``seconds`` have passed; returns one record per op."""
    records = []
    loop_start = time.perf_counter()
    k = 0
    while True:
        for op in workload.round(k):
            if tracer is not None:
                tracer.op = len(records)
            t0 = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # an operation that raises has failed
                result, error = None, f"{type(exc).__name__}: {exc}"
            records.append({"op": op, "result": result, "error": error,
                            "seconds": time.perf_counter() - t0})
        k += 1
        if time.perf_counter() - loop_start >= seconds:
            return records


def peak_traced_bytes(op):
    """Peak bytes allocated (numpy arrays included) during one untimed call."""
    import tracemalloc

    tracemalloc.start()
    try:
        op.call()
    except Exception:  # the failure is already counted by the timed run
        pass
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def host_info():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def ops_per_s(records):
    """Passed operations per second of summed operation time (failed
    operations' time included: it is spent and yields nothing)."""
    return sum(r["passed"] for r in records) / sum(r["seconds"] for r in records)


def end_to_end_metrics(records, setup_samples):
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (ops_per_s(records), "1/s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }


def per_layer_metrics(records, tracer, timings):
    n = len(records)
    metrics = {}
    for name in (
        "mle.fit", "mle.multistart_maximize", "mle.log_likelihood",
        "mle.observed_information", "competitors.fit_competitor",
        "competitors.moe_loglik", "gof.evaluate_gof", "data.describe",
        "reproduce.run_reproduction",
    ) + tuple(f"expansions.{fn}" for fn in (
        "raw_moment", "mgf", "pwm", "order_stat_pdf", "stress_strength",
        "residual_moment", "reversed_residual_moment", "renyi_entropy",
        "mean_deviation",
    )):
        metrics[f"{name}.self_s"] = (tracer.self_s[name] / n, "s")
    counts = {
        "mle.loglik_evals": tracer.calls_of("mle.log_likelihood"),
        "mle.launches": tracer.counts["mle.launches"],
        "mle.observed_information.loglik_evals": tracer.calls_of(
            "mle.log_likelihood", parent="mle.observed_information"),
        "competitors.moe_loglik_evals": tracer.calls_of("competitors.moe_loglik"),
        "expansions.quad_calls": tracer.counts["expansions.quad_calls"],
        "expansions.integrand_evals": tracer.counts["expansions.integrand_evals"],
    }
    for fn in ("ptg_quantile", "ptg_cdf", "ptg_pdf"):
        name = f"distributions.{fn}.calls"
        counts[name] = tracer.counts[name]
    for name, value in counts.items():
        metrics[name] = (value / n, "count")
    metrics["setup.import_s"] = (timings["import_s"], "s")
    metrics["setup.inputs_s"] = (timings["inputs_s"], "s")
    metrics["setup.warmup_s"] = (timings["warmup_s"], "s")
    metrics["mem.input_bytes"] = (sum(r["op"].input_bytes for r in records) / n, "bytes")
    metrics["mem.peak_traced_bytes"] = (float(peak_traced_bytes(records[0]["op"])), "bytes")
    metrics["trace.ops_per_s"] = (ops_per_s(records), "1/s")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the ready time and exit (used for setup_s)")
    return parser.parse_args(argv)


def main(argv=None):
    # one BLAS/OpenMP thread, here and in the set-up interpreters, before
    # numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(BENCH_DIR))
    args = parse_args(argv)
    try:
        modules, workload, timings = set_up(args.workload, args.seed)
    except NoProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"ready": time.time(), **timings}))
        return 0

    import warnings

    # the fits flag unconverged polishing steps and edge Hessians as
    # warnings; their outcome is judged by the checks, not by stderr
    warnings.simplefilter("ignore")

    setup_samples = []
    if not args.trace:
        setup_samples = [setup_in_fresh_interpreter(args.workload, args.seed)
                         for _ in range(SETUP_SAMPLES)]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(modules)
    try:
        records = run_loop(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    correct = True
    for rec in records:
        rec["problems"] = [] if rec["error"] else workload.check(rec["op"], rec["result"])
        rec["passed"] = rec["error"] is None and not rec["problems"]
        correct = correct and not rec["problems"]
    failed = sum(not r["passed"] for r in records)
    if failed == len(records):
        print("perfbench: every operation failed", file=sys.stderr)
        for rec in records:
            print(f"  {rec['op'].label}: {rec['error'] or rec['problems']}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer_metrics(records, tracer, timings)
    else:
        metrics = end_to_end_metrics(records, setup_samples)

    RESULTS_DIR.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(),
        "attempted": len(records),
        "failed": failed,
        "setup": {**timings, "fresh_interpreter_s": setup_samples},
        "operations": [
            {"label": r["op"].label, "seconds": r["seconds"], "passed": r["passed"],
             "error": r["error"], "problems": r["problems"]}
            for r in records
        ],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        detail["spans"] = {
            "fields": ["op", "id", "parent", "name", "start_s", "end_s"],
            "rows": tracer.spans,
        }
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
