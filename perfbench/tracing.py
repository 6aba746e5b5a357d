"""Spans and counters recorded around calls into ptgfit's public functions.

The tracer never edits ptgfit.  It rebinds a public name in the module that
looks it up (``reproduce.fit``, ``expansions.quad``, ...) to a wrapper and
puts every original back in ``uninstall``.  Spans stay in memory until the
run writes them out with its result file.

A span's self time is its duration minus the time its child spans cover.
Calls made thousands of times per operation (the likelihoods) are timed
like spans, so their parents' self time excludes them, but are kept as a
count and a total per name instead of one record each.  Pure counters
(quadrature calls and integrand evaluations, distribution functions) add
no span and take no time from their caller's self time.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# (module, attribute, span name, keep one record per call)
SPANS = (
    ("reproduce", "run_reproduction", "reproduce.run_reproduction", True),
    ("reproduce", "describe", "data.describe", True),
    ("reproduce", "fit_competitor", "competitors.fit_competitor", True),
    ("reproduce", "evaluate_gof", "gof.evaluate_gof", True),
    ("reproduce", "fit", "mle.fit", True),
    ("mle", "fit", "mle.fit", True),
    ("mle", "multistart_maximize", "mle.multistart_maximize", True),
    ("competitors", "multistart_maximize", "mle.multistart_maximize", True),
    ("mle", "observed_information", "mle.observed_information", True),
    ("mle", "log_likelihood", "mle.log_likelihood", False),
    ("competitors.MarshallOlkinExponential", "loglik", "competitors.moe_loglik", False),
    ("expansions", "raw_moment", "expansions.raw_moment", True),
    ("expansions", "mgf", "expansions.mgf", True),
    ("expansions", "pwm", "expansions.pwm", True),
    ("expansions", "order_stat_pdf", "expansions.order_stat_pdf", True),
    ("expansions", "stress_strength", "expansions.stress_strength", True),
    ("expansions", "residual_moment", "expansions.residual_moment", True),
    ("expansions", "reversed_residual_moment", "expansions.reversed_residual_moment", True),
    ("expansions", "renyi_entropy", "expansions.renyi_entropy", True),
    ("expansions", "mean_deviation", "expansions.mean_deviation", True),
)

# (module, attribute, counter name)
COUNTERS = (
    ("mle", "minimize", "mle.launches"),
    ("expansions", "ptg_quantile", "distributions.ptg_quantile.calls"),
    ("expansions", "ptg_cdf", "distributions.ptg_cdf.calls"),
    ("expansions", "ptg_pdf", "distributions.ptg_pdf.calls"),
    ("reproduce", "ptg_cdf", "distributions.ptg_cdf.calls"),
)


def _resolve(ptgfit_modules, dotted):
    head, *rest = dotted.split(".")
    obj = ptgfit_modules[head]
    for part in rest:
        obj = getattr(obj, part)
    return obj


class Tracer:
    """In-memory spans, per-name self time and counters for one run."""

    def __init__(self):
        self.op = -1  # index of the operation the next spans belong to
        self.spans = []  # (op, span id, parent id, name, start s, end s)
        self.self_s = defaultdict(float)
        self.calls = Counter()  # (name, parent name) -> calls
        self.counts = Counter()
        self._stack = []  # open spans: [id, name, seconds covered by children]
        self._ids = 0
        self._saved = []

    def _timed(self, name, fn, keep):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._ids += 1
            frame = [self._ids, name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                self.self_s[name] += duration - frame[2]
                self.calls[name, parent[1] if parent else None] += 1
                if keep:
                    self.spans.append(
                        (self.op, frame[0], parent[0] if parent else None, name, start, end)
                    )

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_quad(self, quad):
        counts = self.counts

        def wrapper(func, a, b, *args, **kwargs):
            counts["expansions.quad_calls"] += 1

            def integrand(*x):
                counts["expansions.integrand_evals"] += 1
                return func(*x)

            return quad(integrand, a, b, *args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, ptgfit_modules):
        """Rebind every traced name; ``ptgfit_modules`` maps short names to modules."""
        for owner_name, attr, name, keep in SPANS:
            owner = _resolve(ptgfit_modules, owner_name)
            self._patch(owner, attr, self._timed(name, getattr(owner, attr), keep))
        for owner_name, attr, name in COUNTERS:
            owner = _resolve(ptgfit_modules, owner_name)
            self._patch(owner, attr, self._counted(name, getattr(owner, attr)))
        expansions = ptgfit_modules["expansions"]
        self._patch(expansions, "quad", self._counted_quad(expansions.quad))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def calls_of(self, name, parent=None):
        """Calls of ``name``; only those made directly inside ``parent`` if given."""
        return sum(
            n for (child, up), n in self.calls.items()
            if child == name and (parent is None or up == parent)
        )
