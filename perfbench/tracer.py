"""Per-layer tracing done from outside the package.

The tracer replaces package functions with wrappers that record a span per
call and aggregate it in memory: call count, total time and self time (total
minus the time of nested spans).  `from .x import y` copies a function into
the importing module, so each function is wrapped under every name a caller
can look it up by: every `recencysim.*` module attribute that is the original
function object gets the same wrapper.

The wrapper's own bookkeeping (counting, hooks) is charged to neither the
callee nor the caller; it is summed in `bookkeeping` so that

    traced wall = sum of self times + bookkeeping + remainder

where the remainder is code outside every span (the benchmark's own loop).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# Modules whose public functions are traced; the layers of the benchmark.
LAYERS = (
    "recency_model",
    "testing_history",
    "population",
    "estimator",
    "screening_analytics",
    "quadrature",
    "harness",
    "cli",
)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)
        self.distinct = defaultdict(set)
        self.bookkeeping = 0.0
        self._stack = []

    def wrap(self, key, fn, before=None, after=None, sample=False,
             count_calls=True):
        """Return `fn` wrapped in a span named `key`.

        `before(tracer, args, kwargs)` may return replacement args;
        `after(tracer, args, kwargs, result)` sees the result.  Hook time is
        bookkeeping.  With `sample`, each call's duration is kept.  Without
        `count_calls` the span adds time to `key` but no call.
        """
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            b0 = perf_counter()
            if before is not None:
                args = before(self, args, kwargs) or args
            frame = [0.0, key]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.calls[key] += count_calls
                self.total[key] += dur
                self.self_time[key] += dur - frame[0]
                if sample:
                    self.samples[key].append(dur)
                if stack:  # also when fn raised, so the caller's self time stays right
                    stack[-1][0] += t1 - b0
            if after is not None:
                after(self, args, kwargs, result)
            b1 = perf_counter()
            if stack:
                stack[-1][0] += b1 - t1
            self.bookkeeping += (b1 - b0) - dur
            return result

        return wrapper

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "bookkeeping": self.bookkeeping,
        }


# ---------------------------------------------------------------------------
# hooks that derive counts at layer boundaries


def _integrand_span(tracer, f, count):
    """Charge an integrand's own time to the function that set it up.

    An integrand runs inside the quadrature span; without a span of its own
    the caller's work (e.g. survey_composition's weight function) would read
    as quadrature self time.  Its time goes to the innermost open span of the
    integrand's module, as time without a call.
    """
    layer = getattr(f, "__module__", "").rpartition(".")[2]
    if layer in LAYERS and layer != "quadrature":
        owner = next((key for _, key in reversed(tracer._stack)
                      if key.startswith(layer + ".")), f"{layer}.integrand")
        f = tracer.wrap(owner, f, count_calls=False)
    if not count:
        return f

    def counted(x):
        tracer.counts["quadrature.integrand_evals"] += 1
        return f(x)

    return counted


def _before_simpson(tracer, args, kwargs):
    return (_integrand_span(tracer, args[0], count=True), *args[1:])


def _before_simpson_sqrt0(tracer, args, kwargs):
    # evaluations are counted once, in the adaptive_simpson call this makes
    return (_integrand_span(tracer, args[0], count=False), *args[1:])


def _before_mdri(tracer, args, kwargs):
    tracer.distinct["recency_model.mdri"].add(args[0] if args else kwargs["assay"])


def _before_observe(tracer, args, kwargs):
    residual, u, infected, process = args[:4]
    if process.observation_rule.value == "swp":
        u_inf = np.where(infected, u, -np.inf)
        tracer.counts["testing_history.swp_active"] += int(
            np.count_nonzero(infected & (residual < u_inf))
        )


def _before_sample_batch(tracer, args, kwargs):
    tracer.counts["population.drawn"] += int(args[4] if len(args) > 4 else kwargs["size"])


def _after_assemble(tracer, args, kwargs, rows):
    tracer.counts["population.admitted"] += int(rows.d.size)
    tracer.counts["population.screened"] += int(rows.n_screened)


def _after_write(tracer, args, kwargs, ok):
    from pathlib import Path

    out_dir = Path(args[1] if len(args) > 1 else kwargs["out_dir"])
    for name in ("replications.csv", "summary.csv"):
        tracer.counts["harness.bytes_written"] += (out_dir / name).stat().st_size


# key -> wrap options.  The key names the defining module and function;
# "Class.method" keys patch the class attribute.
TARGETS = {
    "recency_model.mdri": dict(before=_before_mdri),
    "recency_model.phi": {},
    "quadrature.adaptive_simpson": dict(before=_before_simpson),
    "quadrature.adaptive_simpson_sqrt0": dict(before=_before_simpson_sqrt0),
    "testing_history.sample_residual": {},
    "testing_history.observe_most_recent_many": dict(before=_before_observe),
    "population._sample_batch": dict(before=_before_sample_batch),
    "population.assemble_survey_rows": dict(after=_after_assemble),
    "estimator.kassanjee_estimate": {},
    "estimator.log_variance": {},
    "estimator.effective_mdri_closed": {},
    "estimator.analytic_bias": {},
    "estimator.survey_composition": {},
    "screening_analytics.inclusion_probability": {},
    "screening_analytics.required_screening": {},
    "screening_analytics.forecast": {},
    "harness.ScenarioResult.summary": {},
    "harness.run_replication": dict(sample=True),
    "harness.run_scenario": dict(sample=True),
    "harness.run_grid": {},
    "harness._analytic_columns": {},
    "harness.write_results": dict(after=_after_write),
    "harness.build_grid": {},
    "harness.build_sensitivity": {},
    "harness.emit_table1": {},
    "cli.main": {},
}


def install(tracer, keys=None):
    """Wrap every target (or those in `keys`) under each name bound to it.

    Every `recencysim.*` module attribute that is the original function gets
    the wrapper.  Targets whose module or function no longer exists are
    skipped; their metrics then read zero.
    """
    for key, opts in TARGETS.items():
        if keys is not None and key not in keys:
            continue
        modname, _, attr = key.partition(".")
        try:
            mod = importlib.import_module(f"recencysim.{modname}")
        except ImportError:
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is not None and meth in vars(cls):
                setattr(cls, meth, tracer.wrap(key, vars(cls)[meth], **opts))
            continue
        orig = getattr(mod, attr, None)
        if orig is None:
            continue
        wrapper = tracer.wrap(key, orig, **opts)
        for name, m in list(sys.modules.items()):
            if name == "recencysim" or name.startswith("recencysim."):
                for a, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, a, wrapper)
