"""Spans and counts recorded around gtsfit's internal call boundaries.

The program is not edited: each boundary function is replaced, for the
length of one traced round, by a wrapper installed on the module that looks
the name up at call time (``gtsfit.mle._field_batch`` is the function mle
calls; ``gtsfit.frft._field_batch`` is left alone). A name that a later
version of the program renames or removes is reported as absent, and the
layer metrics that depend on it are left out of the result.

Spans live in memory as [name, start, end, parent] rows and are written out
once the run ends. A span's self time is its duration minus the durations of
its direct children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = {}
        self.absent = []
        self.absent_spans = set()
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def count(self, key, n=1):
        self.counts[key] += n

    def high(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- installation ------------------------------------------------------

    def wrap(self, module_name, attr, span, before=None, after=None, error=None):
        """Replace module_name.attr (attr may be 'Class.method') by a wrapper
        that records `span` around every call. before(tracer, args, kwargs)
        runs first, after(tracer, args, kwargs, result) may replace the
        result, error(tracer, exc) sees exceptions that escape the call."""
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if not callable(original):
            self.absent.append(f"{module_name}.{attr}")
            self.absent_spans.add(span)
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            tracer.begin(span)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if error is not None:
                    error(tracer, exc)
                raise
            finally:
                tracer.end()
            if after is not None:
                result = after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, leaf, wrapper)
        self._restore.append((owner, leaf, original))

    def uninstall(self):
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    # -- summaries ---------------------------------------------------------

    def span_table(self):
        """{name: {"calls", "total_s", "self_s"}} over all closed spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, t0, t1, _) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
        return dict(table)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "maxima": self.maxima,
                    "absent": self.absent,
                },
                fh,
            )


# -- the boundaries gtsfit's layers are measured at ---------------------------


def _level(tracer, args, kwargs):
    level = args[2] if len(args) > 2 else kwargs["level"]
    tracer.count(f"frft.batches_l{level}")


def _tail_reject(tracer, exc):
    if type(exc).__name__ == "GridError":
        tracer.count("frft.tail_rejects")


def _transform_rows(tracer, args, kwargs):
    shape = getattr(args[0], "shape", ())
    rows = math.prod(shape[:-1]) if len(shape) > 1 else 1
    n = shape[-1] if shape else 0
    tracer.count("frft.transform_rows", rows)
    tracer.count("frft.transform_points", rows * n)
    tracer.high("frft.max_grid_n", n)


def _fit_result(tracer, args, kwargs, result):
    tracer.count("mle.fits")
    tracer.count("mle.iterations", len(result[1].rows))
    return result


def _count_cdf_reads(tracer, args, kwargs, cdf):
    def counted(x):
        tracer.count("gof.model_cdf_calls")
        return cdf(x)

    return counted


def _durbin_order(tracer, args, kwargs):
    d, m = args[0], args[1]
    if d * m > 0.5 and d < 1.0:
        tracer.high("gof.max_durbin_order", 2 * math.ceil(d * m) - 1)


def _draws(tracer, args, kwargs):
    tracer.count("sampler.draws", args[1] if len(args) > 1 else kwargs["n"])


def install(tracer):
    """Wrap every measured boundary; the caller uninstalls when done."""
    w = tracer.wrap
    w("gtsfit.frft", "characteristic_function", "model.char_fn")
    w("gtsfit.frft", "grad_psi", "model.grad_psi")
    w("gtsfit.frft", "hess_psi", "model.hess_psi")
    w("gtsfit.mle", "_field_batch", "frft.batch", before=_level, error=_tail_reject)
    # importlib: plain `import gtsfit.frft` yields the frft function, which
    # shadows the submodule of the same name
    w("gtsfit.frft", "frft", "frft.transform", before=_transform_rows)
    for mod in ("gtsfit.mle", "gtsfit.cli", "gtsfit.sampler"):
        w(mod, "auto_grid", "frft.grid")
    w("gtsfit.mle", "_interp_weights", "frft.interp")
    w("gtsfit.mle", "_interp_apply", "frft.interp")
    w("gtsfit.cli", "interpolate", "frft.interp")
    w("gtsfit.cli", "cdf_field", "frft.cdf_field")
    w("gtsfit.sampler", "cdf_field", "sampler.cdf_field")
    w("gtsfit.mle", "fit", "mle.fit", after=_fit_result)
    w("gtsfit.mle", "_try_candidate", "mle.candidate")
    w("gtsfit.mle", "_grid_context", "mle.grid_context")
    w("gtsfit.mle", "_evaluate", "mle.evaluate")
    w("gtsfit.mle", "max_eigenvalue", "mle.eig")
    w("gtsfit.gof", "ks_statistic", "gof.ks_statistic")
    w("gtsfit.cli", "_model_cdf", "gof.model_cdf_build", after=_count_cdf_reads)
    w("gtsfit.gof", "ks_exact_cdf", "gof.exact_cdf", before=_durbin_order)
    w("gtsfit.sampler", "uniforms", "sampler.uniforms", before=_draws)
    w("gtsfit.sampler", "_invert", "sampler.invert")
    w("gtsfit.cli", "_read_returns", "cli.read")
    w("gtsfit.mle", "FitTrace.to_csv", "cli.write")
    w("gtsfit.sampler", "samples_to_csv", "cli.write")


def layer_metrics(tracer):
    """Per-layer metrics of one traced round, as {name: (value, unit)}.

    Each row names the spans it is read from; it is left out when a wrapper
    for one of them was absent. Times are self times, except mle.evaluate_s,
    which is inclusive so that it can be set beside its self time
    mle.assembly_s."""
    tab = tracer.span_table()
    cnt = tracer.counts

    def calls(span):
        return tab.get(span, {}).get("calls", 0)

    def self_s(*spans):
        return sum(tab.get(s, {}).get("self_s", 0.0) for s in spans)

    def total_s(span):
        return tab.get(span, {}).get("total_s", 0.0)

    iterations = cnt["mle.iterations"]
    candidates = calls("mle.candidate")
    rows = [
        ("model.char_fn_calls", "model.char_fn", calls("model.char_fn"), "count"),
        ("model.char_fn_s", "model.char_fn", self_s("model.char_fn"), "s"),
        ("model.grad_psi_calls", "model.grad_psi", calls("model.grad_psi"), "count"),
        ("model.grad_psi_s", "model.grad_psi", self_s("model.grad_psi"), "s"),
        ("model.hess_psi_calls", "model.hess_psi", calls("model.hess_psi"), "count"),
        ("model.hess_psi_s", "model.hess_psi", self_s("model.hess_psi"), "s"),
        ("frft.batches_l1", "frft.batch", cnt["frft.batches_l1"], "count"),
        ("frft.batches_l8", "frft.batch", cnt["frft.batches_l8"], "count"),
        ("frft.batches_l36", "frft.batch", cnt["frft.batches_l36"], "count"),
        ("frft.tail_rejects", "frft.batch", cnt["frft.tail_rejects"], "count"),
        ("frft.batch_s", "frft.batch", self_s("frft.batch"), "s"),
        ("frft.transform_calls", "frft.transform", calls("frft.transform"), "count"),
        ("frft.transform_rows", "frft.transform", cnt["frft.transform_rows"], "count"),
        ("frft.transform_points", "frft.transform", cnt["frft.transform_points"], "points"),
        ("frft.transform_s", "frft.transform", self_s("frft.transform"), "s"),
        ("frft.max_grid_n", "frft.transform", tracer.maxima.get("frft.max_grid_n", 0), "count"),
        ("frft.grid_calls", "frft.grid", calls("frft.grid"), "count"),
        ("frft.grid_s", "frft.grid", self_s("frft.grid"), "s"),
        ("frft.interp_calls", "frft.interp", calls("frft.interp"), "count"),
        ("frft.interp_s", "frft.interp", self_s("frft.interp"), "s"),
        ("frft.cdf_field_s", ("frft.cdf_field", "sampler.cdf_field"),
         self_s("frft.cdf_field", "sampler.cdf_field"), "s"),
        ("mle.iterations", "mle.fit", iterations, "count"),
        ("mle.candidates", "mle.candidate", candidates, "count"),
        ("mle.accept_ratio", "mle.candidate", iterations / candidates if candidates else 0.0, "ratio"),
        ("mle.regrids", "mle.grid_context", max(calls("mle.grid_context") - cnt["mle.fits"], 0), "count"),
        ("mle.evaluate_s", "mle.evaluate", total_s("mle.evaluate"), "s"),
        ("mle.assembly_s", "mle.evaluate", self_s("mle.evaluate"), "s"),
        ("mle.eig_s", "mle.eig", self_s("mle.eig"), "s"),
        ("gof.ks_statistic_s", "gof.ks_statistic", self_s("gof.ks_statistic"), "s"),
        ("gof.model_cdf_calls", "gof.model_cdf_build", cnt["gof.model_cdf_calls"], "count"),
        ("gof.exact_cdf_calls", "gof.exact_cdf", calls("gof.exact_cdf"), "count"),
        ("gof.exact_cdf_s", "gof.exact_cdf", self_s("gof.exact_cdf"), "s"),
        ("gof.max_durbin_order", "gof.exact_cdf", tracer.maxima.get("gof.max_durbin_order", 0), "count"),
        ("sampler.draws", "sampler.uniforms", cnt["sampler.draws"], "count"),
        ("sampler.uniforms_s", "sampler.uniforms", self_s("sampler.uniforms"), "s"),
        ("sampler.invert_s", "sampler.invert", self_s("sampler.invert"), "s"),
        ("sampler.cdf_field_s", "sampler.cdf_field", self_s("sampler.cdf_field"), "s"),
        ("cli.read_s", "cli.read", self_s("cli.read"), "s"),
        ("cli.write_s", "cli.write", self_s("cli.write"), "s"),
    ]
    out = {}
    for name, spans, value, unit in rows:
        spans = (spans,) if isinstance(spans, str) else spans
        if not tracer.absent_spans.intersection(spans):
            out[name] = (value, unit)
    return out
