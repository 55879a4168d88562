"""Per-layer spans recorded from outside the library.

A traced round replaces, for its duration only, the names that mlphase
modules look up at call time (``fitting.nll``, ``cli.sample_pmml``,
``distributions._ml_deriv_vec`` and so on) with wrappers that record one span
per call: name, start, end, parent span, points handled and a detail such as
the derivative order or the structure class. The originals are put back when
the round ends, so untraced rounds run the library untouched. Spans stay in
memory and are written out once, when the run ends.
"""
from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

from mlphase import (
    cli,
    distributions,
    fitting,
    mlfun,
    phasetype,
    sampling,
    semimarkov,
    tailtools,
)

# span fields
NAME, START, END, PARENT, POINTS, DETAIL = range(6)


def _size(args, kwargs, pos):
    size = kwargs.get("size", args[pos] if len(args) > pos else None)
    return 1 if size is None else int(size)


def _len(pos):
    return lambda args, kwargs: len(args[pos])


def _logpdf_class(args, kwargs):
    ph = args[1]
    if ph.structure in (phasetype.ERLANG, phasetype.MIXTURE_ERLANG):
        return ph.structure
    if ph.structure == phasetype.COXIAN and distributions._coxian_ok(
            ph.params["rates"]):
        return "coxian"
    return "general"


def _sample_class(args, kwargs):
    gen = args[0]
    gamma = (phasetype.ERLANG, phasetype.MIXTURE_ERLANG)
    return "gamma" if gen.structure in gamma else "chain"


def _regime(label):
    return lambda args, kwargs: label


# the public names the workloads call; pmml_sf, pmml_logsf and pmml_cdf call them too
_DIST_API = ("mml_pdf", "mml_sf", "mml_logsf", "mml_cdf")

# (module, attribute, span name, points(args, kwargs), detail(args, kwargs))
_WRAPS = [
    (cli, "main", "cli.main", None, lambda a, k: a[0][0]),
    (cli, "pmml_pdf", "distributions.api", None, None),
    (cli, "pmml_cdf", "distributions.api", None, None),
    (cli, "pmml_sf", "distributions.api", None, None),
    (cli, "sample_pmml", "sampling.sample", lambda a, k: _size(a, k, 2), None),
    (cli, "simulate_absorption", "semimarkov.simulate",
     lambda a, k: _size(a, k, 2), None),
    (cli, "qq_uniform", "tailtools.qq", None, None),
    (fitting, "fit_pmml", "fitting.fit", None, None),
    (fitting, "nll", "fitting.nll", None, None),
    (fitting, "pmml_logpdf", "distributions.api", None, None),
    *[(distributions, name, "distributions.api", None, None)
      for name in _DIST_API],
    (distributions, "_dispatch_logpdf", "distributions.logpdf", _len(3),
     _logpdf_class),
    (distributions, "_dispatch_logsf", "distributions.logsf", _len(3),
     _logpdf_class),
    (distributions, "_ml_vec", "mlfun.scalar", _len(2), lambda a, k: 0),
    (distributions, "_ml_deriv_vec", "mlfun.scalar", _len(2),
     lambda a, k: a[3]),
    (distributions, "ml_matrix", "mlfun.ml_matrix", None, None),
    (tailtools, "pmml_cdf", "distributions.api", None, None),
    (tailtools, "hill_curve", "tailtools.hill", None, None),
    (tailtools, "qq_uniform", "tailtools.qq", None, None),
    (mlfun, "ml_eval", "mlfun.ml_eval", lambda a, k: np.size(a[1]), None),
    (mlfun, "ml_deriv", "mlfun.ml_deriv", lambda a, k: np.size(a[1]),
     lambda a, k: a[2]),
    (mlfun, "_ml_deriv_vec", "mlfun.deriv", _len(2), lambda a, k: a[3]),
    (mlfun, "ml_matrix", "mlfun.ml_matrix", None, None),
    (mlfun, "_matrix_series_f64", "mlfun.series_f64", None, None),
    (mlfun, "_matrix_series_mp", "mlfun.series_mp", None, None),
    (mlfun, "_series_vec", "mlfun.regime", _len(2), _regime("series")),
    (mlfun, "_series_deriv_vec", "mlfun.regime", _len(2), _regime("series")),
    (mlfun, "_asymp_vec", "mlfun.regime", _len(2), _regime("asymptotic")),
    (mlfun, "_contour_offpole_vec", "mlfun.regime", _len(2),
     _regime("contour_offpole")),
    (mlfun, "_contour_pole_scalar", "mlfun.regime", lambda a, k: 1,
     _regime("contour_pole")),
    (semimarkov, "ml_matrix", "mlfun.ml_matrix", None, None),
    (semimarkov, "simulate_absorption", "semimarkov.simulate",
     lambda a, k: _size(a, k, 2), None),
    (semimarkov, "transition_matrix", "semimarkov.transition_matrix", None,
     None),
    (sampling, "sample_pmml", "sampling.sample", lambda a, k: _size(a, k, 2),
     None),
    (sampling, "sample_mml", "sampling.sample", lambda a, k: _size(a, k, 2),
     None),
    (sampling, "sample_ml_scalar", "sampling.ml_scalar",
     lambda a, k: _size(a, k, 3), None),
    (sampling, "sample_positive_stable", "sampling.positive_stable",
     lambda a, k: _size(a, k, 2), None),
    (sampling, "ph_sample", "phasetype.ph_sample", lambda a, k: _size(a, k, 2),
     _sample_class),
]


class Tracer:
    """Collects spans while installed; each install marks one traced round."""

    def __init__(self):
        self.spans = []
        self.rounds = []  # (first span index, end index) per traced round
        self._stack = []

    def _wrapper(self, fn, name, points, detail):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   points(args, kwargs) if points else 1,
                   detail(args, kwargs) if detail else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if name == "fitting.nll":
                rec[DETAIL] = math.isfinite(out)
            return out

        return traced

    @contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in _WRAPS]
        first = len(self.spans)
        for (mod, attr, name, points, detail), (_, _, fn) in zip(_WRAPS, saved):
            setattr(mod, attr, self._wrapper(fn, name, points, detail))
        try:
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
            self.rounds.append((first, len(self.spans)))

    def write(self, path, extra):
        doc = {"fields": ["name", "start", "end", "parent", "points",
                          "detail"],
               "rounds": self.rounds, "spans": self.spans,
               "self_s_by_layer": self_time_by_layer(self.spans), **extra}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def span_cost_s(calls=10_000, batches=5):
    """Seconds one traced call adds to the call it wraps: a wrapped no-op
    against the bare no-op, the median over several batches. The wrapper
    computes a point count and a detail, as the real ones do."""
    def noop(*args, **kwargs):
        return None

    costs = []
    for _ in range(batches):
        wrapped = Tracer()._wrapper(noop, "noop", lambda a, k: 1,
                                    lambda a, k: None)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _layer(name):
    return name.split(".", 1)[0]


def _child_time(spans):
    inner = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            inner[s[PARENT]] += s[END] - s[START]
    return inner


def self_time_by_layer(spans):
    """Span duration minus the time its child spans cover, summed per layer."""
    inner = _child_time(spans)
    out = {}
    for i, s in enumerate(spans):
        layer = _layer(s[NAME])
        out[layer] = out.get(layer, 0.0) + (s[END] - s[START] - inner[i])
    return out


def _matrix_branch(i, spans, children):
    kinds = {spans[c][NAME] for c in children.get(i, ())}
    if "mlfun.ml_matrix" in kinds:
        return "components"
    if "mlfun.series_mp" in kinds:
        return "series_mp"
    if "mlfun.series_f64" in kinds:
        return "series_f64"
    if "mlfun.deriv" in kinds:
        return "bidiagonal"
    return "eig"


def layer_metrics(spans, n_jobs):
    """Per-layer metrics from the spans of n_jobs traced rounds.

    A metric whose layer these spans never entered is left out, so the
    caller can tell a layer the workload does not use from a measured value.
    """
    dur = [s[END] - s[START] for s in spans]
    inner = _child_time(spans)
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(i)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    m = {}

    def put(key, value, unit):
        m[key] = (value, unit)

    def per_point(key, idx, scale, unit):
        pts = sum(spans[i][POINTS] for i in idx)
        if idx and pts:
            put(key, sum(dur[i] for i in idx) / pts * scale, unit)

    def per_call(key, idx, scale, unit):
        if idx:
            put(key, sum(dur[i] for i in idx) / len(idx) * scale, unit)

    mains = by_name.get("cli.main", [])
    for cmd, key in (("eval", "eval_s"), ("qq", "qq_s"), ("sample", "sample_s"),
                     ("simulate-sm", "simulate_sm_s")):
        per_call(f"cli.{key}", [i for i in mains if spans[i][DETAIL] == cmd],
                 1.0, "s")
    if mains:
        put("cli.self_s", sum(dur[i] - inner[i] for i in mains) / n_jobs, "s")

    fits = by_name.get("fitting.fit", [])
    nlls = by_name.get("fitting.nll", [])
    if fits:
        per_call("fitting.fit_s", fits, 1.0, "s")
        put("fitting.self_s",
            sum(dur[i] - inner[i] for i in fits) / len(fits), "s")
        put("fitting.nll_calls", len(nlls) / len(fits), "count")
    if nlls:
        put("fitting.nll_ms", statistics.median(dur[i] for i in nlls) * 1e3,
            "ms")
        put("fitting.nll_finite_ratio",
            sum(1 for i in nlls if spans[i][DETAIL]) / len(nlls), "ratio")

    dist_spans = [i for i, s in enumerate(spans)
                  if _layer(s[NAME]) == "distributions"]
    for kind in ("logpdf", "logsf"):
        idx = by_name.get(f"distributions.{kind}", [])
        classes = {}
        for i in idx:
            cls = spans[i][DETAIL]
            if cls == "general":
                kinds = {spans[c][NAME] for c in children.get(i, ())}
                cls = ("general_matrix" if "mlfun.ml_matrix" in kinds
                       else "general_spectral")
            classes.setdefault(cls, []).append(i)
        for cls, members in classes.items():
            per_point(f"distributions.{kind}_us_per_pt.{cls}", members, 1e6,
                      "us/pt")
    if dist_spans:
        put("distributions.self_s",
            sum(dur[i] - inner[i] for i in dist_spans) / n_jobs, "s")

    scalar = by_name.get("mlfun.scalar", [])
    if scalar:
        put("mlfun.scalar_s", sum(dur[i] for i in scalar) / n_jobs, "s")
    regimes = {}
    for i in by_name.get("mlfun.regime", []):
        regimes.setdefault(spans[i][DETAIL], []).append(i)
    for regime, members in regimes.items():
        per_point(f"mlfun.ml_eval_us_per_pt.{regime}", members, 1e6, "us/pt")
    derivs = by_name.get("mlfun.deriv", []) + scalar
    for k in (1, 4, 8):
        per_point(f"mlfun.ml_deriv_us_per_pt.k{k}",
                  [i for i in derivs if spans[i][DETAIL] == k], 1e6, "us/pt")
    matrices = by_name.get("mlfun.ml_matrix", [])
    branches = {}
    for i in matrices:
        branches.setdefault(_matrix_branch(i, spans, children), []).append(i)
    for branch, members in branches.items():
        per_call(f"mlfun.ml_matrix_ms.{branch}", members, 1e3, "ms")
    if matrices:
        from_dist = [i for i in matrices if spans[i][PARENT] >= 0
                     and _layer(spans[spans[i][PARENT]][NAME])
                     == "distributions"]
        put("mlfun.ml_matrix_calls", len(from_dist) / n_jobs, "count")

    draws = {}
    for i in by_name.get("phasetype.ph_sample", []):
        draws.setdefault(spans[i][DETAIL], []).append(i)
    for cls, members in draws.items():
        per_point(f"phasetype.ph_sample_ns_per_draw.{cls}", members, 1e9,
                  "ns/draw")
    outer = [i for i in by_name.get("sampling.sample", [])
             if spans[i][PARENT] < 0
             or spans[spans[i][PARENT]][NAME] != "sampling.sample"]
    per_point("sampling.sample_pmml_ns_per_draw", outer, 1e9, "ns/draw")
    per_point("sampling.positive_stable_ns_per_draw",
              by_name.get("sampling.positive_stable", []), 1e9, "ns/draw")
    per_point("semimarkov.simulate_ns_per_path",
              by_name.get("semimarkov.simulate", []), 1e9, "ns/path")
    per_call("semimarkov.transition_matrix_ms",
             by_name.get("semimarkov.transition_matrix", []), 1e3, "ms")
    per_call("tailtools.hill_ms", by_name.get("tailtools.hill", []), 1e3, "ms")
    per_call("tailtools.qq_ms", by_name.get("tailtools.qq", []), 1e3, "ms")
    return m
