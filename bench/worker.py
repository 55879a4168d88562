"""One benchmark process: set up a workload, run its rounds, check the outputs.

Started by run.py, never by hand. Prints one line, ``RESULT {json}``, last.
The set-up time runs from the parent's spawn (``--spawned``, a CLOCK_MONOTONIC
reading, which every process on the machine shares) until the first timed
round could start: interpreter start, imports, inputs and warm-up.

The host's speed drifts by up to 1.5x over minutes, much the same for all
code, so the process also times a fixed piece of work that does not touch
mlphase (``calibrate``): once after set-up and then every CALIBRATE_EVERY_S
seconds of the untraced rounds, from a timer signal, so that a single fit of
half a minute is sampled inside too. The samples' own time is taken out of the
round times, and reported times are scaled to the reference speed at which
that work takes REF_CALIBRATION_S.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext

import numpy as np

CALIBRATE_EVERY_S = 2.0
# Defines the unit of the scaled times; changing it rescales every figure.
REF_CALIBRATION_S = 0.1


def calibrate():
    """Seconds taken by fixed work: an interpreter loop, JSON and regular
    expressions, and float formatting, as the workloads' own code mixes."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(300_000):
        acc += (i % 7) * 0.5
    doc = {"a": list(range(200)), "b": {str(i): i * 0.5 for i in range(200)}}
    for _ in range(100):
        text = json.dumps(doc)
        json.loads(text)
        re.findall(r"\d+\.\d+", text)
    values = np.linspace(0.0, 1.0, 20_000) ** 1.5
    "\n".join(repr(float(v)) for v in values)
    return time.perf_counter() - t0


class Calibrator:
    """Samples calibrate() from a timer while installed; keeps the samples
    and the time they took."""

    def __init__(self):
        self.samples = [calibrate()]
        self.spent_s = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.spent_s += time.perf_counter() - t0

    @contextmanager
    def installed(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S,
                         CALIBRATE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def _run_round(ops):
    out, failures = {}, []
    t0 = time.perf_counter()
    for label, fn in ops:
        try:
            out[label] = fn(out)
        except Exception as e:  # one operation's failure is counted, not fatal
            failures.append((label, f"{type(e).__name__}: {e}"))
    return time.perf_counter() - t0, out, failures


def _same(a, b):
    """Outputs of two rounds are identical (tracing changes no number)."""
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if hasattr(a, "to_json"):
        return a.to_json() == b.to_json()
    return a == b


def _fill_layers(layers, sources, name, seed, workdir):
    """Add the per-layer metrics of one traced round of workload ``name`` that
    ``layers`` does not hold yet; return that round's spans."""
    import tracer as tracing
    import workloads

    os.makedirs(workdir, exist_ok=True)
    ops = workloads.WORKLOADS[name](seed, workdir).operations()
    tracer = tracing.Tracer()
    with tracer.installed():
        _run_round(ops)
    for key, val in tracing.layer_metrics(tracer.spans, 1).items():
        if key not in layers:
            layers[key] = val
            sources[key] = name
    return tracer.spans


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    ops = wl.operations()
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print("RESULT " + json.dumps({
            "setup_s": setup_s, "calibration_s": calibrate()}), flush=True)
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    rounds = []  # (traced, seconds)
    cal = Calibrator()
    first = {}
    attempted, failures = 0, []
    t_start = time.perf_counter()
    # no timer signals inside the spans of a traced run
    with nullcontext() if tracer else cal.installed():
        while True:
            n_traced = sum(1 for r in rounds if r[0])
            traced = bool(tracer) and n_traced < len(rounds) - n_traced
            spent = cal.spent_s
            if traced:
                with tracer.installed():
                    dt, out, failed = _run_round(ops)
            else:
                dt, out, failed = _run_round(ops)
            rounds.append((traced, dt - (cal.spent_s - spent)))
            first.setdefault(traced, out)
            attempted += len(ops)
            failures += failed
            if (time.perf_counter() - t_start >= args.seconds
                    and (not tracer or any(r[0] for r in rounds))):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = [dt for traced, dt in rounds if not traced]
    problems, notes = [], []
    try:
        problems, notes = wl.check(first[False])
    except Exception as e:  # a check that cannot run is a failed check
        problems.append(f"check raised {type(e).__name__}: {e}")
    result = {
        "setup_s": setup_s,
        "job_s": untraced,
        "calibration_s": cal.samples,
        "job_ref_s": (statistics.mean(untraced) * REF_CALIBRATION_S
                      / statistics.mean(cal.samples)),
        "attempted": attempted,
        "failures": failures,
        "problems": problems,
        "notes": notes,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        if not all(_same(first[False][k], first[True].get(k))
                   for k in first[False]):
            problems.append("a traced round's outputs differ from untraced")
        traced = [dt for was_traced, dt in rounds if was_traced]
        layers = tracing.layer_metrics(tracer.spans, len(traced))
        sources = dict.fromkeys(layers, args.workload)
        # metrics of layers this workload never enters come from one traced
        # round of the workload that does
        fill_spans = {}
        for name in workloads.WORKLOADS:
            if name != args.workload:
                fill_spans[name] = _fill_layers(
                    layers, sources, name, args.seed,
                    os.path.join(args.workdir, name))
        # the wrappers' own cost per round; the difference of traced and
        # untraced round times is printed too, but on a fit it is one fit
        # against another and within the host's noise
        spans = len(tracer.spans) / len(traced)
        layers["trace.overhead_s"] = (spans * tracing.span_cost_s(), "s")
        sources["trace.overhead_s"] = args.workload
        result["traced_minus_untraced_s"] = (
            statistics.median(traced) - statistics.median(untraced))
        result["layers"] = layers
        result["layer_sources"] = sources
        tracer.write(os.path.join(args.workdir, "trace.json"), {
            "workload": args.workload, "seed": args.seed,
            "round_s": rounds,
            "other_workload_spans": fill_spans})
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
