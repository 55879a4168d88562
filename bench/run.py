"""mlphase benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an mlphase checkout; the library is imported from
``src/`` as it stands, with no install step. The workloads and metrics are
those of BENCHMARK.json. Each workload runs in its own process (bench/
worker.py) as a closed loop of rounds for S seconds; with --trace 0 the run
then starts SETUP_REPEATS more processes that only set up, and reports the
median of their set-up times. Both times are scaled to the reference host
speed that worker.py defines; the wall times are printed too. With --trace 1
a single process alternates untraced and traced rounds and reports the
per-layer metrics, which are wall times.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exit code 0 on a completed run, 2 when the
checkout or the arguments are unusable, 1 when a worker fails.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from worker import REF_CALIBRATION_S  # noqa: E402

SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0
RUNS_DIR = ".bench_runs"
# one BLAS thread: the matrices are at most 12 x 12, and a second thread only
# adds scheduling noise on a 2-core machine
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _worker(args, workdir, deadline, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--spawned", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=dict(os.environ, **THREAD_ENV),
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1][len("RESULT "):])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "mlphase", "__init__.py")):
        print("bench: src/mlphase not found; run from the root of an mlphase "
              "checkout", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # a terminated run raises here, and subprocess.run kills its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}")
    try:
        res = _worker(args, workdir, deadline)
        if args.trace:
            measured = res["layers"]
            wanted = spec["per_layer"]
        else:
            setups = [_worker(args, workdir, deadline, setup_only=True)
                      for _ in range(SETUP_REPEATS)]
            measured = {
                "setup_s": (statistics.median(s["setup_s"] for s in setups)
                            * REF_CALIBRATION_S / statistics.median(
                                s["calibration_s"] for s in setups), "s"),
                "job_s": (res["job_ref_s"], "s"),
                "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            }
            wanted = spec["end_to_end"]
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {}
    for m in wanted:
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            print(f"bench: {m['name']} measured in {unit}, not {m['unit']}",
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": unit}
        source = res.get("layer_sources", {}).get(m["name"], args.workload)
        print(f"metric {m['name']} = {value:.6g} {unit}"
              + (f" (from a traced round of {source})"
                 if source != args.workload else ""))

    def row(values):
        return " ".join(f"{t:.4f}" for t in values)

    if not args.trace:
        print(f"rounds {len(res['job_s'])}, wall s: {row(res['job_s'])}")
        print(f"calibrations, s: {row(res['calibration_s'])}")
        print(f"setup runs {SETUP_REPEATS}, wall s: "
              f"{row(s['setup_s'] for s in setups)}")
        print("setup calibrations, s: "
              f"{row(s['calibration_s'] for s in setups)}")
    reasons = {}
    for label, reason in res["failures"]:
        reasons[(label, reason)] = reasons.get((label, reason), 0) + 1
    for (label, reason), n in sorted(reasons.items()):
        print(f"failed {n}x {label}: {reason}")
    if args.trace:
        print("median traced round - median untraced round: "
              f"{res['traced_minus_untraced_s']:.4f} s")
    for note in res["notes"]:
        print(f"note {note}")
    for problem in res["problems"]:
        print(f"CHECK FAILED {problem}")
    print(json.dumps({"correct": not res["problems"],
                      "attempted": res["attempted"],
                      "failed": len(res["failures"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
