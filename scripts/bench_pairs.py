"""Run the benchmark in alternating pairs on a parent commit and on the
working tree, and write the result as a BENCH_*.json file.

    python3 scripts/bench_pairs.py --parent HEAD --workload eval-tables \
        --seeds 19001-19010 --out BENCH_topic.json [--trace-seed 19101]

Run from the root of the repository. The parent side is a `git archive`
checkout of --parent in a temporary directory; the change side is the
working tree as it stands, uncommitted edits included. Pair i runs the
parent first when i is even and the change first when i is odd. Each run is
`bench/run.py --workload W --seed S --seconds T --trace 0` in its own
process, with the seeds given; the file records every run, the median and
quartiles of each end-to-end metric of BENCHMARK.json per side, the pairs the
change won, the failed operations, the checks, both commits and the src
trees. With --trace-seed each workload also gets one traced run a side,
whose exit code, check result and per-layer metrics are recorded. Nothing is
written under bench/; bench/run.py keeps its own outputs in .bench_runs/ of
the checkout it runs in.

The script writes host, command, parent, change, rule, workloads, summary
and traced_runs. A committed BENCH_*.json may carry further sections (what
the change is and claims, one-off timings, notes); those are written by
hand after the script has run, and the script's own sections are left as
it wrote them.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

import mpmath
import numpy
import scipy


def _git(*args, env=None):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True, env=env).stdout.strip()


def _worktree_src_tree():
    """The tree id that `git rev-parse <commit>:src` would give if the
    working tree were committed, from a throw-away index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        _git("read-tree", "HEAD", env=env)
        _git("add", "-A", "--", "src", env=env)
        return _git("rev-parse", _git("write-tree", env=env) + ":src")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _host():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"{os.cpu_count()} CPUs ({model}), BLAS on one thread as "
            f"bench/run.py sets it; numpy {numpy.__version__}, scipy "
            f"{scipy.__version__}, mpmath {mpmath.__version__}, Python "
            f"{platform.python_version()}")


def _run(cwd, workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    checks = sum(line.startswith("CHECK FAILED") for line in lines)
    return proc.returncode, result, checks


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _pairs(sides, workload, seeds, seconds, spec):
    names = [m["name"] for m in spec["end_to_end"]]
    runs = {side: {"metrics": {n: [] for n in names}, "failed": [],
                   "correct": True, "exit": set(), "checks": 0}
            for side in sides}
    for i, seed in enumerate(seeds):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            code, result, checks = _run(sides[side], workload, seed, seconds, 0)
            r = runs[side]
            r["exit"].add(code)
            r["checks"] += checks
            if result is None:
                r["correct"] = False
                continue
            r["correct"] &= result["correct"]
            r["failed"].append(f"{result['failed']}/{result['attempted']}")
            for n in names:
                r["metrics"][n].append(result["metrics"][n]["value"])
            print(f"{workload} seed {seed} {side}: " + ", ".join(
                f"{n} {r['metrics'][n][-1]:.4g}" for n in names),
                file=sys.stderr)
    out = {"pairs": len(seeds), "seeds": seeds,
           "order": "pair i runs the parent first when i is even, the "
                    "change first when odd",
           "metrics": {}}
    summary = []
    for m in spec["end_to_end"]:
        n = m["name"]
        par, chg = runs["parent"]["metrics"][n], runs["change"]["metrics"][n]
        if len(par) != len(seeds) or len(chg) != len(seeds):
            continue
        sign = 1.0 if m["better"] == "lower" else -1.0
        better = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
        pq, cq = _quartiles(par), _quartiles(chg)
        out["metrics"][n] = {"parent": pq, "change": cq,
                             "change_better_pairs": better,
                             "parent_runs": par, "change_runs": chg}
        summary.append(
            f"{workload} {n}: parent median {pq['median']:.4g} (Q1 "
            f"{pq['q1']:.4g}, Q3 {pq['q3']:.4g}), change {cq['median']:.4g} "
            f"(Q1 {cq['q1']:.4g}, Q3 {cq['q3']:.4g}), "
            f"{100.0 * (cq['median'] / pq['median'] - 1.0):+.1f}%, change "
            f"better in {better} of {len(seeds)} pairs")
    for key, field in (("failed_of_attempted", "failed"),
                       ("correct", "correct"), ("exit_codes", "exit"),
                       ("check_failed_lines", "checks")):
        out[key] = {side: (sorted(runs[side][field]) if field == "exit"
                           else runs[side][field]) for side in sides}
    return out, summary


def _traced(sides, workload, seed, seconds, spec):
    out = {}
    for side, cwd in sides.items():
        code, result, checks = _run(cwd, workload, seed, seconds, 1)
        entry = {"exit": code, "check_failed_lines": checks}
        if result is not None:
            entry.update(
                correct=result["correct"],
                failed_of_attempted=f"{result['failed']}/{result['attempted']}",
                per_layer_metrics_reported=sum(
                    m["name"] in result["metrics"] for m in spec["per_layer"]))
            entry.update({n: v["value"] for n, v in result["metrics"].items()})
        out[side] = entry
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="commit to compare with")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=_seeds, required=True,
                    help="first-last, one pair per seed")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    parent_sha = _git("rev-parse", args.parent + "^{commit}")
    doc = {
        "host": _host(),
        "command": (f"python3 bench/run.py --workload W --seed N --seconds "
                    f"{args.seconds:g} --trace 0 (parent in a git-archive "
                    "checkout, change in the working tree; "
                    "scripts/bench_pairs.py)"),
        "parent": {"git_sha": parent_sha,
                   "src_tree": _git("rev-parse", parent_sha + ":src")},
        "change": {"base_git_sha": _git("rev-parse", "HEAD"),
                   "src_tree": _worktree_src_tree(),
                   "note": "src_tree is `git rev-parse <commit>:src` of the "
                           "working tree as measured"},
        "rule": "gain claimed only if the change wins >= 9 of 10 pairs and "
                "the medians differ by more than the parent's Q3 - Q1",
        "workloads": {},
        "summary": [],
    }
    with tempfile.TemporaryDirectory() as tmp:
        archive = os.path.join(tmp, "parent.tar")
        _git("archive", "--format=tar", "-o", archive, parent_sha)
        checkout = os.path.join(tmp, "parent")
        with tarfile.open(archive) as tar:
            tar.extractall(checkout, filter="data")
        sides = {"parent": checkout, "change": os.getcwd()}
        for w in args.workload:
            doc["workloads"][w], summary = _pairs(
                sides, w, args.seeds, args.seconds, spec)
            doc["summary"] += summary
            if args.trace_seed is not None:
                doc.setdefault("traced_runs", {
                    "command": "python3 bench/run.py --workload W --seed "
                               f"{args.trace_seed} --seconds "
                               f"{args.seconds:g} --trace 1"})
                doc["traced_runs"][w] = _traced(
                    sides, w, args.trace_seed, args.seconds, spec)
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    for line in doc["summary"]:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
