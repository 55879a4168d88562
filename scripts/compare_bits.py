"""Compare the float64 bits of a fixed battery of outputs between a parent
commit and the working tree.

    python3 scripts/compare_bits.py --parent HEAD

Run from the root of the repository. The parent side is a `git archive`
checkout of --parent in a temporary directory; the change side is the
working tree as it stands, uncommitted edits included. The battery below is
this file's, so both sides run the same calls: each side runs it in its own
process, with PYTHONPATH at that side's src/, and saves every output array
to an .npz file. The battery covers:

* `_contour_offpole_vec` and `_ml_vec` sweeps, real and complex arguments,
  derivative orders 0, 1, 2, 4, 8 and 12, and `_asymp_vec`, the contour
  (complex too, at alpha = 0.999 and order 8), `_survival_sum` and
  `_ml_vec` on up to 20,001 points, many slices each, on the negative axis
  and, at derivative orders 0 and 8, on the exponential sector;
* `mml_logpdf`, `mml_logsf` and `_logpdf_partials` of the six standard
  models and their untagged generators, at nu = 1 and 1.5, on
  geomspace(1e-6, 1e6, 61);
* `mml_pdf` and `mml_sf` of a 3-cycle law, whose generator has complex
  eigenvalues on the exponential sector, on geomspace(1e-3, 1e3, 200);
* `mml_logsf` of Erlang(8) and Erlang(12) laws at alpha = 0.9, one on each
  side of the Erlang survival's choice of path, at alpha = 1 at x = 745
  and 800, where e^-x underflows, and `mml_sf` in the far tail, at x = 1e100,
  1e150 and 1e250;
* `_score_block` at orders 1, 2, 3, 5 and 9;
* `ml_matrix` on each of its branches, and the extended-precision series
  on dense matrices;
* `ph_pdf`, `ph_cdf`, `ph_frac_moment` and `mml_frac_moment`;
* draws of `ph_sample` and `sample_pmml`, and the fit of the benchmark's
  fit-trimodal workload;
* the files written by the CLI commands eval, qq, sample, simulate-sm, fit
  and hill, byte for byte; manifest.json is left out, since it records
  times and paths.

A call that raises stores its message, so a change of outcome shows too.
Every array that differs is printed with its largest relative change (or
"bytes differ" for the CLI files); the exit code is 1 when any differs, 0
when all are the same bits.
"""
from __future__ import annotations

import argparse
import inspect
import json
import os
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ORDERS = (0, 1, 2, 4, 8, 12)
TOL = 1e-12


# ---------------------------------------------------------------------------
# the battery, run in the tree whose src/ is on PYTHONPATH

def _models():
    from mlphase.distributions import MMLDist
    from mlphase.phasetype import make_coxian, make_erlang, make_mixture_erlang

    return [
        ("erlang1_a05", MMLDist(0.5, make_erlang(1, 1.0))),
        ("erlang4_a07", MMLDist(0.7, make_erlang(4, 2.0))),
        ("erlang4_a05", MMLDist(0.5, make_erlang(4, 2.0))),
        ("mix3_a09", MMLDist(0.9, make_mixture_erlang(
            (0.5, 0.2, 0.3), (5, 3, 4), (20.0, 1.0, 0.03)))),
        ("cox4_a09", MMLDist(0.9, make_coxian(
            (0.5, 0.0, 0.5, 0.0), (1.0, 2.0, 3.0, 4.0)))),
        ("cox4_a07", MMLDist(0.7, make_coxian(
            (0.25, 0.25, 0.25, 0.25), (1.0, 2.0, 3.0, 4.0)))),
    ]


_DEFECTIVE = np.array([[-1.0, 0.5, 0.0], [0.0, -1.0, 0.9], [0.0, 0.0, -1.0]])


def _scalar_sweeps(put):
    from mlphase import mlfun

    r = np.geomspace(1.02, 60.0, 41)
    for alpha in (0.3, 0.6, 0.9, 0.999):
        for beta in (1.0, alpha):
            # off the exponential sector, where the off-pole contour holds
            theta = np.linspace(alpha * np.pi + 0.05, np.pi, 5)
            zc = (r[:, None] * np.exp(1j * theta)).reshape(-1)
            for k in ORDERS:
                key = f"contour/{alpha}/{beta}/k{k}"
                put(f"{key}/real", lambda: mlfun._contour_offpole_vec(
                    alpha, beta, -r, k, TOL))
                put(f"{key}/complex", lambda: mlfun._contour_offpole_vec(
                    alpha, beta, zc, k, TOL))
    xs = np.concatenate((-np.geomspace(1e-3, 1e3, 81),
                         np.geomspace(1e-3, 1e3, 81)))
    zs = (np.geomspace(1e-2, 1e2, 25)[:, None]
          * np.exp(1j * np.linspace(0.0, np.pi, 9))).reshape(-1)
    for alpha in (0.3, 0.6, 0.9, 1.0, 1.4):
        # on the exponential sector, only where exp(z^(1/alpha)) is finite
        def finite(z):
            return z[(np.abs(np.angle(z)) >= alpha * np.pi)
                     | (np.abs(z) < 0.5 * 690.0 ** alpha)]

        x, zc = finite(xs), finite(zs)
        for beta in (1.0, alpha):
            for k in ORDERS:
                key = f"ml_vec/{alpha}/{beta}/k{k}"
                put(f"{key}/real", lambda: mlfun._ml_vec(alpha, beta, x, k,
                                                         TOL))
                put(f"{key}/complex", lambda: mlfun._ml_vec(alpha, beta, zc,
                                                            k, TOL))
    # more points than one slice of the contour product and of the
    # asymptotic table
    xl = -np.geomspace(1e-2, 1e6, 20_001)
    for alpha in (0.6, 0.9):
        for k in (0, 2):
            put(f"ml_vec/large/{alpha}/k{k}",
                lambda: mlfun._ml_vec(alpha, 1.0, xl, k, TOL))
            put(f"contour/large/{alpha}/k{k}",
                lambda: mlfun._contour_offpole_vec(alpha, 1.0, xl[xl > -60.0],
                                                   k, TOL))
            put(f"asymp/large/{alpha}/k{k}", lambda: mlfun._asymp_vec(
                alpha, 1.0, xl[xl < -60.0], k, TOL))
    # the exponential sector, past slice and node-set edges
    rs = np.geomspace(1e-2, 60.0, xl.size)
    zs = rs * np.exp(1j * np.linspace(0.0, 0.99 * 0.9 * np.pi, xl.size))
    for k in (0, 8):
        put(f"ml_vec/sector/0.9/k{k}/real",
            lambda: mlfun._ml_vec(0.9, 1.0, rs, k, TOL))
        put(f"ml_vec/sector/0.9/k{k}/complex",
            lambda: mlfun._ml_vec(0.9, 1.0, zs, k, TOL))
    zl = np.geomspace(1.02, 60.0, xl.size) * np.exp(
        1j * np.linspace(0.999 * np.pi + 0.05, np.pi, xl.size))
    put("contour/large/0.999/k8/complex",
        lambda: mlfun._contour_offpole_vec(0.999, 0.999, zl, 8, TOL))
    for alpha in (0.6, 0.999):
        for p in (1, 3, 8):
            put(f"survival_sum/large/{alpha}/p{p}",
                lambda: mlfun._survival_sum(alpha, -xl, p, TOL))


def _laws(put):
    from mlphase import distributions
    from mlphase.distributions import MMLDist, PMMLDist
    from mlphase.phasetype import make_erlang, make_general

    x = np.geomspace(1e-6, 1e6, 61)
    for name, d in _models():
        for tag, law in ((name, d), (name + "_general",
                                     MMLDist(d.alpha, d.ph.as_general()))):
            for nu in (1.0, 1.5):
                dd = law if nu == 1.0 else PMMLDist(law, nu)
                key = f"law/{tag}/nu{nu}"
                put(f"{key}/logpdf", lambda: distributions.mml_logpdf(dd, x))
                put(f"{key}/logsf", lambda: distributions.mml_logsf(dd, x))
                put(f"{key}/partials",
                    lambda: distributions._logpdf_partials(dd, x))
    # a 3-cycle, whose complex eigenvalues sit on the exponential sector
    T = -np.eye(3) + 0.9 * np.roll(np.eye(3), 1, axis=1)
    cycle = MMLDist(0.9, make_general((1.0, 0.0, 0.0), T))
    xc = np.geomspace(1e-3, 1e3, 200)
    put("law/cycle3_a09/pdf", lambda: distributions.mml_pdf(cycle, xc))
    put("law/cycle3_a09/sf", lambda: distributions.mml_sf(cycle, xc))
    for p in (8, 12):
        law = MMLDist(0.9, make_erlang(p, 1.5))
        put(f"law/erlang{p}_a09/logsf", lambda: distributions.mml_logsf(law, x))
    put("law/erlang2_a1/logsf_tail", lambda: distributions.mml_logsf(
        MMLDist(1.0, make_erlang(2, 1.0)), np.array([745.0, 800.0])))
    put("law/erlang4_a07/sf_far", lambda: distributions.mml_sf(
        MMLDist(0.7, make_erlang(4, 2.0)), np.array([1e100, 1e150, 1e250])))
    u = np.geomspace(1e-4, 1e4, 701)
    nlogx = 1.3 * np.log(np.geomspace(1e-3, 1e3, u.size))
    for alpha in (0.6, 0.9):
        for p in (1, 2, 3, 5, 9):
            ds = distributions._ml_deriv_vec(alpha, alpha, -u, p - 1, TOL)
            put(f"score_block/{alpha}/p{p}",
                lambda: distributions._score_block(alpha, p, u, nlogx, ds,
                                                   TOL))


def _matrices(put):
    from mlphase import mlfun
    from mlphase.mlfun import MLParams

    models = dict(_models())
    cases = [("bidiagonal", models["erlang4_a07"].ph.T * 1.3),
             ("components", models["mix3_a09"].ph.T * 1.3),
             ("eig", models["cox4_a09"].ph.T * 1.3),
             ("series_f64", _DEFECTIVE * 0.9)]
    cases += [(f"series_mp/x{x}", _DEFECTIVE * x ** 0.7)
              for x in (6.7, 15.0, 40.0, 100.0)]
    for name, A in cases:
        for beta in (0.7, 1.0):
            put(f"ml_matrix/{name}/{beta}",
                lambda: mlfun.ml_matrix(MLParams(0.7, beta), A))
    # the parent may still pass the unused tolerance
    series_mp = mlfun._matrix_series_mp
    extra = (TOL,) * (len(inspect.signature(series_mp).parameters) - 3)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        p, alpha = 1 + seed % 5, rng.uniform(0.4, 1.0)
        beta = rng.uniform(0.3, 1.6)
        A = rng.uniform(-1.0, 1.0, (p, p))
        A *= rng.uniform(5.0, 20.0) ** alpha / np.linalg.norm(A, 1)
        put(f"series_mp/dense/{seed}",
            lambda: series_mp(alpha, beta, A, *extra))


def _phase_type(put):
    from mlphase import distributions, phasetype, sampling
    from mlphase.distributions import MMLDist, PMMLDist
    from mlphase.rng import RandomStream

    x = np.concatenate(([-1.0, 0.0], np.geomspace(1e-3, 50.0, 41)))
    gens = [(n, d.ph) for n, d in _models()]
    gens.append(("defective", phasetype.make_general([1.0, 0.0, 0.0],
                                                      _DEFECTIVE)))
    for name, gen in gens:
        put(f"ph_pdf/{name}", lambda: phasetype.ph_pdf(gen, x))
        put(f"ph_cdf/{name}", lambda: phasetype.ph_cdf(gen, x))
        for a in (0.5, 1.0, 2.5):
            put(f"ph_frac_moment/{name}/{a}",
                lambda: phasetype.ph_frac_moment(gen, a))
        for seed in range(3):
            put(f"ph_sample/{name}/{seed}", lambda: phasetype.ph_sample(
                gen, RandomStream(seed), 100_000))
    for name, d in _models():
        for rho in (0.1, 0.3):
            put(f"mml_frac_moment/{name}/{rho}",
                lambda: distributions.mml_frac_moment(d, rho))
        law = PMMLDist(d, 1.5)
        put(f"sample_pmml/{name}", lambda: sampling.sample_pmml(
            law, RandomStream(11), 50_000))
    # the fit of the benchmark's fit-trimodal workload
    from mlphase import fitting
    from mlphase.fitting import FitConfig
    from mlphase.phasetype import make_mixture_erlang

    truth = MMLDist(0.9, make_mixture_erlang((0.3, 0.3, 0.4), (3, 3, 3),
                                             (10.0, 1.0, 0.1)))
    data = sampling.sample_mml(truth, RandomStream(7000), size=300)
    cfg = FitConfig(structure="mixture_erlang", shapes=(3, 3, 3),
                    fit_alpha=True, fit_nu=False, restarts=3,
                    max_iterations=600)
    put("fit_trimodal", lambda: fitting.fit_pmml(
        data, cfg, RandomStream(7100)).to_json())


def _cli_outputs(out, work):
    from mlphase import cli, semimarkov
    from mlphase.distributions import MMLDist, PMMLDist, dist_to_json
    from mlphase.phasetype import make_erlang

    model = os.path.join(work, "model.json")
    with open(model, "w") as fh:
        fh.write(dist_to_json(PMMLDist(MMLDist(0.7, make_erlang(2, 1.0)),
                                       1.5)))
    data = os.path.join(work, "data.txt")
    draws = np.random.default_rng(5).pareto(1.2, 2000) + 0.05
    with open(data, "w") as fh:
        fh.write("\n".join(repr(float(v)) for v in draws) + "\n")
    config = os.path.join(work, "config.json")
    with open(config, "w") as fh:
        json.dump({"structure": "mixture_erlang", "shapes": [2, 2],
                   "fit_alpha": True, "fit_nu": False, "restarts": 2,
                   "max_iterations": 300}, fh)
    T = dict(_models())["cox4_a07"].ph.T
    rates = -np.diag(T)
    Q = np.zeros((5, 5))
    Q[:4, :4] = T / rates[:, None]
    np.fill_diagonal(Q[:4, :4], 0.0)
    Q[:4, 4] = -T.sum(axis=1) / rates
    Q[4, 4] = 1.0
    spec = os.path.join(work, "spec.json")
    with open(spec, "w") as fh:
        fh.write(semimarkov.SemiMarkovSpec(
            Q=Q, rates=rates, alpha=0.7, pi=np.full(4, 0.25)).to_json())
    runs = {
        "eval": ["eval", "--model", model, "--grid-min", "0.001",
                 "--grid-max", "1000", "--grid-points", "200", "--log-grid"],
        "qq": ["qq", "--model", model, "--data", data],
        "sample": ["sample", "--model", model, "-n", "20000", "--seed", "3"],
        "simulate-sm": ["simulate-sm", "--spec", spec, "-n", "20000",
                        "--seed", "4"],
        "fit": ["fit", "--data", data, "--config", config, "--seed", "6"],
        "hill": ["hill", "--data", data],
    }
    for name, argv in runs.items():
        dest = os.path.join(work, name)
        code = cli.main(argv + ["--out", dest])
        out[f"cli/{name}/exit"] = np.array([code])
        for f in sorted(os.listdir(dest)):
            if f != "manifest.json":
                with open(os.path.join(dest, f), "rb") as fh:
                    out[f"cli/{name}/{f}"] = np.frombuffer(fh.read(),
                                                           dtype=np.uint8)


def run_battery(path):
    """Run the battery and save its arrays to the .npz file at path."""
    out = {}

    def put(key, fn):
        try:
            val = fn()
        except Exception as exc:  # the outcome is what is compared
            key, val = key + "/raised", f"{type(exc).__name__}: {exc}"
        if val is None:
            return
        if isinstance(val, str):
            val = np.frombuffer(val.encode(), dtype=np.uint8)
        if isinstance(val, tuple):
            for i, v in enumerate(val):
                out[f"{key}/{i}"] = np.asarray(v)
        else:
            out[key] = np.asarray(val)

    for part in (_scalar_sweeps, _laws, _matrices, _phase_type):
        part(put)
    with tempfile.TemporaryDirectory() as work:
        _cli_outputs(out, work)
    np.savez(path, **out)


# ---------------------------------------------------------------------------
# comparing the two trees

def _moved(a, b):
    """(how many entries of a moved in value from b, the largest relative
    change among them); a moved nan or a b of 0 gives nan or inf."""
    a, b = a.reshape(-1), b.reshape(-1)
    moved = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    if not moved.any():
        return 0, 0.0
    a, b = a[moved], b[moved]
    with np.errstate(divide="ignore", invalid="ignore"):
        return int(moved.sum()), float(np.max(np.abs(a - b) / np.abs(b)))


def compare(parent, change):
    """Print every key whose bits differ; return the number of such keys."""
    keys = sorted(set(parent) | set(change))
    differ = 0
    for key in keys:
        if key not in parent or key not in change:
            side = "change" if key in change else "parent"
            print(f"{key}: only in the {side}")
            differ += 1
            continue
        a, b = change[key], parent[key]
        if (a.shape, a.dtype) == (b.shape, b.dtype) \
                and a.tobytes() == b.tobytes():
            continue
        differ += 1
        if a.dtype == np.uint8 or (a.shape, a.dtype) != (b.shape, b.dtype):
            print(f"{key}: bytes differ")
            continue
        n, rel = _moved(a, b)
        print(f"{key}: {n} of {a.size} values moved, largest relative "
              f"change {rel:.3g}" if n else f"{key}: signs of zeros moved")
    print(f"{len(keys)} arrays compared, {differ} differ")
    return differ


def _run_side(tree, dump):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", dump],
                   cwd=tree, env=env, check=True)
    with np.load(dump) as f:
        return dict(f)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="the commit to compare against")
    ap.add_argument("--dump", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump:
        run_battery(args.dump)
        return 0
    if not args.parent:
        ap.error("--parent is required")
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "parent")
        os.mkdir(tree)
        archive = os.path.join(tmp, "parent.tar")
        subprocess.run(["git", "archive", "-o", archive, args.parent],
                       check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(tree, filter="data")
        parent = _run_side(tree, os.path.join(tmp, "parent.npz"))
        change = _run_side(os.getcwd(), os.path.join(tmp, "change.npz"))
    return 1 if compare(parent, change) else 0


if __name__ == "__main__":
    sys.exit(main())
