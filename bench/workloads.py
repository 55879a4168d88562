"""The benchmark workloads: inputs made from a seed, one round of operations,
and checks of a round's outputs against computations made apart from mlphase.

Every library call goes through a module attribute (``fitting.fit_pmml``,
``distributions.mml_sf``, ...) looked up at call time, so a traced round sees
it. A workload object is built once per process (its set-up), then its round
runs again and again; a round is a fixed list of named operations.
"""
from __future__ import annotations

import math
import os

import numpy as np
from scipy.special import erfcx, gammaln, logsumexp

from mlphase import (
    cli,
    distributions,
    fitting,
    mlfun,
    sampling,
    semimarkov,
    tailtools,
)
from mlphase.distributions import MMLDist, PMMLDist, dist_to_json
from mlphase.fitting import FitConfig
from mlphase.mlfun import MLParams
from mlphase.phasetype import (
    make_coxian,
    make_erlang,
    make_general,
    make_mixture_erlang,
)
from mlphase.rng import RandomStream
from mlphase.semimarkov import SemiMarkovSpec

# Statistical checks run on seed-dependent draws in every run. At the 1 % level
# a correct sampler would fail about one run in 33 (three tests a run), so the
# gate is a p-value of 1e-6. On 400k draws a 3 % scale error in the sampled law
# gives p below 1e-8; a 2 % one gives p near 1e-5 and can pass.
P_MIN = 1e-6
HILL_TOL = 0.15

# A defective generator that is not uniform-bidiagonal: T = -I + N with N
# nilpotent, so no eigenbasis exists and ml_matrix takes its series fallback.
DEFECTIVE_T = np.array([[-1.0, 0.5, 0.0], [0.0, -1.0, 0.9], [0.0, 0.0, -1.0]])
DEFECTIVE_ALPHA = 0.7
DEFECTIVE_FAIL_X = 1000.0
DEFECTIVE_TOP_X = 40.0
# In this band of -z the off-pole contour misses the accuracy target for
# E^(8)_{0.9,1} (4.7e-9 relative at z = -1.2): those points are timed, and
# their error is printed as a note rather than checked.
DERIV_BAND = (0.95, 3.0)
DERIV_BAND_FAULT = (0.9, 8)


def standard_models():
    """The six models of tests/conftest.py standard_models(), copied so that
    a change to the test registry cannot change the benchmark's inputs."""
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


def sm_spec(gen, alpha):
    """Semi-Markov spec whose intensity matrix is the generator's T."""
    p = gen.dim
    rates = -np.diag(gen.T)
    Q = np.zeros((p + 1, p + 1))
    Q[:p, :p] = gen.T / rates[:, None]
    np.fill_diagonal(Q[:p, :p], 0.0)
    Q[:p, p] = gen.exit_vector / rates
    Q[p, p] = 1.0
    return SemiMarkovSpec(Q=Q, rates=rates, alpha=alpha, pi=gen.pi.copy())


def _jittered_log_grid(rng, lo, hi, n):
    """n sorted points, one drawn log-uniformly in each of n equal log cells."""
    edges = np.linspace(math.log(lo), math.log(hi), n + 1)
    return np.exp(edges[:-1] + rng.random(n) * np.diff(edges))


def _cli(argv):
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"mlphase {argv[0]} exited with code {code}")
    return code


def _read_column(path):
    with open(path) as fh:
        next(fh)
        return np.array([float(line) for line in fh])


# ---------------------------------------------------------------------------
# independent references (mpmath oracle of tests/oracles.py, scipy)

def _oracle():
    import sys

    tests = os.path.join(os.getcwd(), "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles

    return oracles


def oracle_erlang_mixture_logpdf(model, xs):
    """log-density of a mixture-Erlang PMML model from mpmath derivatives.

    f(x) = nu sum_i w_i lam_i^p x^(c p - 1) / (p-1)! E^(p-1)_{a,a}(-lam_i x^c)
    with c = nu * alpha, so the special function is evaluated at x^(nu alpha).
    Points the oracle cannot certify are returned as nan.
    """
    ml_ref = _oracle().ml_ref
    alpha = model.alpha
    nu = model.nu if isinstance(model, PMMLDist) else 1.0
    prm = model.ph.params
    c = nu * alpha
    out = []
    for x in xs:
        terms = []
        try:
            for w, p, lam in zip(prm["weights"], prm["shapes"], prm["rates"]):
                e = ml_ref(alpha, alpha, -lam * x ** c, int(p) - 1).real
                terms.append(math.log(w) + p * math.log(lam) - gammaln(p)
                             + (c * p - 1.0) * math.log(x) + math.log(e))
        except ValueError:
            out.append(math.nan)
            continue
        out.append(math.log(nu) + float(logsumexp(terms)))
    return np.array(out)


def oracle_defective(x, beta):
    """pi E_{a,beta}(T y) v for T = -I + N, y = x^a, from the identity
    E(-y I + y N) = sum_s (y N)^s / s! E^(s)(-y); v = 1 for beta = 1 (survival),
    v = t with the x^(a-1) factor for beta = a (density)."""
    ml_ref = _oracle().ml_ref
    a = DEFECTIVE_ALPHA
    y = x ** a
    N = DEFECTIVE_T + np.eye(3)
    pi = np.array([1.0, 0.0, 0.0])
    v = np.ones(3) if beta == 1.0 else -DEFECTIVE_T.sum(axis=1)
    total, Ns = 0.0, np.eye(3)
    for s in range(3):
        total += (pi @ Ns @ v) * y ** s / math.factorial(s) * ml_ref(
            a, beta, -y, s).real
        Ns = Ns @ N
    return total if beta == 1.0 else total * x ** (a - 1.0)


def _cheap_points(alpha, z, n):
    """Indices of up to n points spread over z, skipping those where the
    oracle's series would need hundreds of digits (|z|^(1/alpha) in
    (150, 500]; beyond 500 it switches to the cheap asymptotic branch)."""
    amp = np.abs(z) ** (1.0 / alpha)
    idx = np.nonzero((amp <= 150.0) | (amp > 500.0))[0]
    return idx[np.linspace(0, len(idx) - 1, min(n, len(idx))).astype(int)]


def _rel(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


# ---------------------------------------------------------------------------
# workloads

class FitTrimodal:
    """Acceptance criterion 6 at one seed: 300 draws from MML(0.9, mixture of
    Erlang(3) with rates 10, 1, 0.1), fitted back with alpha free, nu pinned
    and 3 restarts.

    The fit is criterion 6's first case whatever the seed: data from
    RandomStream(7000), restart jitter from RandomStream(7100). Nelder-Mead's
    path is chaotic in both, so its cost follows the seed rather than the
    code: with seed-drawn restart jitter alone, one fit of this data set took
    3633 NLL calls at one seed and 4641 at another. The seed picks the points
    at which the fitted log-density is checked against the oracle.
    """

    TRUTH = MMLDist(0.9, make_mixture_erlang(
        (0.3, 0.3, 0.4), (3, 3, 3), (10.0, 1.0, 0.1)))
    CONFIG = FitConfig(structure="mixture_erlang", shapes=(3, 3, 3),
                       fit_alpha=True, fit_nu=False, restarts=3,
                       max_iterations=600)
    DATA_SEED = 7000
    RESTART_SEED = 7100

    def __init__(self, seed, workdir):
        self.data = sampling.sample_mml(self.TRUTH,
                                        RandomStream(self.DATA_SEED), size=300)
        self.check_at = np.sort(RandomStream(seed).child(1).generator.uniform(
            0.02, 0.9, 6))
        # warm-up, and the reference for the recovery check
        self.true_nll = fitting.nll(self.TRUTH, self.data)

    def operations(self):
        return [
            ("fit", lambda out: fitting.fit_pmml(
                self.data, self.CONFIG, RandomStream(self.RESTART_SEED))),
            ("recovery", lambda out: self._recovery(out["fit"])),
        ]

    def _recovery(self, res):
        """Criterion 6 on this data set: NLL within 1 of the NLL at the
        generating parameters and alpha in [0.8, 1]."""
        alpha = res.model.alpha
        if not (res.nll <= self.true_nll + 1.0 and 0.8 <= alpha <= 1.0):
            raise ValueError(f"recovery missed: nll {res.nll:.4f} vs "
                             f"{self.true_nll:.4f}, alpha {alpha:.4f}")
        return alpha

    def check(self, out):
        res = out["fit"]
        notes = [f"fit: nll {res.nll:.6f} ({self.true_nll:.6f} at the "
                 f"generating parameters), alpha {res.model.alpha:.4f}"]
        problems = []
        if min(res.restart_nlls) < res.nll:
            problems.append("fit: a restart NLL is below the reported NLL")
        pts = np.quantile(self.data, self.check_at)
        got = distributions.pmml_logpdf(res.model, pts)
        ref = oracle_erlang_mixture_logpdf(res.model, pts)
        ok = np.isfinite(ref)
        if ok.sum() < 3:
            problems.append(f"fit: the oracle certified only {ok.sum()} points")
        elif np.max(np.abs(got[ok] - ref[ok])) > 1e-9:
            problems.append("fit: fitted log-density off the oracle by "
                            f"{np.max(np.abs(got[ok] - ref[ok])):.2e}")
        return problems, notes


class EvalTables:
    """pdf, cdf, survival and log-survival tables on wide log grids, direct
    special-function calls per regime and per ml_matrix branch, and the CLI
    eval and qq commands."""

    PMML = PMMLDist(MMLDist(0.7, make_erlang(2, 1.0)), 1.5)
    FUNCS = ("pdf", "cdf", "sf", "logsf")

    def __init__(self, seed, workdir):
        g = RandomStream(seed).child(2).generator
        self.grid = _jittered_log_grid(g, 1e-3, 1e3, 60)
        self.models = []
        for name, d in standard_models():
            self.models.append((name, d))
            self.models.append((name + "_general",
                                MMLDist(d.alpha, d.ph.as_general())))
        self.models.append(("pmml_erlang2_a07_nu15", self.PMML))
        self.defective = MMLDist(DEFECTIVE_ALPHA,
                                 make_general([1.0, 0.0, 0.0], DEFECTIVE_T))
        # one point costs 1 ms below x = 2 and 200 ms at x = 50 (the mpmath
        # series), so the costly top of the grid is fixed, not drawn
        self.defective_grid = np.append(
            _jittered_log_grid(g, 0.01, 8.0, 7), DEFECTIVE_TOP_X)

        # special-function arguments per regime, per (alpha, beta)
        self.ml_args = []
        for alpha in (0.3, 0.5, 0.9):
            thr = (2.2 * -math.log(1e-12)) ** alpha  # asymptotic threshold
            for beta in (1.0, alpha):
                for regime, lo, hi, sign in (
                        ("series", 0.05, 0.95, -1.0),
                        ("contour_offpole", 1.2, 0.9 * thr, -1.0),
                        ("contour_pole", 1.2, 0.9 * thr, 1.0),
                        ("asymptotic", 1.5 * thr, 4.0 * thr, -1.0)):
                    z = sign * np.sort(g.uniform(lo, hi, 16))
                    self.ml_args.append((regime, alpha, beta, z))
        self.deriv_args = [
            (alpha, k, -np.sort(np.concatenate((
                g.uniform(0.05, 0.95, 8), g.uniform(*DERIV_BAND, 8),
                g.uniform(3.0, 60.0, 16)))))
            for alpha in (0.5, 0.9) for k in (1, 4, 8)]
        w = g.uniform(0.5, 2.0)
        self.matrix_args = [
            ("bidiagonal", make_erlang(4, 2.0).T * w),
            ("components", standard_models()[3][1].ph.T * w),
            ("eig", standard_models()[4][1].ph.T * w),
            ("series_f64", DEFECTIVE_T * g.uniform(0.5, 1.5)),
            ("series_mp", DEFECTIVE_T * g.uniform(4.8, 5.2)),
        ]
        self.spec = sm_spec(standard_models()[5][1].ph, 0.7)
        self.times = np.sort(g.uniform(0.1, 20.0, 8))

        self.model_path = os.path.join(workdir, "pmml_model.json")
        with open(self.model_path, "w") as fh:
            fh.write(dist_to_json(self.PMML))
        self.data_path = os.path.join(workdir, "qq_data.txt")
        draws = sampling.sample_pmml(self.PMML, RandomStream(seed).child(3),
                                     size=2000)
        with open(self.data_path, "w") as fh:
            fh.write("\n".join(repr(float(v)) for v in draws) + "\n")
        self.out_dir = os.path.join(workdir, "cli")
        # warm-up: every structure class once, and the mpmath import that the
        # matrix series fallback makes on first use
        for _, d in self.models:
            distributions.mml_pdf(d, self.grid[:2])
        mlfun.ml_matrix(MLParams(DEFECTIVE_ALPHA, 1.0),
                        self.matrix_args[-1][1])

    def operations(self):
        ops = []
        f = {"pdf": "mml_pdf", "cdf": "mml_cdf", "sf": "mml_sf",
             "logsf": "mml_logsf"}
        for name, d in self.models:
            for fn in self.FUNCS:
                ops.append((f"table/{name}/{fn}", lambda out, d=d, fn=f[fn]:
                            getattr(distributions, fn)(d, self.grid)))
        for fn in ("pdf", "sf"):
            ops.append((f"table/defective/{fn}", lambda out, fn=f[fn]: getattr(
                distributions, fn)(self.defective, self.defective_grid)))
            # kept fault: the matrix series fallback gives up at this norm
            ops.append((f"defective_x1000/{fn}", lambda out, fn=f[fn]: getattr(
                distributions, fn)(self.defective, DEFECTIVE_FAIL_X)))
        for i, (regime, alpha, beta, z) in enumerate(self.ml_args):
            ops.append((f"ml_eval/{regime}/{i}", lambda out, a=alpha, b=beta, z=z:
                        mlfun.ml_eval(MLParams(a, b), z)))
        for alpha, k, z in self.deriv_args:
            ops.append((f"ml_deriv/{alpha}/k{k}", lambda out, a=alpha, k=k, z=z:
                        mlfun.ml_deriv(MLParams(a, 1.0), z, k)))
        for branch, A in self.matrix_args:
            ops.append((f"ml_matrix/{branch}", lambda out, A=A: mlfun.ml_matrix(
                MLParams(DEFECTIVE_ALPHA, 1.0), A)))
        ops.append(("transition_matrix", lambda out: [
            semimarkov.transition_matrix(self.spec, t) for t in self.times]))
        ops.append(("cli/eval", lambda out: _cli(
            ["eval", "--model", self.model_path, "--grid-min", "0.001",
             "--grid-max", "1000", "--grid-points", "200",
             "--log-grid", "--out", self.out_dir])))
        ops.append(("cli/qq", lambda out: _cli(
            ["qq", "--model", self.model_path, "--data", self.data_path,
             "--out", self.out_dir])))
        return ops

    def check(self, out):
        problems = []
        x = self.grid
        for name, d in self.models:
            t = {fn: np.asarray(out[f"table/{name}/{fn}"]) for fn in self.FUNCS}
            problems += _table_properties(name, t)
            if name.endswith("_general"):
                tagged = {fn: np.asarray(out[f"table/{name[:-8]}/{fn}"])
                          for fn in ("pdf", "sf")}
                for fn in ("pdf", "sf"):
                    err = _rel(t[fn], tagged[fn])
                    if err > 1e-8:
                        problems.append(f"{name}: {fn} tagged vs untagged "
                                        f"differ by {err:.2e}")
            if name.startswith("erlang1_a05"):
                err = _rel(t["sf"], erfcx(np.sqrt(x)))
                if err > 1e-10:
                    problems.append(f"{name}: survival off erfcx by {err:.2e}")

        for fn, beta in (("sf", 1.0), ("pdf", DEFECTIVE_ALPHA)):
            got = np.asarray(out[f"table/defective/{fn}"])
            ref = [oracle_defective(xi, beta) for xi in self.defective_grid]
            err = _rel(got, ref)
            if err > 1e-9:
                problems.append(f"defective {fn}: off the derivative identity "
                                f"by {err:.2e}")
            key = f"defective_x1000/{fn}"
            if key in out:  # the kept fault is mended: check the value too
                err = _rel(out[key], oracle_defective(DEFECTIVE_FAIL_X, beta))
                if err > 1e-9:
                    problems.append(f"{key}: off the identity by {err:.2e}")
        sf = np.asarray(out["table/defective/sf"])
        if np.any(np.diff(sf) > 1e-12 * sf[1:]) or np.any(
                np.asarray(out["table/defective/pdf"]) < 0):
            problems.append("defective: survival increases or pdf negative")

        ref_ml = _oracle().ml_ref
        for i, (regime, alpha, beta, z) in enumerate(self.ml_args):
            got = out[f"ml_eval/{regime}/{i}"]
            for j in _cheap_points(alpha, z, 2):
                err = _rel(got[j], ref_ml(alpha, beta, z[j]).real)
                if err > 1e-10:
                    problems.append(f"ml_eval {regime} alpha={alpha} "
                                    f"beta={beta:.2f} z={z[j]:.4g}: {err:.2e}")
        notes = []
        for alpha, k, z in self.deriv_args:
            got = out[f"ml_deriv/{alpha}/k{k}"]
            for j in _cheap_points(alpha, z, 4):
                err = _rel(got[j], ref_ml(alpha, 1.0, z[j], k).real)
                where = f"ml_deriv alpha={alpha} k={k} z={z[j]:.4g}: {err:.2e}"
                if ((alpha, k) == DERIV_BAND_FAULT
                        and DERIV_BAND[0] < -z[j] < DERIV_BAND[1]):
                    notes.append(where + " (known fault, not checked)")
                elif err > 1e-9:
                    problems.append(where)
        for branch, A in self.matrix_args:
            E = out[f"ml_matrix/{branch}"]
            if branch.startswith("series"):
                w = A[0, 0] / DEFECTIVE_T[0, 0]
                ref = oracle_defective(w ** (1.0 / DEFECTIVE_ALPHA), 1.0)
                err = _rel(E[0].sum(), ref)
                if err > 1e-9:
                    problems.append(f"ml_matrix {branch}: {err:.2e}")
            elif branch == "bidiagonal":
                a, b = A[0, 0], A[0, 1]
                ref = [b ** s / math.factorial(s) * ref_ml(
                    DEFECTIVE_ALPHA, 1.0, a, s).real for s in range(4)]
                err = _rel(E[0], ref)
                if err > 1e-9:
                    problems.append(f"ml_matrix bidiagonal: {err:.2e}")
            elif branch == "eig":
                lam, V = np.linalg.eig(A)
                f = [ref_ml(DEFECTIVE_ALPHA, 1.0, v.real) for v in lam]
                ref = (V @ np.diag(f) @ np.linalg.inv(V)).real
                err = np.max(np.abs(E - ref)) / np.max(np.abs(ref))
                if err > 1e-9:
                    problems.append(f"ml_matrix eig: {err:.2e}")
        for P in out["transition_matrix"]:
            if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-9:
                problems.append("transition_matrix: a row does not sum to 1")
                break

        rows = np.loadtxt(os.path.join(self.out_dir, "eval.csv"),
                          delimiter=",", skiprows=1)
        lib = distributions.pmml_pdf(self.PMML, rows[:, 0])
        if not np.array_equal(rows[:, 1], lib):
            problems.append("cli eval: pdf column differs from the library")
        problems += _table_properties("cli eval", {
            "pdf": rows[:, 1], "cdf": rows[:, 2], "sf": rows[:, 3]})
        qq = np.loadtxt(os.path.join(self.out_dir, "qq.csv"), delimiter=",",
                        skiprows=1)
        if np.any(np.diff(qq[:, 1]) < 0) or qq[0, 1] < 0 or qq[-1, 1] > 1:
            problems.append("cli qq: empirical column not a sorted cdf")
        return problems, notes


def _table_properties(name, t):
    problems = []
    if "cdf" in t and np.max(np.abs(t["cdf"] + t["sf"] - 1.0)) > 1e-12:
        problems.append(f"{name}: cdf + sf differs from 1")
    if np.any(np.diff(t["sf"]) > 1e-12 * t["sf"][1:]):
        problems.append(f"{name}: survival increases along the grid")
    if np.any(t["pdf"] < 0):
        problems.append(f"{name}: negative pdf")
    if "logsf" in t and _rel(np.exp(t["logsf"]), t["sf"]) > 1e-12:
        problems.append(f"{name}: exp(logsf) differs from sf")
    return problems


class SampleSimulate:
    """CLI sample on a PMML model and simulate-sm on a semi-Markov spec, both
    writing CSV files, plus library draws on the gamma and jump-chain paths,
    scalar ML draws and a Hill curve."""

    PMML = PMMLDist(MMLDist(0.5, make_erlang(1, 1.0)), 2.0)  # tail index 1

    def __init__(self, seed, workdir):
        self.n = 400_000
        root = RandomStream(seed)
        self.seeds = [int(v) for v in
                      root.child(4).generator.integers(0, 2 ** 63, 5)]
        self.spec = sm_spec(standard_models()[5][1].ph, 0.7)
        self.mixture = FitTrimodal.TRUTH
        self.chain = MMLDist(self.spec.alpha,
                             semimarkov.build_lambda(self.spec))
        self.model_path = os.path.join(workdir, "sample_model.json")
        with open(self.model_path, "w") as fh:
            fh.write(dist_to_json(self.PMML))
        self.spec_path = os.path.join(workdir, "sm_spec.json")
        with open(self.spec_path, "w") as fh:
            fh.write(self.spec.to_json())
        self.out_dir = os.path.join(workdir, "cli")
        sampling.sample_mml(self.mixture, RandomStream(0), size=10)  # warm-up

    def operations(self):
        n, s = self.n, self.seeds
        half = n // 2
        return [
            ("cli/sample", lambda out: _cli(
                ["sample", "--model", self.model_path, "-n", str(n),
                 "--seed", str(s[0]), "--out", self.out_dir])),
            ("cli/simulate-sm", lambda out: _cli(
                ["simulate-sm", "--spec", self.spec_path, "-n", str(half),
                 "--seed", str(s[1]), "--out", self.out_dir])),
            ("sample_mml/gamma", lambda out: sampling.sample_mml(
                self.mixture, RandomStream(s[2]), size=n)),
            ("sample_mml/chain", lambda out: sampling.sample_mml(
                self.chain, RandomStream(s[3]), size=half)),
            ("sample_ml_scalar", lambda out: sampling.sample_ml_scalar(
                0.5, 1.0, RandomStream(s[4]), size=n)),
            ("hill_curve", lambda out: tailtools.hill_curve(
                out["sample_ml_scalar"])),
        ]

    def check(self, out):
        from scipy import stats  # a slow import, kept out of the set-up time

        problems, notes = [], []
        samples = _read_column(os.path.join(self.out_dir, "samples.csv"))
        absorption = _read_column(os.path.join(self.out_dir, "absorption.csv"))
        for label, v, n in (("samples.csv", samples, self.n),
                            ("absorption.csv", absorption, self.n // 2)):
            if v.size != n or not np.all(np.isfinite(v)) or np.any(v <= 0):
                problems.append(f"{label}: {v.size} rows, expected {n} "
                                "positive values")
        chain = out["sample_mml/chain"]
        gamma = out["sample_mml/gamma"]
        if not (np.all(gamma > 0) and np.all(np.isfinite(gamma))):
            problems.append("sample_mml/gamma: draws not positive and finite")

        # two representations of one law: semi-Markov paths and MML draws
        tests = [("simulate-sm vs sample_mml", stats.ks_2samp(
            absorption, chain).pvalue)]
        # MML(0.5, Erlang(1, 1)) survival is erfcx(sqrt x); the CLI's PMML
        # draws are its square roots, with survival erfcx(x)
        scalar = out["sample_ml_scalar"]
        tests.append(("sample_ml_scalar vs erfcx", stats.kstest(
            scalar, lambda v: 1.0 - erfcx(np.sqrt(v))).pvalue))
        tests.append(("cli sample vs erfcx", stats.kstest(
            samples, lambda v: 1.0 - erfcx(v)).pvalue))
        for label, p in tests:
            notes.append(f"KS {label}: p = {p:.4f}")
            if p < P_MIN:
                problems.append(f"KS {label}: p = {p:.2e} below {P_MIN:g}")

        # Hill at k = 1000 within 15 % of 1/(alpha nu) (criterion 7)
        h = out["hill_curve"][999, 1]
        top = np.log(np.sort(samples))
        h_cli = top[-1000:].mean() - top[-1001]
        for label, got, target in (("hill_curve", h, 2.0),
                                   ("cli sample Hill", h_cli, 1.0)):
            notes.append(f"{label} at k=1000: {got:.4f} (target {target:g})")
            if abs(got - target) > HILL_TOL * target:
                problems.append(f"{label}: {got:.4f} not within 15 % of "
                                f"{target:g}")
        return problems, notes


WORKLOADS = {
    "fit-trimodal": FitTrimodal,
    "eval-tables": EvalTables,
    "sample-simulate": SampleSimulate,
}

