"""Accuracy and contract tests for the scalar, derivative, and matrix
Mittag-Leffler evaluators."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfcx, rgamma

from mlphase import (
    EvaluationError,
    MLParams,
    ValidationError,
    ml_deriv,
    ml_eval,
    ml_matrix,
)
from mlphase.mlfun import _asymp_threshold, _asymp_vec, _ml_vec


def _rel(got, ref):
    got = np.asarray(got, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    return np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)


def _series_matrix(alpha, beta, A, kmax=600):
    """Straight truncated matrix power series; reference for small ||A||."""
    p = A.shape[0]
    term = np.eye(p)
    out = term * rgamma(beta)
    for k in range(1, kmax):
        term = term @ A
        t = term * rgamma(alpha * k + beta)
        out = out + t
        if np.linalg.norm(t) < 1e-18 * (np.linalg.norm(out) + 1.0) and k > 8:
            break
    return out


# ---------------------------------------------------------------------------
# frozen high-precision reference values


def test_reference_table(ml_reference):
    groups = {}
    overflow = []
    for a, b, z, k, val in ml_reference:
        if np.isfinite(val.real) and np.isfinite(val.imag):
            groups.setdefault((a, b, k), []).append((z, val))
        else:
            overflow.append((a, b, z, k))
    worst = 0.0
    worst_key = None
    for (a, b, k), pairs in groups.items():
        zs = np.array([p[0] for p in pairs])
        refs = np.array([p[1] for p in pairs])
        params = MLParams(a, b)
        got = ml_deriv(params, zs, k) if k else ml_eval(params, zs)
        errs = _rel(got, refs)
        i = int(np.argmax(errs))
        if errs[i] > worst:
            worst = float(errs[i])
            worst_key = (a, b, zs[i], k)
    assert worst < 1e-11, f"worst relative error {worst:.3e} at {worst_key}"
    # entries recorded as infinite exceed float64 range: evaluation must raise
    assert overflow, "reference table should include overflow witnesses"
    for a, b, z, k in overflow:
        with pytest.raises(EvaluationError):
            ml_eval(MLParams(a, b), z)


def test_exp_reduction():
    z = np.linspace(-30.0, 5.0, 141)
    got = ml_eval(MLParams(1.0, 1.0), z)
    assert np.max(_rel(got, np.exp(z))) < 1e-10


def test_erfcx_identity():
    # E_{1/2,1}(-x) equals exp(x^2) erfc(x)
    x = np.geomspace(1e-3, 50.0, 50)
    got = ml_eval(MLParams(0.5, 1.0), -x)
    assert np.max(_rel(got, erfcx(x))) < 1e-10


def test_half_alpha_example():
    got = ml_eval(MLParams(0.5, 1.0), -2.0)
    assert abs(got - erfcx(2.0)) < 1e-12 * erfcx(2.0)


@pytest.mark.parametrize("beta", [0.25, 0.5, 1.0, 1.7])
def test_value_at_zero(beta):
    assert _rel(ml_eval(MLParams(0.6, beta), 0.0), rgamma(beta)) < 1e-14
    for k in (1, 2, 5):
        ref = math.factorial(k) * rgamma(0.6 * k + beta)
        assert _rel(ml_deriv(MLParams(0.6, beta), 0.0, k), ref) < 1e-13


def test_deriv_exponential_shortcut():
    got = ml_deriv(MLParams(1.0, 1.0), 0.5, 3)
    assert _rel(got, math.exp(0.5)) < 1e-14


def test_deriv_order_zero_matches_eval():
    z = np.array([-0.3, -3.0, -300.0])
    p = MLParams(0.7, 0.9)
    assert np.array_equal(ml_deriv(p, z, 0), ml_eval(p, z))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_complete_monotonicity(alpha):
    x = np.concatenate(([0.0], np.geomspace(1e-6, 1e6, 200)))
    v = ml_eval(MLParams(alpha, 1.0), -x)
    assert np.all(v > 0.0)
    assert np.all(np.diff(v) < 0.0)
    assert abs(v[0] - 1.0) < 1e-15


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9, 0.95])
@pytest.mark.parametrize("beta_kind", ["alpha", "one"])
def test_regime_boundary_continuity(alpha, beta_kind):
    # evaluation regimes switch at |z| = 1 and at the asymptotic threshold;
    # values straddling each boundary must agree within 100x the target
    beta = alpha if beta_kind == "alpha" else 1.0
    params = MLParams(alpha, beta)
    for r in (1.0, _asymp_threshold(alpha, params.accuracy_target)):
        lo = ml_eval(params, -r * (1.0 - 1e-13))
        hi = ml_eval(params, -r * (1.0 + 1e-13))
        assert _rel(lo, hi) < 100.0 * params.accuracy_target


def test_growth_sector_overflow():
    with pytest.raises(EvaluationError):
        ml_eval(MLParams(0.5, 1.0), 50.0)  # exp(2500) has no float64 value


def test_positive_axis_growth():
    # moderate positive arguments stay finite and match the series
    got = ml_eval(MLParams(0.5, 1.0), 2.0)
    ref = sum(2.0 ** k * rgamma(0.5 * k + 1.0) for k in range(200))
    assert _rel(got, ref) < 1e-12


@pytest.mark.parametrize("alpha,beta", [(0.4, 1.0), (0.4, 0.4), (0.8, 1.0), (0.8, 0.6)])
@pytest.mark.parametrize("x", [-0.5, -5.0, -50.0])
def test_deriv_vs_finite_difference(alpha, beta, x):
    params = MLParams(alpha, beta)
    h = 1e-5
    fd1 = (ml_eval(params, x + h) - ml_eval(params, x - h)) / (2.0 * h)
    assert _rel(ml_deriv(params, x, 1), fd1) < 1e-4
    fd2 = (ml_deriv(params, x + h, 1) - ml_deriv(params, x - h, 1)) / (2.0 * h)
    assert _rel(ml_deriv(params, x, 2), fd2) < 1e-4


def test_high_order_derivative_against_series():
    # k = 20 at small argument: direct differentiated series in plain float
    alpha, beta, z, k = 0.6, 1.0, -0.4, 20
    ref = 0.0
    for j in range(0, 400):
        c = math.factorial(j + k) / math.factorial(j)
        ref += c * z ** j * rgamma(alpha * (j + k) + beta)
    got = ml_deriv(MLParams(alpha, beta), z, k)
    assert _rel(got, ref) < 1e-11


@pytest.mark.parametrize("alpha", [0.9, 0.99])
@pytest.mark.parametrize("k", [4, 6, 8])
def test_offpole_contour_high_order(alpha, k):
    # negative axis just outside the series disc and below the asymptotic
    # threshold: the powered-denominator contour near alpha = 1
    from oracles import ml_ref_real

    params = MLParams(alpha, 1.0)
    for z in (-1.02, -1.2, -1.7, -3.0):
        assert _rel(ml_deriv(params, z, k), ml_ref_real(alpha, 1.0, z, k)) < 1e-12


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9, 0.999])
@pytest.mark.parametrize("beta_kind", ["one", "alpha"])
@pytest.mark.parametrize("k", [0, 1, 4, 8])
def test_real_path(alpha, beta_kind, k):
    # a float64 argument stays float64 through every regime: the series
    # (|z| <= 1), the algebraic expansion (past the asymptotic threshold),
    # the folded off-pole contour on [-7, -1.02], and for z > 0 the folded
    # sector contour with the pole term added, at every order. The contour
    # points at alpha = 0.9, k = 8 are the band the benchmark still leaves
    # unchecked (DERIV_BAND_FAULT); they meet the target, so they stay in.
    from oracles import ml_ref

    beta = 1.0 if beta_kind == "one" else alpha
    tol = 1e-12
    # past the threshold, and far enough out that the oracle takes its own
    # expansion rather than a slow high-precision series
    far = max(1.5 * _asymp_threshold(alpha, tol), 600.0 ** alpha)
    z = np.array([-0.3, -0.9, 0.6, -far, -3.0 * far, -1.02, -3.0, -7.0,
                  1.5, 2.0, 3.0, 4.0])
    vals = _ml_vec(alpha, beta, z, k, tol)
    assert vals.dtype == np.float64
    for zi, v in zip(z, vals):
        ref = complex(ml_ref(alpha, beta, complex(zi), k)).real
        assert _rel(v, ref) < 1e-12, (zi, v, ref)


_CYCLE = -np.eye(3) + 0.9 * np.roll(np.eye(3), 1, axis=1)  # arg lambda = 0.84 pi


@pytest.mark.parametrize("alpha", [0.5, 0.7, 0.9, 0.99])
def test_exponential_sector_matches_oracle(alpha):
    # |arg z| < alpha pi, where the integrand has a pole at z^(1/alpha): the
    # sector contour and the expansion add the pole term at every order.
    # beta alternates over the (|z|, arg) grid to hold the oracle's time to
    # about 13 s
    from oracles import ml_ref

    cases = [(k, r * np.exp(1j * f * alpha * np.pi), (1.0, alpha)[(i + j) % 2])
             for k in (0, 1, 4, 8)
             for i, r in enumerate((1.02, 1.5, 3.0, 8.0))
             for j, f in enumerate((0.0, 0.3, 0.6, 0.9, 0.99))]
    if alpha == 0.5:
        # past the asymptotic threshold, where the expansion adds the pole
        # term; at |z| = 20 the oracle's series took 7.5 s
        cases += [(k, 10.0 * np.exp(0.3j * 0.5 * np.pi), 1.0) for k in (1, 4, 8)]
    if alpha >= 0.9:
        # high orders near the origin, where a residue would cancel against
        # the nodes: the contour encloses the pole at mu = 16 for these
        # alpha (k + 1)
        cases += [(k, r * np.exp(1j * f * alpha * np.pi), 1.0)
                  for k in (12, 16) for r in (1.02, 1.5, 3.0)
                  for f in (0.3, 0.8, 0.9, 0.95)]
    for k, z, beta in cases:
        got = ml_deriv(MLParams(alpha, beta), z, k)
        ref = complex(ml_ref(alpha, beta, complex(z), k))
        assert _rel(got, ref) < 1e-12, (k, z, beta)
    if alpha == 0.9:
        # a generator with complex eigenvalues on the sector, through the
        # eigen branch of ml_matrix
        from oracles import ml_matrix_series

        for x in (0.5, 2.0, 5.0, 10.0):
            A = _CYCLE * x ** 0.9
            for beta in (0.9, 1.0):
                out = ml_matrix(MLParams(0.9, beta), A)
                ref = ml_matrix_series(0.9, beta, A, 60)
                assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("alpha", [1.05, 1.4, 1.8, 1.95])
def test_alpha_above_one_matches_oracle(alpha):
    # every point has a pole on the principal sheet, and one with |arg z| >
    # (2 - alpha) pi a second: the expansion and the sector contour add the
    # residue of each, and a real z is evaluated as complex. beta alternates
    # over the grid to hold the oracle's time down
    from oracles import ml_ref

    far = 1.3 * _asymp_threshold(alpha, 1e-12)
    grid = [r * np.exp(1j * f * np.pi) for r in (1.02, 3.0, 8.0, 20.0)
            for f in (0.0, 0.3, 0.6, 0.9, 1.0)]
    grid += [s * r for r in (1.02, 3.0, 8.0, 20.0) for s in (1.0, -1.0)]
    grid += [far * np.exp(1j * f * np.pi) for f in (0.0, 0.5, 1.0)]
    for k in (0, 1, 4, 8):
        for i, z in enumerate(grid):
            beta = (1.0, alpha)[(i + k) % 2]
            got = ml_deriv(MLParams(alpha, beta), z, k)
            assert isinstance(got, float) == isinstance(z, float)
            ref = complex(ml_ref(alpha, beta, complex(z), k))
            assert _rel(got, ref) < 1e-12, (k, z, beta)


@pytest.mark.parametrize("alpha", [0.3, 0.5])
@pytest.mark.parametrize("k", [0, 2, 8])
def test_asymptotic_block_extension(alpha, k):
    # just past the asymptotic threshold these points need from 14 to 322
    # terms, so they reach every block length of the expansion
    from oracles import ml_ref

    tol = 1e-12
    z = -_asymp_threshold(alpha, tol) * np.array([1.0, 1.5, 4.0])
    vals, err = _asymp_vec(alpha, alpha, z.astype(complex), k, tol)
    for zi, v, e in zip(z, vals, err):
        if e < 0.3 * tol:
            assert _rel(v, complex(ml_ref(alpha, alpha, complex(zi), k))) < 1e-12
    # 322 terms at alpha = 0.3, k = 8 and still short of the target: that
    # point is left to the contour, every other one is accepted
    rejected = err >= 0.3 * tol
    assert list(rejected) == [alpha == 0.3 and k == 8, False, False]


def _asymp_term_loop(alpha, beta, z, k, tol, nmax=350):
    """(sum, relerr) of the optimally truncated expansion, one term at a
    time: the reference for the block kernel of _asymp_vec."""
    zin = 1.0 / z
    accum = np.zeros_like(z)
    snap = np.zeros_like(z)
    best = np.full(z.shape, np.inf)
    last = np.full(z.shape, np.inf)
    grow = np.zeros(z.shape, dtype=int)
    err = np.full(z.shape, np.inf)
    open_ = np.ones(z.shape, dtype=bool)
    zp = zin ** (1 + k)
    for n in range(1, nmax + 1):
        g = beta - alpha * n
        c = (-1.0) ** k
        for i in range(k):
            c *= n + i
        with np.errstate(over="ignore", invalid="ignore"):
            t = (-c * rgamma(g)) * zp
        t = np.where(np.isnan(t), 0.0, t)
        zp = zp * zin
        accum = np.where(open_, accum + t, accum)
        if g <= 0.5 and abs(g - round(g)) < 1e-8:
            continue
        at = np.abs(t)
        grow = np.where(open_ & (at > last), grow + 1, 0)
        last = np.where(open_, at, last)
        improved = open_ & (at <= best)
        snap = np.where(improved, accum, snap)
        best = np.where(improved, at, best)
        conv = open_ & (at < 0.003 * tol * np.abs(accum))
        snap = np.where(conv, accum, snap)
        err = np.where(conv, at / (np.abs(accum) + 1e-300), err)
        open_ &= ~conv
        stop = open_ & (grow >= 3)
        err = np.where(stop, best / (np.abs(snap) + 1e-300), err)
        open_ &= ~stop
        if not open_.any():
            break
    err = np.where(open_, best / (np.abs(snap) + 1e-300), err)
    return snap, err


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9, 0.999])
@pytest.mark.parametrize("k", [0, 1, 4, 8])
def test_asymptotic_blocks_match_term_loop(alpha, k):
    # off the exponential sector _asymp_vec is the algebraic expansion
    # alone; its blocks must give the same bits as summing term by term
    tol = 1e-12
    r = _asymp_threshold(alpha, tol) * np.exp(np.linspace(np.log(0.3), 5.0, 40))
    for beta in (1.0, alpha, 2.0, alpha - 1.0):
        for theta in (np.pi, 0.9 * np.pi, 0.7 * np.pi):
            if theta < alpha * np.pi:
                continue
            z = r * np.exp(1j * theta)
            vals, err = _asymp_vec(alpha, beta, z, k, tol)
            ref_vals, ref_err = _asymp_term_loop(alpha, beta, z, k, tol)
            assert np.array_equal(vals, ref_vals)
            assert np.array_equal(err, ref_err)


def _series_term_loop(alpha, beta, z, k, tol, jmax=700):
    """(values, ok) of the differentiated power series, one term at a time:
    the reference for _series_vec, which runs the same loop on precomputed
    coefficients."""
    out = np.zeros_like(z)
    absum = np.zeros(z.shape, dtype=float)
    zp = np.ones_like(z)
    done = np.zeros(z.shape, dtype=bool)
    coef = float(math.factorial(k))
    j = 0
    while j < jmax:
        term = (coef * rgamma(alpha * (j + k) + beta)) * zp
        out += term
        absum += np.abs(term)
        small = np.abs(term) < 1e-17 * (np.abs(out) + 1e-300)
        done |= small & (j > 2)
        if done.all() and j > 4:
            break
        j += 1
        coef *= (j + k) / j
        zp = zp * z
    amp = absum / (np.abs(out) + 1e-300)
    return out, done & (amp * 2.3e-16 < 0.1 * tol)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 1.3])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 8])
def test_series_matches_term_loop(alpha, k):
    # _series_vec must give the loop's bits, values and ok masks, on the
    # closed unit disc: z = 0, |z| = 1 and points in between
    from mlphase.mlfun import _series_vec

    rng = np.random.default_rng(int(1000 * alpha) + k)
    real = np.concatenate((np.linspace(-1.0, 1.0, 21),
                           rng.uniform(-1.0, 1.0, 300)))
    ring = np.exp(1j * np.linspace(-np.pi, np.pi, 13))
    disc = np.sqrt(rng.uniform(0.0, 1.0, 300)) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, 300))
    args = [real, np.concatenate(([0.0], ring, disc)), np.array([0.0]),
            np.array([-1.0]), np.array([1j])]
    for beta in (1.0, alpha, 0.5, 2.0):
        for z in args:
            vals, ok = _series_vec(alpha, beta, z, k, 1e-12)
            ref_vals, ref_ok = _series_term_loop(alpha, beta, z, k, 1e-12)
            assert vals.dtype == z.dtype
            assert vals.tobytes() == ref_vals.tobytes()
            assert np.array_equal(ok, ref_ok)


def _peak_bytes(fn):
    """The tracemalloc peak of the call fn()."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_series_memory_linear_in_points():
    # the sum keeps a few buffers of the size of z, not one per term: about
    # 70 terms at alpha = 0.3 would hold hundreds of MB for 1e5 points
    from mlphase.mlfun import _series_vec

    z = -np.linspace(0.0, 1.0, 100_000)
    peak = _peak_bytes(lambda: _series_vec(0.3, 1.0, z, 0, 1e-12))
    assert peak < 12 * z.nbytes


@pytest.mark.parametrize("k", [0, 8])
def test_contour_memory_bounded_in_points(k):
    # the contour product goes about 4096 elements (points x nodes) at a
    # time, so its peak does not grow with the node count: with slices of a
    # fixed 4096 points, its two (points, nodes) temporaries held 10 to 68
    # float64 arrays of n at 1e5 points, the most at alpha = 0.999 on
    # complex z, and taken whole, up to 279. The Erlang survival sum is
    # sliced the same way and keeps only the real parts of its sums: it
    # peaked at 9.1 to 9.5 while it held the complex ones
    from mlphase.mlfun import (
        _contour_offpole_vec,
        _contour_pole_scalar,
        _survival_sum,
    )

    r = np.geomspace(1.02, 50.0, 100_000)
    for alpha in (0.9, 0.999):
        theta = np.linspace(alpha * np.pi + 0.05, np.pi, r.size)
        for z in (-r, r * np.exp(1j * theta)):
            peak = _peak_bytes(lambda: _contour_offpole_vec(alpha, alpha, z,
                                                            k, 1e-12))
            assert peak < 8 * r.nbytes, (alpha, z.dtype)
        # the sector contour takes every point of a call, each node set's
        # points through one _contour_sum
        theta = np.linspace(0.0, alpha * np.pi - 0.05, r.size)
        for z in (r, r * np.exp(1j * theta)):
            peak = _peak_bytes(lambda: _contour_pole_scalar(alpha, alpha, z,
                                                            k, 1e-12))
            assert peak < 20 * r.nbytes, (alpha, z.dtype)
    peak = _peak_bytes(lambda: _survival_sum(0.999, r, max(k, 1), 1e-12))
    assert peak < 8 * r.nbytes


@pytest.mark.parametrize("k", [0, 4])
def test_asymptotic_memory_bounded_in_points(k):
    # the expansion's table goes about 4096 elements at a time, 128 points
    # of its first block of 32 terms: taken whole, that block would hold
    # 224 arrays of n at 1e5 points
    z = -np.geomspace(60.0, 1e6, 100_000)
    peak = _peak_bytes(lambda: _asymp_vec(0.9, 1.0, z, k, 1e-12))
    assert peak < 32 * z.nbytes


@pytest.mark.parametrize("k", [0, 3])
def test_contour_sum_slices_are_independent(k, monkeypatch):
    # each point's sums are its own row of the product, whatever slice of
    # points it lands in: 37 points a slice, or one point a slice when the
    # budget is below the node count
    from mlphase import mlfun

    s, w = mlfun._offpole_nodes(0.7, 1.0, 1e-12, k, True)
    # the survival sum of order k + 1 takes the nodes of max(k, 4) at tol/10
    n = mlfun._offpole_nodes(0.7, 1.0, 1e-13, max(k, 4), True)[0].size
    z = -np.geomspace(1.02, 30.0, 301)
    u = np.geomspace(1e-4, 1e4, 301)
    whole = mlfun._contour_sum(s ** 0.7, w, z, k)
    sf = mlfun._survival_sum(0.7, u, k + 1, 1e-12)
    for rows in (37, 0):
        monkeypatch.setattr(mlfun, "_SLICE", rows * s.size or s.size - 1)
        assert np.allclose(mlfun._contour_sum(s ** 0.7, w, z, k), whole,
                           rtol=1e-14, atol=0.0)
        monkeypatch.setattr(mlfun, "_SLICE", rows * n or n - 1)
        for got, want in zip(mlfun._survival_sum(0.7, u, k + 1, 1e-12), sf):
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)


def test_offpole_nodes_cached_read_only():
    # one node set per strip half-width, not per derivative order, shared
    # by every caller and so not writable
    from mlphase.mlfun import _offpole_nodes

    s, w = _offpole_nodes(0.9, 0.9, 1e-12, 2, True)
    assert all(a is b for a, b in zip(_offpole_nodes(0.9, 0.9, 1e-12, 3, True),
                                      (s, w)))
    assert _offpole_nodes(0.9, 0.9, 1e-12, 4, True)[0].size > s.size
    for a in (s, w, *_offpole_nodes(0.9, 0.9, 1e-12, 2, False)):
        with pytest.raises(ValueError):
            a[0] = 0.0


# ---------------------------------------------------------------------------
# matrix argument


def test_matrix_zero():
    out = ml_matrix(MLParams(0.7, 0.9), np.zeros((3, 3)))
    assert np.allclose(out, np.eye(3) * rgamma(0.9), rtol=0, atol=1e-14)


def test_matrix_diagonal():
    d = np.array([-1.0, -2.0, -3.0])
    out = ml_matrix(MLParams(0.6, 1.0), np.diag(d))
    ref = np.diag(ml_eval(MLParams(0.6, 1.0), d).real)
    assert np.max(np.abs(out - ref)) < 1e-13


def test_matrix_uniform_bidiagonal():
    A = np.array([[-1.0, 1.0], [0.0, -1.0]])
    out = ml_matrix(MLParams(0.8, 0.8), A)
    p = MLParams(0.8, 0.8)
    assert _rel(out[0, 0], ml_eval(p, -1.0)) < 1e-13
    assert _rel(out[1, 1], ml_eval(p, -1.0)) < 1e-13
    assert _rel(out[0, 1], ml_deriv(p, -1.0, 1)) < 1e-13
    assert out[1, 0] == 0.0


def test_matrix_bidiagonal_scaled():
    # aI + bN: superdiagonal s carries E^{(s)}(a) b^s / s!, whose sign
    # alternates with s when b < 0
    a = -2.0
    p = MLParams(0.7, 1.0)
    for b in (0.5, -0.5):
        A = np.diag([a] * 4) + np.diag([b] * 3, 1)
        out = ml_matrix(p, A)
        for s in range(4):
            coef = b ** s / math.factorial(s)
            ref = ml_deriv(p, a, s).real * coef
            assert np.max(_rel(np.diag(out, s), ref)) < 1e-12, (b, s)


def test_matrix_bidiagonal_far_tail_finite():
    # b^s overflows while E^{(s)}(a) underflows: the product is formed in
    # log form, so no entry is inf * 0 = nan
    a, b = -1e300, 1e300
    A = np.diag([a] * 3) + np.diag([b] * 2, 1)
    p = MLParams(0.7, 1.0)
    out = ml_matrix(p, A)
    assert np.all(np.isfinite(out))
    assert _rel(out[0, 0], ml_eval(p, a)) < 1e-13


def test_matrix_bidiagonal_coefficient_overflow_raises():
    # b^2 / 2! E''(a) at a = -3, b = 1e300 exceeds the float range: a typed
    # error, not inf with a RuntimeWarning
    A = np.diag([-3.0] * 3) + 1e300 * np.eye(3, k=1)
    with pytest.raises(EvaluationError, match="float range"):
        ml_matrix(MLParams(0.7, 1.0), A)


def test_matrix_bidiagonal_alpha_above_one():
    # the Toeplitz form takes E^(s)(a) to s = 7 at alpha = 1.5, where each
    # order goes through the same regimes as at alpha <= 1
    from oracles import ml_matrix_shifted_nilpotent

    N = 1.5 * np.eye(8, k=1)
    for a in (-0.5, -2.0, -6.0, 3.0):
        A = a * np.eye(8) + N
        out = ml_matrix(MLParams(1.5, 1.0), A)
        ref = ml_matrix_shifted_nilpotent(1.5, 1.0, a, N)
        assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref)), a


def test_matrix_block_structure():
    B1 = np.array([[-2.0, 1.0], [0.5, -3.0]])
    B2 = np.array([[-1.0]])
    A = np.zeros((3, 3))
    A[:2, :2] = B1
    A[2, 2] = B2[0, 0]
    params = MLParams(0.8, 1.0)
    out = ml_matrix(params, A)
    assert np.allclose(out[:2, :2], ml_matrix(params, B1), rtol=1e-12, atol=1e-14)
    assert abs(out[2, 2] - ml_matrix(params, B2)[0, 0]) < 1e-13
    assert np.max(np.abs(out[2, :2])) == 0.0
    assert np.max(np.abs(out[:2, 2])) == 0.0


def test_matrix_vs_series_spread_eigenvalues():
    rng = np.random.default_rng(7)
    params = MLParams(0.7, 1.0)
    for p in (2, 3, 5):
        A = rng.uniform(-1.0, 1.0, (p, p))
        A *= 4.0 / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-9)
        out = ml_matrix(params, A)
        ref = _series_matrix(0.7, 1.0, A)
        num = np.linalg.norm(out - ref)
        den = np.linalg.norm(ref)
        assert num / den < 1e-8


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2 ** 31),
    dim=st.integers(1, 5),
    alpha=st.floats(0.45, 1.0),
    beta=st.floats(0.5, 1.5),
)
def test_matrix_matches_series_property(seed, dim, alpha, beta):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (dim, dim))
    rho = np.max(np.abs(np.linalg.eigvals(A))) if dim else 0.0
    A *= 3.0 / max(rho, 1e-9)
    out = ml_matrix(MLParams(alpha, beta), A)
    ref = _series_matrix(alpha, beta, A)
    assert np.linalg.norm(out - ref) / max(np.linalg.norm(ref), 1e-300) < 1e-8


def test_matrix_generator_argument():
    # the intended use: T x^alpha with T a sub-intensity matrix; the large-x
    # case exceeds what a float64 series can resolve, so check it against the
    # multi-precision reference
    from oracles import ml_ref_real

    T = np.array([[-3.0, 3.0], [0.0, -3.0]])
    params = MLParams(0.5, 0.5)
    for x in (0.1, 1.0, 10.0):
        a = -3.0 * x ** 0.5
        b = 3.0 * x ** 0.5
        out = ml_matrix(params, T * x ** 0.5)
        ref = np.array(
            [
                [ml_ref_real(0.5, 0.5, a), b * ml_ref_real(0.5, 0.5, a, 1)],
                [0.0, ml_ref_real(0.5, 0.5, a)],
            ]
        )
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-9


# A defective generator: T = -I + N with N nilpotent, so T x^alpha has no
# eigenbasis and ml_matrix takes a series; the reference is the identity
# E(-y I + y N) = sum_s (y N)^s / s! E^(s)(-y) with y = x^alpha.
_DEFECTIVE = np.array([[-1.0, 0.5, 0.0], [0.0, -1.0, 0.9], [0.0, 0.0, -1.0]])


def _defective_case(alpha, beta, x):
    from oracles import ml_matrix_shifted_nilpotent

    y = x ** alpha
    ref = ml_matrix_shifted_nilpotent(alpha, beta, -y,
                                      (_DEFECTIVE + np.eye(3)) * y)
    return _DEFECTIVE * y, ref


def _spy(monkeypatch, name):
    import mlphase.mlfun as mlfun

    calls = []
    fn = getattr(mlfun, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(mlfun, name, spy)
    return calls


@pytest.mark.parametrize("beta", [0.7, 1.0])
@pytest.mark.parametrize("x", [4.0, 5.0, 5.2])
def test_matrix_float_series_meets_target(x, beta):
    # below six lost digits the float64 series runs first, and its value is
    # kept only when its own estimate meets the accuracy target
    A, ref = _defective_case(0.7, beta, x)
    out = ml_matrix(MLParams(0.7, beta), A)
    assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("beta", [0.7, 1.0])
@pytest.mark.parametrize("x", [6.7, 15.0, 40.0])
def test_matrix_extended_precision_series(monkeypatch, x, beta):
    calls = _spy(monkeypatch, "_matrix_series_mp")
    A, ref = _defective_case(0.7, beta, x)
    out = ml_matrix(MLParams(0.7, beta), A)
    assert calls
    assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref))


def test_defective_law_extended_precision(monkeypatch):
    # pi E_{a,a}(T x^a) t x^(a-1) and pi E_{a,1}(T x^a) 1 through the law API
    from mlphase import MMLDist, make_general, mml_pdf, mml_sf

    calls = _spy(monkeypatch, "_matrix_series_mp")
    d = MMLDist(0.7, make_general((1.0, 0.0, 0.0), _DEFECTIVE))
    xs = np.array([6.7, 15.0, 40.0])
    pdf, sf = mml_pdf(d, xs), mml_sf(d, xs)
    assert len(calls) == 2 * len(xs)
    t = -_DEFECTIVE.sum(axis=1)
    for i, x in enumerate(xs):
        assert _rel(pdf[i], _defective_case(0.7, 0.7, x)[1][0] @ t
                    * x ** -0.3) < 1e-12
        assert _rel(sf[i], _defective_case(0.7, 1.0, x)[1][0].sum()) < 1e-12


@pytest.mark.parametrize("beta", [30.0, 150.0])
def test_matrix_extended_precision_small_entries(monkeypatch, beta):
    # 1/Gamma(beta) is 1e-31 or 1e-261: the series' integer unit follows the
    # first coefficient, so the stopping rule and the value keep their digits
    calls = _spy(monkeypatch, "_matrix_series_mp")
    A, ref = _defective_case(0.7, beta, 15.0)
    out = ml_matrix(MLParams(0.7, beta), A)
    assert calls
    assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("seed", range(6))
def test_matrix_extended_precision_dense(seed):
    # dense matrices of dimension 1 to 5, 2 to 9 digits lost, against
    # mpmath matrices at ample precision: both read A, alpha and beta
    # exactly and round a sum good to far more digits than float64 holds,
    # so every entry is the same float64, to one unit in the last place
    from mlphase.mlfun import _matrix_series_mp
    from oracles import ml_matrix_series

    rng = np.random.default_rng(seed)
    p, alpha, beta = 1 + seed % 5, rng.uniform(0.4, 1.0), rng.uniform(0.3, 1.6)
    A = rng.uniform(-1.0, 1.0, (p, p))
    theta = rng.uniform(5.0, 20.0) ** alpha
    A *= theta / np.linalg.norm(A, 1)
    out = _matrix_series_mp(alpha, beta, A)
    ref = ml_matrix_series(alpha, beta, A, 40 + int(theta ** (1.0 / alpha)))
    assert np.all(np.abs(out - ref) <= np.spacing(np.abs(ref)))


def _entrywise_cases():
    cases = [("defective", x, beta) for x in (6.7, 15.0, 40.0, 100.0, 200.0)
             for beta in (0.7, 1.0, 30.0)]
    return cases + [("dense", seed, None) for seed in range(6)]


@pytest.mark.parametrize("kind,arg,beta", _entrywise_cases())
def test_matrix_extended_precision_entrywise(kind, arg, beta):
    # every entry of at least 1e-8 max|E| within one unit in the last place
    # of mpmath matrices at ample precision, not only within a share of
    # max|E|: the defective T at x from 6.7 to 200 (beta = alpha, 1, 30) and
    # the dense matrices of test_matrix_extended_precision_dense
    from mlphase.mlfun import _matrix_series_mp
    from oracles import ml_matrix_series

    if kind == "defective":
        alpha, A = 0.7, _DEFECTIVE * arg ** 0.7
        theta = np.linalg.norm(A, 1)
        dps = 40 + int(0.434 * theta ** (1.0 / alpha))
    else:
        rng = np.random.default_rng(arg)
        p, alpha = 1 + arg % 5, rng.uniform(0.4, 1.0)
        beta = rng.uniform(0.3, 1.6)
        A = rng.uniform(-1.0, 1.0, (p, p))
        theta = rng.uniform(5.0, 20.0) ** alpha
        A *= theta / np.linalg.norm(A, 1)
        dps = 40 + int(theta ** (1.0 / alpha))
    out = _matrix_series_mp(alpha, beta, A)
    ref = ml_matrix_series(alpha, beta, A, dps)
    big = np.abs(ref) >= 1e-8 * np.abs(ref).max()
    assert np.all(np.abs(out - ref)[big] <= np.spacing(np.abs(ref))[big])


def test_matrix_extended_precision_reruns_when_short(monkeypatch):
    # a spectral radius read as zero starts the sum at 35 digits, short of
    # the 49 that the defective T loses at x = 100; the sum sees the loss
    # and runs again, at more digits each time, until they cover it
    import mpmath

    import mlphase.mlfun as mlfun
    from oracles import ml_matrix_series

    digits = []
    workdps = mpmath.workdps

    def spy(dps):
        digits.append(dps)
        return workdps(dps)

    monkeypatch.setattr(mpmath, "workdps", spy)
    monkeypatch.setattr(mlfun.np.linalg, "eigvals",
                        lambda a: np.zeros(len(a)))
    A = _DEFECTIVE * 100.0 ** 0.7
    out = mlfun._matrix_series_mp(0.7, 1.0, A)
    monkeypatch.undo()
    assert digits[0] == 35 and len(digits) > 1
    assert all(a + 10 < b for a, b in zip(digits, digits[1:]))
    ref = ml_matrix_series(0.7, 1.0, A, 40 + int(0.434 * np.linalg.norm(
        A, 1) ** (1.0 / 0.7)))
    big = np.abs(ref) >= 1e-8 * np.abs(ref).max()
    assert np.all(np.abs(out - ref)[big] <= 1e-13 * np.abs(ref)[big])


def test_matrix_extended_precision_beyond_norm_bound():
    # at x = 300 the 1-norm bound asks for more than 350 digits, but the
    # series loses about 140: it is summed, entrywise to 1e-13
    A, ref = _defective_case(0.7, 1.0, 300.0)
    out = ml_matrix(MLParams(0.7, 1.0), A)
    big = np.abs(ref) >= 1e-8 * np.abs(ref).max()
    assert np.all(np.abs(out - ref)[big] <= 1e-13 * np.abs(ref)[big])


def test_matrix_extended_precision_refuses_large_norm():
    # about 1100 digits would be needed at x = 1000; the series refuses
    with pytest.raises(EvaluationError, match="infeasible at this norm"):
        ml_matrix(MLParams(0.7, 1.0), _DEFECTIVE * 1000.0 ** 0.7)


# ---------------------------------------------------------------------------
# validation


def test_params_validation():
    with pytest.raises(ValidationError):
        MLParams(0.0, 1.0)
    with pytest.raises(ValidationError):
        MLParams(2.0, 1.0)
    with pytest.raises(ValidationError):
        MLParams(0.5, np.inf)
    with pytest.raises(ValidationError):
        MLParams(0.5, 0.0)
    with pytest.raises(ValidationError):
        MLParams(0.5, -1.0)
    with pytest.raises(ValidationError):
        MLParams(0.5, 1.0, accuracy_target=1e-3)
    with pytest.raises(ValidationError):
        MLParams(0.5, 1.0, accuracy_target=1e-16)


def test_eval_argument_validation():
    with pytest.raises(ValidationError):
        ml_eval(MLParams(0.5, -1.0), -1.0)  # direct evaluation needs beta > 0
    with pytest.raises(ValidationError):
        ml_eval(MLParams(0.5, 1.0), np.nan)
    with pytest.raises(ValidationError):
        ml_deriv(MLParams(0.5, 1.0), -1.0, -1)
    with pytest.raises(ValidationError):
        ml_deriv(MLParams(0.5, 1.0), -1.0, 65)


def test_matrix_argument_validation():
    params = MLParams(0.5, 1.0)
    with pytest.raises(ValidationError):
        ml_matrix(params, np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        ml_matrix(params, np.zeros((65, 65)))
    bad = np.zeros((2, 2))
    bad[0, 1] = np.inf
    with pytest.raises(ValidationError):
        ml_matrix(params, bad)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.25, 0.99),
    x1=st.floats(1e-6, 1e4),
    ratio=st.floats(1.001, 100.0),
)
def test_negative_axis_bounds_property(alpha, x1, ratio):
    # on the negative axis with beta = 1 the function stays in (0, 1] and
    # decreases
    params = MLParams(alpha, 1.0)
    v1 = float(ml_eval(params, -x1).real)
    v2 = float(ml_eval(params, -x1 * ratio).real)
    assert 0.0 < v2 < v1 <= 1.0
