"""Two-parameter Mittag-Leffler function: scalar, derivative, and matrix forms.

The evaluator splits the complex plane into three regimes:

* power series near the origin (|z| <= 1), with running cancellation
  tracking so a result is only accepted when float64 can support it;
* an optimally truncated algebraic expansion in 1/z far from the origin,
  plus the exponential branch (1/alpha) z^{(1-beta)/alpha} exp(z^{1/alpha})
  when |arg z| < alpha*pi. The terms are summed as a table, 4096 points
  at a time: a block of 32 for every point and then blocks of twice the
  length for the points not yet truncated, and each point is cut at its
  first converged term or at its smallest term before three consecutive
  growing ones; the expansion self-reports its attainable error and is only
  accepted when that beats the accuracy target;
* a parabolic Bromwich contour in between. The integrand
  exp(s) s^{alpha-beta} / (s^alpha - z) is sampled by the trapezoid rule on
  s(u) = mu (1+iu)^2; the single principal-sheet pole s* = z^{1/alpha}
  (present when |arg z| < alpha*pi) is kept to the right of the contour by
  choosing mu = phi(s*)/4, where phi(s) = (Re s + |s|)/2 is the parabola
  parameter through s, and its residue is added explicitly. That choice
  places the pole image one full unit below the real axis in the u plane,
  so the quadrature converges at the same geometric rate as the pole-free
  case. Every off-pole contour sum, the fit's score block included, is
  one kernel, _contour_sum, over slices of 4096 points (the score
  block's: 256).

Derivatives use the term-wise differentiated series near the origin, a
differentiated algebraic expansion or a powered-denominator contour off the
exponential sector, and otherwise reduce to base evaluations through the
recursion

    E^(k)(z) = (alpha^k z^k)^{-1} sum_j c_j^(k) E_{alpha, beta-j}(z)

with integer-recurrence coefficients c_j^(k).

alpha in (1, 2) is reduced to alpha/2 by

    E_{alpha,beta}(z) = ( E_{alpha/2,beta}(sqrt z) + E_{alpha/2,beta}(-sqrt z) ) / 2.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import rgamma

from .errors import EvaluationError, ValidationError, _array, _integer, _number

MAX_DERIV = 64
MAX_DIM = 64
ACCURACY_MIN = 1e-14
ACCURACY_MAX = 1e-6
_EPS = 2.3e-16
# points per slice of the contour product and of the asymptotic table
_SLICE = 4096


@dataclass(frozen=True)
class MLParams:
    """Parameters of E_{alpha,beta} with an accuracy target.

    alpha must lie in (0, 2), beta is any finite real (nonpositive values
    only arise inside the derivative recursion), and accuracy_target is a
    relative tolerance in [1e-14, 1e-6].
    """

    alpha: float
    beta: float = 1.0
    accuracy_target: float = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "alpha", _number(self.alpha, "alpha", "(0, 2)"))
        object.__setattr__(self, "beta", _number(self.beta, "beta"))
        object.__setattr__(self, "accuracy_target", _number(
            self.accuracy_target, "accuracy_target",
            f"[{ACCURACY_MIN}, {ACCURACY_MAX}]"))


# ---------------------------------------------------------------------------
# series regime

def _factorial(k):
    """k! as a float."""
    return math.prod(range(1, k + 1), start=1.0)


def _series_coeffs(alpha, beta, k, n):
    """c_j = (j+k)!/j! / Gamma(alpha (j+k) + beta) for j < n, the falling
    factorial as a running product of (j+k)/j."""
    j = np.arange(n)
    ratio = np.empty(n)
    ratio[0] = _factorial(k)
    ratio[1:] = (j[1:] + k) / j[1:]
    return np.cumprod(ratio) * rgamma(alpha * (j + k) + beta)


def _series_vec(alpha, beta, z, k, tol, jmax=700):
    """Term-wise differentiated power series for the k-th derivative.

    Returns (values, ok): ok[i] is False when float64 cannot certify the
    requested tolerance at z[i] given the cancellation seen in the sum.
    The values have the dtype of z, real or complex.

    Point i is done at its first term t_j = c_j z_i^j past j = 2 below
    1e-17 of its partial sum, and the sum stops at the first j > 4 at which
    all points are done (or at jmax terms). The coefficients come from
    _series_coeffs, 32 at first and twice as many whenever the sum runs
    past them; the terms are summed one at a time in buffers of the size
    of z.
    """
    z = np.asarray(z)
    out = np.zeros_like(z)
    zp = np.ones_like(z)
    term = np.empty_like(z)
    at = np.empty(z.shape)
    absum = np.zeros(z.shape)
    lim = np.empty(z.shape)
    small = np.empty(z.shape, dtype=bool)
    done = np.zeros(z.shape, dtype=bool)
    c = _series_coeffs(alpha, beta, k, min(32, jmax))
    for j in range(jmax):
        if j == c.size:
            c = _series_coeffs(alpha, beta, k, min(2 * j, jmax))
        np.multiply(c[j], zp, out=term)
        out += term
        np.abs(term, out=at)
        absum += at
        if j > 2:
            np.abs(out, out=lim)
            lim += 1e-300
            lim *= 1e-17
            np.less(at, lim, out=small)
            done |= small
            if j > 4 and done.all():
                break
        np.multiply(zp, z, out=zp)
    amp = absum / (np.abs(out) + 1e-300)
    ok = done & (amp * _EPS < 0.1 * tol)
    return out, ok


# kept for bench/tracer.py, which wraps this name
_series_deriv_vec = _series_vec


# ---------------------------------------------------------------------------
# asymptotic regime

def _gamma_dip(g):
    """True where g sits within rounding slop of a reciprocal-gamma pole."""
    return (g <= 0.5) & (np.abs(g - np.round(g)) < 1e-8)


def _asymp_block(alpha, beta, zin, k, tol, nterms):
    """Terms n = 1..nterms of the expansion at the points 1/zin.

    Returns (snap, err, closed): closed[i] is False when point i neither
    converged nor reached its optimal truncation within nterms terms; its
    snap and err then describe the smallest term seen so far.
    """
    n = np.arange(1, nterms + 1, dtype=float)
    g = beta - alpha * n
    c = np.full(nterms, (-1.0) ** k)
    for i in range(k):
        c *= n + i
    kept = ~_gamma_dip(g)
    if not kept.any():
        return (np.zeros_like(zin), np.full(zin.size, np.inf),
                np.zeros(zin.size, dtype=bool))
    zp = np.empty((nterms, zin.size), dtype=zin.dtype)
    zp[0] = zin ** (1 + k)
    # repeated multiplies, not np.cumprod, which rounds complex products
    # differently
    for j in range(1, nterms):
        np.multiply(zp[j - 1], zin, out=zp[j])
    with np.errstate(over="ignore", invalid="ignore"):
        t = (-c * rgamma(g))[:, None] * zp
    # an underflowed power against an overflowed gamma reciprocal: the
    # true magnitude is far below any target, so the term counts as zero
    t[np.isnan(t)] = 0.0
    # every term enters the sum; terms at a pole dip are left out of the
    # truncation bookkeeping
    accum = np.cumsum(t, axis=0)[kept]
    at = np.abs(t[kept])
    # converged: next terms negligible at the target
    conv = at < 0.003 * tol * np.abs(accum)
    # optimal truncation reached: growth for 3 consecutive kept terms
    grew = np.zeros(at.shape, dtype=bool)
    grew[1:] = at[1:] > at[:-1]
    stop = np.zeros(at.shape, dtype=bool)
    stop[3:] = grew[3:] & grew[2:-1] & grew[1:-2]
    close = conv | stop
    closed = close.any(axis=0)
    end = np.where(closed, close.argmax(axis=0), at.shape[0] - 1)
    # the smallest term so far, and the sum up to its last occurrence
    rmin = np.minimum.accumulate(at, axis=0)
    steps = np.arange(at.shape[0])[:, None]
    lastmin = np.maximum.accumulate(np.where(at == rmin, steps, -1), axis=0)
    cols = np.arange(zin.size)
    hit = conv[end, cols]
    snap = accum[np.where(hit, end, lastmin[end, cols]), cols]
    err = (np.where(hit, at[end, cols], rmin[end, cols])
           / (np.abs(snap) + 1e-300))
    return snap, err, closed


def _asymp_vec(alpha, beta, z, k, tol, nmax=350):
    """Optimally truncated algebraic expansion of the k-th derivative.

    Returns (values, relerr): relerr[i] is the self-reported attainable
    relative error at z[i] (np.inf when the expansion is unusable there).
    The expansion is summed in blocks: the first 32 terms for every point,
    then, for the points that neither converged nor reached their optimal
    truncation (three consecutive growing terms), a block twice as long,
    up to nmax terms. Terms whose reciprocal-gamma factor sits at a pole dip
    are added to the sum but excluded from the truncation bookkeeping.
    Each point has its own column of the table, which takes _SLICE points
    at a time. The values have the dtype of z, real or complex.
    """
    z = np.asarray(z)
    zin = 1.0 / z
    snap = np.zeros_like(z)
    err = np.full(z.shape, np.inf)
    for lo in range(0, z.size, _SLICE):
        rows = np.arange(lo, min(lo + _SLICE, z.size))
        nterms = 32
        while rows.size:
            nterms = min(nterms, nmax)
            s, e, closed = _asymp_block(alpha, beta, zin[rows], k, tol,
                                        nterms)
            if nterms == nmax:
                closed[:] = True
            snap[rows[closed]] = s[closed]
            err[rows[closed]] = e[closed]
            rows = rows[~closed]
            nterms *= 2
    vals = snap
    theta = np.abs(np.angle(z))
    if k == 0:
        sector = theta < alpha * np.pi
        if sector.any():
            w = np.where(sector, z, 1.0) ** (1.0 / alpha)
            if np.any(sector & (w.real > 690.0)):
                raise EvaluationError("Mittag-Leffler overflow")
            branch = (1.0 / alpha) * w ** (1.0 - beta) * np.exp(w)
            vals = np.where(sector, vals + branch, vals)
            err = np.where(sector,
                           err * np.abs(snap) / (np.abs(vals) + 1e-300), err)
    else:
        # differentiated exponential branch not implemented; only usable off
        # the exponential sector
        err = np.where(theta < alpha * np.pi, np.inf, err)
    return vals, err


def _asymp_threshold(alpha, tol):
    """|z| beyond which the algebraic expansion is worth attempting."""
    return (2.2 * -np.log(tol)) ** alpha


# ---------------------------------------------------------------------------
# contour regime

def _contour_nodes(alpha, beta, tol, mu, d):
    """Trapezoid nodes and exp/power weights for the parabola s = mu(1+iu)^2."""
    spar = abs(np.sin(alpha * np.pi))
    lam = -np.log(tol) + np.log(1.0 + 1.0 / max(spar, 1e-3)) + 6.0
    h = 2.0 * np.pi * d / lam
    uN = np.sqrt(1.0 + lam / max(mu, 1e-8))
    N = int(np.ceil(uN / h))
    if N > 400000:
        raise EvaluationError("contour quadrature did not converge")
    u = np.arange(-N, N + 1) * h
    s = mu * (1.0 + 1j * u) ** 2
    ds = 2.0 * mu * 1j * (1.0 + 1j * u)
    w = np.exp(s) * s ** (alpha - beta) * ds * (h / (2j * np.pi))
    return s, w


def _offpole_nodes(alpha, beta, tol, k, real):
    """Nodes and weights of the off-pole contour for the k-th derivative.

    The parabola has mu = 1 and a strip half-width d = 1, narrowed to 0.8 at
    alpha >= 0.999 and halved at k >= 4. With real, the nodes are folded
    onto u >= 0: for a real argument the terms at -u are the conjugates of
    those at u, so every node but u = 0 keeps twice its weight, and the
    caller takes the real part of its sum. A set depends on k only through
    d, and is built once per (alpha, beta, tol, d, real) by _offpole_set.
    """
    d = 1.0
    if alpha >= 0.999:
        # near alpha = 1 a singular point sits close to the branch-cut image;
        # narrow the strip to keep it clear of the contour
        d = 0.8
    if k >= 4:
        # the powered denominator magnifies the trapezoid error of the
        # nearest singularity; a half-width strip holds the target to k = 8
        d *= 0.5
    return _offpole_set(alpha, beta, tol, d, real)


@functools.lru_cache(maxsize=32)
def _offpole_set(alpha, beta, tol, d, real):
    """The node set of _offpole_nodes for strip half-width d, built once per
    key and shared by every caller, so its arrays are read-only."""
    s, w = _contour_nodes(alpha, beta, tol, mu=1.0, d=d)
    if real:
        mid = s.size // 2  # the node u = 0
        s, w = s[mid:], np.concatenate((w[mid:mid + 1], 2.0 * w[mid + 1:]))
    s.flags.writeable = w.flags.writeable = False
    return s, w


def _contour_sum(sa, W, z, k, rows=_SLICE):
    """sum_j W_j (sa_j - z_i)^-(k+1) at every z_i, sa_j = s_j^alpha at the
    contour nodes s_j, W one weight column or several. Each slice of `rows`
    points is one reciprocal r, k repeated products R = r^(k+1) and one
    matrix product R @ W, so its temporaries stay a bounded size. The sums
    are joined after the last slice: an output allocated before the
    temporaries leaves them at the top of the heap, and glibc then returns
    and refaults their pages on every call."""
    parts = []
    for lo in range(0, max(z.size, 1), rows):  # an empty z: one empty part
        r = 1.0 / (sa - z[lo:lo + rows, None])
        R = r * r if k else r
        for _ in range(k - 1):  # repeated products: complex ** is slower
            R *= r
        parts.append(R @ W)
    return np.concatenate(parts)


def _contour_offpole_vec(alpha, beta, z, k, tol):
    """Vectorized contour for arguments with no principal-sheet pole: the
    _contour_sum of the off-pole nodes, folded for a real z, whose real
    part is returned."""
    z = np.asarray(z)
    real = not np.iscomplexobj(z)
    s, w = _offpole_nodes(alpha, beta, tol, k, real)
    val = _contour_sum(s ** alpha, w, z, k)
    return _factorial(k) * (val.real if real else val)


def _contour_pole_scalar(alpha, beta, z, tol):
    """Contour evaluation with the pole's residue added (k = 0 only)."""
    z = complex(z)
    sstar = z ** (1.0 / alpha)
    if sstar.real > 690.0:
        raise EvaluationError("Mittag-Leffler overflow")
    phi = (sstar.real + abs(sstar)) / 2.0
    mu = phi / 4.0
    res = (1.0 / alpha) * sstar ** (1.0 - beta) * np.exp(sstar)
    s, w = _contour_nodes(alpha, beta, tol, mu=mu, d=1.0)
    val = (w / (s ** alpha - z)).sum()
    return val + res


# ---------------------------------------------------------------------------
# scalar/vector evaluation core

def _deriv_coeffs(alpha, beta, k):
    """Coefficients c_j^(k) of the derivative recursion."""
    c = np.array([1.0])
    for kk in range(1, k + 1):
        nxt = np.zeros(kk + 1)
        base = 1.0 - beta - alpha * (kk - 1)
        nxt[0] = base * c[0]
        for j in range(1, kk):
            nxt[j] = c[j - 1] + (base + j) * c[j]
        nxt[kk] = 1.0
        c = nxt
    return c


def _recursion_deriv_vec(alpha, beta, z, k, tol):
    """k-th derivative through base evaluations at shifted second parameter."""
    z = np.asarray(z)
    c = _deriv_coeffs(alpha, beta, k)
    acc = np.zeros_like(z)
    for j in range(k + 1):
        if c[j] != 0.0:
            acc += c[j] * _ml_vec(alpha, beta - j, z, 0, tol)
    return acc / (alpha ** k * z ** k)


def _ml_vec(alpha, beta, z, k, tol):
    """k-th derivative of E_{alpha,beta} on an array of arguments.

    Real in, real out: a real array stays float64 through every regime,
    and a complex one is evaluated in complex128. Each point goes to the
    first regime that certifies it: the series for |z| <= 1; for k > 0 on
    the exponential sector, the recursion; the algebraic expansion for |z|
    beyond the asymptotic threshold; otherwise the contour, with the pole's
    residue added on the sector (k = 0 only).
    """
    real = not np.iscomplexobj(z)
    z = np.asarray(z, dtype=float if real else complex)
    if k == 0 and alpha > 1.0:
        w = np.sqrt(z.astype(complex))
        v = 0.5 * (_ml_vec(alpha / 2.0, beta, w, 0, tol)
                   + _ml_vec(alpha / 2.0, beta, -w, 0, tol))
        return v.real if real else v
    if alpha == 1.0 and beta == 1.0:
        return np.exp(z)
    out = np.empty_like(z)
    az = np.abs(z)
    zero = az == 0.0
    out[zero] = _factorial(k) * rgamma(alpha * k + beta)
    todo = ~zero

    near = todo & (az <= 1.0)
    if near.any():
        vals, ok = _series_vec(alpha, beta, z[near], k, tol)
        idx = np.nonzero(near)[0][ok]
        out[idx] = vals[ok]
        todo[idx] = False

    pole = np.abs(np.angle(z)) < alpha * np.pi
    if k > 0:
        # on the exponential sector the recursion handles the pole terms
        # through its base evaluations
        rec = todo & pole
        if rec.any():
            out[rec] = _recursion_deriv_vec(alpha, beta, z[rec], k, tol)
        todo &= ~pole
    attempt = np.nonzero(todo & (az >= _asymp_threshold(alpha, tol)))[0]
    if attempt.size:
        vals, err = _asymp_vec(alpha, beta, z[attempt], k, tol)
        good = err < 0.3 * tol
        out[attempt[good]] = vals[good]
        todo[attempt[good]] = False
    off = todo & ~pole
    if off.any():
        out[off] = _contour_offpole_vec(alpha, beta, z[off], k, tol)
    for i in np.nonzero(todo & pole)[0]:
        v = _contour_pole_scalar(alpha, beta, z[i], tol)
        out[i] = v.real if real else v
    return out


# kept for bench/tracer.py, which wraps this name
_ml_deriv_vec = _ml_vec


# ---------------------------------------------------------------------------
# public scalar API

def ml_eval(params: MLParams, z):
    """Evaluate E_{alpha,beta}(z) for a scalar or array argument.

    Real input is evaluated in real arithmetic and yields a real result;
    complex input yields complex.  Scalars in, scalar out.
    """
    return ml_deriv(params, z, 0)


def ml_deriv(params: MLParams, z, k: int):
    """Evaluate the k-th derivative of E_{alpha,beta} (0 <= k <= 64).

    Accepts scalars or arrays like ml_eval.
    """
    k = _integer(k, "derivative order", f"[0, {MAX_DERIV}]")
    if params.beta <= 0.0:
        raise ValidationError("beta must be positive for direct evaluation")
    za = np.asarray(z)
    if za.dtype.kind not in "iufc":
        raise ValidationError("argument must be a number or a numeric array")
    if not np.all(np.isfinite(za)):
        raise ValidationError("argument must be finite")
    v = _ml_deriv_vec(params.alpha, params.beta, za.reshape(-1), k,
                      params.accuracy_target).reshape(za.shape)
    if za.ndim == 0:
        return complex(v) if np.iscomplexobj(v) else float(v)
    return v


# ---------------------------------------------------------------------------
# matrix argument

def _detect_uniform_bidiagonal(A):
    """(a, b) when A = a I + b N with N the unit upper shift, else None.

    Entries are compared to 1e-14 of the largest entry of A, so the
    decision does not change when A is scaled.
    """
    p = A.shape[0]
    a = float(A[0, 0])
    b = float(A[0, 1]) if p > 1 else 0.0
    rest = A - a * np.eye(p) - b * np.eye(p, k=1)
    if not np.abs(rest).max() <= 1e-14 * np.abs(A).max():
        return None
    return a, b


def _eigenbasis(A):
    """(w, V, V^{-1}) with A = V diag(w) V^{-1}, or None when the
    eigenbasis is too ill-conditioned to use (cond(V) not finite or above
    1e8)."""
    w, V = np.linalg.eig(A)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > 1e8:
        return None
    return w, V, np.linalg.inv(V)


def _real_part(M):
    """The real part of a function M of a real matrix; raises
    EvaluationError when M's imaginary part exceeds 1e-10 of max|M| + 1."""
    if np.abs(M.imag).max() > 1e-10 * (np.abs(M).max() + 1.0):
        raise EvaluationError("imaginary residue exceeds 1e-10")
    return M.real


def _matrix_series_f64(alpha, beta, A):
    """(E_{alpha,beta}(A), error estimate) by the float64 power series."""
    p = A.shape[0]
    c = _series_coeffs(alpha, beta, 0, 32)
    out = c[0] * np.eye(p)
    P = np.eye(p)
    norm_sum = abs(c[0]) * 1.0
    for k in range(1, 2000):
        if k == c.size:
            c = _series_coeffs(alpha, beta, 0, 2 * k)
        P = P @ A
        term = c[k] * P
        out += term
        tn = np.abs(term).max()
        norm_sum += tn
        if tn < 1e-18 * (np.abs(out).max() + 1e-300) and k > 4:
            amp = norm_sum / (np.abs(out).max() + 1e-300)
            return out, amp * _EPS
    raise EvaluationError("matrix series did not converge")


def _matrix_series_mp(alpha, beta, A):
    """E_{alpha,beta}(A) by its power series, summed exactly in integers at
    the precision its cancellation calls for, found by a guess and a check.

    The guess is dps = 35 + 0.434 rho^(1/alpha) digits, rho the spectral
    radius of A: the digits the series loses when A is normal. The sum stops
    at k > 8 once max|t_k| < 1e-20 max|sum|, far below what a float64 result
    resolves. Then log10(sum_k max|t_k| / max|E|) gives the digits it did
    lose; when dps falls short of them plus 25, the sum runs again at 35
    digits past them. A precision above 350 digits is refused.

    The terms t_k = c_k A^k, c_k = 1/Gamma(alpha k + beta) from mpmath, are
    Python integers in the unit 2^-(prec + 64) c_0 (c_0 rounded up to a power
    of two) and t_k = (c_k / c_{k-1}) (t_{k-1} A): no power of A outgrows its
    term. A's entries, read exactly from their binary values as alpha and
    beta are, and the ratios are integers in the unit 2^-(prec + 64).
    Entries round by exact integer division.
    """
    import mpmath as mp
    p = A.shape[0]
    kmax = int(4 * float(np.linalg.norm(A, 1)) ** (1.0 / alpha) / alpha + 200)
    lost = 0.434 * float(np.abs(np.linalg.eigvals(A)).max()) ** (1.0 / alpha)
    while True:
        dps = int(35 + lost)
        if dps > 350:
            raise EvaluationError(
                "matrix series fallback infeasible at this norm")
        with mp.workdps(dps):
            G = mp.mp.prec + 64

            def fixed(v, bits=G):
                return int(mp.ldexp(v, bits))

            a, b = mp.mpf(float(alpha)), mp.mpf(float(beta))
            M = np.array([[fixed(mp.mpf(float(v))) for v in row]
                          for row in A], dtype=object)
            c = mp.rgamma(b)
            F = G - int(mp.frexp(c)[1])
            t = np.zeros((p, p), dtype=object)
            np.fill_diagonal(t, fixed(c, F))
            acc = t.copy()
            total = fixed(c, F)
            for k in range(1, kmax):
                ck = mp.rgamma(a * k + b)
                t = (t @ M) * fixed(ck / c) >> 2 * G
                c = ck
                acc += t
                top = np.abs(t).max()
                total += top
                # one unit as the floor: a zero sum stops once its terms are
                # zero
                if k > 8 and top * 10 ** 20 < np.abs(acc).max() + 1:
                    break
            else:
                raise EvaluationError("matrix series did not converge")
        lost = math.log10(total) - math.log10(max(np.abs(acc).max(), 1))
        if lost + 25 <= dps:
            return (acc / (1 << F)).astype(float)


def _components(A):
    """Connected components of the nonzero pattern of A (symmetrized), one
    sorted index array each, in order of their smallest index."""
    R = (A != 0.0) | (A != 0.0).T | np.eye(len(A), dtype=bool)
    # squaring a reflexive reachability matrix doubles the path length it
    # covers, so bit_length(p) squarings cover every path of p - 1 steps
    for _ in range(len(A).bit_length()):
        R = (R.astype(float) @ R) > 0.0
    first = R.argmax(axis=1)  # the smallest index in each row's component
    return [np.nonzero(first == k)[0] for k in np.unique(first)]


def ml_matrix(params: MLParams, A) -> np.ndarray:
    """Evaluate E_{alpha,beta}(A) for a square real matrix A.

    Dispatch: uniform upper-bidiagonal matrices use the Toeplitz form built
    from scalar derivatives; block-diagonal patterns split into components;
    otherwise a well-conditioned eigendecomposition; otherwise the power
    series: in float64 when it loses under six digits and its own error
    estimate is below a tenth of the accuracy target, else in integers
    (_matrix_series_mp). That sum starts at 35 + 0.434 rho(A)^(1/alpha)
    digits, rho the spectral radius, stops once its terms fall below 1e-20
    of the sum, and runs again at a higher precision when the cancellation
    it saw, sum_k max|t_k| / max|E|, needs one; above 350 digits it raises
    EvaluationError.
    """
    if params.beta <= 0.0:
        raise ValidationError("beta must be positive for direct evaluation")
    A = _array(A, "matrix argument", 2)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError("matrix argument must be square")
    p = A.shape[0]
    if p > MAX_DIM:
        raise ValidationError(f"matrix dimension exceeds {MAX_DIM}")
    alpha, beta, tol = params.alpha, params.beta, params.accuracy_target

    ab = _detect_uniform_bidiagonal(A)
    if ab is not None:
        # superdiagonal s carries b^s / s! E^{(s)}(a), each coefficient of
        # order s > 0 formed in log form with its sign carried, so a power
        # that overflows against a derivative that underflows gives their
        # finite product, not inf * 0
        a, b = ab
        out = np.zeros((p, p))
        with np.errstate(divide="ignore", over="ignore"):
            for s in range(p if b else 1):
                e = _ml_deriv_vec(alpha, beta, np.array([a]), s, tol)[0]
                if s:
                    mag = np.exp(s * np.log(abs(b)) - math.lgamma(s + 1.0)
                                 + np.log(abs(e)))
                    if np.isinf(mag):
                        raise EvaluationError(f"bidiagonal coefficient {s} "
                                              "exceeds the float range")
                    sign = -1.0 if b < 0 and s % 2 else 1.0
                    e = np.copysign(mag, e) * sign
                np.fill_diagonal(out[:, s:], e)
        return out

    comps = _components(A)
    if len(comps) > 1:
        # block-diagonal under a permutation: powers of A never couple the
        # components, so evaluate each diagonal block on its own
        out = np.zeros((p, p))
        for c in comps:
            ix = np.ix_(c, c)
            out[ix] = ml_matrix(params, A[ix])
        return out

    eb = _eigenbasis(A)
    if eb is not None:
        w, V, Vinv = eb
        return _real_part(V @ np.diag(_ml_vec(alpha, beta, w, 0, tol))
                          @ Vinv)

    # series fallback with adaptive precision
    theta = float(np.linalg.norm(A, 1))
    digits_lost = theta ** (1.0 / alpha) * 0.434
    if digits_lost < 6.0:
        out, errest = _matrix_series_f64(alpha, beta, A)
        if errest < 0.1 * tol:
            return out
    return _matrix_series_mp(alpha, beta, A)
