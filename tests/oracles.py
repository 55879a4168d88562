"""High-precision Mittag-Leffler references via mpmath.

Independent of the package under test: everything here is computed from the
defining power series or the algebraic asymptotic expansion, in adaptive
multi-precision arithmetic.  The frozen values in data/ml_reference.json were
produced by these routines; see regenerate() at the bottom.

Two branches:
  - power series at adaptive precision (feasible for |z|**(1/alpha) <~ 500)
  - asymptotic expansion at optimal truncation with a min-term error bound
Overlap zones allow the two branches to cross-validate each other.
"""
import math

import mpmath as mp


def _ml_series_mp(alpha, beta, z, k=0):
    a = mp.mpf(float(alpha))
    b = mp.mpf(float(beta))
    r = abs(mp.mpmathify(z))
    amp = float(r ** (1.0 / float(alpha))) if r > 0 else 1.0
    # cancellation in the alternating series loses ~amp/ln(10) digits
    need = int(30 + 0.5 * amp + 15 * (k + 1))
    with mp.workdps(need):
        zc = mp.mpmathify(z)
        s = mp.mpf(0)
        consec = 0
        j = 0
        while True:
            c = mp.ff(j + k, k)  # (j+k)!/j!
            t = c * zc ** j * mp.rgamma(a * (j + k) + b)
            s += t
            if abs(t) < mp.eps * (abs(s) + mp.mpf('1e-300')):
                consec += 1
                if consec >= 8:
                    break
            else:
                consec = 0
            j += 1
            if j > 3000000:
                raise RuntimeError("series did not converge")
        return complex(s)


def _asymp_terms_mp(alpha, beta, z, k, dps):
    """Algebraic asymptotic terms summed to just past the optimal index.

    Term n (n>=1): d^k/dz^k [ -z^{-n} / Gamma(beta - alpha n) ].
    Terms sitting on a reciprocal-gamma pole dip toward zero; they stay in the
    sum but are excluded from the truncation bookkeeping.  Returns the partial
    sum and the magnitude of the smallest contributing term.
    """
    a = mp.mpf(float(alpha))
    b = mp.mpf(float(beta))
    with mp.workdps(dps):
        zc = mp.mpmathify(z)
        terms = []
        kept = []  # (index, magnitude) of terms that steer truncation
        grow = 0
        n = 1
        run = mp.mpf(0)
        while True:
            g = b - a * n
            c = mp.rf(n, k) * (-1) ** k if k else mp.mpf(1)
            t = -c * zc ** (-n - k) * mp.rgamma(g)
            terms.append(t)
            run += t
            dip = (g <= 0.5 and abs(g - mp.nint(g)) < mp.mpf('1e-8'))
            at = abs(t)
            if not dip and at > 0:
                if kept and at > kept[-1][1]:
                    grow += 1
                    if grow >= 3:
                        kept.append((n - 1, at))
                        break
                else:
                    grow = 0
                kept.append((n - 1, at))
                if at < mp.mpf(10) ** (-dps - 10) * (abs(run) + mp.mpf('1e-300')):
                    break
            n += 1
            if n > 200000:
                break
        if not kept:
            return mp.mpf(0), mp.inf
        imin, mmin = min(kept, key=lambda p: p[1])
        ssum = mp.fsum(terms[:imin + 1])
        return ssum, mmin


def _ml_asymp_mp(alpha, beta, z, k=0, dps=60):
    """Asymptotic value with a relative error estimate (min-term heuristic)."""
    a = mp.mpf(float(alpha))
    b = mp.mpf(float(beta))
    with mp.workdps(dps):
        zc = mp.mpmathify(z)
        s, mmin = _asymp_terms_mp(alpha, beta, z, k, dps)
        th = mp.arg(zc)
        if abs(th) < a * mp.pi:
            if k != 0:
                raise NotImplementedError("exp-sector derivative not in oracle")
            w = zc ** (1 / a)
            s += (1 / a) * w ** (1 - b) * mp.exp(w)
        err = float(mmin / (abs(s) + mp.mpf('1e-300')))
        return complex(s), err


def ml_ref(alpha, beta, z, k=0, certify=1e-25):
    """Best-available high-precision E^{(k)}_{alpha,beta}(z)."""
    r = abs(complex(z))
    amp = r ** (1.0 / float(alpha)) if r > 0 else 0.0
    if amp <= 500.0:
        return _ml_series_mp(alpha, beta, z, k)
    v, err = _ml_asymp_mp(alpha, beta, z, k)
    if err < certify:
        return v
    raise ValueError("oracle cannot certify this argument")


def ml_ref_real(alpha, beta, x, k=0):
    return ml_ref(alpha, beta, x, k).real


def ml_matrix_shifted_nilpotent(alpha, beta, a, N):
    """E_{alpha,beta}(a I + N) for a real a and a nilpotent numpy array N,
    from the identity E(a I + N) = sum_s N^s / s! E^(s)(a)."""
    import numpy as np

    out, Ns = np.zeros_like(N), np.eye(len(N))
    for s in range(len(N)):
        out = out + Ns * (ml_ref_real(alpha, beta, a, s) / math.factorial(s))
        Ns = Ns @ N
    return out


def erlang_sf_ref(alpha, shapes, u):
    """Survivals sum_{s<p} u^s/s! E^(s)_{alpha,1}(-u) of Erlang(p) blocks
    of an MML law, one per p in shapes, their terms from ml_ref; every term
    is positive."""
    terms = [mp.mpf(u) ** s / mp.factorial(s)
             * mp.mpf(ml_ref_real(alpha, 1.0, -u, s))
             for s in range(max(shapes))]
    return [float(mp.fsum(terms[:p])) for p in shapes]


def erlang_cdf_series(alpha, p, u):
    """1 minus erlang_sf_ref, for 0 <= u <= 1, from its own power series
    sum_{j>=p} (-1)^(j-p) C(j-1, p-1) u^j / Gamma(alpha j + 1), with the
    binary alpha and u taken exactly, summed at 50 digits until a term is
    below 1e-40 of the sum."""
    with mp.workdps(50):
        a, x, acc, j = mp.mpf(float(alpha)), mp.mpf(float(u)), mp.mpf(0), p
        while True:
            term = ((-1) ** (j - p) * mp.binomial(j - 1, p - 1) * x ** j
                    * mp.rgamma(a * j + 1))
            acc += term
            if abs(term) <= mp.mpf("1e-40") * abs(acc):
                return float(acc)
            j += 1


def ml_matrix_series(alpha, beta, A, dps):
    """E_{alpha,beta}(A) for a square numpy array A from its power series in
    mpmath matrices at dps digits, with A's binary entries taken exactly;
    summed until a term's 1-norm is below 10^-dps of the sum's."""
    import numpy as np

    p = len(A)
    with mp.workdps(dps):
        M = mp.matrix([[mp.mpf(float(v)) for v in row] for row in A])
        a, b = mp.mpf(float(alpha)), mp.mpf(float(beta))
        acc, P, k = mp.eye(p) * mp.rgamma(b), mp.eye(p), 0
        while True:
            k += 1
            P = P * M
            term = P * mp.rgamma(a * k + b)
            acc += term
            if k > 8 and mp.mnorm(term, 1) < mp.mpf(10) ** -dps * mp.mnorm(
                    acc, 1):
                return np.array([[float(acc[i, j]) for j in range(p)]
                                 for i in range(p)])


def regenerate(path):
    """Recompute every frozen reference value in place (slow; minutes of CPU).

    Reads the key set of the existing table at `path` (keys encode
    alpha|beta|Re z|Im z|k), re-derives each value from scratch, and rewrites
    the file.  Useful for auditing the frozen table after oracle changes.
    """
    import json

    with open(path) as fh:
        cache = json.load(fh)
    fresh = {}
    for key in cache:
        a_s, b_s, zr_s, zi_s, k_s = key.split("|")
        z = complex(float(zr_s), float(zi_s))
        v = ml_ref(float(a_s), float(b_s), z, int(k_s))
        fresh[key] = [v.real, v.imag]
    with open(path, "w") as fh:
        json.dump(fresh, fh)
    return len(fresh)
