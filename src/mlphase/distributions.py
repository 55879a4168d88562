"""Matrix Mittag-Leffler distributions and their power transforms.

An MML law is the absorption-time distribution with density
x^{alpha-1} pi E_{alpha,alpha}(T x^alpha) t and survival
pi E_{alpha,1}(T x^alpha) 1.  The power transform X^{1/nu} has density
nu x^{nu*alpha-1} pi E_{alpha,alpha}(T x^{nu*alpha}) t; its survival
function is regularly varying with index alpha*nu.

Evaluation dispatches on the structure tag of the phase-type component:

* Erlang(p, lam): single derivative term
  lam^p x^{alpha p - 1}/(p-1)! E^{(p-1)}_{alpha,alpha}(-lam x^alpha),
  survival sum_{s<p} (lam x^alpha)^s/s! E^{(s)}_{alpha,1}(-lam x^alpha);
  every term is positive, so log forms are exact.
* mixture of Erlangs: weighted combination of the block forms.
* Coxian with well-separated rates: partial fractions over the rates
  (the telescoping Laplace transform of the sequential chain).
* anything else: spectral decomposition of T when the eigenbasis is
  well conditioned, otherwise the matrix-function evaluator per point.

Survival values are always produced by the direct E_{alpha,1} form, never
by 1-CDF, so log-survival stays meaningful in the far tail.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp, rgamma
from scipy.special import gamma as sc_gamma

from .errors import ValidationError
from .mlfun import MLParams, _eigenbasis, _ml_deriv_vec, _ml_vec, ml_matrix
from .phasetype import (
    COXIAN,
    ERLANG,
    GENERAL,
    MIXTURE_ERLANG,
    PHGenerator,
    _neg_T_power,
    ph_from_doc,
)

_TOL = 1e-12
_BIG = 1e300


@dataclass(frozen=True)
class MMLDist:
    """Matrix Mittag-Leffler law MML(alpha, pi, T)."""

    alpha: float
    ph: PHGenerator

    def __post_init__(self):
        a = float(self.alpha)
        if not (np.isfinite(a) and 0.0 < a <= 1.0):
            raise ValidationError("alpha must lie in (0, 1]")
        object.__setattr__(self, "alpha", a)
        if not isinstance(self.ph, PHGenerator):
            raise ValidationError("ph must be a PHGenerator")

    @property
    def tail_index(self) -> float:
        return self.alpha


@dataclass(frozen=True)
class PMMLDist:
    """Power transform X^{1/nu} of an MML variable X."""

    base: MMLDist
    nu: float

    def __post_init__(self):
        v = float(self.nu)
        if not (np.isfinite(v) and v > 0.0):
            raise ValidationError("nu must be positive")
        object.__setattr__(self, "nu", v)
        if not isinstance(self.base, MMLDist):
            raise ValidationError("base must be an MMLDist")

    @property
    def alpha(self) -> float:
        return self.base.alpha

    @property
    def ph(self) -> PHGenerator:
        return self.base.ph

    @property
    def tail_index(self) -> float:
        return self.base.alpha * self.nu


def _unpack(d):
    """(alpha, ph, nu) for either distribution type."""
    if isinstance(d, MMLDist):
        return d.alpha, d.ph, 1.0
    if isinstance(d, PMMLDist):
        return d.base.alpha, d.base.ph, d.nu
    raise ValidationError("expected an MMLDist or PMMLDist")


def tail_index(d) -> float:
    """Regular-variation index of the survival function: alpha * nu."""
    alpha, _, nu = _unpack(d)
    return alpha * nu


# ---------------------------------------------------------------------------
# argument handling

def _check_x(x, allow_zero):
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xs = np.atleast_1d(x).astype(float)
    if not np.all(np.isfinite(xs)):
        raise ValidationError("argument must be finite")
    if allow_zero:
        if np.any(xs < 0):
            raise ValidationError("argument must be nonnegative")
    else:
        if np.any(xs <= 0):
            raise ValidationError("argument must be positive")
    return xs, scalar


def _power_arg(x, expo, scale=1.0):
    """scale * x**expo with overflow saturated at a huge finite value."""
    with np.errstate(over="ignore"):
        w = scale * x ** expo
    return np.where(np.isfinite(w), w, _BIG)


def _ret(vals, scalar):
    return float(vals[0]) if scalar else vals


# ---------------------------------------------------------------------------
# structured log-density / log-survival cores
#
# every core takes the positive argument grid x and the effective power
# c = nu * alpha applied to x inside E, and returns log f (density cores
# include the nu x^{nu alpha - 1} prefactor) or log S.

def _erlang_logpdf(alpha, p, rates, nu, x, tol):
    """Erlang(p, lam) log-densities, one row per lam in rates, from one
    scalar-ML call over every rate."""
    c = nu * alpha
    w = np.concatenate([_power_arg(x, c, lam) for lam in rates])
    ds = _ml_deriv_vec(alpha, alpha, -w.astype(complex), p - 1, tol).real
    ds = np.maximum(ds, 0.0).reshape(len(rates), len(x))
    with np.errstate(divide="ignore"):
        logx = (c * p - 1.0) * np.log(x)
        return np.array([math.log(nu) + p * math.log(lam) - gammaln(p)
                         + logx + np.log(d) for lam, d in zip(rates, ds)])


def _erlang_logsf(alpha, shapes, rates, nu, x, tol):
    """Erlang(p, lam) log-survivals, one row per (p, lam) block, from one
    scalar-ML call per order s over every block with p > s."""
    c = nu * alpha
    w = [_power_arg(x, c, lam) for lam in rates]
    terms = [np.empty((p, len(x))) for p in shapes]
    with np.errstate(divide="ignore"):
        logw = [np.log(wi) for wi in w]
        for s in range(max(shapes)):
            blocks = [i for i, p in enumerate(shapes) if p > s]
            arg = -np.concatenate([w[i] for i in blocks]).astype(complex)
            es = _ml_deriv_vec(alpha, 1.0, arg, s, tol).real
            es = np.maximum(es, 0.0).reshape(len(blocks), len(x))
            for i, e in zip(blocks, es):
                if s == 0:
                    terms[i][s] = np.log(e)
                else:
                    terms[i][s] = s * logw[i] - gammaln(s + 1.0) + np.log(e)
    return np.array([logsumexp(t, axis=0) for t in terms])


def _mixture_logpdf(alpha, weights, shapes, rates, nu, x, tol):
    shapes = [int(p) for p in shapes]
    rates = [float(lam) for lam in rates]
    comp = np.empty((len(weights), len(x)))
    for p in sorted(set(shapes)):
        blocks = [i for i, q in enumerate(shapes) if q == p]
        comp[blocks] = _erlang_logpdf(alpha, p, [rates[i] for i in blocks],
                                      nu, x, tol)
    return logsumexp(comp, axis=0, b=np.asarray(weights)[:, None])


def _mixture_logsf(alpha, weights, shapes, rates, nu, x, tol):
    comp = _erlang_logsf(alpha, [int(p) for p in shapes],
                         [float(lam) for lam in rates], nu, x, tol)
    return logsumexp(comp, axis=0, b=np.asarray(weights)[:, None])


def _coxian_ok(rates):
    lam = np.asarray(rates, dtype=float)
    if len(lam) == 1:
        return True
    gap = np.abs(lam[:, None] - lam[None, :])[~np.eye(len(lam), dtype=bool)]
    return gap.min() > 1e-6 * lam.max()


def _coxian_coeffs(pi, rates):
    """Collapsed partial-fraction weights over the rates.

    Density: f(x) = x^{a-1} sum_m A_m E_{alpha,alpha}(-lam_m x^a) with
    A_m = sum_j pi_j prod_{k=j..p} lam_k / prod_{n=j..p, n != m}(lam_n-lam_m);
    survival uses D_m = sum_j pi_j prod_{k=j..p, k != m} lam_k/(lam_k-lam_m).
    """
    lam = np.asarray(rates, dtype=float)
    p = len(lam)
    A = np.zeros(p)
    D = np.zeros(p)
    for j in range(p):
        if pi[j] == 0.0:
            continue
        seg = lam[j:]
        for m_loc, lm in enumerate(seg):
            others = np.delete(seg, m_loc)
            denom = np.prod(others - lm)
            if denom == 0.0:
                raise ValidationError("Coxian rates must be distinct")
            A[j + m_loc] += pi[j] * np.prod(seg) / denom
            D[j + m_loc] += pi[j] * np.prod(others) / denom
    return A, D


def _coxian_sum(alpha, beta, coef, rates, c, x, tol):
    """sum_m coef_m E_{alpha,beta}(-lam_m x^c) over the nonzero coef_m, in
    rate order, from one scalar-ML call over those rates."""
    lam = np.asarray(rates, dtype=float)
    used = np.nonzero(coef)[0]
    w = np.concatenate([_power_arg(x, c, lam[m]) for m in used])
    vals = _ml_vec(alpha, beta, -w.astype(complex), 0, tol).real
    acc = np.zeros(len(x))
    for m, v in zip(used, vals.reshape(len(used), len(x))):
        acc += coef[m] * v
    return acc


def _coxian_logpdf(alpha, pi, rates, nu, x, tol):
    c = nu * alpha
    A, _ = _coxian_coeffs(pi, rates)
    acc = np.maximum(_coxian_sum(alpha, alpha, A, rates, c, x, tol), 0.0)
    with np.errstate(divide="ignore"):
        return math.log(nu) + (c - 1.0) * np.log(x) + np.log(acc)


def _coxian_logsf(alpha, pi, rates, nu, x, tol):
    c = nu * alpha
    _, D = _coxian_coeffs(pi, rates)
    acc = np.clip(_coxian_sum(alpha, 1.0, D, rates, c, x, tol), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        return np.log(acc)


def _spectral_weights(ph):
    """(eigenvalues, pdf weights, survival weights) or None."""
    eb = _eigenbasis(ph.T)
    if eb is None:
        return None
    w, V, Vinv = eb
    left = ph.pi @ V
    a = left * (Vinv @ ph.exit_vector)
    b = left * (Vinv @ np.ones(ph.dim))
    return w.astype(complex), a.astype(complex), b.astype(complex)


def _general_logpdf(alpha, ph, nu, x, tol):
    c = nu * alpha
    spec = _spectral_weights(ph)
    w = _power_arg(x, c)
    if spec is not None:
        eig, a, _ = spec
        args = (eig[None, :] * w[:, None]).reshape(-1)
        vals = _ml_vec(alpha, alpha, args, 0, tol).reshape(len(x), -1)
        dens = (vals @ a).real
    else:
        params = MLParams(alpha=alpha, beta=alpha, accuracy_target=tol)
        t = ph.exit_vector
        dens = np.array([float(ph.pi @ ml_matrix(params, ph.T * wi) @ t)
                         for wi in w])
    dens = np.maximum(dens, 0.0)
    with np.errstate(divide="ignore"):
        return math.log(nu) + (c - 1.0) * np.log(x) + np.log(dens)


def _general_logsf(alpha, ph, nu, x, tol):
    c = nu * alpha
    spec = _spectral_weights(ph)
    w = _power_arg(x, c)
    if spec is not None:
        eig, _, b = spec
        args = (eig[None, :] * w[:, None]).reshape(-1)
        vals = _ml_vec(alpha, 1.0, args, 0, tol).reshape(len(x), -1)
        sf = (vals @ b).real
    else:
        params = MLParams(alpha=alpha, beta=1.0, accuracy_target=tol)
        ones = np.ones(ph.dim)
        sf = np.array([float(ph.pi @ ml_matrix(params, ph.T * wi) @ ones)
                       for wi in w])
    sf = np.clip(sf, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        return np.log(sf)


def _dispatch_logpdf(alpha, ph, nu, x, tol):
    s = ph.structure
    if s == ERLANG:
        return _erlang_logpdf(alpha, ph.params["shape"], [ph.params["rate"]],
                              nu, x, tol)[0]
    if s == MIXTURE_ERLANG:
        return _mixture_logpdf(alpha, ph.params["weights"],
                               ph.params["shapes"], ph.params["rates"],
                               nu, x, tol)
    if s == COXIAN and _coxian_ok(ph.params["rates"]):
        return _coxian_logpdf(alpha, ph.pi, ph.params["rates"], nu, x, tol)
    return _general_logpdf(alpha, ph, nu, x, tol)


def _dispatch_logsf(alpha, ph, nu, x, tol):
    s = ph.structure
    if s == ERLANG:
        return _erlang_logsf(alpha, [ph.params["shape"]], [ph.params["rate"]],
                             nu, x, tol)[0]
    if s == MIXTURE_ERLANG:
        return _mixture_logsf(alpha, ph.params["weights"],
                              ph.params["shapes"], ph.params["rates"],
                              nu, x, tol)
    if s == COXIAN and _coxian_ok(ph.params["rates"]):
        return _coxian_logsf(alpha, ph.pi, ph.params["rates"], nu, x, tol)
    return _general_logsf(alpha, ph, nu, x, tol)


# ---------------------------------------------------------------------------
# public MML / PMML surface (nu = 1 for an MMLDist)

def mml_pdf(d: MMLDist | PMMLDist, x):
    """Density nu x^{nu alpha - 1} pi E_{alpha,alpha}(T x^{nu alpha}) t
    for x > 0."""
    alpha, ph, nu = _unpack(d)
    xs, scalar = _check_x(x, allow_zero=False)
    out = np.exp(_dispatch_logpdf(alpha, ph, nu, xs, _TOL))
    return _ret(out, scalar)


def mml_logpdf(d: MMLDist | PMMLDist, x):
    """log of mml_pdf, computed without underflow for extreme x."""
    alpha, ph, nu = _unpack(d)
    xs, scalar = _check_x(x, allow_zero=False)
    out = _dispatch_logpdf(alpha, ph, nu, xs, _TOL)
    return _ret(out, scalar)


def mml_sf(d: MMLDist | PMMLDist, x):
    """Survival pi E_{alpha,1}(T x^{nu alpha}) 1, evaluated directly."""
    alpha, ph, nu = _unpack(d)
    xs, scalar = _check_x(x, allow_zero=True)
    out = np.ones_like(xs)
    pos = xs > 0
    if pos.any():
        out[pos] = np.exp(_dispatch_logsf(alpha, ph, nu, xs[pos], _TOL))
    return _ret(out, scalar)


def mml_logsf(d: MMLDist | PMMLDist, x):
    """log survival function, exact deep into the tail."""
    alpha, ph, nu = _unpack(d)
    xs, scalar = _check_x(x, allow_zero=True)
    out = np.zeros_like(xs)
    pos = xs > 0
    if pos.any():
        out[pos] = _dispatch_logsf(alpha, ph, nu, xs[pos], _TOL)
    return _ret(out, scalar)


def mml_cdf(d: MMLDist | PMMLDist, x):
    """Distribution function 1 - pi E_{alpha,1}(T x^{nu alpha}) 1 for
    x >= 0."""
    alpha, ph, nu = _unpack(d)
    xs, scalar = _check_x(x, allow_zero=True)
    out = np.zeros_like(xs)
    pos = xs > 0
    if pos.any():
        sf = np.exp(_dispatch_logsf(alpha, ph, nu, xs[pos], _TOL))
        out[pos] = np.clip(1.0 - sf, 0.0, 1.0)
    return _ret(out, scalar)


def mml_laplace(d: MMLDist, u):
    """Laplace transform pi (u^alpha I - T)^{-1} t for u >= 0."""
    alpha, ph, nu = _unpack(d)
    if nu != 1.0:
        raise ValidationError(
            "Laplace transform is only available for the untransformed law")
    us, scalar = _check_x(u, allow_zero=True)
    t = ph.exit_vector
    eye = np.eye(ph.dim)
    out = np.empty_like(us)
    for i, ui in enumerate(us):
        out[i] = float(ph.pi @ np.linalg.solve(ui ** alpha * eye - ph.T, t))
    return _ret(out, scalar)


def mml_frac_moment(d: MMLDist, rho: float) -> float:
    """Fractional moment E[X^rho] for 0 < rho < alpha.

    Gamma(1-rho/alpha) Gamma(1+rho/alpha) pi (-T)^{-rho/alpha} 1
    / Gamma(1-rho); the moment is infinite at rho >= alpha.
    """
    alpha, ph, nu = _unpack(d)
    if nu != 1.0:
        raise ValidationError(
            "fractional moments are only available for the untransformed law")
    rho = float(rho)
    if not (0.0 < rho < alpha):
        raise ValidationError("moment order must lie in (0, alpha)")
    r = rho / alpha
    ones = np.ones(ph.dim)
    ph_part = float(ph.pi @ _neg_T_power(ph, r) @ ones)
    return (sc_gamma(1.0 - r) * sc_gamma(1.0 + r) / sc_gamma(1.0 - rho)
            * ph_part)


# the PMML surface is the MML one: _unpack serves both laws
pmml_pdf = mml_pdf
pmml_logpdf = mml_logpdf
pmml_sf = mml_sf
pmml_logsf = mml_logsf
pmml_cdf = mml_cdf


# ---------------------------------------------------------------------------
# serialization

def dist_to_doc(d) -> dict:
    alpha, ph, nu = _unpack(d)
    return {
        "alpha": alpha,
        "nu": nu,
        "ph": json.loads(ph.to_json()),
    }


def dist_to_json(d) -> str:
    """Serialize as {"alpha": ..., "nu": ..., "ph": {...}}."""
    return json.dumps(dist_to_doc(d), indent=2)


def dist_from_doc(doc: dict):
    if not isinstance(doc, dict):
        raise ValidationError("distribution document must be a JSON object")
    for key in ("alpha", "ph"):
        if key not in doc:
            raise ValidationError(f"distribution document missing {key!r}")
    try:
        alpha = float(doc["alpha"])
        nu = float(doc.get("nu", 1.0))
    except (TypeError, ValueError):
        raise ValidationError("alpha and nu must be numbers") from None
    base = MMLDist(alpha=alpha, ph=ph_from_doc(doc["ph"]))
    if nu == 1.0:
        return base
    return PMMLDist(base=base, nu=nu)


def dist_from_json(text: str):
    """Inverse of dist_to_json; nu = 1 yields a plain MMLDist."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"invalid JSON: {e}") from None
    return dist_from_doc(doc)
