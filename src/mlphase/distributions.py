"""Matrix Mittag-Leffler distributions and their power transforms.

An MML law is the absorption-time distribution with density
x^{alpha-1} pi E_{alpha,alpha}(T x^alpha) t and survival
pi E_{alpha,1}(T x^alpha) 1.  The power transform X^{1/nu} has density
nu x^{nu*alpha-1} pi E_{alpha,alpha}(T x^{nu*alpha}) t; its survival
function is regularly varying with index alpha*nu.

The law depends only on (pi, T), so evaluation is chosen from the
connected blocks of T, never from the structure tag:

* every uniform bidiagonal block is a mixture of Erlangs, and all of them
  go through one mixture form, each Erlang(p, lam) component a single
  derivative term
  lam^p x^{alpha p - 1}/(p-1)! E^{(p-1)}_{alpha,alpha}(-lam x^alpha),
  survival sum_{s<p} (lam x^alpha)^s/s! E^{(s)}_{alpha,1}(-lam x^alpha);
  every term is positive, so log forms are exact.
* every other block goes through one general form pi E_{alpha,beta}(T w) v,
  batched over the grid through the eigenbasis of the block; only a block
  without a usable eigenbasis calls the matrix-function evaluator per
  point.

The two parts are joined in log space.

Survival values are always produced by the direct E_{alpha,1} form, never
by 1-CDF, so log-survival stays meaningful in the far tail.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln
from scipy.special import gamma as sc_gamma

from .errors import ValidationError, _document, _json, _number
from .mlfun import (
    MLParams,
    _contour_sum,
    _eigenbasis,
    _ml_deriv_vec,
    _ml_vec,
    _offpole_nodes,
    ml_matrix,
)
from .phasetype import (
    PHGenerator,
    _check_arg,
    _neg_T_power,
    ph_from_doc,
    ph_laplace,
)

_TOL = 1e-12
_BIG = 1e300
# relative distance within which the score block's own E^{(p-1)} must meet
# the certified kernel's for its sums at that point to be used
_BLOCK_CHECK = 1e-9
# points per slice of the score block: its two complex (points, nodes)
# temporaries stay near 0.3 MB however many points a likelihood has
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class MMLDist:
    """Matrix Mittag-Leffler law MML(alpha, pi, T)."""

    alpha: float
    ph: PHGenerator

    def __post_init__(self):
        object.__setattr__(self, "alpha",
                           _number(self.alpha, "alpha", "(0, 1]"))
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
        object.__setattr__(self, "nu", _number(self.nu, "nu", "(0, inf)"))
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

def _power_arg(x, expo, scale=1.0):
    """scale * x**expo with overflow saturated at a huge finite value."""
    with np.errstate(over="ignore"):
        w = scale * x ** expo
    return np.where(np.isfinite(w), w, _BIG)


def _ret(vals, scalar):
    return float(vals[0]) if scalar else vals


def _logsumexp(a, b=None):
    """log sum_i b_i exp(a_i) down the columns of a, with b >= 0 one weight
    per row (shape (rows, 1)) or all ones, as scipy.special.logsumexp forms
    it: the largest term is split out, log1p(rest / lead) + log lead + max.
    A column without a positive term gives -inf, without a warning."""
    if b is not None:
        a = np.where(b > 0.0, a, -np.inf)
    cols = np.arange(a.shape[1])
    top = a.argmax(axis=0)
    big = a[top, cols]
    with np.errstate(invalid="ignore"):  # -inf - -inf in an empty column
        e = np.exp(a - big)
    lead = 1.0 if b is None else b[top, 0]
    if b is not None:
        e *= b
    e[top, cols] = 0.0
    out = np.log1p(e.sum(axis=0) / lead) + np.log(lead) + big
    return np.where(big == -np.inf, -np.inf, out)


# ---------------------------------------------------------------------------
# structured log-density / log-survival cores
#
# every core takes the positive argument grid x and the effective power
# c = nu * alpha applied to x inside E, and returns log f (density cores
# include the nu x^{nu alpha - 1} prefactor) or log S.

def _score_block(alpha, p, u, nlogx, ds, tol):
    """(E^{(p)}, a) at the arguments u > 0, E = E_{alpha,alpha}, given
    ds = E^{(p-1)}(-u) from the certified kernel and nlogx = nu log x.

    a = d log h_p / d alpha for h_p(u) = u^p E^{(p-1)}(-u) / (p-1)!, with
    u = lam x^{nu alpha}. Both come from one contour block over the folded
    off-pole nodes s_j (weights w_j) of order p, a _contour_sum at z = -u
    _BLOCK_ROWS points at a time: h_p(u) = sum_j w_j q_j^p
    with q_j = u r_j, r_j = 1/(s_j^alpha + u), and
    dq/dalpha = q (1 - q) (nu log x - log s). From R = r^(p+1), one product
    gives
    E^{(p)} = p! sum_j w_j R_j,
    u^-p dh_p/dalpha = p sum_j w_j s_j^alpha R_j (nu log x - log s_j), and
    the block's own E^{(p-1)} = (p-1)! sum_j w_j R_j (s_j^alpha + u).
    Where that last one misses ds by more than _BLOCK_CHECK relative,
    E^{(p)} comes from the certified kernel and a is nan. At alpha = 1 the
    kernel is the exponential, exact, whose decay the block cannot resolve,
    so every point takes that path.
    """
    fact = math.factorial(p - 1)
    ok = np.zeros(u.shape, dtype=bool)
    dn = np.empty_like(u)
    da = np.full_like(u, np.nan)
    if alpha < 1.0:
        s, ws = _offpole_nodes(alpha, alpha, tol, p, real=True)
        sa = s ** alpha
        W = np.column_stack((ws, ws * sa, ws * sa * np.log(s)))
        one, pw, dl = _contour_sum(sa, W, -u, p, _BLOCK_ROWS).real.T
        ok = np.abs(fact * (pw + u * one) - ds) < _BLOCK_CHECK * ds
        dn = p * fact * one
        with np.errstate(divide="ignore", invalid="ignore"):
            da = np.where(ok, p * fact * (nlogx * pw - dl) / ds, np.nan)
    if not ok.all():
        dn[~ok] = _ml_deriv_vec(alpha, alpha, -u[~ok], p, tol)
    return dn, da


def _erlang_logpdf(alpha, shapes, rates, nu, x, tol, score=False):
    """Erlang(p, lam) log-densities, one row per (p, lam) component, from
    one scalar-ML call per shape p over every component of that shape.

    f = (nu/x) h_p(u) with u = lam x^{nu alpha} and
    h_p(u) = u^p E^{(p-1)}(-u) / (p-1)!, E = E_{alpha,alpha}. With score,
    (log f, D, a): also the rows D = d log f / d log lam
    = p - u E^{(p)}(-u) / E^{(p-1)}(-u) (from u h_p'(u) = p (h_p - h_{p+1}))
    and a = d log f / d alpha at fixed lam and nu, both from one
    _score_block per shape. Then d log f / d log nu = 1 + nu alpha log(x) D.
    """
    c = nu * alpha
    logf = np.empty((len(rates), len(x)))
    scores, alphas = np.empty_like(logf), np.empty_like(logf)
    for p in sorted(set(shapes)):
        blocks = [i for i, q in enumerate(shapes) if q == p]
        w = np.concatenate([_power_arg(x, c, rates[i]) for i in blocks])
        ds = _ml_deriv_vec(alpha, alpha, -w, p - 1, tol)
        ds = np.maximum(ds, 0.0).reshape(len(blocks), len(x))
        with np.errstate(divide="ignore"):
            logx = (c * p - 1.0) * np.log(x)
            logf[blocks] = [math.log(nu) + p * math.log(rates[i]) - gammaln(p)
                            + logx + np.log(d) for i, d in zip(blocks, ds)]
        if not score:
            continue
        flat = ds.reshape(-1)
        nlogx = np.tile(nu * np.log(x), len(blocks))
        dn, da = _score_block(alpha, p, w, nlogx, flat, tol)
        with np.errstate(divide="ignore", invalid="ignore"):
            scores[blocks] = p - (w * dn / flat).reshape(ds.shape)
        alphas[blocks] = da.reshape(ds.shape)
    return (logf, scores, alphas) if score else logf


def _erlang_logsf(alpha, shapes, rates, nu, x, tol):
    """Erlang(p, lam) log-survivals, one row per (p, lam) component, from
    one scalar-ML call per order s over every component with p > s."""
    c = nu * alpha
    w = [_power_arg(x, c, lam) for lam in rates]
    terms = [np.empty((p, len(x))) for p in shapes]
    with np.errstate(divide="ignore"):
        logw = [np.log(wi) for wi in w]
        for s in range(max(shapes)):
            blocks = [i for i, p in enumerate(shapes) if p > s]
            arg = -np.concatenate([w[i] for i in blocks])
            es = _ml_deriv_vec(alpha, 1.0, arg, s, tol)
            es = np.maximum(es, 0.0).reshape(len(blocks), len(x))
            for i, e in zip(blocks, es):
                if s == 0:
                    terms[i][s] = np.log(e)
                else:
                    terms[i][s] = s * logw[i] - gammaln(s + 1.0) + np.log(e)
    return np.array([_logsumexp(t) for t in terms])


def _logpdf_partials(d, x):
    """(log f, rows, a) for a law whose T splits into Erlang components
    alone (PHGenerator._blocks), at x > 0; None for any other T.

    log f is mml_logpdf's, bit for bit. The rows are its partials at fixed
    alpha, per point: d/d log lam_i = r_i D_i for each component i of the
    split, then d/d log w_i = r_i with the weights taken as free, then
    d/d log nu = 1 + nu alpha log x sum_i r_i D_i, with D_i from
    _erlang_logpdf and the responsibility r_i = w_i f_i / f.
    a = sum_i r_i a_i is d log f / d alpha per point, nan at a point where
    a component with r_i > 0 has no certified a_i.
    """
    alpha, ph, nu = _unpack(d)
    weights, shapes, rates, rest = ph._blocks
    if rest:
        return None
    comp, scores, alphas = _erlang_logpdf(alpha, shapes, rates, nu, x, _TOL,
                                          score=True)
    w = np.asarray(weights)[:, None]
    logf = _logsumexp(comp, w)
    # f = 0 leaves r undefined; a component whose density underflowed has
    # r = 0 and no finite score
    with np.errstate(invalid="ignore"):
        r = w * np.exp(comp - logf)
        live = r > 0.0
        rd = np.where(live, r * scores, 0.0)
        ra = np.where(live, r * alphas, 0.0).sum(0)
    return (logf, np.vstack([rd, r, 1.0 + nu * alpha * np.log(x) * rd.sum(0)]),
            ra)


# only bench/tracer.py reads this: it classes the spans of a tagged Coxian
# whose rates pass it as "coxian"
def _coxian_ok(rates):
    lam = np.asarray(rates, dtype=float)
    if len(lam) == 1:
        return True
    gap = np.abs(lam[:, None] - lam[None, :])[~np.eye(len(lam), dtype=bool)]
    return gap.min() > 1e-6 * lam.max()


def _general_form(alpha, beta, ph, comps, vec, w, tol):
    """sum over the blocks c in comps of pi_c E_{alpha,beta}(T_c w_i) vec_c,
    for each w_i > 0.

    T w has the eigenbasis of T for every w > 0, so the eigenbasis is taken
    once per block and batched over w: one scalar-ML call over eigenvalues
    x w. Only a block without a usable eigenbasis (a defective generator)
    calls ml_matrix per point.
    """
    out = np.zeros(len(w))
    for c in comps:
        left, right, Tc = ph.pi[c], vec[c], ph.T[np.ix_(c, c)]
        eb = _eigenbasis(Tc)
        if eb is not None:
            eig, V, Vinv = eb
            # real when T_c has a real spectrum, so the scalar-ML call
            # stays real too
            coef = (left @ V) * (Vinv @ right)
            args = (eig[None, :] * w[:, None]).reshape(-1)
            vals = _ml_vec(alpha, beta, args, 0, tol).reshape(len(w), -1)
            out += (vals @ coef).real
            continue
        params = MLParams(alpha=alpha, beta=beta, accuracy_target=tol)
        out += [left @ ml_matrix(params, Tc * wi) @ right for wi in w]
    return out


def _dispatch_logpdf(alpha, ph, nu, x, tol):
    weights, shapes, rates, rest = ph._blocks
    parts = []
    if len(weights):
        rows = _erlang_logpdf(alpha, shapes, rates, nu, x, tol)
        parts.append(_logsumexp(rows, np.asarray(weights)[:, None]))
    if rest:
        c = nu * alpha
        dens = _general_form(alpha, alpha, ph, rest, ph.exit_vector,
                             _power_arg(x, c), tol)
        with np.errstate(divide="ignore"):
            parts.append(math.log(nu) + (c - 1.0) * np.log(x)
                         + np.log(np.maximum(dens, 0.0)))
    return parts[0] if len(parts) == 1 else np.logaddexp(*parts)


def _dispatch_logsf(alpha, ph, nu, x, tol):
    weights, shapes, rates, rest = ph._blocks
    parts = []
    if len(weights):
        rows = _erlang_logsf(alpha, shapes, rates, nu, x, tol)
        parts.append(_logsumexp(rows, np.asarray(weights)[:, None]))
    if rest:
        sf = _general_form(alpha, 1.0, ph, rest, np.ones(ph.dim),
                           _power_arg(x, nu * alpha), tol)
        with np.errstate(divide="ignore"):
            parts.append(np.log(np.maximum(sf, 0.0)))
    # a survival is at most 1, but a sum of its terms may round above it
    joined = parts[0] if len(parts) == 1 else np.logaddexp(*parts)
    return np.minimum(joined, 0.0)


# ---------------------------------------------------------------------------
# public MML / PMML surface (nu = 1 for an MMLDist)

def mml_pdf(d: MMLDist | PMMLDist, x):
    """Density nu x^{nu alpha - 1} pi E_{alpha,alpha}(T x^{nu alpha}) t
    for x > 0."""
    alpha, ph, nu = _unpack(d)
    xs, scalar = _check_arg(x, "(0, inf)")
    out = np.exp(_dispatch_logpdf(alpha, ph, nu, xs, _TOL))
    return _ret(out, scalar)


def mml_logpdf(d: MMLDist | PMMLDist, x):
    """log of mml_pdf, computed without underflow for extreme x."""
    alpha, ph, nu = _unpack(d)
    xs, scalar = _check_arg(x, "(0, inf)")
    out = _dispatch_logpdf(alpha, ph, nu, xs, _TOL)
    return _ret(out, scalar)


def _from_logsf(d, x, at_zero, fn):
    """fn(log S) at the positive entries of x and at_zero at x = 0."""
    alpha, ph, nu = _unpack(d)
    xs, scalar = _check_arg(x, "[0, inf)")
    out = np.full_like(xs, at_zero)
    pos = xs > 0
    if pos.any():
        out[pos] = fn(_dispatch_logsf(alpha, ph, nu, xs[pos], _TOL))
    return _ret(out, scalar)


def mml_sf(d: MMLDist | PMMLDist, x):
    """Survival pi E_{alpha,1}(T x^{nu alpha}) 1, evaluated directly."""
    return _from_logsf(d, x, 1.0, np.exp)


def mml_logsf(d: MMLDist | PMMLDist, x):
    """log survival function, exact deep into the tail."""
    return _from_logsf(d, x, 0.0, lambda ls: ls)


def mml_cdf(d: MMLDist | PMMLDist, x):
    """Distribution function 1 - pi E_{alpha,1}(T x^{nu alpha}) 1 for
    x >= 0."""
    return _from_logsf(d, x, 0.0,
                       lambda ls: np.clip(1.0 - np.exp(ls), 0.0, 1.0))


def mml_laplace(d: MMLDist, u):
    """Laplace transform pi (u^alpha I - T)^{-1} t for u >= 0."""
    alpha, ph, nu = _unpack(d)
    if nu != 1.0:
        raise ValidationError(
            "Laplace transform is only available for the untransformed law")
    us, scalar = _check_arg(u, "[0, inf)")
    return _ret(ph_laplace(ph, us ** alpha), scalar)


def mml_frac_moment(d: MMLDist, rho: float) -> float:
    """Fractional moment E[X^rho] for 0 < rho < alpha.

    Gamma(1-rho/alpha) Gamma(1+rho/alpha) pi (-T)^{-rho/alpha} 1
    / Gamma(1-rho); the moment is infinite at rho >= alpha.
    """
    alpha, ph, nu = _unpack(d)
    if nu != 1.0:
        raise ValidationError(
            "fractional moments are only available for the untransformed law")
    rho = _number(rho, "moment order", f"(0, {alpha!r})")
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
    """Build a law from a parsed JSON document.

    Required keys: "alpha" (a number in (0, 1]) and "ph" (a generator
    document, see phasetype.ph_from_doc). Optional key: "nu" (a positive
    number, default 1). Any other key is rejected. nu = 1 yields a plain
    MMLDist.
    """
    doc = _document(doc, "distribution document", ("alpha", "ph"), ("nu",))
    d = PMMLDist(MMLDist(doc["alpha"], ph_from_doc(doc["ph"])),
                 doc.get("nu", 1.0))
    return d.base if d.nu == 1.0 else d


def dist_from_json(text: str):
    """Inverse of dist_to_json; nu = 1 yields a plain MMLDist."""
    return dist_from_doc(_json(text, "distribution document"))
