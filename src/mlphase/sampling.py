"""Exact samplers for positive stable, scalar ML, and (P)MML laws.

All samplers take a RandomStream and are deterministic given the stream.
Vector draws use size=n; size=None returns a scalar. Scalar-ML sampling uses
the exponential-mixture representation X = delta * Z * R^(1/alpha) with Z unit
exponential and R drawn by closed-form inversion of its arctan-type CDF; the
stable sampler is the classical one-uniform one-exponential transformation.
"""
from __future__ import annotations

import numpy as np

from .distributions import MMLDist, PMMLDist
from .errors import ValidationError, _array, _integer, _number
from .phasetype import ph_sample
from .rng import RandomStream


def sample_positive_stable(alpha: float, rng: RandomStream, size=None):
    """Draw from the positive stable law with Laplace transform exp(-u^alpha).

    Uses the one-sided stable transformation: with U uniform on (0, pi) and
    E unit exponential,

        S = sin(alpha U) * sin((1-alpha) U)^((1-alpha)/alpha)
            / (sin(U)^(1/alpha) * E^((1-alpha)/alpha)).

    alpha = 1 gives the degenerate law at 1 and consumes no randomness.
    """
    alpha = _number(alpha, "alpha", "(0, 1]")
    scalar = size is None
    n = 1 if scalar else _integer(size, "size", "[0, inf)")
    if alpha == 1.0:
        out = np.ones(n)
        return 1.0 if scalar else out
    g = rng.generator
    u = g.uniform(0.0, np.pi, n)
    e = g.standard_exponential(n)
    # log space keeps the u -> 0, pi endpoints finite; summed left to right
    r = (1.0 - alpha) / alpha
    acc, buf = alpha * u, (1.0 - alpha) * u
    for v in (acc, buf, u):
        np.sin(v, out=v)
    for v in (acc, buf, u, e):
        np.maximum(v, 1e-300, out=v)
        np.log(v, out=v)
    acc += np.multiply(buf, r, out=buf)
    acc -= np.divide(u, alpha, out=u)
    acc -= np.multiply(e, r, out=e)
    out = np.exp(acc, out=acc)
    return float(out[0]) if scalar else out


def ml_mixing_cdf(alpha: float, x):
    """CDF of the mixing variable R in the scalar-ML representation.

    R has the Cauchy-type density sin(alpha*pi) / (pi*alpha*(x^2 +
    2x*cos(alpha*pi) + 1)) on x >= 0, equivalently

        F(x) = (1/(pi*alpha)) * (arctan(x/sin(alpha*pi) + cot(alpha*pi))
               - pi/2) + 1,

    the unique law making Z * R^(1/alpha) Mittag-Leffler (checked against
    the transform 1/(1+u^alpha) by quadrature).
    """
    alpha = _number(alpha, "alpha", "(0, 1)")
    x = _array(x, "x", 1)
    s = np.sin(alpha * np.pi)
    c = np.cos(alpha * np.pi) / s
    val = (1.0 / (np.pi * alpha)) * (np.arctan(x / s + c) - np.pi / 2.0) + 1.0
    return val if val.ndim else float(val)


def ml_mixing_quantile(alpha: float, q):
    """Closed-form inverse of ml_mixing_cdf.

    quantile(q) = sin(alpha*pi) * cot((1-q)*pi*alpha) - cos(alpha*pi).
    """
    alpha = _number(alpha, "alpha", "(0, 1)")
    q = _array(q, "quantile level", 1, "[0, 1)")
    val = _mixing_quantile(alpha, np.array(q))  # a copy: q stays unwritten
    return val if val.ndim else float(val)


def _mixing_quantile(alpha, q):
    """ml_mixing_quantile at the float levels q, overwriting q: with
    ang = (1 - q) pi alpha, (sin(alpha pi) cos(ang)) / sin(ang) - cos(alpha pi),
    one new array besides q."""
    np.subtract(1.0, q, out=q)
    q *= np.pi
    q *= alpha
    val = np.cos(q)
    val *= np.sin(alpha * np.pi)
    val /= np.sin(q, out=q)
    val -= np.cos(alpha * np.pi)
    return val


def sample_ml_scalar(alpha: float, delta: float, rng: RandomStream, size=None):
    """Draw from the scalar ML law with survival E_{alpha,1}(-(x/delta)^alpha).

    X = delta * Z * R^(1/alpha) with Z unit exponential and R drawn by
    quantile inversion. alpha = 1 reduces to delta * Z (exponential law); in
    that case only the exponential variate is consumed.
    """
    alpha = _number(alpha, "alpha", "(0, 1]")
    delta = _number(delta, "delta", "(0, inf)")
    scalar = size is None
    n = 1 if scalar else _integer(size, "size", "[0, inf)")
    out = _ml_draw(rng.generator, alpha, delta, n)
    return float(out[0]) if scalar else out


def _ml_draw(g, alpha, delta, n):
    """n scalar-ML draws delta * Z * R^(1/alpha); delta may be a scalar or
    an array of n scales. At alpha = 1 only Z is drawn."""
    z = g.standard_exponential(n)
    if alpha == 1.0:
        return delta * z
    # in place, in the order (delta z) R^(1/alpha)
    rmix = _mixing_quantile(alpha, g.random(n))
    rmix **= 1.0 / alpha
    z *= delta
    z *= rmix
    return z


def sample_mml(d: MMLDist, rng: RandomStream, size=None):
    """Draw absorption times W^(1/alpha) * S from the product representation.

    W is a phase-type draw and S an independent positive stable variate; the
    two factors use split sub-streams so either marginal is reproducible on
    its own.
    """
    if not isinstance(d, MMLDist):
        raise ValidationError("expected an MMLDist")
    w_stream, s_stream = rng.split(2)
    w = ph_sample(d.ph, w_stream, size)
    w **= 1.0 / d.alpha
    w *= sample_positive_stable(d.alpha, s_stream, size)
    return w


def sample_pmml(d: PMMLDist, rng: RandomStream, size=None):
    """Draw from a power-MML law: sample_mml(base)^(1/nu)."""
    if isinstance(d, MMLDist):
        return sample_mml(d, rng, size)
    if not isinstance(d, PMMLDist):
        raise ValidationError("expected a PMMLDist")
    x = sample_mml(d.base, rng, size)
    x **= 1.0 / d.nu
    return x
