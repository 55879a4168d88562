"""Phase-type generators: construction, validation, transforms, sampling.

A phase-type distribution is the absorption time of a Markov jump process on
p transient states with sub-intensity matrix T and initial row vector pi.
The exit rate vector is t = -T 1. Structured constructors (Erlang, mixtures
of Erlangs, Coxian) tag the generator so downstream code can dispatch to
closed forms.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.special import gamma as sc_gamma

from .errors import EvaluationError, ValidationError
from .mlfun import _eigenbasis

#: structure tags
ERLANG = "erlang"
MIXTURE_ERLANG = "mixture_erlang"
COXIAN = "coxian"
GENERAL = "general"


@dataclass(frozen=True)
class PHGenerator:
    """Initial distribution and sub-intensity matrix of a phase-type law.

    Attributes
    ----------
    pi : ndarray, shape (p,)
        Initial probability row vector (sums to 1, entries >= 0).
    T : ndarray, shape (p, p)
        Sub-intensity matrix: negative diagonal, nonnegative off-diagonal,
        row sums <= 0, and every state leads to absorption.
    structure : str
        One of "erlang", "mixture_erlang", "coxian", "general".
    params : dict
        Structure-specific parameters (shapes, rates, weights).
    """

    pi: np.ndarray
    T: np.ndarray
    structure: str = GENERAL
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float).reshape(-1)
        T = np.asarray(self.T, dtype=float)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "T", T)
        _validate_generator(pi, T)
        if self.structure not in (ERLANG, MIXTURE_ERLANG, COXIAN, GENERAL):
            raise ValidationError(f"unknown structure tag {self.structure!r}")

    @property
    def dim(self) -> int:
        return self.T.shape[0]

    @property
    def exit_vector(self) -> np.ndarray:
        """Exit rate vector t = -T 1."""
        return -self.T.sum(axis=1)

    def as_general(self) -> "PHGenerator":
        """Same generator with the structure tag stripped."""
        return PHGenerator(self.pi.copy(), self.T.copy(), GENERAL, {})

    def to_json(self) -> str:
        doc = {
            "structure": self.structure,
            "pi": [float(v) for v in self.pi],
            "T": [[float(v) for v in row] for row in self.T],
        }
        if self.params:
            doc["params"] = _params_to_doc(self.params)
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str) -> "PHGenerator":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValidationError(f"invalid JSON: {e}") from None
        return ph_from_doc(doc)


def _params_to_doc(params: dict) -> dict:
    out = {}
    for k, v in params.items():
        if isinstance(v, (list, tuple, np.ndarray)):
            out[k] = [float(x) if isinstance(x, (float, np.floating)) else int(x)
                      for x in v]
        elif isinstance(v, (int, np.integer)):
            out[k] = int(v)
        elif isinstance(v, (float, np.floating)):
            out[k] = float(v)
        else:
            out[k] = v
    return out


def ph_from_doc(doc: dict) -> PHGenerator:
    """Build a generator from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ValidationError("generator document must be a JSON object")
    for key in ("pi", "T"):
        if key not in doc:
            raise ValidationError(f"generator document missing {key!r}")
    structure = doc.get("structure", GENERAL)
    params = doc.get("params", {})
    try:
        pi = np.asarray(doc["pi"], dtype=float)
        T = np.asarray(doc["T"], dtype=float)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"non-numeric generator entries: {e}") from None
    if structure == MIXTURE_ERLANG and "shapes" in params:
        params = dict(params)
        params["shapes"] = tuple(int(s) for s in params["shapes"])
    return PHGenerator(pi, T, structure, dict(params))


def _validate_generator(pi: np.ndarray, T: np.ndarray) -> None:
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValidationError("T must be a square matrix")
    p = T.shape[0]
    if p < 1:
        raise ValidationError("dimension must be at least 1")
    if pi.shape != (p,):
        raise ValidationError("pi length must match the dimension of T")
    if not np.all(np.isfinite(T)) or not np.all(np.isfinite(pi)):
        raise ValidationError("generator entries must be finite")
    if np.any(pi < -1e-12):
        raise ValidationError("pi entries must be nonnegative")
    if abs(pi.sum() - 1.0) > 1e-9:
        raise ValidationError("pi must sum to 1")
    d = np.diag(T)
    if np.any(d >= 0):
        raise ValidationError("diagonal of T must be strictly negative")
    off = T - np.diag(d)
    if np.any(off < -1e-12):
        raise ValidationError("off-diagonal of T must be nonnegative")
    rows = T.sum(axis=1)
    if np.any(rows > 1e-9):
        raise ValidationError("row sums of T must be <= 0")
    # every state must reach absorption: T nonsingular is equivalent here
    try:
        cond = np.linalg.cond(T)
    except np.linalg.LinAlgError:
        raise ValidationError("T must be nonsingular") from None
    if not np.isfinite(cond) or cond > 1e14:
        raise ValidationError("T is singular: some state never absorbs")


# ---------------------------------------------------------------------------
# structured constructors

def make_erlang(p: int, lam: float) -> PHGenerator:
    """Erlang generator: p sequential phases at a common rate."""
    p = int(p)
    if p < 1:
        raise ValidationError("shape must be a positive integer")
    if not lam > 0:
        raise ValidationError("rate must be positive")
    T = np.zeros((p, p))
    idx = np.arange(p)
    T[idx, idx] = -lam
    T[idx[:-1], idx[:-1] + 1] = lam
    pi = np.zeros(p)
    pi[0] = 1.0
    return PHGenerator(pi, T, ERLANG, {"shape": p, "rate": float(lam)})


def make_mixture_erlang(weights, shapes, rates) -> PHGenerator:
    """Mixture of Erlang generators on a block-diagonal state space."""
    weights = np.asarray(weights, dtype=float).reshape(-1)
    shapes = [int(s) for s in np.asarray(shapes).reshape(-1)]
    rates = np.asarray(rates, dtype=float).reshape(-1)
    m = len(weights)
    if not (len(shapes) == len(rates) == m) or m < 1:
        raise ValidationError("weights, shapes and rates must have equal length")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValidationError("weights must be nonnegative and sum to 1")
    if any(s < 1 for s in shapes):
        raise ValidationError("shapes must be positive integers")
    if np.any(rates <= 0):
        raise ValidationError("rates must be positive")
    p = sum(shapes)
    T = np.zeros((p, p))
    pi = np.zeros(p)
    pos = 0
    for w, s, r in zip(weights, shapes, rates):
        idx = np.arange(pos, pos + s)
        T[idx, idx] = -r
        T[idx[:-1], idx[:-1] + 1] = r
        pi[pos] = w
        pos += s
    return PHGenerator(pi, T, MIXTURE_ERLANG, {
        "weights": weights.copy(), "shapes": tuple(shapes), "rates": rates.copy(),
    })


def make_coxian(pi_init, rates) -> PHGenerator:
    """Coxian generator: sequential phases with distinct rates and free entry.

    Phase i feeds phase i+1 at its full rate; absorption happens only from
    the final phase. The initial vector may start the chain in any phase.
    """
    pi_init = np.asarray(pi_init, dtype=float).reshape(-1)
    rates = np.asarray(rates, dtype=float).reshape(-1)
    p = len(rates)
    if len(pi_init) != p:
        raise ValidationError("initial vector and rates must have equal length")
    if p < 1:
        raise ValidationError("dimension must be at least 1")
    if np.any(rates <= 0):
        raise ValidationError("rates must be positive")
    if len(set(rates.tolist())) != p:
        # the closed-form density divides by pairwise rate differences
        raise ValidationError("Coxian rates must be distinct")
    T = np.zeros((p, p))
    idx = np.arange(p)
    T[idx, idx] = -rates
    T[idx[:-1], idx[:-1] + 1] = rates[:-1]
    return PHGenerator(pi_init, T, COXIAN, {"rates": rates.copy()})


def make_general(pi, T) -> PHGenerator:
    """Untagged generator from explicit (pi, T)."""
    return PHGenerator(np.asarray(pi, dtype=float), np.asarray(T, dtype=float),
                       GENERAL, {})


# ---------------------------------------------------------------------------
# transforms and densities

def ph_pdf(gen: PHGenerator, x) -> np.ndarray:
    """Density pi expm(Tx) t, vectorized over x."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xs = np.atleast_1d(x)
    t = gen.exit_vector
    out = np.empty_like(xs)
    for i, xi in enumerate(xs):
        if xi < 0:
            out[i] = 0.0
        else:
            out[i] = float(gen.pi @ expm(gen.T * xi) @ t)
    return float(out[0]) if scalar else out


def ph_cdf(gen: PHGenerator, x) -> np.ndarray:
    """Distribution function 1 - pi expm(Tx) 1, vectorized over x."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xs = np.atleast_1d(x)
    ones = np.ones(gen.dim)
    out = np.empty_like(xs)
    for i, xi in enumerate(xs):
        if xi <= 0:
            out[i] = 0.0
        else:
            out[i] = 1.0 - float(gen.pi @ expm(gen.T * xi) @ ones)
    return float(out[0]) if scalar else out


def ph_laplace(gen: PHGenerator, u) -> np.ndarray:
    """Laplace transform pi (uI - T)^{-1} t for u >= 0."""
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    us = np.atleast_1d(u)
    if np.any(us < 0):
        raise ValidationError("Laplace argument must be nonnegative")
    t = gen.exit_vector
    eye = np.eye(gen.dim)
    out = np.empty_like(us)
    for i, ui in enumerate(us):
        out[i] = float(gen.pi @ np.linalg.solve(ui * eye - gen.T, t))
    return float(out[0]) if scalar else out


def _neg_T_power(gen: PHGenerator, a: float) -> np.ndarray:
    """(-T)^{-a} for real a > 0."""
    negT = -gen.T
    if a == int(a):
        out = np.eye(gen.dim)
        for _ in range(int(a)):
            out = np.linalg.solve(negT, out)
        return out
    eb = _eigenbasis(negT)
    if eb is not None:
        # -T has eigenvalues in the right half-plane, so the principal
        # power is well defined
        w, V, Vinv = eb
        P = V @ np.diag(w.astype(complex) ** (-a)) @ Vinv
        if np.abs(P.imag).max() > 1e-10 * (np.abs(P).max() + 1.0):
            raise EvaluationError("matrix power has an imaginary residue")
        return P.real
    from scipy.linalg import fractional_matrix_power

    P = fractional_matrix_power(negT, -a)
    if np.iscomplexobj(P):
        if np.abs(P.imag).max() > 1e-10 * (np.abs(P).max() + 1.0):
            raise EvaluationError("matrix power has an imaginary residue")
        P = P.real
    if not np.all(np.isfinite(P)):
        raise EvaluationError("matrix power evaluation failed")
    return P


def ph_frac_moment(gen: PHGenerator, a: float) -> float:
    """Fractional moment E[X^a] = Gamma(a+1) pi (-T)^{-a} 1 for a > 0."""
    a = float(a)
    if not a > 0:
        raise ValidationError("moment order must be positive")
    ones = np.ones(gen.dim)
    val = float(gen.pi @ _neg_T_power(gen, a) @ ones)
    return float(sc_gamma(a + 1.0)) * val


# ---------------------------------------------------------------------------
# exact simulation

def ph_sample(gen: PHGenerator, rng, size=None):
    """Exact draws of the absorption time.

    Erlang and mixtures of Erlangs use the gamma representation directly;
    other structures simulate the jump chain. Scalar when size is None.
    """
    scalar = size is None
    n = 1 if scalar else int(size)
    if n < 0:
        raise ValidationError("size must be nonnegative")
    g = rng.generator
    if gen.structure == ERLANG:
        out = g.gamma(gen.params["shape"], 1.0 / gen.params["rate"], n)
    elif gen.structure == MIXTURE_ERLANG:
        w = np.asarray(gen.params["weights"], dtype=float)
        shapes = np.asarray(gen.params["shapes"], dtype=int)
        rates = np.asarray(gen.params["rates"], dtype=float)
        comp = g.choice(len(w), size=n, p=w / w.sum())
        out = g.gamma(shapes[comp].astype(float), 1.0 / rates[comp])
    else:
        out = _ph_sample_chain(gen, g, n)
    return float(out[0]) if scalar else out


def _ph_sample_chain(gen: PHGenerator, g: np.random.Generator, n: int):
    """Simulate the underlying jump chain, vectorized over paths."""
    p = gen.dim
    rates = -np.diag(gen.T)
    # jump kernel rows: to states 0..p-1 then absorption at index p
    probs = np.empty((p, p + 1))
    probs[:, :p] = gen.T / rates[:, None]
    probs[np.arange(p), np.arange(p)] = 0.0
    probs[:, p] = gen.exit_vector / rates
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)

    p0 = np.clip(gen.pi, 0.0, None)
    state = g.choice(p, size=n, p=p0 / p0.sum())
    total = np.zeros(n)
    active = np.ones(n, dtype=bool)
    guard = 0
    while np.any(active):
        idx = np.nonzero(active)[0]
        st = state[idx]
        total[idx] += g.standard_exponential(len(idx)) / rates[st]
        u = g.random(len(idx))
        nxt = (u[:, None] > cum[st]).sum(axis=1)
        state[idx] = nxt
        active[idx] = nxt < p
        guard += 1
        if guard > 10_000_000:
            raise RuntimeError("jump chain failed to absorb")
    return total
