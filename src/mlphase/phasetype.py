"""Phase-type generators: construction, validation, transforms, sampling.

A phase-type distribution is the absorption time of a Markov jump process on
p transient states with sub-intensity matrix T and initial row vector pi.
The exit rate vector is t = -T 1. The law depends only on (pi, T); the
structured constructors (Erlang, mixtures of Erlangs, Coxian) tag a
generator for its JSON document only. The MML densities, their gradient
and ph_sample all read PHGenerator._blocks, the split of T into Erlang
components and other blocks, which each generator computes once.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import gamma as sc_gamma

from .errors import (
    EvaluationError,
    ValidationError,
    _ANY,
    _array,
    _document,
    _integer,
    _integers,
    _json,
    _number,
)
from .mlfun import _components, _detect_uniform_bidiagonal, _eigenbasis

#: structure tags
ERLANG = "erlang"
MIXTURE_ERLANG = "mixture_erlang"
COXIAN = "coxian"
GENERAL = "general"

#: jump budget of one simulated path; a valid generator absorbs with
#: probability one, so a path beyond it flags a non-absorbing chain
MAX_JUMPS = 10_000_000


@dataclass(frozen=True)
class PHGenerator:
    """Initial distribution and sub-intensity matrix of a phase-type law.

    pi and T are read-only copies of the arrays passed in.

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
        Structure-specific parameters for the JSON document; no law reads them.
    """

    pi: np.ndarray
    T: np.ndarray
    structure: str = GENERAL
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # read-only copies: _blocks caches the split of this T
        pi = np.array(_array(self.pi, "pi", 1).reshape(-1))
        T = np.array(_array(self.T, "T", 2))
        for a, name in ((pi, "pi"), (T, "T")):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
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

    @cached_property
    def _blocks(self):
        """(weights, shapes, rates, rest) from the connected blocks of T: the
        Erlang components of the uniform bidiagonal blocks, and the other
        blocks. Computed once per generator, on first use, as tuples.

        A uniform bidiagonal block -lam I + b N is a mixture of Erlang(k, lam):
        entered at phase i of p, the chain moves on with probability
        r = b / lam at each phase, so it visits k < p - i phases with
        probability r^(k-1) (1 - r) and all p - i with r^(p-i-1). An Erlang
        or Erlang-mixture generator has r = 1 and gives its own shapes,
        rates and weights, one component per block with positive weight.
        """
        weights, shapes, rates, rest = [], [], [], []
        for c in _components(self.T):
            ab = _detect_uniform_bidiagonal(self.T[np.ix_(c, c)])
            if ab is None:
                rest.append(c)
                continue
            lam, p = -ab[0], len(c)
            r = min(ab[1] / lam, 1.0)  # row sums may reach +1e-9
            for i, mass in enumerate(self.pi[c]):
                for k in range(1, p - i + 1):
                    wk = mass * (r ** (k - 1) * (1.0 - r) if k < p - i
                                 else r ** (p - i - 1))
                    if wk > 0.0:
                        weights.append(wk)
                        shapes.append(k)
                        rates.append(lam)
        return tuple(weights), tuple(shapes), tuple(rates), tuple(rest)

    def as_general(self) -> "PHGenerator":
        """Same generator with the structure tag stripped."""
        return PHGenerator(self.pi, self.T, GENERAL, {})

    def to_json(self) -> str:
        """The generator document. Raises ValidationError, through
        ph_from_doc's check, when the tag and params do not describe pi and
        T, so every document written reads back."""
        doc = {
            "structure": self.structure,
            "pi": [float(v) for v in self.pi],
            "T": [[float(v) for v in row] for row in self.T],
        }
        if self.params:
            doc["params"] = _params_to_doc(self.params)
        ph_from_doc(doc)
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str) -> "PHGenerator":
        return ph_from_doc(_json(text, "generator document"))


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


#: the params keys of each tagged structure
_PARAM_KEYS = {
    ERLANG: ("shape", "rate"),
    MIXTURE_ERLANG: ("weights", "shapes", "rates"),
    COXIAN: ("rates",),
}


def ph_from_doc(doc: dict) -> PHGenerator:
    """Build a generator from a parsed JSON document.

    Required keys: "pi" (a vector) and "T" (a matrix). Optional keys:
    "structure" (default "general") and "params". Any other key is
    rejected. A tagged generator ("erlang", "mixture_erlang", "coxian")
    needs a params object with exactly the keys of its structure: "shape"
    (an integer) and "rate"; "weights", "shapes" (integers) and "rates";
    or "rates". It is rebuilt from its params by the structured constructor
    (Coxian from the document's pi), and the params must describe the
    document's pi and T to 1e-12 relative to max|T|.
    """
    doc = _document(doc, "generator document", ("pi", "T"),
                    ("structure", "params"))
    pi, T = _array(doc["pi"], "pi", 1), _array(doc["T"], "T", 2)
    structure = doc.get("structure", GENERAL)
    if structure not in (ERLANG, MIXTURE_ERLANG, COXIAN):
        return PHGenerator(pi, T, structure)
    params = _document(doc.get("params"), f"{structure} params",
                       _PARAM_KEYS[structure])
    if structure == COXIAN:
        gen = make_coxian(pi, params["rates"])
    else:
        shapes = (_integers(params["shapes"], "shapes", "[1, inf)")
                  if structure == MIXTURE_ERLANG
                  else (_integer(params["shape"], "shape", "[1, inf)"),))
        # checked before the constructor allocates sum(shapes)^2 entries
        if sum(shapes) != pi.size:
            raise ValidationError("shapes do not add up to the dimension of T")
        gen = (make_erlang(shapes[0], params["rate"]) if structure == ERLANG
               else make_mixture_erlang(params["weights"], shapes,
                                        params["rates"]))
    tol = 1e-12 * np.abs(gen.T).max()
    if (pi.shape != gen.pi.shape or T.shape != gen.T.shape
            or not np.abs(pi - gen.pi).max() <= tol
            or not np.abs(T - gen.T).max() <= tol):
        raise ValidationError(
            f"{structure} params do not describe the document's pi and T")
    return gen


def _validate_generator(pi: np.ndarray, T: np.ndarray) -> None:
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValidationError("T must be a square matrix")
    p = T.shape[0]
    if p < 1:
        raise ValidationError("dimension must be at least 1")
    if pi.shape != (p,):
        raise ValidationError("pi length must match the dimension of T")
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
    p = _integer(p, "shape", "[1, inf)")
    lam = _number(lam, "rate", "(0, inf)")
    T = np.zeros((p, p))
    idx = np.arange(p)
    T[idx, idx] = -lam
    T[idx[:-1], idx[:-1] + 1] = lam
    pi = np.zeros(p)
    pi[0] = 1.0
    return PHGenerator(pi, T, ERLANG, {"shape": p, "rate": lam})


def make_mixture_erlang(weights, shapes, rates) -> PHGenerator:
    """Mixture of Erlang generators on a block-diagonal state space."""
    weights = _array(weights, "weights", 1, "[0, inf)").reshape(-1)
    shapes = _integers(shapes, "shapes", "[1, inf)")
    rates = _array(rates, "rates", 1, "(0, inf)").reshape(-1)
    m = len(weights)
    if not (len(shapes) == len(rates) == m) or m < 1:
        raise ValidationError("weights, shapes and rates must have equal length")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValidationError("weights must sum to 1")
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
        "weights": weights.copy(), "shapes": shapes, "rates": rates.copy(),
    })


def make_coxian(pi_init, rates) -> PHGenerator:
    """Coxian generator: sequential phases with distinct rates and free entry.

    Phase i feeds phase i+1 at its full rate; absorption happens only from
    the final phase. The initial vector may start the chain in any phase.
    """
    pi_init = _array(pi_init, "pi", 1).reshape(-1)
    rates = _array(rates, "rates", 1, "(0, inf)").reshape(-1)
    p = len(rates)
    if len(pi_init) != p:
        raise ValidationError("initial vector and rates must have equal length")
    if p < 1:
        raise ValidationError("dimension must be at least 1")
    if len(set(rates.tolist())) != p:
        # distinct rates give T distinct eigenvalues, so T has an eigenbasis
        raise ValidationError("Coxian rates must be distinct")
    T = np.zeros((p, p))
    idx = np.arange(p)
    T[idx, idx] = -rates
    T[idx[:-1], idx[:-1] + 1] = rates[:-1]
    return PHGenerator(pi_init, T, COXIAN, {"rates": rates.copy()})


def make_general(pi, T) -> PHGenerator:
    """Untagged generator from explicit (pi, T)."""
    return PHGenerator(pi, T, GENERAL, {})


# ---------------------------------------------------------------------------
# transforms and densities

def _check_arg(x, interval=_ANY):
    """(1-d float array, whether x was a scalar) for a scalar or vector x
    with finite entries in interval."""
    x = _array(x, "argument", 1, interval)
    return np.atleast_1d(x), x.ndim == 0


def ph_pdf(gen: PHGenerator, x) -> np.ndarray:
    """Density pi expm(Tx) t, vectorized over x."""
    from scipy.linalg import expm

    xs, scalar = _check_arg(x)
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
    from scipy.linalg import expm

    xs, scalar = _check_arg(x)
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
    us, scalar = _check_arg(u, "[0, inf)")
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
    a = _number(a, "moment order", "(0, inf)")
    ones = np.ones(gen.dim)
    val = float(gen.pi @ _neg_T_power(gen, a) @ ones)
    return float(sc_gamma(a + 1.0)) * val


# ---------------------------------------------------------------------------
# exact simulation

def ph_sample(gen: PHGenerator, rng, size=None):
    """Exact draws of the absorption time, from (pi, T) alone.

    When every block of T is uniform bidiagonal, the law is the Erlang
    mixture that _blocks splits from T: one component index per draw (none
    for a single component), then one gamma variate per draw. Otherwise the
    jump chain on (pi, T) is simulated. Scalar when size is None.
    """
    scalar = size is None
    n = 1 if scalar else _integer(size, "size", "[0, inf)")
    g = rng.generator
    weights, shapes, rates, rest = gen._blocks
    if rest:
        out = _ph_sample_chain(gen, g, n)
    elif len(weights) == 1:
        out = g.gamma(shapes[0], 1.0 / rates[0], n)
    else:
        w = np.array(weights)
        comp = g.choice(len(w), size=n, p=w / w.sum())
        out = g.gamma(np.array(shapes, dtype=float)[comp],
                      1.0 / np.array(rates)[comp])
    return float(out[0]) if scalar else out


def _ph_sample_chain(gen: PHGenerator, g: np.random.Generator, n: int):
    """Simulate the underlying jump chain, with exponential holding times
    at the diagonal rates."""
    p = gen.dim
    rates = -np.diag(gen.T)
    # jump kernel rows: to states 0..p-1 then absorption at index p
    probs = np.empty((p, p + 1))
    probs[:, :p] = gen.T / rates[:, None]
    probs[np.arange(p), np.arange(p)] = 0.0
    probs[:, p] = gen.exit_vector / rates
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)
    return _absorb(g, gen.pi, np.cumsum(probs, axis=1),
                   lambda st: g.standard_exponential(len(st)) / rates[st],
                   n, MAX_JUMPS)


def _absorb(g, pi, cum, hold, n, max_jumps):
    """Absorption times of n paths of a jump chain on p transient states.

    Paths start from the law pi and accumulate hold(states), one holding
    time per path in the given states, before each jump; cum is the
    cumulative jump kernel, rows over states 0..p-1 then absorption at
    index p. A path making more than max_jumps jumps raises
    EvaluationError.
    """
    p = len(pi)
    p0 = np.clip(pi, 0.0, None)
    state = g.choice(p, size=n, p=p0 / p0.sum())
    total = np.zeros(n)
    active = np.ones(n, dtype=bool)
    jumps = 0
    while np.any(active):
        idx = np.nonzero(active)[0]
        st = state[idx]
        total[idx] += hold(st)
        u = g.random(len(idx))
        nxt = (u[:, None] > cum[st]).sum(axis=1)
        state[idx] = nxt
        active[idx] = nxt < p
        jumps += 1
        if jumps > max_jumps:
            raise EvaluationError(
                "path exceeded the jump cap; chain appears non-absorbing")
    return total
