"""Semi-Markov absorption: state-dependent ML sojourns over an embedded chain.

A process jumps between p transient states plus one absorbing state according
to an embedded transition matrix Q. The sojourn in state i is Mittag-Leffler
with common index alpha and rate lambda_i. The matrix Lambda with entries
lambda_i * q_ij off-diagonal and -lambda_i on the diagonal packages the
transient dynamics as a phase-type pair (pi, T), and the time to absorption is
MML(alpha, pi, T).
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    ValidationError,
    _array,
    _document,
    _integer,
    _json,
    _number,
)
from .mlfun import MLParams, ml_matrix
from .phasetype import GENERAL, MAX_JUMPS, PHGenerator, _absorb
from .rng import RandomStream
from .sampling import _ml_draw


@dataclass(frozen=True)
class SemiMarkovSpec:
    """Embedded chain, per-state rates, common sojourn index, initial law.

    Attributes
    ----------
    Q : ndarray, shape (p+1, p+1)
        Embedded-chain transition matrix. State p (0-based) is absorbing:
        Q[p] = e_p. Transient diagonal entries are zero.
    rates : ndarray, shape (p,)
        Sojourn rate lambda_i > 0 for each transient state.
    alpha : float
        Common Mittag-Leffler index in (0, 1].
    pi : ndarray, shape (p,)
        Initial distribution over the transient states.
    """

    Q: np.ndarray
    rates: np.ndarray
    alpha: float
    pi: np.ndarray

    def __post_init__(self):
        Q = _array(self.Q, "Q", 2, "[0, inf)")
        rates = _array(self.rates, "rates", 1, "(0, inf)").reshape(-1)
        pi = _array(self.pi, "pi", 1, "[0, inf)").reshape(-1)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "alpha",
                           _number(self.alpha, "alpha", "(0, 1]"))
        _validate_spec(Q, rates, pi)

    @property
    def dim(self) -> int:
        """Number of transient states p."""
        return self.rates.shape[0]

    def to_json(self) -> str:
        doc = {
            "Q": [[float(v) for v in row] for row in self.Q],
            "rates": [float(v) for v in self.rates],
            "alpha": float(self.alpha),
            "pi": [float(v) for v in self.pi],
        }
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str) -> "SemiMarkovSpec":
        return sm_from_doc(_json(text, "semi-Markov document"))


def sm_from_doc(doc: dict) -> SemiMarkovSpec:
    """Build a spec from a parsed JSON document.

    Required keys: "Q" (a (p+1) x (p+1) matrix of nonnegative entries),
    "rates" (p positive numbers), "alpha" (a number in (0, 1]) and "pi"
    (p nonnegative numbers). Any other key is rejected.
    """
    doc = _document(doc, "semi-Markov document", ("Q", "rates", "alpha", "pi"))
    return SemiMarkovSpec(doc["Q"], doc["rates"], doc["alpha"], doc["pi"])


def _validate_spec(Q, rates, pi):
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValidationError("Q must be a square matrix")
    p = Q.shape[0] - 1
    if p < 1:
        raise ValidationError("need at least one transient state")
    if rates.shape[0] != p or pi.shape[0] != p:
        raise ValidationError("rates and pi must have length p = Q.shape[0]-1")
    if np.max(np.abs(Q.sum(axis=1) - 1.0)) > 1e-9:
        raise ValidationError("Q rows must sum to 1")
    if abs(Q[p, p] - 1.0) > 1e-12 or np.any(np.abs(Q[p, :p]) > 1e-12):
        raise ValidationError("last state of Q must be absorbing")
    if np.any(np.abs(np.diag(Q)[:p]) > 1e-12):
        raise ValidationError("transient diagonal of Q must be zero")
    if abs(pi.sum() - 1.0) > 1e-9:
        raise ValidationError("pi must sum to 1")


def build_lambda(spec: SemiMarkovSpec) -> PHGenerator:
    """Phase-type pair (pi, T) packaging the transient dynamics.

    T_ij = lambda_i * q_ij for i != j, T_ii = -lambda_i; full generator
    validation (including absorption reachability) runs at construction.
    """
    p = spec.dim
    T = spec.rates[:, None] * spec.Q[:p, :p]
    np.fill_diagonal(T, -spec.rates)
    return PHGenerator(spec.pi.copy(), T, GENERAL, {})


def transition_matrix(spec: SemiMarkovSpec, t: float) -> np.ndarray:
    """State-occupation probabilities P(t) = E_{alpha,1}(Lambda t^alpha).

    The absorbing-block identity reduces the full (p+1)-state evaluation to
    the transient block: the top-left block is E_{alpha,1}(T t^alpha), the
    absorption column is its row-sum complement, and the absorbing row is
    (0, ..., 0, 1).
    """
    t = _number(t, "time", "[0, inf)")
    p = spec.dim
    gen = build_lambda(spec)
    params = MLParams(spec.alpha, 1.0)
    top = ml_matrix(params, gen.T * t ** spec.alpha)
    out = np.zeros((p + 1, p + 1))
    out[:p, :p] = top
    out[:p, p] = 1.0 - top.sum(axis=1)
    out[p, p] = 1.0
    return np.clip(out, 0.0, 1.0)


def simulate_absorption(spec: SemiMarkovSpec, rng: RandomStream, size=None):
    """Total time to absorption along simulated sample paths.

    The phase-type jump chain with ML sojourns in place of exponential
    ones: runs the embedded chain from pi and accumulates one
    ML(alpha, lambda_i) sojourn per visit, drawn through the
    exponential-mixture representation with scale lambda_i^(-1/alpha).
    Paths exceeding the jump cap MAX_JUMPS raise EvaluationError, since a
    valid spec absorbs with probability one.
    """
    scalar = size is None
    n = 1 if scalar else _integer(size, "size", "[0, inf)")
    p = spec.dim
    alpha = spec.alpha
    delta = spec.rates ** (-1.0 / alpha)
    g = rng.generator
    total = _absorb(g, spec.pi, np.cumsum(spec.Q[:p], axis=1),
                    lambda st: _ml_draw(g, alpha, delta[st], len(st)),
                    n, MAX_JUMPS)
    return float(total[0]) if scalar else total
