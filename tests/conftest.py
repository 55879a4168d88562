"""Shared fixtures: the reference-value table and the standard model registry."""
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))  # make `oracles` importable

from mlphase import (
    MMLDist,
    PHGenerator,
    SemiMarkovSpec,
    make_coxian,
    make_erlang,
    make_mixture_erlang,
)

_DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="session")
def ml_reference():
    """Frozen high-precision values of E^{(k)}_{alpha,beta}(z).

    Returns a list of (alpha, beta, z, k, value) tuples.  Values were computed
    by the adaptive multi-precision routines in oracles.py and are accurate to
    well below 1e-13 relative.
    """
    with open(os.path.join(_DATA, "ml_reference.json")) as fh:
        raw = json.load(fh)
    entries = []
    for key, val in raw.items():
        a_s, b_s, zr_s, zi_s, k_s = key.split("|")
        z = complex(float(zr_s), float(zi_s))
        entries.append((float(a_s), float(b_s), z, int(k_s), complex(*val)))
    return entries


def standard_models():
    """The six (name, MMLDist) pairs used across the suite.

    Chosen to cover every structure tag, light and heavy tails, and widely
    spread rates (three decades in the mixture).
    """
    return [
        ("erlang1_a05", MMLDist(0.5, make_erlang(1, 1.0))),
        ("erlang4_a07", MMLDist(0.7, make_erlang(4, 2.0))),
        ("erlang4_a05", MMLDist(0.5, make_erlang(4, 2.0))),
        (
            "mix3_a09",
            MMLDist(
                0.9,
                make_mixture_erlang((0.5, 0.2, 0.3), (5, 3, 4), (20.0, 1.0, 0.03)),
            ),
        ),
        ("cox4_a09", MMLDist(0.9, make_coxian((0.5, 0.0, 0.5, 0.0), (1.0, 2.0, 3.0, 4.0)))),
        ("cox4_a07", MMLDist(0.7, make_coxian((0.25, 0.25, 0.25, 0.25), (1.0, 2.0, 3.0, 4.0)))),
    ]


@pytest.fixture(scope="session")
def model_registry():
    return standard_models()


def ph_to_sm_spec(gen: PHGenerator, alpha: float) -> SemiMarkovSpec:
    """Semi-Markov spec whose intensity build reproduces the given generator."""
    p = gen.dim
    rates = -np.diag(gen.T)
    Q = np.zeros((p + 1, p + 1))
    for i in range(p):
        for j in range(p):
            if i != j:
                Q[i, j] = gen.T[i, j] / rates[i]
        Q[i, p] = gen.exit_vector[i] / rates[i]
    Q[p, p] = 1.0
    return SemiMarkovSpec(Q=Q, rates=rates, alpha=alpha, pi=gen.pi.copy())
