"""Semi-Markov process with heavy-tailed sojourns: intensity construction,
transition matrices, and the absorption-time law."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.stats import ks_2samp, kstest

import mlphase.phasetype as phmod
import mlphase.semimarkov as smmod
from mlphase import (
    EvaluationError,
    MLParams,
    MMLDist,
    RandomStream,
    SemiMarkovSpec,
    ValidationError,
    build_lambda,
    make_coxian,
    make_erlang,
    make_mixture_erlang,
    ml_eval,
    mml_cdf,
    mml_sf,
    ph_sample,
    sample_mml,
    simulate_absorption,
    transition_matrix,
)
from conftest import ph_to_sm_spec

_CRIT_1PCT = 1.62762


def _single_state_spec(lam=1.0, alpha=0.7):
    Q = np.array([[0.0, 1.0], [0.0, 1.0]])
    return SemiMarkovSpec(Q=Q, rates=np.array([lam]), alpha=alpha, pi=np.array([1.0]))


def _three_state_spec(alpha=0.8):
    # sequential chain with absorption only from the last state
    Q = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return SemiMarkovSpec(
        Q=Q, rates=np.array([1.0, 2.0, 3.0]), alpha=alpha, pi=np.array([1.0, 0.0, 0.0])
    )


# ---------------------------------------------------------------------------
# intensity construction


def test_build_lambda_single_state():
    spec = _single_state_spec(lam=2.0)
    gen = build_lambda(spec)
    assert np.array_equal(gen.T, [[-2.0]])
    assert np.array_equal(gen.exit_vector, [2.0])


def test_build_lambda_sequential_chain():
    Q = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    spec = SemiMarkovSpec(Q=Q, rates=np.array([1.0, 2.0]), alpha=0.9, pi=np.array([1.0, 0.0]))
    gen = build_lambda(spec)
    assert np.array_equal(gen.T, [[-1.0, 1.0], [0.0, -2.0]])
    assert np.array_equal(gen.exit_vector, [0.0, 2.0])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31), p=st.integers(1, 5), alpha=st.floats(0.3, 1.0))
def test_build_lambda_random_specs(seed, p, alpha):
    rng = np.random.default_rng(seed)
    Q = np.zeros((p + 1, p + 1))
    for i in range(p):
        row = rng.uniform(0.1, 1.0, p + 1)
        row[i] = 0.0
        Q[i] = row / row.sum()
    Q[p, p] = 1.0
    rates = rng.uniform(0.2, 5.0, p)
    pi = rng.uniform(0.1, 1.0, p)
    pi /= pi.sum()
    spec = SemiMarkovSpec(Q=Q, rates=rates, alpha=alpha, pi=pi)
    gen = build_lambda(spec)  # PHGenerator validation runs in the constructor
    assert np.max(np.abs(gen.exit_vector + gen.T @ np.ones(p))) < 1e-12
    assert np.max(np.abs(-np.diag(gen.T) - rates)) < 1e-12


def test_spec_validation():
    good_Q = np.array([[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        SemiMarkovSpec(Q=np.array([[0.5, 0.4], [0.0, 1.0]]), rates=np.array([1.0]),
                       alpha=0.5, pi=np.array([1.0]))  # row sum != 1
    with pytest.raises(ValidationError):
        SemiMarkovSpec(Q=np.array([[0.5, 0.5], [0.0, 1.0]]), rates=np.array([1.0]),
                       alpha=0.5, pi=np.array([1.0]))  # self-loop on transient state
    with pytest.raises(ValidationError):
        SemiMarkovSpec(Q=np.array([[0.0, 1.0], [0.5, 0.5]]), rates=np.array([1.0]),
                       alpha=0.5, pi=np.array([1.0]))  # absorbing row must be identity
    with pytest.raises(ValidationError):
        SemiMarkovSpec(Q=good_Q, rates=np.array([-1.0]), alpha=0.5, pi=np.array([1.0]))
    with pytest.raises(ValidationError):
        SemiMarkovSpec(Q=good_Q, rates=np.array([1.0]), alpha=1.5, pi=np.array([1.0]))
    with pytest.raises(ValidationError):
        SemiMarkovSpec(Q=good_Q, rates=np.array([1.0]), alpha=0.5, pi=np.array([0.7]))


# ---------------------------------------------------------------------------
# transition matrix


def test_transition_matrix_at_zero():
    spec = _three_state_spec()
    P = transition_matrix(spec, 0.0)
    assert np.allclose(P, np.eye(4), atol=1e-12)


def test_transition_matrix_rows_and_range():
    for spec in (_single_state_spec(), _three_state_spec(alpha=0.6)):
        for t in (0.1, 1.0, 10.0):
            P = transition_matrix(spec, t)
            assert np.max(np.abs(P.sum(axis=1) - 1.0)) < 1e-8
            assert np.all((P >= 0.0) & (P <= 1.0))
            assert P[-1, -1] == 1.0


def test_transition_matrix_scalar_value():
    spec = _single_state_spec(lam=1.0, alpha=0.6)
    P = transition_matrix(spec, 2.0)
    ref = float(ml_eval(MLParams(0.6, 1.0), -(2.0 ** 0.6)).real)
    assert abs(P[0, 0] - ref) < 1e-12


def test_transition_matrix_markov_limit():
    # at alpha = 1 the process is the plain CTMC: full matrix exponential
    spec = _three_state_spec(alpha=1.0)
    gen = build_lambda(spec)
    lam_full = np.zeros((4, 4))
    lam_full[:3, :3] = gen.T
    lam_full[:3, 3] = gen.exit_vector
    for t in (0.5, 2.0):
        P = transition_matrix(spec, t)
        assert np.max(np.abs(P - expm(lam_full * t))) < 1e-10


def test_semigroup_only_at_markov_limit():
    spec1 = _three_state_spec(alpha=1.0)
    P1 = transition_matrix(spec1, 1.0)
    P2 = transition_matrix(spec1, 2.0)
    assert np.max(np.abs(P1 @ P1 - P2)) < 1e-8
    # with heavy-tailed sojourns the process has memory: the Chapman-
    # Kolmogorov product identity genuinely fails and must not be asserted
    spec = _three_state_spec(alpha=0.6)
    Q1 = transition_matrix(spec, 1.0)
    Q2 = transition_matrix(spec, 2.0)
    assert np.max(np.abs(Q1 @ Q1 - Q2)) > 1e-3


# ---------------------------------------------------------------------------
# absorption law


def test_absorption_single_state_ks():
    spec = _single_state_spec(lam=1.0, alpha=0.7)
    n = 100_000
    x = simulate_absorption(spec, RandomStream(500), size=n)
    d = MMLDist(0.7, build_lambda(spec))
    stat = kstest(x, lambda v: mml_cdf(d, v)).statistic
    assert stat < _CRIT_1PCT / math.sqrt(n)


def test_absorption_three_state_ks():
    spec = _three_state_spec(alpha=0.8)
    n = 50_000
    x = simulate_absorption(spec, RandomStream(501), size=n)
    d = MMLDist(0.8, build_lambda(spec))
    stat = kstest(x, lambda v: mml_cdf(d, v)).statistic
    assert stat < _CRIT_1PCT / math.sqrt(n)


def test_absorption_markov_limit_two_sample():
    spec = _three_state_spec(alpha=1.0)
    gen = build_lambda(spec)
    n = 50_000
    a = simulate_absorption(spec, RandomStream(502), size=n)
    b = ph_sample(gen, RandomStream(503), size=n)
    assert ks_2samp(a, b).pvalue > 0.01


def test_absorption_truncated_mean():
    spec = _three_state_spec(alpha=0.8)
    d = MMLDist(0.8, build_lambda(spec))
    n = 200_000
    x = np.minimum(simulate_absorption(spec, RandomStream(504), size=n), 1e3)
    se = x.std(ddof=1) / math.sqrt(n)
    # E[min(X, M)] = integral of the survival function over (0, M)
    body, _ = quad(lambda v: mml_sf(d, v), 0.0, 10.0, limit=200)
    tail, _ = quad(lambda v: mml_sf(d, v), 10.0, 1e3, limit=200)
    assert abs(x.mean() - (body + tail)) < 3.0 * se


def test_two_sampler_equivalence():
    cases = [
        (MMLDist(0.7, make_erlang(1, 1.0)), 510),
        (MMLDist(0.9, make_mixture_erlang((0.5, 0.2, 0.3), (5, 3, 4), (20.0, 1.0, 0.03))), 511),
        (MMLDist(0.8, make_coxian((0.5, 0.0, 0.5, 0.0), (1.0, 2.0, 3.0, 4.0))), 512),
    ]
    n = 20_000
    for d, seed in cases:
        spec = ph_to_sm_spec(d.ph, d.alpha)
        a = simulate_absorption(spec, RandomStream(seed), size=n)
        b = sample_mml(d, RandomStream(seed + 1000), size=n)
        assert ks_2samp(a, b).pvalue > 0.01, d.ph.structure


def _near_reflecting_spec():
    # chain that revisits states many times before absorbing
    Q = np.array(
        [
            [0.0, 0.999, 0.001],
            [0.999, 0.0, 0.001],
            [0.0, 0.0, 1.0],
        ]
    )
    return SemiMarkovSpec(
        Q=Q, rates=np.array([1.0, 1.0]), alpha=0.9, pi=np.array([1.0, 0.0])
    )


def test_runaway_path_guard(monkeypatch):
    # with the jump budget forced down the simulator must flag a runaway
    # rather than hang
    monkeypatch.setattr(smmod, "MAX_JUMPS", 50)
    with pytest.raises(EvaluationError):
        simulate_absorption(_near_reflecting_spec(), RandomStream(505),
                            size=2000)


def test_runaway_phase_type_chain(monkeypatch):
    # the phase-type jump chain shares the guard and its error type
    monkeypatch.setattr(phmod, "MAX_JUMPS", 50)
    with pytest.raises(EvaluationError):
        ph_sample(build_lambda(_near_reflecting_spec()), RandomStream(505),
                  size=2000)


def test_simulation_reproducible_and_scalar():
    spec = _three_state_spec()
    a = simulate_absorption(spec, RandomStream(506), size=5)
    b = simulate_absorption(spec, RandomStream(506), size=5)
    assert np.array_equal(a, b)
    s = simulate_absorption(spec, RandomStream(507))
    assert isinstance(s, float) and s > 0.0


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    spec = _three_state_spec(alpha=0.65)
    back = SemiMarkovSpec.from_json(spec.to_json())
    assert np.array_equal(back.Q, spec.Q)
    assert np.array_equal(back.rates, spec.rates)
    assert back.alpha == spec.alpha
    assert np.array_equal(back.pi, spec.pi)


def test_doc_validation():
    with pytest.raises((ValidationError, KeyError)):
        smmod.sm_from_doc({"Q": [[1.0]], "rates": [], "alpha": 0.5})
