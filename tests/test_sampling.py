"""Exact samplers: positive stable law, mixing-law inversion, product
representation, and stream reproducibility."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gamma as Gamma
from scipy.stats import ks_2samp, kstest

from mlphase import (
    MMLDist,
    PMMLDist,
    RandomStream,
    ValidationError,
    make_erlang,
    ml_mixing_cdf,
    ml_mixing_quantile,
    mml_cdf,
    pmml_cdf,
    ph_sample,
    sample_ml_scalar,
    sample_mml,
    sample_pmml,
    sample_positive_stable,
)
from conftest import standard_models

_CRIT_1PCT = 1.62762  # asymptotic one-sample KS critical constant at 1%


# ---------------------------------------------------------------------------
# positive stable law


def test_stable_alpha_one_is_degenerate():
    rng = RandomStream(1)
    s = sample_positive_stable(1.0, rng, size=4)
    assert np.array_equal(s, np.ones(4))
    # the degenerate branch must not consume randomness
    follow = rng.generator.uniform()
    assert follow == RandomStream(1).generator.uniform()


def test_stable_laplace_transform():
    n = 200_000
    for i, alpha in enumerate((0.3, 0.5, 0.7, 0.9)):
        s = sample_positive_stable(alpha, RandomStream(100 + i), size=n)
        for u in (0.5, 1.0, 2.0):
            vals = np.exp(-u * s)
            se = vals.std(ddof=1) / math.sqrt(n)
            assert abs(vals.mean() - math.exp(-(u ** alpha))) < 3.0 * se


def test_stable_fractional_moment():
    n = 1_000_000
    s = sample_positive_stable(0.5, RandomStream(7), size=n)
    vals = s ** 0.25
    se = vals.std(ddof=1) / math.sqrt(n)
    ref = Gamma(0.5) / Gamma(0.75)  # E[S^rho] = G(1-rho/a)/G(1-rho)
    assert abs(vals.mean() - ref) < 3.0 * se


def test_stable_positivity():
    s = sample_positive_stable(0.4, RandomStream(8), size=10_000)
    assert np.all(s > 0.0) and np.all(np.isfinite(s))


# ---------------------------------------------------------------------------
# mixing law of the scalar representation


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8, 0.95])
def test_mixing_inverse_identity(alpha):
    for q in (0.1, 0.5, 0.9):
        x = ml_mixing_quantile(alpha, q)
        assert abs(ml_mixing_cdf(alpha, x) - q) < 1e-12
    for x in (0.1, 1.0, 10.0):
        q = ml_mixing_cdf(alpha, x)
        assert abs(ml_mixing_quantile(alpha, q) - x) < 1e-10 * max(1.0, x)


@settings(max_examples=120, deadline=None)
@given(alpha=st.floats(0.05, 0.99), q=st.floats(0.001, 0.999))
def test_mixing_quantile_property(alpha, q):
    x = ml_mixing_quantile(alpha, q)
    assert x > 0.0
    assert abs(ml_mixing_cdf(alpha, x) - q) < 1e-9


def test_mixing_cdf_shape():
    alpha = 0.7
    xs = np.geomspace(1e-3, 1e3, 50)
    f = ml_mixing_cdf(alpha, xs)
    assert np.all(np.diff(f) > 0.0)
    assert f[0] > 0.0 and f[-1] < 1.0
    assert ml_mixing_cdf(alpha, 0.0) == pytest.approx(
        1.0 - 1.0 / alpha + 1.0 / (np.pi * alpha) * (np.pi / 2.0 + np.arctan(1.0 / np.tan(alpha * np.pi))), abs=1e-12
    )


# ---------------------------------------------------------------------------
# scalar sampler


def test_scalar_ml_ks():
    alpha, delta = 0.6, 2.0
    n = 100_000
    x = sample_ml_scalar(alpha, delta, RandomStream(21), size=n)
    d = MMLDist(alpha, make_erlang(1, delta ** -alpha))
    stat = kstest(x, lambda v: mml_cdf(d, v)).statistic
    assert stat < _CRIT_1PCT / math.sqrt(n)


def test_scalar_ml_alpha_one_reduction():
    out = sample_ml_scalar(1.0, 2.0, RandomStream(22), size=5)
    ref = 2.0 * RandomStream(22).generator.standard_exponential(5)
    assert np.array_equal(out, ref)


def test_scalar_ml_validation():
    with pytest.raises(ValidationError):
        sample_ml_scalar(0.0, 1.0, RandomStream(1))
    with pytest.raises(ValidationError):
        sample_ml_scalar(0.5, -1.0, RandomStream(1))


def test_two_representations_agree():
    # scalar mixing construction vs product representation, same distribution
    alpha = 0.7
    n = 50_000
    a = sample_ml_scalar(alpha, 1.0, RandomStream(30), size=n)
    b = sample_mml(MMLDist(alpha, make_erlang(1, 1.0)), RandomStream(40), size=n)
    assert ks_2samp(a, b).pvalue > 0.01


# ---------------------------------------------------------------------------
# product representation


def test_product_rep_ks():
    n = 20_000
    for i, (name, d) in enumerate(standard_models()[:3]):
        x = sample_mml(d, RandomStream(300 + i), size=n)
        stat = kstest(x, lambda v: mml_cdf(d, v)).statistic
        assert stat < _CRIT_1PCT / math.sqrt(n), name


def test_sample_mml_alpha_one_bitexact():
    ph = make_erlang(3, 2.0)
    d = MMLDist(1.0, ph)
    rng = RandomStream(55)
    out = sample_mml(d, rng, size=6)
    ref = ph_sample(ph, RandomStream(55).split(2)[0], size=6)
    assert np.array_equal(out, ref)


def test_sample_pmml_identity_and_ks():
    base = MMLDist(0.5, make_erlang(1, 1.0))
    a = sample_pmml(PMMLDist(base, 1.0), RandomStream(66), size=8)
    b = sample_mml(base, RandomStream(66), size=8)
    assert np.array_equal(a, b)

    d = PMMLDist(base, 2.0)
    n = 20_000
    x = sample_pmml(d, RandomStream(67), size=n)
    stat = kstest(x, lambda v: pmml_cdf(d, v)).statistic
    assert stat < _CRIT_1PCT / math.sqrt(n)


# ---------------------------------------------------------------------------
# reproducibility


def test_streams_reproducible():
    d = MMLDist(0.7, make_erlang(2, 1.0))
    for fn in (
        lambda r: sample_positive_stable(0.6, r, size=9),
        lambda r: sample_ml_scalar(0.6, 1.0, r, size=9),
        lambda r: sample_mml(d, r, size=9),
        lambda r: sample_pmml(PMMLDist(d, 2.0), r, size=9),
    ):
        assert np.array_equal(fn(RandomStream(1234)), fn(RandomStream(1234)))


def test_split_streams_differ():
    a, b = RandomStream(9).split(2)
    xa = sample_positive_stable(0.5, a, size=5)
    xb = sample_positive_stable(0.5, b, size=5)
    assert not np.array_equal(xa, xb)


def test_scalar_return_shapes():
    assert isinstance(sample_positive_stable(0.5, RandomStream(2)), float)
    assert isinstance(sample_ml_scalar(0.5, 1.0, RandomStream(2)), float)
    d = MMLDist(0.5, make_erlang(1, 1.0))
    assert isinstance(sample_mml(d, RandomStream(2)), float)
    out = sample_mml(d, RandomStream(2), size=3)
    assert out.shape == (3,)
