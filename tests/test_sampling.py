"""Exact samplers: positive stable law, mixing-law inversion, product
representation, and stream reproducibility."""
import hashlib
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
    simulate_absorption,
)
from conftest import ph_to_sm_spec, standard_models

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


def _stable_reference(alpha, rng, size):
    """The positive stable draw as one log expression: the reference that
    the sampler's in-place form must match bit for bit."""
    g = rng.generator
    n = 1 if size is None else size
    u = g.uniform(0.0, np.pi, n)
    e = g.standard_exponential(n)
    su = np.maximum(np.sin(u), 1e-300)
    sa = np.maximum(np.sin(alpha * u), 1e-300)
    sb = np.maximum(np.sin((1.0 - alpha) * u), 1e-300)
    e = np.maximum(e, 1e-300)
    r = (1.0 - alpha) / alpha
    logs = np.log(sa) + r * np.log(sb) - np.log(su) / alpha - r * np.log(e)
    out = np.exp(logs)
    return float(out[0]) if size is None else out


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.9, 0.999])
def test_stable_bits_match_log_expression(alpha):
    for n in (0, 1, 7, 1000, 40_001):
        got = sample_positive_stable(alpha, RandomStream(n), size=n)
        ref = _stable_reference(alpha, RandomStream(n), n)
        assert got.shape == (n,) and got.tobytes() == ref.tobytes()
    for seed in range(5):
        got = sample_positive_stable(alpha, RandomStream(seed))
        ref = _stable_reference(alpha, RandomStream(seed), None)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()


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


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.9, 0.999])
def test_ml_draw_bits_match_expression(alpha):
    # the in-place draw keeps the expression's operation order, with a
    # scalar scale and with one scale per draw
    from mlphase.sampling import _ml_draw

    for n, delta in ((0, 1.0), (1, 2.5), (40_001, 1.0),
                     (1000, np.linspace(0.5, 2.0, 1000))):
        got = _ml_draw(RandomStream(n).generator, alpha, delta, n)
        g = RandomStream(n).generator
        z, q = g.standard_exponential(n), g.random(n)
        ang = (1.0 - q) * np.pi * alpha
        r = (np.sin(alpha * np.pi) * np.cos(ang) / np.sin(ang)
             - np.cos(alpha * np.pi))
        ref = delta * z * r ** (1.0 / alpha)
        assert got.tobytes() == ref.tobytes()
        assert ml_mixing_quantile(alpha, q).tobytes() == r.tobytes()


def test_mixing_quantile_leaves_levels_unwritten():
    q = np.linspace(0.0, 0.99, 12)
    keep = q.copy()
    ml_mixing_quantile(0.7, q)
    assert np.array_equal(q, keep)


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


# sha256 (first 16 hex digits) of the float64 bytes of 5000 fixed-seed
# draws, taken before the samplers worked in place (numpy 2.4, x86-64);
# the gamma, jump-chain, power and semi-Markov paths must keep every bit
_DRAW_DIGESTS = {
    "mml mix3_a09": "cc8881afab73d7ff",
    "mml cox4_a07": "538a2bc03461f7e6",
    "pmml erlang1_a05 nu 2": "690870186416ab3f",
    "pmml erlang4_a07 nu 1.5": "adb5eaf4259b9791",
    "sm cox4_a07": "4e3534fcd082f538",
    "sm mix3_a09": "838b5ff7d8f6e308",
}


def test_fixed_seed_draws_bit_pinned():
    m = dict(standard_models())
    draws = {
        "mml mix3_a09": sample_mml(m["mix3_a09"], RandomStream(1801),
                                   size=5000),
        "mml cox4_a07": sample_mml(m["cox4_a07"], RandomStream(1802),
                                   size=5000),
        "pmml erlang1_a05 nu 2": sample_pmml(
            PMMLDist(m["erlang1_a05"], 2.0), RandomStream(1803), size=5000),
        "pmml erlang4_a07 nu 1.5": sample_pmml(
            PMMLDist(m["erlang4_a07"], 1.5), RandomStream(1804), size=5000),
        "sm cox4_a07": simulate_absorption(
            ph_to_sm_spec(m["cox4_a07"].ph, 0.7), RandomStream(1805),
            size=5000),
        "sm mix3_a09": simulate_absorption(
            ph_to_sm_spec(m["mix3_a09"].ph, 0.9), RandomStream(1806),
            size=5000),
    }
    got = {k: hashlib.sha256(v.tobytes()).hexdigest()[:16]
           for k, v in draws.items()}
    assert got == _DRAW_DIGESTS
