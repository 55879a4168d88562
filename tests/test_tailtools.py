"""Tail diagnostics: Hill curves, exp/log transforms, uniform QQ data."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from mlphase.distributions import MMLDist, PMMLDist, pmml_cdf
from mlphase.errors import ValidationError
from mlphase.phasetype import make_erlang
from mlphase.rng import RandomStream
from mlphase.sampling import sample_pmml
from mlphase.tailtools import (
    DataSeries,
    exp_transform,
    hill_curve,
    log_back_transform,
    qq_uniform,
)


# ---------------------------------------------------------------- Hill curve


def test_hill_pinned_triple():
    # data {1, e, e^2}: log-spacings are exactly 1
    curve = hill_curve([1.0, np.e, np.e**2])
    assert curve.shape == (2, 2)
    assert np.allclose(curve[:, 0], [1.0, 2.0])
    assert abs(curve[0, 1] - 1.0) < 1e-12
    assert abs(curve[1, 1] - 1.5) < 1e-12


def test_hill_minimum_size():
    with pytest.raises(ValidationError):
        hill_curve([1.0, 2.0])
    assert hill_curve([1.0, 2.0, 3.0]).shape == (2, 2)


def test_hill_tie_emits_zero():
    # duplicated top order statistic: zero log-spacing, not NaN
    curve = hill_curve([1.0, 2.0, 4.0, 4.0])
    assert curve[0, 1] == 0.0
    assert np.all(np.isfinite(curve))


def _hill_reference(x):
    """H_k by the formula with full-size temporaries: the reference that
    hill_curve's in-place form must match bit for bit."""
    ls = np.log(np.sort(np.asarray(x, dtype=float)))
    n = ls.size
    top = np.cumsum(ls[::-1][: n - 1])
    k = np.arange(1, n)
    return np.column_stack((k.astype(float), top / k - ls[n - 1 - k]))


@pytest.mark.parametrize("x", [
    [1.0, np.e, np.e ** 2],
    [3.0, 3.0, 3.0],
    [2.0, 0.5, 7.0],
    [1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 0.5, 0.5],
    np.round(np.random.default_rng(5).pareto(1.5, 20_001) + 1.0, 2),
    sample_pmml(PMMLDist(MMLDist(0.5, make_erlang(1, 1.0)), 2.0),
                RandomStream(6), size=50_000),
], ids=["n3", "n3-ties", "n3-unsorted", "ties", "rounded-pareto", "pmml"])
def test_hill_bits_match_formula(x):
    got = hill_curve(x)
    ref = _hill_reference(x)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_hill_k_column():
    n = 40
    curve = hill_curve(np.linspace(1.0, 9.0, n))
    assert np.array_equal(curve[:, 0], np.arange(1, n, dtype=float))


def test_hill_accepts_series_and_array():
    x = np.array([1.5, 3.0, 7.0, 2.0])
    a = hill_curve(x)
    b = hill_curve(DataSeries(x, label="claims"))
    assert np.array_equal(a, b)


def test_hill_scale_invariance_fixed():
    rng = np.random.default_rng(61)
    x = np.exp(rng.normal(size=200))
    base = hill_curve(x)
    for c in (2.0, 1e-3, 7.5e4):
        scaled = hill_curve(c * x)
        assert np.array_equal(scaled[:, 0], base[:, 0])
        # invariant holds exactly in exact arithmetic; float logs leave dust
        assert np.max(np.abs(scaled[:, 1] - base[:, 1])) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=3, max_size=25),
    st.floats(min_value=1e-2, max_value=1e2),
)
def test_hill_scale_invariance_property(vals, c):
    x = np.asarray(vals)
    a = hill_curve(x)
    b = hill_curve(c * x)
    assert np.max(np.abs(a[:, 1] - b[:, 1])) < 1e-10


def test_hill_pareto_recovers_index():
    # standard Pareto with tail index 2 has extreme value index 1/2
    rng = np.random.default_rng(20240817)
    x = rng.random(100_000) ** (-0.5)
    curve = hill_curve(x)
    row = curve[999]
    assert row[0] == 1000.0
    assert 0.42 < row[1] < 0.58


def test_hill_power_mml_tail():
    # power transform with nu=2 of the alpha=0.5 unit model: tail index 1
    d = PMMLDist(MMLDist(0.5, make_erlang(1, 1.0)), 2.0)
    x = sample_pmml(d, RandomStream(8321), size=100_000)
    h = hill_curve(x)[999, 1]
    assert 0.85 < h < 1.15


# ---------------------------------------------------------------- transforms


def test_exp_transform_values():
    out = exp_transform(DataSeries(np.array([1.0, 2.0]), label="log scale"))
    assert out.label == "log scale"
    assert abs(out.values[0] - 1.7182818) < 1e-6
    assert abs(out.values[0] - np.expm1(1.0)) < 1e-15


def test_exp_transform_zero_boundary():
    out = exp_transform(np.array([0.0, 1.0]))
    assert out.values[0] == 0.0


def test_exp_transform_overflow_lists_indices():
    x = np.ones(5)
    x[3] = 701.0
    with pytest.raises(ValidationError, match=r"\[3\]"):
        exp_transform(x)


def test_exp_transform_overflow_index_cap():
    x = np.full(40, 800.0)
    with pytest.raises(ValidationError, match="and 20 more"):
        exp_transform(x)


def test_exp_transform_rejects():
    with pytest.raises(ValidationError):
        exp_transform(np.array([1.0, np.nan]))
    with pytest.raises(ValidationError):
        exp_transform(np.array([-0.5, 1.0]))
    with pytest.raises(ValidationError):
        exp_transform(np.array([]))


def test_log_back_requires_positive():
    with pytest.raises(ValidationError):
        log_back_transform(np.array([0.0, 1.0]))


def test_transform_round_trip():
    rng = np.random.default_rng(62)
    x = rng.uniform(1e-6, 600.0, size=1000)
    back = log_back_transform(exp_transform(x))
    assert np.max(np.abs(back.values - x)) < 1e-12
    y = rng.uniform(1e-9, 1e12, size=1000)
    there = exp_transform(log_back_transform(y))
    assert np.max(np.abs(there.values - y) / y) < 1e-12


def test_transform_preserves_order():
    rng = np.random.default_rng(63)
    x = rng.uniform(0.1, 50.0, size=300)
    y = exp_transform(x).values
    assert np.array_equal(np.argsort(x), np.argsort(y))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-6, max_value=600.0))
def test_transform_round_trip_property(x):
    back = log_back_transform(exp_transform(np.array([x, x + 1.0])))
    assert abs(back.values[0] - x) < 1e-12


# ---------------------------------------------------------------- QQ data


def _unit_model(alpha=0.5, nu=1.0):
    return PMMLDist(MMLDist(alpha, make_erlang(1, 1.0)), nu)


def test_qq_single_point():
    d = _unit_model()
    pairs = qq_uniform(d, [3.0])
    assert pairs.shape == (1, 2)
    assert pairs[0, 0] == 0.5
    assert pairs[0, 1] == pmml_cdf(d, 3.0)


def test_qq_sorts_internally():
    d = _unit_model()
    a = qq_uniform(d, [5.0, 1.0, 3.0])
    b = qq_uniform(d, [1.0, 3.0, 5.0])
    assert np.array_equal(a, b)
    assert np.all(np.diff(a[:, 1]) > 0)


def test_qq_quantile_grid_diagonal():
    # evaluating the cdf on its own quantile grid must return the grid
    d = _unit_model()
    qs = np.arange(1, 10) / 10.0
    xs = [brentq(lambda x: pmml_cdf(d, x) - q, 1e-12, 1e6, xtol=1e-13)
          for q in qs]
    pairs = qq_uniform(d, xs)
    assert np.allclose(pairs[:, 0], qs, atol=1e-15)
    assert np.max(np.abs(pairs[:, 1] - qs)) < 1e-9


def test_qq_self_sample_near_diagonal():
    d = PMMLDist(MMLDist(0.7, make_erlang(2, 2.0)), 1.5)
    x = sample_pmml(d, RandomStream(8400), size=10_000)
    pairs = qq_uniform(d, x)
    assert np.max(np.abs(pairs[:, 1] - pairs[:, 0])) < 0.03


# ---------------------------------------------------------------- container


def test_dataseries_validation():
    with pytest.raises(ValidationError):
        DataSeries(np.array([]))
    with pytest.raises(ValidationError):
        DataSeries(np.array([1.0, 0.0]))
    with pytest.raises(ValidationError):
        DataSeries(np.array([1.0, -2.0]))
    with pytest.raises(ValidationError):
        DataSeries(np.array([1.0, np.inf]))
    with pytest.raises(ValidationError):
        DataSeries(np.array([np.nan]))


def test_dataseries_normalizes_shape():
    s = DataSeries(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert s.values.shape == (4,)
    assert s.label == ""
