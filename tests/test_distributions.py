"""MML and power-MML distribution objects: densities, transforms, moments,
tail behavior, serialization."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erfcx, gamma as Gamma, logsumexp

from mlphase import (
    MLParams,
    MMLDist,
    PMMLDist,
    RandomStream,
    ValidationError,
    dist_from_json,
    dist_to_json,
    make_coxian,
    make_erlang,
    make_general,
    make_mixture_erlang,
    ml_eval,
    ml_matrix,
    mml_cdf,
    mml_frac_moment,
    mml_laplace,
    mml_logpdf,
    mml_logsf,
    mml_pdf,
    mml_sf,
    pmml_cdf,
    pmml_logpdf,
    pmml_pdf,
    pmml_sf,
    ph_cdf,
    ph_pdf,
    ph_sample,
    sample_mml,
)
from mlphase.distributions import (
    _coxian_coeffs,
    _coxian_logpdf,
    _coxian_logsf,
    _erlang_logpdf,
    _erlang_logsf,
    _mixture_logpdf,
    _mixture_logsf,
    _power_arg,
)
from mlphase.mlfun import _ml_vec
from conftest import standard_models


def _general_path_pdf(d, x):
    """Direct matrix-function density, bypassing structured dispatch."""
    ph = d.ph
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(xs)
    params = MLParams(d.alpha, d.alpha)
    for i, xi in enumerate(xs):
        E = ml_matrix(params, ph.T * xi ** d.alpha)
        out[i] = xi ** (d.alpha - 1.0) * float(ph.pi @ E @ ph.exit_vector)
    return out


# ---------------------------------------------------------------------------
# reference values


def test_unit_exponential_base_values():
    from oracles import ml_ref_real

    d = MMLDist(0.5, make_erlang(1, 1.0))
    ref_pdf = ml_ref_real(0.5, 0.5, -1.0)
    assert abs(mml_pdf(d, 1.0) - ref_pdf) < 1e-12
    ref_cdf = 1.0 - erfcx(1.0)  # 1 - e^{1} erfc(1)
    assert abs(mml_cdf(d, 1.0) - ref_cdf) < 1e-12


def test_cdf_at_zero():
    for _, d in standard_models():
        assert mml_cdf(d, 0.0) == 0.0
        assert mml_sf(d, 0.0) == 1.0


def test_alpha_one_reduces_to_phase_type():
    xs = np.geomspace(0.05, 20.0, 30)
    for _, d in standard_models():
        d1 = MMLDist(1.0, d.ph)
        assert np.max(np.abs(mml_pdf(d1, xs) - ph_pdf(d.ph, xs))) < 1e-10
        assert np.max(np.abs(mml_cdf(d1, xs) - ph_cdf(d.ph, xs))) < 1e-10


def test_coxian_matches_matrix_path_value():
    d = MMLDist(0.9, make_coxian((1.0, 0.0), (1.0, 2.0)))
    got = mml_pdf(d, 2.0)
    ref = _general_path_pdf(d, 2.0)[0]
    assert abs(got - ref) < 1e-10 * abs(ref)


def test_structured_equals_general_path():
    xs = np.geomspace(0.01, 50.0, 40)
    for name, d in standard_models():
        dg = MMLDist(d.alpha, d.ph.as_general())
        ps, pg = mml_pdf(d, xs), mml_pdf(dg, xs)
        assert np.max(np.abs(ps - pg) / np.maximum(pg, 1e-300)) < 1e-8, name
        ss, sg = mml_sf(d, xs), mml_sf(dg, xs)
        assert np.max(np.abs(ss - sg) / np.maximum(sg, 1e-300)) < 1e-8, name


@pytest.mark.parametrize("weights, shapes, rates", [
    ((0.3, 0.3, 0.4), (3, 3, 3), (10.0, 1.0, 0.1)),
    ((0.5, 0.2, 0.3), (5, 3, 4), (20.0, 1.0, 0.03)),
])
@pytest.mark.parametrize("nu", [1.0, 1.5])
def test_mixture_cores_match_per_component(weights, shapes, rates, nu):
    # the mixture cores make one scalar-ML call per order over all
    # components; the result must be the same bits as one call per component
    alpha, tol = 0.9, 1e-12
    x = np.geomspace(1e-4, 1e4, 101)
    b = np.asarray(weights)[:, None]
    pdf = [_erlang_logpdf(alpha, p, [lam], nu, x, tol)[0]
           for p, lam in zip(shapes, rates)]
    sf = [_erlang_logsf(alpha, [p], [lam], nu, x, tol)[0]
          for p, lam in zip(shapes, rates)]
    assert np.array_equal(
        _mixture_logpdf(alpha, weights, shapes, rates, nu, x, tol),
        logsumexp(pdf, axis=0, b=b))
    assert np.array_equal(
        _mixture_logsf(alpha, weights, shapes, rates, nu, x, tol),
        logsumexp(sf, axis=0, b=b))


@pytest.mark.parametrize("nu", [1.0, 1.5])
def test_coxian_cores_match_term_loop(nu):
    d = dict(standard_models())["cox4_a07"]
    alpha, pi, rates, tol = d.alpha, d.ph.pi, d.ph.params["rates"], 1e-12
    c = nu * alpha
    x = np.geomspace(1e-4, 1e4, 101)
    A, D = _coxian_coeffs(pi, rates)
    pdf = np.zeros(len(x))
    sf = np.zeros(len(x))
    for m, lam in enumerate(rates):
        w = -_power_arg(x, c, lam).astype(complex)
        if A[m] != 0.0:
            pdf += A[m] * _ml_vec(alpha, alpha, w, 0, tol).real
        if D[m] != 0.0:
            sf += D[m] * _ml_vec(alpha, 1.0, w, 0, tol).real
    assert np.array_equal(
        _coxian_logpdf(alpha, pi, rates, nu, x, tol),
        math.log(nu) + (c - 1.0) * np.log(x) + np.log(np.maximum(pdf, 0.0)))
    assert np.array_equal(_coxian_logsf(alpha, pi, rates, nu, x, tol),
                          np.log(np.clip(sf, 0.0, 1.0)))


def test_coxian_near_coalescent_rates_fall_back():
    # gap below 1e-6 * max rate: closed form would divide by ~0, so the
    # dispatch must route through the matrix path and still be accurate
    d = MMLDist(0.8, make_coxian((0.6, 0.4, 0.0), (1.0, 1.0 + 1e-9, 3.0)))
    xs = np.array([0.5, 1.0, 5.0])
    got = mml_pdf(d, xs)
    ref = _general_path_pdf(d, xs)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - ref) / ref) < 1e-10


# ---------------------------------------------------------------------------
# normalization and consistency invariants


def test_pdf_normalization():
    for name, d in standard_models():
        body, _ = quad(lambda x: mml_pdf(d, x), 0.0, 30.0, limit=300)
        total = body + mml_sf(d, 30.0)
        assert abs(total - 1.0) < 1e-6, name


def test_cdf_derivative_matches_pdf():
    h = 1e-6
    xs = np.geomspace(0.01, 100.0, 30)
    for name, d in standard_models():
        fd = (mml_cdf(d, xs + h) - mml_cdf(d, xs - h)) / (2.0 * h)
        pdf = mml_pdf(d, xs)
        assert np.all(np.abs(fd - pdf) < 1e-4 * pdf + 1e-9), name


def test_sf_complements_cdf():
    xs = np.geomspace(0.01, 100.0, 30)
    for _, d in standard_models():
        assert np.max(np.abs(mml_sf(d, xs) + mml_cdf(d, xs) - 1.0)) < 1e-12


def test_log_forms_match():
    xs = np.geomspace(0.1, 50.0, 20)
    for _, d in standard_models():
        assert np.max(np.abs(np.exp(mml_logpdf(d, xs)) - mml_pdf(d, xs))) < 1e-12
        assert np.max(np.abs(np.exp(mml_logsf(d, xs)) - mml_sf(d, xs))) < 1e-12


def test_log_survival_deep_tail():
    # direct log-survival must stay finite and monotone far beyond the point
    # where 1 - cdf would lose all precision
    d = MMLDist(0.5, make_erlang(1, 1.0))
    xs = np.geomspace(1e2, 1e10, 9)
    ls = mml_logsf(d, xs)
    assert np.all(np.isfinite(ls))
    assert np.all(np.diff(ls) < 0.0)
    # scalar case: sf(x) ~ x^{-alpha}/Gamma(1-alpha)
    ref = -0.5 * np.log(xs[-1]) - math.log(Gamma(0.5))
    assert abs(ls[-1] - ref) < 1e-3


# ---------------------------------------------------------------------------
# Laplace transform


def test_laplace_values():
    d = MMLDist(0.6, make_erlang(1, 1.0))
    assert abs(mml_laplace(d, 0.0) - 1.0) < 1e-12
    assert abs(mml_laplace(d, 2.0) - 1.0 / (1.0 + 2.0 ** 0.6)) < 1e-12
    with pytest.raises(ValidationError):
        mml_laplace(d, -1.0)


def test_laplace_matches_quadrature():
    for name, d in standard_models():
        for u in (0.1, 1.0, 10.0):
            val, _ = quad(
                lambda x: math.exp(-u * x) * mml_pdf(d, x), 0.0, np.inf, limit=400
            )
            assert abs(val - mml_laplace(d, u)) < 1e-5, (name, u)


# ---------------------------------------------------------------------------
# fractional moments


def test_frac_moment_values():
    d = MMLDist(0.5, make_erlang(1, 1.0))
    ref = Gamma(0.5) * Gamma(1.5) / Gamma(0.75)
    assert abs(mml_frac_moment(d, 0.25) - ref) < 1e-9
    assert abs(mml_frac_moment(d, 1e-8) - 1.0) < 1e-6


def test_frac_moment_domain():
    d = MMLDist(0.9, make_erlang(1, 1.0))
    with pytest.raises(ValidationError):
        mml_frac_moment(d, 0.9)  # rho must stay strictly below alpha
    with pytest.raises(ValidationError):
        mml_frac_moment(d, 1.5)
    with pytest.raises(ValidationError):
        mml_frac_moment(d, 0.0)


def test_frac_moment_against_monte_carlo():
    d = MMLDist(0.9, make_mixture_erlang((0.4, 0.6), (2, 1), (3.0, 0.5)))
    rho = 0.45
    n = 200_000
    x = sample_mml(d, RandomStream(77), size=n)
    vals = x ** rho
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(mml_frac_moment(d, rho) - vals.mean()) < 3.0 * se


# ---------------------------------------------------------------------------
# tail behavior


def test_tail_regular_variation():
    for alpha, p, lam in ((0.5, 1, 1.0), (0.7, 4, 2.0)):
        d = MMLDist(alpha, make_erlang(p, lam))
        x1, x2 = 1e6, 4e6
        slope = (mml_logsf(d, x2) - mml_logsf(d, x1)) / math.log(x2 / x1)
        assert abs(slope + alpha) < 0.02


def test_tail_index_property():
    d = MMLDist(0.5, make_erlang(1, 1.0))
    assert d.tail_index == 0.5
    assert PMMLDist(d, 1.0).tail_index == 0.5
    assert abs(PMMLDist(d, 4.0).tail_index - 2.0) < 1e-15


def test_pmml_tail_slope():
    d = PMMLDist(MMLDist(0.5, make_erlang(1, 1.0)), 2.0)
    x1, x2 = 1e3, 4e3
    ls1 = float(np.log(pmml_sf(d, x1)))
    ls2 = float(np.log(pmml_sf(d, x2)))
    slope = (ls2 - ls1) / math.log(x2 / x1)
    assert abs(slope + d.tail_index) < 0.02


# ---------------------------------------------------------------------------
# power transform


def test_pmml_surface_is_mml_surface():
    import mlphase

    for name in ("pdf", "logpdf", "sf", "logsf", "cdf"):
        assert getattr(mlphase, f"pmml_{name}") is getattr(mlphase, f"mml_{name}")


def test_pmml_identity_nu_one():
    base = MMLDist(0.7, make_erlang(2, 1.5))
    d = PMMLDist(base, 1.0)
    xs = np.geomspace(0.05, 20.0, 20)
    assert np.max(np.abs(pmml_pdf(d, xs) - mml_pdf(base, xs))) < 1e-14
    assert np.max(np.abs(pmml_cdf(d, xs) - mml_cdf(base, xs))) < 1e-14


def test_pmml_change_of_variables():
    base = MMLDist(0.6, make_erlang(2, 1.0))
    d = PMMLDist(base, 3.0)
    xs = np.geomspace(0.2, 3.0, 15)
    direct = pmml_pdf(d, xs)
    chained = 3.0 * xs ** 2.0 * mml_pdf(base, xs ** 3.0)
    assert np.max(np.abs(direct - chained) / chained) < 1e-10
    assert np.max(np.abs(pmml_cdf(d, xs) - mml_cdf(base, xs ** 3.0))) < 1e-14
    assert pmml_cdf(d, 0.0) == 0.0


def test_pmml_normalization():
    d = PMMLDist(MMLDist(0.5, make_erlang(2, 1.0)), 3.0)
    body, _ = quad(lambda x: pmml_pdf(d, x), 0.0, 20.0, limit=300)
    total = body + pmml_sf(d, 20.0)
    assert abs(total - 1.0) < 1e-6


def test_vehicle_claim_scale_model():
    # single-phase fitted model: density at 1 collapses to
    # nu * lam * E_{alpha,alpha}(-lam)
    alpha, lam, nu = 0.3025553, 0.08293046, 6.941576
    d = PMMLDist(MMLDist(alpha, make_erlang(1, lam)), nu)
    ref = nu * lam * float(ml_eval(MLParams(alpha, alpha), -lam).real)
    assert abs(pmml_pdf(d, 1.0) - ref) < 1e-12 * ref
    assert abs(1.0 / d.tail_index - 0.4761427) < 1e-6
    lp = pmml_logpdf(d, 1.0)
    assert abs(math.exp(lp) - ref) < 1e-12


# ---------------------------------------------------------------------------
# validation and serialization


def test_parameter_validation():
    ph = make_erlang(1, 1.0)
    with pytest.raises(ValidationError):
        MMLDist(0.0, ph)
    with pytest.raises(ValidationError):
        MMLDist(1.2, ph)
    with pytest.raises(ValidationError):
        MMLDist(float("nan"), ph)
    base = MMLDist(0.5, ph)
    with pytest.raises(ValidationError):
        PMMLDist(base, 0.0)
    with pytest.raises(ValidationError):
        PMMLDist(base, -2.0)
    with pytest.raises(ValidationError):
        mml_pdf(base, 0.0)  # density defined for x > 0
    with pytest.raises(ValidationError):
        mml_cdf(base, -1.0)


def test_serialization_round_trip():
    models = [d for _, d in standard_models()]
    models.append(PMMLDist(MMLDist(0.4, make_erlang(2, 2.0)), 2.5))
    for d in models:
        back = dist_from_json(dist_to_json(d))
        xs = np.array([0.5, 2.0])
        if isinstance(d, PMMLDist):
            assert isinstance(back, PMMLDist)
            assert np.array_equal(pmml_pdf(back, xs), pmml_pdf(d, xs))
        else:
            assert isinstance(back, MMLDist)
            assert np.array_equal(mml_pdf(back, xs), mml_pdf(d, xs))


def test_doc_shape():
    d = PMMLDist(MMLDist(0.4, make_erlang(2, 2.0)), 2.5)
    doc = json.loads(dist_to_json(d))
    assert set(doc) == {"alpha", "nu", "ph"}
    assert doc["alpha"] == 0.4 and doc["nu"] == 2.5
    assert doc["ph"]["structure"] == "erlang"
    # nu exactly 1 deserializes to the base class
    doc["nu"] = 1.0
    assert isinstance(dist_from_json(json.dumps(doc)), MMLDist)


# ---------------------------------------------------------------------------
# property-based checks


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.3, 1.0),
    lam=st.floats(0.1, 10.0),
    p=st.integers(1, 4),
    nu=st.floats(0.5, 5.0),
)
def test_distribution_function_properties(alpha, lam, p, nu):
    d = PMMLDist(MMLDist(alpha, make_erlang(p, lam)), nu)
    xs = np.array([0.05, 0.3, 1.0, 4.0, 20.0])
    cd = pmml_cdf(d, xs)
    assert np.all((cd >= 0.0) & (cd <= 1.0))
    assert np.all(np.diff(cd) >= 0.0)
    assert np.all(pmml_pdf(d, xs) >= 0.0)
    sf = pmml_sf(d, xs)
    assert np.max(np.abs(sf + cd - 1.0)) < 1e-10
