"""MML and power-MML distribution objects: densities, transforms, moments,
tail behavior, serialization."""
import json
import math
import warnings

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
from mlphase import distributions
from mlphase.distributions import (
    _erlang_logpdf,
    _erlang_logsf,
    _logsumexp,
)
from conftest import standard_models


def _general_path(d, x, survival=False):
    """Direct matrix-function density (or survival), one ml_matrix call per
    point, bypassing structured dispatch."""
    ph, nu = d.ph, getattr(d, "nu", 1.0)
    c = nu * d.alpha
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(xs)
    if survival:
        params, vec = MLParams(d.alpha, 1.0), np.ones(ph.dim)
    else:
        params, vec = MLParams(d.alpha, d.alpha), ph.exit_vector
    for i, xi in enumerate(xs):
        out[i] = float(ph.pi @ ml_matrix(params, ph.T * xi ** c) @ vec)
        if not survival:
            out[i] *= nu * xi ** (c - 1.0)
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
    ref = _general_path(d, 2.0)[0]
    assert abs(got - ref) < 1e-10 * abs(ref)


def test_structured_equals_general_path():
    xs = np.geomspace(0.01, 50.0, 40)
    for name, d in standard_models():
        dg = MMLDist(d.alpha, d.ph.as_general())
        ps, pg = mml_pdf(d, xs), mml_pdf(dg, xs)
        assert np.max(np.abs(ps - pg) / np.maximum(pg, 1e-300)) < 1e-8, name
        ss, sg = mml_sf(d, xs), mml_sf(dg, xs)
        assert np.max(np.abs(ss - sg) / np.maximum(sg, 1e-300)) < 1e-8, name


def _untagged_models():
    """The standard models stripped of their tags, plus an Erlang block whose
    initial mass sits in its middle phases, a uniform bidiagonal block with
    exits from every phase (geometric Erlang weights), and an Erlang block
    beside a block that is not uniform bidiagonal (both evaluation forms
    joined)."""
    models = [(name, MMLDist(d.alpha, d.ph.as_general()))
              for name, d in standard_models()]
    mid = make_general((0.0, 0.6, 0.4, 0.0), make_erlang(4, 2.0).T)
    leaky = make_general((0.5, 0.5, 0.0), [[-2.0, 1.0, 0.0],
                                           [0.0, -2.0, 1.0],
                                           [0.0, 0.0, -2.0]])
    joined = make_general((0.3, 0.2, 0.5, 0.0), [[-3.0, 3.0, 0.0, 0.0],
                                                 [0.0, -3.0, 0.0, 0.0],
                                                 [0.0, 0.0, -2.0, 1.0],
                                                 [0.0, 0.0, 0.5, -1.5]])
    return models + [("erlang4_mid_a07", MMLDist(0.7, mid)),
                     ("leaky3_a08", MMLDist(0.8, leaky)),
                     ("erlang2_full2_a06", MMLDist(0.6, joined))]


# cox4_a09 starts in no phase with an exit (pi t = 0), so its density at
# small x is a near-total cancellation among eigenterms: both the batched
# eigenbasis sum and ml_matrix's eigen branch drift from an mpmath series
# by 1e-11 to 3e-8 at x = 1e-6
_CANCELS = pytest.mark.xfail(strict=True, reason="eigenterm cancellation")


@pytest.mark.parametrize("survival", [False, True], ids=["pdf", "sf"])
@pytest.mark.parametrize("nu", [1.0, 1.5])
@pytest.mark.parametrize("name, d", _untagged_models())
def test_general_form_matches_per_point_matrix(name, d, nu, survival,
                                               request):
    # evaluation from the blocks of T (Erlang mixtures for uniform bidiagonal
    # blocks, the batched eigenbasis for the rest) must agree with one
    # ml_matrix per point
    if name == "cox4_a09" and not survival:
        request.applymarker(_CANCELS)
    if nu != 1.0:
        d = PMMLDist(d, nu)
    xs = np.geomspace(1e-6, 1e6, 61)
    got = (mml_sf if survival else mml_pdf)(d, xs)
    ref = _general_path(d, xs, survival)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


def test_general_form_batches_erlang_blocks(monkeypatch):
    # only a block with neither a uniform bidiagonal form nor a usable
    # eigenbasis may reach the per-point matrix evaluator
    import mlphase.distributions as dist

    class PerPoint(Exception):
        pass

    def per_point(*args, **kwargs):
        raise PerPoint

    monkeypatch.setattr(dist, "ml_matrix", per_point)
    xs = np.geomspace(1e-3, 1e3, 25)
    for name, d in _untagged_models():
        for fn in (mml_pdf, mml_sf):
            assert np.all(np.isfinite(fn(d, xs))), name
    defective = make_general((1.0, 0.0, 0.0), [[-1.0, 0.5, 0.0],
                                               [0.0, -1.0, 0.9],
                                               [0.0, 0.0, -1.0]])
    with pytest.raises(PerPoint):
        mml_pdf(MMLDist(0.7, defective), xs)


@pytest.mark.parametrize("nu", [1.0, 1.5])
@pytest.mark.parametrize("name, d", standard_models())
def test_tag_changes_no_number(name, d, nu):
    # the law depends only on (pi, T), so the structure tag must not change a
    # single bit
    g = MMLDist(d.alpha, d.ph.as_general())
    if nu != 1.0:
        d, g = PMMLDist(d, nu), PMMLDist(g, nu)
    xs = np.geomspace(1e-6, 1e6, 61)
    for fn in (mml_pdf, mml_logpdf, mml_sf, mml_logsf):
        assert np.array_equal(fn(d, xs), fn(g, xs)), fn.__name__


@pytest.mark.parametrize("name, d", standard_models() + _untagged_models())
def test_survival_at_most_one(name, d):
    # near x = 0 the survival terms sum to 1 and may round above it
    xs = np.geomspace(1e-14, 1e-2, 61)
    assert np.all(mml_logsf(d, xs) <= 0.0)
    assert np.all(mml_sf(d, xs) <= 1.0)


@pytest.mark.parametrize("tagged", [True, False], ids=["tagged", "untagged"])
def test_tiny_rates_rescale_the_law(tagged):
    # T -> s T rescales X by s^(-1/alpha). Coxian rates only 2e-15 apart in
    # absolute terms are still distinct, so the law must not be read as an
    # Erlang block
    alpha, s = 0.7, 1e-15
    small = make_coxian((1.0, 0.0), (s, 3.0 * s))
    if not tagged:
        small = small.as_general()
    d = MMLDist(alpha, make_coxian((1.0, 0.0), (1.0, 3.0)))
    ds = MMLDist(alpha, small)
    c = s ** (1.0 / alpha)
    xs = np.geomspace(1e-2, 1e2, 21)
    want, got = c * mml_pdf(d, xs), mml_pdf(ds, xs / c)
    assert np.max(np.abs(got - want) / want) < 1e-10
    want, got = mml_sf(d, xs), mml_sf(ds, xs / c)
    assert np.max(np.abs(got - want) / want) < 1e-10


@pytest.mark.parametrize("name, d", [
    ("erlang4_a07", MMLDist(0.7, make_erlang(4, 2.0))),
    ("mix3_a09", dict(standard_models())["mix3_a09"]),
])
def test_untagged_far_tail_finite(name, d):
    # (b w)^s overflows while E^(s)(a w) underflows; the untagged form must
    # give the tagged values, not inf * 0 = nan
    xs = np.array([1e150, 1e250, 1e300, 1.7e308])
    g = MMLDist(d.alpha, d.ph.as_general())
    for fn in (mml_sf, mml_logsf):
        want, got = fn(d, xs), fn(g, xs)
        assert np.all(np.isfinite(got)), (name, fn)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (name, fn)
    assert np.array_equal(mml_logpdf(g, xs), mml_logpdf(d, xs)), name


@pytest.mark.parametrize("weights, shapes, rates", [
    ((0.3, 0.3, 0.4), (3, 3, 3), (10.0, 1.0, 0.1)),
    ((0.5, 0.2, 0.3), (5, 3, 4), (20.0, 1.0, 0.03)),
])
@pytest.mark.parametrize("nu", [1.0, 1.5])
def test_mixture_cores_match_per_component(weights, shapes, rates, nu):
    # the Erlang cores make one scalar-ML call per shape (density) or per
    # order (survival) over all components; the mixture they join to must be
    # the same bits as one call per component
    alpha, tol = 0.9, 1e-12
    x = np.geomspace(1e-4, 1e4, 101)
    b = np.asarray(weights)[:, None]
    pdf = [_erlang_logpdf(alpha, [p], [lam], nu, x, tol)[0]
           for p, lam in zip(shapes, rates)]
    sf = [_erlang_logsf(alpha, [p], [lam], nu, x, tol)[0]
          for p, lam in zip(shapes, rates)]
    assert np.array_equal(
        _logsumexp(_erlang_logpdf(alpha, shapes, rates, nu, x, tol), b),
        logsumexp(pdf, axis=0, b=b))
    assert np.array_equal(
        _logsumexp(_erlang_logsf(alpha, shapes, rates, nu, x, tol), b),
        logsumexp(sf, axis=0, b=b))


@pytest.mark.parametrize("p", [1, 3, 9])
def test_score_block_slices_are_independent(p):
    # the score block runs over the points in slices; each point's scores
    # must not depend on which slice it lands in or on its neighbours
    alpha, nu, rates = 0.9, 1.3, [10.0, 1.0, 0.1]
    x = np.geomspace(1e-4, 1e6, 301)
    shapes = [p] * len(rates)
    _, D, a = _erlang_logpdf(alpha, shapes, rates, nu, x, 1e-12, score=True)
    for lo in range(0, len(x), 37):
        sl = slice(lo, lo + 37)
        _, Ds, as_ = _erlang_logpdf(alpha, shapes, rates, nu, x[sl], 1e-12,
                                    score=True)
        assert np.allclose(Ds, D[:, sl], rtol=1e-13, atol=0.0)
        assert np.allclose(as_, a[:, sl], rtol=1e-13, atol=1e-13,
                           equal_nan=True)


@pytest.mark.parametrize("nu", [1.0, 1.5])
@pytest.mark.parametrize("name, d", [(n, d) for n, d in standard_models()
                                     if len(d.ph._blocks[0])])
def test_logsumexp_matches_scipy(name, d, nu):
    # the mixture cores join their components with a numpy max-shift
    # logsumexp; it must give scipy's values on every component table
    weights, shapes, rates, _ = d.ph._blocks
    x = np.geomspace(1e-6, 1e6, 61)
    b = np.asarray(weights)[:, None]
    pdf = _erlang_logpdf(d.alpha, shapes, rates, nu, x, 1e-12)
    sf = _erlang_logsf(d.alpha, shapes, rates, nu, x, 1e-12)
    for comp, w in ((pdf, b), (sf, b), (pdf, None)):
        want = logsumexp(comp, axis=0, b=w)
        got = _logsumexp(comp, w)
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        assert np.all(np.abs(got - want)[np.isfinite(want)] <= 1e-15)


def test_logsumexp_of_no_terms_is_minus_inf():
    # a column whose terms are all -inf, or carry zero weight, gives -inf
    # without a floating-point warning
    a = np.full((3, 4), -np.inf)
    a[1, 2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_logsumexp(a), [-np.inf, -np.inf, 0.0, -np.inf])
        assert np.all(_logsumexp(a, np.array([[0.3], [0.0], [0.7]]))
                      == -np.inf)


def test_coxian_near_coalescent_rates_fall_back():
    # gap below 1e-6 * max rate: the eigenbasis is too ill-conditioned to
    # use, so the per-point matrix path must serve and still be accurate
    d = MMLDist(0.8, make_coxian((0.6, 0.4, 0.0), (1.0, 1.0 + 1e-9, 3.0)))
    xs = np.array([0.5, 1.0, 5.0])
    got = mml_pdf(d, xs)
    ref = _general_path(d, xs)
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


# the Erlang survival against tests/oracles, on each side of the choice
# between mlfun._survival_sum and one scalar-ML call per order
_SF_SHAPES = (1, 2, 3, 5, 8)


@pytest.mark.parametrize("alpha, shapes", [
    (0.1, _SF_SHAPES), (0.3, _SF_SHAPES), (0.5, _SF_SHAPES),
    (0.7, _SF_SHAPES), (0.9, _SF_SHAPES), (0.99, _SF_SHAPES + (12,)),
    (0.999, _SF_SHAPES), (0.9995, _SF_SHAPES), (0.9999, (1, 3, 8)),
    # the per-order core's off-pole contour cancels at u = 31.6: 9.3e-12 at
    # p = 1, 1.05e-11 at p = 3. From u = 1000 up the oracle is itself
    # 4.6e-12 off: it reads alpha through its decimal repr, 4.6e-17 from the
    # float64 alpha, and the tail moves by that over 1 - alpha
    pytest.param(0.99999, (1, 3), marks=pytest.mark.xfail(
        strict=True, reason="per-order core near alpha = 1")),
])
def test_erlang_survival_matches_oracle(alpha, shapes, monkeypatch):
    from oracles import erlang_sf_ref

    served = []
    one_sum = distributions._survival_sum
    monkeypatch.setattr(distributions, "_survival_sum",
                        lambda a, u, p, tol: served.append(p) or one_sum(
                            a, u, p, tol))
    x = np.geomspace(1e-6, 1e6, 25) ** (1.0 / alpha)
    # leave out the oracle's costly band of the series, 150 < u^(1/alpha)
    # <= 500; u = x^alpha is the argument _erlang_logsf forms
    x = x[(x <= 150.0) | (x > 500.0)]
    u = x ** alpha
    want = np.array([erlang_sf_ref(alpha, shapes, float(v)) for v in u]).T
    for p, ref in zip(shapes, want):
        got = np.exp(_erlang_logsf(alpha, [p], [1.0], 1.0, x, 1e-12)[0])
        err = np.abs(got - ref) / ref
        assert err.max() < 1e-12, (p, u[err.argmax()], err.max())
    # the one-sum path serves exactly the region this sweep certifies
    assert served == [p for p in shapes if p <= 8 and alpha <= 0.9995]


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999,
                                   0.9995])
def test_erlang_cdf_relative_near_zero(alpha):
    # near x = 0 the survival rounds to 1; 1 - S = -expm1(log S) keeps its
    # relative accuracy. Up to p = 6 it meets 1e-12; at p = 7 and 8 its sum
    # cancels by up to Gamma(1 + alpha p) near alpha = 1 (1.3e-11 measured)
    from oracles import erlang_cdf_series

    x = np.geomspace(1e-8, 0.5, 25) ** (1.0 / alpha)
    u = x ** alpha
    for p in _SF_SHAPES:
        got = -np.expm1(_erlang_logsf(alpha, [p], [1.0], 1.0, x, 1e-12)[0])
        want = np.array([erlang_cdf_series(alpha, p, float(v)) for v in u])
        err = np.abs(got - want) / want
        assert err.max() < (1e-12 if p <= 6 else 2e-11), (p, err.max())


def test_mml_cdf_relative_near_zero():
    # the law's cdf is -expm1(log S), not 1 - S: at x = 1e-4 and 1e-3 the
    # difference 1 - S of MML(0.7, Erlang(4, 2)) was off by 2.8e-7 and 4.8e-9
    from oracles import erlang_cdf_series

    x = np.array([1e-4, 1e-3])
    got = mml_cdf(MMLDist(0.7, make_erlang(4, 2.0)), x)
    want = np.array([erlang_cdf_series(0.7, 4, 2.0 * v ** 0.7) for v in x])
    assert np.max(np.abs(got - want) / want) < 1e-12


def test_alpha_one_survival_log_form():
    # at alpha = 1 the Erlang(2, 1) survival is e^-x (1 + x); its log must
    # hold where e^-x underflows
    xs = np.array([745.0, 800.0])
    want = -xs + np.log1p(xs)
    got = mml_logsf(MMLDist(1.0, make_erlang(2, 1.0)), xs)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_erlang_far_tail_leading_term():
    # far in the tail the survival is pi (-T)^-1 1 x^-alpha / Gamma(1 -
    # alpha) to relative order x^-alpha: 2 x^-0.7 / Gamma(0.3) here
    xs = np.array([1e100, 1e150, 1e250])
    want = 2.0 * xs ** -0.7 / Gamma(0.3)
    got = mml_sf(MMLDist(0.7, make_erlang(4, 2.0)), xs)
    assert np.all(np.abs(got - want) <= 1e-12 * want)


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
