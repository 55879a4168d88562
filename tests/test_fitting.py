"""Likelihood assembly and the multi-start L-BFGS-B fitter."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlphase import (
    FitConfig,
    MMLDist,
    PMMLDist,
    RandomStream,
    ValidationError,
    dist_from_json,
    fit_pmml,
    make_erlang,
    make_mixture_erlang,
    nll,
    pmml_logpdf,
    profile_shapes,
    sample_mml,
    sample_pmml,
)
from mlphase import fitting
from mlphase.tailtools import DataSeries
from mlphase.fitting import _decode, _layout, _logit, _nll_at, _objective


def _expconfig(**kw):
    base = dict(structure="exponential", fit_alpha=False, fit_nu=False)
    base.update(kw)
    return FitConfig(**base)


# ---------------------------------------------------------------------------
# negative log-likelihood


def test_nll_single_exponential_point():
    model = PMMLDist(MMLDist(1.0, make_erlang(1, 1.0)), 1.0)
    assert abs(nll(model, [1.0]) - 1.0) < 1e-12


def test_nll_additivity():
    model = PMMLDist(MMLDist(0.7, make_erlang(2, 1.5)), 1.3)
    data = np.array([0.4, 1.1, 2.7, 9.0])
    single = nll(model, data)
    double = nll(model, np.concatenate([data, data]))
    assert abs(double - 2.0 * single) < 1e-9


def test_nll_matches_logpdf_sum():
    model = PMMLDist(MMLDist(0.8, make_mixture_erlang((0.5, 0.5), (1, 2), (2.0, 0.3))), 2.0)
    data = np.geomspace(0.05, 40.0, 25)
    assert abs(nll(model, data) + pmml_logpdf(model, data).sum()) < 1e-9


def test_nll_validates_data():
    model = PMMLDist(MMLDist(0.5, make_erlang(1, 1.0)), 1.0)
    with pytest.raises(ValidationError):
        nll(model, [1.0, -2.0])
    with pytest.raises(ValidationError):
        nll(model, [np.nan])
    with pytest.raises(ValidationError):
        nll(model, [])


def test_nll_and_fit_accept_data_series():
    # the fitter reads data as the tail tools do; a DataSeries was rejected
    # as "values must be a numeric array"
    model = PMMLDist(MMLDist(0.7, make_erlang(2, 1.0)), 1.5)
    data = RandomStream(944).generator.standard_exponential(50) + 0.05
    series = DataSeries(data, label="claims")
    assert nll(model, series) == nll(model, data)
    config = _expconfig(restarts=1, max_iterations=50)
    assert (fit_pmml(series, config, RandomStream(945)).to_json()
            == fit_pmml(data, config, RandomStream(945)).to_json())


def test_objective_rejection_sentinel():
    # infeasible iterates (here: colliding Coxian rates) must score the
    # wall, +inf here, with a zero gradient instead of raising; the fitter
    # passes a finite wall that its line search backs away from
    config = FitConfig(structure="coxian", dimension=2, fit_alpha=False, fit_nu=False)
    obj = _objective(np.array([0.5, 1.5]), config, np.inf)
    theta_bad = np.array([0.0, math.log(2.0), math.log(2.0)])
    f, grad = obj(theta_bad)
    assert f == np.inf and not grad.any()
    theta_ok = np.array([0.0, math.log(1.0), math.log(2.0)])
    assert np.isfinite(obj(theta_ok)[0])


# the arguments lam x^(nu alpha) of these points reach the series (below 1),
# the contour and the asymptotic expansion (beyond 7.8 at alpha = 0.5, 40 at
# alpha = 0.9) for rates near 1
_GRAD_X = np.geomspace(1e-3, 1e4, 40)


def _spy_regimes(monkeypatch):
    """The set that collects the scalar-ML regimes called from now on."""
    from mlphase import mlfun

    regimes = set()
    for name in ("_series_vec", "_contour_offpole_vec", "_asymp_vec"):
        def spy(*args, _name=name, _fn=getattr(mlfun, name)):
            regimes.add(_name)
            return _fn(*args)
        monkeypatch.setattr(mlfun, name, spy)
    return regimes


def _check_gradient(config, theta, x, keys):
    """The objective's gradient against central differences of _nll_at, row
    by row; the value with partials against the plain one, bit for bit; and
    the keys nll's partials hold."""
    f, grad = _objective(x, config, np.inf)(theta)
    h = 1e-5
    central = np.array([
        (_nll_at(theta + e, x, config)
         - _nll_at(theta - e, x, config)) / (2 * h)
        for e in h * np.eye(len(theta))])
    assert np.all(np.abs(grad - central)
                  <= 1e-6 * np.maximum(np.abs(central), 1.0))
    model = _decode(theta, config)
    partials = {}
    assert nll(model, x, partials) == nll(model, x) == f
    assert set(partials) == keys


_KEYS = {"log_rates", "log_weights", "log_nu"}


@pytest.mark.parametrize("fit_nu", [False, True], ids=["nu_pinned", "nu_free"])
@pytest.mark.parametrize("alpha", [0.5, 0.9, 1.0])
# a shape-9 component takes its score from order 9, one past the k = 8 that
# the narrowed off-pole contour strip is tuned for
@pytest.mark.parametrize("shapes", [(1,), (2, 1), (3, 3, 3), (9, 2)])
def test_analytic_gradient_matches_central_differences(monkeypatch, shapes,
                                                      alpha, fit_nu):
    # with alpha pinned every row of the gradient comes from nll's partials
    config = FitConfig(structure="mixture_erlang", shapes=shapes,
                       fit_alpha=False, pinned_alpha=alpha, fit_nu=fit_nu,
                       pinned_nu=1.3)
    # at alpha = 1 the law is phase-type, and its log-density underflows
    # to -inf well before x = 1e4 (the far-tail underflow of the Erlang cores)
    x = _GRAD_X if alpha < 1.0 else _GRAD_X[_GRAD_X <= 30.0]
    m = len(shapes)
    theta = np.concatenate([[0.2] * fit_nu, np.linspace(-0.4, 0.4, m - 1),
                            np.linspace(-1.0, 1.0, m)])
    regimes = _spy_regimes(monkeypatch)
    # at alpha = 1 every point takes E^{(p)} from the kernel's exponential,
    # and the alpha partial is left out
    keys = _KEYS | {"alpha"} if alpha < 1.0 else _KEYS
    _check_gradient(config, theta, x, keys)
    if alpha < 1.0:
        assert regimes == {"_series_vec", "_contour_offpole_vec", "_asymp_vec"}


@pytest.mark.parametrize("fit_nu", [False, True], ids=["nu_pinned", "nu_free"])
@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.999, 0.9995])
@pytest.mark.parametrize("shapes", [(1,), (2, 1), (3, 3, 3), (9, 2)])
def test_alpha_row_matches_central_differences(monkeypatch, shapes, alpha,
                                               fit_nu):
    # with alpha free its row comes from the contour block's alpha sum
    config = FitConfig(structure="mixture_erlang", shapes=shapes,
                       fit_alpha=True, fit_nu=fit_nu, pinned_nu=1.3)
    # near alpha = 1 the block resolves E^{(p-1)}(-u) to the check's 1e-9
    # only up to u of a few 1e3, so the data stop at x = 300 there
    x = _GRAD_X if alpha < 0.99 else _GRAD_X[_GRAD_X <= 300.0]
    m = len(shapes)
    theta = np.concatenate([[_logit(alpha)], [0.2] * fit_nu,
                            np.linspace(-0.4, 0.4, m - 1),
                            np.linspace(-1.0, 1.0, m)])
    regimes = _spy_regimes(monkeypatch)
    _check_gradient(config, theta, x, _KEYS | {"alpha"})
    assert regimes == {"_series_vec", "_contour_offpole_vec", "_asymp_vec"}


@pytest.mark.parametrize("alpha, x, log_rate", [
    # E^{(p-1)}(-u) = e^{-u}: the kernel's exponential serves every point
    # (rates small enough that the density stays finite out to x = 1e6)
    (1.0, np.geomspace(1e-3, 1e6, 40), -15.0),
    # u out to 1e11, far past the block's resolution: those points fail its
    # check and take E^{(p)} from the kernel's asymptotic expansion
    (0.9, np.geomspace(1e-3, 1e9, 40), 0.0),
], ids=["alpha_one", "far_tail"])
@pytest.mark.parametrize("shapes", [(1,), (3, 2), (9, 2)])
def test_uncertified_points_fall_back_to_the_kernel(shapes, alpha, x,
                                                    log_rate):
    # the rate and nu rows stay exact where the contour block does not
    # serve, and the alpha partial is left out
    config = FitConfig(structure="mixture_erlang", shapes=shapes,
                       fit_alpha=False, pinned_alpha=alpha, pinned_nu=1.3)
    m = len(shapes)
    theta = np.concatenate([[0.2], np.linspace(-0.4, 0.4, m - 1),
                            log_rate + np.linspace(-0.5, 0.5, m)])
    _check_gradient(config, theta, x, _KEYS)


@pytest.mark.parametrize("far, passes", [(1e4, 1), (1e9, 2)],
                         ids=["certified", "uncertified"])
def test_alpha_row_needs_no_probe_where_certified(monkeypatch, far, passes):
    # a point at x = 1e9 puts u past the block's resolution at alpha = 0.9,
    # so that evaluation probes alpha by a forward difference
    config = FitConfig(structure="mixture_erlang", shapes=(3, 2), fit_nu=False)
    theta = np.array([_logit(0.9), 0.1, -1.0, 0.5])
    x = np.append(_GRAD_X[:-1], far)
    requested = []
    true_nll = fitting.nll

    def spy(model, x, partials=None):
        requested.append(partials is not None)
        return true_nll(model, x, partials)

    monkeypatch.setattr(fitting, "nll", spy)
    f, grad = _objective(x, config, np.inf)(theta)
    assert requested == [True] + [False] * (passes - 1)
    partials = {}
    true_nll(_decode(theta, config), x, partials)
    assert ("alpha" in partials) == (passes == 1)


@pytest.mark.parametrize("config, theta", [
    (FitConfig(structure="coxian", dimension=3),
     np.array([0.5, 0.1, 0.3, -0.2, -1.0, 0.2, 1.0])),
    # the first weight underflows to 0, so the split has one component
    (FitConfig(structure="mixture_erlang", shapes=(2, 1)),
     np.array([0.5, 0.1, 800.0, -1.0, 0.2])),
], ids=["coxian", "underflowed_weight"])
def test_gradient_falls_back_to_forward_differences(monkeypatch, config,
                                                    theta):
    requested = []
    true_nll = fitting.nll

    def spy(model, x, partials=None):
        requested.append(partials is not None)
        return true_nll(model, x, partials)

    monkeypatch.setattr(fitting, "nll", spy)
    f, grad = _objective(_GRAD_X, config, np.inf)(theta)
    assert not any(requested) and len(requested) == len(theta) + 1
    for k in range(len(theta)):
        step = theta.copy()
        step[k] += (theta[k] + 1e-8) - theta[k]
        assert grad[k] == ((_nll_at(step, _GRAD_X, config) - f)
                           / (step[k] - theta[k]))


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValidationError):
        FitConfig(structure="bogus")
    with pytest.raises(ValidationError):
        FitConfig(structure="mixture_erlang", shapes=(1, 2), restarts=0)
    with pytest.raises(ValidationError):
        FitConfig(structure="exponential", convergence_tol=1e-3)
    with pytest.raises(ValidationError):
        FitConfig(structure="mixture_erlang", shapes=(0, 2))
    with pytest.raises(ValidationError):
        FitConfig(structure="coxian", dimension=0)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2 ** 31),
    structure=st.sampled_from(["exponential", "mixture_erlang", "coxian"]),
    fit_alpha=st.booleans(),
    fit_nu=st.booleans(),
)
def test_reparametrization_soundness(seed, structure, fit_alpha, fit_nu):
    # every unconstrained iterate must decode to a valid model
    if structure == "mixture_erlang":
        config = FitConfig(structure=structure, shapes=(2, 1), fit_alpha=fit_alpha, fit_nu=fit_nu)
    elif structure == "coxian":
        config = FitConfig(structure=structure, dimension=3, fit_alpha=fit_alpha, fit_nu=fit_nu)
    else:
        config = FitConfig(structure=structure, fit_alpha=fit_alpha, fit_nu=fit_nu)
    rng = np.random.default_rng(seed)
    theta = rng.normal(0.0, 3.0, _layout(config)[4].stop)
    try:
        model = _decode(theta, config)
    except ValidationError:
        return  # legal rejection (e.g. colliding Coxian rates)
    assert 0.0 < model.alpha <= 1.0
    assert model.nu > 0.0
    assert np.all(np.diag(model.ph.T) < 0.0)
    assert abs(model.ph.pi.sum() - 1.0) < 1e-9
    if not fit_alpha:
        assert model.alpha == 1.0
    if not fit_nu:
        assert model.nu == 1.0


# ---------------------------------------------------------------------------
# fitting


def test_exponential_mle():
    data = RandomStream(900).generator.standard_exponential(10_000)
    res = fit_pmml(data, _expconfig(restarts=2), RandomStream(901))
    assert res.converged
    lam_hat = res.model.ph.params["rate"]
    assert abs(lam_hat - 1.0 / data.mean()) < 1e-6
    assert res.model.alpha == 1.0 and res.model.nu == 1.0


def test_monotone_restarts():
    truth = PMMLDist(MMLDist(0.8, make_mixture_erlang((0.6, 0.4), (2, 1), (3.0, 0.2))), 1.0)
    data = sample_pmml(truth, RandomStream(902), size=250)
    config = lambda r: FitConfig(structure="mixture_erlang", shapes=(2, 1), restarts=r,
                                 max_iterations=250)
    nlls = [fit_pmml(data, config(r), RandomStream(903)).nll for r in (1, 3, 5)]
    assert nlls[1] <= nlls[0] + 1e-9
    assert nlls[2] <= nlls[1] + 1e-9
    res = fit_pmml(data, config(3), RandomStream(903))
    assert len(res.restart_nlls) == 3
    assert abs(res.nll - min(res.restart_nlls)) < 1e-9


def test_seeded_determinism():
    truth = PMMLDist(MMLDist(0.7, make_erlang(1, 1.0)), 2.0)
    data = sample_pmml(truth, RandomStream(904), size=300)
    config = _expconfig(fit_alpha=True, fit_nu=True, restarts=2, max_iterations=250)
    a = fit_pmml(data, config, RandomStream(905))
    b = fit_pmml(data, config, RandomStream(905))
    assert a.to_json() == b.to_json()
    assert a.nll == b.nll


def test_canonical_component_order():
    truth = PMMLDist(MMLDist(0.9, make_mixture_erlang((0.5, 0.5), (1, 1), (8.0, 0.5))), 1.0)
    data = sample_pmml(truth, RandomStream(906), size=400)
    config = FitConfig(structure="mixture_erlang", shapes=(1, 1), restarts=2,
                       max_iterations=400)
    res = fit_pmml(data, config, RandomStream(907))
    rates = np.asarray(res.model.ph.params["rates"])
    assert np.all(np.diff(rates) > 0.0)


@pytest.mark.parametrize("start", [1e-3, 1e-1])
def test_rejected_iterates_backtrack(monkeypatch, start):
    # the likelihood rejects every rate above 1.5x the MLE; from a start far
    # below it, the fit must back out of the rejected region to the MLE
    # instead of stopping at the first rejected line-search probe
    data = RandomStream(930).generator.standard_exponential(400)
    mle = 1.0 / data.mean()
    true_nll = fitting.nll
    monkeypatch.setattr(
        fitting, "nll",
        lambda model, x, partials=None: (
            np.inf if model.ph.params["rate"] > 1.5 * mle
            else true_nll(model, x, partials)))
    monkeypatch.setattr(fitting, "_initial_point",
                        lambda d, c: np.array([math.log(start * mle)]))
    res = fit_pmml(data, _expconfig(restarts=1), RandomStream(931))
    assert res.converged
    assert abs(res.model.ph.params["rate"] / mle - 1.0) < 1e-6


def test_trimodal_fit_evaluation_budget(monkeypatch):
    # acceptance criterion 6's first case: reach the NLL the Nelder-Mead
    # fitter reached (with 4042 calls) in at most 1000 NLL calls
    truth = MMLDist(0.9, make_mixture_erlang((0.3, 0.3, 0.4), (3, 3, 3), (10.0, 1.0, 0.1)))
    data = sample_mml(truth, RandomStream(7000), size=300)
    config = FitConfig(structure="mixture_erlang", shapes=(3, 3, 3), fit_alpha=True,
                       fit_nu=False, restarts=3, max_iterations=600)
    calls = []
    true_nll = fitting.nll

    def counted(model, x, partials=None):
        calls.append(1)
        return true_nll(model, x, partials)

    monkeypatch.setattr(fitting, "nll", counted)
    res = fit_pmml(data, config, RandomStream(7100))
    assert res.nll <= 1003.0044690731681 + 1e-8
    assert len(calls) <= 1000


def test_consistency_at_scale():
    truth = PMMLDist(MMLDist(0.7, make_erlang(1, 2.0)), 1.5)
    config = _expconfig(fit_alpha=True, fit_nu=True, restarts=1, max_iterations=800)
    hits = 0
    for seed in range(5):
        data = sample_pmml(truth, RandomStream(910 + seed), size=100_000)
        res = fit_pmml(data, config, RandomStream(920 + seed))
        ok = (
            abs(res.model.alpha - 0.7) < 0.07
            and abs(res.model.ph.params["rate"] - 2.0) < 0.2
            and abs(res.model.nu - 1.5) < 0.15
        )
        hits += bool(res.converged and ok)
    assert hits >= 4


def test_fit_result_json_fields():
    data = RandomStream(930).generator.standard_exponential(400)
    res = fit_pmml(data, _expconfig(restarts=2), RandomStream(931))
    doc = json.loads(res.to_json())
    assert {"model", "nll", "tail_index", "tail_index_reciprocal", "restart_nlls",
            "converged", "config", "seed"} <= set(doc)
    back = dist_from_json(json.dumps(doc["model"]))
    assert abs(back.ph.params["rate"] - res.model.ph.params["rate"]) < 1e-15
    assert doc["config"]["structure"] == "exponential"
    assert abs(doc["tail_index"] * doc["tail_index_reciprocal"] - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# shape profiling


def test_profile_singleton_matches_fit():
    data = RandomStream(940).generator.standard_exponential(300)
    base = FitConfig(structure="mixture_erlang", shapes=(2,), restarts=2,
                     max_iterations=400, shape_grid=((2,),))
    ranked = profile_shapes(data, base, RandomStream(941))
    assert len(ranked) == 1
    direct = fit_pmml(data, FitConfig(structure="mixture_erlang", shapes=(2,),
                                      restarts=2, max_iterations=400),
                      RandomStream(941).child(0))
    assert abs(ranked[0].nll - direct.nll) < 1e-12


def test_profile_infeasible_candidate_flagged():
    data = RandomStream(942).generator.standard_exponential(200)
    base = FitConfig(structure="mixture_erlang", shapes=(1,), restarts=1,
                     max_iterations=200, shape_grid=((1,), (70,)))
    ranked = profile_shapes(data, base, RandomStream(943))
    assert len(ranked) == 2
    good = [r for r in ranked if r.model is not None]
    bad = [r for r in ranked if r.model is None]
    assert len(good) == 1 and len(bad) == 1
    assert bad[0].error is not None and not np.isfinite(bad[0].nll)
    assert ranked[0] is good[0]  # feasible candidate ranks first


def test_profile_recovers_shape():
    # data generated from a shape-2 component: the grid should rank (2)
    # first in a majority of seeds
    truth = PMMLDist(MMLDist(0.75, make_erlang(2, 1.0)), 1.0)
    base = FitConfig(structure="mixture_erlang", shapes=(2,), restarts=1,
                     max_iterations=600, shape_grid=((1,), (2,), (3,)))
    wins = 0
    for seed in range(5):
        data = sample_pmml(truth, RandomStream(950 + seed), size=10_000)
        ranked = profile_shapes(data, base, RandomStream(960 + seed))
        shapes = ranked[0].model.ph.params["shapes"]
        wins += tuple(shapes) == (2,)
    assert wins >= 3
