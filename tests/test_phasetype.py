"""Phase-type generators: constructors, densities, moments, sampling, JSON."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist, kstest

from mlphase import (
    PHGenerator,
    RandomStream,
    ValidationError,
    make_coxian,
    make_erlang,
    make_general,
    make_mixture_erlang,
    ph_cdf,
    ph_frac_moment,
    ph_pdf,
    ph_sample,
)
from mlphase.phasetype import ph_from_doc, ph_laplace

from conftest import standard_models


def _all_constructed():
    gens = [
        make_erlang(1, 2.0),
        make_erlang(4, 2.0),
        make_mixture_erlang((0.5, 0.5), (1, 2), (1.0, 1.0)),
        make_coxian((0.5, 0.5), (1.0, 2.0)),
        make_general(
            (0.3, 0.3, 0.4),
            [[-2.0, 1.0, 0.5], [0.0, -1.0, 0.3], [0.2, 0.1, -3.0]],
        ),
    ]
    gens += [d.ph for _, d in standard_models()]
    return gens


# ---------------------------------------------------------------------------
# constructors


def test_make_erlang_displayed_matrix():
    g = make_erlang(2, 3.0)
    assert np.array_equal(g.T, [[-3.0, 3.0], [0.0, -3.0]])
    assert np.array_equal(g.pi, [1.0, 0.0])
    assert np.array_equal(g.exit_vector, [0.0, 3.0])
    assert g.structure == "erlang"


def test_single_component_mixture_is_erlang():
    m = make_mixture_erlang((1.0,), (2,), (3.0,))
    e = make_erlang(2, 3.0)
    assert np.array_equal(m.T, e.T)
    assert np.array_equal(m.pi, e.pi)


def test_make_coxian_displayed_matrix():
    g = make_coxian((0.5, 0.5), (1.0, 2.0))
    assert np.array_equal(g.T, [[-1.0, 1.0], [0.0, -2.0]])
    assert np.array_equal(g.exit_vector, [0.0, 2.0])
    assert g.structure == "coxian"


def test_exit_vector_identity():
    for g in _all_constructed():
        res = g.exit_vector + g.T @ np.ones(g.dim)
        assert np.max(np.abs(res)) < 1e-12


def test_validation_rejects_bad_input():
    with pytest.raises(ValidationError):
        make_coxian((1.0, 0.0), (2.0, 2.0))  # duplicate rates
    with pytest.raises(ValidationError):
        make_erlang(0, 1.0)
    with pytest.raises(ValidationError):
        make_erlang(2, -1.0)
    with pytest.raises(ValidationError):
        make_general((0.5, 0.6), [[-1.0, 0.0], [0.0, -1.0]])  # pi sums to 1.1
    with pytest.raises(ValidationError):
        make_general((0.5, 0.5), [[-1.0, 2.0], [0.0, -1.0]])  # positive row sum
    with pytest.raises(ValidationError):
        make_general((0.5, 0.5), [[1.0, 0.0], [0.0, -1.0]])  # positive diagonal
    with pytest.raises(ValidationError):
        # second state never absorbs nor leaves
        make_general((0.5, 0.5), [[-1.0, 0.0], [0.0, 0.0]])


# ---------------------------------------------------------------------------
# densities and transforms


def test_pdf_examples():
    assert abs(ph_pdf(make_erlang(1, 2.0), 1.0) - 2.0 * math.exp(-2.0)) < 1e-12
    assert abs(ph_pdf(make_erlang(2, 1.0), 3.0) - 3.0 * math.exp(-3.0)) < 1e-12
    g = make_coxian((1.0, 0.0), (1.0, 2.0))
    ref = 2.0 * (math.exp(-1.0) - math.exp(-2.0))
    assert abs(ph_pdf(g, 1.0) - ref) < 1e-12


def test_cdf_examples():
    assert ph_cdf(make_erlang(1, 2.0), 0.0) == 0.0
    assert abs(ph_cdf(make_erlang(1, 2.0), 1.0) - (1.0 - math.exp(-2.0))) < 1e-12
    g = make_mixture_erlang((0.5, 0.5), (1, 2), (1.0, 1.0))
    ref = 0.5 * (1.0 - math.exp(-2.0)) + 0.5 * (1.0 - 3.0 * math.exp(-2.0))
    assert abs(ph_cdf(g, 2.0) - ref) < 1e-12


def test_pdf_normalizes():
    for g in _all_constructed():
        total, err = quad(lambda x: ph_pdf(g, x), 0.0, np.inf, limit=200)
        assert abs(total - 1.0) < 1e-8, g.structure


def test_cdf_derivative_matches_pdf():
    h = 1e-6
    xs = np.linspace(0.1, 20.0, 40)
    for g in (make_erlang(4, 2.0), make_coxian((0.5, 0.5), (1.0, 2.0))):
        fd = (ph_cdf(g, xs + h) - ph_cdf(g, xs - h)) / (2.0 * h)
        pdf = ph_pdf(g, xs)
        # the central difference itself carries ~1e-10 absolute noise where
        # the cdf saturates, so a pure relative bound only applies above it
        assert np.all(np.abs(fd - pdf) < 1e-5 * pdf + 1e-9)


def test_tagged_pdf_matches_independent_closed_forms():
    xs = np.linspace(0.05, 12.0, 30)

    g = make_erlang(3, 2.0)
    ref = gamma_dist(a=3, scale=0.5).pdf(xs)
    assert np.max(np.abs(ph_pdf(g, xs) - ref)) < 1e-10

    m = make_mixture_erlang((0.3, 0.7), (2, 1), (1.0, 4.0))
    ref = 0.3 * gamma_dist(a=2, scale=1.0).pdf(xs) + 0.7 * gamma_dist(
        a=1, scale=0.25
    ).pdf(xs)
    assert np.max(np.abs(ph_pdf(m, xs) - ref)) < 1e-10

    # two-stage chain: convolution of Exp(1) and Exp(2)
    c = make_coxian((1.0, 0.0), (1.0, 2.0))
    ref = 2.0 * (np.exp(-xs) - np.exp(-2.0 * xs))
    assert np.max(np.abs(ph_pdf(c, xs) - ref)) < 1e-10


def test_structured_equals_general_path():
    xs = np.linspace(0.05, 10.0, 25)
    for g in _all_constructed():
        gg = g.as_general()
        assert gg.structure == "general"
        assert np.max(np.abs(ph_pdf(g, xs) - ph_pdf(gg, xs))) < 1e-10
        assert np.max(np.abs(ph_cdf(g, xs) - ph_cdf(gg, xs))) < 1e-10


def test_laplace_closed_form():
    us = np.array([0.0, 0.1, 1.0, 10.0])
    for p, lam in ((1, 2.0), (3, 1.5)):
        g = make_erlang(p, lam)
        ref = (lam / (lam + us)) ** p
        assert np.max(np.abs(ph_laplace(g, us) - ref)) < 1e-12
    with pytest.raises(ValidationError):
        ph_laplace(make_erlang(1, 1.0), -0.5)


@pytest.mark.parametrize("fn, bad", [(ph_pdf, np.nan), (ph_cdf, np.inf),
                                     (ph_laplace, np.nan),
                                     (ph_pdf, [1.0, -np.inf])],
                         ids=["pdf_nan", "cdf_inf", "laplace_nan",
                              "pdf_array_with_inf"])
def test_non_finite_arguments_rejected(fn, bad):
    with pytest.raises(ValidationError):
        fn(make_erlang(2, 1.0), bad)


def test_frac_moment_examples():
    assert abs(ph_frac_moment(make_erlang(1, 1.0), 1.0) - 1.0) < 1e-12
    assert abs(ph_frac_moment(make_erlang(2, 1.0), 2.0) - 6.0) < 1e-12
    # Gamma(p, 1/lam): E[X^a] = Gamma(p+a) / (Gamma(p) lam^a)
    g = make_erlang(3, 2.0)
    ref = math.gamma(3.5) / (math.gamma(3.0) * 2.0 ** 0.5)
    assert abs(ph_frac_moment(g, 0.5) - ref) < 1e-12


def test_frac_moment_against_monte_carlo():
    g = make_coxian((1.0, 0.0), (1.0, 2.0))
    n = 1_000_000
    draws = ph_sample(g, RandomStream(2024), size=n)
    vals = draws ** 0.5
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(ph_frac_moment(g, 0.5) - vals.mean()) < 3.0 * se


def test_frac_moment_validation():
    with pytest.raises(ValidationError):
        ph_frac_moment(make_erlang(1, 1.0), 0.0)


# ---------------------------------------------------------------------------
# sampling


def test_sample_means():
    n = 100_000
    x = ph_sample(make_erlang(1, 2.0), RandomStream(11), size=n)
    se = x.std(ddof=1) / math.sqrt(n)
    assert abs(x.mean() - 0.5) < 3.0 * se
    y = ph_sample(make_erlang(4, 2.0), RandomStream(12), size=n)
    se = y.std(ddof=1) / math.sqrt(n)
    assert abs(y.mean() - 2.0) < 3.0 * se


def test_sample_chain_ks():
    g = make_general(
        (0.3, 0.3, 0.4),
        [[-2.0, 1.0, 0.5], [0.0, -1.0, 0.3], [0.2, 0.1, -3.0]],
    )
    n = 20_000
    x = ph_sample(g, RandomStream(13), size=n)
    stat = kstest(x, lambda v: ph_cdf(g, v)).statistic
    assert stat < 1.62762 / math.sqrt(n)  # 1% critical value


def test_sample_coxian_late_entry_ks():
    g = make_coxian((0.5, 0.0, 0.5, 0.0), (1.0, 2.0, 3.0, 4.0))
    n = 20_000
    x = ph_sample(g, RandomStream(14), size=n)
    stat = kstest(x, lambda v: ph_cdf(g, v)).statistic
    assert stat < 1.62762 / math.sqrt(n)


def _erlang_beside_coxian():
    T = np.zeros((4, 4))
    T[:2, :2] = make_erlang(2, 1.5).T
    T[2:, 2:] = make_coxian((1.0, 0.0), (1.0, 3.0)).T
    return make_general((0.5, 0.0, 0.25, 0.25), T)


# each generator is drawn from the law of its (pi, T), whatever its tag says
SAMPLED_LAWS = {
    # the tag's params describe Exp(100), T describes Exp(1)
    "erlang_tag_wrong_rate": lambda: PHGenerator(
        [1.0], [[-1.0]], "erlang", {"shape": 1, "rate": 100.0}),
    # the tag has no params at all
    "erlang_tag_no_params": lambda: PHGenerator([1.0], [[-1.0]], "erlang"),
    # a Coxian T under a mixture tag
    "mixture_tag_on_coxian": lambda: PHGenerator(
        [0.5, 0.5], make_coxian((0.5, 0.5), (1.0, 3.0)).T, "mixture_erlang",
        {"weights": [1.0], "shapes": [2], "rates": [10.0]}),
    # uniform bidiagonal with r = 1/2 and late entry: an Erlang mixture with
    # weights other than pi
    "bidiagonal_late_entry": lambda: make_general(
        (0.5, 0.5), [[-2.0, 1.0], [0.0, -2.0]]),
    # one block is not uniform bidiagonal, so the whole T takes the chain
    "erlang_beside_coxian": _erlang_beside_coxian,
}


@pytest.mark.parametrize("make", SAMPLED_LAWS.values(), ids=SAMPLED_LAWS.keys())
def test_sample_law_of_T_ks(make):
    g = make()
    n = 20_000
    x = ph_sample(g, RandomStream(15), size=n)
    stat = kstest(x, lambda v: ph_cdf(g, v)).statistic
    assert stat < 1.62762 / math.sqrt(n)


def test_sample_chain_beside_a_general_block(monkeypatch):
    import mlphase.phasetype as phasetype

    chained = []
    chain = phasetype._ph_sample_chain

    def counted(*args):
        chained.append(args)
        return chain(*args)

    monkeypatch.setattr(phasetype, "_ph_sample_chain", counted)
    ph_sample(_erlang_beside_coxian(), RandomStream(16), size=5)
    assert chained


@pytest.mark.parametrize("g", [
    make_erlang(4, 2.0),
    make_erlang(1, 0.5),
    dict(standard_models())["mix3_a09"].ph,
    make_mixture_erlang((0.5, 0.0, 0.5), (2, 3, 1), (1.0, 2.0, 3.0)),
], ids=["erlang4", "erlang1", "mix3", "mix_zero_weight"])
def test_untagged_draws_match_tagged(g):
    # the draws depend only on (pi, T), so stripping the tag moves no bit
    a = ph_sample(g, RandomStream(17), size=1000)
    b = ph_sample(g.as_general(), RandomStream(17), size=1000)
    assert np.array_equal(a, b)


def test_sample_scalar_and_reproducible():
    g = make_erlang(2, 1.0)
    a = ph_sample(g, RandomStream(5))
    b = ph_sample(g, RandomStream(5))
    assert isinstance(a, float) and a == b
    xs = ph_sample(g, RandomStream(6), size=7)
    ys = ph_sample(g, RandomStream(6), size=7)
    assert np.array_equal(xs, ys)


@pytest.mark.parametrize("model", ["mix3_a09", "cox4_a07"])
def test_split_computed_once_per_generator(monkeypatch, model):
    # draws, densities and survivals all read one split of T per generator
    import mlphase.phasetype as phasetype
    from mlphase import mml_pdf, mml_sf

    found = []
    components = phasetype._components

    def counted(T):
        found.append(T)
        return components(T)

    monkeypatch.setattr(phasetype, "_components", counted)
    d = dict(standard_models())[model]
    d = type(d)(d.alpha, PHGenerator(d.ph.pi, d.ph.T))
    stream = RandomStream(18)
    for _ in range(1000):
        ph_sample(d.ph, stream)
    mml_pdf(d, [0.5, 2.0])
    mml_sf(d, [0.5, 2.0])
    assert len(found) == 1


def test_generator_arrays_are_read_only_copies():
    # the cached split cannot go stale: neither the caller's arrays nor the
    # generator's own can change the T it was computed from
    pi, T = np.array([0.4, 0.6]), np.array([[-2.0, 2.0], [0.0, -2.0]])
    gen = PHGenerator(pi, T)
    blocks = gen._blocks
    T[0, 1], pi[0] = 1.0, 0.0
    assert gen.T[0, 1] == 2.0 and gen.pi[0] == 0.4
    with pytest.raises(ValueError):
        gen.T[0, 1] = 1.0
    with pytest.raises(ValueError):
        gen.pi[0] = 0.0
    assert gen._blocks == blocks == PHGenerator(gen.pi, gen.T)._blocks


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    for g in _all_constructed():
        back = PHGenerator.from_json(g.to_json())
        assert back.structure == g.structure
        assert np.allclose(back.pi, g.pi, atol=1e-15)
        assert np.allclose(back.T, g.T, atol=1e-15)
        assert back.to_json() == g.to_json()


def test_doc_fields():
    import json

    doc = json.loads(make_erlang(2, 3.0).to_json())
    assert doc["structure"] == "erlang"
    assert doc["pi"] == [1.0, 0.0]
    assert doc["T"] == [[-3.0, 3.0], [0.0, -3.0]]
    with pytest.raises(ValidationError):
        ph_from_doc({"structure": "nope", "pi": [1.0], "T": [[-1.0]]})


# the T of an Erlang(2, 1) under an erlang tag whose params, if any, say
# otherwise
_ERLANG2_T = {"structure": "erlang", "pi": [1, 0], "T": [[-1, 1], [0, -1]]}


@pytest.mark.parametrize("params", [{"shape": 5, "rate": 9.0},
                                    {"shape": 2, "rate": 9.0}, None, 5,
                                    {"shape": 2.5, "rate": 1.0}],
                         ids=["mismatched", "mismatched_rate", "missing",
                              "not_a_dict", "ill_typed"])
def test_tagged_doc_params_must_describe_T(params):
    doc = dict(_ERLANG2_T)
    if params is not None:
        doc["params"] = params
    with pytest.raises(ValidationError):
        ph_from_doc(doc)


def test_coxian_doc_rates_must_describe_T():
    doc = {"structure": "coxian", "pi": [0.5, 0.5],
           "T": [[-1.0, 1.0], [0.0, -2.0]], "params": {"rates": [1.0, 3.0]}}
    with pytest.raises(ValidationError):
        ph_from_doc(doc)


# ---------------------------------------------------------------------------
# property-based checks


@settings(max_examples=50, deadline=None)
@given(
    w=st.floats(0.05, 0.95),
    p1=st.integers(1, 5),
    p2=st.integers(1, 5),
    r1=st.floats(0.1, 20.0),
    r2=st.floats(0.1, 20.0),
)
def test_mixture_generator_properties(w, p1, p2, r1, r2):
    g = make_mixture_erlang((w, 1.0 - w), (p1, p2), (r1, r2))
    assert np.max(np.abs(g.exit_vector + g.T @ np.ones(g.dim))) < 1e-12
    assert abs(ph_laplace(g, 0.0) - 1.0) < 1e-12
    mean_ref = w * p1 / r1 + (1.0 - w) * p2 / r2
    assert abs(ph_frac_moment(g, 1.0) - mean_ref) < 1e-9 * mean_ref
    xs = np.array([0.1, 0.5, 1.0, 2.0])
    assert np.all(ph_pdf(g, xs) >= 0.0)
    cd = ph_cdf(g, xs)
    assert np.all(np.diff(cd) >= 0.0) and np.all((cd >= 0.0) & (cd <= 1.0))
