"""Maximum-likelihood fitting of PMML models with structured PH components.

The optimizer is a multi-start L-BFGS-B over an unconstrained
reparametrization: alpha through a logistic map into (0,1), nu and rates
through log maps, mixture weights through softmax. Its gradient is analytic
in alpha, the rates, the weights and nu of a mixture-Erlang or exponential
iterate (nll's partials, chained through the reparametrization), so one
evaluation is one likelihood pass. The alpha row falls back to a forward
difference at an iterate where its contour sums fail their self-check, and
every row of a Coxian iterate is a forward difference. Restarts draw
jittered initial points from split sub-streams, so results are deterministic
per seed and adding restarts can only improve the returned NLL.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .distributions import (
    MMLDist,
    PMMLDist,
    _logpdf_partials,
    dist_to_doc,
    pmml_logpdf,
)
from .errors import (
    EvaluationError,
    ValidationError,
    _ANY,
    _flag,
    _integer,
    _integers,
    _number,
)
from .phasetype import (
    COXIAN,
    MIXTURE_ERLANG,
    make_coxian,
    make_erlang,
    make_mixture_erlang,
)
from .rng import RandomStream
from .tailtools import _values

EXPONENTIAL = "exponential"
_STRUCTURES = (MIXTURE_ERLANG, COXIAN, EXPONENTIAL)


@dataclass(frozen=True)
class FitConfig:
    """Model structure and optimizer budget for fit_pmml.

    structure selects the PH component family: "mixture_erlang" with a fixed
    shape vector, "coxian" with a dimension, or "exponential". Pinned values
    are used when fit_alpha or fit_nu is False. shape_grid, when given, runs
    one full fit per candidate shape vector.

    shapes is a list of integers, shape_grid a nonempty list of them;
    dimension, restarts and max_iterations are integers (not bool, not 3.0),
    fit_alpha and fit_nu bools, and the rest finite numbers, stored as
    Python int, bool and float. restarts, max_iterations, the shapes of a
    "mixture_erlang" and the dimension of a "coxian" are >= 1;
    convergence_tol lies in [1e-12, 1e-4]; a pinned alpha in (0, 1] and a
    pinned nu > 0.

    Each restart is one L-BFGS-B run of at most max_iterations iterations
    and 2 * max_iterations objective evaluations. An evaluation makes one
    NLL pass, with partials where they are analytic, plus one pass per
    forward-difference row: one for a fitted alpha whose analytic row is
    uncertified, or n_params for an iterate without partials. So a restart
    makes at most 2 * max_iterations * (n_params + 1) NLL passes.
    convergence_tol is its relative ftol: a restart stops once an iteration
    lowers the NLL by at most convergence_tol * max(|NLL|, 1).
    """

    structure: str = MIXTURE_ERLANG
    shapes: tuple = (1,)
    dimension: int = 1
    fit_nu: bool = True
    fit_alpha: bool = True
    pinned_alpha: float = 1.0
    pinned_nu: float = 1.0
    restarts: int = 5
    max_iterations: int = 2000
    convergence_tol: float = 1e-8
    shape_grid: tuple | None = None

    def __post_init__(self):
        if self.structure not in _STRUCTURES:
            raise ValidationError(f"unknown structure {self.structure!r}")
        mixture = self.structure == MIXTURE_ERLANG
        positive = "[1, inf)"
        for name, check, *interval in (
                ("fit_alpha", _flag), ("fit_nu", _flag),
                ("shapes", _integers, positive if mixture else _ANY),
                ("dimension", _integer,
                 positive if self.structure == COXIAN else _ANY),
                ("restarts", _integer, positive),
                ("max_iterations", _integer, positive),
                ("convergence_tol", _number, "[1e-12, 1e-4]"),
                ("pinned_alpha", _number, _ANY if self.fit_alpha else "(0, 1]"),
                ("pinned_nu", _number, _ANY if self.fit_nu else "(0, inf)")):
            object.__setattr__(self, name,
                               check(getattr(self, name), name, *interval))
        if mixture and not self.shapes:
            raise ValidationError("shapes must be nonempty")
        if self.shape_grid is not None:
            if not (isinstance(self.shape_grid, (list, tuple))
                    and self.shape_grid):
                raise ValidationError("shape_grid must be a nonempty list")
            object.__setattr__(self, "shape_grid", tuple(
                _integers(s, "shape_grid", positive) for s in self.shape_grid))
            if not mixture:
                raise ValidationError("shape_grid applies to mixture_erlang only")


@dataclass(frozen=True)
class FitResult:
    """Best model found, its NLL, tail index, and the restart trace."""

    model: PMMLDist | None
    nll: float
    tail_index: float
    tail_index_reciprocal: float
    restart_nlls: tuple
    converged: bool
    config: FitConfig
    seed: tuple
    error: str | None = None

    def to_json(self) -> str:
        doc = {
            "model": None if self.model is None else dist_to_doc(self.model),
            "nll": self.nll,
            "tail_index": self.tail_index,
            "tail_index_reciprocal": self.tail_index_reciprocal,
            "restart_nlls": self.restart_nlls,
            "converged": self.converged,
            "config": asdict(self.config),
            "seed": {"seed": self.seed[0], "spawn_key": self.seed[1]},
            "error": self.error,
        }
        return json.dumps(doc, indent=2)


def _failed(config: FitConfig, stream: RandomStream, error: str,
            restart_nlls=()) -> FitResult:
    """A fit that produced no model: infinite NLL, nan tail index."""
    return FitResult(
        model=None,
        nll=np.inf,
        tail_index=np.nan,
        tail_index_reciprocal=np.nan,
        restart_nlls=tuple(restart_nlls),
        converged=False,
        config=config,
        seed=(stream.seed, tuple(stream.spawn_key)),
        error=error,
    )


def nll(model: PMMLDist, data, partials: dict | None = None) -> float:
    """Negative log-likelihood -sum log pmml_pdf(x_i).

    Any non-finite log-density maps to the infinite-NLL sentinel so the
    optimizer treats the iterate as rejected rather than crashing.

    partials, when a dict, receives the NLL's partial derivatives if T
    splits into Erlang components alone (PHGenerator._blocks) and the NLL is
    finite: "log_rates" and "log_weights" (the weights taken as free), one
    entry per component of the split, and "log_nu", each at fixed alpha;
    and "alpha", at fixed rates, weights and nu, unless a point's alpha
    score failed its contour block's self-check. Otherwise it is left as it
    is. The returned value is the same either way, bit for bit.
    """
    x = _values(data)
    try:
        scored = None if partials is None else _logpdf_partials(model, x)
        lp = pmml_logpdf(model, x) if scored is None else scored[0]
    except (ValidationError, EvaluationError, FloatingPointError, OverflowError):
        return np.inf
    s = np.sum(lp)
    if not np.isfinite(s):
        return np.inf
    if scored is not None:
        g = -scored[1].sum(axis=1)
        m = len(g) // 2
        partials.update(log_rates=g[:m], log_weights=g[m:-1], log_nu=g[-1])
        a = -scored[2].sum()
        if np.isfinite(a):
            partials["alpha"] = a
    return float(-s)


# ---------------------------------------------------------------------------
# unconstrained reparametrization

def _layout(config: FitConfig):
    """m components and the theta slices: logit alpha, log nu (each empty
    when pinned), m - 1 softmax weights (empty for the exponential) and m
    log rates."""
    if config.structure == MIXTURE_ERLANG:
        m = len(config.shapes)
    elif config.structure == COXIAN:
        m = config.dimension
    else:
        m = 1
    a = config.fit_alpha
    v = a + config.fit_nu
    w = v + m - 1
    return m, slice(0, a), slice(a, v), slice(v, w), slice(w, w + m)


def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


def _softmax(raw: np.ndarray) -> np.ndarray:
    z = np.concatenate(([0.0], raw))
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


def _decode(theta: np.ndarray, config: FitConfig) -> PMMLDist:
    """Map an unconstrained parameter vector to a PMML model.

    Raises ValidationError when the iterate leaves the feasible region
    (e.g. softmax underflow or colliding Coxian rates); callers convert
    that to the infinite-NLL sentinel.
    """
    _, sa, sn, sw, sr = _layout(config)
    alpha = _sigmoid(theta[sa][0]) if config.fit_alpha else config.pinned_alpha
    nu = np.exp(theta[sn][0]) if config.fit_nu else config.pinned_nu
    rates = np.exp(theta[sr])
    if config.structure == MIXTURE_ERLANG:
        gen = make_mixture_erlang(_softmax(theta[sw]), config.shapes, rates)
    elif config.structure == COXIAN:
        gen = make_coxian(_softmax(theta[sw]), rates)
    else:
        gen = make_erlang(1, float(rates[0]))
    return PMMLDist(MMLDist(alpha, gen), nu)


def _logit(p: float) -> float:
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    return float(np.log(p / (1.0 - p)))


def _initial_point(data: np.ndarray, config: FitConfig) -> np.ndarray:
    """Moment-matched starting point in the unconstrained coordinates.

    Component rates are placed so that each component's bulk sits near a
    spread of data quantiles on the x^(alpha0*nu0) scale; weights start
    uniform.
    """
    alpha0 = 0.9 if config.fit_alpha else config.pinned_alpha
    nu0 = 1.0 if config.fit_nu else config.pinned_nu
    power = alpha0 * nu0
    m, sa, sn, sw, sr = _layout(config)

    theta = np.zeros(sr.stop)
    theta[sa] = _logit(alpha0)
    theta[sn] = np.log(nu0)
    if config.structure == MIXTURE_ERLANG:
        qs = np.quantile(data, (np.arange(m) + 0.5) / m)
        qs = np.maximum(qs, 1e-12)
        shapes = np.asarray(config.shapes, dtype=float)
        rates = shapes / qs ** power
    elif config.structure == COXIAN:
        med = max(float(np.median(data)), 1e-12)
        base = 1.0 / med ** power
        rates = base * 3.0 ** (np.arange(m) - (m - 1) / 2.0)
    else:
        med = max(float(np.median(data)), 1e-12)
        rates = np.array([np.log(2.0) / med ** power])
    theta[sr] = np.log(rates)
    return theta


def _jitter(theta0: np.ndarray, config: FitConfig, stream: RandomStream) -> np.ndarray:
    g = stream.generator
    theta = theta0.copy()
    m, sa, sn, sw, sr = _layout(config)
    if config.fit_alpha:
        theta[sa] += g.normal(0.0, 0.75)
    if config.fit_nu:
        theta[sn] += g.uniform(-np.log(4.0), np.log(4.0))
    if config.structure in (MIXTURE_ERLANG, COXIAN):
        theta[sw] += g.normal(0.0, 0.5, m - 1)
    # log-uniform rate jitter over one decade each way
    theta[sr] += g.uniform(-np.log(10.0), np.log(10.0), m)
    return theta


# ---------------------------------------------------------------------------
# optimization

_REJECTED = (ValidationError, EvaluationError, OverflowError)


def _nll_at(theta: np.ndarray, data: np.ndarray, config: FitConfig) -> float:
    """nll of the decoded iterate; inf where _decode rejects it."""
    try:
        model = _decode(theta, config)
    except _REJECTED:
        return np.inf
    return nll(model, data)


def _objective(data: np.ndarray, config: FitConfig, wall: float):
    """theta -> (NLL, gradient); an NLL that is not finite scores wall.

    The logit-alpha, log-rate, softmax and log-nu rows come from nll's
    partials when the decoded law splits into one Erlang component per
    configured block: a mixture-Erlang or exponential iterate whose weights
    are all positive. The logit-alpha row is then partials["alpha"]
    alpha (1 - alpha), or, where nll left "alpha" out, a forward difference
    with the step of scipy's L-BFGS-B, h = (theta_k + 1e-8) - theta_k.
    Every row of any other iterate (every Coxian one) is such a forward
    difference. A rejected iterate has a zero gradient.
    """
    _, sa, sn, sw, sr = _layout(config)
    split = {MIXTURE_ERLANG: config.shapes, EXPONENTIAL: (1,)}.get(
        config.structure)

    def obj(theta):
        grad = np.zeros(len(theta))
        try:
            model = _decode(theta, config)
        except _REJECTED:
            return wall, grad
        weights, shapes, _, rest = model.ph._blocks
        partials = {} if shapes == split and not rest else None
        f = nll(model, data, partials)
        if not np.isfinite(f):
            return wall, grad
        probes = range(len(theta))
        if partials:
            grad[sr] = partials["log_rates"]
            g = partials["log_weights"]
            grad[sw] = g[1:] - np.asarray(weights[1:]) * g.sum()
            grad[sn] = partials["log_nu"]
            probes = range(sa.start, sa.stop)
            if "alpha" in partials:
                a = model.alpha
                grad[sa] = partials["alpha"] * a * (1.0 - a)
                probes = ()
        for k in probes:
            h = (theta[k] + 1e-8) - theta[k]
            step = theta.copy()
            step[k] += h
            fk = _nll_at(step, data, config)
            grad[k] = ((fk if np.isfinite(fk) else wall) - f) / h
        return f, grad

    return obj


def _canonical_model(model: PMMLDist, config: FitConfig):
    """Sort mixture components by ascending rate to kill label switching."""
    if config.structure != MIXTURE_ERLANG:
        return model
    gen = model.ph
    w = np.asarray(gen.params["weights"], dtype=float)
    shapes = np.asarray(gen.params["shapes"], dtype=int)
    rates = np.asarray(gen.params["rates"], dtype=float)
    order = np.argsort(rates)
    gen2 = make_mixture_erlang(w[order], shapes[order], rates[order])
    return PMMLDist(MMLDist(model.alpha, gen2), model.nu)


def _fit_single(data: np.ndarray, config: FitConfig, stream: RandomStream) -> FitResult:
    from scipy.optimize import minimize

    theta0 = _initial_point(data, config)
    fbase = _nll_at(theta0, data, config)
    fscale = 1.0 + (abs(fbase) if np.isfinite(fbase) else float(len(data)))
    # L-BFGS-B ends its line search, reporting success, at the first +inf
    # probe. Rejected iterates score a finite wall instead, sqrt(1/eps)
    # times the start's NLL scale: far above any iterate worth keeping, yet
    # low enough that NLL differences still count beside it in the line
    # search's interpolation, so it backtracks.
    reject = fscale / np.sqrt(np.finfo(float).eps)
    obj = _objective(data, config, reject)

    best, trace = None, []
    for i in range(config.restarts):
        start = theta0 if i == 0 else _jitter(theta0, config, stream.child(i))
        with np.errstate(invalid="ignore"):
            res = minimize(
                obj,
                start,
                jac=True,
                method="L-BFGS-B",
                options=dict(
                    maxiter=config.max_iterations,
                    maxfun=2 * config.max_iterations,
                    ftol=config.convergence_tol,
                ),
            )
        fun = float(res.fun) if res.fun < reject else np.inf
        if fun < min(trace, default=np.inf):
            best = res
        trace.append(fun)

    if best is None:
        return _failed(config, stream, "all restarts diverged", trace)
    model = _canonical_model(_decode(best.x, config), config)
    ti = float(model.tail_index)
    return FitResult(
        model=model,
        nll=float(best.fun),
        tail_index=ti,
        tail_index_reciprocal=1.0 / ti,
        restart_nlls=tuple(trace),
        converged=bool(best.success),
        config=config,
        seed=(stream.seed, tuple(stream.spawn_key)),
        error=None,
    )


def fit_pmml(data, config: FitConfig, rng: RandomStream) -> FitResult:
    """Multi-start maximum-likelihood fit; deterministic per (data, config, seed).

    With shape_grid set, runs one full fit per candidate shape vector on its
    own sub-stream and returns the lowest-NLL winner.
    """
    x = _values(data)
    if config.shape_grid is not None:
        return profile_shapes(x, config, rng)[0]
    return _fit_single(x, config, rng)


def profile_shapes(data, base_config: FitConfig, rng: RandomStream) -> list:
    """One full fit per candidate shape vector, ranked by NLL.

    Per-candidate failures are flagged in place (model=None, infinite NLL)
    without aborting the sweep. Likelihoods are reported raw; no information
    criteria are applied.
    """
    if not base_config.shape_grid:
        raise ValidationError("profile_shapes requires a nonempty shape_grid")
    x = _values(data)
    results = []
    for ci, shapes in enumerate(base_config.shape_grid):
        cfg = replace(base_config, shapes=tuple(shapes), shape_grid=None)
        stream = rng.child(ci)
        try:
            results.append(_fit_single(x, cfg, stream))
        except (ValidationError, EvaluationError) as e:
            results.append(_failed(cfg, stream, str(e)))
    order = sorted(
        range(len(results)),
        key=lambda i: (not np.isfinite(results[i].nll), results[i].nll, i),
    )
    return [results[i] for i in order]
