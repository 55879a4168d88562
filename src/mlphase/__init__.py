"""Matrix Mittag-Leffler distributions: special functions, phase-type
structure, sampling, semi-Markov simulation, and likelihood fitting."""

from .mlfun import MLParams, ml_deriv, ml_eval, ml_matrix
from .phasetype import (
    PHGenerator,
    make_coxian,
    make_erlang,
    make_general,
    make_mixture_erlang,
    ph_cdf,
    ph_frac_moment,
    ph_pdf,
    ph_sample,
)
from .distributions import (
    MMLDist,
    PMMLDist,
    dist_from_json,
    dist_to_json,
    mml_cdf,
    mml_frac_moment,
    mml_laplace,
    mml_logpdf,
    mml_logsf,
    mml_pdf,
    mml_sf,
    pmml_cdf,
    pmml_logpdf,
    pmml_logsf,
    pmml_pdf,
    pmml_sf,
    tail_index,
)
from .rng import RandomStream
from .sampling import (
    ml_mixing_cdf,
    ml_mixing_quantile,
    sample_ml_scalar,
    sample_mml,
    sample_pmml,
    sample_positive_stable,
)
from .semimarkov import (
    SemiMarkovSpec,
    build_lambda,
    simulate_absorption,
    transition_matrix,
)
from .fitting import FitConfig, FitResult, fit_pmml, nll, profile_shapes
from .tailtools import (
    DataSeries,
    exp_transform,
    hill_curve,
    log_back_transform,
    qq_uniform,
)
from .errors import EvaluationError, ValidationError

__version__ = "0.1.0"

__all__ = [
    "MLParams", "ml_eval", "ml_deriv", "ml_matrix",
    "PHGenerator", "make_erlang", "make_mixture_erlang", "make_coxian",
    "make_general", "ph_pdf", "ph_cdf", "ph_frac_moment", "ph_sample",
    "MMLDist", "PMMLDist", "mml_pdf", "mml_logpdf", "mml_cdf", "mml_sf",
    "mml_logsf", "mml_laplace", "mml_frac_moment", "pmml_pdf", "pmml_logpdf",
    "pmml_cdf", "pmml_sf", "pmml_logsf", "tail_index", "dist_to_json",
    "dist_from_json",
    "RandomStream", "sample_positive_stable", "sample_ml_scalar",
    "sample_mml", "sample_pmml", "ml_mixing_cdf", "ml_mixing_quantile",
    "SemiMarkovSpec", "build_lambda", "transition_matrix",
    "simulate_absorption",
    "FitConfig", "FitResult", "nll", "fit_pmml", "profile_shapes",
    "DataSeries", "hill_curve", "exp_transform", "log_back_transform",
    "qq_uniform",
    "ValidationError", "EvaluationError",
]
