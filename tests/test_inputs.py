"""Every document and argument boundary answers ill-typed input with a
ValidationError (exit code 2 from the CLI): never a traceback, never a
silent misread."""
import copy
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mlphase import (
    MLParams,
    MMLDist,
    PMMLDist,
    RandomStream,
    ValidationError,
    dist_from_json,
    dist_to_json,
    fit_pmml,
    hill_curve,
    make_coxian,
    make_erlang,
    make_mixture_erlang,
    mml_frac_moment,
    mml_pdf,
    ml_deriv,
    ml_eval,
    nll,
    ph_frac_moment,
    ph_sample,
    sample_ml_scalar,
    sample_positive_stable,
    simulate_absorption,
    transition_matrix,
)
from mlphase.cli import main
from mlphase.fitting import FitConfig
from mlphase.semimarkov import SemiMarkovSpec
from mlphase.tailtools import exp_transform

from conftest import ph_to_sm_spec

ERLANG = MMLDist(0.5, make_erlang(2, 1.0))
PMML = PMMLDist(MMLDist(0.7, make_erlang(2, 1.0)), 1.5)
SPEC = ph_to_sm_spec(make_coxian((0.5, 0.5), (1.0, 3.0)), 0.7)
DATA = np.random.default_rng(11).exponential(size=30) + 0.05


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


def _data_file(dirname):
    return _write(os.path.join(dirname, "data.txt"),
                  "\n".join(repr(float(v)) for v in DATA) + "\n")


def _model_doc():
    return json.loads(dist_to_json(PMML))


def _spec_doc():
    return json.loads(SPEC.to_json())


def _fit_doc():
    return {"structure": "mixture_erlang", "shapes": [2], "fit_nu": False,
            "restarts": 1, "max_iterations": 5}


def _argv(command, dirname, doc):
    """argv running command on doc, written next to a 30-point data file."""
    path = _write(os.path.join(dirname, "doc.json"), json.dumps(doc))
    out = ["--out", os.path.join(dirname, "run")]
    if command == "eval":
        return ["eval", "--model", path, "--grid-points", "5", *out]
    if command == "sample":
        return ["sample", "--model", path, "-n", "20", *out]
    if command == "simulate-sm":
        return ["simulate-sm", "--spec", path, "-n", "20", *out]
    if command == "qq":
        return ["qq", "--model", path, "--data", _data_file(dirname), *out]
    return ["fit", "--config", path, "--data", _data_file(dirname), *out]


# ---------------------------------------------------------------------------
# the documents the library writes are read back unchanged


def test_written_documents_read_back(tmp_path):
    for command, doc in (("eval", _model_doc()), ("simulate-sm", _spec_doc())):
        assert main(_argv(command, str(tmp_path), doc)) == 0
    # the config echoed in fit.json is itself a valid config
    code = main(_argv("fit", str(tmp_path), _fit_doc()))
    with open(tmp_path / "run" / "fit.json") as fh:
        echoed = json.load(fh)["config"]
    assert main(_argv("fit", str(tmp_path), echoed)) == code
    for d in (ERLANG, PMML, MMLDist(0.9, make_mixture_erlang(
            (0.5, 0.5), (2, 3), (1.0, 4.0)))):
        back = dist_from_json(dist_to_json(d))
        assert type(back) is type(d) and back.tail_index == d.tail_index
    assert SemiMarkovSpec.from_json(SPEC.to_json()).alpha == SPEC.alpha


# ---------------------------------------------------------------------------
# ill-typed fit configs, model documents and spec documents: exit code 2


_PH = _model_doc()["ph"]
_ERLANG_PH = {"structure": "erlang", "pi": [1.0], "T": [[-1.0]],
              "params": {"shape": True, "rate": 1.0}}

CLI_CASES = [
    # tracebacks at the parent
    ("fit", {"restarts": 2.5}),
    ("fit", {"restarts": math.nan}),
    ("fit", {"structure": "coxian", "dimension": 2.5}),
    ("fit", {"shape_grid": 5}),
    ("fit", {"fit_alpha": "no"}),
    # silent misreads at the parent
    ("fit", {"shapes": "12"}),
    ("fit", {"shapes": [True]}),
    ("fit", {"max_iterations": math.inf}),
    ("fit", {"restarts": 1, "max_iterations": 2.5}),
    ("eval", {"alpha": 0.5, "Nu": 2.0, "ph": _PH}),
    ("eval", {"alpha": True, "nu": 1.5, "ph": _PH}),
    ("eval", {"alpha": 0.5, "ph": {**_PH, "strucutre": "general"}}),
    ("eval", {"alpha": 0.5, "ph": _ERLANG_PH}),
    ("simulate-sm", {**_spec_doc(), "Alpha": 0.5}),
]


@pytest.mark.parametrize("command,doc", CLI_CASES, ids=[
    "restarts_float", "restarts_nan", "dimension_float", "shape_grid_int",
    "fit_alpha_str", "shapes_str", "shapes_bool", "max_iterations_inf",
    "max_iterations_float", "model_key_Nu", "alpha_bool",
    "ph_key_strucutre", "erlang_shape_bool", "spec_key_Alpha"])
def test_cli_rejects_ill_typed_document(tmp_path, capsys, command, doc):
    if command == "fit":
        doc = {**_fit_doc(), **doc}
    assert main(_argv(command, str(tmp_path), doc)) == 2
    assert "validation error" in capsys.readouterr().err


def test_cli_rejects_negative_drop_smallest(tmp_path, capsys):
    # --drop-smallest -1 would keep only the largest observation
    argv = _argv("qq", str(tmp_path), _model_doc()) + ["--drop-smallest", "-1"]
    assert main(argv) == 2
    assert "validation error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ill-typed library arguments: ValidationError


LIBRARY_CASES = {
    # silent misreads at the parent
    "make_erlang_shape_float": lambda: make_erlang(2.7, 1.0),
    "ml_deriv_order_float": lambda: ml_deriv(MLParams(0.5), -1.0, 2.7),
    # untyped errors at the parent
    "ph_sample_size_str": lambda: ph_sample(
        make_erlang(2, 1.0), RandomStream(1), size="a"),
    "positive_stable_size_str": lambda: sample_positive_stable(
        0.5, RandomStream(1), size="a"),
    "ml_scalar_size_str": lambda: sample_ml_scalar(
        0.5, 1.0, RandomStream(1), size="a"),
    "simulate_size_str": lambda: simulate_absorption(
        SPEC, RandomStream(1), size="a"),
    "MLParams_str": lambda: MLParams("a"),
    "MMLDist_str": lambda: MMLDist("a", make_erlang(1, 1.0)),
    "PMMLDist_str": lambda: PMMLDist(ERLANG, "a"),
    "mml_frac_moment_str": lambda: mml_frac_moment(ERLANG, "a"),
    "ph_frac_moment_str": lambda: ph_frac_moment(make_erlang(2, 1.0), "a"),
    "transition_matrix_str": lambda: transition_matrix(SPEC, "a"),
    "make_erlang_rate_str": lambda: make_erlang(2, "a"),
    "ml_scalar_delta_str": lambda: sample_ml_scalar(0.5, "a", RandomStream(1)),
    "mml_pdf_str": lambda: mml_pdf(ERLANG, ["a"]),
    "nll_str": lambda: nll(PMML, ["a"]),
    "fit_pmml_str": lambda: fit_pmml(["a"], FitConfig(), RandomStream(1)),
    "hill_curve_str": lambda: hill_curve(["a", "b", "c"]),
    "mml_pdf_2d": lambda: mml_pdf(ERLANG, [[1.0, 2.0], [3.0, 4.0]]),
    "split_str": lambda: RandomStream(1).split("a"),
    # a bool read as 1, a string or None an untyped TypeError, at the parent
    "ml_eval_bool": lambda: ml_eval(MLParams(0.5), True),
    "ml_eval_str": lambda: ml_eval(MLParams(0.5), "a"),
    "ml_eval_none": lambda: ml_eval(MLParams(0.5), None),
    "ml_deriv_bool_array": lambda: ml_deriv(MLParams(0.5), [True, False], 1),
    # exp_transform keeps boundary zeros, which gave H_2 = inf at the parent
    "hill_curve_zero_series": lambda: hill_curve(exp_transform([0.0, 1.0, 2.0])),
}


@pytest.mark.parametrize("call", LIBRARY_CASES.values(),
                         ids=LIBRARY_CASES.keys())
def test_library_rejects_ill_typed_argument(call):
    with pytest.raises(ValidationError):
        call()


# ---------------------------------------------------------------------------
# mutated documents never escape main as an exception

_BASES = {"eval": _model_doc, "sample": _model_doc, "qq": _model_doc,
          "simulate-sm": _spec_doc, "fit": _fit_doc}
_WRONG = [None, True, False, "a", "0.5", [], {}, math.nan, math.inf,
          -math.inf]


def _paths(node, prefix=()):
    """Every (container path, key) pair of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix, key
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated(draw, base):
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        kind = draw(st.sampled_from(["wrong", "nest", "drop", "extra"]))
        if not paths or kind == "extra":
            doc["extra_field"] = draw(st.sampled_from(_WRONG))
            continue
        prefix, key = draw(st.sampled_from(paths))
        node = doc
        for p in prefix:
            node = node[p]
        if kind == "drop":
            del node[key]
        elif kind == "nest":
            node[key] = draw(st.sampled_from([[node[key]], {"v": node[key]}]))
        else:
            node[key] = draw(st.sampled_from(_WRONG))
    return doc


@pytest.mark.parametrize("command", sorted(_BASES))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_documents_exit_cleanly(command, data):
    doc = data.draw(_mutated(_BASES[command]()))
    with tempfile.TemporaryDirectory() as dirname:
        assert main(_argv(command, dirname, doc)) in (0, 2, 3, 4)
