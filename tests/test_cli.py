"""End-to-end command-line tests: file formats, exit codes, reproducibility."""
import json
import os
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

import mlphase.cli as climod
import mlphase.distributions as distmod
import mlphase.semimarkov as smmod
from mlphase.cli import _BLOCK_ROWS, _atomic_write, _csv_blocks, main
from mlphase.errors import ValidationError
from mlphase.fitting import FitConfig
from mlphase.distributions import (
    MMLDist,
    PMMLDist,
    dist_to_json,
    mml_cdf,
    pmml_cdf,
    pmml_pdf,
    pmml_sf,
)
from mlphase.phasetype import make_coxian, make_erlang, ph_pdf
from mlphase.tailtools import hill_curve

from conftest import ph_to_sm_spec


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


def _model_file(tmp_path, dist, name="model.json"):
    return _write(tmp_path / name, dist_to_json(dist))


def _read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def _header(path):
    with open(path) as fh:
        return fh.readline().strip()


# ---------------------------------------------------------------- eval


def test_eval_grid_matches_library(tmp_path):
    d = MMLDist(0.7, make_erlang(4, 2.0))
    model = _model_file(tmp_path, d)
    out = str(tmp_path / "run")
    assert main(["eval", "--model", model, "--out", out,
                 "--grid-min", "0.01", "--grid-max", "10",
                 "--grid-points", "50"]) == 0
    tab = _read_csv(os.path.join(out, "eval.csv"))
    xs = np.linspace(0.01, 10.0, 50)
    # shortest round-trip float serialization reads back exactly
    assert np.array_equal(tab["x"], xs)
    assert np.array_equal(tab["pdf"], pmml_pdf(d, xs))
    assert np.array_equal(tab["cdf"], pmml_cdf(d, xs))
    assert np.array_equal(tab["survival"], pmml_sf(d, xs))

    man = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert man["seed"] == 0
    assert model in man["inputs"]
    assert len(man["inputs"][model]) == 64
    assert any(p.endswith("eval.csv") for p in man["outputs"])
    assert man["wall_time_s"] >= 0.0


def test_eval_makes_one_survival_pass(tmp_path, monkeypatch):
    # the cdf column is 1 - survival, so eval evaluates log S once
    calls = []
    fn = distmod._dispatch_logsf

    def spy(*args):
        calls.append(len(args[3]))
        return fn(*args)

    monkeypatch.setattr(distmod, "_dispatch_logsf", spy)
    model = _model_file(tmp_path, MMLDist(0.7, make_erlang(4, 2.0)))
    assert main(["eval", "--model", model, "--out", str(tmp_path / "run"),
                 "--grid-min", "0", "--grid-max", "10",
                 "--grid-points", "50"]) == 0
    assert calls == [49]


def test_eval_alpha_one_is_phase_type_density(tmp_path):
    gen = make_coxian((0.5, 0.5), (1.0, 3.0))
    model = _model_file(tmp_path, MMLDist(1.0, gen))
    out = str(tmp_path / "run")
    assert main(["eval", "--model", model, "--out", out,
                 "--grid-min", "0.1", "--grid-max", "5",
                 "--grid-points", "20"]) == 0
    tab = _read_csv(os.path.join(out, "eval.csv"))
    assert np.allclose(tab["pdf"], ph_pdf(gen, tab["x"]), rtol=1e-10)


def test_eval_single_point_at_zero(tmp_path):
    model = _model_file(tmp_path, MMLDist(0.5, make_erlang(1, 1.0)))
    out = str(tmp_path / "run")
    assert main(["eval", "--model", model, "--out", out,
                 "--grid-min", "0", "--grid-max", "1",
                 "--grid-points", "1"]) == 0
    tab = np.genfromtxt(os.path.join(out, "eval.csv"),
                        delimiter=",", names=True)
    assert tab["x"] == 0.0
    assert tab["cdf"] == 0.0
    assert tab["survival"] == 1.0
    assert np.isnan(tab["pdf"])


def test_eval_log_grid(tmp_path):
    d = MMLDist(0.5, make_erlang(2, 1.0))
    model = _model_file(tmp_path, d)
    out = str(tmp_path / "run")
    assert main(["eval", "--model", model, "--out", out, "--log-grid",
                 "--grid-min", "0.01", "--grid-max", "100",
                 "--grid-points", "9"]) == 0
    tab = _read_csv(os.path.join(out, "eval.csv"))
    assert np.array_equal(tab["x"], np.geomspace(0.01, 100.0, 9))
    bad = str(tmp_path / "bad")
    assert main(["eval", "--model", model, "--out", bad, "--log-grid",
                 "--grid-min", "0", "--grid-max", "1"]) == 2


def test_eval_malformed_model_json(tmp_path, capsys):
    model = _write(tmp_path / "model.json", "{not json")
    assert main(["eval", "--model", model, "--out", str(tmp_path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_eval_mistagged_model(tmp_path, capsys):
    # an erlang tag whose params do not describe T is a validation error
    ph = {"structure": "erlang", "pi": [1, 0], "T": [[-1, 1], [0, -1]],
          "params": {"shape": 5, "rate": 9.0}}
    model = _write(tmp_path / "model.json",
                   json.dumps({"alpha": 0.8, "nu": 1.0, "ph": ph}))
    assert main(["eval", "--model", model, "--out", str(tmp_path)]) == 2
    assert "validation error" in capsys.readouterr().err


# ---------------------------------------------------------------- sample


def test_sample_reruns_byte_identical(tmp_path):
    model = _model_file(tmp_path, PMMLDist(MMLDist(0.7, make_erlang(2, 1.0)), 1.5))
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["sample", "--model", model, "--out", out,
                     "-n", "5", "--seed", "42"]) == 0
        outs.append(open(os.path.join(out, "samples.csv"), "rb").read())
    assert outs[0] == outs[1]
    out = str(tmp_path / "c")
    assert main(["sample", "--model", model, "--out", out,
                 "-n", "5", "--seed", "43"]) == 0
    assert open(os.path.join(out, "samples.csv"), "rb").read() != outs[0]


def test_sample_ks_against_model_cdf(tmp_path):
    d = MMLDist(0.7, make_erlang(4, 2.0))
    model = _model_file(tmp_path, d)
    out = str(tmp_path / "run")
    n = 100_000
    assert main(["sample", "--model", model, "--out", out,
                 "-n", str(n), "--seed", "9001"]) == 0
    draws = np.loadtxt(os.path.join(out, "samples.csv"), skiprows=1)
    assert draws.shape == (n,)
    u = np.sort(mml_cdf(d, np.sort(draws)))
    stat = np.max(np.abs(u - np.arange(1, n + 1) / n))
    assert stat < 1.62762 / np.sqrt(n)


def test_sample_rejects_bad_count(tmp_path):
    model = _model_file(tmp_path, MMLDist(0.5, make_erlang(1, 1.0)))
    assert main(["sample", "--model", model, "--out", str(tmp_path),
                 "-n", "0"]) == 2


# ---------------------------------------------------------------- simulate-sm


def test_simulate_sm_agrees_with_product_sampler(tmp_path):
    gen = make_erlang(1, 1.0)
    spec = ph_to_sm_spec(gen, 0.5)
    spec_file = _write(tmp_path / "spec.json", spec.to_json())
    out_sm = str(tmp_path / "sm")
    assert main(["simulate-sm", "--spec", spec_file, "--out", out_sm,
                 "-n", "20000", "--seed", "777"]) == 0
    sm = np.loadtxt(os.path.join(out_sm, "absorption.csv"), skiprows=1)

    model = _model_file(tmp_path, MMLDist(0.5, gen))
    out_pr = str(tmp_path / "pr")
    assert main(["sample", "--model", model, "--out", out_pr,
                 "-n", "20000", "--seed", "888"]) == 0
    pr = np.loadtxt(os.path.join(out_pr, "samples.csv"), skiprows=1)
    assert ks_2samp(sm, pr).pvalue > 0.01


def test_simulate_sm_runaway_is_numeric_failure(tmp_path, monkeypatch, capsys):
    # a jump budget too small for the chain surfaces as exit code 3
    monkeypatch.setattr(smmod, "MAX_JUMPS", 50)
    spec = smmod.SemiMarkovSpec(
        Q=np.array([[0.0, 0.999, 0.001], [0.999, 0.0, 0.001], [0.0, 0.0, 1.0]]),
        rates=np.array([1.0, 1.0]),
        alpha=0.9,
        pi=np.array([1.0, 0.0]),
    )
    spec_file = _write(tmp_path / "spec.json", spec.to_json())
    assert main(["simulate-sm", "--spec", spec_file, "--out", str(tmp_path),
                 "-n", "20", "--seed", "1"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_simulate_sm_invalid_spec(tmp_path, capsys):
    spec_file = _write(tmp_path / "spec.json",
                       '{"alpha": 0.5, "rates": [1.0], "jump_probs": [[0.0, 2.0]]}')
    assert main(["simulate-sm", "--spec", spec_file, "--out", str(tmp_path),
                 "-n", "5"]) == 2
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "5",
    '{"Q": [[0.0, 1.0], [0.0, 1.0]], "rates": [1.0], "alpha": "abc",'
    ' "pi": [1.0]}',
], ids=["not_an_object", "non_numeric_alpha"])
def test_simulate_sm_ill_typed_spec(tmp_path, capsys, text):
    with pytest.raises(ValidationError):
        smmod.sm_from_doc(json.loads(text))
    spec_file = _write(tmp_path / "spec.json", text)
    assert main(["simulate-sm", "--spec", spec_file, "--out", str(tmp_path),
                 "-n", "5"]) == 2
    assert "validation error" in capsys.readouterr().err


# ---------------------------------------------------------------- fit


def _exp_config(tmp_path, **kw):
    doc = {"structure": "exponential", "fit_alpha": False, "fit_nu": False,
           "restarts": 1, "max_iterations": 400}
    doc.update(kw)
    return _write(tmp_path / "config.json", json.dumps(doc))


def test_fit_exponential_end_to_end(tmp_path):
    rng = np.random.default_rng(314)
    data = rng.exponential(scale=0.5, size=2000)
    data_file = _write(tmp_path / "data.txt",
                       "\n".join(repr(float(v)) for v in data) + "\n")
    config = _exp_config(tmp_path)
    out = str(tmp_path / "run")
    assert main(["fit", "--data", data_file, "--config", config,
                 "--out", out, "--seed", "5"]) == 0

    doc = json.loads(open(os.path.join(out, "fit.json")).read())
    assert doc["converged"] is True
    lam = doc["model"]["ph"]["params"]["rate"]
    assert abs(lam - 1.0 / data.mean()) < 1e-5 * lam
    assert doc["config"]["structure"] == "exponential"

    assert _header(os.path.join(out, "qq.csv")) == "theoretical,empirical"
    assert _header(os.path.join(out, "hill.csv")) == "k,hill"
    man = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert set(man["inputs"]) == {data_file, config}
    assert man["config"]["structure"] == "exponential"
    assert len(man["outputs"]) == 3


def test_fit_rerun_byte_identical(tmp_path):
    rng = np.random.default_rng(315)
    data_file = _write(tmp_path / "data.txt",
                       "\n".join(repr(float(v))
                                 for v in rng.exponential(size=400)) + "\n")
    config = _exp_config(tmp_path)
    blobs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["fit", "--data", data_file, "--config", config,
                     "--out", out, "--seed", "11"]) == 0
        blobs.append({f: open(os.path.join(out, f), "rb").read()
                      for f in ("fit.json", "qq.csv", "hill.csv")})
    assert blobs[0] == blobs[1]


def test_sample_output_feeds_fit(tmp_path):
    model = _model_file(tmp_path, MMLDist(1.0, make_erlang(1, 2.0)))
    out_s = str(tmp_path / "s")
    assert main(["sample", "--model", model, "--out", out_s,
                 "-n", "300", "--seed", "21"]) == 0
    config = _exp_config(tmp_path, max_iterations=300)
    out_f = str(tmp_path / "f")
    assert main(["fit", "--data", os.path.join(out_s, "samples.csv"),
                 "--config", config, "--out", out_f, "--seed", "3"]) == 0
    assert json.loads(open(os.path.join(out_f, "fit.json")).read())["converged"]


def test_fit_named_column(tmp_path):
    rng = np.random.default_rng(316)
    rows = "\n".join(f"{i},{float(v)!r}"
                     for i, v in enumerate(rng.exponential(size=200)))
    data_file = _write(tmp_path / "claims.csv", "policy,claim\n" + rows + "\n")
    config = _exp_config(tmp_path, max_iterations=300)
    out = str(tmp_path / "run")
    assert main(["fit", "--data", data_file, "--config", config,
                 "--column", "claim", "--out", out]) == 0
    missing = main(["fit", "--data", data_file, "--config", config,
                    "--column", "loss", "--out", out])
    assert missing == 2


def test_fit_bad_lines_listed(tmp_path, capsys):
    data_file = _write(tmp_path / "data.txt", "1.0\n2.0\n-2.0\nabc\n3.0\n")
    config = _exp_config(tmp_path)
    assert main(["fit", "--data", data_file, "--config", config,
                 "--out", str(tmp_path)]) == 2
    assert "[3, 4]" in capsys.readouterr().err


def test_fit_unknown_config_field(tmp_path, capsys):
    data_file = _write(tmp_path / "data.txt", "1.0\n2.0\n3.0\n")
    config = _write(tmp_path / "config.json", '{"structure": "exponential", "iters": 5}')
    assert main(["fit", "--data", data_file, "--config", config,
                 "--out", str(tmp_path)]) == 2
    assert "iters" in capsys.readouterr().err


@pytest.mark.parametrize("field", [{"shapes": 5}, {"restarts": "a"}],
                         ids=["shapes_not_a_sequence", "restarts_not_a_number"])
def test_fit_ill_typed_config(tmp_path, capsys, field):
    with pytest.raises(ValidationError):
        FitConfig(**field)
    data_file = _write(tmp_path / "data.txt", "1.0\n2.0\n3.0\n")
    config = _write(tmp_path / "config.json", json.dumps(field))
    assert main(["fit", "--data", data_file, "--config", config,
                 "--out", str(tmp_path)]) == 2
    assert "validation error" in capsys.readouterr().err


def test_fit_nonconvergence_exit_code(tmp_path):
    rng = np.random.default_rng(317)
    data_file = _write(tmp_path / "data.txt",
                       "\n".join(repr(float(v))
                                 for v in rng.exponential(size=100)) + "\n")
    config = _write(tmp_path / "config.json", json.dumps(
        {"structure": "mixture_erlang", "shapes": [1, 2],
         "restarts": 1, "max_iterations": 1}))
    out = str(tmp_path / "run")
    assert main(["fit", "--data", data_file, "--config", config,
                 "--out", out, "--seed", "2"]) == 4
    doc = json.loads(open(os.path.join(out, "fit.json")).read())
    assert doc["converged"] is False
    assert os.path.exists(os.path.join(out, "manifest.json"))


def test_fit_exp_transform_back_density(tmp_path):
    rng = np.random.default_rng(318)
    x = rng.gamma(shape=2.0, scale=0.5, size=300)
    data_file = _write(tmp_path / "data.txt",
                       "\n".join(repr(float(v)) for v in x) + "\n")
    config = _exp_config(tmp_path, max_iterations=300)
    out = str(tmp_path / "run")
    assert main(["fit", "--data", data_file, "--config", config,
                 "--exp-transform", "--out", out, "--seed", "8"]) == 0
    tab = _read_csv(os.path.join(out, "back_density.csv"))
    assert _header(os.path.join(out, "back_density.csv")) == "x,density"
    assert tab.shape == (200,)
    assert np.all(np.isfinite(tab["density"]))
    assert np.all(tab["density"] >= 0.0)


# ---------------------------------------------------------------- hill / qq


def test_hill_command_pinned_values(tmp_path):
    data_file = _write(tmp_path / "data.txt",
                       f"1.0\n{np.e!r}\n{np.e**2!r}\n")
    out = str(tmp_path / "run")
    assert main(["hill", "--data", data_file, "--out", out]) == 0
    assert _header(os.path.join(out, "hill.csv")) == "k,hill"
    tab = np.loadtxt(os.path.join(out, "hill.csv"), delimiter=",", skiprows=1)
    assert np.allclose(tab, [[1.0, 1.0], [2.0, 1.5]], atol=1e-12)


def test_hill_command_drop_smallest(tmp_path):
    vals = np.arange(1.0, 11.0)
    data_file = _write(tmp_path / "data.txt",
                       "\n".join(repr(float(v)) for v in vals) + "\n")
    out = str(tmp_path / "run")
    assert main(["hill", "--data", data_file, "--out", out,
                 "--drop-smallest", "3"]) == 0
    tab = np.loadtxt(os.path.join(out, "hill.csv"), delimiter=",", skiprows=1)
    ref = hill_curve(vals[3:])
    assert np.array_equal(tab, ref)
    assert main(["hill", "--data", data_file, "--out", out,
                 "--drop-smallest", "10"]) == 2


def test_hill_command_exp_transform(tmp_path):
    xs = np.array([0.5, 1.0, 2.0, 3.5, 4.0])
    data_file = _write(tmp_path / "data.txt",
                       "\n".join(repr(float(v)) for v in xs) + "\n")
    out = str(tmp_path / "run")
    assert main(["hill", "--data", data_file, "--out", out,
                 "--exp-transform"]) == 0
    tab = np.loadtxt(os.path.join(out, "hill.csv"), delimiter=",", skiprows=1)
    assert np.array_equal(tab, hill_curve(np.expm1(xs)))


def test_qq_command(tmp_path):
    d = PMMLDist(MMLDist(0.6, make_erlang(1, 1.0)), 2.0)
    model = _model_file(tmp_path, d)
    rng = np.random.default_rng(319)
    x = rng.uniform(0.2, 5.0, size=50)
    data_file = _write(tmp_path / "data.txt",
                       "\n".join(repr(float(v)) for v in x) + "\n")
    out = str(tmp_path / "run")
    assert main(["qq", "--model", model, "--data", data_file,
                 "--out", out]) == 0
    tab = np.loadtxt(os.path.join(out, "qq.csv"), delimiter=",", skiprows=1)
    assert np.array_equal(tab[:, 0], np.arange(1, 51) / 51.0)
    assert np.array_equal(tab[:, 1], pmml_cdf(d, np.sort(x)))


# ---------------------------------------------------------------- CSV writer

# values whose shortest round-trip form is easy to get wrong
_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
            1e16, 1e22, 1e-7, 0.1, 1.0 / 3.0, 1.0, 3.0, -2.0, 123456789.0,
            2.0 ** 53, 1.7976931348623157e308]


@pytest.mark.parametrize("ncols", [1, 2, 4])
@pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                                  _BLOCK_ROWS + 1])
def test_csv_writer_bytes(tmp_path, rows, ncols):
    rng = np.random.default_rng(100 * rows + ncols)
    pool = np.concatenate([_SPECIAL, rng.standard_normal(500)
                           * 10.0 ** rng.integers(-300, 300, 500)])
    cols = [np.resize(np.roll(pool, 5 * j), rows) for j in range(ncols)]
    header = ",".join(f"c{j}" for j in range(ncols))
    path = str(tmp_path / "t.csv")
    _atomic_write(path, _csv_blocks(header, cols))
    lines = [header] + [",".join(repr(float(c[i])) for c in cols)
                        for i in range(rows)]
    assert open(path, "rb").read() == ("\n".join(lines) + "\n").encode()
    assert os.listdir(tmp_path) == ["t.csv"]


def test_sample_streams_draws(tmp_path, monkeypatch):
    # 400k draws are about 7 MB of text; formatted a block at a time the
    # write never holds the whole file (the draws are made before tracing)
    draws = np.random.default_rng(3).pareto(1.0, 400_000)
    monkeypatch.setattr(climod, "sample_pmml", lambda model, rng, size: draws)
    model = _model_file(tmp_path, MMLDist(0.5, make_erlang(1, 1.0)))
    out = str(tmp_path / "run")
    tracemalloc.start()
    try:
        assert main(["sample", "--model", model, "--out", out,
                     "-n", str(draws.size)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    with open(os.path.join(out, "samples.csv")) as fh:
        assert fh.readline() == "value\n"
        assert fh.readline() == repr(float(draws[0])) + "\n"


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    model = _model_file(tmp_path, MMLDist(0.5, make_erlang(1, 1.0)))
    out = tmp_path / "run"
    argv = ["sample", "--model", model, "--out", str(out), "-n", "20000"]
    assert main(argv) == 0
    before = {f: (out / f).read_bytes() for f in os.listdir(out)}

    def failing(header, columns):
        blocks = _csv_blocks(header, columns)
        yield next(blocks)
        yield next(blocks)
        raise OSError("No space left on device")

    monkeypatch.setattr(climod, "_csv_blocks", failing)
    with pytest.raises(OSError, match="No space"):
        main(argv + ["--seed", "1"])
    assert {f: (out / f).read_bytes() for f in os.listdir(out)} == before

    def chunks():
        yield "{"
        raise ValueError("not serializable")

    with pytest.raises(ValueError):
        _atomic_write(str(out / "manifest.json"), chunks())
    assert {f: (out / f).read_bytes() for f in os.listdir(out)} == before
