"""Batch command-line front end.

Commands: eval, sample, simulate-sm, fit, hill, qq. Every run writes its
outputs atomically (temp file + rename; a failed write deletes the temp
file) plus a manifest of argv, seed, config, input digests, output paths and
wall time. CSV values are repr(float(v)), the shortest round-trip form, so
reruns with identical seed and inputs are byte-identical; rows are written
_BLOCK_ROWS at a time, never held whole.

Exit codes: 0 success, 2 validation error, 3 numeric failure,
4 non-convergence.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .distributions import dist_from_doc, pmml_pdf, pmml_sf
# kept for bench/tracer.py, which wraps this name
from .distributions import pmml_cdf  # noqa: F401
from .errors import EvaluationError, ValidationError, _document, _integer, _json
from .fitting import FitConfig, fit_pmml
from .rng import RandomStream
from .sampling import sample_pmml
from .semimarkov import simulate_absorption, sm_from_doc
from .tailtools import exp_transform, hill_curve, qq_uniform


# ---------------------------------------------------------------------------
# manifest and file plumbing

@dataclass
class RunManifest:
    """Record of one CLI run: inputs, outputs, and reproducibility data."""

    command: list
    seed: int
    config: dict | None = None
    inputs: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    wall_time_s: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic_write(path: str, chunks) -> None:
    """Write the strings of chunks one at a time to a temp file, then rename
    it onto path; on failure the temp file is deleted, path left as it was."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


_BLOCK_ROWS = 8192


def _csv_blocks(header: str, columns):
    """The header line, then the rows of the float columns _BLOCK_ROWS at a
    time, each block formatted by one % on its flattened values."""
    yield header + "\n"
    row = ",".join(["%r"] * len(columns)) + "\n"
    for i in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.stack([c[i:i + _BLOCK_ROWS] for c in columns], axis=1,
                         dtype=float)
        yield (row * len(block)) % tuple(block.ravel().tolist())


def _write_csv(args, manifest, name: str, header: str, *columns) -> None:
    """Write the float columns to name in --out and record the output."""
    out = os.path.join(args.out, name)
    _atomic_write(out, _csv_blocks(header, columns))
    manifest.outputs.append(out)


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read {path}: {e}") from None


def _read_doc(path: str):
    return _json(_read_text(path), path)


# ---------------------------------------------------------------------------
# data ingestion

def _parse_float(tok: str) -> float | None:
    try:
        return float(tok)
    except ValueError:
        return None


def _ingest(path: str, column: str | None) -> np.ndarray:
    """One positive value per line, or CSV with a named column.

    Header row is optional and auto-detected; nonpositive or unparseable
    values are reported with their 1-based line numbers.
    """
    rows = [(i + 1, [f.strip() for f in ln.split(",")])
            for i, ln in enumerate(_read_text(path).splitlines()) if ln.strip()]
    if not rows:
        raise ValidationError(f"{path}: no data rows")

    col = 0
    named = column is not None
    if named:
        first = rows[0][1]
        if column not in first:
            raise ValidationError(f"{path}: no column named {column!r}")
        col = first.index(column)
    # each data token is parsed once; a first row whose token does not
    # parse is the auto-detected header
    parsed = [(lineno, _parse_float(fields[col]) if col < len(fields) else None)
              for lineno, fields in (rows[1:] if named else rows)]
    if not named and parsed[0][1] is None:
        parsed = parsed[1:]

    bad = [lineno for lineno, v in parsed if v is None or not 0.0 < v < np.inf]
    if bad:
        shown = bad[:20]
        more = f" and {len(bad) - 20} more" if len(bad) > 20 else ""
        raise ValidationError(
            f"{path}: nonpositive or unparseable values at lines {shown}{more}"
        )
    if not parsed:
        raise ValidationError(f"{path}: no data rows")
    return np.asarray([v for _, v in parsed], dtype=float)


def _prepare_data(args) -> np.ndarray:
    data = _ingest(args.data, args.column)
    k = _integer(args.drop_smallest, "--drop-smallest", "[0, inf)")
    if k:
        if k >= data.size:
            raise ValidationError("--drop-smallest would remove all data")
        data = np.sort(data)[k:]
    if getattr(args, "exp_transform", False):
        data = exp_transform(data).values
    return data


# ---------------------------------------------------------------------------
# fit config

_STRUCTURE_ALIASES = {s.replace("_", ""): s
                      for s in ("mixture_erlang", "coxian", "exponential")}

_CONFIG_KEYS = {f.name for f in fields(FitConfig)}


def _load_fit_config(path: str) -> FitConfig:
    doc = _document(_read_doc(path), f"{path}: config", (), _CONFIG_KEYS)
    kwargs = dict(doc)
    if "structure" in kwargs:
        key = str(kwargs["structure"]).lower().replace("_", "").replace("-", "")
        if key not in _STRUCTURE_ALIASES:
            raise ValidationError(f"{path}: unknown structure {doc['structure']!r}")
        kwargs["structure"] = _STRUCTURE_ALIASES[key]
    return FitConfig(**kwargs)


# ---------------------------------------------------------------------------
# commands

def _cmd_eval(args, manifest: RunManifest) -> int:
    model = dist_from_doc(_read_doc(args.model))
    manifest.inputs[args.model] = _digest(args.model)
    if args.grid_min < 0 or args.grid_max <= args.grid_min or args.grid_points < 1:
        raise ValidationError("grid must satisfy 0 <= min < max, points >= 1")
    if args.log_grid:
        if args.grid_min <= 0:
            raise ValidationError("log grid requires a positive minimum")
        xs = np.geomspace(args.grid_min, args.grid_max, args.grid_points)
    else:
        xs = np.linspace(args.grid_min, args.grid_max, args.grid_points)

    pdf = np.full(xs.shape, np.nan)
    pos = xs > 0.0
    if np.any(pos):
        pdf[pos] = np.atleast_1d(pmml_pdf(model, xs[pos]))
    sf = np.atleast_1d(pmml_sf(model, xs))
    # pmml_cdf's values, bit for bit, without a second survival pass
    cdf = np.clip(1.0 - sf, 0.0, 1.0)

    _write_csv(args, manifest, "eval.csv", "x,pdf,cdf,survival",
               xs, pdf, cdf, sf)
    return 0


def _cmd_sample(args, manifest: RunManifest) -> int:
    model = dist_from_doc(_read_doc(args.model))
    manifest.inputs[args.model] = _digest(args.model)
    draws = sample_pmml(model, RandomStream(args.seed),
                        size=_integer(args.num, "-n", "[1, inf)"))
    _write_csv(args, manifest, "samples.csv", "value", draws)
    return 0


def _cmd_simulate_sm(args, manifest: RunManifest) -> int:
    spec = sm_from_doc(_read_doc(args.spec))
    manifest.inputs[args.spec] = _digest(args.spec)
    draws = simulate_absorption(spec, RandomStream(args.seed),
                                size=_integer(args.num, "-n", "[1, inf)"))
    _write_csv(args, manifest, "absorption.csv", "value", draws)
    return 0


def _cmd_fit(args, manifest: RunManifest) -> int:
    config = _load_fit_config(args.config)
    manifest.inputs[args.config] = _digest(args.config)
    manifest.inputs[args.data] = _digest(args.data)
    data = _prepare_data(args)
    result = fit_pmml(data, config, RandomStream(args.seed))

    text = result.to_json()
    out_fit = os.path.join(args.out, "fit.json")
    _atomic_write(out_fit, (text, "\n"))
    manifest.outputs.append(out_fit)
    manifest.config = json.loads(text)["config"]

    if result.model is not None:
        _write_csv(args, manifest, "qq.csv", "theoretical,empirical",
                   *qq_uniform(result.model, data).T)
    if data.size >= 3:
        _write_csv(args, manifest, "hill.csv", "k,hill", *hill_curve(data).T)

    if args.exp_transform and result.model is not None:
        # density of the original (pre-transform) variable implied by the fit
        orig = np.log1p(data)
        xs = np.linspace(float(orig.min()), float(orig.max()), 200)
        xs = np.maximum(xs, 1e-12)
        dens = np.atleast_1d(pmml_pdf(result.model, np.expm1(xs))) * np.exp(xs)
        _write_csv(args, manifest, "back_density.csv", "x,density", xs, dens)

    return 0 if result.converged else 4


def _cmd_hill(args, manifest: RunManifest) -> int:
    manifest.inputs[args.data] = _digest(args.data)
    _write_csv(args, manifest, "hill.csv", "k,hill",
               *hill_curve(_prepare_data(args)).T)
    return 0


def _cmd_qq(args, manifest: RunManifest) -> int:
    model = dist_from_doc(_read_doc(args.model))
    manifest.inputs[args.model] = _digest(args.model)
    manifest.inputs[args.data] = _digest(args.data)
    _write_csv(args, manifest, "qq.csv", "theoretical,empirical",
               *qq_uniform(model, _prepare_data(args)).T)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p: argparse.ArgumentParser, data=False, model=False):
    p.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")
    p.add_argument("--out", default=".", help="output directory")
    if model:
        p.add_argument("--model", required=True, help="model JSON file")
    if data:
        p.add_argument("--data", required=True, help="data file (CSV or one value per line)")
        p.add_argument("--column", default=None, help="CSV column name to ingest")
        p.add_argument("--drop-smallest", type=int, default=0, metavar="K",
                       help="drop the K smallest observations before use")
        p.add_argument("--exp-transform", action="store_true",
                       help="apply y = exp(x) - 1 before use")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mlphase",
        description="Matrix Mittag-Leffler distributions: evaluate, sample, fit.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("eval", help="tabulate pdf/cdf/survival on a grid")
    _add_common(p, model=True)
    p.add_argument("--grid-min", type=float, default=0.01)
    p.add_argument("--grid-max", type=float, default=10.0)
    p.add_argument("--grid-points", type=int, default=200)
    p.add_argument("--log-grid", action="store_true", help="log-spaced grid")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sample", help="draw from a model")
    _add_common(p, model=True)
    p.add_argument("-n", "--num", type=int, required=True, help="number of draws")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("simulate-sm", help="simulate semi-Markov absorption times")
    _add_common(p)
    p.add_argument("--spec", required=True, help="semi-Markov spec JSON file")
    p.add_argument("-n", "--num", type=int, required=True, help="number of paths")
    p.set_defaults(func=_cmd_simulate_sm)

    p = sub.add_parser("fit", help="maximum-likelihood fit")
    _add_common(p, data=True)
    p.add_argument("--config", required=True, help="fit config JSON file")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("hill", help="Hill curve of a data file")
    _add_common(p, data=True)
    p.set_defaults(func=_cmd_hill)

    p = sub.add_parser("qq", help="uniform QQ data for a model against a data file")
    _add_common(p, data=True, model=True)
    p.set_defaults(func=_cmd_qq)

    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)
    manifest = RunManifest(command=["mlphase"] + argv, seed=args.seed)
    t0 = time.perf_counter()
    try:
        os.makedirs(args.out, exist_ok=True)
        code = args.func(args, manifest)
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2
    except EvaluationError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    manifest.wall_time_s = time.perf_counter() - t0
    path = os.path.join(args.out, "manifest.json")
    _atomic_write(path, (manifest.to_json(), "\n"))
    return code


if __name__ == "__main__":
    sys.exit(main())
