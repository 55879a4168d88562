"""The benchmark's tracer wraps package attributes by name, and it tells the
branches of a layer apart by which private functions ran; a change inside
mlphase must neither leave one of those names dangling nor stop a traced run
from producing a per-layer metric that BENCHMARK.json lists."""
import importlib.util
import json
import os

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _load(name):
    path = os.path.join(_ROOT, "bench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_resolve():
    tracer = _load("tracer")
    assert tracer._WRAPS
    missing = [f"{mod.__name__}.{attr}" for mod, attr, *_ in tracer._WRAPS
               if not callable(getattr(mod, attr, None))]
    assert not missing


def test_tracer_class_helper_resolves():
    # _logpdf_class reads distributions._coxian_ok outside _WRAPS; without
    # it a traced run cannot class a tagged Coxian's spans and exits 1
    tracer = _load("tracer")
    assert callable(getattr(tracer.distributions, "_coxian_ok", None))


def test_traced_rounds_produce_every_per_layer_metric(tmp_path):
    # one traced round of each workload, as a traced benchmark run takes them
    # (its own workload's rounds plus one fill-in round of each other one);
    # trace.overhead_s is the only metric the worker adds itself
    from mlphase import EvaluationError

    tracer, workloads = _load("tracer"), _load("workloads")
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as fh:
        wanted = {m["name"] for m in json.load(fh)["per_layer"]}
    measured, failed = set(), set()
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        ops = workload(1, str(workdir)).operations()
        trace = tracer.Tracer()
        out = {}
        with trace.installed():
            for label, fn in ops:
                try:
                    out[label] = fn(out)
                except EvaluationError:
                    failed.add(label)
        measured |= set(tracer.layer_metrics(trace.spans, 1))
    # the matrix series' refusal at x = 1000 is the one kept fault
    assert failed <= {"defective_x1000/pdf", "defective_x1000/sf"}
    assert sorted(wanted - measured - {"trace.overhead_s"}) == []
