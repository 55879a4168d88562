"""The benchmark's tracer wraps package attributes by name; a rename inside
mlphase must not leave one of those names dangling."""
import importlib.util
import os

_TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_wraps_resolve():
    tracer = _load_tracer()
    assert tracer._WRAPS
    missing = [f"{mod.__name__}.{attr}" for mod, attr, *_ in tracer._WRAPS
               if not callable(getattr(mod, attr, None))]
    assert not missing


def test_tracer_class_helper_resolves():
    # _logpdf_class reads distributions._coxian_ok outside _WRAPS; without
    # it a traced run cannot class a tagged Coxian's spans and exits 1
    tracer = _load_tracer()
    assert callable(getattr(tracer.distributions, "_coxian_ok", None))
