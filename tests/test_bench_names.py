"""The benchmark's tracer wraps package attributes by name; a rename inside
mlphase must not leave one of those names dangling."""
import importlib.util
import os

_TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def test_tracer_wraps_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer._WRAPS
    missing = [f"{mod.__name__}.{attr}" for mod, attr, *_ in tracer._WRAPS
               if not callable(getattr(mod, attr, None))]
    assert not missing
