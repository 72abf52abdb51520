"""The benchmark's tracer wraps gradcert functions by name; they must all resolve.

``bench/tracer.py`` replaces module attributes of gradcert at run time, so a
rename in the package would only show up when a traced benchmark run fails.
This test reads the tracer's tables and changes nothing under ``bench/``.
"""

import importlib.util
from pathlib import Path

import gradcert
import gradcert.cli  # noqa: F401  (the tracer wraps cli.main)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_on_gradcert():
    tracer = _tracer()
    for mod, attr, _ in tracer.SPANS:
        assert callable(getattr(getattr(gradcert, mod), attr)), f"{mod}.{attr}"
    for cls in tracer.MODULI:
        assert callable(getattr(gradcert.majorant, cls).integral), cls
    assert callable(gradcert.problems.make_problem)
