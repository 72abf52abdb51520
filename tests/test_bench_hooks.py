"""The benchmark's hooks into gradcert: the tracer's targets and one run per workload.

``bench/tracer.py`` replaces module attributes of gradcert at run time, so a
rename in the package would only show up when a traced benchmark run fails.
``bench/run.py`` checks every output against references computed apart from
the program (``bench/checks.py``), so one pass per workload guards the API
those checks replay.  These tests read and run ``bench/``; they change
nothing under it.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gradcert
import gradcert.cli  # noqa: F401  (the tracer wraps cli.main)

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


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


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_benchmark_pass_is_correct_with_no_failed_case(workload):
    # --seconds 0 runs one pass; its last line is the run's JSON summary
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    summary = json.loads(run.stdout.splitlines()[-1])
    assert (summary["correct"], summary["failed"]) == (True, 0), run.stderr
