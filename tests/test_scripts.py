"""The example scripts run end to end on the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("certificate_demo.py", []),
    ("rate_study.py", ["--out", "{tmp}/r.csv"]),
])
def test_example_script_runs(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "scripts" / script),
           *(a.format(tmp=tmp_path) for a in args)]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_fixed_clock_digest_is_stable(tmp_path):
    # one line per report, trace and exit code of each of the four commands,
    # and the same lines on a second run of the same checkout
    cmd = [sys.executable, str(ROOT / "scripts" / "fixed_clock_digest.py"), str(ROOT),
           str(ROOT / "configs" / "quad2d_certify.json")]
    runs = [subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, check=True)
            .stdout.splitlines() for _ in range(2)]
    assert len(runs[0]) == 12
    assert runs[0] == runs[1]
    assert {line.split()[1] for line in runs[0]} == {
        "estimate", "certify", "solve", "verify-space"}
