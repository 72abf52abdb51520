"""Negative controls for the benchmark's correctness checks.

Each check must pass on a correct run and fail on a wrong answer: an
understated contraction factor, a perturbed reference solution, an
understated sigma, and overstated or understated estimator references.

    python3 -m pytest -q bench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gradcert  # noqa: E402
from gradcert import cli  # noqa: E402

import checks  # noqa: E402
import references as ref  # noqa: E402

SPD = {"name": "linear_spd", "params": {"m": 1.0, "M": 4.0, "dim": 3, "rotate": True, "seed": 5}}


def run_cli(tmp_path, command, config):
    config = dict(config, output={"report_path": "report.json",
                                  "trace_path": "trace.csv" if command == "solve" else None})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = cli.main([command, "--config", str(path), "--fixed-clock"])
    report = json.loads((tmp_path / "report.json").read_text())
    trace = (tmp_path / "trace.csv").read_text() if command == "solve" else None
    return code, report, trace


@pytest.fixture
def certified(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = {"problem": SPD, "method": {"family": "min_residual"},
              "bounds": {"mode": "certified"}, "run": {"res_tol": 1e-10, "max_iter": 500}}
    steps = checks.replay(gradcert, config).steps
    return tmp_path, config, steps


def test_certificate_check_rejects_understated_mu(certified):
    tmp_path, config, steps = certified
    code, report, _ = run_cli(tmp_path, "certify", config)
    assert code == 0
    x_star = ref.solution(SPD)
    mu = ref.certified_mu(SPD, "min_residual", 1.0)
    assert checks.check_certify(report, steps, x_star, 2.0, mu) == []
    errs = checks.check_certify(report, steps, x_star, 2.0, 0.9 * mu)
    assert any("w(a)" in e for e in errs)


def test_solve_check_rejects_perturbed_reference_solution(certified):
    tmp_path, config, steps = certified
    code, report, trace = run_cli(tmp_path, "solve", config)
    assert code == 0
    rows = checks.parse_trace(trace)
    x_star = ref.solution(SPD)
    assert checks.check_solve(report, rows, steps, x_star, 2.0, 1e-10) == []
    errs = checks.check_solve(report, rows, steps, x_star + 1e-6, 2.0, 1e-10)
    assert any("a posteriori" in e for e in errs)


def test_solve_check_rejects_a_trace_the_replay_does_not_match(certified):
    tmp_path, config, steps = certified
    _, report, trace = run_cli(tmp_path, "solve", config)
    rows = checks.parse_trace(trace)
    rows[3]["res_norm"] = repr(float(rows[3]["res_norm"]) * (1.0 + 1e-15))
    errs = checks.check_solve(report, rows, steps, ref.solution(SPD), 2.0, 1e-10)
    assert any("replay row 3" in e for e in errs)


def test_space_check_rejects_understated_sigma(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    space = {"kind": "sequence_p", "p": 4.0}
    code, report, _ = run_cli(tmp_path, "verify-space", {"space": space,
                                                         "run": {"seed": 3, "samples": 3000}})
    assert code == 0
    control = gradcert.verify_space_axioms(gradcert.sequence_p(4.0), n_samples=3000, seed=3,
                                           sigma=checks.SIGMA_UNDERSTATEMENT * 3.0)
    assert not control.passed
    assert checks.check_space(report, 3.0, control.passed) == []
    assert checks.check_space(report, checks.SIGMA_UNDERSTATEMENT * 3.0, control.passed)
    assert checks.check_space(report, 3.0, control_passed=True)


def test_estimate_check_rejects_wrong_exact_values(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = {"problem": SPD, "method": {"family": "min_residual"},
              "bounds": {"mode": "estimated",
                         "plan": {"seed": 2, "n_points": 16, "n_dirs": 32, "refine": True}},
              "run": {"res_tol": 1e-10, "max_iter": 500}}
    code, report, _ = run_cli(tmp_path, "estimate", config)
    assert code == 0
    nu = ref.exact_nu(1.0, 4.0, "min_residual")
    lam = ref.exact_step_bound(1.0, "min_residual")
    assert checks.check_estimate(report, nu, lam, linear=True) == []
    assert checks.check_estimate(report, 1.1 * nu, lam, linear=True)
    assert checks.check_estimate(report, nu, 0.9 * lam, linear=True)


def test_h_equation_reference_solves_the_program_discretization():
    H = ref.h_equation(0.5, 20)
    f = gradcert.chandrasekhar(0.5, 20).f
    assert np.max(np.abs(f(H))) < 1e-13
    assert np.max(np.abs(f(H + 1e-6))) > 1e-7


def test_mu_formulas_match_known_values():
    # linear_spd(1, 4): antieigenvalue 4/5, so mu = 3/5 for minimal residuals
    assert ref.exact_mu(ref.exact_nu(1.0, 4.0, "min_residual"), "min_residual") == \
        pytest.approx(0.6, rel=1e-15)
    assert ref.exact_mu(1.0, "altman_steepest_descent", 1.0) == 0.0
