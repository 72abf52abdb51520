import csv
import json

import numpy as np
import pytest

from gradcert import cli


def write_config(tmp_path, name="cfg.json", **sections):
    path = tmp_path / name
    path.write_text(json.dumps(sections, indent=1))
    return str(path)


def solve_config(tmp_path, **overrides):
    cfg = {
        "problem": {"name": "linear_spd", "params": {"m": 1, "M": 4, "dim": 2}},
        "method": {"family": "min_residual"},
        "space": {"kind": "euclidean"},
        "bounds": {"mode": "certified"},
        "run": {"res_tol": 1e-10, "max_iter": 300, "seed": 11},
        "output": {"report_path": str(tmp_path / "report.json"),
                   "trace_path": str(tmp_path / "trace.csv")},
    }
    cfg.update(overrides)
    return cfg


def read_report(tmp_path):
    return json.loads((tmp_path / "report.json").read_text())


def read_trace(tmp_path):
    with open(tmp_path / "trace.csv") as fh:
        return list(csv.DictReader(fh))


def test_solve_identity_one_step(tmp_path):
    cfg = solve_config(tmp_path,
                       problem={"name": "identity", "params": {"dim": 3}},
                       method={"family": "steepest_descent"})
    rc = write_config(tmp_path, **cfg)
    assert cli.main(["solve", "--config", rc, "--fixed-clock"]) == 0
    rows = read_trace(tmp_path)
    assert len(rows) == 2  # x0 plus the single exact step
    assert float(rows[1]["res_norm"]) <= 1e-12
    rep = read_report(tmp_path)
    assert rep["trace"]["termination"] == "converged"
    assert rep["trace"]["reason"] is None
    assert rep["generated_at"] is None


def test_solve_certified_linear(tmp_path):
    rc = write_config(tmp_path, **solve_config(tmp_path))
    assert cli.main(["solve", "--config", rc, "--fixed-clock"]) == 0
    rep = read_report(tmp_path)
    assert rep["certificate"]["feasible"] is True
    assert rep["verification"]["violations"] == []
    rows = read_trace(tmp_path)
    res = [float(r["res_norm"]) for r in rows]
    ratios = [b / a for a, b in zip(res, res[1:])]
    assert max(ratios) <= 0.6 + 1e-9
    assert list(rows[0]) == ["n", "res_norm", "lambda_n", "step_norm",
                             "dist_from_center", "bound_dn", "apost_bound"]


def test_solve_understated_mu_exits_2_with_violations(tmp_path):
    cfg = solve_config(
        tmp_path,
        problem={"name": "linear_spd",
                 "params": {"m": 1, "M": 4, "dim": 2, "x0": [1.6, 0.2]}},
        bounds={"mode": "explicit",
                "explicit": {"mu": 0.3, "lam": 1.0, "theta": 1.0}})
    rc = write_config(tmp_path, **cfg)
    assert cli.main(["solve", "--config", rc, "--fixed-clock"]) == 2
    rep = read_report(tmp_path)
    assert rep["trace"]["termination"] == "converged"
    assert len(rep["verification"]["violations"]) > 0


def test_solve_breakdown_exits_4(tmp_path):
    cfg = solve_config(tmp_path,
                       problem={"name": "indefinite2d", "params": {}},
                       method={"family": "steepest_descent"},
                       bounds={"mode": "explicit",
                               "explicit": {"mu": 0.5, "lam": 1.0, "theta": 1.0}})
    rc = write_config(tmp_path, **cfg)
    assert cli.main(["solve", "--config", rc, "--fixed-clock"]) == 4
    trace = read_report(tmp_path)["trace"]
    assert trace["termination"] == "breakdown"
    assert "steepest_descent: step denominator" in trace["reason"]
    assert "positive-pairing assumption fails" in trace["reason"]


def test_solve_non_convergence_exits_3(tmp_path):
    cfg = solve_config(tmp_path, run={"res_tol": 1e-10, "max_iter": 2, "seed": 0})
    rc = write_config(tmp_path, **cfg)
    assert cli.main(["solve", "--config", rc, "--fixed-clock"]) == 3


def test_certify_trivial_geometric(tmp_path):
    cfg = solve_config(
        tmp_path,
        problem={"name": "identity", "params": {"dim": 1, "b": [0.2]}},
        bounds={"mode": "explicit",
                "explicit": {"mu": 0.5, "lam": 1.0, "theta": 1.0, "R": 1.0}})
    rc = write_config(tmp_path, **cfg)
    assert cli.main(["certify", "--config", rc, "--fixed-clock"]) == 0
    rep = read_report(tmp_path)
    assert rep["certificate"]["feasible"] is True
    assert rep["certificate"]["r"] == pytest.approx(0.4, abs=1e-9)
    assert rep["certificate"]["w_of_a"] == pytest.approx(0.4, rel=1e-9)
    assert rep["apriori_bounds"][0]["bound"] == pytest.approx(0.4, rel=1e-9)


def test_certify_infeasible_exits_3(tmp_path):
    cfg = solve_config(
        tmp_path,
        problem={"name": "identity", "params": {"dim": 1, "b": [0.2]}},
        bounds={"mode": "explicit",
                "explicit": {"mu": 0.99, "lam": 1.0, "theta": 1.0, "R": 0.3}})
    rc = write_config(tmp_path, **cfg)
    assert cli.main(["certify", "--config", rc, "--fixed-clock"]) == 3
    rep = read_report(tmp_path)
    assert rep["certificate"]["feasible"] is False
    assert rep["apriori_bounds"] is None


def test_certify_quad2d_reports_finite_fixed_point(tmp_path):
    # the spec-fixed geometry (a ~ 0.67, R = 1) admits no feasible radius,
    # but the fallback certificate at R still carries a finite fixed point
    # so a posteriori bounds remain evaluable
    cfg = solve_config(tmp_path, problem={"name": "quad2d", "params": {}})
    rc = write_config(tmp_path, **cfg)
    assert cli.main(["certify", "--config", rc, "--fixed-clock"]) == 3
    rep = read_report(tmp_path)
    cert = rep["certificate"]
    assert cert["feasible"] is False
    assert cert["phi_star"] is not None and cert["phi_star"] > cert["a"]
    assert cert["diagnostics"]


def test_estimate_linear(tmp_path):
    cfg = solve_config(tmp_path,
                       bounds={"mode": "estimated",
                               "plan": {"seed": 5, "n_points": 8, "n_dirs": 512,
                                        "refine": True}})
    rc = write_config(tmp_path, **cfg)
    assert cli.main(["estimate", "--config", rc, "--fixed-clock"]) == 0
    rep = read_report(tmp_path)
    est = rep["estimates"]
    assert est["nu_tilde"]["value"] == pytest.approx(0.8, abs=1e-4)
    assert "upper estimate" in est["nu_tilde"]["label"]
    assert est["lambda_tilde"]["value"] == pytest.approx(1.0, abs=1e-6)
    assert "lower estimate" in est["lambda_tilde"]["label"]
    assert rep["derived"]["mu_min_family"] == pytest.approx(0.6, abs=1e-4)
    assert rep["derived"]["mu_altman_family"] == pytest.approx(0.75, abs=1e-3)
    assert rep["derived"]["altman_valid"] is True


def test_estimate_acuteness_failure_exits_2(tmp_path):
    cfg = solve_config(tmp_path, problem={"name": "indefinite2d", "params": {}})
    rc = write_config(tmp_path, **cfg)
    assert cli.main(["estimate", "--config", rc, "--fixed-clock"]) == 2
    rep = read_report(tmp_path)
    assert rep["estimates"]["nu_tilde"]["value"] <= 0.0
    assert rep["derived"]["acuteness_ok"] is False


def test_verify_space_pass_and_fail(tmp_path):
    cfg = solve_config(tmp_path, space={"kind": "sequence_p", "p": 3.0},
                       run={"seed": 1, "samples": 20000})
    rc = write_config(tmp_path, **cfg)
    assert cli.main(["verify-space", "--config", rc, "--fixed-clock"]) == 0
    rep = read_report(tmp_path)
    assert rep["space_axioms"]["passed"] is True
    assert rep["space_axioms"]["sigma"] == 2.0


def test_list_problems(capsys):
    assert cli.main(["list-problems"]) == 0
    out = json.loads(capsys.readouterr().out)
    names = {row["name"] for row in out}
    assert {"identity", "linear_spd", "quad2d", "scalar_quad",
            "chandrasekhar", "indefinite2d"} <= names


def test_reports_are_byte_reproducible(tmp_path):
    rc = write_config(tmp_path, **solve_config(tmp_path))
    assert cli.main(["solve", "--config", rc, "--fixed-clock"]) == 0
    rep1 = (tmp_path / "report.json").read_bytes()
    tr1 = (tmp_path / "trace.csv").read_bytes()
    assert cli.main(["solve", "--config", rc, "--fixed-clock"]) == 0
    assert (tmp_path / "report.json").read_bytes() == rep1
    assert (tmp_path / "trace.csv").read_bytes() == tr1


def test_seed_flag_overrides_config(tmp_path):
    cfg = solve_config(tmp_path,
                       bounds={"mode": "estimated",
                               "plan": {"seed": 5, "n_points": 8, "n_dirs": 64,
                                        "refine": False}})
    rc = write_config(tmp_path, **cfg)
    assert cli.main(["estimate", "--config", rc, "--fixed-clock", "--seed", "77"]) == 0
    rep = read_report(tmp_path)
    assert rep["config"]["run"]["seed"] == 77
    assert rep["config"]["bounds"]["plan"]["seed"] == 77


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"problem": {"name": "identity"}, "bogus": 1}')
    assert cli.main(["solve", "--config", str(path)]) == 1


def test_unknown_nested_key_rejected(tmp_path):
    cfg = solve_config(tmp_path)
    cfg["run"]["surprise"] = True
    rc = write_config(tmp_path, **cfg)
    assert cli.main(["solve", "--config", rc]) == 1


def test_json_syntax_error_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "problem": {,}\n}')
    assert cli.main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_bad_family_rejected(tmp_path):
    cfg = solve_config(tmp_path, method={"family": "does_not_exist"})
    rc = write_config(tmp_path, **cfg)
    assert cli.main(["solve", "--config", rc]) == 1


@pytest.mark.parametrize("command", ["solve", "certify", "estimate"])
def test_adjoint_family_in_p4_rejected(tmp_path, capsys, command):
    cfg = solve_config(tmp_path, method={"family": "min_error"},
                       space={"kind": "sequence_p", "p": 4.0},
                       bounds={"mode": "explicit",
                               "explicit": {"mu": 0.5, "lam": 1.0, "theta": 1.0}})
    rc = write_config(tmp_path, **cfg)
    assert cli.main([command, "--config", rc]) == 1
    assert capsys.readouterr().err == (
        "config error at method/space: min_error uses the adjoint and is not "
        "defined outside Euclidean geometry\n")


def test_bad_config_value_type_is_config_error(tmp_path, capsys):
    # a value of the wrong type is a config error at its path, not a traceback
    cfg = solve_config(tmp_path, problem={"name": "linear_spd", "params": {"bogus": 1}})
    assert cli.main(["solve", "--config", write_config(tmp_path, **cfg)]) == 1
    assert capsys.readouterr().err.startswith("config error at problem: ")
    cfg = solve_config(tmp_path, bounds={"mode": "estimated", "plan": {"n_points": "many"}})
    assert cli.main(["estimate", "--config", write_config(tmp_path, **cfg)]) == 1
    assert capsys.readouterr().err.startswith("config error at bounds.plan: ")


@pytest.mark.parametrize("key, value", [
    ("refine", "false"), ("refine", 0), ("n_points", 2.9), ("n_dirs", True),
    ("seed", 3.0), ("seed", False)])
def test_plan_value_of_another_type_is_config_error(tmp_path, capsys, key, value):
    # coerced, "false" would polish while the report echoes it, 2.9 would
    # run as 2 points and true as 1 direction
    plan = dict({"seed": 3, "n_points": 4, "n_dirs": 16, "refine": False}, **{key: value})
    cfg = solve_config(tmp_path, bounds={"mode": "estimated", "plan": plan})
    assert cli.main(["estimate", "--config", write_config(tmp_path, **cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"config error at bounds.plan: {key} ")


def test_certified_bounds_missing_rejected(tmp_path):
    cfg = solve_config(tmp_path, problem={"name": "chandrasekhar",
                                          "params": {"c": 0.5, "n": 10}})
    rc = write_config(tmp_path, **cfg)
    assert cli.main(["solve", "--config", rc]) == 1


def test_missing_config_flag():
    assert cli.main(["solve"]) == 1


def test_solve_estimated_banach_p4(tmp_path):
    cfg = solve_config(
        tmp_path,
        method={"family": "banach_min_residual"},
        space={"kind": "sequence_p", "p": 4.0},
        bounds={"mode": "estimated",
                "plan": {"seed": 3, "n_points": 8, "n_dirs": 256, "refine": True}})
    rc = write_config(tmp_path, **cfg)
    assert cli.main(["solve", "--config", rc, "--fixed-clock"]) == 0
    rep = read_report(tmp_path)
    assert rep["certificate"]["sigma"] == 3.0
    assert rep["trace"]["termination"] == "converged"


def test_explicit_step_family_key_rejected(tmp_path, capsys):
    # the contraction formula comes from the method; with "min" this run
    # would certify mu = 0.60 instead of the steepest-descent 0.75
    explicit = {"nu": 0.8, "lam": 1.0, "theta": 1.0}
    cfg = solve_config(
        tmp_path, method={"family": "steepest_descent"},
        problem={"name": "linear_spd",
                 "params": {"m": 1, "M": 4, "dim": 2, "x0": [1.6, 0.2]}},
        bounds={"mode": "explicit", "explicit": dict(explicit, step_family="min")})
    assert cli.main(["solve", "--config", write_config(tmp_path, **cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error at bounds.explicit: unknown key(s) ['step_family']")
    cfg["bounds"]["explicit"] = explicit
    assert cli.main(["solve", "--config", write_config(tmp_path, **cfg), "--fixed-clock"]) == 0
    assert read_report(tmp_path)["certificate"]["linear_rate"] == pytest.approx(0.75)


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command", ["estimate", "solve", "verify-space"])
def test_negative_seed_is_config_error(tmp_path, capsys, command, via):
    cfg = solve_config(tmp_path, bounds={"mode": "estimated",
                                         "plan": {"n_points": 8, "n_dirs": 64,
                                                  "refine": False}})
    seed_flag = ["--seed", "-1"] if via == "flag" else []
    if via == "config":
        cfg["run"]["seed"] = -1
    assert cli.main([command, "--config", write_config(tmp_path, **cfg), *seed_flag]) == 1
    assert capsys.readouterr().err.startswith("config error at ")


def test_report_values_may_be_numpy_scalars():
    report = {"ok": np.bool_(True), "x": np.float64(0.5), "n": np.int64(3)}
    assert json.dumps(cli._jsonable(report)) == '{"ok": true, "x": 0.5, "n": 3}'
