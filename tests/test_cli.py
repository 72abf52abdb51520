import csv
import json
import math
import os

import numpy as np
import pytest

import gradcert as gc
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


def test_solve_residual_below_the_rounding_floor_is_unresolved(tmp_path):
    # scalar_quad under min_residual: after step 2 the residual (1.4e-17)
    # exceeds its allowed 8.3e-18, but both lie below the rounding error of
    # evaluating f, so the step is unresolved, not a violation
    cfg = solve_config(tmp_path, problem={"name": "scalar_quad", "params": {"c": 0.1}})
    assert cli.main(["solve", "--config", write_config(tmp_path, **cfg), "--fixed-clock"]) == 0
    rep = read_report(tmp_path)
    verification = rep["verification"]
    assert verification["violations"] == []
    assert verification["unresolved_steps"] == [2]
    assert verification["checked_steps"] == rep["trace"]["n_steps"] - 1


@pytest.mark.parametrize("mode", ["certified", "estimated"])
@pytest.mark.parametrize("command", ["certify", "solve"])
def test_a_start_that_solves_the_equation_is_certified_at_r_zero(tmp_path, command, mode):
    cfg = solve_config(tmp_path, problem={"name": "identity", "params": {"dim": 2, "b": [0, 0]}},
                       bounds={"mode": mode, "plan": {"n_points": 8, "n_dirs": 16}})
    assert cli.main([command, "--config", write_config(tmp_path, **cfg), "--fixed-clock"]) == 0
    rep = read_report(tmp_path)
    cert = rep["certificate"]
    assert cert["feasible"] is True
    assert (cert["a"], cert["r"], cert["w_of_a"], cert["condition_value"]) == (0.0, 0.0, 0.0, 0.0)
    assert cert["velo_bound"] == cert["linear_rate"]
    if command == "solve":
        assert rep["trace"]["n_steps"] == 0 and rep["trace"]["termination"] == "converged"
        assert rep["verification"] == {"checked_steps": 0, "unresolved_steps": [],
                                       "violations": [], "tightest": [
                                           {"step": 0, "kind": "ball", "observed": 0.0,
                                            "allowed": 0.0}]}
    else:
        assert {row["bound"] for row in rep["apriori_bounds"]} == {0.0}


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
    verification = rep["verification"]
    assert len(verification["violations"]) > 0
    # the tightest residual record is the worst residual violation
    worst = max((v for v in verification["violations"] if v["kind"] == "residual"),
                key=lambda v: v["observed"] / v["allowed"])
    assert {t["kind"]: t for t in verification["tightest"]}["residual"] == worst


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


@pytest.mark.parametrize("space, family, vartheta", [
    ({"kind": "euclidean"}, "min_residual", 1.0),
    ({"kind": "euclidean"}, "altman_steepest_descent", 1.4),
    ({"kind": "sequence_p", "p": 4.0}, "min_residual", 1.0),
    ({"kind": "sequence_p", "p": 4.0}, "altman_steepest_descent", 1.9)])
def test_estimate_derived_fields_are_the_contraction_rule(tmp_path, space, family, vartheta):
    # both rule kinds, the relaxed one at the method's vartheta, through MethodSpec.mu
    cfg = solve_config(tmp_path, space=space, method={"family": family, "vartheta": vartheta},
                       bounds={"mode": "estimated",
                               "plan": {"seed": 5, "n_points": 8, "n_dirs": 64}})
    assert cli.main(["estimate", "--config", write_config(tmp_path, **cfg),
                     "--fixed-clock"]) == 0
    rep = read_report(tmp_path)
    nu = rep["estimates"]["nu_tilde"]["value"]
    sigma = gc.SpaceGeometry(space.get("p", 2.0)).sigma
    relaxed = gc.MethodSpec(gc.ALTMAN_STEEPEST_DESCENT, vartheta)
    derived = rep["derived"]
    assert derived["mu_min_family"] == gc.MethodSpec(gc.MIN_RESIDUAL).mu(nu, sigma)
    assert derived["altman_validity_threshold"] == relaxed.threshold(sigma)
    assert derived["altman_valid"] is (nu > relaxed.threshold(sigma))
    assert derived["mu_altman_family"] == (relaxed.mu(nu, sigma) if derived["altman_valid"]
                                           else None)


@pytest.mark.parametrize("family, label", [
    ("min_residual", "exact: T = I"), ("min_co_error", "lower estimate of the supremum")])
def test_estimate_reports_theta(tmp_path, family, label):
    plan = {"seed": 5, "n_points": 8, "n_dirs": 64, "refine": False}
    cfg = solve_config(tmp_path, method={"family": family},
                       bounds={"mode": "estimated", "plan": plan})
    assert cli.main(["estimate", "--config", write_config(tmp_path, **cfg), "--fixed-clock"]) == 0
    p = gc.linear_spd(1, 4, 2)
    est = gc.sample_estimates(p, gc.MethodSpec(family), gc.euclidean(), p.R, gc.SamplePlan(**plan))
    assert read_report(tmp_path)["estimates"]["theta"] == {"value": est.theta, "label": label}
    # the adjoint families sample ||f'^T||, which is M = 4 on this linear problem
    assert est.theta == (1.0 if family == "min_residual" else pytest.approx(4.0, rel=1e-12))


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
    # each row says how its certified bounds were derived, or null without any
    notes = {row["name"]: row["certified_bounds_note"] for row in out}
    assert "antieigenvalue" in notes["linear_spd"]
    assert notes["chandrasekhar"] is None
    assert all((row["certified_bounds_note"] is None) != row["has_certified_bounds"]
               for row in out)


def test_reports_are_byte_reproducible(tmp_path):
    rc = write_config(tmp_path, **solve_config(tmp_path))
    assert cli.main(["solve", "--config", rc, "--fixed-clock"]) == 0
    rep1 = (tmp_path / "report.json").read_bytes()
    tr1 = (tmp_path / "trace.csv").read_bytes()
    assert cli.main(["solve", "--config", rc, "--fixed-clock"]) == 0
    assert (tmp_path / "report.json").read_bytes() == rep1
    assert (tmp_path / "trace.csv").read_bytes() == tr1


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


@pytest.mark.parametrize("family", ["min_co_error", "min_error", "altman_min_error"])
@pytest.mark.parametrize("command", ["solve", "certify", "estimate"])
def test_adjoint_family_in_p4_rejected(tmp_path, capsys, command, family):
    cfg = solve_config(tmp_path, method={"family": family},
                       space={"kind": "sequence_p", "p": 4.0},
                       bounds={"mode": "explicit",
                               "explicit": {"mu": 0.5, "lam": 1.0, "theta": 1.0}})
    rc = write_config(tmp_path, **cfg)
    assert cli.main([command, "--config", rc]) == 1
    assert capsys.readouterr().err == (
        f"config error at method/space: {family} uses the adjoint and is not "
        "defined outside Euclidean geometry\n")


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
@pytest.mark.parametrize("command", ["estimate", "certify", "solve"])
@pytest.mark.parametrize("family", ["min_residual", "steepest_descent",
                                    "altman_steepest_descent"])
def test_identity_t_rule_in_lp_runs_as_its_banach_twin(tmp_path, monkeypatch, command,
                                                       family, p):
    # the rule, not the name, picks the geometry: each report, but for the
    # echoed family, and each trace are those of the banach_* twin
    outputs = []
    for name in (family, "banach_" + family):
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)  # the same echoed output paths for both
        cfg = solve_config(
            work, problem={"name": "chandrasekhar", "params": {"c": 0.5, "n": 6}},
            method={"family": name}, space={"kind": "sequence_p", "p": p},
            bounds={"mode": "estimated",
                    "plan": {"seed": 3, "n_points": 8, "n_dirs": 256, "refine": True}},
            output={"report_path": "report.json", "trace_path": "trace.csv"})
        code = cli.main([command, "--config", write_config(work, **cfg), "--fixed-clock"])
        report = (work / "report.json").read_text()
        assert json.loads(report)["config"]["method"]["family"] == name
        trace = work / "trace.csv"
        outputs.append((code, report.replace(f'"family": "{name}"', '"family": "-"', 1),
                        trace.read_bytes() if trace.exists() else None))
    assert outputs[0][0] != cli.EXIT_CONFIG
    assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize("command, key, value", [
    ("verify-space", "seed", 1.9), ("verify-space", "seed", True),
    ("verify-space", "samples", 200.7), ("solve", "max_iter", 300.0)])
def test_run_value_of_another_type_is_config_error(tmp_path, capsys, command, key, value):
    # coerced, seed 1.9 and 200.7 samples would run as seed 1 and 200 samples
    # while the report echoes 1.9 and 200.7
    cfg = solve_config(tmp_path)
    cfg["run"][key] = value
    assert cli.main([command, "--config", write_config(tmp_path, **cfg)]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error at run: {key} must be an integer, got {value!r}")


@pytest.mark.parametrize("command", ["solve", "certify", "estimate", "verify-space"])
@pytest.mark.parametrize("value", [-1.0, 0.0, math.nan])
def test_res_tol_not_positive_is_config_error_for_every_subcommand(tmp_path, capsys,
                                                                    command, value):
    # certify and estimate took it and echoed it; only solve built the stop rule
    cfg = solve_config(tmp_path)
    cfg["run"]["res_tol"] = value
    assert cli.main([command, "--config", write_config(tmp_path, **cfg)]) == 1
    assert capsys.readouterr().err == "config error at run: res_tol must be positive\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("value", ["abc", None, True])
def test_res_tol_that_is_not_a_number_is_config_error(tmp_path, capsys, value):
    # float() would raise on "abc" and null outside the config check, and run
    # true as 1.0
    cfg = solve_config(tmp_path)
    cfg["run"]["res_tol"] = value
    assert cli.main(["solve", "--config", write_config(tmp_path, **cfg)]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error at run: res_tol must be a number, got {value!r}")


@pytest.mark.parametrize("command, section, key", [
    ("solve", "run", "res_tol"), ("certify", "bounds.explicit", "lam"),
    ("certify", "bounds.explicit.omega", "L"), ("solve", "method", "vartheta"),
    ("solve", "space", "p")])
def test_an_integer_beyond_the_float_range_is_config_error(tmp_path, capsys, command,
                                                           section, key):
    # float() of a 401-digit integer raised an untyped OverflowError
    cfg = solve_config(tmp_path, bounds={"mode": "explicit", "explicit": {"mu": 0.5}},
                       space={"kind": "sequence_p", "p": 2.0})
    *parents, last = section.split(".")
    leaf = cfg
    for name in parents:
        leaf = leaf[name]
    leaf = leaf.setdefault(last, {})
    leaf[key] = 10 ** 400
    assert cli.main([command, "--config", write_config(tmp_path, **cfg)]) == 1
    assert capsys.readouterr().err == (
        f"config error at {section}: {key} must be a number, "
        "got an integer beyond the float range\n")


def test_an_integer_beyond_the_parse_limit_is_config_error(tmp_path, capsys):
    # json.loads raised a bare ValueError past 4,300 digits
    rc = tmp_path / "cfg.json"
    rc.write_text(json.dumps(solve_config(tmp_path)).replace("1e-10", "9" * 5000))
    assert cli.main(["solve", "--config", str(rc)]) == 1
    assert capsys.readouterr().err.startswith(f"config parse error in {rc}: ")


def test_an_integer_beyond_the_float_range_in_a_list_is_config_error(tmp_path, capsys):
    omega = {"family": "tabulated", "ts": [0.0, 10 ** 400], "ws": [0.0, 1.0]}
    cfg = solve_config(tmp_path, bounds={"mode": "explicit",
                                         "explicit": {"mu": 0.5, "omega": omega}})
    assert cli.main(["certify", "--config", write_config(tmp_path, **cfg)]) == 1
    assert capsys.readouterr().err.startswith("config error at bounds.explicit: ")


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_max_iter_below_one_is_config_error(tmp_path, capsys, command):
    # certify sizes its a priori table by max_iter, and named no config path
    cfg = solve_config(tmp_path)
    cfg["run"]["max_iter"] = -3
    assert cli.main([command, "--config", write_config(tmp_path, **cfg)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error at run: max_iter must be >= 1, got -3")


def test_explicit_mu_and_nu_together_is_config_error(tmp_path, capsys):
    # the nu was dropped: certify exited 0 with linear_rate 0.5
    cfg = solve_config(tmp_path, bounds={"mode": "explicit",
                                         "explicit": {"mu": 0.5, "nu": 0.01}})
    assert cli.main(["certify", "--config", write_config(tmp_path, **cfg)]) == 1
    assert capsys.readouterr().err == (
        "config error at bounds.explicit: BoundData needs exactly one of mu and nu\n")


_EXTREME = [(family, key, v) for family in ("lipschitz", "holder") for key in ("lam", "theta")
            for v in (1e-300, 1e-200, 1e200, 1e300)]
_EXTREME += [("holder", "L", v) for v in (1e-300, 1e-200)]
_EXTREME += [("holder", "alpha", v) for v in (1e-300, 1e-200, 1e-20)]


@pytest.mark.parametrize("command", ["certify", "solve"])
@pytest.mark.parametrize("family, key, value", _EXTREME,
                         ids=[f"{f}-{k}={v:g}" for f, k, v in _EXTREME])
def test_extreme_explicit_bounds_end_in_a_report_or_an_error_line(tmp_path, capsys, command,
                                                                  family, key, value):
    # the closed-form fixed point and the Holder integral raised ZeroDivisionError
    # or OverflowError, which the CLI printed as a traceback
    explicit = {"nu": 0.9, "omega": {"family": family, "L": 0.1}}
    method = {"family": "min_residual"}
    if family == "holder":
        explicit["omega"]["alpha"] = 0.5
        method = {"family": "altman_steepest_descent", "vartheta": 1.5}
    (explicit["omega"] if key in ("L", "alpha") else explicit)[key] = value
    cfg = solve_config(tmp_path, problem={"name": "scalar_quad"}, method=method,
                       bounds={"mode": "explicit", "explicit": explicit})
    code = cli.main([command, "--config", write_config(tmp_path, **cfg), "--fixed-clock"])
    err = capsys.readouterr().err
    if code == 1:
        assert err.startswith("error: ")
    else:
        assert code in (0, 2, 3) and err == ""
        assert read_report(tmp_path)["exit_status"] == code


def test_config_path_that_is_a_directory_is_config_error(tmp_path, capsys):
    assert cli.main(["solve", "--config", str(tmp_path)]) == 1
    assert "Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("command, name, R, mode", [
    ("solve", "linear_spd", -1.0, "certified"),
    ("solve", "chandrasekhar", -1.0, "estimated"),
    ("estimate", "chandrasekhar", 0.0, "estimated")])
def test_problem_radius_not_positive_is_config_error_at_problem(tmp_path, capsys, command,
                                                                name, R, mode):
    # it was blamed on the bounds, on the estimator's radius, or on the
    # sample points a zero radius leaves
    cfg = solve_config(tmp_path, problem={"name": name, "params": {"R": R}},
                       bounds={"mode": mode, "plan": {"n_points": 4, "n_dirs": 8}})
    assert cli.main([command, "--config", write_config(tmp_path, **cfg)]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error at problem: problem radius R={R} must be positive and finite")


def test_chandrasekhar_radius_error_names_the_configured_radius(tmp_path, capsys):
    # at n = 80 the ball radius is R * sqrt(n / 20) = 2 R; the message names R as given
    cfg = solve_config(tmp_path, problem={"name": "chandrasekhar", "params": {"n": 80, "R": -1}},
                       bounds={"mode": "estimated"})
    assert cli.main(["estimate", "--config", write_config(tmp_path, **cfg)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error at problem: problem radius R=-1.0 must be positive and finite")


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


@pytest.mark.parametrize("via", ["config"])  # seeds are set in the config only
@pytest.mark.parametrize("command", ["estimate", "solve", "verify-space"])
def test_negative_seed_is_config_error(tmp_path, capsys, command, via):
    cfg = solve_config(tmp_path, bounds={"mode": "estimated",
                                         "plan": {"n_points": 8, "n_dirs": 64,
                                                  "refine": False}})
    cfg["run"]["seed"] = -1
    assert cli.main([command, "--config", write_config(tmp_path, **cfg)]) == 1
    assert capsys.readouterr().err.startswith("config error at ")


def test_report_values_may_be_numpy_scalars():
    report = {"ok": np.bool_(True), "x": np.float64(0.5), "n": np.int64(3)}
    assert json.dumps(cli._jsonable(report)) == '{"ok": true, "x": 0.5, "n": 3}'


@pytest.mark.parametrize("omega, modulus", [
    ({"family": "holder", "L": 0.05, "alpha": 0.5}, lambda: gc.HolderModulus(0.05, 0.5)),
    ({"family": "tabulated", "ts": [0, 1, 2], "ws": [0, 0.05, 0.1]},
     lambda: gc.TabulatedModulus([0.0, 1.0, 2.0], [0.0, 0.05, 0.1]))],
    ids=["holder", "tabulated"])
def test_explicit_omega_family_builds_its_modulus(tmp_path, omega, modulus):
    explicit = {"nu": 0.8, "omega": omega}
    cfg = solve_config(tmp_path, bounds={"mode": "explicit", "explicit": explicit})
    rc = write_config(tmp_path, **cfg)
    assert cli.main(["certify", "--config", rc, "--fixed-clock"]) == 0
    cert = read_report(tmp_path)["certificate"]
    p = gc.linear_spd(1, 4, 2)
    bounds = gc.BoundData(lam=1.0, theta=1.0, omega=modulus(), R=p.R, nu=0.8,
                          method=gc.MethodSpec(gc.MIN_RESIDUAL))
    expected = gc.certify(bounds, 1.0, gc.norm(gc.euclidean(), p.f(p.x0)))
    assert cert["feasible"] and cert["r"] == expected.r
    # a nonzero modulus needs a wider ball than the default omega = 0
    cfg["bounds"]["explicit"] = {"nu": 0.8}
    assert cli.main(["certify", "--config", write_config(tmp_path, **cfg), "--fixed-clock"]) == 0
    assert cert["r"] > read_report(tmp_path)["certificate"]["r"]
    assert cli.main(["solve", "--config", rc, "--fixed-clock"]) == 0
    assert read_report(tmp_path)["verification"]["violations"] == []


def test_unknown_omega_family_is_config_error(tmp_path, capsys):
    explicit = {"nu": 0.8, "omega": {"family": "cubic"}}
    cfg = solve_config(tmp_path, bounds={"mode": "explicit", "explicit": explicit})
    assert cli.main(["certify", "--config", write_config(tmp_path, **cfg)]) == 1
    assert capsys.readouterr().err == (
        "config error at bounds.explicit.omega.family: unknown 'cubic'\n")
    assert not (tmp_path / "report.json").exists()


def _no_work(monkeypatch):
    for module, name in ((cli.majorant, "certify"), (cli.methods, "solve"),
                         (cli.estimator, "sample_estimates")):
        monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("work ran"))


_BAD_TS = "tabulated t-grid must be finite and strictly increasing"


@pytest.mark.parametrize("omega, message", [
    ({"L": math.nan}, "Holder constant L must be finite and >= 0, got nan"),
    ({"L": math.inf}, "Holder constant L must be finite and >= 0, got inf"),
    ({"L": -0.5}, "Holder constant L must be finite and >= 0, got -0.5"),
    ({"family": "holder", "L": math.nan, "alpha": 0.5},
     "Holder constant L must be finite and >= 0, got nan"),
    ({"family": "tabulated", "ts": [0, math.nan], "ws": [0, 1]}, _BAD_TS),
    ({"family": "tabulated", "ts": [0, 1, math.nan], "ws": [0, 1, 1]}, _BAD_TS)],
    ids=["nan-L", "inf-L", "negative-L", "nan-holder-L", "nan-ts", "nan-last-ts"])
@pytest.mark.parametrize("command", ["certify", "solve"])
def test_a_bad_explicit_modulus_is_a_config_error_before_any_work(
        tmp_path, capsys, monkeypatch, command, omega, message):
    # these used to run: NaN L summed two 1e6-term series and exited 3, inf L
    # warned and exited 3, a NaN t-node spun certify or certified with no phi_star
    _no_work(monkeypatch)
    cfg = solve_config(tmp_path, bounds={"mode": "explicit",
                                         "explicit": {"nu": 0.8, "omega": omega}})
    assert cli.main([command, "--config", write_config(tmp_path, **cfg)]) == 1
    assert capsys.readouterr().err == f"config error at bounds.explicit: {message}\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("omega, reads, unread", [
    ({"family": "tabulated", "ts": [0, 1], "ws": [0, 1], "L": 5.0, "alpha": 0.5},
     ["ts", "ws"], ["L", "alpha"]),
    ({"L": 0.1, "alpha": 1.0}, ["L"], ["alpha"]),
    ({"family": "lipschitz", "ts": [0, 1], "ws": [0, 1]}, ["L"], ["ts", "ws"]),
    ({"family": "holder", "L": 0.1, "alpha": 0.5, "ts": [0, 1]}, ["L", "alpha"], ["ts"])],
    ids=["tabulated", "lipschitz-alpha", "lipschitz-table", "holder"])
@pytest.mark.parametrize("command", ["certify", "solve"])
def test_an_omega_key_that_the_family_does_not_read_is_refused(
        tmp_path, capsys, monkeypatch, command, omega, reads, unread):
    # the report used to echo keys that the run never read
    _no_work(monkeypatch)
    family = omega.get("family", "lipschitz")
    cfg = solve_config(tmp_path, bounds={"mode": "explicit",
                                         "explicit": {"nu": 0.8, "omega": omega}})
    assert cli.main([command, "--config", write_config(tmp_path, **cfg)]) == 1
    assert capsys.readouterr().err == (
        f"config error at bounds.explicit.omega: family {family!r} reads only {reads}, "
        f"got {unread}\n")
    assert not (tmp_path / "report.json").exists()


def test_a_null_omega_key_is_not_given(tmp_path):
    omega = {"family": "lipschitz", "L": 0.1, "ts": None, "ws": None}
    cfg = solve_config(tmp_path, bounds={"mode": "explicit",
                                         "explicit": {"nu": 0.8, "omega": omega}})
    assert cli.main(["certify", "--config", write_config(tmp_path, **cfg), "--fixed-clock"]) == 0


def test_failed_estimation_certifies_nothing_and_solves_uncertified(tmp_path):
    # indefinite2d's sampled acuteness is negative, so no bounds can be estimated
    cfg = solve_config(tmp_path, problem={"name": "indefinite2d"},
                       bounds={"mode": "estimated",
                               "plan": {"n_points": 4, "n_dirs": 8, "refine": False}})
    rc = write_config(tmp_path, **cfg)
    assert cli.main(["certify", "--config", rc, "--fixed-clock"]) == 2
    rep = read_report(tmp_path)
    assert rep["bounds_note"].startswith("estimation failed: sampled acuteness")
    assert rep["certificate"] is None and rep["apriori_bounds"] is None
    assert rep["exit_status"] == 2
    assert cli.main(["solve", "--config", rc, "--fixed-clock"]) == 3
    rep = read_report(tmp_path)
    assert rep["certificate"] is None and rep["verification"] is None
    assert rep["trace"]["termination"] == "max_iter"
    assert rep["trace"]["n_steps"] == 300
    assert all(row["bound_dn"] == "" for row in read_trace(tmp_path))


@pytest.mark.parametrize("command, section, key, value, err", [
    ("certify", "output", "report_path", 5, "output: report_path must be a string, got 5"),
    ("solve", "method", "vartheta", "1.5", "method: vartheta must be a number, got '1.5'"),
    ("solve", "method", "vartheta", True, "method: vartheta must be a number, got True"),
    ("solve", "space", "p", True, "space: p must be a number, got True"),
    ("solve", "bounds", "explicit", {"nu": "0.8"},
     "bounds.explicit: nu must be a number, got '0.8'"),
    ("solve", "bounds", "explicit", {"nu": 0.8, "lam": True},
     "bounds.explicit: lam must be a number, got True")])
def test_value_of_another_type_is_refused_before_any_work(tmp_path, capsys, command,
                                                          section, key, value, err):
    # each used to run and echo the raw value, or to fail after the work was done
    cfg = solve_config(tmp_path)
    cfg[section][key] = value
    assert cli.main([command, "--config", write_config(tmp_path, **cfg)]) == 1
    assert capsys.readouterr().err == f"config error at {err}\n"
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("command", ["solve", "certify", "estimate"])
def test_a_vartheta_that_no_rule_reads_is_refused_before_any_work(tmp_path, capsys,
                                                                   monkeypatch, command):
    # steepest descent at vartheta 1.5 used to run at 1 and echo 1.5 in the report
    _no_work(monkeypatch)
    cfg = solve_config(tmp_path, method={"family": "steepest_descent", "vartheta": 1.5})
    assert cli.main([command, "--config", write_config(tmp_path, **cfg)]) == 1
    assert capsys.readouterr().err == (
        "config error at method: steepest_descent reads no vartheta; only the Altman "
        "variants take vartheta != 1, got 1.5\n")
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "trace.csv").exists()


def test_trace_path_that_is_an_integer_opens_no_descriptor(tmp_path, capsys):
    # open() takes an integer as a file descriptor: the trace went into it and closed it
    fd = os.open(tmp_path / "fd.csv", os.O_WRONLY | os.O_CREAT)
    cfg = solve_config(tmp_path)
    cfg["output"]["trace_path"] = fd
    try:
        assert cli.main(["solve", "--config", write_config(tmp_path, **cfg)]) == 1
        assert capsys.readouterr().err == (
            f"config error at output: trace_path must be a string, got {fd}\n")
    finally:
        os.close(fd)  # still open: the run did not take it
    assert (tmp_path / "fd.csv").read_bytes() == b""
    assert not (tmp_path / "report.json").exists()


_PLAN = {"n_points": 4, "n_dirs": 8, "refine": False}


@pytest.mark.parametrize("command, bounds, with_nulls", [
    ("estimate", {"mode": "estimated"}, {"mode": "estimated", "plan": None}),
    ("estimate", {"mode": "estimated", "plan": _PLAN},
     {"mode": "estimated", "plan": dict(_PLAN, seed=None)}),
    ("certify", {"mode": "explicit", "explicit": {"nu": 0.8}},
     {"mode": "explicit", "explicit": {"nu": 0.8, "mu": None, "R": None, "omega": None}})],
    ids=["plan", "plan.seed", "explicit"])
def test_null_is_a_key_not_given(tmp_path, command, bounds, with_nulls):
    # null is taken where a key has no default, or for a nested object
    reports = []
    for given in (bounds, with_nulls):
        cfg = solve_config(tmp_path, bounds=given)
        assert cli.main([command, "--config", write_config(tmp_path, **cfg),
                         "--fixed-clock"]) == 0
        reports.append({k: v for k, v in read_report(tmp_path).items() if k != "config"})
    assert reports[0] == reports[1]


@pytest.mark.parametrize("space, err", [
    ({"p": 4.0}, "space: kind 'euclidean' is p = 2, got p=4.0"),
    ({"kind": "euclidean", "p": 4.0}, "space: kind 'euclidean' is p = 2, got p=4.0"),
    ({"kind": "sequence_p", "p": 1.5}, "space: a space needs a finite p >= 2, got p=1.5"),
    ({"kind": "lp", "p": 4.0}, "space.kind: unknown kind 'lp'")],
    ids=["p-alone", "euclidean-p4", "p-below-2", "unknown-kind"])
@pytest.mark.parametrize("command", ["solve", "certify", "estimate", "verify-space"])
def test_a_space_whose_kind_and_p_disagree_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch, command, space, err):
    # "p": 4.0 alone used to run in Euclidean space and echo p 4.0 in the report
    monkeypatch.setattr(cli.problems, "make_problem", lambda *a, **k: pytest.fail("work ran"))
    cfg = solve_config(tmp_path, space=space)
    assert cli.main([command, "--config", write_config(tmp_path, **cfg)]) == 1
    assert capsys.readouterr().err == f"config error at {err}\n"
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "trace.csv").exists()


def test_sequence_p_at_p_2_is_euclidean_space(tmp_path):
    # the same space, so the same kernels and the same bits
    outputs = []
    for space in ({"kind": "euclidean"}, {"kind": "sequence_p", "p": 2}):
        cfg = solve_config(tmp_path, space=space, method={"family": "banach_min_residual"})
        assert cli.main(["solve", "--config", write_config(tmp_path, **cfg),
                         "--fixed-clock"]) == 0
        report = read_report(tmp_path)
        assert report.pop("config")["space"] == dict(space, p=space.get("p", 2.0))
        outputs.append((report, (tmp_path / "trace.csv").read_text()))
    assert outputs[0] == outputs[1]


_OVERFLOWING_START = {"name": "linear_spd",
                      "params": {"m": 1, "M": 4, "dim": 2, "x0": [1e160, 1e160], "R": 1e200}}


def test_overflowing_step_norms_end_in_breakdown_with_a_report(tmp_path):
    # the squared l_4 norm of f'(x0) f(x0) used to raise an untyped OverflowError
    cfg = solve_config(tmp_path, problem=_OVERFLOWING_START,
                       method={"family": "banach_min_residual"},
                       space={"kind": "sequence_p", "p": 4.0},
                       bounds={"mode": "explicit", "explicit": {"nu": 0.5}})
    assert cli.main(["solve", "--config", write_config(tmp_path, **cfg), "--fixed-clock"]) == 4
    rep = read_report(tmp_path)
    assert rep["exit_status"] == 4 and rep["trace"]["termination"] == "breakdown"
    assert rep["trace"]["reason"].startswith(
        "banach_min_residual: a step norm or pairing overflowed")
    assert len(read_trace(tmp_path)) == 1


def test_an_overflowing_start_ends_in_breakdown_in_euclidean_space_too(tmp_path):
    # the Euclidean norm of f(x0) is rescaled where its sum of squares
    # overflows, as in l_4, so the start is certified and its first step breaks down
    cfg = solve_config(tmp_path, problem=_OVERFLOWING_START,
                       bounds={"mode": "explicit", "explicit": {"nu": 0.5}})
    assert cli.main(["solve", "--config", write_config(tmp_path, **cfg), "--fixed-clock"]) == 4
    rep = read_report(tmp_path)
    assert rep["certificate"]["a"] == pytest.approx(math.sqrt(17.0) * 1e160, rel=1e-15)
    assert rep["trace"]["termination"] == "breakdown"
    assert rep["trace"]["reason"] == "min_residual: a step norm or pairing overflowed"
    assert len(read_trace(tmp_path)) == 1
