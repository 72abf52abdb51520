"""Command-line front end: JSON config in, JSON report and CSV trace out.

Subcommands: solve, certify, estimate, verify-space, list-problems.
Exit codes: 0 success (converged and, when verified, no bound violations),
1 configuration error, 2 converged with bound violations or a failed
mathematical check, 3 non-convergence or infeasible certificate,
4 breakdown.

Configs are a single JSON object; unknown keys are rejected so a report's
embedded config always captures the run exactly.  Reports are
byte-reproducible for a fixed config and seed when --fixed-clock is set.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

import numpy as np

from . import estimator, majorant, methods, problems, spaces
from .errors import ArgumentError, AssumptionError, GradcertError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATIONS = 2
EXIT_NOT_CONVERGED = 3
EXIT_BREAKDOWN = 4

_SCHEMA = {
    "problem": {"name", "params"},
    "method": {"family", "vartheta"},
    "space": {"kind", "p"},
    "bounds": {"mode", "explicit", "plan"},
    "run": {"res_tol", "max_iter", "seed", "samples"},
    "output": {"report_path", "trace_path"},
}
_EXPLICIT_KEYS = {"mu", "nu", "step_family", "lam", "theta", "omega", "R"}
_OMEGA_KEYS = {"family", "L", "alpha", "ts", "ws"}
_PLAN_KEYS = {"seed", "n_points", "n_dirs", "refine"}


class ConfigError(Exception):
    """Configuration problem with a config-path-qualified message."""


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"config error at {path}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(
            f"config error at {path}: unknown key(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}")


def load_config(path: str) -> dict:
    text = Path(path).read_text()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}")
    _check_keys(cfg, set(_SCHEMA), "<root>")
    for section, keys in _SCHEMA.items():
        if section in cfg:
            _check_keys(cfg[section], keys, section)
    for sub, keys in (("explicit", _EXPLICIT_KEYS), ("plan", _PLAN_KEYS)):
        node = cfg.get("bounds", {}).get(sub)
        if node is not None:
            _check_keys(node, keys, f"bounds.{sub}")
    om = cfg.get("bounds", {}).get("explicit", {}).get("omega")
    if om is not None:
        _check_keys(om, _OMEGA_KEYS, "bounds.explicit.omega")
    return cfg


def _resolved(cfg: dict, seed_override: int | None) -> dict:
    """Fill defaults so the embedded config fully describes the run."""
    out = {
        "problem": {"name": cfg.get("problem", {}).get("name"),
                    "params": cfg.get("problem", {}).get("params", {})},
        "method": {"family": cfg.get("method", {}).get("family"),
                   "vartheta": cfg.get("method", {}).get("vartheta", 1.0)},
        "space": {"kind": cfg.get("space", {}).get("kind", "euclidean"),
                  "p": cfg.get("space", {}).get("p", 2.0)},
        "bounds": {"mode": cfg.get("bounds", {}).get("mode", "certified"),
                   "explicit": cfg.get("bounds", {}).get("explicit"),
                   "plan": cfg.get("bounds", {}).get("plan")},
        "run": {"res_tol": cfg.get("run", {}).get("res_tol", 1e-10),
                "max_iter": cfg.get("run", {}).get("max_iter", 500),
                "seed": cfg.get("run", {}).get("seed", 0),
                "samples": cfg.get("run", {}).get("samples", 100000)},
        "output": {"report_path": cfg.get("output", {}).get("report_path"),
                   "trace_path": cfg.get("output", {}).get("trace_path")},
    }
    if seed_override is not None:
        out["run"]["seed"] = int(seed_override)
        if out["bounds"]["plan"] is not None:
            out["bounds"]["plan"] = dict(out["bounds"]["plan"], seed=int(seed_override))
    return out


def _build_space(rc: dict) -> spaces.SpaceGeometry:
    kind = rc["space"]["kind"]
    try:
        if kind == spaces.EUCLIDEAN:
            return spaces.euclidean()
        if kind == spaces.SEQUENCE_P:
            return spaces.sequence_p(float(rc["space"]["p"]))
    except ArgumentError as exc:
        raise ConfigError(f"config error at space: {exc}")
    raise ConfigError(f"config error at space.kind: unknown kind {kind!r}")


def _build_problem(rc: dict) -> problems.Problem:
    name = rc["problem"]["name"]
    if not name:
        raise ConfigError("config error at problem.name: required")
    try:
        return problems.make_problem(name, **rc["problem"]["params"])
    except ArgumentError as exc:
        raise ConfigError(f"config error at problem: {exc}")


def _build_method(rc: dict) -> methods.MethodSpec:
    fam = rc["method"]["family"]
    if not fam:
        raise ConfigError("config error at method.family: required")
    try:
        return methods.MethodSpec(family=fam, vartheta=float(rc["method"]["vartheta"]))
    except ArgumentError as exc:
        raise ConfigError(f"config error at method: {exc}")


def _build_plan(rc: dict) -> estimator.SamplePlan:
    plan = rc["bounds"]["plan"] or {}
    try:
        return estimator.SamplePlan(
            seed=int(plan.get("seed", rc["run"]["seed"])),
            n_points=int(plan.get("n_points", 32)),
            n_dirs=int(plan.get("n_dirs", 64)),
            refine=bool(plan.get("refine", True)))
    except ArgumentError as exc:
        raise ConfigError(f"config error at bounds.plan: {exc}")


def _explicit_bounds(rc: dict, problem, method) -> majorant.BoundData:
    ex = rc["bounds"]["explicit"]
    if ex is None:
        raise ConfigError("config error at bounds.explicit: required for mode=explicit")
    om = ex.get("omega") or {"family": "lipschitz", "L": 0.0}
    fam = om.get("family", "lipschitz")
    try:
        if fam == "lipschitz":
            omega = majorant.LipschitzModulus(float(om.get("L", 0.0)))
        elif fam == "holder":
            omega = majorant.HolderModulus(float(om.get("L", 0.0)),
                                           float(om.get("alpha", 1.0)))
        elif fam == "tabulated":
            omega = majorant.TabulatedModulus(om.get("ts"), om.get("ws"))
        else:
            raise ConfigError(
                f"config error at bounds.explicit.omega.family: unknown {fam!r}")
        kwargs: dict[str, Any] = {}
        if "mu" in ex:
            kwargs["mu"] = float(ex["mu"])
        if "nu" in ex:
            kwargs["nu"] = float(ex["nu"])
            kwargs["step_family"] = ex.get("step_family", method.mu_family)
            kwargs["vartheta"] = method.effective_vartheta
        return majorant.BoundData(
            lam=float(ex.get("lam", 1.0)), theta=float(ex.get("theta", 1.0)),
            omega=omega, R=float(ex.get("R", problem.R)),
            note="explicit constants from the run configuration", **kwargs)
    except (ArgumentError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"config error at bounds.explicit: {exc}")


def _resolve_bounds(rc, problem, method, space):
    """Returns (BoundData or None, note).  None means no usable bounds."""
    mode = rc["bounds"]["mode"]
    if mode == "explicit":
        return _explicit_bounds(rc, problem, method), "explicit"
    if mode == "certified":
        if problem.certified_bounds is None:
            raise ConfigError(
                f"config error at bounds.mode: problem {problem.name!r} ships no "
                "certified bounds; use estimated or explicit")
        try:
            return problem.certified_bounds.bound_data(method, space.sigma), "certified"
        except ArgumentError as exc:
            raise ConfigError(f"config error at bounds: {exc}")
    if mode == "estimated":
        plan = _build_plan(rc)
        try:
            return estimator.estimated_bound_data(problem, method, space, plan), "estimated"
        except AssumptionError as exc:
            return None, f"estimation failed: {exc}"
    raise ConfigError(f"config error at bounds.mode: unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# serialization

def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [float(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    if isinstance(obj, np.integer):
        return int(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _cert_dict(cert: majorant.MajorantCertificate | None):
    """The certificate's reported fields; its relaxation map is not reported."""
    if cert is None:
        return None
    return {f.name: _jsonable(getattr(cert, f.name))
            for f in dataclasses.fields(cert) if f.name != "relaxation"}


def _write_report(report: dict, rc: dict, fixed_clock: bool) -> None:
    report = dict(report)
    report["config"] = rc
    report["generated_at"] = (None if fixed_clock
                              else datetime.now(timezone.utc).isoformat())
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True)
    path = rc["output"]["report_path"]
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


_TRACE_COLUMNS = ("n", "res_norm", "lambda_n", "step_norm", "dist_from_center",
                  "bound_dn", "apost_bound")


def _fmt(v: float) -> str:
    return "" if math.isnan(v) else format(v, ".17g")


def _write_trace(trace: methods.IterationTrace, path: str | None) -> None:
    if not path:
        return
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_TRACE_COLUMNS)
        for s in trace.steps:
            w.writerow([s.n, _fmt(s.res_norm), _fmt(s.lambda_), _fmt(s.step_norm),
                        _fmt(s.dist_from_center), _fmt(s.bound_dn),
                        _fmt(s.apost_bound)])


def _trace_summary(trace: methods.IterationTrace) -> dict:
    return {
        "n_steps": trace.n_steps,
        "termination": trace.termination,
        "final_res_norm": trace.final.res_norm,
        "final_dist_from_center": trace.final.dist_from_center,
        "reason": trace.reason,
    }


# ---------------------------------------------------------------------------
# subcommands

def cmd_solve(rc: dict, fixed_clock: bool) -> int:
    problem = _build_problem(rc)
    space = _build_space(rc)
    method = _build_method(rc)
    try:
        method.check_space(space)
    except ArgumentError as exc:
        raise ConfigError(f"config error at method/space: {exc}")
    bounds, bounds_note = _resolve_bounds(rc, problem, method, space)
    stop = methods.StopRule(res_tol=float(rc["run"]["res_tol"]),
                            max_iter=int(rc["run"]["max_iter"]))

    cert = None
    if bounds is not None:
        a = spaces.norm(space, np.asarray(problem.f(problem.x0), float))
        cert = majorant.certify(bounds, space.sigma, a)
    attach = cert is not None and cert.feasible
    trace = methods.solve(problem, method, space, stop,
                          certificate=cert if attach else None,
                          bounds=bounds if attach else None)
    verification = None
    if attach:
        verification = methods.verify_relaxation(trace, cert, bounds)

    rates = None
    if problem.known_solution is not None and trace.n_steps >= 1:
        velo, lexp = methods.empirical_rates(trace, problem.known_solution)
        rates = {"velo": velo, "lexp": lexp}

    if trace.termination == "breakdown":
        status = EXIT_BREAKDOWN
    elif trace.termination != "converged":
        status = EXIT_NOT_CONVERGED
    elif verification is not None and not verification.ok:
        status = EXIT_VIOLATIONS
    else:
        status = EXIT_OK

    _write_trace(trace, rc["output"]["trace_path"])
    _write_report({
        "command": "solve",
        "bounds_note": bounds_note,
        "certificate": _cert_dict(cert),
        "trace": _trace_summary(trace),
        "verification": None if verification is None else _jsonable(verification),
        "empirical_rates": rates,
        "exit_status": status,
    }, rc, fixed_clock)
    return status


def cmd_certify(rc: dict, fixed_clock: bool) -> int:
    problem = _build_problem(rc)
    space = _build_space(rc)
    method = _build_method(rc)
    bounds, bounds_note = _resolve_bounds(rc, problem, method, space)
    if bounds is None:
        _write_report({"command": "certify", "bounds_note": bounds_note,
                       "certificate": None, "exit_status": EXIT_VIOLATIONS},
                      rc, fixed_clock)
        return EXIT_VIOLATIONS
    a = spaces.norm(space, np.asarray(problem.f(problem.x0), float))
    cert = majorant.certify(bounds, space.sigma, a)
    apriori = None
    if cert.feasible:
        n_table = min(int(rc["run"]["max_iter"]), 25)
        apriori = [{"n": n, "bound": bound} for n, bound in
                   enumerate(majorant.apriori_bounds(cert, bounds, n_table))]
    status = EXIT_OK if cert.feasible else EXIT_NOT_CONVERGED
    _write_report({
        "command": "certify",
        "bounds_note": bounds_note,
        "certificate": _cert_dict(cert),
        "apriori_bounds": apriori,
        "exit_status": status,
    }, rc, fixed_clock)
    return status


def cmd_estimate(rc: dict, fixed_clock: bool) -> int:
    problem = _build_problem(rc)
    space = _build_space(rc)
    method = _build_method(rc)
    plan = _build_plan(rc)
    est = estimator.sample_estimates(problem, method, space, problem.R, plan)
    nu, lam, nu_traj = est.nu_tilde, est.lambda_tilde, est.nu_trajectory
    L = est.lipschitz()

    sigma = space.sigma
    th = method.effective_vartheta
    mu_min = mu_alt = None
    altman_valid = None
    threshold = majorant.altman_validity_threshold(th, sigma)
    if 0.0 < nu <= 1.0:
        mu_min = majorant.mu_min_family(nu, sigma)
        altman_valid = nu > threshold
        if altman_valid:
            mu_alt = majorant.mu_altman_family(nu, th, sigma)

    acuteness_ok = nu > 0.0
    status = EXIT_OK if acuteness_ok else EXIT_VIOLATIONS
    _write_report({
        "command": "estimate",
        "estimates": {
            "nu_tilde": {"value": nu, "label": "upper estimate of the infimum"},
            "lambda_tilde": {"value": lam, "label": "lower estimate of the supremum"},
            "nu_trajectory": {"value": nu_traj,
                              "label": "upper estimate along residual directions"},
            "omega_lipschitz": {"value": L, "label": "lower estimate of the supremum"},
        },
        "derived": {
            "mu_min_family": mu_min,
            "mu_altman_family": mu_alt,
            "altman_validity_threshold": threshold,
            "altman_valid": altman_valid,
            "acuteness_ok": acuteness_ok,
        },
        "exit_status": status,
    }, rc, fixed_clock)
    return status


def cmd_verify_space(rc: dict, fixed_clock: bool) -> int:
    space = _build_space(rc)
    report = spaces.verify_space_axioms(
        space, n_samples=int(rc["run"]["samples"]), seed=int(rc["run"]["seed"]))
    status = EXIT_OK if report.passed else EXIT_VIOLATIONS
    _write_report({
        "command": "verify-space",
        "space_axioms": {
            "passed": report.passed,
            "n_checked": report.n_checked,
            "sigma": report.sigma,
            "tol": report.tol,
            "checks": {name: {"worst_slack": c.worst_slack,
                              "violations": c.violations}
                       for name, c in report.checks.items()},
        },
        "exit_status": status,
    }, rc, fixed_clock)
    return status


def cmd_list_problems() -> int:
    rows = []
    for p in problems.registry():
        rows.append({
            "name": p.name,
            "dim": p.dim,
            "R": p.R,
            "default_params": _jsonable(p.params),
            "has_certified_bounds": p.certified_bounds is not None,
        })
    print(json.dumps(rows, indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradcert",
        description="Residual-driven iterative solvers with majorant certificates")
    parser.add_argument("command",
                        choices=["solve", "certify", "estimate", "verify-space",
                                 "list-problems"])
    parser.add_argument("--config", help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="override run.seed and bounds.plan.seed")
    parser.add_argument("--fixed-clock", action="store_true",
                        help="omit timestamps so reports are byte-reproducible")
    args = parser.parse_args(argv)

    if args.command == "list-problems":
        return cmd_list_problems()
    if not args.config:
        print("config error: --config is required for this command", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_config(args.config)
        rc = _resolved(cfg, args.seed)
        if args.command == "solve":
            return cmd_solve(rc, args.fixed_clock)
        if args.command == "certify":
            return cmd_certify(rc, args.fixed_clock)
        if args.command == "estimate":
            return cmd_estimate(rc, args.fixed_clock)
        return cmd_verify_space(rc, args.fixed_clock)
    except (ConfigError, FileNotFoundError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except GradcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
