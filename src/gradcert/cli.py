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
import contextlib
import copy
import csv
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import estimator, majorant, methods, problems, spaces
from .errors import ArgumentError, AssumptionError, GradcertError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATIONS = 2
EXIT_NOT_CONVERGED = 3
EXIT_BREAKDOWN = 4

# Every config key with its default; other keys are rejected.  The resolved
# config fills in each section.  bounds.explicit and bounds.plan stay as
# given, or None, and their defaults apply where they are read (plan.seed is
# run.seed, explicit.R the problem's R); problem.params is free-form.
_DEFAULTS = {
    "problem": {"name": None, "params": {}},
    "method": {"family": None, "vartheta": 1.0},
    "space": {"kind": "euclidean", "p": 2.0},
    "bounds": {
        "mode": "certified",
        "explicit": {"mu": None, "nu": None, "lam": 1.0, "theta": 1.0, "R": None,
                     "omega": {"family": "lipschitz", "L": 0.0, "alpha": 1.0,
                               "ts": None, "ws": None}},
        "plan": {"seed": None, "n_points": 32, "n_dirs": 64, "refine": True},
    },
    "run": {"res_tol": 1e-10, "max_iter": 500, "seed": 0, "samples": 100000},
    "output": {"report_path": None, "trace_path": None},
}


class ConfigError(Exception):
    """Configuration problem with a config-path-qualified message."""


def _check_keys(obj: dict, table: dict, path: str) -> None:
    """Reject a non-object or an unknown key at ``path``, then the objects it gives."""
    if not isinstance(obj, dict):
        raise ConfigError(f"config error at {path}: expected an object")
    unknown = set(obj) - set(table)
    if unknown:
        raise ConfigError(
            f"config error at {path}: unknown key(s) {sorted(unknown)}; "
            f"allowed: {sorted(table)}")
    for key, default in table.items():
        if isinstance(default, dict) and default and obj.get(key) is not None:
            _check_keys(obj[key], default, f"{path}.{key}")


@contextlib.contextmanager
def _at(path: str):
    """Report a bad config value below ``path`` as a ConfigError naming it."""
    try:
        yield
    except (ArgumentError, TypeError, ValueError) as exc:
        raise ConfigError(f"config error at {path}: {exc}")


def load_config(path: str) -> dict:
    text = Path(path).read_text()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}")
    _check_keys(cfg, dict.fromkeys(_DEFAULTS), "<root>")
    for section, table in _DEFAULTS.items():
        if section in cfg:
            _check_keys(cfg[section], table, section)
    return cfg


def _resolved(cfg: dict, seed_override: int | None) -> dict:
    """Fill defaults so the embedded config fully describes the run."""
    out = {section: {key: cfg.get(section, {}).get(key, copy.copy(default))
                     for key, default in table.items()}
           for section, table in _DEFAULTS.items()}
    out["bounds"].update({k: cfg.get("bounds", {}).get(k) for k in ("explicit", "plan")})
    if seed_override is not None:
        out["run"]["seed"] = int(seed_override)
        if out["bounds"]["plan"] is not None:
            out["bounds"]["plan"] = dict(out["bounds"]["plan"], seed=int(seed_override))
    return out


def _build_space(rc: dict) -> spaces.SpaceGeometry:
    kind = rc["space"]["kind"]
    with _at("space"):
        if kind == spaces.EUCLIDEAN:
            return spaces.euclidean()
        if kind == spaces.SEQUENCE_P:
            return spaces.sequence_p(float(rc["space"]["p"]))
    raise ConfigError(f"config error at space.kind: unknown kind {kind!r}")


def _build(rc: dict) -> tuple[problems.Problem, spaces.SpaceGeometry, methods.MethodSpec]:
    """The problem, space and method of a run, with the method checked against the space."""
    name = rc["problem"]["name"]
    if not name:
        raise ConfigError("config error at problem.name: required")
    with _at("problem"):
        problem = problems.make_problem(name, **rc["problem"]["params"])
    space = _build_space(rc)
    fam = rc["method"]["family"]
    if not fam:
        raise ConfigError("config error at method.family: required")
    with _at("method"):
        method = methods.MethodSpec(family=fam, vartheta=float(rc["method"]["vartheta"]))
    with _at("method/space"):
        method.check_space(space)
    return problem, space, method


def _build_plan(rc: dict) -> estimator.SamplePlan:
    plan = {**_DEFAULTS["bounds"]["plan"], "seed": rc["run"]["seed"],
            **(rc["bounds"]["plan"] or {})}
    # taken as given: int() and bool() would run "false" as true and 2.9 as 2
    for key, kind in (("seed", int), ("n_points", int), ("n_dirs", int), ("refine", bool)):
        if type(plan[key]) is not kind:
            raise ConfigError(f"config error at bounds.plan: {key} must be "
                              f"{'a boolean' if kind is bool else 'an integer'}, "
                              f"got {plan[key]!r}")
    with _at("bounds.plan"):
        return estimator.SamplePlan(**plan)


def _explicit_bounds(rc: dict, problem, method) -> majorant.BoundData:
    given = rc["bounds"]["explicit"]
    if given is None:
        raise ConfigError("config error at bounds.explicit: required for mode=explicit")
    defaults = _DEFAULTS["bounds"]["explicit"]
    ex = {**defaults, "R": problem.R, **given}
    om = {**defaults["omega"], **(ex["omega"] or {})}
    fam = om["family"]
    with _at("bounds.explicit"):
        if fam == "lipschitz":
            omega = majorant.LipschitzModulus(float(om["L"]))
        elif fam == "holder":
            omega = majorant.HolderModulus(float(om["L"]), float(om["alpha"]))
        elif fam == "tabulated":
            omega = majorant.TabulatedModulus(om["ts"], om["ws"])
        else:
            raise ConfigError(
                f"config error at bounds.explicit.omega.family: unknown {fam!r}")
        # a given mu is used as is; a given nu takes the method's contraction formula
        mu_nu = {k: float(given[k]) for k in ("mu", "nu") if k in given}
        return majorant.BoundData(
            lam=float(ex["lam"]), theta=float(ex["theta"]), omega=omega, R=float(ex["R"]),
            step_family=method.mu_family, vartheta=method.effective_vartheta,
            note="explicit constants from the run configuration", **mu_nu)


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
        with _at("bounds"):
            return problem.certified_bounds.bound_data(method, space.sigma), "certified"
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
    if isinstance(obj, np.bool_):
        return bool(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # a field left out of repr (the certificate's relaxation map) is not reported
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.repr}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


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

def _certify(problem, space, bounds) -> majorant.MajorantCertificate:
    """The certificate for the run from the problem's x0 (a = ||f(x0)||)."""
    a = spaces.norm(space, np.asarray(problem.f(problem.x0), float))
    return majorant.certify(bounds, space.sigma, a)


def cmd_solve(rc: dict, fixed_clock: bool) -> int:
    problem, space, method = _build(rc)
    bounds, bounds_note = _resolve_bounds(rc, problem, method, space)
    stop = methods.StopRule(res_tol=float(rc["run"]["res_tol"]),
                            max_iter=int(rc["run"]["max_iter"]))

    cert = None if bounds is None else _certify(problem, space, bounds)
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
        "certificate": cert,
        "trace": _trace_summary(trace),
        "verification": verification,
        "empirical_rates": rates,
        "exit_status": status,
    }, rc, fixed_clock)
    return status


def cmd_certify(rc: dict, fixed_clock: bool) -> int:
    problem, space, method = _build(rc)
    bounds, bounds_note = _resolve_bounds(rc, problem, method, space)
    if bounds is None:
        _write_report({"command": "certify", "bounds_note": bounds_note,
                       "certificate": None, "exit_status": EXIT_VIOLATIONS},
                      rc, fixed_clock)
        return EXIT_VIOLATIONS
    cert = _certify(problem, space, bounds)
    apriori = None
    if cert.feasible:
        n_table = min(int(rc["run"]["max_iter"]), 25)
        apriori = [{"n": n, "bound": bound} for n, bound in
                   enumerate(majorant.apriori_bounds(cert, bounds, n_table))]
    status = EXIT_OK if cert.feasible else EXIT_NOT_CONVERGED
    _write_report({
        "command": "certify",
        "bounds_note": bounds_note,
        "certificate": cert,
        "apriori_bounds": apriori,
        "exit_status": status,
    }, rc, fixed_clock)
    return status


def cmd_estimate(rc: dict, fixed_clock: bool) -> int:
    problem, space, method = _build(rc)
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
    with _at("run"):
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


_COMMANDS = {"solve": cmd_solve, "certify": cmd_certify, "estimate": cmd_estimate,
             "verify-space": cmd_verify_space}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradcert",
        description="Residual-driven iterative solvers with majorant certificates")
    parser.add_argument("command",
                        choices=[*_COMMANDS, "list-problems"])
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
        rc = _resolved(load_config(args.config), args.seed)
        return _COMMANDS[args.command](rc, args.fixed_clock)
    except (ConfigError, FileNotFoundError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except GradcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
