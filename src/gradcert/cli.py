"""Command-line front end: JSON config in, JSON report and CSV trace out.

Subcommands: solve, certify, estimate, verify-space, list-problems.
Exit codes: 0 success (converged and, when verified, no bound violations),
1 configuration error, 2 converged with bound violations or a failed
mathematical check, 3 non-convergence or infeasible certificate,
4 breakdown.

Configs are a single JSON object; unknown keys, and values not of their
key's type, are rejected so a report's embedded config always captures the
run exactly.  Reports are byte-reproducible for a fixed config and seed
when --fixed-clock is set.
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

# Every config key with its default; other keys are rejected.  A key with no
# default gives its type instead, and is null until given.  The resolved
# config fills in each section; bounds.explicit and bounds.plan stay as
# given, or None, and their defaults apply where they are read (plan.seed is
# run.seed, explicit.R the problem's R); problem.params is free-form.
_DEFAULTS = {
    "problem": {"name": str, "params": {}},
    "method": {"family": str, "vartheta": 1.0},
    "space": {"kind": "euclidean", "p": 2.0},
    "bounds": {
        "mode": "certified",
        "explicit": {"mu": float, "nu": float, "lam": 1.0, "theta": 1.0, "R": float,
                     "omega": {"family": "lipschitz", "L": 0.0, "alpha": 1.0,
                               "ts": list, "ws": list}},
        "plan": {"seed": int, "n_points": 32, "n_dirs": 64, "refine": True},
    },
    "run": {"res_tol": 1e-10, "max_iter": 500, "seed": 0, "samples": 100000},
    "output": {"report_path": str, "trace_path": str},
}
# each omega family's modulus, and the keys of bounds.explicit.omega it reads in
# order; the family refuses the other keys
_OMEGA_FAMILIES = {"lipschitz": (majorant.LipschitzModulus, ["L"]),
                   "holder": (majorant.HolderModulus, ["L", "alpha"]),
                   "tabulated": (majorant.TabulatedModulus, ["ts", "ws"])}
_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
          list: "a list", dict: "an object"}


class ConfigError(Exception):
    """Configuration problem with a config-path-qualified message."""


def _unset(default) -> bool:
    """Whether a key is null until given: it has no default, or is a nested object."""
    return isinstance(default, type) or isinstance(default, dict) and bool(default)


def _check_keys(obj: dict, table: dict, path: str) -> None:
    """Reject an unknown key at ``path``, or a value not of its key's type.

    A float takes any number but a bool, and an integer only within the
    float range; int and bool are exact; null is taken only where the key is
    null until given.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"config error at {path}: expected an object")
    unknown = set(obj) - set(table)
    if unknown:
        raise ConfigError(
            f"config error at {path}: unknown key(s) {sorted(unknown)}; "
            f"allowed: {sorted(table)}")
    for key, value in obj.items():
        default = table[key]
        kind = default if isinstance(default, type) else type(default)
        if value is None and _unset(default):
            continue
        if not (type(value) is kind or kind is float and type(value) is int):
            raise ConfigError(
                f"config error at {path}: {key} must be {_KINDS[kind]}, got {value!r}")
        if kind is float and type(value) is int:
            try:
                float(value)
            except OverflowError:
                raise ConfigError(f"config error at {path}: {key} must be a number, "
                                  "got an integer beyond the float range") from None
        if kind is dict and default:
            _check_keys(value, default, f"{path}.{key}")


def _filled(table: dict, given: dict | None) -> dict:
    """The values ``given`` for the keys of ``table``, and their defaults."""
    return {key: (given or {}).get(key, None if _unset(default) else copy.copy(default))
            for key, default in table.items()}


@contextlib.contextmanager
def _at(path: str):
    """Report a bad config value below ``path`` as a ConfigError naming it."""
    try:
        yield
    except (ArgumentError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config error at {path}: {exc}")


def load_config(path: str) -> dict:
    text = Path(path).read_text()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}")
    except ValueError as exc:  # an integer of more digits than int() converts
        raise ConfigError(f"config parse error in {path}: {exc}")
    _check_keys(cfg, dict.fromkeys(_DEFAULTS, {}), "<root>")
    for section, table in _DEFAULTS.items():
        if section in cfg:
            _check_keys(cfg[section], table, section)
    return cfg


def _resolved(cfg: dict) -> dict:
    """Fill defaults so the embedded config fully describes the run."""
    rc = {section: _filled(table, cfg.get(section)) for section, table in _DEFAULTS.items()}
    if rc["run"]["max_iter"] < 1:  # certify builds no StopRule to refuse it
        raise ConfigError(
            f"config error at run: max_iter must be >= 1, got {rc['run']['max_iter']}")
    return rc


def _build_space(rc: dict) -> spaces.SpaceGeometry:
    """The space l_p of the config's p; kind euclidean is p = 2, and kind sequence_p takes p."""
    kind, p = rc["space"]["kind"], rc["space"]["p"]
    if kind not in ("euclidean", "sequence_p"):
        raise ConfigError(f"config error at space.kind: unknown kind {kind!r}")
    if kind == "euclidean" and p != 2.0:
        raise ConfigError(f"config error at space: kind 'euclidean' is p = 2, got p={p}")
    with _at("space"):
        return spaces.SpaceGeometry(float(p))


def _build(rc: dict) -> tuple[problems.Problem, spaces.SpaceGeometry, methods.MethodSpec]:
    """The problem, space and method of a run, with the method checked against the space."""
    space = _build_space(rc)
    name = rc["problem"]["name"]
    if not name:
        raise ConfigError("config error at problem.name: required")
    with _at("problem"):
        problem = problems.make_problem(name, **rc["problem"]["params"])
    fam = rc["method"]["family"]
    if not fam:
        raise ConfigError("config error at method.family: required")
    with _at("method"):
        method = methods.MethodSpec(family=fam, vartheta=float(rc["method"]["vartheta"]))
    with _at("method/space"):
        method.check_space(space)
    return problem, space, method


def _build_plan(rc: dict) -> estimator.SamplePlan:
    plan = _filled(_DEFAULTS["bounds"]["plan"], rc["bounds"]["plan"])
    if plan["seed"] is None:
        plan["seed"] = rc["run"]["seed"]
    with _at("bounds.plan"):
        return estimator.SamplePlan(**plan)


def _explicit_bounds(rc: dict, problem, method) -> majorant.BoundData:
    given = rc["bounds"]["explicit"]
    if given is None:
        raise ConfigError("config error at bounds.explicit: required for mode=explicit")
    ex = _filled(_DEFAULTS["bounds"]["explicit"], given)
    om = _filled(_DEFAULTS["bounds"]["explicit"]["omega"], ex["omega"])
    fam = om["family"]
    if fam not in _OMEGA_FAMILIES:
        raise ConfigError(f"config error at bounds.explicit.omega.family: unknown {fam!r}")
    modulus, keys = _OMEGA_FAMILIES[fam]
    unread = sorted(k for k, v in (ex["omega"] or {}).items()
                    if v is not None and k not in ("family", *keys))
    if unread:
        raise ConfigError(f"config error at bounds.explicit.omega: family {fam!r} reads "
                          f"only {keys}, got {unread}")
    with _at("bounds.explicit"):
        omega = modulus(*(om[k] for k in keys))
        # a given mu is used as is; a given nu takes the method's contraction formula
        mu_nu = {k: float(ex[k]) for k in ("mu", "nu") if ex[k] is not None}
        return majorant.BoundData(
            lam=float(ex["lam"]), theta=float(ex["theta"]), omega=omega,
            R=float(problem.R if ex["R"] is None else ex["R"]), method=method, **mu_nu)


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
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # a field left out of repr (a certificate's relaxation map, a space
        # check's witness) is not reported
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.repr}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_report(report: dict, rc: dict, fixed_clock: bool) -> None:
    report = {**report, "config": rc, "generated_at":
              None if fixed_clock else datetime.now(timezone.utc).isoformat()}
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
            w.writerow([s.n, *map(_fmt, (s.res_norm, s.lambda_, s.step_norm,
                                         s.dist_from_center, s.bound_dn, s.apost_bound))])


# ---------------------------------------------------------------------------
# subcommands

def _certified(rc: dict):
    """Problem, space, method, bounds note, and the certificate at x0 (None without bounds)."""
    problem, space, method = _build(rc)
    bounds, bounds_note = _resolve_bounds(rc, problem, method, space)
    cert = None
    if bounds is not None:
        with np.errstate(over="ignore"):  # certify refuses a residual norm that overflowed
            a = spaces.norm(space, np.asarray(problem.f(problem.x0), float))
        cert = majorant.certify(bounds, space.sigma, a)
    return problem, space, method, bounds_note, cert


def cmd_solve(rc: dict, fixed_clock: bool) -> int:
    with _at("run"):
        stop = methods.StopRule(res_tol=float(rc["run"]["res_tol"]),
                                max_iter=rc["run"]["max_iter"])
    problem, space, method, bounds_note, cert = _certified(rc)
    attach = cert is not None and cert.feasible
    trace = methods.solve(problem, method, space, stop,
                          certificate=cert if attach else None,
                          bounds=cert.relaxation.bounds if attach else None)
    verification = methods.verify_relaxation(trace, cert) if attach else None

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
        "trace": {"n_steps": trace.n_steps, "termination": trace.termination,
                  "final_res_norm": trace.final.res_norm,
                  "final_dist_from_center": trace.final.dist_from_center,
                  "reason": trace.reason},
        "verification": verification,
        "empirical_rates": rates,
        "exit_status": status,
    }, rc, fixed_clock)
    return status


def cmd_certify(rc: dict, fixed_clock: bool) -> int:
    _, _, _, bounds_note, cert = _certified(rc)
    apriori = None
    if cert is not None and cert.feasible:
        n_table = min(rc["run"]["max_iter"], 25)
        apriori = [{"n": n, "bound": bound} for n, bound in
                   enumerate(majorant.apriori_bounds(cert, n_table))]
    status = (EXIT_VIOLATIONS if cert is None  # estimation failed
              else EXIT_OK if cert.feasible else EXIT_NOT_CONVERGED)
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
    nu, sigma, th = est.nu_tilde, space.sigma, method.vartheta
    mu_min = mu_alt = altman_valid = None
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
            "lambda_tilde": {"value": est.lambda_tilde,
                             "label": "lower estimate of the supremum"},
            "nu_trajectory": {"value": est.nu_trajectory,
                              "label": "upper estimate along residual directions"},
            "theta": {"value": est.theta, "label": "lower estimate of the supremum"
                      if method.uses_adjoint else "exact: T = I"},
            "omega_lipschitz": {"value": est.lipschitz(),
                                "label": "lower estimate of the supremum"},
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
            space, n_samples=rc["run"]["samples"], seed=rc["run"]["seed"])
    status = EXIT_OK if report.passed else EXIT_VIOLATIONS
    _write_report({
        "command": "verify-space",
        "space_axioms": report,
        "exit_status": status,
    }, rc, fixed_clock)
    return status


def cmd_list_problems() -> int:
    rows = [{
        "name": p.name,
        "dim": len(p.x0),
        "R": p.R,
        "default_params": _jsonable(p.params),
        "has_certified_bounds": p.certified_bounds is not None,
        "certified_bounds_note": getattr(p.certified_bounds, "note", None),
    } for p in problems.registry()]
    print(json.dumps(rows, indent=2, sort_keys=True))
    return EXIT_OK


_COMMANDS = {"solve": cmd_solve, "certify": cmd_certify, "estimate": cmd_estimate,
             "verify-space": cmd_verify_space}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradcert",
        description="Residual-driven iterative solvers with majorant certificates")
    parser.add_argument("command", choices=[*_COMMANDS, "list-problems"])
    parser.add_argument("--config", help="path to the JSON run configuration")
    parser.add_argument("--fixed-clock", action="store_true",
                        help="omit timestamps so reports are byte-reproducible")
    args = parser.parse_args(argv)

    if args.command == "list-problems":
        return cmd_list_problems()
    if not args.config:
        print("config error: --config is required for this command", file=sys.stderr)
        return EXIT_CONFIG
    try:
        rc = _resolved(load_config(args.config))
        return _COMMANDS[args.command](rc, args.fixed_clock)
    except (ConfigError, OSError) as exc:  # OSError: a config path that cannot be read
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except GradcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
