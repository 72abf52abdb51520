"""Correctness checks on the CLI's reports and traces.

Each check compares an output against a reference from ``references`` or
against a property the method must have, and returns a list of messages,
empty when the output is correct.  Iterates are not in the CLI's output,
so solve and certify checks use a replay: the same run repeated through
the library outside the timed region, which must match the CSV trace
field for field before its iterates are trusted.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import references as ref

# Allowance for comparing one quantity computed two ways in floating point.
# It is far below every gap the checked inequalities leave on these inputs.
ROUNDING = 1e-12
# Errors against a reference solution are only resolved down to the rounding
# of the reference and the iterates themselves, in units of eps * max(1, ||x*||).
RESOLUTION_ULPS = 64
# Tolerance for w(a) = a / (1 - mu) when omega = 0.
W_RTOL = 1e-9
# Factor by which the space check's control understates sigma.
SIGMA_UNDERSTATEMENT = 0.9

TRACE_COLUMNS = ("n", "res_norm", "lambda_n", "step_norm", "dist_from_center",
                 "bound_dn", "apost_bound")


def _p(config: dict) -> float:
    space = config.get("space", {})
    return float(space.get("p", 2.0)) if space.get("kind") == "sequence_p" else 2.0


def _fmt(v: float) -> str:
    return "" if math.isnan(v) else format(v, ".17g")


def _num(s: str) -> float:
    return math.nan if s == "" else float(s)


def parse_trace(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def replay(pkg, config: dict):
    """Repeat a solve through the library: the iterates the CLI does not write."""
    problem = pkg.problems.make_problem(config["problem"]["name"],
                                       **config["problem"].get("params", {}))
    p = _p(config)
    space = pkg.spaces.sequence_p(p) if p != 2.0 else pkg.spaces.euclidean()
    method = pkg.methods.MethodSpec(config["method"]["family"],
                                   float(config["method"].get("vartheta", 1.0)))
    if config["bounds"]["mode"] == "certified":
        bounds = problem.certified_bounds.bound_data(method, space.sigma)
    else:
        plan = pkg.estimator.SamplePlan(**config["bounds"]["plan"])
        bounds = pkg.estimator.estimated_bound_data(problem, method, space, plan)
    a = pkg.spaces.norm(space, np.asarray(problem.f(problem.x0), float))
    cert = pkg.majorant.certify(bounds, space.sigma, a)
    stop = pkg.methods.StopRule(res_tol=float(config["run"]["res_tol"]),
                               max_iter=int(config["run"]["max_iter"]))
    attach = cert.feasible
    return pkg.methods.solve(problem, method, space, stop,
                            certificate=cert if attach else None,
                            bounds=bounds if attach else None)


def replay_matches(rows: list[dict], steps) -> list[str]:
    """The replay is the run the CSV recorded: same rows, same digits."""
    if len(rows) != len(steps):
        return [f"replay has {len(steps)} rows, trace has {len(rows)}"]
    for row, s in zip(rows, steps):
        want = (str(s.n), _fmt(s.res_norm), _fmt(s.lambda_), _fmt(s.step_norm),
                _fmt(s.dist_from_center), _fmt(s.bound_dn), _fmt(s.apost_bound))
        got = tuple(row[c] for c in TRACE_COLUMNS)
        if got != want:
            return [f"replay row {s.n} differs from the trace: {got} vs {want}"]
    return []


def _resolution(x_star, p: float) -> float:
    return RESOLUTION_ULPS * float(np.finfo(float).eps) * max(1.0, ref.space_norm(x_star, p))


def _ball(cert: dict, x0, x_star, p: float) -> list[str]:
    dist = ref.space_norm(x_star - x0, p)
    if not dist <= cert["r"] * (1.0 + ROUNDING):
        return [f"||x* - x0|| = {dist:.6g} exceeds the certified radius r = {cert['r']:.6g}"]
    return []


def check_solve(report: dict, rows: list[dict], steps, x_star, p: float,
                res_tol: float) -> list[str]:
    """Converged, certified, solution in the ball, error below apost on every row."""
    errs = []
    tr = report["trace"]
    if tr["termination"] != "converged":
        errs.append(f"termination {tr['termination']!r}, expected 'converged'")
    if not tr["final_res_norm"] <= res_tol:
        errs.append(f"final residual {tr['final_res_norm']} above res_tol {res_tol}")
    cert = report["certificate"]
    if cert is None or cert["feasible"] is not True:
        return errs + ["no feasible certificate attached"]
    errs += replay_matches(rows, steps)
    if errs:
        return errs
    errs += _ball(cert, steps[0].x, x_star, p)
    floor = _resolution(x_star, p)
    for row, s in zip(rows, steps):
        apost = _num(row["apost_bound"])
        err = ref.space_norm(s.x - x_star, p)
        if not err <= apost * (1.0 + ROUNDING) + floor:
            errs.append(f"row {s.n}: true error {err:.6g} above a posteriori bound {apost:.6g}")
            break
    return errs


def check_certify(report: dict, steps, x_star, p: float,
                  mu: float | None) -> list[str]:
    """A priori bounds cover the true error and do not grow; w(a) = a/(1-mu) when omega = 0."""
    cert = report["certificate"]
    if cert is None or cert["feasible"] is not True:
        return ["certificate not feasible"]
    errs = _ball(cert, steps[0].x, x_star, p)
    table = report["apriori_bounds"] or []
    if not table:
        errs.append("feasible certificate without an a priori table")
    floor = _resolution(x_star, p)
    prev = math.inf
    for entry in table:
        n, bound = entry["n"], entry["bound"]
        if not bound <= prev:
            errs.append(f"a priori bound grows at n={n}: {bound:.6g} > {prev:.6g}")
        prev = bound
        if n < len(steps):
            err = ref.space_norm(steps[n].x - x_star, p)
            if not err <= bound * (1.0 + ROUNDING) + floor:
                errs.append(f"n={n}: true error {err:.6g} above a priori bound {bound:.6g}")
    if mu is not None:
        a, w = cert["a"], cert["w_of_a"]
        want = a / (1.0 - mu)
        if not abs(w - want) <= W_RTOL * want:
            errs.append(f"w(a) = {w!r} but a/(1-mu) = {want!r} with mu = {mu!r}")
    return errs


def check_estimate(report: dict, nu_exact: float | None = None,
                   lam_exact: float | None = None, linear: bool = False) -> list[str]:
    """One-sided sampled estimates: nu from above, lam and L from below."""
    est = report["estimates"]
    nu = est["nu_tilde"]["value"]
    lam = est["lambda_tilde"]["value"]
    traj = est["nu_trajectory"]["value"]
    L = est["omega_lipschitz"]["value"]
    errs = []
    if traj is None or not 0.0 < nu <= traj * (1.0 + ROUNDING) <= 1.0 + ROUNDING:
        errs.append(f"need 0 < nu_tilde <= nu_trajectory <= 1, got {nu!r}, {traj!r}")
    if not (isinstance(lam, float) and 0.0 < lam < math.inf):
        errs.append(f"lambda_tilde {lam!r} is not finite and positive")
    if nu_exact is not None and not nu >= nu_exact * (1.0 - ROUNDING):
        errs.append(f"nu_tilde {nu!r} below the exact antieigenvalue {nu_exact!r}")
    if lam_exact is not None and not lam <= lam_exact * (1.0 + ROUNDING):
        errs.append(f"lambda_tilde {lam!r} above the exact step bound {lam_exact!r}")
    if linear and L != 0.0:
        errs.append(f"omega_lipschitz {L!r} on a linear problem, expected 0")
    return errs


def check_space(report: dict, sigma: float, control_passed: bool) -> list[str]:
    """verify-space passes at sigma = p - 1, and the verifier rejects an understated sigma."""
    ax = report["space_axioms"]
    errs = []
    if ax["passed"] is not True:
        errs.append("space axioms failed at the sharp sigma")
    if not math.isclose(ax["sigma"], sigma, rel_tol=ROUNDING):
        errs.append(f"reported sigma {ax['sigma']!r}, expected p - 1 = {sigma!r}")
    if control_passed:
        errs.append(f"verifier accepted sigma understated to {SIGMA_UNDERSTATEMENT} (p - 1)")
    return errs


def check_case(pkg, case, report_text: str | None, trace_text: str | None,
               replays: dict) -> list[str]:
    """Dispatch one successful CLI call to its checks; ``replays`` caches by config."""
    if report_text is None or (case.command == "solve" and trace_text is None):
        return ["report or trace not written"]
    report = json.loads(report_text)
    cfg = case.config
    p = _p(cfg)
    if case.command == "verify-space":
        space = pkg.spaces.sequence_p(p) if p != 2.0 else pkg.spaces.euclidean()
        sigma = p - 1.0
        control = pkg.spaces.verify_space_axioms(
            space, n_samples=int(cfg["run"]["samples"]), seed=int(cfg["run"]["seed"]),
            sigma=SIGMA_UNDERSTATEMENT * sigma)
        return check_space(report, sigma, control.passed)
    family = cfg["method"]["family"]
    vartheta = float(cfg["method"].get("vartheta", 1.0))
    problem = cfg["problem"]
    if case.command == "estimate":
        params = problem.get("params", {})
        linear = problem["name"] == "linear_spd"
        nu_exact = lam_exact = None
        if linear and p == 2.0:
            nu_exact = ref.exact_nu(params["m"], params["M"], family)
            lam_exact = ref.exact_step_bound(params["m"], family, vartheta)
        return check_estimate(report, nu_exact, lam_exact, linear)
    key = json.dumps(cfg, sort_keys=True)
    if key not in replays:
        replays[key] = replay(pkg, cfg).steps
    steps = replays[key]
    x_star = ref.solution(problem)
    if case.command == "solve":
        return check_solve(report, parse_trace(trace_text), steps, x_star, p,
                           float(cfg["run"]["res_tol"]))
    mu = ref.certified_mu(problem, family, vartheta) \
        if cfg["bounds"]["mode"] == "certified" else None
    return check_certify(report, steps, x_star, p, mu)
