"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here; the runtime budgets are asserted where the
criteria state one.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import gradcert as gc
from gradcert import cli

EUC = gc.euclidean()


def antieigenvalue(m, M):
    return 2.0 * math.sqrt(m * M) / (m + M)


def ratios(res):
    return [b / a for a, b in zip(res, res[1:])]


def certified_setup(problem, family, vartheta=1.0, sigma=1.0):
    method = gc.MethodSpec(family, vartheta)
    bounds = problem.certified_bounds.bound_data(method, sigma)
    a = gc.norm(EUC, problem.f(problem.x0))
    return method, bounds, gc.certify(bounds, sigma, a)


def test_one_step_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for dim in range(1, 11):
        b = rng.uniform(0.1, 2.0, dim) * rng.choice([-1.0, 1.0], dim)
        problem = gc.identity(dim, b=b)
        for family in gc.HILBERT_FAMILIES:
            trace = gc.solve(problem, gc.MethodSpec(family, 1.0), EUC,
                             gc.StopRule(res_tol=1e-13 * np.linalg.norm(b),
                                         max_iter=10))
            assert trace.termination == "converged", (dim, family)
            assert trace.n_steps == 1, (dim, family)
            assert trace.final.res_norm <= 1e-13 * np.linalg.norm(b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE one-step exactness: PASS ({elapsed:.2f}s)")


def rate_sweep():
    """Rotated linear_spd at condition numbers 1.5 to 32, dim 2 and 4, default_rng(0) starts."""
    rng = np.random.default_rng(0)
    return [gc.linear_spd(1.0, kappa, dim, rotate=True, seed=dim, x0=rng.uniform(-2.0, 2.0, dim))
            for kappa in (1.5, 2.0, 4.0, 8.0, 16.0, 32.0) for dim in (2, 4)]


def test_contraction_factor_bounds_spd():
    t0 = time.perf_counter()
    cases = [gc.linear_spd(1, 4, 2), *rate_sweep()]
    rng = np.random.default_rng(202)
    for k in range(20):
        m = float(rng.uniform(0.5, 2.0))
        M = m * float(rng.uniform(2.0, 12.0))
        dim = int(rng.integers(2, 6))
        x0 = rng.uniform(-2.0, 2.0, dim)
        x0[np.abs(x0) < 0.1] = 0.5
        cases.append(gc.linear_spd(m, M, dim, rotate=True, seed=1000 + k, x0=x0))
    for problem in cases:
        m = problem.params["m"]
        M = problem.params["M"]
        nu = antieigenvalue(m, M)
        stop = gc.StopRule(res_tol=1e-10, max_iter=400)
        for family, bound in ((gc.MIN_RESIDUAL, math.sqrt(1.0 - nu * nu)),
                              (gc.STEEPEST_DESCENT, math.sqrt(1.0 / nu**2 - 1.0))):
            trace = gc.solve(problem, gc.MethodSpec(family), EUC, stop)
            assert trace.termination == "converged", (problem.params, family)
            worst = max(ratios(trace.res_norms))
            assert worst <= bound + 1e-9, (problem.params, family, worst, bound)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE contraction-factor bounds: PASS ({elapsed:.2f}s)")


def test_rate_sweep_certified_runs_verify_within_their_tightest_margin():
    # the verifier's tightest residual record is the run's contraction margin:
    # observed over allowed residual, at most 1 on every certified run
    t0 = time.perf_counter()
    stop = gc.StopRule(res_tol=1e-10, max_iter=400)
    certified = set()
    for problem in rate_sweep():
        for family in (gc.MIN_RESIDUAL, gc.STEEPEST_DESCENT):
            method, bounds, cert = certified_setup(problem, family)
            if not cert.feasible:
                continue
            certified.add((family, problem.params["M"]))
            trace = gc.solve(problem, method, EUC, stop, cert, bounds)
            assert trace.termination == "converged", (problem.params, family)
            report = gc.verify_relaxation(trace, cert)
            assert report.ok, (problem.params, family, report.violations[:3])
            tightest = {t.kind: t for t in report.tightest}
            assert set(tightest) == {"residual", "step", "ball"}
            for t in tightest.values():
                assert t.observed <= t.allowed * (1.0 + 1e-9), (problem.params, family, t)
    kappas = {1.5, 2.0, 4.0, 8.0, 16.0, 32.0}
    assert {k for fam, k in certified if fam == gc.MIN_RESIDUAL} == kappas
    assert {k for fam, k in certified if fam == gc.STEEPEST_DESCENT} == {1.5, 2.0, 4.0}
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE rate-sweep margins: PASS ({len(certified)} certified, {elapsed:.2f}s)")


def test_relaxation_invariant_on_certified_builtins():
    t0 = time.perf_counter()
    problems = [gc.identity(3), gc.linear_spd(1, 4, 2), gc.linear_spd(1, 4, 5),
                gc.scalar_quad(), gc.quad2d()]
    families = [(gc.MIN_RESIDUAL, 1.0), (gc.MIN_CO_ERROR, 1.0),
                (gc.STEEPEST_DESCENT, 1.0), (gc.ALTMAN_STEEPEST_DESCENT, 1.5),
                (gc.MIN_ERROR, 1.0), (gc.ALTMAN_MIN_ERROR, 1.2)]
    n_feasible = 0
    for problem in problems:
        # several bounds are exactly tight (observed ratio equals mu), so stop
        # above the floating-point cancellation floor eps*||f||_scale/res
        a0 = gc.norm(EUC, problem.f(problem.x0))
        stop = gc.StopRule(res_tol=max(1e-11, 1e-5 * a0), max_iter=500)
        for family, vartheta in families:
            method, bounds, cert = certified_setup(problem, family, vartheta)
            if not cert.feasible:
                continue  # the criterion quantifies over feasible certificates
            n_feasible += 1
            trace = gc.solve(problem, method, EUC, stop, cert, bounds)
            assert trace.termination == "converged", (problem.name, family)
            report = gc.verify_relaxation(trace, cert)
            assert report.ok, (problem.name, family, report.violations[:3])
            for step in trace.steps:
                assert step.dist_from_center <= cert.r * (1.0 + 1e-9)
    assert n_feasible >= 10  # the criterion must not be vacuous
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE relaxation invariant: PASS "
          f"({n_feasible} feasible runs, {elapsed:.2f}s)")


def test_aposteriori_bound_quad2d_and_chandrasekhar():
    t0 = time.perf_counter()
    checked = 0
    # quad2d: shipped closed-form bounds; its spec-fixed geometry admits no
    # feasible radius, so the fallback certificate at r = R is used and the
    # bound map stays evaluable because a < phi*(R)
    pq = gc.quad2d()
    x_star_q = gc.newton_solve(pq)
    for family in (gc.MIN_RESIDUAL, gc.STEEPEST_DESCENT):
        method, bounds, cert = certified_setup(pq, family)
        assert cert.phi_star is not None and cert.a < cert.phi_star
        trace = gc.solve(pq, method, EUC, gc.StopRule(1e-10, 200))
        assert trace.termination == "converged"
        for step in trace.steps:
            bound = gc.aposteriori_bound(cert, step.res_norm)
            err = float(np.linalg.norm(step.x - x_star_q))
            assert err <= bound + 1e-8, (family, step.n, err, bound)
            checked += 1
    # chandrasekhar(0.5, 20): sampled bounds feed the certificate
    pc = gc.chandrasekhar(0.5, 20)
    method = gc.MethodSpec(gc.STEEPEST_DESCENT)
    plan = gc.SamplePlan(seed=7, n_points=64, n_dirs=128, refine=True)
    bounds = gc.estimated_bound_data(pc, method, EUC, plan)
    a = gc.norm(EUC, pc.f(pc.x0))
    cert = gc.certify(bounds, 1.0, a)
    trace = gc.solve(pc, method, EUC, gc.StopRule(1e-10, 300),
                     cert if cert.feasible else None,
                     bounds if cert.feasible else None)
    assert trace.termination == "converged"
    x_star_c = gc.newton_solve(pc)
    for step in trace.steps:
        bound = gc.aposteriori_bound(cert, step.res_norm)
        err = float(np.linalg.norm(step.x - x_star_c))
        assert err <= bound + 1e-8, (step.n, err, bound)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE a posteriori bound: PASS ({checked} steps, {elapsed:.2f}s)")


SHIPPED_ESTIMATED = (Path(__file__).resolve().parent.parent / "configs"
                     / "chandrasekhar_estimated.json")


@pytest.mark.parametrize("n", [20, 40, 80, 160])
def test_chandrasekhar_certificate_is_mesh_independent(tmp_path, n):
    # the shipped estimated run at n nodes: the ball radius 2 sqrt(n/20) is
    # one radius in the weighted norm ||v|| / sqrt(n), and so is the
    # certificate's r.  With a radius of 2 at every n, certify was infeasible
    # from n = 80 on, and at n = 160 the solution lay outside the ball.
    cfg = json.loads(SHIPPED_ESTIMATED.read_text())
    cfg["problem"]["params"]["n"] = n
    cfg["output"] = {"report_path": str(tmp_path / "report.json")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["solve", "--config", str(path), "--fixed-clock"]) == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["certificate"]["feasible"] is True
    assert round(rep["certificate"]["r"] / math.sqrt(n), 2) == 0.24
    assert abs(rep["trace"]["n_steps"] - 8) <= 1
    assert rep["verification"]["violations"] == []
    print(f"ACCEPTANCE mesh-independent certificate n={n}: PASS")


def test_majorant_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    for _ in range(100):
        mu = float(rng.uniform(0.0, 0.9))
        L = float(rng.uniform(0.05, 4.0))
        lt = float(rng.uniform(0.2, 2.5))
        sigma = float(rng.uniform(1.0, 3.0))
        bounds = gc.BoundData(lam=lt, theta=1.0, omega=gc.LipschitzModulus(L),
                              R=10.0, mu=mu)
        phi_star = gc.smallest_fixed_point(bounds, sigma, 1.0)
        assert phi_star is not None
        for frac in np.geomspace(1e-3, 0.93, 10):
            phi = float(frac * phi_star)
            w = gc.majorant_sum(bounds, sigma, 1.0, phi)
            dphi = gc.RelaxationMap(bounds, sigma, 1.0)(phi)
            w_next = gc.majorant_sum(bounds, sigma, 1.0, dphi)
            assert abs(w - (phi + w_next)) <= 1e-9 * max(1.0, abs(w))
            assert w <= phi * phi / (phi - dphi) * (1.0 + 1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE majorant identities: PASS ({elapsed:.2f}s)")


def test_sigma_degeneracy_p2():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    sp2 = gc.sequence_p(2)
    assert sp2.sigma == 1.0
    for k in range(20):
        dim = int(rng.integers(2, 5))
        # semiscalar degeneracy on random pairs
        x = rng.standard_normal(dim) * 10.0 ** rng.uniform(-2, 2)
        y = rng.standard_normal(dim)
        dot = float(x @ y)
        assert abs(gc.semiscalar(sp2, x, y) - dot) <= 1e-12 * max(1.0, abs(dot))
        # relaxation map degeneracy: sigma = 1 reproduces the Euclidean form
        mu, L, lt = rng.uniform(0.1, 0.8), rng.uniform(0.1, 2.0), rng.uniform(0.2, 2.0)
        b = gc.BoundData(lam=lt, theta=1.0, omega=gc.LipschitzModulus(L),
                         R=5.0, mu=mu)
        phi = float(rng.uniform(0.0, 1.0))
        expected = mu * phi + 0.5 * L * (lt * phi) ** 2
        d = gc.RelaxationMap(b, sp2.sigma, 1.0)
        assert abs(d(phi) - expected) <= 1e-12 * max(1.0, expected)
        # full trace degeneracy
        m = float(rng.uniform(0.5, 1.5))
        M = m * float(rng.uniform(1.5, 6.0))
        problem = gc.linear_spd(m, M, dim, rotate=True, seed=2000 + k)
        stop = gc.StopRule(1e-10, 300)
        tr_h = gc.solve(problem, gc.MethodSpec(gc.MIN_RESIDUAL), EUC, stop)
        tr_b = gc.solve(problem, gc.MethodSpec(gc.BANACH_MIN_RESIDUAL), sp2, stop)
        assert tr_h.n_steps == tr_b.n_steps
        for xa, xb in zip(tr_h.iterates, tr_b.iterates):
            assert np.max(np.abs(xa - xb)) <= 1e-12 * (1.0 + np.max(np.abs(xa)))
        for ra, rb in zip(tr_h.res_norms, tr_b.res_norms):
            assert abs(ra - rb) <= 1e-12 * max(1.0, ra)
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE sigma degeneracy (p=2): PASS ({elapsed:.2f}s)")


def test_bynum_inequality_sampling():
    t0 = time.perf_counter()
    for p in (2.0, 3.0, 4.0):
        report = gc.verify_space_axioms(gc.sequence_p(p), n_samples=100000, seed=777)
        assert report.passed, (p, report.checks["quadratic_inequality"].worst_slack)
        assert report.n_checked >= 100000 // 3
    bad = gc.verify_space_axioms(gc.sequence_p(4), n_samples=100000, seed=777,
                                 sigma=0.5 * 3.0)
    assert not bad.passed
    assert bad.checks["quadratic_inequality"].violations > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE quadratic-inequality sampling: PASS ({elapsed:.2f}s)")


def test_mu_formula_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    for _ in range(1000):
        nu = float(rng.uniform(0.05, 1.0))
        vartheta = float(rng.uniform(0.1, 2.0))
        sigma = float(rng.uniform(1.0, 3.0))
        beta = float(rng.uniform(0.1, 10.0))
        # minimizing family against numerical minimization of the quadratic form
        res = minimize_scalar(
            lambda t: 1.0 - 2.0 * t * nu * beta + sigma * (t * beta) ** 2,
            bounds=(0.0, 4.0 / (sigma * beta)), method="bounded",
            options={"xatol": 1e-13})
        assert gc.MethodSpec(gc.MIN_RESIDUAL).mu(nu, sigma) == pytest.approx(
            math.sqrt(max(0.0, res.fun)), abs=1e-10)
        # relaxed family against direct evaluation of the quadratic form at
        # its step scalar 1/(vartheta nu beta)
        relaxed = gc.MethodSpec(gc.ALTMAN_STEEPEST_DESCENT, vartheta)
        if nu > relaxed.threshold(sigma):
            t = 1.0 / (vartheta * nu * beta)
            q_val = 1.0 - 2.0 * t * nu * beta + sigma * (t * beta) ** 2
            assert relaxed.mu(nu, sigma) == pytest.approx(
                math.sqrt(max(0.0, q_val)), abs=1e-10)
    # the validity boundary is detected exactly, and mu -> 1 approaching it
    for vartheta, sigma in ((1.0, 1.0), (0.8, 1.3), (2.0, 2.0), (1.7, 2.9)):
        relaxed = gc.MethodSpec(gc.ALTMAN_STEEPEST_DESCENT, vartheta)
        thr = relaxed.threshold(sigma)
        if thr <= 1.0:
            with pytest.raises(gc.AssumptionError):
                relaxed.mu(thr, sigma)
            assert relaxed.mu(thr * (1 + 1e-9), sigma) == pytest.approx(1.0, abs=1e-4)
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE contraction-formula oracles: PASS ({elapsed:.2f}s)")


def test_rate_bounds_on_certified_linear_runs():
    # the per-step error-ratio bound d(r,a)/a is checked on the default
    # linear built-ins; unlike the residual-ratio bound it does not extend
    # to arbitrary spectra (a 4-dim counterexample reaches 0.619 > 0.6)
    t0 = time.perf_counter()
    runs = [(gc.identity(3), gc.MIN_RESIDUAL),
            (gc.identity(3), gc.STEEPEST_DESCENT),
            (gc.linear_spd(1, 4, 2), gc.MIN_RESIDUAL),
            (gc.linear_spd(1, 4, 2), gc.STEEPEST_DESCENT)]
    for problem, family in runs:
        method, bounds, cert = certified_setup(problem, family)
        assert cert.feasible
        trace = gc.solve(problem, method, EUC, gc.StopRule(1e-10, 400),
                         cert, bounds)
        velo_bound, linear_rate = cert.velo_bound, cert.linear_rate
        velo, lexp = gc.empirical_rates(trace, problem.known_solution)
        assert velo <= velo_bound + 1e-6, (problem.name, family, velo, velo_bound)
        assert lexp <= linear_rate + 1e-6, (problem.name, family, lexp, linear_rate)
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE rate bounds: PASS ({elapsed:.2f}s)")


def test_negative_controls(tmp_path):
    t0 = time.perf_counter()
    # (a) understated contraction factor must trigger verifier violations:
    # start on the worst two-cycle of diag(1, 4) where the true per-step
    # ratio is exactly 0.6
    p = gc.linear_spd(1, 4, 2, x0=[1.6, 0.2])
    bad = gc.BoundData(lam=1.0, theta=1.0, omega=gc.LipschitzModulus(0.0),
                       R=p.R, mu=0.3)
    a = gc.norm(EUC, p.f(p.x0))
    cert = gc.certify(bad, 1.0, a)
    assert cert.feasible
    trace = gc.solve(p, gc.MethodSpec(gc.MIN_RESIDUAL), EUC,
                     gc.StopRule(1e-10, 300), cert, bad)
    report = gc.verify_relaxation(trace, cert)
    assert len(report.violations) > 0

    # (b) the indefinite-Jacobian problem triggers an acuteness failure
    plan = gc.SamplePlan(seed=1, n_points=8, n_dirs=64)
    nu = gc.estimate_nu_tilde(gc.indefinite2d(), gc.MethodSpec(gc.MIN_RESIDUAL),
                              EUC, 1.0, plan)
    assert nu <= 0.0
    with pytest.raises(gc.AssumptionError):
        gc.estimated_bound_data(gc.indefinite2d(), gc.MethodSpec(gc.MIN_RESIDUAL),
                                EUC, plan)

    # (c) the CLI surfaces all three: violations = 2, acuteness = 2, infeasible = 3
    cfg = {
        "problem": {"name": "linear_spd",
                    "params": {"m": 1, "M": 4, "dim": 2, "x0": [1.6, 0.2]}},
        "method": {"family": "min_residual"},
        "space": {"kind": "euclidean"},
        "bounds": {"mode": "explicit",
                   "explicit": {"mu": 0.3, "lam": 1.0, "theta": 1.0}},
        "run": {"res_tol": 1e-10, "max_iter": 300, "seed": 0},
        "output": {"report_path": str(tmp_path / "r1.json")},
    }
    path = tmp_path / "c1.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["solve", "--config", str(path), "--fixed-clock"]) == 2

    cfg["problem"] = {"name": "indefinite2d", "params": {}}
    cfg["bounds"] = {"mode": "estimated", "plan": {"seed": 2}}
    path.write_text(json.dumps(cfg))
    assert cli.main(["estimate", "--config", str(path), "--fixed-clock"]) == 2

    cfg["problem"] = {"name": "identity", "params": {"dim": 1, "b": [0.2]}}
    cfg["bounds"] = {"mode": "explicit",
                     "explicit": {"mu": 0.99, "lam": 1.0, "theta": 1.0, "R": 0.3}}
    path.write_text(json.dumps(cfg))
    assert cli.main(["certify", "--config", str(path), "--fixed-clock"]) == 3
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE negative controls: PASS ({elapsed:.2f}s)")
