import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

import gradcert as gc
from gradcert.errors import ArgumentError, BreakdownError

EUC = gc.euclidean()
STOP = gc.StopRule(res_tol=1e-10, max_iter=400)


def antieigenvalue(m, M):
    return 2.0 * math.sqrt(m * M) / (m + M)


def certified_run(problem, family, vartheta=1.0, stop=STOP, sigma=1.0):
    method = gc.MethodSpec(family, vartheta)
    bounds = problem.certified_bounds.bound_data(method, sigma)
    a = gc.norm(EUC, problem.f(problem.x0))
    cert = gc.certify(bounds, sigma, a)
    trace = gc.solve(problem, method, EUC, stop,
                     certificate=cert if cert.feasible else None,
                     bounds=bounds if cert.feasible else None)
    return trace, cert, bounds


# --- step directions -----------------------------------------------------------

def test_step_direction_min_residual_hand_value():
    p = gc.linear_spd(1, 4, 2)
    x = np.array([1.0, 1.0])
    lam, direction = gc.step_direction(gc.MethodSpec(gc.MIN_RESIDUAL), EUC, p, x, p.f(x))
    assert lam == pytest.approx(65.0 / 257.0, rel=1e-15)
    np.testing.assert_allclose(direction, [1.0, 4.0])


def test_step_direction_steepest_descent_hand_value():
    p = gc.linear_spd(1, 4, 2)
    x = np.array([1.0, 1.0])
    lam, _ = gc.step_direction(gc.MethodSpec(gc.STEEPEST_DESCENT), EUC, p, x, p.f(x))
    assert lam == pytest.approx(17.0 / 65.0, rel=1e-15)


def test_step_direction_identity_jacobian_gives_unit_step():
    p = gc.identity(4)
    x = np.array([0.3, -1.0, 2.0, 0.1])
    fx = p.f(x)
    for fam in gc.HILBERT_FAMILIES:
        lam, direction = gc.step_direction(gc.MethodSpec(fam, 1.0), EUC, p, x, fx)
        assert lam == pytest.approx(1.0, rel=1e-14)
        np.testing.assert_allclose(direction, fx, rtol=1e-14)


def test_min_residual_step_minimizes_residual_of_linearization():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dim = rng.integers(2, 5)
        A = rng.standard_normal((dim, dim))
        A = A @ A.T + dim * np.eye(dim)  # SPD, comfortably positive
        p = gc.Problem(name="t", f=lambda x, A=A: A @ x,
                       jacobian=lambda x, A=A: A.copy(),
                       x0=np.ones(dim), R=100.0)
        x = rng.standard_normal(dim)
        fx = p.f(x)
        lam, _ = gc.step_direction(gc.MethodSpec(gc.MIN_RESIDUAL), EUC, p, x, fx)
        w = A @ fx
        res = minimize_scalar(lambda t: float(np.linalg.norm(fx - t * w)),
                              bounds=(-1.0, 2.0), method="bounded",
                              options={"xatol": 1e-13})
        assert lam == pytest.approx(res.x, abs=1e-8)
        # the step value is optimal within tolerance of the scan
        assert float(np.linalg.norm(fx - lam * w)) <= res.fun + 1e-10


def test_step_direction_breakdown_on_indefinite():
    p = gc.indefinite2d()
    x = np.array([1.0, 1.0])  # (fx, A fx) = 0 exactly
    with pytest.raises(BreakdownError):
        gc.step_direction(gc.MethodSpec(gc.STEEPEST_DESCENT), EUC, p, x, p.f(x))


def test_step_direction_negative_step_is_breakdown():
    p = gc.indefinite2d()
    x = np.array([0.5, 1.0])  # pairing 0.25 - 1 < 0
    with pytest.raises(BreakdownError):
        gc.step_direction(gc.MethodSpec(gc.MIN_RESIDUAL), EUC, p, x, p.f(x))


# --- every family against the PAPER.md table, written directly in numpy -------

def _p_norm(v, p):
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


def _p_semiscalar(x, y, p):
    # [x, y] = ||x||^(2-p) sum |x_i|^(p-1) sign(x_i) y_i
    return float(_p_norm(x, p) ** (2.0 - p) * np.sum(np.abs(x) ** (p - 1.0) * np.sign(x) * y))


def _paper_step(family, vartheta, p, J, f):
    """Lambda and T f from the PAPER.md table; p = 2 is the Euclidean case."""
    sigma = p - 1.0
    Jf, JTf = J @ f, J.T @ f
    table = {
        "min_residual": (float(f @ Jf) / float(Jf @ Jf), f),
        "min_co_error": (float(JTf @ JTf) / float((J @ JTf) @ (J @ JTf)), JTf),
        "steepest_descent": (float(f @ f) / float(f @ Jf), f),
        "altman_steepest_descent": (float(f @ f) / (vartheta * float(f @ Jf)), f),
        "min_error": (float(f @ f) / float(JTf @ JTf), JTf),
        "altman_min_error": (float(f @ f) / (vartheta * float(JTf @ JTf)), JTf),
        "banach_min_residual": (_p_semiscalar(f, Jf, p) / (sigma * _p_norm(Jf, p) ** 2), f),
        "banach_steepest_descent": (_p_norm(f, p) ** 2 / _p_semiscalar(f, Jf, p), f),
        "banach_altman_steepest_descent":
            (_p_norm(f, p) ** 2 / (vartheta * _p_semiscalar(f, Jf, p)), f),
    }
    return table[family]


PAPER_CASES = [(fam, 1.0, 2.0) for fam in gc.ALL_FAMILIES] + [
    (gc.ALTMAN_STEEPEST_DESCENT, 1.5, 2.0), (gc.ALTMAN_MIN_ERROR, 0.6, 2.0),
    (gc.BANACH_ALTMAN_STEEPEST_DESCENT, 1.5, 2.0),
    (gc.BANACH_MIN_RESIDUAL, 1.0, 4.0), (gc.BANACH_STEEPEST_DESCENT, 1.0, 4.0),
    (gc.BANACH_ALTMAN_STEEPEST_DESCENT, 1.5, 4.0)]


@pytest.mark.parametrize("family, vartheta, p", PAPER_CASES)
def test_step_direction_matches_paper_table(family, vartheta, p):
    space = EUC if p == 2.0 else gc.sequence_p(p)
    rng = np.random.default_rng(8)
    dim = 4
    A = 3.0 * np.eye(dim) + 0.5 * rng.standard_normal((dim, dim))  # nonsymmetric
    prob = gc.Problem(name="t", f=lambda x: A @ x - 1.0,
                      jacobian=lambda x: A.copy(), x0=np.zeros(dim), R=10.0)
    for _ in range(10):
        x = rng.standard_normal(dim)
        fx = prob.f(x)
        lam, direction = gc.step_direction(gc.MethodSpec(family, vartheta), space,
                                           prob, x, fx)
        lam_ref, dir_ref = _paper_step(family, vartheta, p, A, fx)
        assert lam > 0.0
        assert lam == pytest.approx(lam_ref, rel=1e-14)
        np.testing.assert_array_equal(direction, dir_ref)


@pytest.mark.parametrize("banach, hilbert, vartheta", [
    (gc.BANACH_MIN_RESIDUAL, gc.MIN_RESIDUAL, 1.0),
    (gc.BANACH_STEEPEST_DESCENT, gc.STEEPEST_DESCENT, 1.0),
    (gc.BANACH_ALTMAN_STEEPEST_DESCENT, gc.ALTMAN_STEEPEST_DESCENT, 1.3)])
def test_banach_family_equals_hilbert_in_euclidean_space(banach, hilbert, vartheta):
    # one rule, with the geometry from the space: bit for bit the same step
    rng = np.random.default_rng(21)
    for seed in range(20):
        p = gc.linear_spd(1, 9, 5, rotate=True, seed=seed)
        for _ in range(10):
            x = rng.standard_normal(5)
            fx = p.f(x)
            lam_b, dir_b = gc.step_direction(gc.MethodSpec(banach, vartheta), EUC, p, x, fx)
            lam_h, dir_h = gc.step_direction(gc.MethodSpec(hilbert, vartheta), EUC, p, x, fx)
            assert lam_b == lam_h
            np.testing.assert_array_equal(dir_b, dir_h)


def _inf_jacobian_problem(dim=3):
    def jacobian(x):
        J = 2.0 * np.eye(dim)
        J[0, 1] = np.inf
        return J
    return gc.Problem(name="inf_jacobian", f=lambda x: 2.0 * x - 1.0,
                      jacobian=jacobian, x0=np.zeros(dim), R=10.0)


@pytest.mark.parametrize("space", [EUC, gc.sequence_p(4)], ids=["euclidean", "p4"])
def test_non_finite_image_is_breakdown(space):
    families = gc.ALL_FAMILIES if space is EUC else gc.BANACH_FAMILIES
    for fam in families:
        method = gc.MethodSpec(fam)
        trace = gc.solve(_inf_jacobian_problem(), method, space, STOP)
        assert trace.termination == "breakdown", fam
        image = "f'(x)^T f(x)" if method.uses_adjoint else "f'(x) f(x)"
        assert trace.reason == f"{fam}: {image} has non-finite entries"


def test_method_spec_validation():
    with pytest.raises(ArgumentError):
        gc.MethodSpec("nonsense")
    with pytest.raises(ArgumentError):
        gc.MethodSpec(gc.ALTMAN_STEEPEST_DESCENT, vartheta=2.5)
    sp4 = gc.sequence_p(4)
    for fam in (gc.MIN_ERROR, gc.MIN_CO_ERROR, gc.ALTMAN_MIN_ERROR):
        with pytest.raises(ArgumentError):
            gc.MethodSpec(fam).check_space(sp4)
    for fam in (gc.MIN_RESIDUAL, gc.BANACH_MIN_RESIDUAL):  # the rule decides, not the name
        gc.MethodSpec(fam).check_space(sp4)
    gc.MethodSpec(gc.MIN_ERROR).check_space(gc.sequence_p(2))  # p=2 degenerates


# --- solve -----------------------------------------------------------------------

def test_identity_solved_in_one_step_every_family():
    p = gc.identity(3)
    for fam in gc.HILBERT_FAMILIES:
        trace = gc.solve(p, gc.MethodSpec(fam, 1.0), EUC, gc.StopRule(1e-12, 50))
        assert trace.termination == "converged"
        assert trace.n_steps == 1
        assert trace.final.res_norm <= 1e-13 * np.linalg.norm(p.known_solution)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 8), seed=st.integers(0, 10**6))
def test_one_step_exactness_random_targets(dim, seed):
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.1, 2.0, dim) * rng.choice([-1.0, 1.0], dim)
    p = gc.identity(dim, b=b)
    trace = gc.solve(p, gc.MethodSpec(gc.MIN_RESIDUAL), EUC, gc.StopRule(1e-12, 10))
    assert trace.n_steps == 1
    assert trace.final.res_norm <= 1e-13 * np.linalg.norm(b)


def test_contraction_ratio_bounds_diag14():
    p = gc.linear_spd(1, 4, 2)
    nu = antieigenvalue(1, 4)
    for fam, bound in ((gc.MIN_RESIDUAL, math.sqrt(1 - nu**2)),
                       (gc.STEEPEST_DESCENT, math.sqrt(1 / nu**2 - 1))):
        trace = gc.solve(p, gc.MethodSpec(fam), EUC, STOP)
        assert trace.termination == "converged"
        rs = trace.res_norms
        ratios = [rs[i + 1] / rs[i] for i in range(len(rs) - 1)]
        assert max(ratios) <= bound + 1e-9


def test_banach_p2_trace_matches_hilbert():
    # l_2 is Euclidean space: the same kernels, so the same bits
    p = gc.linear_spd(1, 4, 2)
    tr_h = gc.solve(p, gc.MethodSpec(gc.MIN_RESIDUAL), EUC, STOP)
    tr_b = gc.solve(p, gc.MethodSpec(gc.BANACH_MIN_RESIDUAL), gc.sequence_p(2), STOP)
    assert tr_h.n_steps == tr_b.n_steps
    assert all(np.array_equal(a, b) for a, b in zip(tr_h.iterates, tr_b.iterates))
    assert tr_h.res_norms == tr_b.res_norms
    assert [s.lambda_ for s in tr_h.steps[:-1]] == [s.lambda_ for s in tr_b.steps[:-1]]


def test_solve_breakdown_termination():
    trace = gc.solve(gc.indefinite2d(), gc.MethodSpec(gc.STEEPEST_DESCENT), EUC, STOP)
    assert trace.termination == "breakdown"


def test_solve_max_iter_termination():
    p = gc.linear_spd(1, 4, 2)
    trace = gc.solve(p, gc.MethodSpec(gc.MIN_RESIDUAL), EUC, gc.StopRule(1e-10, 2))
    assert trace.termination == "max_iter"
    assert trace.n_steps == 2


def test_solve_requires_cert_and_bounds_together():
    p = gc.linear_spd(1, 4, 2)
    method = gc.MethodSpec(gc.MIN_RESIDUAL)
    bounds = p.certified_bounds.bound_data(method, 1.0)
    cert = gc.certify(bounds, 1.0, gc.norm(EUC, p.f(p.x0)))
    with pytest.raises(ArgumentError):
        gc.solve(p, method, EUC, STOP, certificate=cert)


def test_solve_refuses_bounds_other_than_its_certificates():
    # equal values are not enough: the trace columns come from the certificate's own map
    p = gc.linear_spd(1, 4, 2)
    method = gc.MethodSpec(gc.MIN_RESIDUAL)
    bounds = p.certified_bounds.bound_data(method, 1.0)
    cert = gc.certify(bounds, 1.0, gc.norm(EUC, p.f(p.x0)))
    assert cert.feasible and cert.relaxation.bounds is bounds
    other = p.certified_bounds.bound_data(method, 1.0)
    with pytest.raises(ArgumentError):
        gc.solve(p, method, EUC, STOP, certificate=cert, bounds=other)


def test_a_certificate_without_a_map_is_an_argument_error():
    p = gc.linear_spd(1, 4, 2)
    method = gc.MethodSpec(gc.MIN_RESIDUAL)
    trace, cert, bounds = certified_run(p, gc.MIN_RESIDUAL)
    hand_built = gc.MajorantCertificate(
        r=cert.r, a=cert.a, sigma=cert.sigma, phi_star=cert.phi_star,
        w_of_a=cert.w_of_a, condition_value=cert.condition_value,
        feasible=True, velo_bound=cert.velo_bound, linear_rate=cert.linear_rate)
    with pytest.raises(ArgumentError, match="no relaxation map"):
        gc.solve(p, method, EUC, STOP, hand_built, bounds)
    with pytest.raises(ArgumentError, match="no relaxation map"):
        gc.verify_relaxation(trace, hand_built)
    with pytest.raises(ArgumentError, match="no relaxation map"):
        gc.apriori_bounds(hand_built, 3)
    with pytest.raises(ArgumentError, match="no relaxation map"):
        gc.aposteriori_bound(hand_built, cert.a)
    # an infeasible certificate whose map could not be built: nu below the
    # relaxed step's validity threshold sqrt(1/2) gives mu >= 1 at every radius
    altman = gc.BoundData(lam=1.0, theta=1.0, omega=gc.LipschitzModulus(0.0), R=1.0,
                          nu=0.5, method=gc.MethodSpec(gc.STEEPEST_DESCENT))
    infeasible = gc.certify(altman, 1.0, 0.1)
    assert not infeasible.feasible and infeasible.relaxation is None
    with pytest.raises(ArgumentError, match="no relaxation map"):
        gc.aposteriori_bound(infeasible, 0.1)


def test_certified_trace_columns():
    p = gc.linear_spd(1, 4, 2)
    trace, cert, bounds = certified_run(p, gc.MIN_RESIDUAL)
    assert cert.feasible and trace.termination == "converged"
    # residual majorant column dominates the observed residuals
    for s in trace.steps:
        assert s.res_norm <= s.bound_dn * (1.0 + 1e-9)
        assert s.dist_from_center <= cert.r * (1.0 + 1e-9)
    # residuals are nonincreasing under a feasible certificate
    rs = trace.res_norms
    assert all(b <= a * (1 + 1e-12) for a, b in zip(rs, rs[1:]))
    # error is dominated by the a posteriori column (Newton reference)
    x_star = gc.newton_solve(p)
    for s in trace.steps:
        assert np.linalg.norm(s.x - x_star) <= s.apost_bound + 1e-8


# --- relaxation verifier ----------------------------------------------------------

def test_verify_relaxation_zero_violations_linear():
    p = gc.linear_spd(1, 4, 2)
    for fam in (gc.MIN_RESIDUAL, gc.STEEPEST_DESCENT, gc.MIN_CO_ERROR):
        trace, cert, bounds = certified_run(p, fam)
        assert cert.feasible, fam
        report = gc.verify_relaxation(trace, cert)
        assert report.ok
        assert report.checked_steps == trace.n_steps


def test_verify_relaxation_single_step_identity():
    trace, cert, bounds = certified_run(gc.identity(3), gc.STEEPEST_DESCENT)
    report = gc.verify_relaxation(trace, cert)
    assert report.ok
    assert trace.final.res_norm <= 1e-13


def test_verify_relaxation_flags_understated_mu():
    # start on the worst two-cycle of diag(1, 4): residual ratio is exactly
    # 3/5 every step, so a claimed contraction factor 0.3 must be violated
    p = gc.linear_spd(1, 4, 2, x0=[1.6, 0.2])
    bad = gc.BoundData(lam=1.0, theta=1.0, omega=gc.LipschitzModulus(0.0),
                       R=p.R, mu=0.3)
    a = gc.norm(EUC, p.f(p.x0))
    cert = gc.certify(bad, 1.0, a)
    assert cert.feasible  # feasible w.r.t. the (wrong) bounds
    trace = gc.solve(p, gc.MethodSpec(gc.MIN_RESIDUAL), EUC, STOP, cert, bad)
    report = gc.verify_relaxation(trace, cert)
    assert not report.ok
    assert any(v.kind == "residual" for v in report.violations)


def _replayed_tightest(trace, cert, unresolved):
    """Per kind, the first step of largest observed/allowed over a replay of the trace."""
    rmap = cert.relaxation_map()
    rows = {"residual": [], "step": [], "ball": []}
    for s in trace.steps:
        rows["ball"].append((s.n, s.dist_from_center, cert.r))
    for s, nxt in zip(trace.steps, trace.steps[1:]):
        if s.n not in unresolved:
            rows["residual"].append((s.n, nxt.res_norm, rmap(s.res_norm)))
        rows["step"].append((s.n, s.step_norm, rmap.lt * s.res_norm))
    tightest = []
    for kind, checks in rows.items():
        ratios = [obs / allowed if allowed else math.inf if obs else 0.0
                  for _, obs, allowed in checks]
        if ratios:
            n, obs, allowed = checks[ratios.index(max(ratios))]
            tightest.append(gc.Violation(n, kind, obs, allowed))
    return tightest


def test_verify_relaxation_tightest_is_the_maximum_over_a_replay():
    # clean runs, a one-step run, a run with an unresolved step (scalar_quad
    # under min_residual) and one with violations (an understated mu)
    runs = [certified_run(p, fam)[:2] for p, fam in (
        (gc.linear_spd(1, 4, 2), gc.MIN_RESIDUAL), (gc.linear_spd(1, 3, 5, rotate=True),
                                                   gc.STEEPEST_DESCENT),
        (gc.linear_spd(1, 4, 3), gc.MIN_CO_ERROR), (gc.identity(3), gc.STEEPEST_DESCENT),
        (gc.scalar_quad(), gc.MIN_RESIDUAL))]
    p = gc.linear_spd(1, 4, 2, x0=[1.6, 0.2])
    bad = gc.BoundData(lam=1.0, theta=1.0, omega=gc.LipschitzModulus(0.0), R=p.R, mu=0.3)
    cert = gc.certify(bad, 1.0, gc.norm(EUC, p.f(p.x0)))
    runs.append((gc.solve(p, gc.MethodSpec(gc.MIN_RESIDUAL), EUC, STOP, cert, bad), cert))
    for trace, cert in runs:
        assert cert.feasible
        report = gc.verify_relaxation(trace, cert)
        assert [t.kind for t in report.tightest] == ["residual", "step", "ball"]
        assert report.tightest == _replayed_tightest(trace, cert, report.unresolved_steps)
    assert gc.verify_relaxation(*runs[4]).unresolved_steps == [2]
    assert not gc.verify_relaxation(*runs[5]).ok


def test_verify_relaxation_metadata_mismatch():
    p = gc.linear_spd(1, 4, 2)
    trace, cert, bounds = certified_run(p, gc.MIN_RESIDUAL)
    other = gc.MajorantCertificate(
        r=cert.r, a=cert.a * 2, sigma=cert.sigma, phi_star=None,
        w_of_a=cert.w_of_a, condition_value=cert.condition_value,
        feasible=True, velo_bound=cert.velo_bound, linear_rate=cert.linear_rate)
    with pytest.raises(ArgumentError):
        gc.verify_relaxation(trace, other)


def test_verify_relaxation_requires_feasible():
    p = gc.quad2d()
    method = gc.MethodSpec(gc.MIN_RESIDUAL)
    bounds = p.certified_bounds.bound_data(method, 1.0)
    cert = gc.certify(bounds, 1.0, gc.norm(EUC, p.f(p.x0)))
    trace = gc.solve(p, method, EUC, STOP)
    if not cert.feasible:
        with pytest.raises(ArgumentError):
            gc.verify_relaxation(trace, cert)


def _understated_lam_run():
    # lam understated 100x: the certificate is feasible with a tiny r, and the
    # run's first step is as long as it always was
    p = gc.linear_spd(1, 4, 2)
    method = gc.MethodSpec(gc.MIN_RESIDUAL)
    bounds = p.certified_bounds.bound_data(method, 1.0)
    bounds = dataclasses.replace(bounds, lam=bounds.lam / 100.0)
    cert = gc.certify(bounds, 1.0, gc.norm(EUC, p.f(p.x0)))
    assert cert.feasible
    return gc.solve(p, method, EUC, STOP, cert, bounds), cert


def test_solve_left_ball_when_lam_is_understated():
    trace, cert = _understated_lam_run()
    assert trace.termination == "left_ball"
    assert trace.n_steps == 1
    assert trace.final.dist_from_center > cert.r


def test_verify_relaxation_flags_ball_and_step_when_lam_is_understated():
    trace, cert = _understated_lam_run()
    report = gc.verify_relaxation(trace, cert)
    first, second = trace.steps
    assert [(v.step, v.kind) for v in report.violations] == [(0, "step"), (1, "ball")]
    step, ball = report.violations
    assert step.observed == first.step_norm
    assert step.allowed == pytest.approx(cert.relaxation.lt * first.res_norm, rel=1e-15)
    assert ball.observed == second.dist_from_center and ball.allowed == cert.r


def test_verify_relaxation_sigma_mismatch_is_argument_error():
    p = gc.linear_spd(1, 4, 2)
    _, cert, _ = certified_run(p, gc.MIN_RESIDUAL)
    trace = gc.solve(p, gc.MethodSpec(gc.BANACH_MIN_RESIDUAL), gc.sequence_p(4), STOP)
    with pytest.raises(ArgumentError, match="trace sigma 3.0 does not match certificate sigma 1.0"):
        gc.verify_relaxation(trace, cert)


def _scripted_problem(f, jacobian=lambda x: np.eye(1), x0=(0.0,), R=10.0):
    return gc.Problem(name="scripted", f=f, jacobian=jacobian, x0=np.array(x0), R=R)


def test_solve_non_finite_f_at_x0_is_breakdown():
    p = _scripted_problem(lambda x: np.full_like(x, np.nan))
    trace = gc.solve(p, gc.MethodSpec(gc.MIN_RESIDUAL), EUC, STOP)
    assert trace.termination == "breakdown"
    assert trace.reason == "f(x_0) has non-finite entries"
    assert trace.n_steps == 0 and math.isnan(trace.final.res_norm)


def test_solve_non_finite_f_at_a_later_iterate_is_breakdown():
    # f(x) = x - 1 at x0 = 0, and inf at the step's landing point x1 = 1
    p = _scripted_problem(lambda x: x - 1.0 if np.all(x == 0.0) else np.full_like(x, np.inf))
    trace = gc.solve(p, gc.MethodSpec(gc.MIN_RESIDUAL), EUC, STOP)
    assert trace.termination == "breakdown"
    assert trace.reason == "f(x_1) has non-finite entries"
    assert trace.n_steps == 0 and trace.steps[0].lambda_ == 1.0


def test_solve_non_finite_next_iterate_is_breakdown():
    # a claimed f' = 1e-300 makes the steepest-descent scalar 1e300: x1 = x0 - 1e300 * 1e10
    # with no numpy warning: tier-1 turns a RuntimeWarning into an error
    p = _scripted_problem(lambda x: x, jacobian=lambda x: 1e-300 * np.eye(1), x0=(1e10,))
    trace = gc.solve(p, gc.MethodSpec(gc.STEEPEST_DESCENT), EUC, STOP)
    assert trace.termination == "breakdown"
    assert trace.reason == "step 0 produced non-finite entries"
    assert trace.n_steps == 0


@pytest.mark.parametrize("space", [EUC, gc.sequence_p(4)], ids=["euclidean", "p4"])
def test_solve_overflowing_norms_are_breakdown(space):
    # finite iterates near 1e160 whose squared norms and pairings overflow; the
    # breakdown names the overflow, with no numpy warning
    p = gc.linear_spd(1, 4, 2, x0=[1e160, 1e160], R=1e200)
    for fam in gc.ALL_FAMILIES if space == EUC else gc.BANACH_FAMILIES:
        trace = gc.solve(p, gc.MethodSpec(fam), space, STOP)
        assert trace.termination == "breakdown", fam
        assert trace.reason.startswith(f"{fam}: a step norm or pairing overflowed"), fam
        assert trace.n_steps == 0


def test_solve_refuses_bounds_certified_for_another_method():
    p = gc.linear_spd(1, 4, 2)
    method = gc.MethodSpec(gc.MIN_RESIDUAL)
    bounds = p.certified_bounds.bound_data(method, 1.0)
    cert = gc.certify(bounds, 1.0, gc.norm(EUC, p.f(p.x0)))
    assert cert.feasible and bounds.method is method
    for other in (gc.MethodSpec(gc.STEEPEST_DESCENT), gc.MethodSpec(gc.BANACH_MIN_RESIDUAL)):
        with pytest.raises(ArgumentError, match="bounds are for MethodSpec"):
            gc.solve(p, other, EUC, STOP, cert, bounds)
    trace = gc.solve(p, gc.MethodSpec(gc.MIN_RESIDUAL), EUC, STOP, cert, bounds)
    assert trace.termination == "converged" and gc.verify_relaxation(trace, cert).ok


def test_solve_writes_nan_apost_bound_at_or_above_the_fixed_point():
    # f = 3x with a claimed f' = 1: each steepest-descent step doubles the residual,
    # and from 6 on it is at or above the fixed point 4.5 of the bounds' map
    p = _scripted_problem(lambda x: 3.0 * x, x0=(1.0,), R=100.0)
    L = 2.0 * (1.0 - 0.5) / 4.5  # phi* = 2 (1 - mu) / (L lt^2) for a Lipschitz omega
    bounds = gc.BoundData(lam=1.0, theta=1.0, omega=gc.LipschitzModulus(L), R=100.0, mu=0.5)
    cert = gc.certify(bounds, 1.0, 3.0)
    assert cert.feasible and cert.phi_star == pytest.approx(4.5, rel=1e-15)
    trace = gc.solve(p, gc.MethodSpec(gc.STEEPEST_DESCENT), EUC, STOP, cert, bounds)
    assert trace.res_norms[:3] == [3.0, 6.0, 12.0]
    assert math.isfinite(trace.steps[0].apost_bound)
    assert all(math.isnan(s.apost_bound) for s in trace.steps[1:])


# --- empirical rates ----------------------------------------------------------------

def test_empirical_rates_one_step_exact():
    p = gc.identity(3)
    trace = gc.solve(p, gc.MethodSpec(gc.MIN_RESIDUAL), EUC, gc.StopRule(1e-12, 10))
    velo, lexp = gc.empirical_rates(trace, p.known_solution)
    assert velo == 0.0
    assert lexp == 0.0


def test_empirical_rates_bounded_by_theory_diag14():
    p = gc.linear_spd(1, 4, 2)
    nu = antieigenvalue(1, 4)
    tr_sd = gc.solve(p, gc.MethodSpec(gc.STEEPEST_DESCENT), EUC, STOP)
    velo, _ = gc.empirical_rates(tr_sd, p.known_solution)
    assert velo <= math.sqrt(1 / nu**2 - 1) + 1e-6
    tr_mr = gc.solve(p, gc.MethodSpec(gc.MIN_RESIDUAL), EUC, STOP)
    _, lexp = gc.empirical_rates(tr_mr, p.known_solution)
    assert lexp <= math.sqrt(1 - nu**2) + 1e-6


def test_empirical_rates_needs_steps():
    p = gc.linear_spd(1, 4, 2)
    trace = gc.IterationTrace(steps=[gc.TraceStep(0, p.x0, 1.0)], termination="max_iter",
                              space=EUC)
    with pytest.raises(ArgumentError):
        gc.empirical_rates(trace, p.known_solution)
