import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradcert as gc
from gradcert import estimator
from gradcert.errors import ArgumentError, AssumptionError
from gradcert.estimator import estimate_theta

EUC = gc.euclidean()
MR = gc.MethodSpec(gc.MIN_RESIDUAL)
SD = gc.MethodSpec(gc.STEEPEST_DESCENT)


def antieigenvalue(m, M):
    return 2.0 * math.sqrt(m * M) / (m + M)


def test_nu_tilde_identity_operator():
    plan = gc.SamplePlan(seed=0, n_points=4, n_dirs=32)
    assert gc.estimate_nu_tilde(gc.identity(3), MR, EUC, 1.0, plan) == pytest.approx(1.0, abs=1e-12)


def test_nu_tilde_diag14_matches_antieigenvalue():
    # closed form 2 sqrt(mM)/(m+M) = 0.8 is the oracle for the sampled estimate
    p = gc.linear_spd(1, 4, 2)
    plan = gc.SamplePlan(seed=1, n_points=2, n_dirs=10000, refine=False)
    got = gc.estimate_nu_tilde(p, MR, EUC, 1.0, plan)
    assert got == pytest.approx(0.8, abs=1e-3)
    assert got >= 0.8 - 1e-12  # an upper estimate of the infimum
    polished = gc.estimate_nu_tilde(p, MR, EUC, 1.0,
                                    gc.SamplePlan(seed=1, n_points=2, n_dirs=256, refine=True))
    assert polished == pytest.approx(0.8, abs=1e-6)


def test_nu_tilde_adjoint_family_uses_squared_spectrum():
    p = gc.linear_spd(1, 4, 2)
    plan = gc.SamplePlan(seed=2, n_points=2, n_dirs=4096, refine=True)
    got = gc.estimate_nu_tilde(p, gc.MethodSpec(gc.MIN_CO_ERROR), EUC, 1.0, plan)
    assert got == pytest.approx(antieigenvalue(1, 16), abs=1e-4)


def test_nu_tilde_indefinite_reports_nonpositive():
    plan = gc.SamplePlan(seed=0, n_points=4, n_dirs=64)
    got = gc.estimate_nu_tilde(gc.indefinite2d(), MR, EUC, 1.0, plan)
    assert got <= 0.0


def test_lambda_tilde_diag14():
    p = gc.linear_spd(1, 4, 2)
    plan = gc.SamplePlan(seed=3, n_points=2, n_dirs=512)
    # maximized at the eigenvector of the smallest eigenvalue, which the
    # deterministic axis directions hit exactly
    assert gc.estimate_lambda_tilde(p, MR, EUC, 1.0, plan) == pytest.approx(1.0, abs=1e-9)
    assert gc.estimate_lambda_tilde(p, SD, EUC, 1.0, plan) == pytest.approx(1.0, abs=1e-9)


def test_lambda_tilde_identity():
    plan = gc.SamplePlan(seed=4, n_points=2, n_dirs=64)
    for method in (MR, SD):
        got = gc.estimate_lambda_tilde(gc.identity(2), method, EUC, 1.0, plan)
        assert got == pytest.approx(1.0, abs=1e-12)


def test_lambda_tilde_unbounded_for_indefinite_relaxed_family():
    plan = gc.SamplePlan(seed=5, n_points=4, n_dirs=64)
    got = gc.estimate_lambda_tilde(gc.indefinite2d(), SD, EUC, 1.0, plan)
    assert math.isinf(got)


def test_nu_trajectory_identity():
    plan = gc.SamplePlan(seed=6, n_points=16, n_dirs=8)
    assert gc.estimate_nu_trajectory(gc.identity(3), MR, EUC, 1.0, plan) == pytest.approx(1.0, abs=1e-12)


def test_nu_trajectory_dominates_nu_tilde_same_plan():
    plan = gc.SamplePlan(seed=7, n_points=24, n_dirs=128, refine=False)
    p = gc.linear_spd(1, 4, 2, x0=[1.0, 1.0])
    traj = gc.estimate_nu_trajectory(p, MR, EUC, 0.5, plan)
    tilde = gc.estimate_nu_tilde(p, MR, EUC, 0.5, plan)
    assert 0.8 - 1e-9 <= traj <= 1.0 + 1e-12
    assert traj >= tilde  # exact: the direction sample set is a superset
    # the residual row gives both one value: on this plan a second rounding
    # of it would put nu_tilde 1 ulp above nu_trajectory
    plan = gc.SamplePlan(seed=1, n_points=16, n_dirs=32, refine=False)
    p = gc.chandrasekhar(0.5, 20)
    est = gc.sample_estimates(p, SD, EUC, p.R, plan)
    assert est.nu_trajectory >= est.nu_tilde
    assert est.nu_trajectory == pytest.approx(0.9953439969990134, rel=1e-14)


def test_nu_trajectory_eigendirection_residuals():
    # with r = 0 only the center is sampled; f(x0) = (1, 0) is an eigenvector
    p = gc.linear_spd(1, 4, 2, x0=[1.0, 0.0])
    plan = gc.SamplePlan(seed=8, n_points=4, n_dirs=4)
    assert gc.estimate_nu_trajectory(p, MR, EUC, 0.0, plan) == pytest.approx(1.0, abs=1e-14)


def test_nu_trajectory_undefined_when_residual_vanishes():
    p = gc.identity(2, b=[0.0, 0.0])
    plan = gc.SamplePlan(seed=9, n_points=4, n_dirs=4)
    with pytest.raises(ArgumentError):
        gc.estimate_nu_trajectory(p, MR, EUC, 0.0, plan)


def test_omega_lipschitz_affine_is_zero():
    plan = gc.SamplePlan(seed=10, n_points=16, n_dirs=4)
    assert gc.estimate_omega_lipschitz(gc.linear_spd(1, 4, 3), 1.0, plan) == 0.0


def test_omega_lipschitz_quad2d():
    # axis-aligned pairs realize the sharp constant 0.2 exactly
    plan = gc.SamplePlan(seed=11, n_points=32, n_dirs=4)
    got = gc.estimate_omega_lipschitz(gc.quad2d(), 1.0, plan)
    assert got == pytest.approx(0.2, abs=1e-12)


def test_omega_lipschitz_scalar_quad():
    plan = gc.SamplePlan(seed=12, n_points=16, n_dirs=4)
    got = gc.estimate_omega_lipschitz(gc.scalar_quad(), 2.0, plan)
    assert got == pytest.approx(0.1, abs=1e-12)


def test_omega_lipschitz_requires_distinct_points():
    plan = gc.SamplePlan(seed=13, n_points=1, n_dirs=4)
    with pytest.raises(ArgumentError):
        gc.estimate_omega_lipschitz(gc.quad2d(), 0.0, plan)


def test_estimates_deterministic_given_plan():
    p = gc.chandrasekhar(0.5, 12)
    plan = gc.SamplePlan(seed=99, n_points=16, n_dirs=32, refine=True)
    vals1 = (gc.estimate_nu_tilde(p, SD, EUC, 1.0, plan),
             gc.estimate_lambda_tilde(p, SD, EUC, 1.0, plan),
             gc.estimate_nu_trajectory(p, SD, EUC, 1.0, plan),
             gc.estimate_omega_lipschitz(p, 1.0, plan))
    vals2 = (gc.estimate_nu_tilde(p, SD, EUC, 1.0, plan),
             gc.estimate_lambda_tilde(p, SD, EUC, 1.0, plan),
             gc.estimate_nu_trajectory(p, SD, EUC, 1.0, plan),
             gc.estimate_omega_lipschitz(p, 1.0, plan))
    assert vals1 == vals2  # bit-identical


def test_estimated_bounds_certify_and_verify_linear():
    # sampled nu feeds mu, and the per-step verifier confirms the bounds are
    # valid along the trajectory (extremizers sit on the sampled axes)
    p = gc.linear_spd(1, 4, 2)
    plan = gc.SamplePlan(seed=14, n_points=8, n_dirs=256, refine=True)
    bounds = gc.estimated_bound_data(p, MR, EUC, plan)
    assert bounds.nu == pytest.approx(0.8, abs=1e-6)
    a = gc.norm(EUC, p.f(p.x0))
    cert = gc.certify(bounds, 1.0, a)
    assert cert.feasible
    assert cert.linear_rate == pytest.approx(0.6, abs=1e-5)
    trace = gc.solve(p, MR, EUC, gc.StopRule(1e-10, 300), cert, bounds)
    report = gc.verify_relaxation(trace, cert, bounds, tol=1e-9)
    assert report.ok


def test_estimated_bounds_reject_indefinite():
    plan = gc.SamplePlan(seed=15, n_points=8, n_dirs=64)
    with pytest.raises(AssumptionError):
        gc.estimated_bound_data(gc.indefinite2d(), MR, EUC, plan)


def test_estimator_rejects_radius_beyond_ball():
    plan = gc.SamplePlan(seed=16, n_points=4, n_dirs=16)
    with pytest.raises(ArgumentError):
        gc.estimate_nu_tilde(gc.quad2d(), MR, EUC, 2.0, plan)


# --- one sampling pass: values and work --------------------------------------

SHIPPED_PLAN = gc.SamplePlan(seed=7, n_points=64, n_dirs=128, refine=True)


def _counting(problem):
    """The problem with its Jacobian calls, and the points they take, counted."""
    work = {"calls": 0, "rows": 0}

    def jacobian(x, _jac=problem.jacobian):
        work["calls"] += 1
        work["rows"] += len(x) if x.ndim == 2 else 1
        return _jac(x)
    return dataclasses.replace(problem, jacobian=jacobian), work


@pytest.mark.parametrize("problem, method, space, expected", [
    # values of the per-estimate sampling loops that the one pass replaced;
    # the pass makes the same arithmetic, so they must not move
    (gc.chandrasekhar(0.5, 20), SD, EUC,
     (0.9812084510737715, 1.248846120009825, 0.9947057706458378, 1.0,
      0.007535835344234994)),
    (gc.linear_spd(1, 3, 3), gc.MethodSpec(gc.BANACH_MIN_RESIDUAL), gc.sequence_p(4),
     (0.6846325042023059, 0.3333333333333333, 0.6855328440985307, 1.0, 0.0)),
    (gc.linear_spd(1, 3, 3), gc.MethodSpec(gc.MIN_CO_ERROR), EUC,
     (0.600000000000001, 1.0, 0.6394463287868006, 3.0, 0.0)),
    # the lp-geometry benchmark's estimator path: l_6, sigma = 5
    (gc.chandrasekhar(0.5, 6), gc.MethodSpec(gc.BANACH_MIN_RESIDUAL), gc.sequence_p(6),
     (0.872120175842647, 0.29521077009361973, 0.9828548320392644, 1.0,
      0.07523932577442469)),
], ids=["chandrasekhar20-sd", "spd3-lp4-banach-minres", "spd3-min-co-error",
        "chandrasekhar6-lp6-banach-minres"])
def test_sample_estimates_values_pinned(problem, method, space, expected):
    est = gc.sample_estimates(problem, method, space, problem.R, SHIPPED_PLAN)
    got = (est.nu_tilde, est.lambda_tilde, est.nu_trajectory, est.theta,
           est.omega_lipschitz)
    # rel=1e-15 rather than ==, so that another BLAS may round differently
    assert got == pytest.approx(expected, rel=1e-15, abs=0.0)
    # the public readers return the record's values
    r = problem.R
    assert gc.estimate_nu_tilde(problem, method, space, r, SHIPPED_PLAN) == est.nu_tilde
    assert gc.estimate_lambda_tilde(problem, method, space, r, SHIPPED_PLAN) == est.lambda_tilde
    assert gc.estimate_nu_trajectory(problem, method, space, r, SHIPPED_PLAN) == est.nu_trajectory
    assert estimate_theta(problem, method, space, r, SHIPPED_PLAN) == est.theta
    assert gc.estimate_omega_lipschitz(problem, r, SHIPPED_PLAN, space) == est.omega_lipschitz
    bounds = gc.estimated_bound_data(problem, method, space, SHIPPED_PLAN)
    assert (bounds.lam, bounds.theta, bounds.omega.constant(r)) == (
        est.lambda_tilde, est.theta, est.omega_lipschitz)


def test_estimates_are_plain_floats():
    # the polish scores with numpy; the record holds what reports can write
    p = gc.chandrasekhar(0.5, 6)
    est = gc.sample_estimates(p, gc.MethodSpec(gc.BANACH_MIN_RESIDUAL), gc.sequence_p(6),
                              p.R, SHIPPED_PLAN)
    assert SHIPPED_PLAN.refine
    for value in dataclasses.astuple(est):
        assert type(value) is float


def test_failed_assumptions_report_acuteness_first():
    # both assumptions fail on the indefinite problem; the pass still
    # completes, and estimated_bound_data names the acuteness failure first
    p, plan = gc.indefinite2d(), gc.SamplePlan(seed=5, n_points=4, n_dirs=64)
    est = gc.sample_estimates(p, SD, EUC, 1.0, plan)
    assert est.nu_tilde <= 0.0 and math.isinf(est.lambda_tilde)
    with pytest.raises(AssumptionError, match="acuteness"):
        gc.estimated_bound_data(p, SD, EUC, plan, r=1.0)


def test_estimator_jacobian_work_is_counted():
    # bound data plus a trajectory estimate: one full pass and one pass
    # without polishing (the trajectory ratio needs none)
    n = 20
    p, work = _counting(gc.chandrasekhar(0.5, n))
    gc.estimated_bound_data(p, SD, EUC, SHIPPED_PLAN)
    gc.estimate_nu_trajectory(p, SD, EUC, p.R, SHIPPED_PLAN)
    # one point per call made 3572 of each before the polish stacked its
    # point candidates
    assert (work["rows"], work["calls"]) == (4843, 968)
    # without polishing: one point per call, once per ball point (1 + 2n + 64)
    # and once per half- and quarter-radius axis point (4n)
    work.update(calls=0, rows=0)
    gc.sample_estimates(p, SD, EUC, p.R, dataclasses.replace(SHIPPED_PLAN, refine=False))
    sampling = work["calls"]
    assert sampling == work["rows"] == (1 + 2 * n + 64) + 4 * n
    # each of the two polishes evaluates one operator, then stacks of at
    # most 8 point candidates, in fewer calls than the 2n candidates of
    # each of 40 sweeps one at a time
    work.update(calls=0, rows=0)
    gc.sample_estimates(p, SD, EUC, p.R, SHIPPED_PLAN)
    calls, rows = work["calls"] - sampling, work["rows"] - sampling
    assert calls < 2 * (1 + 40 * 2 * n)
    assert rows <= 2 + 8 * (calls - 2)


def test_estimate_theta_rejects_radius_beyond_ball():
    plan = gc.SamplePlan(seed=16, n_points=4, n_dirs=16)
    with pytest.raises(ArgumentError):
        estimate_theta(gc.quad2d(), gc.MethodSpec(gc.MIN_CO_ERROR), EUC, 2.0, plan)


@pytest.mark.parametrize("r", [-0.5, math.nan])
def test_estimator_rejects_negative_or_nan_radius(r):
    plan = gc.SamplePlan(seed=16, n_points=4, n_dirs=16)
    with pytest.raises(ArgumentError):
        gc.sample_estimates(gc.quad2d(), MR, EUC, r, plan)
    with pytest.raises(ArgumentError):
        gc.estimate_omega_lipschitz(gc.quad2d(), r, plan)


def test_zero_radius_has_no_lipschitz_pair():
    plan = gc.SamplePlan(seed=16, n_points=4, n_dirs=16)
    with pytest.raises(ArgumentError):
        gc.estimate_omega_lipschitz(gc.quad2d(), 0.0, plan)


def _poisoned(problem, point, value):
    """The problem with ``value`` in J[0, 0] at the one point ``point``."""
    def jacobian(x, _jac=problem.jacobian):
        J = np.array(_jac(x))
        if x.ndim == 1 and np.array_equal(x, point):
            J[0, 0] = value
        return J
    return dataclasses.replace(problem, jacobian=jacobian)


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("method", [SD, MR], ids=["steepest-descent", "min-residual"])
def test_non_finite_operator_at_a_sampled_point_is_an_error(value, method):
    # ball point 1 is x0 + R e_0.  Skipped by every comparison, an inf there
    # would raise nu_tilde from 0.98468 to 0.98553, a less conservative
    # bound; a nan would reach the Lipschitz pass's SVD.
    p = gc.chandrasekhar(0.5, 6)
    plan = gc.SamplePlan(seed=3, n_points=8, n_dirs=32, refine=False)
    point = np.asarray(p.x0, dtype=float) + p.R * np.eye(6)[0]
    with pytest.raises(ArgumentError, match="'chandrasekhar'.* ball point 1 .*non-finite"):
        gc.sample_estimates(_poisoned(p, point, value), method, EUC, p.R, plan)


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
       scale=st.floats(-6, 6), seed=st.integers(0, 2**32 - 1),
       space=st.sampled_from([EUC, gc.sequence_p(3), gc.sequence_p(6)]))
def test_matrix_norm_bound_is_an_upper_bound(shape, scale, seed, space):
    # the Lipschitz pass skips the SVD of a pair when this bound cannot
    # raise the maximum, so the bound must hold in floating point too
    M = np.random.default_rng(seed).standard_normal(shape) * 10.0 ** scale
    bound = estimator._matrix_norm_bound(space, M)
    assert bound * (1.0 + 1e-12) >= estimator._matrix_norm(space, M)


@pytest.mark.parametrize("space", [EUC, gc.sequence_p(3)], ids=["euclidean", "p3"])
def test_omega_lipschitz_screening_keeps_the_exact_maximum(space):
    # every pair's quotient by a full SVD, no screening: the maximum must be
    # the same bit for bit
    p = gc.chandrasekhar(0.5, 8)
    plan = gc.SamplePlan(seed=21, n_points=32, n_dirs=4)
    r, center = 1.5, p.x0
    pts = estimator._ball_points(center, r, plan.n_points,
                                 np.random.default_rng(plan.seed), space)
    pairs = [(center, center + t * r * e) for e in np.eye(8) for t in (1.0, 0.5, 0.25)]
    pairs += [(center, center - t * r * e) for e in np.eye(8) for t in (1.0, 0.5, 0.25)]
    pairs += list(zip(pts[:-1], pts[1:]))
    expected = max(estimator._matrix_norm(space, p.jacobian(a) - p.jacobian(b))
                   / gc.norm(space, a - b) for a, b in pairs)
    assert gc.estimate_omega_lipschitz(p, r, plan, space) == expected
