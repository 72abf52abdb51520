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
    report = gc.verify_relaxation(trace, cert)
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
    # the lp-geometry benchmark's estimator path: l_6, sigma = 5, R = 2 sqrt(6/20)
    (gc.chandrasekhar(0.5, 6), gc.MethodSpec(gc.BANACH_MIN_RESIDUAL), gc.sequence_p(6),
     (0.9182893962374559, 0.2634059541514126, 0.9892777577203403, 1.0,
      0.074898878468006)),
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
        gc.estimated_bound_data(p, SD, EUC, plan)


def test_estimator_jacobian_work_is_counted(counting):
    # bound data plus a trajectory estimate: one full pass and one pass
    # without polishing (the trajectory ratio needs none)
    n = 20
    p, work = counting(gc.chandrasekhar(0.5, n))
    gc.estimated_bound_data(p, SD, EUC, SHIPPED_PLAN)
    gc.estimate_nu_trajectory(p, SD, EUC, p.R, SHIPPED_PLAN)
    # the Jacobians of the two sampling sweeps, and no more: the polish
    # forms none (it made 968 stacked calls of 4,843 Jacobians before it
    # read images); steepest descent takes no vjp
    sampling = (1 + 2 * n + 64) + 4 * n
    assert work == {"jacobian": 2 * sampling, "jvp calls": 1151, "jvp rows": 47794}
    # without polishing: one Jacobian once per ball point (1 + 2n + 64) and
    # once per half- and quarter-radius axis point (4n); two jvp calls per
    # ball point, its n + 128 directions and its residual row
    work.clear()
    gc.sample_estimates(p, SD, EUC, p.R, dataclasses.replace(SHIPPED_PLAN, refine=False))
    unpolished = dict(work)
    assert unpolished == {"jacobian": sampling, "jvp calls": 2 * (1 + 2 * n + 64),
                          "jvp rows": (1 + 2 * n + 64) * (n + 128 + 1)}
    # each of the two polishes images one direction, then blocks of at most
    # 32 direction or point candidates
    work.clear()
    gc.sample_estimates(p, SD, EUC, p.R, SHIPPED_PLAN)
    work.subtract(unpolished)
    assert +work == {"jvp calls": 731, "jvp rows": 16504}


def test_no_polish_images_call_exceeds_the_block():
    # directions and points follow one block rule: at n = 40 a sweep has 80
    # candidates of each kind, and an images call takes at most 32 of them
    p = gc.chandrasekhar(0.5, 40)
    images, sizes = estimator._image_map(p, SD), []

    def recorded(X, H):
        sizes.append(len(H))
        return images(X, H)

    x0 = np.asarray(p.x0, dtype=float)
    for objective in (estimator._AcuteRatio(EUC), estimator._StepRatio(EUC, SD)):
        estimator._polish(objective, recorded, EUC, x0, p.R, x0, np.eye(40)[0])
    assert max(sizes) == estimator._POLISH_BLOCK == 32


def test_estimate_theta_rejects_radius_beyond_ball():
    plan = gc.SamplePlan(seed=16, n_points=4, n_dirs=16)
    with pytest.raises(ArgumentError):
        estimate_theta(gc.quad2d(), gc.MethodSpec(gc.MIN_CO_ERROR), EUC, 2.0, plan)


@pytest.mark.parametrize("family, r, space", [
    pytest.param(family, r, space, id=f"{family}-{name}")
    for family in (gc.MIN_RESIDUAL, gc.MIN_CO_ERROR)
    for name, r, space in [("beyond-R", 50.0, EUC), ("nan", math.nan, EUC),
                           ("negative", -1.0, EUC), ("l4", 0.5, gc.sequence_p(4))]
    if name != "l4" or family == gc.MIN_CO_ERROR])  # a T = I rule runs in l4
def test_estimate_theta_checks_its_inputs_for_every_family(family, r, space):
    # T = I families used to return 1.0 before any check
    plan = gc.SamplePlan(seed=16, n_points=4, n_dirs=16)
    with pytest.raises(ArgumentError):
        estimate_theta(gc.quad2d(), gc.MethodSpec(family), space, r, plan)


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


def _scaled(problem, scale):
    """The problem with f, its Jacobian and its operator actions all scaled by ``scale``."""
    return dataclasses.replace(
        problem, f=lambda x, _f=problem.f: _f(x) * scale,
        jacobian=lambda x, _j=problem.jacobian: _j(x) * scale,
        jvp=lambda X, H, _a=problem.jvp: _a(X, H) * scale,
        vjp=lambda X, H, _a=problem.vjp: _a(X, H) * scale)


@pytest.mark.parametrize("polished", [False, True], ids=["unpolished", "polished"])
def test_overflowing_image_norm_is_an_error(polished):
    # image norms near 1e160 overflow when squared as Python floats
    p = _scaled(gc.linear_spd(1, 4, 2), 1e160)
    method, space = gc.MethodSpec(gc.BANACH_MIN_RESIDUAL), gc.sequence_p(4)
    with pytest.raises(ArgumentError, match="image norm overflowed"), \
            np.errstate(over="ignore", invalid="ignore"):
        if polished:
            x0 = np.asarray(p.x0, dtype=float)
            estimator._polish(estimator._StepRatio(space, method),
                              estimator._image_map(p, method),
                              space, x0, p.R, x0, np.array([0.6, 0.8]))
        else:
            gc.sample_estimates(p, method, space, p.R, gc.SamplePlan(seed=1, n_points=8,
                                                                      n_dirs=16, refine=False))


def _residual_scaled(problem, scale):
    """The problem with f alone scaled by ``scale``: its operator is unchanged."""
    return dataclasses.replace(problem, f=lambda x, _f=problem.f: _f(x) * scale)


@pytest.mark.parametrize("refine", [False, True], ids=["unrefined", "refined"])
def test_a_residual_scaled_near_overflow_leaves_the_estimates(refine):
    # ||f(x)|| near 1e160 times an image norm overflows, but the ratios are
    # scale-free and the sweep scores the unit residual f(x)/||f(x)||
    p = gc.linear_spd(1, 4, 2)
    method, space = gc.MethodSpec(gc.BANACH_MIN_RESIDUAL), gc.sequence_p(4)
    plan = gc.SamplePlan(seed=1, n_points=8, n_dirs=16, refine=refine)
    got = gc.sample_estimates(_residual_scaled(p, 1e160), method, space, p.R, plan)
    want = gc.sample_estimates(p, method, space, p.R, plan)
    assert want.nu_trajectory is not None
    for name in ("nu_tilde", "lambda_tilde", "nu_trajectory", "theta", "omega_lipschitz"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-15, abs=0.0)


def test_an_overflowing_residual_norm_is_an_error():
    # entries near 1e160 have a finite Euclidean norm, rescaled as in l_p, so
    # the estimates are the unscaled problem's; entries near 1.5e308 have a norm
    # above the float range, an error.  With no numpy warning, as tier-1 turns a
    # RuntimeWarning into an error.
    p = gc.linear_spd(1, 4, 2)
    plan = gc.SamplePlan(seed=1, n_points=8, n_dirs=16, refine=False)
    got = gc.sample_estimates(_residual_scaled(p, 1e160), SD, EUC, p.R, plan)
    assert got == gc.sample_estimates(p, SD, EUC, p.R, plan)
    huge = dataclasses.replace(p, f=lambda x: np.full(2, 1.5e308))
    with pytest.raises(ArgumentError, match="residual norm at sampled ball point 0 overflowed"):
        gc.sample_estimates(huge, SD, EUC, p.R, plan)


def test_overflowing_euclidean_image_norm_is_an_error_not_a_failed_acuteness():
    # the finite images near 4e160 have Euclidean norms that overflow; the
    # acuteness ratio used to score them 0, and estimated_bound_data then
    # reported a failed positive-pairing assumption.  No numpy warning:
    # tier-1 turns a RuntimeWarning into an error.
    p = _scaled(gc.linear_spd(1, 4, 2), 1e160)
    plan = gc.SamplePlan(seed=1, n_points=8, n_dirs=16)
    for refine in (False, True):
        with pytest.raises(ArgumentError, match="an image norm overflowed$"):
            gc.estimated_bound_data(p, SD, EUC, dataclasses.replace(plan, refine=refine))
    x0 = np.asarray(p.x0, dtype=float)
    with pytest.raises(ArgumentError, match="an image norm overflowed$"):
        estimator._polish(estimator._AcuteRatio(EUC), estimator._image_map(p, SD),
                          EUC, x0, p.R, x0, np.array([0.6, 0.8]))


def test_a_non_finite_image_at_a_sampled_point_is_an_error():
    # the Jacobian is finite everywhere; the jvp is NaN at ball point 1 only
    p = gc.chandrasekhar(0.5, 6)
    point = np.asarray(p.x0, dtype=float) + p.R * np.eye(6)[0]

    def jvp(X, H, _jvp=p.jvp):
        W = _jvp(X, H)
        return np.full_like(W, np.nan) if np.array_equal(X, point) else W

    plan = gc.SamplePlan(seed=3, n_points=8, n_dirs=32, refine=False)
    with pytest.raises(ArgumentError, match="'chandrasekhar'.* ball point 1 .*non-finite"):
        gc.sample_estimates(dataclasses.replace(p, jvp=jvp), SD, EUC, p.R, plan)


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


@pytest.mark.parametrize("n", [1, 8, 80, 320])
@pytest.mark.parametrize("scale", [1e-170, 1e-140, 1.0, 1e140, 1e150],
                         ids=["tiny", "small", "unit", "large", "huge"])
def test_matrix_norm_bound_holds_where_the_frobenius_norm_is_sharp(n, scale):
    # on a rank-one matrix ||M||_F = ||M||_2, so only the inflation of the
    # Frobenius term covers its rounding; the squares of 1e-170 underflow
    # and those of 1e150 may overflow, where the other bound must hold alone
    rng = np.random.default_rng(n)
    M = np.outer(rng.standard_normal(n), rng.standard_normal(n)) * scale
    bound = estimator._matrix_norm_bound(EUC, M)
    assert 0.0 < estimator._matrix_norm(EUC, M) <= bound * (1.0 + 1e-12) < math.inf


def test_few_lipschitz_pairs_need_an_svd(monkeypatch):
    # the Frobenius norm bounds most pairs below the running maximum; with
    # sqrt(||D||_1 ||D||_inf) alone 61 of the pairs took an SVD
    p = gc.chandrasekhar(0.5, 80)
    calls = []
    matrix_norm = estimator._matrix_norm
    monkeypatch.setattr(estimator, "_matrix_norm",
                        lambda space, M: calls.append(1) or matrix_norm(space, M))
    plan = gc.SamplePlan(seed=7, n_points=64, n_dirs=128)
    assert gc.estimate_omega_lipschitz(p, p.R, plan) > 0.0
    assert 1 <= len(calls) <= 8


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("t", [0.5, 0.25])
def test_non_finite_jacobian_at_an_axis_point_is_an_error(value, t):
    # x0 + t R e_0 is no ball point; a nan there made both cheap bounds nan
    # and failed the SVD with LinAlgError, and an inf was skipped
    p = gc.chandrasekhar(0.5, 6)
    plan = gc.SamplePlan(seed=3, n_points=8, n_dirs=32, refine=False)
    point = np.asarray(p.x0, dtype=float) + t * p.R * np.eye(6)[0]
    poisoned = _poisoned(p, point, value)
    match = rf"'chandrasekhar'.* axis point x0 \+ {t} r e_0 .*non-finite"
    with pytest.raises(ArgumentError, match=match):
        gc.sample_estimates(poisoned, SD, EUC, p.R, plan)
    with pytest.raises(ArgumentError, match=match):
        gc.estimate_omega_lipschitz(poisoned, p.R, plan)


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
def test_omega_lipschitz_refuses_a_non_finite_jacobian_at_a_ball_point(value):
    # ball point 1 is x0 + R e_0; the omega-only pass checked no Jacobian
    p = gc.chandrasekhar(0.5, 6)
    plan = gc.SamplePlan(seed=3, n_points=8, n_dirs=32)
    point = np.asarray(p.x0, dtype=float) + p.R * np.eye(6)[0]
    with pytest.raises(ArgumentError, match="'chandrasekhar'.* ball point 1 .*non-finite"):
        gc.estimate_omega_lipschitz(_poisoned(p, point, value), p.R, plan)


@pytest.mark.parametrize("space", [EUC, gc.sequence_p(3)], ids=["euclidean", "p3"])
def test_omega_lipschitz_screening_keeps_the_exact_maximum(space):
    # every pair's quotient by a full SVD, no screening: the maximum must be
    # the same bit for bit.  R = 3 puts the ball radius 3 sqrt(8/20) above r
    p = gc.chandrasekhar(0.5, 8, R=3.0)
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
