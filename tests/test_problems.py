import dataclasses
import json
import math
import re

import numpy as np
import pytest

import gradcert as gc
from gradcert import cli
from gradcert.errors import ArgumentError

EUC = gc.euclidean()


def test_registry_contains_required_problems():
    names = gc.problem_names()
    for required in ("identity", "linear_spd", "quad2d", "scalar_quad",
                     "chandrasekhar", "indefinite2d"):
        assert required in names
    assert len(gc.registry()) == len(names)


def test_a_problem_dimension_is_its_x0s(capsys):
    # no dim field that could disagree with x0
    assert "dim" not in {f.name for f in dataclasses.fields(gc.Problem)}
    with pytest.raises(TypeError):
        gc.Problem(name="t", dim=3, f=lambda x: x, jacobian=lambda x: np.eye(3),
                   x0=np.zeros(3), R=1.0)
    p = gc.Problem(name="t", f=lambda x: 2.0 * x, jacobian=lambda x: 2.0 * np.eye(len(x)),
                   x0=np.zeros(3), R=1.0)
    assert gc.validate_jacobian(p).passed
    # a rebuilt problem takes the dimension of its new x0
    assert gc.validate_jacobian(dataclasses.replace(p, x0=np.ones(5))).worst_point.shape == (5,)
    assert cli.main(["list-problems"]) == 0
    dims = {row["name"]: row["dim"] for row in json.loads(capsys.readouterr().out)}
    assert dims == {q.name: len(q.x0) for q in gc.registry()}


def test_linear_spd_with_a_given_radius_takes_no_start_residual():
    # ||A x0 - b|| overflows at this start; with R given it is not computed
    p = gc.linear_spd(1, 4, 2, x0=[1e160, 1e160], R=1e200)
    assert p.R == 1e200 and np.isfinite(p.f(p.x0)).all()


def test_make_problem_unknown_name():
    with pytest.raises(ArgumentError):
        gc.make_problem("no_such_problem")


def test_make_problem_bad_params():
    with pytest.raises(ArgumentError):
        gc.make_problem("linear_spd", bogus=1)
    with pytest.raises(ArgumentError):
        gc.make_problem("linear_spd", m=2.0, M=1.0)
    with pytest.raises(ArgumentError):
        gc.make_problem("chandrasekhar", c=1.5)


def test_identity_example():
    p = gc.identity(3)
    np.testing.assert_allclose(p.f(np.zeros(3)), [-1.0, -2.0, -3.0])
    np.testing.assert_allclose(p.known_solution, [1.0, 2.0, 3.0])
    assert np.linalg.norm(p.f(p.known_solution)) == 0.0


def test_quad2d_point_values():
    p = gc.quad2d()
    x = np.array([1.0, 1.0])
    np.testing.assert_allclose(p.f(x), [0.9, 0.9], rtol=1e-15)
    np.testing.assert_allclose(p.jacobian(x), [[1.0, -0.2], [-0.2, 1.0]], rtol=1e-15)
    np.testing.assert_allclose(p.x0, [0.5, 0.5])
    assert p.R == 1.0
    assert np.linalg.norm(p.f(p.known_solution)) == 0.0


def test_linear_spd_certified_constants():
    p = gc.linear_spd(1, 4, 2)
    method = gc.MethodSpec(gc.MIN_RESIDUAL)
    bounds = p.certified_bounds.bound_data(method, 1.0)
    assert bounds.nu_at(0.5) == pytest.approx(0.8, rel=1e-15)
    assert bounds.omega.is_zero(0.5)
    assert bounds.lam_at(0.3) == 1.0
    assert bounds.theta_at(0.3) == 1.0
    adj = p.certified_bounds.bound_data(gc.MethodSpec(gc.MIN_CO_ERROR), 1.0)
    assert adj.nu_at(0.1) == pytest.approx(8.0 / 17.0, rel=1e-15)
    assert adj.theta_at(0.1) == 4.0


@pytest.mark.parametrize("M", [5e8, 1e160])
def test_linear_spd_too_wide_a_spread_is_an_argument_error(M):
    # 1 - mu of the minimal-quadratic family rounds to 0, so no ball radius
    # can be sized for it
    with pytest.raises(ArgumentError, match=re.escape(f"spread M/m = {M:g} too wide")), \
            np.errstate(over="ignore"):
        gc.linear_spd(1.0, M, 2)


def test_certified_bounds_refuse_non_euclidean_sigma():
    p = gc.linear_spd(1, 4, 2)
    with pytest.raises(ArgumentError):
        p.certified_bounds.bound_data(gc.MethodSpec(gc.BANACH_MIN_RESIDUAL), 3.0)


def test_scalar_quad_solution():
    p = gc.scalar_quad(c=0.1)
    x = p.known_solution
    assert abs(p.f(x)[0]) <= 1e-12 * max(1.0, abs(p.f(p.x0)[0]))
    assert x[0] == pytest.approx(10.0 * (1.0 - math.sqrt(0.98)), rel=1e-12)


def test_rotated_spd_keeps_spectrum():
    p = gc.linear_spd(0.7, 5.0, 4, rotate=True, seed=3)
    A = p.jacobian(p.x0)
    np.testing.assert_allclose(A, A.T, atol=1e-12)
    eig = np.linalg.eigvalsh(A)
    assert eig.min() == pytest.approx(0.7, rel=1e-10)
    assert eig.max() == pytest.approx(5.0, rel=1e-10)


def test_every_registered_problem_passes_jacobian_validation():
    for p in gc.registry():
        report = gc.validate_jacobian(p, seed=123)
        assert report.passed, (p.name, report.max_rel_dev)
        assert report.max_rel_dev <= 1e-6


def test_affine_jacobian_validation_is_exact():
    report = gc.validate_jacobian(gc.linear_spd(1, 4, 3), seed=5)
    assert report.max_rel_dev <= 1e-10


def test_corrupted_jacobian_fails_with_witness():
    p = gc.quad2d()

    def broken(x):
        J = p.jacobian(x)
        J[0, 1] = -J[0, 1]  # sign flip
        return J

    bad = dataclasses.replace(p, jacobian=broken)
    report = gc.validate_jacobian(bad, seed=7)
    assert not report.passed
    assert report.worst_entry == (0, 1)
    assert report.worst_point is not None


def test_newton_oracle_quad2d():
    x = gc.newton_solve(gc.quad2d())
    np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-12)


def test_newton_oracle_linear_one_shot():
    p = gc.linear_spd(1, 4, 3, b=[1.0, 2.0, 3.0])
    x = gc.newton_solve(p)
    np.testing.assert_allclose(x, p.known_solution, atol=1e-12)


def test_chandrasekhar_converges_and_matches_newton():
    p = gc.chandrasekhar(0.5, 20)
    trace = gc.solve(p, gc.MethodSpec(gc.STEEPEST_DESCENT), EUC,
                     gc.StopRule(res_tol=1e-10, max_iter=200))
    assert trace.termination == "converged"
    assert trace.n_steps < 200
    x_star = gc.newton_solve(p)
    assert np.linalg.norm(trace.final.x - x_star) <= 1e-8
    # physically sensible: H >= 1 and increasing in the angular variable
    assert np.all(x_star >= 1.0 - 1e-12)
    assert np.all(np.diff(x_star) > 0)


def test_chandrasekhar_jacobian_structure():
    p = gc.chandrasekhar(0.3, 8)
    x = np.ones(8)
    J = p.jacobian(x)
    # diagonal dominated by the identity, off-diagonal strictly negative
    assert np.all(np.diag(J) > 0.5)
    off = J - np.diag(np.diag(J))
    assert np.all(off <= 0.0)


def _ball_stack(p, k, seed):
    """k seeded points of p's ball, as a (k, dim) stack."""
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((k, len(p.x0)))
    D /= np.linalg.norm(D, axis=1)[:, None]
    return p.x0 + p.R * rng.random((k, 1)) ** (1.0 / len(p.x0)) * D


ACTION_PROBLEMS = ([(p.name, p) for p in gc.registry()]
                   + [(f"chandrasekhar-n{n}", gc.chandrasekhar(0.5, n)) for n in (2, 6, 20, 80)])


@pytest.mark.parametrize("p", [p for _, p in ACTION_PROBLEMS],
                         ids=[name for name, _ in ACTION_PROBLEMS])
def test_stacked_jacobian_equals_one_point_jacobians(p):
    # the estimator reads every ratio from the Jacobian actions jvp and vjp,
    # at one point or at a stack of one point per row; validate_jacobian
    # compares both with the dense products, and each row of a stack must be
    # its own point's one-point Jacobian product
    report = gc.validate_jacobian(p, seed=123)
    assert report.passed, (p.name, report.max_rel_dev, report.max_action_dev)
    assert report.max_action_dev <= 1e-13
    rng = np.random.default_rng(4)
    for k, seed in ((1, 0), (8, 1), (13, 2)):
        X = _ball_stack(p, k, seed)
        H = rng.standard_normal((k, len(p.x0)))
        for action, transpose in ((p.jvp, False), (p.vjp, True)):
            W = action(X, H)
            assert W.shape == (k, len(p.x0))
            for i in range(k):
                J = np.asarray(p.jacobian(X[i]), dtype=float)
                expected = H[i] @ (J if transpose else J.T)
                assert np.abs(W[i] - expected).max() <= 1e-13 * np.abs(expected).max()


def test_a_corrupted_operator_action_fails_validation():
    # jvp and vjp swapped: the same at x1 = x0, so only off that line
    p = gc.quad2d()
    bad = dataclasses.replace(p, jvp=p.vjp, vjp=p.jvp)
    report = gc.validate_jacobian(bad, seed=7)
    assert not report.passed
    assert report.max_rel_dev <= 1e-6  # the Jacobian itself is right
    assert report.max_action_dev > 1e-3
    assert gc.validate_jacobian(p, seed=7).passed
    # a NaN action fails rather than dropping out of the maximum
    nan = dataclasses.replace(p, vjp=lambda X, H: np.full(H.shape, np.nan))
    assert not gc.validate_jacobian(nan, seed=7).passed


@pytest.mark.parametrize("n", [2, 6, 20, 80])
def test_chandrasekhar_jacobian_is_identity_minus_scaled_kernel(n):
    # J = I - diag(s^2) K with s = 1 / (1 - K H), bit for bit, from the
    # formula written out
    c = 0.5
    p = gc.chandrasekhar(c, n)
    mu = (np.arange(n) + 0.5) / n
    K = 0.5 * c * (1.0 / n) * mu[:, None] / (mu[:, None] + mu[None, :])
    for x in _ball_stack(p, 8, n):
        s = 1.0 / (1.0 - K @ x)
        assert p.jacobian(x).tobytes() == (np.eye(n) - (s * s)[:, None] * K).tobytes()


def test_a_problem_without_operator_actions_is_refused():
    p = gc.linear_spd(1, 4, 3)
    bare = dataclasses.replace(p, jvp=None, vjp=None)
    plan = gc.SamplePlan(seed=0, n_points=4, n_dirs=8)
    method = gc.MethodSpec(gc.MIN_RESIDUAL)
    for refine in (False, True):
        with pytest.raises(ArgumentError, match="problem 'linear_spd' supplies no jvp/vjp"):
            gc.sample_estimates(bare, method, EUC, 1.0, dataclasses.replace(plan, refine=refine))
    # the Lipschitz estimate and the Jacobian check read matrices only
    assert gc.estimate_omega_lipschitz(bare, 1.0, plan) == 0.0
    report = gc.validate_jacobian(bare, seed=5)
    assert report.passed and report.max_action_dev is None
    # an action that ignores the rows of a stack is refused by shape
    A = p.jacobian(p.x0)
    flat = dataclasses.replace(p, jvp=lambda X, H: (H @ A.T)[:1])
    with pytest.raises(ArgumentError, match=r"return shape \(1, 3\)"):
        gc.sample_estimates(flat, method, EUC, 1.0, plan)


def test_known_solutions_satisfy_equation():
    for p in gc.registry():
        if p.known_solution is None:
            continue
        scale = max(1.0, float(np.linalg.norm(p.f(p.x0))))
        assert np.linalg.norm(p.f(p.known_solution)) <= 1e-12 * scale


# The four per-problem bound resolvers that CertifiedBounds.bound_data
# replaced, each restating the family rule, kept here as its reference.

def _ref_linear(m, M, R):
    nu_id = 2.0 * math.sqrt(m * M) / (m + M)
    nu_adj = 2.0 * m * M / (m * m + M * M)

    def resolve(method):
        th = method.effective_vartheta
        if method.uses_adjoint:
            nu, theta, lam_base = nu_adj, M, 1.0 / (m * m)
        else:
            nu, theta, lam_base = nu_id, 1.0, 1.0 / m
        lam = lam_base if method.minimising else lam_base / th
        return gc.BoundData(lam=lam, theta=theta, omega=gc.LipschitzModulus(0.0), R=R,
                            nu=nu, method=method)
    return resolve


def _ref_identity(R):
    def resolve(method):
        th = method.effective_vartheta
        lam = 1.0 if method.minimising else 1.0 / th
        return gc.BoundData(lam=lam, theta=1.0, omega=gc.LipschitzModulus(0.0), R=R,
                            nu=1.0, method=method)
    return resolve


def _ref_quad2d(method):
    R = 1.0
    th = method.effective_vartheta
    sym_bound = lambda r: 0.1 * (1.0 + math.sqrt(2.0) * min(r, R))
    skew_bound = lambda r: 0.1 * math.sqrt(2.0) * min(r, R)
    smin = lambda r: 1.0 - sym_bound(r) - skew_bound(r)
    smax = lambda r: 1.0 + sym_bound(r) + skew_bound(r)
    if method.uses_adjoint:
        nu = lambda r: (smin(r) / smax(r)) ** 2
        theta = smax
        lam = (lambda r: 1.0 / smin(r) ** 2) if method.minimising \
            else (lambda r: 1.0 / (th * smin(r) ** 2))
    else:
        def nu(r):
            s, k = sym_bound(r), skew_bound(r)
            return 1.0 / (1.0 / math.sqrt(1.0 - s * s) + k / (1.0 - s))
        theta = 1.0
        lam = (lambda r: 1.0 / smin(r)) if method.minimising \
            else (lambda r: 1.0 / (th * (1.0 - sym_bound(r))))
    return gc.BoundData(lam=lam, theta=theta, omega=gc.LipschitzModulus(0.2), R=R,
                        nu=nu, method=method)


def _ref_scalar_quad(x0, R):
    fprime_min = lambda r: 1.0 - 0.1 * (abs(x0) + min(r, R))
    fprime_max = lambda r: 1.0 + 0.1 * (abs(x0) + min(r, R))

    def resolve(method):
        th = method.effective_vartheta
        power = 2 if method.uses_adjoint else 1
        theta = fprime_max if method.uses_adjoint else 1.0
        scale = 1.0 if method.minimising else 1.0 / th
        return gc.BoundData(lam=lambda r: scale / fprime_min(r) ** power,
                            theta=theta, omega=gc.LipschitzModulus(0.1), R=R,
                            nu=1.0, method=method)
    return resolve


def _family_rule_cases():
    for m in (1, 2, 3, 0.3):
        p = gc.linear_spd(m, 4.0, 3)
        yield f"linear_spd-m{m}", p, _ref_linear(m, 4.0, p.R), False
    p = gc.identity(3)
    yield "identity", p, _ref_identity(p.R), False
    yield "quad2d", gc.quad2d(), _ref_quad2d, True
    for c, x0 in ((0.1, 0.0), (0.25, 1.5)):
        yield f"scalar_quad-c{c}-x{x0}", gc.scalar_quad(c, x0), _ref_scalar_quad(x0, 5.0), True


@pytest.mark.parametrize("case", list(_family_rule_cases()), ids=lambda case: case[0])
@pytest.mark.parametrize("vartheta", [1.0, 0.8, 1.25, 2.0])
@pytest.mark.parametrize("family", gc.HILBERT_FAMILIES)
def test_family_rule_matches_the_per_problem_resolvers(case, vartheta, family):
    # equal bit for bit, except the relaxed lam of the r-dependent bounds:
    # (1/x)/vartheta in place of 1/(vartheta x), 2 ulp apart at most, and
    # equal where vartheta is a power of 2
    _, p, reference, r_dependent = case
    method = gc.MethodSpec(family, vartheta)
    got = p.certified_bounds.bound_data(method, 1.0)
    want = reference(method)
    assert (got.R, got.method) == (want.R, want.method) and got.method is method
    for r in (0.0, 0.05, 0.3 * p.R, 0.5 * p.R, p.R):
        assert got.omega.constant(r) == want.omega.constant(r)
        assert got.nu_at(r) == want.nu_at(r)
        assert got.theta_at(r) == want.theta_at(r)
        lam, lam_ref = got.lam_at(r), want.lam_at(r)
        if r_dependent and method.effective_vartheta not in (1.0, 2.0):
            assert abs(lam - lam_ref) <= 2.0 * math.ulp(lam_ref)
        else:
            assert lam == lam_ref


def test_identity_is_the_unit_spectrum_linear_spd():
    b = [0.5, -2.0, 3.0]
    p = gc.identity(3, b=b)
    assert (p.name, p.params, p.R) == ("identity", {"dim": 3}, 2.0 * np.linalg.norm(b) + 1.0)
    np.testing.assert_array_equal(p.x0, np.zeros(3))
    np.testing.assert_array_equal(p.known_solution, b)
    for x in (np.zeros(3), np.array([1.0, -4.0, 0.25])):
        np.testing.assert_array_equal(p.f(x), x - np.asarray(b))
        np.testing.assert_array_equal(p.jacobian(x), np.eye(3))
    # the bounds keep the problem's own name in the error they raise
    with pytest.raises(ArgumentError, match="certified bounds for 'identity'"):
        p.certified_bounds.bound_data(gc.MethodSpec(gc.BANACH_MIN_RESIDUAL), 3.0)
