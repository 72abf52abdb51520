import dataclasses
import math

import numpy as np
import pytest

import gradcert as gc
from gradcert import estimator
from gradcert.errors import ArgumentError

EUC = gc.euclidean()


def test_registry_contains_required_problems():
    names = gc.problem_names()
    for required in ("identity", "linear_spd", "quad2d", "scalar_quad",
                     "chandrasekhar", "indefinite2d"):
        assert required in names
    assert len(gc.registry()) == len(names)


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
    x = gc.newton_solve(gc.quad2d(), res_tol=1e-13)
    np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-12)


def test_newton_oracle_linear_one_shot():
    p = gc.linear_spd(1, 4, 3, b=[1.0, 2.0, 3.0])
    x = gc.newton_solve(p, res_tol=1e-13)
    np.testing.assert_allclose(x, p.known_solution, atol=1e-12)


def test_chandrasekhar_converges_and_matches_newton():
    p = gc.chandrasekhar(0.5, 20)
    trace = gc.solve(p, gc.MethodSpec(gc.STEEPEST_DESCENT), EUC,
                     gc.StopRule(res_tol=1e-10, max_iter=200))
    assert trace.termination == "converged"
    assert trace.n_steps < 200
    x_star = gc.newton_solve(p, res_tol=1e-13)
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
    D = rng.standard_normal((k, p.dim))
    D /= np.linalg.norm(D, axis=1)[:, None]
    return p.x0 + p.R * rng.random((k, 1)) ** (1.0 / p.dim) * D


STACK_PROBLEMS = ([(p.name, p) for p in gc.registry()]
                  + [(f"chandrasekhar-n{n}", gc.chandrasekhar(0.5, n)) for n in (2, 6, 20, 80)])


@pytest.mark.parametrize("p", [p for _, p in STACK_PROBLEMS],
                         ids=[name for name, _ in STACK_PROBLEMS])
def test_stacked_jacobian_equals_one_point_jacobians(p):
    # the estimator's polish takes the Jacobians of its point candidates in
    # stacks; each one must be the one-point Jacobian, sign bits included
    for k, seed in ((1, 0), (8, 1), (13, 2)):
        X = _ball_stack(p, k, seed)
        J = p.jacobian(X)
        assert J.shape == (k, p.dim, p.dim)
        for i in range(k):
            assert J[i].tobytes() == np.asarray(p.jacobian(X[i]), dtype=float).tobytes()


@pytest.mark.parametrize("n", [2, 6, 20, 80])
def test_chandrasekhar_jacobian_is_identity_minus_scaled_kernel(n):
    # J = I - diag(s^2) K with s = 1 / (1 - K H), bit for bit, from the
    # formula written out; -(s_i^2 K_ij) + 1 on the diagonal rounds as
    # 1 - s_i^2 K_ij, and off it K_ij > 0 keeps the sign of 0 - s_i^2 K_ij
    c = 0.5
    p = gc.chandrasekhar(c, n)
    mu = (np.arange(n) + 0.5) / n
    K = 0.5 * c * (1.0 / n) * mu[:, None] / (mu[:, None] + mu[None, :])
    for x in _ball_stack(p, 8, n):
        s = 1.0 / (1.0 - K @ x)
        assert p.jacobian(x).tobytes() == (np.eye(n) - (s * s)[:, None] * K).tobytes()


def test_a_jacobian_that_ignores_the_stack_is_refused():
    p = gc.linear_spd(1, 4, 3)
    A = p.jacobian(p.x0)
    flat = dataclasses.replace(p, jacobian=lambda x: A.copy())
    X = _ball_stack(p, 4, 3)
    with pytest.raises(ArgumentError, match=r"\(4, 3, 3\)"):
        estimator._jacobian(flat, X)
    # the one-point call still works; the polish's stacked call refuses it
    assert estimator._jacobian(flat, X[0]).tobytes() == A.tobytes()
    plan = gc.SamplePlan(seed=0, n_points=4, n_dirs=8)
    method = gc.MethodSpec(gc.MIN_RESIDUAL)
    gc.sample_estimates(flat, method, EUC, 1.0, dataclasses.replace(plan, refine=False))
    with pytest.raises(ArgumentError, match="jacobian of problem 'linear_spd'"):
        gc.sample_estimates(flat, method, EUC, 1.0, plan)


def test_known_solutions_satisfy_equation():
    for p in gc.registry():
        if p.known_solution is None:
            continue
        scale = max(1.0, float(np.linalg.norm(p.f(p.x0))))
        assert np.linalg.norm(p.f(p.known_solution)) <= 1e-12 * scale
