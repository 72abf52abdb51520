"""Built-in test problems with analytic Jacobians and auditable bound data.

Each problem ships the ingredients the rest of the package consumes: the
map f, its Jacobian, a center x0 and working-ball radius R, and (where a
closed-form derivation exists) certified bound functions per step family.
The derivations are recorded in each problem's bounds note so the
certificates are auditable rather than magic.

Every ``jacobian`` takes one point, shape (n,), and returns J(x), shape
(n, n), or a stack of k points, shape (k, n), and returns the (k, n, n)
stack of their Jacobians, each one bit for bit the one-point result.  The
estimator's polish evaluates its point candidates in such stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ArgumentError, AssumptionError, ConvergenceError
from .majorant import BoundData, LipschitzModulus, mu_altman_family, mu_min_family
from .methods import MethodSpec

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CertifiedBounds:
    """Closed-form bound functions per step family; each ``BoundData.note`` holds the derivation."""

    resolver: Callable[[MethodSpec, float], BoundData]

    def bound_data(self, method: MethodSpec, sigma: float = 1.0) -> BoundData:
        return self.resolver(method, sigma)


@dataclass(frozen=True)
class Problem:
    name: str
    dim: int
    f: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    R: float
    known_solution: np.ndarray | None = None
    certified_bounds: CertifiedBounds | None = None
    params: dict = field(default_factory=dict)


def _require_euclidean_sigma(sigma: float, name: str) -> None:
    if sigma != 1.0:
        raise ArgumentError(
            f"certified bounds for {name!r} are derived for Euclidean geometry "
            f"(sigma=1); got sigma={sigma}. Use estimated bounds for p > 2.")


def _antieigenvalues(m: float, M: float) -> tuple[float, float]:
    """nu of an SPD operator with spectrum in [m, M], and of its square (adjoint families)."""
    return 2.0 * math.sqrt(m * M) / (m + M), 2.0 * m * M / (m * m + M * M)


def _constant_jacobian(A: np.ndarray):
    """The Jacobian of an affine map: a copy of A per point of an (n,) point or (k, n) stack."""
    def jacobian(x, _A=A):
        return _A.copy() if np.ndim(x) == 1 else np.repeat(_A[None], len(x), axis=0)
    return jacobian


def _linear_bound_resolver(m: float, M: float, R: float, name: str):
    nu_id, nu_adj = _antieigenvalues(m, M)

    def resolve(method: MethodSpec, sigma: float) -> BoundData:
        _require_euclidean_sigma(sigma, name)
        th = method.effective_vartheta
        if method.uses_adjoint:
            nu, theta, lam_base = nu_adj, M, 1.0 / (m * m)
        else:
            nu, theta, lam_base = nu_id, 1.0, 1.0 / m
        lam = lam_base if method.mu_family == "min" else lam_base / th
        return BoundData(
            lam=lam, theta=theta, omega=LipschitzModulus(0.0), R=R,
            nu=nu, step_family=method.mu_family, vartheta=th,
            note=(f"exact constants for a symmetric positive definite operator "
                  f"with spectrum in [{m:g}, {M:g}]: nu is the antieigenvalue "
                  f"2*sqrt(mM)/(m+M) (squared spectrum for adjoint-based "
                  f"families), lam the extreme-eigenvalue step bound, omega = 0"))
    return resolve


def _linear_ball_radius(m: float, M: float, a: float, dist_to_solution: float) -> float:
    # large enough that every certifiable vartheta=1 family admits a
    # feasible radius: R >= 2 * lam*theta*a/(1-mu) over those families
    nu_id, nu_adj = _antieigenvalues(m, M)
    reqs = [dist_to_solution, 1.0]
    reqs.append((1.0 / m) * a / (1.0 - mu_min_family(nu_id, 1.0)))
    reqs.append((M / m**2) * a / (1.0 - mu_min_family(nu_adj, 1.0)))
    for nu, lam_theta in ((nu_id, 1.0 / m), (nu_adj, M / m**2)):
        try:
            mu = mu_altman_family(nu, 1.0, 1.0)
            reqs.append(lam_theta * a / (1.0 - mu))
        except AssumptionError:
            pass
    return 2.0 * max(reqs)


def linear_spd(m: float = 1.0, M: float = 4.0, dim: int = 2, b=None, x0=None,
               rotate: bool = False, seed: int = 0, R: float | None = None) -> Problem:
    """f(x) = A x - b with symmetric positive definite A, spectrum in [m, M]."""
    if not (0.0 < m <= M):
        raise ArgumentError("need 0 < m <= M")
    if dim < 1:
        raise ArgumentError("dim must be >= 1")
    diag = np.linspace(m, M, dim) if dim > 1 else np.array([m])
    if rotate:
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        A = Q @ np.diag(diag) @ Q.T
        A = 0.5 * (A + A.T)
    else:
        A = np.diag(diag)
    b = np.zeros(dim) if b is None else np.asarray(b, dtype=float)
    x0 = np.ones(dim) if x0 is None else np.asarray(x0, dtype=float)
    if b.shape != (dim,) or x0.shape != (dim,):
        raise ArgumentError("b and x0 must have length dim")
    x_star = np.linalg.solve(A, b)
    a = float(np.linalg.norm(A @ x0 - b))
    if R is None:
        R = _linear_ball_radius(m, M, max(a, 1e-12), float(np.linalg.norm(x0 - x_star)))
    name = "linear_spd"
    return Problem(
        name=name, dim=dim,
        f=lambda x, _A=A, _b=b: _A @ x - _b,
        jacobian=_constant_jacobian(A),
        x0=x0, R=float(R), known_solution=x_star,
        certified_bounds=CertifiedBounds(_linear_bound_resolver(m, M, float(R), name)),
        params={"m": m, "M": M, "dim": dim, "rotate": rotate, "seed": seed})


def identity(dim: int = 3, b=None, R: float | None = None) -> Problem:
    """f(x) = x - b: every step family solves it in one exact step."""
    if dim < 1:
        raise ArgumentError("dim must be >= 1")
    b = np.arange(1.0, dim + 1.0) if b is None else np.asarray(b, dtype=float)
    if b.shape != (dim,):
        raise ArgumentError("b must have length dim")
    if R is None:
        R = 2.0 * float(np.linalg.norm(b)) + 1.0
    name = "identity"

    def resolve(method: MethodSpec, sigma: float) -> BoundData:
        _require_euclidean_sigma(sigma, name)
        th = method.effective_vartheta
        lam = 1.0 if method.mu_family == "min" else 1.0 / th
        return BoundData(lam=lam, theta=1.0, omega=LipschitzModulus(0.0), R=R,
                         nu=1.0, step_family=method.mu_family, vartheta=th,
                         note="identity linearization: nu = 1, omega = 0")

    return Problem(
        name=name, dim=dim,
        f=lambda x, _b=b: x - _b,
        jacobian=_constant_jacobian(np.eye(dim)),
        x0=np.zeros(dim), R=float(R), known_solution=b.copy(),
        certified_bounds=CertifiedBounds(resolve),
        params={"dim": dim})


def quad2d() -> Problem:
    """f(x) = (x1 - 0.1 x2^2, x2 - 0.1 x1^2) around x0 = (0.5, 0.5), R = 1.

    The Jacobian is I minus a matrix with zero diagonal whose symmetric
    part has norm 0.1*|x1+x2| and skew part 0.1*|x1-x2|; over the ball of
    radius r this gives the bound functions below.  The Jacobian varies
    0.2-Lipschitz-continuously in the spectral norm, sharply.
    """
    x0 = np.array([0.5, 0.5])
    R = 1.0
    name = "quad2d"

    def sym_bound(r):  # bound on the symmetric-part norm over the r-ball
        return 0.1 * (1.0 + _SQRT2 * min(r, R))

    def skew_bound(r):
        return 0.1 * _SQRT2 * min(r, R)

    def resolve(method: MethodSpec, sigma: float) -> BoundData:
        _require_euclidean_sigma(sigma, name)
        th = method.effective_vartheta

        def smin(r):
            return 1.0 - sym_bound(r) - skew_bound(r)

        def smax(r):
            return 1.0 + sym_bound(r) + skew_bound(r)

        if method.uses_adjoint:
            nu = lambda r: (smin(r) / smax(r)) ** 2
            theta = smax
            lam = (lambda r: 1.0 / smin(r) ** 2) if method.mu_family == "min" \
                else (lambda r: 1.0 / (th * smin(r) ** 2))
        else:
            def nu(r):
                s, k = sym_bound(r), skew_bound(r)
                return 1.0 / (1.0 / math.sqrt(1.0 - s * s) + k / (1.0 - s))
            theta = 1.0
            lam = (lambda r: 1.0 / smin(r)) if method.mu_family == "min" \
                else (lambda r: 1.0 / (th * (1.0 - sym_bound(r))))
        return BoundData(
            lam=lam, theta=theta, omega=LipschitzModulus(0.2), R=R,
            nu=nu, step_family=method.mu_family, vartheta=th,
            note=("perturbation bounds for I minus a zero-diagonal matrix: "
                  "symmetric part <= 0.1*(1+sqrt(2)r), skew part <= "
                  "0.1*sqrt(2)r over the r-ball; Jacobian Lipschitz "
                  "constant 0.2 (sharp along coordinate axes)"))

    def jacobian(x):
        x = np.asarray(x, dtype=float)
        J = np.empty(x.shape[:-1] + (2, 2))
        J[..., 0, 0] = J[..., 1, 1] = 1.0
        J[..., 0, 1] = -0.2 * x[..., 1]
        J[..., 1, 0] = -0.2 * x[..., 0]
        return J

    return Problem(
        name=name, dim=2,
        f=lambda x: np.array([x[0] - 0.1 * x[1] ** 2, x[1] - 0.1 * x[0] ** 2]),
        jacobian=jacobian,
        x0=x0, R=R, known_solution=np.zeros(2),
        certified_bounds=CertifiedBounds(resolve),
        params={})


def scalar_quad(c: float = 0.1, x0: float = 0.0, R: float = 5.0) -> Problem:
    """Scalar f(x) = x - 0.05 x^2 - c; the derivative stays in [1-0.1(|x0|+r), ...]."""
    if not (abs(x0) + R < 10.0):
        raise ArgumentError("ball must stay where f' = 1 - 0.1x is positive")
    disc = 1.0 - 0.2 * c
    if disc <= 0.0:
        raise ArgumentError("no real solution for this c")
    x_star = (1.0 - math.sqrt(disc)) / 0.1
    name = "scalar_quad"

    def fprime_min(r):
        return 1.0 - 0.1 * (abs(x0) + min(r, R))

    def fprime_max(r):
        return 1.0 + 0.1 * (abs(x0) + min(r, R))

    def resolve(method: MethodSpec, sigma: float) -> BoundData:
        _require_euclidean_sigma(sigma, name)
        th = method.effective_vartheta
        power = 2 if method.uses_adjoint else 1
        theta = fprime_max if method.uses_adjoint else 1.0
        scale = 1.0 if method.mu_family == "min" else 1.0 / th
        return BoundData(
            lam=lambda r: scale / fprime_min(r) ** power,
            theta=theta, omega=LipschitzModulus(0.1), R=R,
            nu=1.0, step_family=method.mu_family, vartheta=th,
            note=("scalar positive derivative: nu = 1 exactly, step bound "
                  "1/min f' over the ball, |f''| = 0.1 everywhere"))

    return Problem(
        name=name, dim=1,
        f=lambda x, _c=c: np.array([x[0] - 0.05 * x[0] ** 2 - _c]),
        jacobian=lambda x: (1.0 - 0.1 * np.asarray(x, dtype=float)[..., :1])[..., None],
        x0=np.array([float(x0)]), R=float(R),
        known_solution=np.array([x_star]),
        certified_bounds=CertifiedBounds(resolve),
        params={"c": c})


def chandrasekhar(c: float = 0.5, n: int = 20, R: float = 2.0) -> Problem:
    """Discretized H-equation with the composite midpoint rule.

    f(H)_i = H_i - (1 - sum_j K_ij H_j)^(-1) with
    K_ij = (c/2) * w_j * mu_i / (mu_i + mu_j), mu_i the midpoint nodes.
    No closed-form bound functions are shipped; use estimated bounds.
    """
    if not (0.0 < c < 1.0):
        raise ArgumentError("parameter c must lie in (0, 1)")
    if n < 2:
        raise ArgumentError("n must be >= 2")
    mu = (np.arange(n) + 0.5) / n
    K = 0.5 * c * (1.0 / n) * mu[:, None] / (mu[:, None] + mu[None, :])

    def f(H, _K=K):
        g = _K @ H
        with np.errstate(divide="ignore", invalid="ignore"):
            return H - 1.0 / (1.0 - g)

    def jacobian(H, _K=K):
        # the stacked gemv rounds each point's K H as the 1-point product does
        g = (_K @ np.asarray(H, dtype=float)[..., None])[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = 1.0 / (1.0 - g)
        # I - diag(s^2) K without a pass over an identity: negate, then add 1
        # on the diagonal; the bits are those of the subtraction wherever
        # s_i^2 K_ij > 0, which K_ij > 0 gives inside the ball
        J = (-(s * s))[..., None] * _K
        J.reshape(-1, n * n)[:, ::n + 1] += 1.0
        return J

    return Problem(
        name="chandrasekhar", dim=n, f=f, jacobian=jacobian,
        x0=np.ones(n), R=float(R), known_solution=None,
        certified_bounds=None, params={"c": c, "n": n})


def indefinite2d() -> Problem:
    """f(x) = (x1, -x2): the pairing (h, f'h) changes sign, so no step family applies."""
    A = np.diag([1.0, -1.0])
    return Problem(
        name="indefinite2d", dim=2,
        f=lambda x, _A=A: _A @ x,
        jacobian=_constant_jacobian(A),
        x0=np.array([1.0, 1.0]), R=4.0, known_solution=np.zeros(2),
        certified_bounds=None, params={})


_BUILDERS: dict[str, Callable[..., Problem]] = {
    "identity": identity,
    "linear_spd": linear_spd,
    "quad2d": quad2d,
    "scalar_quad": scalar_quad,
    "chandrasekhar": chandrasekhar,
    "indefinite2d": indefinite2d,
}


def problem_names() -> list[str]:
    return sorted(_BUILDERS)


def make_problem(name: str, **params) -> Problem:
    """Build a registered problem by name; unknown names raise ArgumentError."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ArgumentError(
            f"unknown problem {name!r}; available: {', '.join(problem_names())}")
    try:
        return builder(**params)
    except TypeError as exc:
        raise ArgumentError(f"bad parameters for problem {name!r}: {exc}")


def registry() -> list[Problem]:
    """Default-parameter instance of every registered problem."""
    return [make_problem(name) for name in problem_names()]


# ---------------------------------------------------------------------------
# oracles and validation

def newton_solve(problem: Problem, x_start=None, res_tol: float = 1e-13,
                 max_iter: int = 100) -> np.ndarray:
    """Damped Newton reference solver; an oracle, never a certified method."""
    x = np.array(problem.x0 if x_start is None else x_start, dtype=float)
    for _ in range(max_iter):
        fx = np.asarray(problem.f(x), dtype=float)
        res = float(np.linalg.norm(fx))
        if res <= res_tol:
            return x
        try:
            step = np.linalg.solve(np.asarray(problem.jacobian(x), float), -fx)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"Newton oracle: singular Jacobian ({exc})")
        t = 1.0
        while t >= 1e-10:
            x_try = x + t * step
            f_try = np.asarray(problem.f(x_try), dtype=float)
            if np.all(np.isfinite(f_try)) and np.linalg.norm(f_try) < (1.0 - 0.25 * t) * res:
                x = x_try
                break
            t *= 0.5
        else:
            raise ConvergenceError("Newton oracle: line search failed")
    raise ConvergenceError(f"Newton oracle did not reach {res_tol} in {max_iter} steps")


@dataclass
class JacobianReport:
    passed: bool
    max_rel_dev: float
    tol: float
    worst_point: np.ndarray | None = None
    worst_entry: tuple[int, int] | None = None


def validate_jacobian(problem: Problem, seed: int = 0, n_points: int = 10,
                      tol: float = 1e-6) -> JacobianReport:
    """Compare the analytic Jacobian against central differences at seeded ball points."""
    rng = np.random.default_rng(seed)
    dim = problem.dim
    eps3 = float(np.finfo(float).eps) ** (1.0 / 3.0)
    worst = 0.0
    worst_point = None
    worst_entry = None
    for _ in range(n_points):
        d = rng.standard_normal(dim)
        d /= np.linalg.norm(d)
        x = np.asarray(problem.x0, float) + problem.R * rng.random() ** (1.0 / dim) * d
        J = np.asarray(problem.jacobian(x), dtype=float)
        h = eps3 * (1.0 + float(np.linalg.norm(x)))
        J_fd = np.empty_like(J)
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h
            J_fd[:, j] = (np.asarray(problem.f(x + e), float)
                          - np.asarray(problem.f(x - e), float)) / (2.0 * h)
        dev = np.abs(J_fd - J) / (1.0 + np.abs(J).max())
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        if dev[i, j] > worst:
            worst = float(dev[i, j])
            worst_point = x.copy()
            worst_entry = (int(i), int(j))
    return JacobianReport(passed=worst <= tol, max_rel_dev=worst, tol=tol,
                          worst_point=worst_point, worst_entry=worst_entry)
