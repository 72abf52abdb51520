"""Built-in test problems with analytic Jacobians and auditable bound data.

Each problem ships the ingredients the rest of the package consumes: the
map f, its Jacobian, a center x0 and working-ball radius R, and (where a
closed-form derivation exists) certified bounds as data, one set per
operator T = I or f'^T, from which ``CertifiedBounds.bound_data`` picks a
step family's.  Each derivation is in its ``note``, which ``list-problems``
prints, so the certificates are auditable rather than magic.

Every ``jacobian`` takes one point, shape (n,), and returns J(x), shape
(n, n).  Every shipped problem also supplies the two operator actions
``jvp(X, H)`` and ``vjp(X, H)``, which return the rows J(x) h and J(x)^T h
for the rows h of H, shape (m, n), without forming J: X is one point, shape
(n,), applied to every row, or a stack of m points, shape (m, n), one per
row.  The estimator reads its ratios from these images; the dense Jacobian
serves where a matrix norm is needed and in the solver's step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import ArgumentError, AssumptionError, ConvergenceError
from .majorant import BoundData, LipschitzModulus
from .methods import ALTMAN_STEEPEST_DESCENT, MIN_RESIDUAL, MethodSpec

_SQRT2 = math.sqrt(2.0)


class OperatorBounds(NamedTuple):
    """The closed-form bounds of one operator T, each a constant or a function of r.

    ``lam_min`` bounds the minimising step scalar, ``lam_relaxed`` the
    relaxed one at vartheta = 1.
    """

    nu: float | Callable[[float], float]
    theta: float | Callable[[float], float]
    lam_min: float | Callable[[float], float]
    lam_relaxed: float | Callable[[float], float]


@dataclass(frozen=True)
class CertifiedBounds:
    """Closed-form bounds per operator T, in Euclidean geometry; ``note`` holds the derivation.

    ``t_identity`` serves the families with T = I, ``t_adjoint`` those with T = f'^T.
    """

    t_identity: OperatorBounds
    t_adjoint: OperatorBounds
    R: float
    omega: LipschitzModulus
    name: str
    note: str

    def bound_data(self, method: MethodSpec, sigma: float = 1.0) -> BoundData:
        """The bounds of ``method``'s step family: its operator's, with lam_relaxed / vartheta."""
        if sigma != 1.0:
            raise ArgumentError(
                f"certified bounds for {self.name!r} are derived for Euclidean geometry "
                f"(sigma=1); got sigma={sigma}. Use estimated bounds for p > 2.")
        op = self.t_adjoint if method.uses_adjoint else self.t_identity
        th = method.vartheta
        if method.minimising:
            lam = op.lam_min
        elif callable(op.lam_relaxed):
            lam = lambda r, _lam=op.lam_relaxed: _lam(r) / th
        else:
            lam = op.lam_relaxed / th
        return BoundData(lam=lam, theta=op.theta, omega=self.omega, R=self.R, nu=op.nu,
                         method=method)


@dataclass(frozen=True)
class Problem:
    name: str
    f: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    R: float
    known_solution: np.ndarray | None = None
    certified_bounds: CertifiedBounds | None = None
    params: dict = field(default_factory=dict)
    jvp: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    vjp: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not 0.0 < self.R < math.inf:
            raise ArgumentError(f"problem radius R={self.R} must be positive and finite")


def _antieigenvalues(m: float, M: float) -> tuple[float, float]:
    """nu of an SPD operator with spectrum in [m, M], and of its square (adjoint families)."""
    return 2.0 * math.sqrt(m * M) / (m + M), 2.0 * m * M / (m * m + M * M)


def _affine(A: np.ndarray) -> dict:
    """The Jacobian and operator actions of an affine map with linear part A."""
    return dict(jacobian=lambda x, _A=A: _A.copy(),
                jvp=lambda X, H, _A=A: H @ _A.T,
                vjp=lambda X, H, _A=A: H @ _A)


def _linear_ball_radius(m: float, M: float, a: float, dist_to_solution: float) -> float:
    # large enough that every certifiable vartheta=1 family admits a
    # feasible radius: R >= 2 * lam*theta*a/(1-mu) over those families
    nu_id, nu_adj = _antieigenvalues(m, M)
    minimising, relaxed = MethodSpec(MIN_RESIDUAL), MethodSpec(ALTMAN_STEEPEST_DESCENT)
    reqs = [dist_to_solution, 1.0]
    try:
        reqs.append((1.0 / m) * a / (1.0 - minimising.mu(nu_id, 1.0)))
        reqs.append((M / m**2) * a / (1.0 - minimising.mu(nu_adj, 1.0)))
    except ZeroDivisionError:
        raise ArgumentError(f"spread M/m = {M / m:g} too wide: 1 - mu rounds to 0") from None
    for nu, lam_theta in ((nu_id, 1.0 / m), (nu_adj, M / m**2)):
        try:
            mu = relaxed.mu(nu, 1.0)
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
    if R is None:
        a = float(np.linalg.norm(A @ x0 - b))
        R = _linear_ball_radius(m, M, max(a, 1e-12), float(np.linalg.norm(x0 - x_star)))
    nu_id, nu_adj = _antieigenvalues(m, M)
    return Problem(
        name="linear_spd", f=lambda x, _A=A, _b=b: _A @ x - _b,
        **_affine(A),
        x0=x0, R=float(R), known_solution=x_star,
        certified_bounds=CertifiedBounds(
            t_identity=OperatorBounds(nu_id, 1.0, 1.0 / m, 1.0 / m),
            t_adjoint=OperatorBounds(nu_adj, M, 1.0 / (m * m), 1.0 / (m * m)),
            R=float(R), omega=LipschitzModulus(0.0), name="linear_spd",
            note=(f"exact constants for a symmetric positive definite operator "
                  f"with spectrum in [{m:g}, {M:g}]: nu is the antieigenvalue "
                  f"2*sqrt(mM)/(m+M) (squared spectrum for adjoint-based "
                  f"families), lam the extreme-eigenvalue step bound, omega = 0")),
        params={"m": m, "M": M, "dim": dim, "rotate": rotate, "seed": seed})


def identity(dim: int = 3, b=None, R: float | None = None) -> Problem:
    """f(x) = x - b: ``linear_spd`` with spectrum {1}, solved in one exact step by every family."""
    if dim < 1:
        raise ArgumentError("dim must be >= 1")
    b = np.arange(1.0, dim + 1.0) if b is None else np.asarray(b, dtype=float)
    if b.shape != (dim,):
        raise ArgumentError("b must have length dim")
    R = 2.0 * float(np.linalg.norm(b)) + 1.0 if R is None else R
    p = linear_spd(1.0, 1.0, dim, b=b, x0=np.zeros(dim), R=R)
    return replace(p, name="identity", params={"dim": dim},
                   certified_bounds=replace(p.certified_bounds, name="identity"))


def quad2d() -> Problem:
    """f(x) = (x1 - 0.1 x2^2, x2 - 0.1 x1^2) around x0 = (0.5, 0.5), R = 1.

    The Jacobian is I minus a matrix with zero diagonal whose symmetric
    part has norm 0.1*|x1+x2| and skew part 0.1*|x1-x2|; over the ball of
    radius r this gives the bound functions below.  The Jacobian varies
    0.2-Lipschitz-continuously in the spectral norm, sharply.
    """
    x0 = np.array([0.5, 0.5])
    R = 1.0

    def sym_bound(r):  # bound on the symmetric-part norm over the r-ball
        return 0.1 * (1.0 + _SQRT2 * min(r, R))

    def skew_bound(r):
        return 0.1 * _SQRT2 * min(r, R)

    def smin(r):
        return 1.0 - sym_bound(r) - skew_bound(r)

    def smax(r):
        return 1.0 + sym_bound(r) + skew_bound(r)

    def nu_id(r):
        s, k = sym_bound(r), skew_bound(r)
        return 1.0 / (1.0 / math.sqrt(1.0 - s * s) + k / (1.0 - s))

    def lam_adj(r):
        return 1.0 / smin(r) ** 2

    # J h = h - 0.2 (x1 h1, x0 h0) and J^T h = h - 0.2 (x0 h1, x1 h0)
    return Problem(
        name="quad2d", f=lambda x: np.array([x[0] - 0.1 * x[1] ** 2, x[1] - 0.1 * x[0] ** 2]),
        jacobian=lambda x: np.array([[1.0, -0.2 * x[1]], [-0.2 * x[0], 1.0]]),
        jvp=lambda X, H: H - 0.2 * X[..., ::-1] * H[:, ::-1],
        vjp=lambda X, H: H - 0.2 * X * H[:, ::-1],
        x0=x0, R=R, known_solution=np.zeros(2),
        certified_bounds=CertifiedBounds(
            t_identity=OperatorBounds(nu_id, 1.0, lambda r: 1.0 / smin(r),
                                      lambda r: 1.0 / (1.0 - sym_bound(r))),
            t_adjoint=OperatorBounds(lambda r: (smin(r) / smax(r)) ** 2, smax,
                                     lam_adj, lam_adj),
            R=R, omega=LipschitzModulus(0.2), name="quad2d",
            note=("perturbation bounds for I minus a zero-diagonal matrix: "
                  "symmetric part <= 0.1*(1+sqrt(2)r), skew part <= "
                  "0.1*sqrt(2)r over the r-ball; Jacobian Lipschitz "
                  "constant 0.2 (sharp along coordinate axes)")),
        params={})


def scalar_quad(c: float = 0.1, x0: float = 0.0, R: float = 5.0) -> Problem:
    """Scalar f(x) = x - 0.05 x^2 - c; the derivative stays in [1-0.1(|x0|+r), ...]."""
    if not (abs(x0) + R < 10.0):
        raise ArgumentError("ball must stay where f' = 1 - 0.1x is positive")
    disc = 1.0 - 0.2 * c
    if disc <= 0.0:
        raise ArgumentError("no real solution for this c")
    x_star = 2.0 * c / (1.0 + math.sqrt(disc))  # the smaller root, free of cancellation

    def fprime_min(r):
        return 1.0 - 0.1 * (abs(x0) + min(r, R))

    def fprime_max(r):
        return 1.0 + 0.1 * (abs(x0) + min(r, R))

    def lam_id(r):
        return 1.0 / fprime_min(r)

    def lam_adj(r):
        return 1.0 / fprime_min(r) ** 2

    return Problem(
        name="scalar_quad", f=lambda x, _c=c: np.array([x[0] - 0.05 * x[0] ** 2 - _c]),
        jacobian=lambda x: np.array([[1.0 - 0.1 * x[0]]]),
        jvp=lambda X, H: (1.0 - 0.1 * X) * H,
        vjp=lambda X, H: (1.0 - 0.1 * X) * H,
        x0=np.array([float(x0)]), R=float(R),
        known_solution=np.array([x_star]),
        certified_bounds=CertifiedBounds(
            t_identity=OperatorBounds(1.0, 1.0, lam_id, lam_id),
            t_adjoint=OperatorBounds(1.0, fprime_max, lam_adj, lam_adj),
            R=R, omega=LipschitzModulus(0.1), name="scalar_quad",
            note=("scalar positive derivative: nu = 1 exactly, step bound "
                  "1/min f' over the ball, |f''| = 0.1 everywhere")),
        params={"c": c})


def chandrasekhar(c: float = 0.5, n: int = 20, R: float = 2.0) -> Problem:
    """Discretized H-equation with the composite midpoint rule.

    f(H)_i = H_i - (1 - sum_j K_ij H_j)^(-1) with
    K_ij = (c/2) * w_j * mu_i / (mu_i + mu_j), mu_i the midpoint nodes.
    No closed-form bound functions are shipped; use estimated bounds.

    ``R`` is the radius at n = 20, and the ball radius is R * sqrt(n / 20):
    one radius in the weighted norm ||v|| / sqrt(n) at every n.  R and a
    certificate's r stay unweighted (Euclidean in Euclidean space), and the
    weight is the Euclidean one in every space, as the problem does not
    know p: mesh independence in l_p is out of scope.
    """
    if not (0.0 < c < 1.0):
        raise ArgumentError("parameter c must lie in (0, 1)")
    if n < 2:
        raise ArgumentError("n must be >= 2")
    if not 0.0 < float(R) < math.inf:  # the configured R, not the scaled one Problem checks
        raise ArgumentError(f"problem radius R={float(R)} must be positive and finite")
    mu = (np.arange(n) + 0.5) / n
    K = 0.5 * c * (1.0 / n) * mu[:, None] / (mu[:, None] + mu[None, :])

    def f(H, _K=K):
        g = _K @ H
        with np.errstate(divide="ignore", invalid="ignore"):
            return H - 1.0 / (1.0 - g)

    def jacobian(H, _K=K, _I=np.eye(n)):
        g = _K @ H
        with np.errstate(divide="ignore", invalid="ignore"):
            s = 1.0 / (1.0 - g)
        J = (s * s)[:, None] * _K
        return np.subtract(_I, J, out=J)

    # J = I - diag(s^2) K with s = 1 / (1 - K x), so J h = h - s^2 * (K h) and
    # J^T h = h - K^T (s^2 * h): O(n^2) a row, and no n x n array.  X K^T is
    # K x for one point and a row K x_i per point of a stack.  No errstate (it
    # costs more than the arithmetic at small n): where (K x)_i = 1 numpy
    # warns, and the estimator refuses the non-finite rows.
    def jvp(X, H, _K=K):
        s = 1.0 / (1.0 - X @ _K.T)
        return H - (s * s) * (H @ _K.T)

    def vjp(X, H, _K=K):
        s = 1.0 / (1.0 - X @ _K.T)
        return H - ((s * s) * H) @ _K

    return Problem(
        name="chandrasekhar", f=f, jacobian=jacobian, jvp=jvp, vjp=vjp,
        x0=np.ones(n), R=float(R) * math.sqrt(n / 20), known_solution=None,
        certified_bounds=None, params={"c": c, "n": n})


def indefinite2d() -> Problem:
    """f(x) = (x1, -x2): the pairing (h, f'h) changes sign, so no step family applies."""
    A = np.diag([1.0, -1.0])
    return Problem(
        name="indefinite2d", f=lambda x, _A=A: _A @ x,
        **_affine(A),
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

def newton_solve(problem: Problem) -> np.ndarray:
    """Damped Newton from x0 to a residual of 1e-13; an oracle, never a certified method."""
    x = np.array(problem.x0, dtype=float)
    for _ in range(100):
        fx = np.asarray(problem.f(x), dtype=float)
        res = float(np.linalg.norm(fx))
        if res <= 1e-13:
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
    raise ConvergenceError("Newton oracle did not reach 1e-13 in 100 steps")


@dataclass
class JacobianReport:
    """Deviations of the analytic Jacobian and of the operator actions.

    ``max_action_dev`` is None for a problem without ``jvp`` and ``vjp``.
    """

    passed: bool
    max_rel_dev: float
    tol: float
    worst_point: np.ndarray | None = None
    worst_entry: tuple[int, int] | None = None
    max_action_dev: float | None = None


# jvp and vjp differ from the dense products by rounding alone
_ACTION_TOL = 1e-13
_FD_POINTS = 10  # seeded ball points of the finite-difference check
_FD_TOL = 1e-6  # its tolerance on the largest relative deviation


def _action_dev(got, expected: np.ndarray) -> float:
    """Largest entry of |got - expected|, relative to the largest of |expected|."""
    got = np.asarray(got, dtype=float)
    if got.shape != expected.shape:
        return math.inf
    scale = max(float(np.abs(expected).max()), float(np.finfo(float).tiny))
    return float(np.abs(got - expected).max()) / scale


def validate_jacobian(problem: Problem, seed: int = 0) -> JacobianReport:
    """Compare the analytic Jacobian against central differences at seeded ball points.

    Where the problem supplies ``jvp`` and ``vjp``, also compare them with
    ``H @ J(x).T`` and ``H @ J(x)`` for seeded rows H, at each point alone
    and at the stack of all points with one row per point, to 1e-13
    relative to the largest entry of the product.
    """
    rng = np.random.default_rng(seed)
    dim = len(problem.x0)
    eps3 = float(np.finfo(float).eps) ** (1.0 / 3.0)
    worst = 0.0
    worst_point = None
    worst_entry = None
    points, jacobians = [], []
    for _ in range(_FD_POINTS):
        d = rng.standard_normal(dim)
        d /= np.linalg.norm(d)
        x = np.asarray(problem.x0, float) + problem.R * rng.random() ** (1.0 / dim) * d
        J = np.asarray(problem.jacobian(x), dtype=float)
        points.append(x)
        jacobians.append(J)
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
    action_dev = None
    if problem.jvp is not None and problem.vjp is not None:
        rng_h = np.random.default_rng([seed, 1])  # leaves the points those of the check above
        X, Js = np.array(points), np.array(jacobians)
        H = rng_h.standard_normal((_FD_POINTS, dim))
        devs = [_action_dev(problem.jvp(X, H), np.einsum("kij,kj->ki", Js, H)),
                _action_dev(problem.vjp(X, H), np.einsum("kji,kj->ki", Js, H))]
        for x, J in zip(points, jacobians):
            H = rng_h.standard_normal((4, dim))
            devs += [_action_dev(problem.jvp(x, H), H @ J.T),
                     _action_dev(problem.vjp(x, H), H @ J)]
        action_dev = float(np.max(devs))  # NaN, from a non-finite action, fails the check
    passed = worst <= _FD_TOL and (action_dev is None or action_dev <= _ACTION_TOL)
    return JacobianReport(passed=passed, max_rel_dev=worst, tol=_FD_TOL,
                          worst_point=worst_point, worst_entry=worst_entry,
                          max_action_dev=action_dev)
