"""Sampling-based estimation of the scalar bound functions.

The acuteness constant and step-size bound are defined as an inf/sup over
all ball points and unit directions; exact global optimization is out of
reach for a general nonlinear Jacobian, so these routines evaluate a
deterministic seeded sample (axes and diagonal directions are always
included so the classical extremizers of diagonal operators are hit
exactly) with optional local polishing.  The results are therefore
one-sided estimates: nu_tilde is an upper estimate of the true infimum
and lambda_tilde / the Lipschitz constant are lower estimates of the true
suprema.  Reports must label them as such; the relaxation verifier is the
backstop that catches an understated bound at run time.

Ratios read images, norms read matrices.  Every ratio reads only the
image B h of a direction h, with B = f'(x) f'(x)^T for adjoint families
and f'(x) otherwise, so one function ``images(X, H)`` built from the
problem's operator actions (``jvp``, and ``vjp`` for adjoint families)
images them all, and no Jacobian is formed for a ratio.  The dense
Jacobian serves only the matrix norms: theta and the Lipschitz pairs.
A problem without ``jvp`` and ``vjp`` is refused with ArgumentError.

``sample_estimates`` computes all of them in one pass.  It draws the ball
points and directions once, evaluates ``f`` and the Jacobian once per ball
point and once per extra axis point of the Lipschitz pairs, and then
polishes the worst acuteness ratio and the largest step-size ratio.  Both
ratios are scored by the polish's objectives, ``_AcuteRatio`` and
``_StepRatio``: at each ball point the sweep images the direction set by
one ``images`` call and scores both ratios from it, and images the unit
residual f(x)/||f(x)||, whose one value is both the trajectory ratio and
an acuteness candidate.  A non-finite Jacobian at a ball or axis point, or
image at a ball point or a polish candidate, raises ArgumentError, and so
does an image or residual whose norm overflows.  The ``Estimates`` record
holds the five values as Python floats; the ``estimate_*`` functions read
that record.

The polish is a coordinate descent that accepts the first improving
candidate in sweep order.  Directions and points follow one block rule:
each images call scores the next ``_POLISH_BLOCK`` candidates, and the
candidates after an accepted one are rebuilt from the new direction or
point and scored again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import gt, lt

import numpy as np

from .errors import ArgumentError, AssumptionError
from .majorant import BoundData, LipschitzModulus
from .methods import MethodSpec
# bench/tracer.py wraps norm, norm_rows and semiscalar_rows as globals of this module
from .spaces import SpaceGeometry, norm, norm_duality_rows, norm_rows, semiscalar_rows

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SamplePlan:
    """Seeded sampling budget: ball points, directions per point, polishing."""

    seed: int = 0
    n_points: int = 32
    n_dirs: int = 64
    refine: bool = True

    def __post_init__(self):
        if self.n_points < 1 or self.n_dirs < 1:
            raise ArgumentError("n_points and n_dirs must be >= 1")
        if self.seed < 0:
            raise ArgumentError(f"seed must be >= 0, got {self.seed}")


_NO_DISTINCT_PAIR = "need at least two distinct sample points"


@dataclass(frozen=True)
class Estimates:
    """The sampled bound functions of one pass.

    ``nu_trajectory`` is None when f vanishes at every sampled point, and
    ``omega_lipschitz`` is None when no two sampled points are distinct;
    ``trajectory()`` and ``lipschitz()`` raise ArgumentError for those.
    """

    nu_tilde: float
    lambda_tilde: float
    nu_trajectory: float | None
    theta: float
    omega_lipschitz: float | None

    def trajectory(self) -> float:
        if self.nu_trajectory is None:
            raise ArgumentError("all sampled points have f(x) = 0; estimate undefined")
        return self.nu_trajectory

    def lipschitz(self) -> float:
        if self.omega_lipschitz is None:
            raise ArgumentError(_NO_DISTINCT_PAIR)
        return self.omega_lipschitz


def _check_radius(problem, r: float) -> None:
    if not r >= 0.0:
        raise ArgumentError(f"r={r} must be a nonnegative number")
    if r > problem.R * (1.0 + 1e-9):
        raise ArgumentError(f"r={r} exceeds problem radius R={problem.R}")


def _ball_points(center: np.ndarray, r: float, n: int, rng, space) -> np.ndarray:
    pts = [center.copy()]
    dim = len(center)
    if r > 0.0:
        eye = np.eye(dim)
        for i in range(dim):
            pts.append(center + r * eye[i])
            pts.append(center - r * eye[i])
        G = rng.standard_normal((n, dim))
        lens = norm_rows(space, G)
        keep = lens > 0
        G = G[keep] / lens[keep, None]
        rho = r * rng.random(len(G)) ** (1.0 / dim)
        pts.extend(center + rho[:, None] * G)
    return np.asarray(pts)


def _direction_set(dim: int, n: int, rng, space) -> np.ndarray:
    dirs = [np.eye(dim)[i] for i in range(dim)]
    if 2 <= dim <= 12:
        eye = np.eye(dim)
        for i in range(dim):
            for j in range(i + 1, dim):
                dirs.append(eye[i] + eye[j])
                dirs.append(eye[i] - eye[j])
    if dim == 2:
        ang = np.linspace(0.0, np.pi, max(8, n), endpoint=False)
        dirs.extend(np.stack([np.cos(ang), np.sin(ang)], axis=1))
    else:
        G = rng.standard_normal((n, dim))
        dirs.extend(G[np.linalg.norm(G, axis=1) > 0])
    H = np.asarray(dirs)
    return H / norm_rows(space, H)[:, None]


def _jacobian(problem, x: np.ndarray) -> np.ndarray:
    """The dense J(x) at one point x, for the matrix norms."""
    return np.asarray(problem.jacobian(x), dtype=float)


def _image_map(problem, method: MethodSpec):
    """``images(X, H)``: the rows B h for the rows h of H, B = f'(x) f'(x)^T or f'(x).

    X is one point, applied to every row of H, or a stack of one point per
    row.  Adjoint families take jvp(X, vjp(X, H)), the others jvp(X, H).
    """
    jvp, vjp = problem.jvp, problem.vjp
    if jvp is None or vjp is None:
        raise ArgumentError(
            f"problem {problem.name!r} supplies no jvp/vjp operator actions; "
            "the estimator images its directions by them")

    adjoint = method.uses_adjoint

    def images(X, H):
        W = np.asarray(jvp(X, vjp(X, H)) if adjoint else jvp(X, H), dtype=float)
        if W.shape != H.shape:
            raise ArgumentError(
                f"operator actions of problem {problem.name!r} return shape {W.shape} "
                f"for directions of shape {H.shape}")
        return W
    return images


# Both objectives score rows of directions H against their images W from
# ``images``; ``terms`` is ``norm_duality_rows(space, H)``, the parts of a
# ratio that depend on the directions alone, so one pass serves every
# operator that H is scored against.

class _AcuteRatio:
    """The acuteness ratio [h, w] / (||h|| ||w||), to be minimized."""

    minimize = True

    def __init__(self, space):
        self.space = space

    def score(self, H, W, terms):
        """The ratio of each row h of H and its image row w in W."""
        nh, duality = terms
        with np.errstate(over="ignore"):
            den = nh * norm_rows(self.space, W)
        if np.isinf(den).any():  # W is finite: its norm, or that times ||h||, overflowed
            raise ArgumentError("an image norm overflowed")
        num = semiscalar_rows(self.space, H, W, duality)
        # a vanishing image direction means the acuteness property fails outright
        return np.divide(num, den, out=np.zeros(len(den)), where=den > 0.0)


class _StepRatio:
    """The step-size ratio of the method's step family, to be maximized.

    Minimal-quadratic families take [h, Bh] / (sigma ||Bh||^2), relaxed
    families ||h||^2 / (vartheta [h, Bh]); a ratio without a positive
    denominator is unbounded.
    """

    minimize = False

    def __init__(self, space, method: MethodSpec):
        self.space, self.sigma = space, space.sigma
        self.minimising, self.th = method.minimising, method.vartheta

    def score(self, H, W, terms):
        """The ratio of each row h of H and its image row Bh in W."""
        nh, duality = terms
        num = semiscalar_rows(self.space, H, W, duality)
        if self.minimising:
            with np.errstate(over="ignore"):
                den = self.sigma * norm_rows(self.space, W) ** 2
            if np.isinf(den).any():  # W is finite: a norm above about 1.34e154
                raise ArgumentError("an image norm overflowed when squared")
        else:
            num, den = nh ** 2, self.th * num
        return np.divide(num, den, out=np.full(len(den), math.inf), where=den > 0.0)


def _project_rows(space, center, r, X):
    """Each row of X moved radially onto the ball of radius r > 0 about center if outside it.

    X is updated in place.
    """
    D = X - center
    nd = norm_rows(space, D)
    out = nd > r
    X[out] = center + D[out] * (r / nd[out])[:, None]
    return X


_POLISH_BLOCK = 32  # candidates per images call
_POLISH_SWEEPS = 40  # most sweeps of one polish


def _polish(objective, images, space, center, r, x, h, path=None):
    """Projected coordinate descent over (ball point, unit direction h).

    ``objective.score`` scores each row direction of H against its image
    ``images(x, H)`` at the point x, or ``images(X, H)`` for a stack X of
    one point per row; ``objective.minimize`` says which way is better.
    No Jacobian is formed.  A sweep tries the 2n direction candidates
    ``h +- step e_j``, normalized, and then the point candidates
    ``x +- step r e_j``, projected onto the ball, accepting each one that
    improves.  Returns the best value; each accepted (x, h) is appended to
    ``path`` if one is given.  A non-finite candidate image raises
    ArgumentError.

    Both halves of a sweep follow one block rule: an images call scores the
    next ``_POLISH_BLOCK`` candidates, built from the current (x, h), and
    the first improving one in sweep order is accepted; the candidates after
    it are built again from the new h or x.  No direction candidate is zero,
    as h has norm 1 and a step at most 1/4.
    """
    better = lt if objective.minimize else gt

    def score(X, H):
        W = images(X, H)
        if not np.isfinite(W).all():
            raise ArgumentError("the operator image of a polish candidate has non-finite entries")
        return objective.score(H, W, norm_duality_rows(space, H))

    n = len(h)
    rows, cols = np.arange(2 * n), np.arange(2 * n) // 2  # candidate k moves coordinate k // 2
    signs = np.tile([1.0, -1.0], n)
    best = score(x, h[None, :])[0]
    step = 0.25
    for _ in range(_POLISH_SWEEPS):
        improved = False
        for moving_point in (False, True) if r > 0.0 else (False,):
            moves = (step * r if moving_point else step) * signs
            k = 0
            while k < 2 * n:
                m = min(_POLISH_BLOCK, 2 * n - k)
                C = np.repeat((x if moving_point else h)[None, :], m, axis=0)
                C[rows[:m], cols[k:k + m]] += moves[k:k + m]
                if moving_point:
                    X, H = _project_rows(space, center, r, C), np.repeat(h[None, :], m, axis=0)
                else:
                    X, H = x, C / norm_rows(space, C)[:, None]
                v = score(X, H)
                i = int(np.argmax(better(v, best)))  # the first improving candidate, if any
                if not better(v[i], best):
                    k += m
                    continue
                best, x, h, improved = v[i], X[i] if moving_point else x, H[i], True
                if path is not None:
                    path.append((x, h))
                k += i + 1
        if not improved:
            step *= 0.5
            if step < 1e-7:
                break
    return best


def _induced_scale(space: SpaceGeometry, m: int) -> float:
    """Factor taking a spectral norm to an upper bound of the p -> p norm."""
    return m ** abs(0.5 - 1.0 / space.p)  # exactly 1.0 in Euclidean space


def _matrix_norm(space: SpaceGeometry, M: np.ndarray) -> float:
    # p -> p induced norm upper bound via the spectral norm; safe direction
    return float(np.linalg.norm(M, 2)) * _induced_scale(space, M.shape[0])


def _matrix_norm_bound(space: SpaceGeometry, M: np.ndarray) -> float:
    """Cheap upper bound of ``_matrix_norm``: the smaller of sqrt(||M||_1 ||M||_inf)
    and ||M||_F, each at least ||M||_2.

    Exact arithmetic gives ``_matrix_norm <= bound``; in floating point
    either side can be off by rounding.  The first is a product of square
    roots, which cannot underflow to 0.  ||M||_F is taken only where the
    largest entry lies in [2^-480, 2^480], so no square that counts under- or
    overflows, and is inflated by (1 + size eps) to cover the rounding of its
    squares and their sum; a relative margin of 1e-12 covers the rest.
    """
    A = np.abs(M)
    ub = math.sqrt(float(A.sum(axis=0).max())) * math.sqrt(float(A.sum(axis=1).max()))
    if 2.0 ** -480 <= float(A.max()) <= 2.0 ** 480:
        v = A.ravel()
        ub = min(ub, math.sqrt(float(v @ v)) * (1.0 + M.size * _EPS))
    return ub * _induced_scale(space, M.shape[0])


class _LipschitzPairs:
    """Running max of ||J(x1) - J(x2)|| / ||x1 - x2|| over the sample pairs.

    The pairs are the center against center +- t*r*e_i for t = 1, 1/2, 1/4,
    and each ball point against the next.  Ball points 1..2*dim are the
    t = 1 axis points, so ``visit``, which takes the ball points in order,
    reuses their Jacobians and keeps only the center's and the previous
    point's.  A pair whose cheap bound cannot raise the maximum skips its
    SVD; the maximum is the same bit for bit.  A Jacobian taken or evaluated
    with a non-finite entry raises ArgumentError before any bound: a NaN
    would make both cheap bounds NaN and fail the SVD, and an inf would
    drop its pairs.
    """

    def __init__(self, problem, space, center, r):
        self.problem, self.space, self.center, self.r = problem, space, center, r
        self.eye = np.eye(len(center))
        self.best, self.n_used = 0.0, 0
        self.J0 = self.prev = None

    def visit(self, k: int, x: np.ndarray, J: np.ndarray) -> None:
        self._check(J, f"sampled ball point {k}")
        if k == 0:
            self.J0 = J
        else:
            self._pair(*self.prev, x, J)
            if k <= 2 * len(self.center):
                self._axis_pairs((k - 1) // 2, k % 2 == 1, J)
        self.prev = (x, J)

    def value(self) -> float | None:
        return self.best if self.n_used else None

    def _check(self, J: np.ndarray, where: str) -> None:
        if not np.isfinite(J).all():
            raise ArgumentError(f"problem {self.problem.name!r}: the Jacobian at {where} "
                                "has non-finite entries")

    def _axis_pairs(self, i: int, plus: bool, J_unit) -> None:
        c, e, r = self.center, self.eye[i], self.r
        for t in (1.0, 0.5, 0.25):
            x2 = c + t * r * e if plus else c - t * r * e
            self._pair(c, self.J0, x2, J_unit if t == 1.0 else None,
                       f"axis point x0 {'+' if plus else '-'} {t} r e_{i}")

    def _pair(self, x1, J1, x2, J2, where: str = "") -> None:
        """Raise the running max by the pair's quotient; ``J2`` None is J(x2), at ``where``."""
        space = self.space
        dist = norm(space, x1 - x2)
        if dist <= 1e-14 * (1.0 + norm(space, x1)):
            return
        self.n_used += 1
        if J2 is None:
            J2 = _jacobian(self.problem, x2)
            self._check(J2, where)
        D = J1 - J2
        if _matrix_norm_bound(space, D) * (1.0 + 1e-12) / dist <= self.best:
            return
        self.best = max(self.best, _matrix_norm(space, D) / dist)


def sample_estimates(problem, method: MethodSpec, space: SpaceGeometry,
                     r: float, plan: SamplePlan) -> Estimates:
    """Every sampled bound function over the ball of radius r, in one pass.

    nu_tilde is the smallest acuteness ratio over the sampled points and
    directions (the residual f(x) is always among the directions, so the
    trajectory variant can never fall below it on the same plan), and
    lambda_tilde the largest step-size ratio for the method's step family;
    with ``plan.refine`` both are then polished.  nu_trajectory takes the
    residual directions only, theta the largest norm of T(x) = J(x)^T
    (exactly 1 for identity T), and omega_lipschitz the largest Jacobian
    difference quotient over the sample pairs.
    """
    _check_radius(problem, r)
    method.check_space(space)
    rng = np.random.default_rng(plan.seed)
    center = np.asarray(problem.x0, dtype=float)
    pts = _ball_points(center, r, plan.n_points, rng, space)
    H0 = _direction_set(len(center), plan.n_dirs, rng, space)
    images = _image_map(problem, method)
    adjoint = method.uses_adjoint
    acute, step = _AcuteRatio(space), _StepRatio(space, method)
    terms = norm_duality_rows(space, H0)

    def non_finite(k):
        return ArgumentError(
            f"problem {problem.name!r}: an image at sampled ball point {k} "
            "has non-finite entries")

    nu, nu_xh = math.inf, (pts[0], H0[0])
    lam, lam_xh = -math.inf, (pts[0], H0[0])
    traj = math.inf
    theta = None if adjoint else 1.0
    lip = _LipschitzPairs(problem, space, center, r)
    for k, x in enumerate(pts):
        # the Lipschitz pairs check the Jacobian, which also feeds theta; a
        # non-finite image would drop the point from every comparison below
        J = _jacobian(problem, x)
        lip.visit(k, x, J)
        if not np.isfinite(W := images(x, H0)).all():
            raise non_finite(k)
        if adjoint:
            tn = _matrix_norm(space, J.T)
            theta = tn if theta is None else max(theta, tn)

        ratios = acute.score(H0, W, terms)
        i = int(np.argmin(ratios))
        if ratios[i] < nu:
            nu, nu_xh = float(ratios[i]), (x, H0[i])
        if lam < math.inf:
            values = step.score(H0, W, terms)
            i = int(np.argmax(values))
            if values[i] > lam:
                lam, lam_xh = float(values[i]), (x, H0[i])

        fx = np.asarray(problem.f(x), dtype=float)
        with np.errstate(over="ignore"):  # an overflow is the error raised below
            nf = norm(space, fx) if np.isfinite(fx).all() else 0.0
        if nf > 0.0:
            if nf == math.inf:  # finite entries whose norm overflows
                raise ArgumentError(f"the residual norm at sampled ball point {k} overflowed")
            F = (fx / nf)[None, :]  # unit: ||f(x)|| times an image norm may overflow
            if not np.isfinite(WF := images(x, F)).all():
                raise non_finite(k)
            ratio = float(acute.score(F, WF, norm_duality_rows(space, F))[0])
            traj = min(traj, ratio)
            if ratio < nu:
                nu, nu_xh = ratio, (x, F[0])

    if plan.refine:
        if nu > 0.0:
            nu = _polish(acute, images, space, center, r, *nu_xh)
        if np.isfinite(lam):
            lam = _polish(step, images, space, center, r, *lam_xh)
    # plain floats: the polish returns numpy scalars, which reports cannot take
    omega = lip.value()
    return Estimates(
        nu_tilde=float(nu), lambda_tilde=float(lam),
        nu_trajectory=float(traj) if np.isfinite(traj) else None,
        theta=float(theta), omega_lipschitz=None if omega is None else float(omega))


# span target "estimator.nu_tilde" of bench/tracer.py
def estimate_nu_tilde(problem, method: MethodSpec, space: SpaceGeometry,
                      r: float, plan: SamplePlan) -> float:
    """Upper estimate of the worst acuteness ratio over the ball of radius r.

    A value <= 0 means a sampled direction already refutes the positive
    pairing assumption (or the operator annihilated a direction).
    """
    return sample_estimates(problem, method, space, r, plan).nu_tilde


# span target "estimator.lambda_tilde" of bench/tracer.py
def estimate_lambda_tilde(problem, method: MethodSpec, space: SpaceGeometry,
                          r: float, plan: SamplePlan) -> float:
    """Lower estimate of the step-size bound for the method's step family.

    Minimal-quadratic families take the largest sampled pairing-to-image
    ratio; relaxed families take the largest inverse Rayleigh-type ratio
    and report ``inf`` as soon as a sampled pairing is nonpositive (the
    supremum is then unbounded).
    """
    return sample_estimates(problem, method, space, r, plan).lambda_tilde


# span target "estimator.nu_trajectory" of bench/tracer.py
def estimate_nu_trajectory(problem, method: MethodSpec, space: SpaceGeometry,
                           r: float, plan: SamplePlan) -> float:
    """Acuteness ratio along residual directions only (h = f(x) per sample).

    Always at least as large as ``estimate_nu_tilde`` on the same plan,
    since the latter samples a superset of directions at every point.
    """
    return sample_estimates(problem, method, space, r,
                            replace(plan, refine=False)).trajectory()


# span target "estimator.omega_lipschitz" of bench/tracer.py
def estimate_omega_lipschitz(problem, r: float, plan: SamplePlan,
                             space: SpaceGeometry = SpaceGeometry()) -> float:
    """Lower estimate of the Jacobian Lipschitz constant over the ball.

    Pairs along each coordinate axis are always included, which recovers
    the exact constant for Jacobians whose worst variation is axis-aligned.
    Needs no method, so it samples the ball points alone.
    """
    _check_radius(problem, r)
    rng = np.random.default_rng(plan.seed)
    center = np.asarray(problem.x0, dtype=float)
    lip = _LipschitzPairs(problem, space, center, r)
    for k, x in enumerate(_ball_points(center, r, plan.n_points, rng, space)):
        lip.visit(k, x, _jacobian(problem, x))
    L = lip.value()
    if L is None:
        raise ArgumentError(_NO_DISTINCT_PAIR)
    return L


# span target "estimator.theta" of bench/tracer.py
def estimate_theta(problem, method: MethodSpec, space: SpaceGeometry,
                   r: float, plan: SamplePlan) -> float:
    """Bound on ||T(x)||: exactly 1 for identity T, sampled max matrix norm otherwise."""
    if method.uses_adjoint:
        return sample_estimates(problem, method, space, r, replace(plan, refine=False)).theta
    _check_radius(problem, r)  # the checks sample_estimates makes
    method.check_space(space)
    return 1.0


def estimated_bound_data(problem, method: MethodSpec, space: SpaceGeometry,
                         plan: SamplePlan) -> BoundData:
    """Assemble constant-in-r BoundData from sampled estimates at the radius R.

    Constants sampled at the full radius are valid (if conservative) bound
    functions for every smaller radius.  Raises AssumptionError when the
    sampled acuteness is nonpositive or the step-size bound is unbounded.
    """
    est = sample_estimates(problem, method, space, problem.R, plan)
    nu = est.nu_tilde
    if nu <= 0.0:
        raise AssumptionError(
            f"sampled acuteness estimate {nu:.6g} <= 0: positive-pairing "
            "assumption fails on the sampled ball")
    if not np.isfinite(est.lambda_tilde):
        raise AssumptionError("sampled step-size bound is unbounded")
    return BoundData(
        lam=est.lambda_tilde, theta=est.theta, omega=LipschitzModulus(est.lipschitz()),
        R=problem.R, nu=min(nu, 1.0), method=method)
