"""The generic residual-driven iteration and its step-size families.

Every method here advances by ``x_{n+1} = x_n - Lambda(x_n, f(x_n)) * T(x_n) f(x_n)``
with T either the identity or the Jacobian transpose, and Lambda one of the
classical scalar step rules (minimal residuals, minimal co-errors, steepest
descent and its relaxed variant, minimal errors and its relaxed variant).
The step scalar reads only the space's pairing, norm and sigma, so the rule,
not its name, decides the geometry: every T = I rule runs in each l_p, and
the T = f'^T rules need Euclidean space.

``solve`` records a full per-step trace; ``verify_relaxation`` replays a
trace against a majorant certificate and reports every violated per-step
inequality, which is the runtime check that the supplied bound functions
were actually valid for the run, and the tightest instance of each kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import majorant
from .errors import ArgumentError, AssumptionError, BreakdownError, DivergenceError
# bench/tracer.py wraps norm as a global of this module
from .spaces import SpaceGeometry, norm, semiscalar

MIN_RESIDUAL = "min_residual"
MIN_CO_ERROR = "min_co_error"
STEEPEST_DESCENT = "steepest_descent"
ALTMAN_STEEPEST_DESCENT = "altman_steepest_descent"
MIN_ERROR = "min_error"
ALTMAN_MIN_ERROR = "altman_min_error"
BANACH_MIN_RESIDUAL = "banach_min_residual"
BANACH_STEEPEST_DESCENT = "banach_steepest_descent"
BANACH_ALTMAN_STEEPEST_DESCENT = "banach_altman_steepest_descent"


class _Rule(NamedTuple):
    adjoint: bool     # T = f'^T, else T = I
    minimising: bool  # the quadratic-minimising step scalar, else the relaxed one
    relaxed: bool     # an Altman variant: vartheta scales the denominator


# The banach_* names are the rules of their namesakes without the prefix.
_RULES = {
    MIN_RESIDUAL: _Rule(False, True, False),
    MIN_CO_ERROR: _Rule(True, True, False),
    STEEPEST_DESCENT: _Rule(False, False, False),
    ALTMAN_STEEPEST_DESCENT: _Rule(False, False, True),
    MIN_ERROR: _Rule(True, False, False),
    ALTMAN_MIN_ERROR: _Rule(True, False, True),
    BANACH_MIN_RESIDUAL: _Rule(False, True, False),
    BANACH_STEEPEST_DESCENT: _Rule(False, False, False),
    BANACH_ALTMAN_STEEPEST_DESCENT: _Rule(False, False, True),
}
ALL_FAMILIES = tuple(_RULES)
BANACH_FAMILIES = (
    BANACH_MIN_RESIDUAL, BANACH_STEEPEST_DESCENT, BANACH_ALTMAN_STEEPEST_DESCENT)
HILBERT_FAMILIES = tuple(f for f in ALL_FAMILIES if f not in BANACH_FAMILIES)
_EPS_BREAKDOWN = 1e-14
_VERIFY_RTOL = 1e-9  # relative slack of each bound verify_relaxation checks
_VERIFY_FLOOR = 4.0 * np.finfo(float).eps  # k = 4 roundings: verify_relaxation's residual floor


@dataclass(frozen=True)
class MethodSpec:
    """A step family plus the relaxation parameter of the Altman variants.

    Only an Altman variant reads vartheta; every other family is the
    vartheta = 1 case and refuses any other value.  The family's rule, not
    its name, decides the spaces it runs in (``check_space``).
    """

    family: str
    vartheta: float = 1.0

    def __post_init__(self):
        if self.family not in _RULES:
            raise ArgumentError(f"unknown method family {self.family!r}")
        if not (0.0 < self.vartheta <= 2.0):
            raise ArgumentError(f"vartheta must lie in (0, 2], got {self.vartheta}")
        if self.vartheta != 1.0 and not _RULES[self.family].relaxed:
            raise ArgumentError(
                f"{self.family} reads no vartheta; only the Altman variants take "
                f"vartheta != 1, got {self.vartheta}")

    @property
    def uses_adjoint(self) -> bool:
        return _RULES[self.family].adjoint

    @property
    def minimising(self) -> bool:
        """Whether the step scalar is the quadratic-minimising one, else the relaxed one."""
        return _RULES[self.family].minimising

    def mu(self, nu: float, sigma: float) -> float:
        """This rule's contraction factor at acuteness nu, in a space with constant sigma.

        A minimising step gives sqrt(1 - nu**2 / sigma), the normalized
        minimum of ||h||^2 - 2 L [h, Bh] + sigma L^2 ||Bh||^2 over the step
        scalar L.  A relaxed step gives
        sqrt(1 - 2/vartheta + sigma / (vartheta**2 * nu**2)), which is below 1
        only above ``threshold``; at or below it AssumptionError is raised.
        """
        if not (0.0 < nu <= 1.0):
            raise ArgumentError(f"nu must lie in (0, 1], got {nu}")
        if sigma < 1.0:
            raise ArgumentError(f"sigma must be >= 1, got {sigma}")
        if self.minimising:
            return math.sqrt(max(0.0, 1.0 - nu * nu / sigma))
        thr = self.threshold(sigma)
        if nu <= thr:
            raise AssumptionError(
                f"relaxed step not certifiable: nu={nu:.6g} <= validity threshold "
                f"sqrt(sigma/(2*vartheta))={thr:.6g} gives mu >= 1")
        # above thr, vartheta > 1/2 and the exact radicand is >= (1 - 1/vartheta)^2;
        # the clamp takes up the few ulps by which rounding can put it below 0
        vt = self.vartheta
        return math.sqrt(max(0.0, 1.0 - 2.0 / vt + sigma / (vt * vt * nu * nu)))

    def threshold(self, sigma: float) -> float:
        """The nu above which this rule contracts: 0, or sqrt(sigma / (2 vartheta)) if relaxed."""
        return 0.0 if self.minimising else math.sqrt(sigma / (2.0 * self.vartheta))

    def check_space(self, space: SpaceGeometry) -> None:
        """Reject a rule with T = f'^T outside Euclidean space, as a typed config error.

        The adjoint needs the inner product to transpose against; a T = I rule
        reads only the space's pairing, norm and sigma, so it runs in every l_p.
        """
        if space.p != 2.0 and self.uses_adjoint:
            raise ArgumentError(
                f"{self.family} uses the adjoint and is not defined outside "
                "Euclidean geometry")


def _sq(space: SpaceGeometry, v: np.ndarray) -> float:
    """||v||^2; the plain dot product in Euclidean space, and inf where it overflows."""
    try:
        return float(v @ v) if space.p == 2.0 else norm(space, v) ** 2
    except OverflowError:  # n ** 2 raises where n * n gives inf, but n * n rounds differently
        return math.inf


def _image(family: str, v: np.ndarray, name: str) -> np.ndarray:
    """``v``, or BreakdownError when an entry of the image ``name`` is not finite."""
    # a non-finite entry makes v @ v non-finite; only then are the entries read
    if not math.isfinite(v @ v) and not np.isfinite(v).all():
        raise BreakdownError(f"{family}: {name} has non-finite entries")
    return v


def step_direction(method: MethodSpec, space: SpaceGeometry, problem,
                   x: np.ndarray, fx: np.ndarray) -> tuple[float, np.ndarray]:
    """Step scalar Lambda(x, fx) and direction d = T(x) fx for one update.

    With h = fx and B = f' T, the minimising rules take [h, Bh] / (sigma ||Bh||^2)
    and the relaxed ones ||h||^2 / (vartheta [h, Bh]), where [h, Bh] = ||d||^2
    for T = f'^T; the space supplies [., .], ||.|| and sigma.

    Raises BreakdownError when an image such as f'(x) f(x) or f'(x)^T f(x)
    is not finite or a norm or pairing overflows (numpy warns of it unless
    muted, as ``solve`` does), and when the step denominator falls below
    1e-14 of its natural scale or the step scalar is negative, which means
    the positive-pairing assumption fails.
    """
    method.check_space(space)
    J = np.asarray(problem.jacobian(x), dtype=float)
    fam = method.family
    rule = _RULES[fam]
    if rule.adjoint:
        d = g = _image(fam, J.T @ fx, "f'(x)^T f(x)")
        pairing = _sq(space, d)
    else:
        d = fx
        g = _image(fam, J @ fx, "f'(x) f(x)")
        pairing = semiscalar(space, fx, g)
    if rule.minimising:
        Bh = _image(fam, J @ d, "f'(x) f'(x)^T f(x)") if rule.adjoint else g
        num, den = pairing, space.sigma * _sq(space, Bh)
        scale = norm(space, d) * norm(space, Bh)
    else:
        num, den = _sq(space, fx), method.vartheta * pairing
        scale = norm(space, fx) * norm(space, g)

    if not all(map(math.isfinite, (num, den, scale))):  # the vectors are finite: an overflow
        raise BreakdownError(f"{fam}: a step norm or pairing overflowed")
    if not (den > _EPS_BREAKDOWN * scale):
        raise BreakdownError(
            f"{fam}: step denominator {den:.3e} below breakdown threshold "
            f"(scale {scale:.3e}); positive-pairing assumption fails here")
    lam = num / den
    if lam < 0.0:
        raise BreakdownError(f"{fam}: negative step size {lam:.3e}")
    return lam, d


@dataclass(frozen=True)
class StopRule:
    res_tol: float
    max_iter: int

    def __post_init__(self):
        if not (self.res_tol > 0.0):
            raise ArgumentError("res_tol must be positive")
        if self.max_iter < 1:
            raise ArgumentError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class TraceStep:
    n: int
    x: np.ndarray
    res_norm: float
    lambda_: float = math.nan
    step_norm: float = math.nan
    dist_from_center: float = 0.0
    bound_dn: float = math.nan
    apost_bound: float = math.nan


@dataclass
class IterationTrace:
    """Immutable-after-production record of one solver run.

    ``reason`` says why a run that ended in breakdown broke down.
    """

    steps: list[TraceStep]
    termination: str
    space: SpaceGeometry
    reason: str | None = None

    @property
    def n_steps(self) -> int:
        return len(self.steps) - 1

    @property
    def res_norms(self) -> list[float]:
        return [s.res_norm for s in self.steps]

    @property
    def iterates(self) -> list[np.ndarray]:
        return [s.x for s in self.steps]

    @property
    def final(self) -> TraceStep:
        return self.steps[-1]


@np.errstate(over="ignore", invalid="ignore")  # an overflow is recorded as a breakdown
def solve(problem, method: MethodSpec, space: SpaceGeometry, stop: StopRule,
          certificate: majorant.MajorantCertificate | None = None,
          bounds: majorant.BoundData | None = None) -> IterationTrace:
    """Run the iteration until convergence, iteration cap, ball exit or breakdown.

    Stopping checks run in that fixed order each sweep so traces are
    reproducible.  With a certificate attached the ball radius is the
    certified r and every row also carries the running residual majorant
    d^(n)(r, a) and the a posteriori error bound at the observed residual,
    both from the certificate's relaxation map; ``bounds`` must be its bound
    data, and for this method if they name one.  An overflow is a breakdown.
    """
    if (certificate is None) != (bounds is None):
        raise ArgumentError("certificate and bounds must be supplied together")
    rmap = certificate.relaxation_map() if certificate is not None else None
    if rmap is not None and bounds is not rmap.bounds:
        raise ArgumentError("bounds are not those the certificate was built from")
    if bounds is not None and bounds.method not in (None, method):
        raise ArgumentError(f"the certificate's bounds are for {bounds.method}, not {method}")
    method.check_space(space)
    x = np.array(problem.x0, dtype=float)
    x0 = x.copy()
    radius = certificate.r if certificate is not None else problem.R
    bound_dn = certificate.a if certificate is not None else math.nan

    steps: list[TraceStep] = []
    termination = "max_iter"
    reason = None
    for n in range(stop.max_iter + 1):
        fx = np.asarray(problem.f(x), dtype=float)
        if not np.all(np.isfinite(fx)):
            termination = "breakdown"
            reason = f"f(x_{n}) has non-finite entries"
            break
        res = norm(space, fx)
        dist = norm(space, x - x0)
        apost = math.nan
        if certificate is not None:
            try:
                apost = majorant.aposteriori_bound(certificate, res)
            except DivergenceError:
                apost = math.nan  # residual at or above the fixed point: no bound
        steps.append(TraceStep(n=n, x=x.copy(), res_norm=res,
                               dist_from_center=dist, bound_dn=bound_dn,
                               apost_bound=apost))
        if res <= stop.res_tol:
            termination = "converged"
            break
        if n == stop.max_iter:
            termination = "max_iter"
            break
        if dist > radius:
            termination = "left_ball"
            break
        try:
            lam, direction = step_direction(method, space, problem, x, fx)
        except BreakdownError as exc:
            termination = "breakdown"
            reason = str(exc)
            break
        x_next = x - lam * direction
        if not np.all(np.isfinite(x_next)):
            termination = "breakdown"
            reason = f"step {n} produced non-finite entries"
            break
        steps[-1].lambda_ = lam
        steps[-1].step_norm = norm(space, x_next - x)
        x = x_next
        if rmap is not None:
            bound_dn = rmap(bound_dn)

    if not steps:  # f(x0) was non-finite
        steps.append(TraceStep(n=0, x=x0.copy(), res_norm=math.nan))
    return IterationTrace(steps=steps, termination=termination, space=space, reason=reason)


@dataclass(frozen=True)
class Violation:
    step: int
    kind: str  # "residual" | "step" | "ball"
    observed: float
    allowed: float


@dataclass
class VerificationReport:
    """The violations of a replay, and per checked kind the step of largest observed/allowed."""

    violations: list[Violation] = field(default_factory=list)
    checked_steps: int = 0
    unresolved_steps: list[int] = field(default_factory=list)
    tightest: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_relaxation(trace: IterationTrace,
                      cert: majorant.MajorantCertificate) -> VerificationReport:
    """Check every recorded step against the certificate's per-step bounds.

    Asserts, for each executed step, that the residual norm contracted at
    least as fast as the relaxation map predicts, that the step length was
    within lam*theta times the residual, and that every iterate stayed in
    the certified ball.  An empty violation list means the bound functions
    were valid along this trajectory.

    A residual is known only to the rounding error of evaluating f, taken as
    ``4*eps*max(a, ||x_{n+1}||)``: k = 4 roundings of terms no larger than
    a or the iterate, which assumes ||f'|| of order 1 and ||f(0)|| of order
    a.  A residual above its allowed value but not above this floor is
    unresolved: listed in ``unresolved_steps``, neither a violation nor a
    pass, and not counted in ``checked_steps``.

    ``tightest`` holds, for each of "residual", "step" and "ball" that has a
    checked instance, the first step of largest observed/allowed ratio (0/0
    reads as 0), so a clean run shows how close it came to a violation.
    """
    if not cert.feasible:
        raise ArgumentError("verification requires a feasible certificate")
    if trace.space.sigma != cert.sigma:
        raise ArgumentError(
            f"trace sigma {trace.space.sigma} does not match certificate sigma {cert.sigma}")
    a0 = trace.steps[0].res_norm
    if abs(a0 - cert.a) > 1e-9 * max(1.0, abs(cert.a)):
        raise ArgumentError(
            f"trace initial residual {a0:.12g} does not match certificate a={cert.a:.12g}")
    r = cert.r
    rmap = cert.relaxation_map()
    lt = rmap.lt
    report = VerificationReport()
    # kind -> (ratio, step, kind, observed, allowed) of its first largest ratio
    tight = dict.fromkeys(("residual", "step", "ball"))

    def check(n, kind, observed, allowed):
        ratio = observed / allowed if allowed > 0.0 else math.inf if observed > 0.0 else 0.0
        if tight[kind] is None or ratio > tight[kind][0]:
            tight[kind] = (ratio, n, kind, observed, allowed)
        if observed > allowed * (1.0 + _VERIFY_RTOL):
            report.violations.append(Violation(n, kind, observed, allowed))

    for i, step in enumerate(trace.steps):
        check(step.n, "ball", step.dist_from_center, r)
        if math.isnan(step.lambda_) or i + 1 >= len(trace.steps):
            continue
        nxt = trace.steps[i + 1]
        allowed = rmap(step.res_norm)
        if (nxt.res_norm > allowed * (1.0 + _VERIFY_RTOL)
                and nxt.res_norm <= _VERIFY_FLOOR * max(cert.a, norm(trace.space, nxt.x))):
            report.unresolved_steps.append(step.n)
        else:
            report.checked_steps += 1
            check(step.n, "residual", nxt.res_norm, allowed)
        check(step.n, "step", step.step_norm, lt * step.res_norm)
    report.tightest = [Violation(*t[1:]) for t in tight.values() if t is not None]
    return report


def empirical_rates(trace: IterationTrace, x_star) -> tuple[float, float]:
    """Observed rate statistics against a reference solution.

    Returns the worst per-step error contraction ratio and the N-th root of
    the last error still clearly above rounding level.  Exact hits of the
    reference solution truncate the sequence; immediate exact convergence
    reports (0, 0).
    """
    xs = trace.iterates
    if len(xs) < 2:
        raise ArgumentError("need at least one executed step")
    space = trace.space
    ref = np.asarray(x_star, dtype=float)
    errs = [norm(space, x - ref) for x in xs]
    cut = next((i for i, e in enumerate(errs) if e == 0.0), len(errs) - 1)
    errs = errs[: cut + 1]
    ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1) if errs[i] > 0.0]
    velo = max(ratios) if ratios else 0.0
    floor = 100.0 * np.finfo(float).eps * errs[0]
    last = max((i for i, e in enumerate(errs) if e > floor), default=0)
    lexp = errs[last] ** (1.0 / last) if last >= 1 else 0.0
    return velo, lexp
