"""Scalar majorant calculus for residual-contracting iterations.

Everything here is built from four scalar bound functions of the ball
radius r: a step-size bound ``lam(r)``, an operator-norm bound
``theta(r)``, a linear contraction factor ``mu(r)`` (or an acuteness
constant ``nu(r)`` from which mu is derived), and a modulus of continuity
``omega(r, t)`` for the Jacobian.  The relaxation map

    d_sigma(r, phi) = mu(r) * phi + sigma * Omega(r, lam(r)*theta(r)*phi),
    Omega(r, t) = integral of omega(r, .) over [0, t],

majorizes the one-step residual-norm transition.  Its iterates, its
smallest positive fixed point, and the series ``w = sum of the iterates``
turn per-step contraction into total-displacement and error bounds.  A
run from initial residual norm ``a`` is certified at radius r when
``lam(r) * theta(r) * w_sigma(r, a) <= r``; ``certify`` finds the least
such r by iterating the left side from r = 0.

``RelaxationMap`` holds d_sigma at one radius.  Its fixed point is in
closed form for every modulus, and its series value is a rigorous upper
bound on w (exactly ``phi / (1 - mu)`` when omega = 0), so a certificate
never rests on a sum that falls short of the series.

``sigma`` is the quadratic-inequality constant of the ambient space
(1 in the Euclidean case, p - 1 for l_p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ArgumentError, AssumptionError, DivergenceError

if TYPE_CHECKING:  # methods imports this module
    from .methods import MethodSpec

_SERIES_RTOL = 1e-12
_SERIES_CAP = 1_000_000
_VALIDATE_GRID = 33  # r-grid points of the monotonicity check
_CERTIFY_STEPS = 10_000  # iterates of the radius map before R decides


# ---------------------------------------------------------------------------
# moduli of continuity

def _as_fn(v) -> Callable[[float], float]:
    return v if callable(v) else (lambda r, _v=float(v): _v)


class HolderModulus:
    """omega(r, t) = L(r) * t**alpha with 0 < alpha <= 1 and L finite and >= 0.

    A constant L is checked here, an L(r) on the r-grid of ``BoundData.validate``.
    """

    def __init__(self, L: float | Callable[[float], float], alpha: float):
        if not (0.0 < alpha <= 1.0):
            raise ArgumentError("Holder exponent must lie in (0, 1]")
        if not callable(L) and not (0.0 <= L < math.inf):
            raise ArgumentError(f"Holder constant L must be finite and >= 0, got {L}")
        self.L = L if callable(L) else float(L)
        self.alpha = float(alpha)

    def constant(self, r: float) -> float:
        """L(r)."""
        return self.L(r) if callable(self.L) else self.L

    def integral(self, r: float, t):
        return self.constant(r) * t ** (1.0 + self.alpha) / (1.0 + self.alpha)

    def is_zero(self, r: float) -> bool:
        return self.constant(r) == 0.0


class LipschitzModulus(HolderModulus):
    """omega(r, t) = L(r) * t: the Holder modulus with alpha = 1."""

    def __init__(self, L: float | Callable[[float], float]):
        super().__init__(L, 1.0)

    def integral(self, r: float, t):
        # not the Holder form L * t**2 / 2, which rounds differently
        return 0.5 * self.constant(r) * t * t


class TabulatedModulus:
    """omega given on a monotone grid in t; piecewise-linear in between.

    The grid must start at (0, 0), be finite, strictly increasing in t and
    nondecreasing in omega.  Beyond the last node the value is held
    constant, so the integral grows linearly there.
    Segment integrals are exact (trapezoid on a piecewise-linear function).
    """

    def __init__(self, ts, ws):
        ts = np.asarray(ts, dtype=float)
        ws = np.asarray(ws, dtype=float)
        if ts.ndim != 1 or ts.shape != ws.shape or len(ts) < 2:
            raise ArgumentError("tabulated modulus needs matching 1-d grids, len >= 2")
        if ts[0] != 0.0 or ws[0] != 0.0:
            raise ArgumentError("tabulated modulus must start at (0, 0)")
        if np.any(np.diff(ts) <= 0.0) or not np.all(np.isfinite(ts)):
            raise ArgumentError("tabulated t-grid must be finite and strictly increasing")
        if np.any(np.diff(ws) < 0.0) or not np.all(np.isfinite(ws)):
            raise ArgumentError("tabulated omega values must be finite and nondecreasing")
        self.ts = ts
        self.ws = ws
        self._cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * (ws[1:] + ws[:-1]) * np.diff(ts))])
        self._slope = np.append(np.diff(ws) / np.diff(ts), 0.0)  # 0 past the last node

    def integral(self, r: float, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0, len(self.ts) - 1)
        dt = t - self.ts[idx]
        out = self._cum[idx] + self.ws[idx] * dt + 0.5 * self._slope[idx] * dt * dt
        return float(out) if out.ndim == 0 else out

    def is_zero(self, r: float) -> bool:
        return bool(np.all(self.ws == 0.0))


# ---------------------------------------------------------------------------
# contraction factors derived from the acuteness constant

def mu_min_family(nu: float, sigma: float) -> float:
    """Contraction factor of the quadratic-form-minimizing step.

    Equals sqrt(1 - nu**2 / sigma): the normalized minimum of
    ||h||^2 - 2 L [h, Bh] + sigma L^2 ||Bh||^2 over the step scalar L.
    """
    if not (0.0 < nu <= 1.0):
        raise ArgumentError(f"nu must lie in (0, 1], got {nu}")
    if sigma < 1.0:
        raise ArgumentError(f"sigma must be >= 1, got {sigma}")
    return math.sqrt(max(0.0, 1.0 - nu * nu / sigma))


def altman_validity_threshold(vartheta: float, sigma: float) -> float:
    """Smallest acuteness constant for which the relaxed step contracts."""
    return math.sqrt(sigma / (2.0 * vartheta))


def mu_altman_family(nu: float, vartheta: float, sigma: float) -> float:
    """Contraction factor of the relaxed (Altman-type) step with parameter vartheta.

    Equals sqrt(1 - 2/vartheta + sigma / (vartheta**2 * nu**2)); only valid
    (mu < 1) when nu exceeds ``altman_validity_threshold``.
    """
    if not (0.0 < nu <= 1.0):
        raise ArgumentError(f"nu must lie in (0, 1], got {nu}")
    if not (0.0 < vartheta <= 2.0):
        raise ArgumentError(f"vartheta must lie in (0, 2], got {vartheta}")
    if sigma < 1.0:
        raise ArgumentError(f"sigma must be >= 1, got {sigma}")
    thr = altman_validity_threshold(vartheta, sigma)
    if nu <= thr:
        raise AssumptionError(
            f"relaxed step not certifiable: nu={nu:.6g} <= validity threshold "
            f"sqrt(sigma/(2*vartheta))={thr:.6g} gives mu >= 1")
    radicand = 1.0 - 2.0 / vartheta + sigma / (vartheta * vartheta * nu * nu)
    if radicand < -1e-12:
        raise AssumptionError(f"negative radicand {radicand} in contraction formula")
    return math.sqrt(max(0.0, radicand))


# ---------------------------------------------------------------------------
# bound data

def _read(name: str, v, r: float) -> float:
    """The bound function ``v`` at r, checked to be finite and nonnegative."""
    v = float(_as_fn(v)(r))
    if v < 0 or not np.isfinite(v):
        raise ArgumentError(f"{name}({r}) = {v} is not a finite nonnegative value")
    return v


@dataclass(frozen=True)
class BoundData:
    """Scalar bound functions feeding the majorant calculus.

    ``lam`` and ``theta`` bound the step scalar and ||T(x)|| over the ball
    of radius r.  The contraction factor is either given directly (``mu``)
    or derived from an acuteness bound (``nu``) by the method's contraction
    rule, ``method.mu(nu, sigma)``, at evaluation time; nu needs the method.
    All of ``lam``/``theta``/``mu``/``nu`` may be constants or functions
    of r; lam/theta/mu must be nondecreasing and nu nonincreasing.
    """

    lam: float | Callable[[float], float]
    theta: float | Callable[[float], float]
    omega: LipschitzModulus | HolderModulus | TabulatedModulus
    R: float
    mu: float | Callable[[float], float] | None = None
    nu: float | Callable[[float], float] | None = None
    method: MethodSpec | None = None

    def __post_init__(self):
        if not (self.R > 0.0 and np.isfinite(self.R)):
            raise ArgumentError("ball radius R must be positive and finite")
        if self.mu is None and self.nu is None:
            raise ArgumentError("BoundData needs mu or nu")
        if self.mu is None and self.method is None:
            raise ArgumentError("nu-based bounds need the method whose contraction rule applies")

    def lam_at(self, r: float) -> float:
        return _read("lam", self.lam, r)

    def theta_at(self, r: float) -> float:
        return _read("theta", self.theta, r)

    def nu_at(self, r: float) -> float:
        return float(_as_fn(self.nu)(r))

    def mu_at(self, r: float, sigma: float) -> float:
        """mu(r), derived from nu by the method's contraction rule when not given directly."""
        if self.mu is not None:
            return _read("mu", self.mu, r)
        return self.method.mu(self.nu_at(r), sigma)

    def validate(self, sigma: float = 1.0) -> None:
        """Check that lam, theta, mu and a Holder L rise with r and nu falls; raises ArgumentError.

        A constant is read once, a function of r on an r-grid with a relative
        slack of 1e-12, and L(r) must be finite and >= 0 there.  A modulus
        checks its shape in t when built, so omega is not evaluated here.
        """
        checks = [("lam", self.lam, self.lam_at, +1), ("theta", self.theta, self.theta_at, +1),
                  ("mu", self.mu, lambda r: self.mu_at(r, sigma), +1) if self.mu is not None
                  else ("nu", self.nu, self.nu_at, -1)]
        if isinstance(self.omega, HolderModulus):
            L = self.omega.L
            checks.append(("L", L, lambda r: _read("L", L, r), +1))
        for name, v, read, direction in checks:
            if not callable(v):
                read(0.0)
                continue
            vals = np.array([read(r) for r in np.linspace(0.0, self.R, _VALIDATE_GRID)])
            scale = np.maximum(1.0, np.abs(vals[:-1]))
            if np.any(np.diff(vals) * direction < -1e-12 * scale):
                raise ArgumentError(f"{name} violates monotonicity on the r-grid")


# ---------------------------------------------------------------------------
# the relaxation map and its derived objects

class RelaxationMap:
    """The relaxation map d_sigma(r, .) at one radius, with its fixed point and series.

    ``RelaxationMap(bounds, sigma, r)(phi)`` is d_sigma(r, phi), ``.phi_star``
    its smallest positive fixed point and ``.sum(phi)`` the series w_sigma.
    The radius and sigma are checked, and mu(r) and ``lt = lam(r)*theta(r)``
    evaluated, once when the map is built; every later evaluation of the
    map, its iterates, its fixed point or its series reuses them.  The map
    is ``linear`` (d(phi) = mu*phi) when omega(r, .) = 0 or lt = 0.
    """

    def __init__(self, bounds: BoundData, sigma: float, r: float):
        if sigma < 1.0:
            raise ArgumentError(f"sigma must be >= 1, got {sigma}")
        if not (0.0 <= r <= bounds.R * (1.0 + 1e-9)):
            raise ArgumentError(f"radius r={r} outside [0, R={bounds.R}]")
        self.bounds = bounds
        self.sigma = sigma
        self.r = r
        self.mu = bounds.mu_at(r, sigma)
        self.lt = bounds.lam_at(r) * bounds.theta_at(r)
        self.omega = bounds.omega
        self.linear = self.lt == 0.0 or self.omega.is_zero(r)

    def __call__(self, phi):
        """d_sigma(r, phi) for a scalar or an array of phi >= 0."""
        if self.linear:
            return self.mu * phi  # the integral term is exactly 0 here
        return self.mu * phi + self.sigma * self.omega.integral(self.r, self.lt * phi)

    @cached_property
    def phi_star(self) -> float | None:
        """Smallest phi > 0 with phi = d_sigma(r, phi), or None if there is none.

        Zero is always a fixed point; a positive one can only separate from
        it when mu(r) < 1, so mu >= 1 raises AssumptionError.  A linear map
        has none.  For a Lipschitz or Holder modulus, omega(r, t) = L t^alpha,
        dividing phi = mu phi + sigma L (lt phi)^(1+alpha) / (1+alpha) by phi
        gives the root in closed form.  d - id is convex, 0 at 0 and of slope
        mu - 1 < 0 there, so it has at most one positive root, which for a
        tabulated modulus solves the quadratic of one segment.
        """
        if self.mu >= 1.0:
            raise AssumptionError(
                f"relaxation slope mu({self.r}) = {self.mu:.6g} >= 1: no certificate possible")
        if self.linear:
            return None
        om = self.omega
        if isinstance(om, TabulatedModulus):
            # d - id = A u^2 + B u + C, A >= 0 >= C, in u = lt*phi - t_i on the segment
            # before the first node where d - id >= 0, or past the last node
            k = (self.mu - 1.0) / self.lt  # the slope of -id in t = lt*phi
            h = self.sigma * om._cum + k * om.ts  # d - id at the nodes
            ahead = np.flatnonzero(h[1:] >= 0.0)
            i = int(ahead[0]) if len(ahead) else len(om.ts) - 1
            A = 0.5 * self.sigma * float(om._slope[i])
            B = self.sigma * float(om.ws[i]) + k
            C = float(h[i])
            sq = math.sqrt(B * B - 4.0 * A * C)
            if B < 0.0:
                u = (sq - B) / (2.0 * A) if A > 0.0 else math.inf
            else:  # without the cancellation of -B + sq
                u = -2.0 * C / (B + sq) if B + sq > 0.0 else math.inf
            ps = (float(om.ts[i]) + u) / self.lt
        else:
            a = om.alpha
            ps = ((1.0 - self.mu) * (1.0 + a)
                  / (self.sigma * om.constant(self.r) * self.lt ** (1.0 + a))) ** (1.0 / a)
        return ps if math.isfinite(ps) else None

    def sum(self, phi: float) -> float:
        """w_sigma(r, phi): an upper bound on the sum of all iterates starting at phi.

        A linear map gives phi / (1 - mu) exactly.  Otherwise d is convex
        with d(0) = 0, so the term ratio q = d(t)/t never increases along
        the iterates and never falls below mu: after the partial sum, the
        rest of the series lies between next/(1 - mu) and next/(1 - q).
        Summation stops once these two tails agree to 1e-12 of the partial
        sum, and the upper tail is added, so the result is never below the
        series.  phi at or above the smallest positive fixed point, where
        the series diverges, raises DivergenceError, as does a 1e6-term cap.
        """
        if phi < 0:
            raise ArgumentError("phi must be nonnegative")
        if phi == 0.0:
            return 0.0
        if not math.isfinite(phi):
            raise DivergenceError(f"majorant series diverges: phi={phi}")
        ps = self.phi_star
        if self.linear:
            return phi / (1.0 - self.mu)
        if ps is not None and phi >= ps:
            raise DivergenceError(
                f"majorant series diverges: phi={phi:.6g} >= fixed point {ps:.6g}")
        mu = self.mu
        total = 0.0
        term = float(phi)
        for _ in range(_SERIES_CAP):
            total += term
            nxt = float(self(term))
            if nxt <= 0.0:
                return total
            q = nxt / term
            if q >= 1.0:
                # a non-contracting term means phi started at or above the
                # positive fixed point
                raise DivergenceError(
                    f"majorant series diverges: term {term:.6g} did not contract")
            upper = nxt / (1.0 - q)
            if upper - nxt / (1.0 - mu) <= _SERIES_RTOL * total:
                return total + upper
            term = nxt
        raise DivergenceError("majorant series did not stabilize within the term cap")


# kept as the span target "majorant.fixed_point" of bench/tracer.py
def smallest_fixed_point(bounds: BoundData, sigma: float, r: float) -> float | None:
    """Smallest phi > 0 with phi = d_sigma(r, phi), or None; see ``RelaxationMap.phi_star``."""
    return RelaxationMap(bounds, sigma, r).phi_star


# kept as the span target "majorant.majorant_sum" of bench/tracer.py
def majorant_sum(bounds: BoundData, sigma: float, r: float, phi: float) -> float:
    """w_sigma(r, phi), an upper bound on the series; see ``RelaxationMap.sum``."""
    return RelaxationMap(bounds, sigma, r).sum(phi)


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class MajorantCertificate:
    """Feasibility verdict and rate/error-bound ingredients at a chosen radius.

    ``feasible`` means lam(r)*theta(r)*w_sigma(r, a) <= r <= R, which
    guarantees existence of a solution in the ball of radius r, convergence
    of the iteration, and validity of the error bounds.  When no radius
    works the certificate records diagnostics at R; the a posteriori map
    may still be evaluated there as a best-effort bound.
    ``relaxation`` is the map at r that the solver, verifier and error bounds
    read (None where it could not be built); it is not part of the report.
    """

    r: float
    a: float
    sigma: float
    phi_star: float | None
    w_of_a: float
    condition_value: float
    feasible: bool
    velo_bound: float
    linear_rate: float
    diagnostics: str = ""
    relaxation: RelaxationMap | None = field(default=None, repr=False, compare=False)

    def relaxation_map(self) -> RelaxationMap:
        """The certificate's own relaxation map; ArgumentError if it carries none."""
        if self.relaxation is None:
            raise ArgumentError("the certificate carries no relaxation map")
        return self.relaxation


def _certificate_at(bounds: BoundData, sigma: float, a: float, r: float,
                    diagnostics: str = "") -> MajorantCertificate:
    """The certificate at r, feasible if its condition holds; w = inf if the map or series fails."""
    rmap = phi_star = None
    w, lt, mu, velo = math.inf, math.nan, math.nan, math.nan
    try:
        rmap = RelaxationMap(bounds, sigma, r)
        lt, mu = rmap.lt, rmap.mu
        velo = float(rmap(a)) / a if a > 0.0 else mu  # d(a)/a tends to mu as a -> 0
        phi_star = rmap.phi_star
        w = rmap.sum(a)
    except (AssumptionError, DivergenceError) as exc:
        diagnostics = diagnostics or str(exc)
    cond = float(lt * w) if np.isfinite(w) else math.inf
    return MajorantCertificate(
        r=r, a=a, sigma=sigma, phi_star=phi_star, w_of_a=w,
        condition_value=cond, feasible=cond <= r, velo_bound=velo,
        linear_rate=mu, diagnostics=diagnostics, relaxation=rmap)


def certify(bounds: BoundData, sigma: float, a: float) -> MajorantCertificate:
    """The certificate at the least radius r with g(r) = lam*theta*w_sigma(r, a) <= r.

    lam, theta, mu and omega are nondecreasing in r (``BoundData.validate``),
    so g is too, and its iterates from r = 0 rise but never pass a feasible
    r' (r <= r' gives g(r) <= g(r') <= r').  So the first iterate with
    g(r) <= r is the least feasible radius, exactly.  An iterate with
    g(r) > R, or where the map or its series fails, proves that none up to
    R works.  After ``_CERTIFY_STEPS`` iterates R decides: a g nearly linear
    with slope near 1 below its fixed point creeps that slowly, and is then
    certified at R, soundly but not at the least radius.  Infeasibility is
    a result, not an error: the certificate is then evaluated at R.  A start
    that already solves the equation (a = 0) is certified at r = 0, with
    w = 0 and velo_bound = mu(0).
    """
    if not (a >= 0.0 and np.isfinite(a)):
        raise ArgumentError("initial residual norm a must be finite and nonnegative")
    bounds.validate(sigma)
    R = bounds.R
    r = 0.0
    for k in range(_CERTIFY_STEPS):
        cert = _certificate_at(bounds, sigma, a, r)
        if cert.feasible:
            return cert
        if not cert.condition_value <= R:
            return _certificate_at(bounds, sigma, a, R, (
                f"no feasible radius in [0, {R:g}]: at iterate {k}, r={r:.6g}, "
                + (cert.diagnostics or f"the condition value {cert.condition_value!r} exceeds R")))
        r = cert.condition_value
    cert = _certificate_at(bounds, sigma, a, R)
    return replace(cert, diagnostics=(
        f"the least radius not reached in {_CERTIFY_STEPS} iterates (reached r={r:.6g}); "
        + ("certified at R, which is not the least radius" if cert.feasible else "R fails: "
           + (cert.diagnostics or f"the condition value {cert.condition_value!r} exceeds R"))))


# kept as the span target "majorant.apriori" of bench/tracer.py
def apriori_bound(cert: MajorantCertificate, n: int) -> float:
    """Error bound computable before the run: lam*theta*w(r, d^(n)(r, a))."""
    return apriori_bounds(cert, n)[n]


def apriori_bounds(cert: MajorantCertificate, n_max: int) -> list[float]:
    """``apriori_bound`` for n = 0..n_max, from one pass over the iterates of a."""
    if not cert.feasible:
        raise ArgumentError("a priori bounds require a feasible certificate")
    if n_max < 0:
        raise ArgumentError("n_max must be >= 0")
    rmap = cert.relaxation_map()
    out = []
    dn = float(cert.a)
    for _ in range(n_max + 1):
        out.append(rmap.lt * rmap.sum(dn))
        dn = float(rmap(dn))
    return out


# span target "majorant.aposteriori" of bench/tracer.py; methods.solve calls it by name
def aposteriori_bound(cert: MajorantCertificate, res_norm: float) -> float:
    """Error bound lam*theta*w(r, ||f(x_n)||) from the observed residual; see RelaxationMap.sum."""
    rmap = cert.relaxation_map()
    return rmap.lt * rmap.sum(res_norm)
