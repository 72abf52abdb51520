import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

import gradcert as gc
from gradcert import cli, majorant
from gradcert.errors import ArgumentError, AssumptionError, DivergenceError


# --- independent oracles ------------------------------------------------------

def oracle_series(d, phi, rtol=1e-16, cap=10**7):
    """Direct summation of the iterate series, independent of majorant_sum."""
    total, term = 0.0, float(phi)
    for _ in range(cap):
        total += term
        nxt = d(term)
        if nxt <= 0.0:
            return total
        q = nxt / term
        if q < 1.0 and nxt / (1.0 - q) < rtol * total:
            return total
        term = nxt
    raise RuntimeError("oracle series did not converge")


def oracle_quadratic_min(nu, sigma, beta):
    """Numerically minimize 1 - 2 L nu beta + sigma L^2 beta^2 over L >= 0."""
    res = minimize_scalar(lambda L: 1.0 - 2.0 * L * nu * beta + sigma * (L * beta) ** 2,
                          bounds=(0.0, 4.0 / (sigma * beta)), method="bounded",
                          options={"xatol": 1e-13})
    return math.sqrt(max(0.0, res.fun))


def geometric_case(mu=0.5, lt=1.0, L=1.0, R=10.0):
    return gc.BoundData(lam=lt, theta=1.0, omega=gc.LipschitzModulus(L), R=R, mu=mu)


def d_ref(phi, mu=0.5, lt=1.0, L=1.0, sigma=1.0):
    return mu * phi + sigma * 0.5 * L * (lt * phi) ** 2


# Frozen from oracle_series(d_ref, 0.2) at 1e-16 tolerance.  The independent
# summation gives 0.4606664756...; the functional equation and the upper
# bound phi^2/(phi - d) = 0.5 both confirm it.
W_CASE = 0.46066647562736907

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_oracle_reproduces_frozen_value():
    assert oracle_series(d_ref, 0.2) == pytest.approx(W_CASE, abs=1e-13)
    assert W_CASE <= 0.2**2 / (0.2 - d_ref(0.2)) + 1e-15


# --- integrated modulus -------------------------------------------------------

def test_integrated_modulus_lipschitz():
    b = geometric_case(L=1.0)
    assert b.omega.integral(1.0, 0.5) == pytest.approx(0.125, abs=0)


def test_integrated_modulus_zero_t():
    for om in (gc.LipschitzModulus(2.0), gc.HolderModulus(2.0, 0.5),
               gc.TabulatedModulus([0.0, 1.0], [0.0, 3.0])):
        b = gc.BoundData(lam=1.0, theta=1.0, omega=om, R=1.0, mu=0.1)
        assert b.omega.integral(0.5, 0.0) == 0.0


def test_integrated_modulus_holder_vs_quadrature():
    om = gc.HolderModulus(2.0, 0.5)
    b = gc.BoundData(lam=1.0, theta=1.0, omega=om, R=1.0, mu=0.1)
    got = b.omega.integral(0.0, 1.0)
    assert got == pytest.approx(4.0 / 3.0, rel=1e-14)
    num, _ = quad(lambda t: 2.0 * math.sqrt(t), 0.0, 1.0, epsabs=1e-13)
    assert got == pytest.approx(num, abs=1e-11)


def test_integrated_modulus_tabulated_vs_quadrature():
    ts = [0.0, 0.5, 1.0, 2.0]
    ws = [0.0, 0.3, 0.4, 1.0]
    om = gc.TabulatedModulus(ts, ws)
    b = gc.BoundData(lam=1.0, theta=1.0, omega=om, R=1.0, mu=0.1)
    for t in (0.25, 0.5, 0.9, 1.7, 2.0, 3.5):
        num, _ = quad(lambda u: float(np.interp(min(u, 2.0), ts, ws)), 0.0, t,
                      epsabs=1e-13, limit=200)
        assert b.omega.integral(0.0, t) == pytest.approx(num, abs=1e-10)


def test_tabulated_modulus_validation():
    with pytest.raises(ArgumentError):
        gc.TabulatedModulus([0.1, 1.0], [0.0, 1.0])  # must start at t=0
    with pytest.raises(ArgumentError):
        gc.TabulatedModulus([0.0, 1.0], [0.0, -1.0])  # decreasing
    with pytest.raises(ArgumentError):
        gc.TabulatedModulus([0.0, 0.0], [0.0, 1.0])  # non-increasing grid


# --- relaxation map ------------------------------------------------------------

def iterate(d, phi, n):
    """n-fold composition of the relaxation map d; n = 0 returns phi."""
    for _ in range(n):
        phi = d(phi)
    return phi


def test_relax_hand_value():
    # 0.5*0.2 + 0.5*0.2^2 = 0.12
    assert gc.RelaxationMap(geometric_case(), 1.0, 1.0)(0.2) == pytest.approx(0.12, rel=1e-15)


def test_relax_linear_when_omega_zero():
    b = geometric_case(L=0.0)
    for phi in (0.0, 0.3, 1.7):
        assert gc.RelaxationMap(b, 1.0, 2.0)(phi) == pytest.approx(0.5 * phi, abs=0)


def test_relax_at_zero():
    assert gc.RelaxationMap(geometric_case(), 2.0, 1.0)(0.0) == 0.0


def test_relax_iterate_identity_at_zero_steps():
    assert iterate(gc.RelaxationMap(geometric_case(), 1.0, 1.0), 0.37, 0) == 0.37


def test_relax_iterate_geometric():
    b = geometric_case(L=0.0)
    assert iterate(gc.RelaxationMap(b, 1.0, 1.0), 1.0, 3) == pytest.approx(0.125, rel=1e-15)


def test_relax_iterate_two_compositions():
    got = iterate(gc.RelaxationMap(geometric_case(), 1.0, 1.0), 0.2, 2)
    assert got == pytest.approx(0.0672, rel=1e-12)
    assert got == pytest.approx(d_ref(d_ref(0.2)), rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(mu=st.floats(0.0, 0.85), L=st.floats(0.05, 4.0), lt=st.floats(0.2, 2.5),
       sigma=st.floats(1.0, 3.0))
def test_relax_increasing_and_convex(mu, L, lt, sigma):
    b = gc.BoundData(lam=lt, theta=1.0, omega=gc.LipschitzModulus(L), R=10.0, mu=mu)
    phis = np.linspace(0.0, 2.0, 41)
    d = gc.RelaxationMap(b, sigma, 1.0)
    vals = [d(p) for p in phis]
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-14)          # increasing
    assert np.all(np.diff(diffs) >= -1e-12)  # convex


# --- fixed point ---------------------------------------------------------------

def test_fixed_point_closed_forms():
    # phi = mu phi + sigma*(L lt^2/2) phi^2  =>  phi* = 2(1-mu)/(sigma L lt^2)
    got1 = gc.smallest_fixed_point(geometric_case(), 1.0, 1.0)
    assert got1 == pytest.approx(1.0, abs=1e-9)
    got2 = gc.smallest_fixed_point(geometric_case(), 2.0, 1.0)
    assert got2 == pytest.approx(0.5, abs=1e-9)


def test_fixed_point_none_for_zero_omega():
    assert gc.smallest_fixed_point(geometric_case(L=0.0), 1.0, 1.0) is None


def test_fixed_point_rejects_noncontracting_slope():
    b = geometric_case(mu=1.0)
    with pytest.raises(AssumptionError):
        gc.smallest_fixed_point(b, 1.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(mu=st.floats(0.0, 0.89), L=st.floats(0.05, 4.0), lt=st.floats(0.2, 2.5),
       sigma=st.floats(1.0, 3.0))
def test_fixed_point_matches_closed_form(mu, L, lt, sigma):
    b = gc.BoundData(lam=lt, theta=1.0, omega=gc.LipschitzModulus(L), R=10.0, mu=mu)
    expected = 2.0 * (1.0 - mu) / (sigma * L * lt * lt)
    got = gc.smallest_fixed_point(b, sigma, 1.0)
    assert got is not None
    assert got == pytest.approx(expected, rel=1e-8, abs=1e-10)


# --- majorant series -----------------------------------------------------------

def test_majorant_sum_geometric():
    b = geometric_case(L=0.0)
    assert gc.majorant_sum(b, 1.0, 1.0, 0.2) == pytest.approx(0.4, rel=1e-11)


def test_majorant_sum_frozen_case():
    got = gc.majorant_sum(geometric_case(), 1.0, 1.0, 0.2)
    assert got == pytest.approx(W_CASE, rel=1e-9)
    assert got <= 0.5 + 1e-12  # phi^2/(phi - d(phi)) = 0.04/0.08


def test_majorant_sum_zero():
    assert gc.majorant_sum(geometric_case(), 1.0, 1.0, 0.0) == 0.0


def test_majorant_sum_divergence_at_fixed_point():
    with pytest.raises(DivergenceError):
        gc.majorant_sum(geometric_case(), 1.0, 1.0, 1.0)
    with pytest.raises(DivergenceError):
        gc.majorant_sum(geometric_case(), 1.0, 1.0, 1.7)


@settings(max_examples=80, deadline=None)
@given(mu=st.floats(0.0, 0.85), L=st.floats(0.05, 4.0), lt=st.floats(0.2, 2.5),
       sigma=st.floats(1.0, 3.0), frac=st.floats(0.01, 0.9))
def test_majorant_sum_functional_equation(mu, L, lt, sigma, frac):
    b = gc.BoundData(lam=lt, theta=1.0, omega=gc.LipschitzModulus(L), R=10.0, mu=mu)
    phi = frac * gc.smallest_fixed_point(b, sigma, 1.0)
    w = gc.majorant_sum(b, sigma, 1.0, phi)
    d = gc.RelaxationMap(b, sigma, 1.0)
    dphi = d(phi)
    w_next = gc.majorant_sum(b, sigma, 1.0, dphi)
    assert w == pytest.approx(phi + w_next, rel=1e-9)
    assert w <= phi * phi / (phi - dphi) * (1.0 + 1e-12)
    assert w >= phi
    # iterates decrease strictly below the fixed point
    its = [iterate(d, phi, n) for n in range(6)]
    assert all(b2 <= a2 for a2, b2 in zip(its, its[1:]))


def test_majorant_sum_against_series_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        mu = rng.uniform(0.0, 0.85)
        L = rng.uniform(0.05, 4.0)
        lt = rng.uniform(0.2, 2.5)
        sigma = rng.uniform(1.0, 3.0)
        b = gc.BoundData(lam=lt, theta=1.0, omega=gc.LipschitzModulus(L), R=10.0, mu=mu)
        phi = 0.5 * gc.smallest_fixed_point(b, sigma, 1.0)
        ref = oracle_series(lambda t: d_ref(t, mu, lt, L, sigma), phi)
        assert gc.majorant_sum(b, sigma, 1.0, phi) == pytest.approx(ref, rel=1e-9)


# --- contraction-factor formulas ------------------------------------------------

def test_mu_min_family_examples():
    assert gc.mu_min_family(1.0, 1.0) == 0.0
    assert gc.mu_min_family(0.6, 1.0) == pytest.approx(0.8, rel=1e-15)
    assert gc.mu_min_family(0.8, 2.0) == pytest.approx(math.sqrt(0.68), rel=1e-15)


def test_mu_min_family_matches_quadratic_form_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        nu = rng.uniform(0.05, 1.0)
        sigma = rng.uniform(1.0, 3.0)
        beta = rng.uniform(0.1, 10.0)
        assert gc.mu_min_family(nu, sigma) == pytest.approx(
            oracle_quadratic_min(nu, sigma, beta), abs=1e-10)


def test_mu_min_family_rejects_bad_nu():
    with pytest.raises(ArgumentError):
        gc.mu_min_family(0.0, 1.0)
    with pytest.raises(ArgumentError):
        gc.mu_min_family(1.2, 1.0)


def test_mu_altman_family_examples():
    assert gc.mu_altman_family(1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert gc.mu_altman_family(1.0, 2.0, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert gc.mu_altman_family(0.8, 1.0, 1.0) == pytest.approx(0.75, rel=1e-12)


def test_mu_altman_family_validity_boundary():
    for vartheta, sigma in ((1.0, 1.0), (1.5, 2.0), (0.7, 1.2)):
        thr = gc.altman_validity_threshold(vartheta, sigma)
        with pytest.raises(AssumptionError):
            gc.mu_altman_family(min(thr, 1.0), vartheta, sigma)
        if thr < 1.0:
            mu = gc.mu_altman_family(thr * (1.0 + 1e-9), vartheta, sigma)
            assert mu == pytest.approx(1.0, abs=1e-4)


# --- certificates ---------------------------------------------------------------

def test_certify_geometric_case():
    b = gc.BoundData(lam=1.0, theta=1.0, omega=gc.LipschitzModulus(0.0), R=1.0, mu=0.5)
    cert = gc.certify(b, 1.0, 0.2)
    assert cert.feasible
    assert cert.r == pytest.approx(0.4, abs=1e-9)
    assert cert.w_of_a == pytest.approx(0.4, rel=1e-9)
    assert cert.phi_star is None
    assert cert.velo_bound == pytest.approx(0.5, rel=1e-12)
    assert cert.linear_rate == 0.5


def test_certify_frozen_quadratic_case():
    # bounds constant in r, so the smallest feasible radius equals w(a)
    cert = gc.certify(geometric_case(), 1.0, 0.2)
    assert cert.feasible
    assert cert.r == pytest.approx(W_CASE, abs=1e-6)
    assert cert.a < cert.phi_star
    assert cert.w_of_a >= cert.a
    assert cert.w_of_a <= cert.a**2 / (cert.a - d_ref(cert.a)) * (1 + 1e-12)


def test_certify_infeasible():
    b = gc.BoundData(lam=1.0, theta=1.0, omega=gc.LipschitzModulus(1.0), R=0.3, mu=0.9)
    cert = gc.certify(b, 1.0, 0.2)
    assert not cert.feasible
    assert cert.diagnostics
    # w >= a/(1-mu) = 2 > R, so the condition fails at every radius
    assert cert.condition_value > b.R or math.isinf(cert.condition_value)


def test_certify_rejects_nonpositive_a():
    # a = 0, a start that already solves the equation, is certified (below);
    # a negative or non-finite residual norm is refused
    for a in (-1e-300, -0.2, math.inf, math.nan):
        with pytest.raises(ArgumentError, match="finite and nonnegative"):
            gc.certify(geometric_case(), 1.0, a)


def test_certify_a_start_that_solves_the_equation_at_r_zero():
    # mu grows with r; velo_bound is mu(0), the limit of d(a)/a as a -> 0
    b = gc.BoundData(lam=2.0, theta=1.0, omega=gc.LipschitzModulus(1.0), R=1.0,
                     mu=lambda r: 0.3 + 0.1 * r)
    cert = gc.certify(b, 1.0, 0.0)
    assert cert.feasible and cert.diagnostics == ""
    assert (cert.r, cert.w_of_a, cert.condition_value) == (0.0, 0.0, 0.0)
    assert cert.velo_bound == cert.linear_rate == 0.3
    assert gc.apriori_bounds(cert, 3) == [0.0] * 4


def _linear_case(lam):
    # w = a/(1 - mu) = 1 at a = 1, so the condition value is lam(r)
    return gc.BoundData(lam=lam, theta=1.0, omega=gc.LipschitzModulus(0.0), R=1.0, mu=0.0)


def test_certify_finds_a_narrow_feasible_window():
    # g(r) = lam(r) is feasible only on about [0.501, 0.5233]
    b = _linear_case(lambda r: 0.501 + 1000.0 * max(0.0, r - 0.501) ** 2)
    cert = gc.certify(b, 1.0, 1.0)
    assert cert.feasible
    assert cert.r == 0.501
    assert cert.diagnostics == ""


def test_certify_infeasible_at_the_iterate_cap():
    # g(r) = r + 1e-6 > r everywhere; its iterates creep by 1e-6
    cert = gc.certify(_linear_case(lambda r: 1e-6 + r), 1.0, 1.0)
    assert not cert.feasible
    assert cert.r == 1.0
    assert cert.condition_value > 1.0
    assert f"not reached in {majorant._CERTIFY_STEPS} iterates" in cert.diagnostics
    assert "R fails" in cert.diagnostics


def test_certify_at_R_at_the_iterate_cap():
    # the least radius 0.1 is a fixed point of slope 1 - 1e-7, out of the cap's reach
    cert = gc.certify(_linear_case(lambda r: 1e-8 + (1.0 - 1e-7) * r), 1.0, 1.0)
    assert cert.feasible
    assert cert.r == 1.0
    assert cert.condition_value <= 1.0
    assert f"not reached in {majorant._CERTIFY_STEPS} iterates" in cert.diagnostics
    assert "not the least radius" in cert.diagnostics


def _condition_holds(bounds, sigma, a, r):
    try:
        rmap = gc.RelaxationMap(bounds, sigma, r)
        return rmap.lt * rmap.sum(a) <= r
    except (AssumptionError, DivergenceError):
        return False


def _least_radius_cases():
    for c in (0.05, 0.1, 0.2, 0.3):
        p = gc.scalar_quad(c=c)
        for fam in gc.HILBERT_FAMILIES:
            yield f"scalar_quad-{c}-{fam}", p, gc.euclidean(), gc.MethodSpec(fam), None
    for fam in gc.HILBERT_FAMILIES:
        yield f"quad2d-{fam}", gc.quad2d(), gc.euclidean(), gc.MethodSpec(fam), None
        p = gc.linear_spd(1, 4, 6, rotate=True, seed=3)
        yield f"linear_spd-{fam}", p, gc.euclidean(), gc.MethodSpec(fam), None
    for config in sorted(CONFIGS.glob("*.json")):
        rc = cli._resolved(cli.load_config(str(config)))
        if rc["problem"]["name"]:
            problem, space, method = cli._build(rc)
            yield config.stem, problem, space, method, rc


@pytest.mark.parametrize("case", list(_least_radius_cases()), ids=lambda case: case[0])
def test_certify_returns_the_least_feasible_radius(case):
    _, problem, space, method, rc = case
    if rc is None:
        bounds = problem.certified_bounds.bound_data(method, space.sigma)
    else:
        bounds = cli._resolve_bounds(rc, problem, method, space)[0]
    a = gc.norm(space, problem.f(problem.x0))
    cert = gc.certify(bounds, space.sigma, a)
    if cert.feasible:
        assert cert.diagnostics == ""
        assert _condition_holds(bounds, space.sigma, a, cert.r)
        assert not _condition_holds(bounds, space.sigma, a, cert.r * (1.0 - 1e-9))
    else:
        assert cert.r == bounds.R
        assert not _condition_holds(bounds, space.sigma, a, bounds.R)


def test_apriori_bound_examples():
    b = geometric_case(L=0.0)
    cert = gc.certify(b, 1.0, 0.2)
    assert gc.apriori_bound(cert, 0) == pytest.approx(cert.condition_value, rel=1e-12)
    assert gc.apriori_bound(cert, 3) == pytest.approx(2.0 * 0.025, rel=1e-9)


def test_apriori_bound_composes_relax_and_sum():
    b = geometric_case()
    cert = gc.certify(b, 1.0, 0.2)
    d1 = gc.RelaxationMap(b, 1.0, cert.r)(0.2)
    expected = gc.majorant_sum(b, 1.0, cert.r, d1)
    assert gc.apriori_bound(cert, 1) == pytest.approx(expected, rel=1e-12)


def test_apriori_bound_requires_feasible():
    b = gc.BoundData(lam=1.0, theta=1.0, omega=gc.LipschitzModulus(1.0), R=0.3, mu=0.9)
    cert = gc.certify(b, 1.0, 0.2)
    with pytest.raises(ArgumentError):
        gc.apriori_bound(cert, 1)


def test_aposteriori_bound_examples():
    b = geometric_case(L=0.0)
    cert = gc.certify(b, 1.0, 0.2)
    assert gc.aposteriori_bound(cert, 0.0) == 0.0
    assert gc.aposteriori_bound(cert, 0.1) == pytest.approx(0.2, rel=1e-11)
    bq = geometric_case()
    certq = gc.certify(bq, 1.0, 0.2)
    assert gc.aposteriori_bound(certq, 0.2) == pytest.approx(W_CASE, rel=1e-9)


def test_aposteriori_bound_divergence():
    bq = geometric_case()
    certq = gc.certify(bq, 1.0, 0.2)
    with pytest.raises(DivergenceError):
        gc.aposteriori_bound(certq, 1.1)


def test_rate_bounds_examples():
    b = geometric_case(L=0.0)
    cert = gc.certify(b, 1.0, 0.2)
    assert (cert.velo_bound, cert.linear_rate) == (pytest.approx(0.5), pytest.approx(0.5))
    bq = geometric_case()
    certq = gc.certify(bq, 1.0, 0.2)
    velo, rate = certq.velo_bound, certq.linear_rate
    assert velo == pytest.approx(0.6, rel=1e-12)  # d(r, 0.2)/0.2 = 0.12/0.2
    assert rate == 0.5
    # velo tends to mu as a -> 0
    tiny = gc.certify(bq, 1.0, 1e-9)
    v_tiny = tiny.velo_bound
    assert v_tiny == pytest.approx(0.5, abs=1e-8)


# --- bound-data validation -------------------------------------------------------

def test_bound_data_requires_mu_or_nu():
    with pytest.raises(ArgumentError):
        gc.BoundData(lam=1.0, theta=1.0, omega=gc.LipschitzModulus(0.0), R=1.0)
    # nu gives mu only through a method's contraction rule
    with pytest.raises(ArgumentError, match="need the method"):
        gc.BoundData(lam=1.0, theta=1.0, omega=gc.LipschitzModulus(0.0), R=1.0, nu=0.5)
    gc.BoundData(lam=1.0, theta=1.0, omega=gc.LipschitzModulus(0.0), R=1.0, mu=0.5)


def _bounds(lam=1.0, theta=1.0, omega=0.0, **mu_nu):
    """BoundData on R = 1: constants, but for the fields given; omega a modulus or a Lipschitz L."""
    mu_nu = mu_nu or {"mu": 0.5}
    if "nu" in mu_nu:
        mu_nu["method"] = gc.MethodSpec(gc.MIN_RESIDUAL)
    if not isinstance(omega, (gc.HolderModulus, gc.TabulatedModulus)):
        omega = gc.LipschitzModulus(omega)
    return gc.BoundData(lam=lam, theta=theta, omega=omega, R=1.0, **mu_nu)


_NOT_FINITE_L = "Holder constant L must be finite and >= 0"
_BAD_TS = "tabulated t-grid must be finite and strictly increasing"


@pytest.mark.parametrize("make, refusal", [
    # refused: a bound that falls with r (nu that rises), or a negative L
    (lambda: _bounds(lam=lambda r: 1.0 - r / 2), "lam violates monotonicity"),
    (lambda: _bounds(theta=lambda r: 2.0 - r), "theta violates monotonicity"),
    (lambda: _bounds(mu=lambda r: 0.5 - r / 4), "mu violates monotonicity"),
    (lambda: _bounds(nu=lambda r: 0.5 + r / 4), "nu violates monotonicity"),
    (lambda: _bounds(omega=gc.LipschitzModulus(lambda r: 1.0 - r / 2)), "L violates monotonicity"),
    (lambda: _bounds(omega=-0.5), _NOT_FINITE_L),
    (lambda: _bounds(omega=gc.HolderModulus(-1.0, 0.5)), _NOT_FINITE_L),
    (lambda: _bounds(omega=gc.LipschitzModulus(lambda r: r - 0.5)), r"L\(0.0\) = -0.5"),
    # refused since moduli check their shape when built: a non-finite L or t-node
    (lambda: _bounds(omega=math.nan), _NOT_FINITE_L),
    (lambda: _bounds(omega=math.inf), _NOT_FINITE_L),
    (lambda: _bounds(omega=gc.HolderModulus(math.inf, 0.5)), _NOT_FINITE_L),
    (lambda: _bounds(omega=gc.LipschitzModulus(lambda r: math.nan if r > 0.5 else 1.0)),
     r"L\(0.53125\) = nan"),
    (lambda: _bounds(omega=gc.TabulatedModulus([0.0, math.nan], [0.0, 1.0])), _BAD_TS),
    (lambda: _bounds(omega=gc.TabulatedModulus([0.0, 1.0, math.nan], [0.0, 1.0, 1.0])), _BAD_TS),
    (lambda: _bounds(omega=gc.TabulatedModulus([0.0, 1.0, math.inf], [0.0, 1.0, 1.0])), _BAD_TS),
    # accepted
    (lambda: _bounds(), None),
    (lambda: _bounds(nu=0.8), None),
    (lambda: _bounds(lam=lambda r: 1.0 - 1e-13 * r), None),  # within the rounding slack
    (lambda: _bounds(lam=lambda r: 1.0 + r, theta=lambda r: 1.0 + r, mu=lambda r: 0.5 + r / 4,
                     omega=gc.LipschitzModulus(lambda r: 1.0 + r)), None),
    (lambda: _bounds(lam=lambda r: 1.0 + r, nu=lambda r: 1.0 / (1.0 + r), omega=1.0), None),
    (lambda: _bounds(omega=gc.HolderModulus(2.0, 0.5)), None),
    (lambda: _bounds(omega=gc.TabulatedModulus([0.0, 1.0, 2.0], [0.0, 0.5, 0.5])), None),
], ids=["lam", "theta", "mu", "nu", "L(r)", "negative-L", "negative-holder-L", "negative-L(r)",
        "nan-L", "inf-L", "inf-holder-L", "nan-L(r)", "nan-ts", "nan-last-ts", "inf-ts",
        "constants", "constant-nu", "slack", "rising", "falling-nu", "holder", "tabulated"])
def test_bound_data_monotonicity_checked(make, refusal):
    if refusal is None:
        make().validate()
    else:
        with pytest.raises(ArgumentError, match=refusal):
            make().validate()


class _CountedFloat(float):
    """A float that counts how often it is read as a float."""

    def __float__(self):
        self.reads = getattr(self, "reads", 0) + 1
        return float.__float__(self)


@pytest.mark.parametrize("omega", [gc.LipschitzModulus(2.0), gc.HolderModulus(2.0, 0.5),
                                   gc.TabulatedModulus([0.0, 1.0], [0.0, 3.0])],
                         ids=["lipschitz", "holder", "tabulated"])
def test_validate_reads_functions_of_r_on_the_grid_and_constants_once(monkeypatch, omega):
    radii = []

    def lam(r):
        radii.append(r)
        return 1.0

    theta = _CountedFloat(1.0)
    monkeypatch.setattr(omega, "integral", lambda *a: pytest.fail("validate evaluated omega"))
    gc.BoundData(lam=lam, theta=theta, omega=omega, R=3.0, mu=0.5).validate()
    assert radii == list(np.linspace(0.0, 3.0, majorant._VALIDATE_GRID))
    assert theta.reads == 1


def test_mu_derivation_uses_sigma():
    b = gc.BoundData(lam=1.0, theta=1.0, omega=gc.LipschitzModulus(0.0), R=1.0,
                     nu=0.8, method=gc.MethodSpec(gc.MIN_RESIDUAL))
    assert b.mu_at(0.5, 1.0) == pytest.approx(0.6, rel=1e-12)
    assert b.mu_at(0.5, 2.0) == pytest.approx(math.sqrt(1 - 0.32), rel=1e-12)


@pytest.mark.parametrize("family, vartheta", [
    (gc.MIN_RESIDUAL, 1.0), (gc.MIN_CO_ERROR, 1.0), (gc.STEEPEST_DESCENT, 1.0),
    (gc.ALTMAN_STEEPEST_DESCENT, 1.7), (gc.ALTMAN_MIN_ERROR, 0.9),
    (gc.BANACH_ALTMAN_STEEPEST_DESCENT, 1.3)])
def test_mu_derivation_is_the_method_contraction_rule(family, vartheta):
    # one rule: mu_min_family for a minimising step, and mu_altman_family at the
    # method's own vartheta for a relaxed one
    method = gc.MethodSpec(family, vartheta)
    b = gc.BoundData(lam=1.0, theta=1.0, omega=gc.LipschitzModulus(0.0), R=1.0,
                     nu=0.95, method=method)
    for sigma in (1.0, 1.5):
        want = (gc.mu_min_family(0.95, sigma) if method.minimising
                else gc.mu_altman_family(0.95, vartheta, sigma))
        assert b.mu_at(0.5, sigma) == method.mu(0.95, sigma) == want


# --- upper-bounding series and closed-form fixed points -----------------------------

moduli = st.one_of(
    st.builds(gc.LipschitzModulus, st.floats(0.05, 4.0)),
    st.builds(gc.HolderModulus, st.floats(0.05, 4.0), st.floats(0.3, 1.0)))


def _map(omega, mu, lt, sigma):
    b = gc.BoundData(lam=lt, theta=1.0, omega=omega, R=10.0, mu=mu)
    return gc.RelaxationMap(b, sigma, 1.0)


@settings(max_examples=80, deadline=None)
@given(omega=moduli, mu=st.floats(0.0, 0.9), lt=st.floats(0.2, 2.5),
       sigma=st.floats(1.0, 3.0), frac=st.floats(0.01, 0.95))
def test_series_brackets_the_sum(omega, mu, lt, sigma, frac):
    d = _map(omega, mu, lt, sigma)
    a = frac * d.phi_star
    w = d.sum(a)
    # every partial sum stays below w, up to the rounding of the partial sums
    partial, term = 0.0, a
    for _ in range(20000):
        partial += term
        assert partial <= w * (1.0 + 1e-14)
        term = d(term)
        if term <= 1e-18 * partial:
            break
    # the ratio d(t)/t lies in [mu, d(a)/a] along the iterates
    assert a / (1.0 - mu) <= w * (1.0 + 1e-14)
    assert w <= a / (1.0 - d(a) / a) * (1.0 + 1e-14)


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(0.0, 0.999), lt=st.floats(0.2, 2.5), sigma=st.floats(1.0, 3.0),
       a=st.floats(1e-6, 1e3))
def test_series_is_exact_for_zero_modulus(mu, lt, sigma, a):
    d = _map(gc.LipschitzModulus(0.0), mu, lt, sigma)
    assert d.phi_star is None
    assert d.sum(a) == a / (1.0 - mu)


@settings(max_examples=80, deadline=None)
@given(omega=moduli, mu=st.floats(0.0, 0.9), lt=st.floats(0.2, 2.5),
       sigma=st.floats(1.0, 3.0))
def test_closed_form_fixed_point_is_fixed(omega, mu, lt, sigma):
    d = _map(omega, mu, lt, sigma)
    ps = d.phi_star
    assert ps > 0.0
    assert d(ps) == pytest.approx(ps, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(L=st.floats(0.05, 4.0), mu=st.floats(0.0, 0.9), lt=st.floats(0.2, 2.5),
       sigma=st.floats(1.0, 3.0))
def test_closed_form_fixed_point_matches_tabulated_scan(L, mu, lt, sigma):
    ps = _map(gc.LipschitzModulus(L), mu, lt, sigma).phi_star
    # the same modulus, tabulated far enough out to contain lt * phi*
    T = 4.0 * lt * ps
    scanned = _map(gc.TabulatedModulus([0.0, T], [0.0, L * T]), mu, lt, sigma).phi_star
    assert scanned == pytest.approx(ps, rel=1e-12, abs=0.0)


TABLE = ([0.0, 0.5, 1.5, 3.0], [0.0, 0.4, 0.9, 2.0])


@pytest.mark.parametrize("table, mu, lt, sigma, segment", [
    (TABLE, 0.9, 1.2, 1.5, 0),
    (TABLE, 0.6, 1.2, 1.5, 1),
    (TABLE, 0.3, 0.6, 1.5, 2),
    (TABLE, 0.3, 0.3, 1.5, 3),  # past the last node, where omega is constant
    (([0.0, 0.2, 0.6, 0.8], [0.0, 1.0, 1.0, 8.0]), 0.3, 1.0, 1.0, 1),  # a flat segment
])
def test_tabulated_fixed_point_matches_brentq(table, mu, lt, sigma, segment):
    d = _map(gc.TabulatedModulus(*table), mu, lt, sigma)
    ps = d.phi_star
    assert np.searchsorted(table[0], lt * ps) - 1 == segment
    # d - id is negative just above 0 and positive far out
    want = brentq(lambda phi: d(phi) - phi, 1e-9, 1e3, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    assert ps == pytest.approx(want, rel=1e-12, abs=0.0)
    assert d(ps) == pytest.approx(ps, rel=1e-12, abs=0.0)


def test_tabulated_fixed_point_none_when_the_last_slope_cannot_catch_up():
    # past the last node d - id has slope sigma * 0.1 * lt + mu - 1 < 0
    d = _map(gc.TabulatedModulus([0.0, 1.0], [0.0, 0.1]), 0.5, 1.0, 1.0)
    assert d.phi_star is None


def _count_integral_calls(monkeypatch, omega):
    cls = type(omega)
    calls = [0]
    integral = cls.integral

    def counted(self, r, t):
        calls[0] += 1
        return integral(self, r, t)

    monkeypatch.setattr(cls, "integral", counted)
    return calls


def test_certify_closed_form_spd_is_cheap_and_sound(monkeypatch):
    p = gc.linear_spd(1, 25, 10, rotate=True, seed=15)
    bounds = p.certified_bounds.bound_data(gc.MethodSpec(gc.MIN_RESIDUAL), 1.0)
    calls = _count_integral_calls(monkeypatch, bounds.omega)
    a = gc.norm(gc.euclidean(), p.f(p.x0))
    cert = gc.certify(bounds, 1.0, a)
    assert calls[0] <= 200
    assert cert.feasible
    mu = bounds.mu_at(cert.r, 1.0)
    lt = bounds.lam_at(cert.r) * bounds.theta_at(cert.r)
    assert cert.w_of_a == a / (1.0 - mu)
    assert cert.r >= lt * a / (1.0 - mu)


def test_certify_quad2d_config_integral_calls(monkeypatch, tmp_path):
    calls = _count_integral_calls(monkeypatch, gc.LipschitzModulus(0.2))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["certify", "--config", str(CONFIGS / "quad2d_certify.json"),
                     "--fixed-clock"]) == 3
    assert 0 < calls[0] <= 64  # 60: maps at r = 0, at its image past R, and at R


def _count_maps(monkeypatch):
    calls = [0]
    init = gc.RelaxationMap.__init__

    def counted(self, *args):
        calls[0] += 1
        init(self, *args)

    monkeypatch.setattr(gc.RelaxationMap, "__init__", counted)
    return calls


def test_certify_builds_two_maps_for_constant_bounds(monkeypatch):
    # the map at r = 0 gives the least radius, and the map there certifies it
    p = gc.linear_spd(1, 25, 10, rotate=True, seed=15)
    certified = p.certified_bounds.bound_data(gc.MethodSpec(gc.MIN_RESIDUAL), 1.0)
    h = gc.chandrasekhar(0.5, 20)
    estimated = gc.estimated_bound_data(h, gc.MethodSpec(gc.STEEPEST_DESCENT), gc.euclidean(),
                                        gc.SamplePlan(seed=7, n_points=8, n_dirs=16))
    calls = _count_maps(monkeypatch)
    for problem, bounds in ((p, certified), (h, estimated)):
        calls[0] = 0
        cert = gc.certify(bounds, 1.0, gc.norm(gc.euclidean(), problem.f(problem.x0)))
        assert cert.feasible
        assert calls[0] == 2
        assert gc.apriori_bounds(cert, 3) and calls[0] == 2  # the certificate's own map
