import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

import gradcert as gc
from gradcert import cli
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
    with pytest.raises(ArgumentError):
        gc.certify(geometric_case(), 1.0, 0.0)


def test_apriori_bound_examples():
    b = geometric_case(L=0.0)
    cert = gc.certify(b, 1.0, 0.2)
    assert gc.apriori_bound(cert, b, 0) == pytest.approx(cert.condition_value, rel=1e-12)
    assert gc.apriori_bound(cert, b, 3) == pytest.approx(2.0 * 0.025, rel=1e-9)


def test_apriori_bound_composes_relax_and_sum():
    b = geometric_case()
    cert = gc.certify(b, 1.0, 0.2)
    d1 = gc.RelaxationMap(b, 1.0, cert.r)(0.2)
    expected = gc.majorant_sum(b, 1.0, cert.r, d1)
    assert gc.apriori_bound(cert, b, 1) == pytest.approx(expected, rel=1e-12)


def test_apriori_bound_requires_feasible():
    b = gc.BoundData(lam=1.0, theta=1.0, omega=gc.LipschitzModulus(1.0), R=0.3, mu=0.9)
    cert = gc.certify(b, 1.0, 0.2)
    with pytest.raises(ArgumentError):
        gc.apriori_bound(cert, b, 1)


def test_aposteriori_bound_examples():
    b = geometric_case(L=0.0)
    cert = gc.certify(b, 1.0, 0.2)
    assert gc.aposteriori_bound(cert, b, 0.0) == 0.0
    assert gc.aposteriori_bound(cert, b, 0.1) == pytest.approx(0.2, rel=1e-11)
    bq = geometric_case()
    certq = gc.certify(bq, 1.0, 0.2)
    assert gc.aposteriori_bound(certq, bq, 0.2) == pytest.approx(W_CASE, rel=1e-9)


def test_aposteriori_bound_divergence():
    bq = geometric_case()
    certq = gc.certify(bq, 1.0, 0.2)
    with pytest.raises(DivergenceError):
        gc.aposteriori_bound(certq, bq, 1.1)


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
    with pytest.raises(ArgumentError):
        gc.BoundData(lam=1.0, theta=1.0, omega=gc.LipschitzModulus(0.0), R=1.0,
                     nu=0.5, step_family="bogus")


def test_bound_data_monotonicity_checked():
    bad = gc.BoundData(lam=lambda r: 1.0 - r, theta=1.0,
                       omega=gc.LipschitzModulus(0.0), R=1.0, mu=0.5)
    with pytest.raises(ArgumentError):
        bad.validate()
    good = gc.BoundData(lam=lambda r: 1.0 + r, theta=1.0,
                        omega=gc.LipschitzModulus(1.0), R=1.0,
                        nu=lambda r: 1.0 / (1.0 + r), step_family="min")
    good.validate()


def test_mu_derivation_uses_sigma():
    b = gc.BoundData(lam=1.0, theta=1.0, omega=gc.LipschitzModulus(0.0), R=1.0,
                     nu=0.8, step_family="min")
    assert b.mu_at(0.5, 1.0) == pytest.approx(0.6, rel=1e-12)
    assert b.mu_at(0.5, 2.0) == pytest.approx(math.sqrt(1 - 0.32), rel=1e-12)


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
    assert scanned == pytest.approx(ps, rel=1e-9, abs=1e-11)


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
    config = Path(__file__).resolve().parents[1] / "configs" / "quad2d_certify.json"
    calls = _count_integral_calls(monkeypatch, gc.LipschitzModulus(0.2))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["certify", "--config", str(config), "--fixed-clock"]) == 3
    assert 0 < calls[0] <= 2500
