import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradcert as gc
from gradcert.errors import ArgumentError
from gradcert.spaces import _AXIOM_BLOCK, _pnorm, _sample_blocks, _structured_pairs

P_VALUES = [2.0, 2.5, 3.0, 4.0, 7.0]


def vectors(min_dim=1, max_dim=5, lo=-100.0, hi=100.0):
    return st.integers(min_dim, max_dim).flatmap(
        lambda d: st.lists(
            st.floats(lo, hi, allow_nan=False, allow_infinity=False, width=64),
            min_size=d, max_size=d).map(np.array))


def rel_close(a, b, tol, scale=1.0):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b), scale)


# --- norms ------------------------------------------------------------------

def test_norm_euclidean_pythagorean():
    assert gc.norm(gc.euclidean(), [3.0, 4.0]) == pytest.approx(5.0, abs=0)


def test_norm_p4():
    # (1^4 + 1^4)^(1/4), evaluated independently
    expected = (1.0 + 1.0) ** 0.25
    assert gc.norm(gc.sequence_p(4), [1.0, 1.0]) == pytest.approx(expected, rel=1e-15)


def test_norm_zero_vector():
    for sp in (gc.euclidean(), gc.sequence_p(3)):
        assert gc.norm(sp, np.zeros(4)) == 0.0


def test_norm_rejects_nonfinite():
    with pytest.raises(ArgumentError):
        gc.norm(gc.euclidean(), [1.0, math.nan])
    with pytest.raises(ArgumentError):
        gc.norm(gc.sequence_p(2), [math.inf, 0.0])


def test_norm_matches_numpy_bit_for_bit():
    # norm checks the entries only when the result is not finite, so its
    # values must still be numpy's, for contiguous and strided vectors alike
    rng = np.random.default_rng(3)
    euc, lp = gc.euclidean(), gc.sequence_p(3)
    for dim in (1, 2, 7, 80):
        M = rng.standard_normal((dim, dim)) * 10.0 ** rng.uniform(-3, 3)
        for v in (M[0], M[:, 0], M[0, ::-1]):
            assert gc.norm(euc, v) == float(np.linalg.norm(v))
            assert gc.norm(lp, v) == _pnorm(np.ascontiguousarray(v), 3.0)
    # an overflowing sum of squares is inf, as in numpy, not an error
    with np.errstate(over="ignore"):
        assert gc.norm(euc, [1e200, 1e200]) == math.inf
    for bad in ([math.nan, 1.0], [-math.inf, 1.0]):
        with pytest.raises(ArgumentError):
            gc.norm(lp, bad)


def test_space_geometry_validation():
    with pytest.raises(ArgumentError):
        gc.sequence_p(1.5)
    with pytest.raises(ArgumentError):
        gc.SpaceGeometry("weird")
    assert gc.euclidean().sigma == 1.0
    assert gc.sequence_p(4).sigma == 3.0


# --- semiscalar product -----------------------------------------------------

def test_semiscalar_euclidean_dot():
    assert gc.semiscalar(gc.euclidean(), [1.0, 2.0], [3.0, 4.0]) == 11.0


def test_semiscalar_p4_hand_value():
    # ||x||^(2-p) * sum |x_i|^(p-1) sign(x_i) y_i with x=(1,1), y=(1,0):
    # (2^(1/4))^(-2) * 1 = 2^(-1/2)
    got = gc.semiscalar(gc.sequence_p(4), [1.0, 1.0], [1.0, 0.0])
    assert got == pytest.approx(2.0 ** -0.5, rel=1e-15)


def test_semiscalar_zero_first_argument():
    assert gc.semiscalar(gc.sequence_p(4), [0.0, 0.0], [3.0, -1.0]) == 0.0


@pytest.mark.parametrize("sp", [gc.euclidean(), gc.sequence_p(2), gc.sequence_p(4)],
                         ids=["euclidean", "p2", "p4"])
def test_semiscalar_rejects_nonfinite(sp):
    # the entries are read only when the result is not finite (so numpy may
    # warn first); x = 0 must still not hide a non-finite y behind J0 = 0
    for x, y in (([1.0, math.nan], [1.0, 1.0]), ([math.inf, 1.0], [1.0, 1.0]),
                 ([1.0, 2.0], [math.nan, 1.0]), ([1.0, 2.0], [-math.inf, math.inf]),
                 ([0.0, 0.0], [math.nan, 1.0]), ([0.0, 0.0], [1.0, math.inf])):
        with pytest.raises(ArgumentError), np.errstate(invalid="ignore"):
            gc.semiscalar(sp, x, y)
    # an overflowing sum is inf, not an error
    with np.errstate(over="ignore"):
        assert gc.semiscalar(sp, [1e200, 1e200], [1e200, 1e200]) == math.inf


def test_semiscalar_dimension_mismatch():
    with pytest.raises(ArgumentError):
        gc.semiscalar(gc.euclidean(), [1.0], [1.0, 2.0])


@settings(max_examples=150, deadline=None)
@given(x=vectors(), y=vectors())
def test_semiscalar_p2_equals_dot(x, y):
    if x.shape != y.shape:
        return
    sp = gc.sequence_p(2)
    assert rel_close(gc.semiscalar(sp, x, y), float(x @ y), 1e-12)


@settings(max_examples=120, deadline=None)
@given(x=vectors(), p=st.sampled_from(P_VALUES))
def test_pairing_reproduces_norm(x, p):
    sp = gc.sequence_p(p)
    assert rel_close(gc.semiscalar(sp, x, x), gc.norm(sp, x) ** 2, 1e-12)


@settings(max_examples=120, deadline=None)
@given(x=vectors(2, 4), y=vectors(2, 4), p=st.sampled_from(P_VALUES),
       lam=st.floats(-5, 5, allow_nan=False))
def test_first_slot_homogeneity(x, y, p, lam):
    if x.shape != y.shape:
        return
    sp = gc.sequence_p(p)
    lhs = gc.semiscalar(sp, lam * x, y)
    rhs = lam * gc.semiscalar(sp, x, y)
    assert rel_close(lhs, rhs, 1e-12, scale=gc.norm(sp, x) * gc.norm(sp, y) * abs(lam))


@settings(max_examples=120, deadline=None)
@given(x=vectors(3, 3), y1=vectors(3, 3), y2=vectors(3, 3),
       p=st.sampled_from(P_VALUES),
       a1=st.floats(-3, 3, allow_nan=False), a2=st.floats(-3, 3, allow_nan=False))
def test_second_slot_linearity(x, y1, y2, p, a1, a2):
    sp = gc.sequence_p(p)
    lhs = gc.semiscalar(sp, x, a1 * y1 + a2 * y2)
    rhs = a1 * gc.semiscalar(sp, x, y1) + a2 * gc.semiscalar(sp, x, y2)
    scale = gc.norm(sp, x) * (gc.norm(sp, y1) + gc.norm(sp, y2)) * (abs(a1) + abs(a2))
    assert rel_close(lhs, rhs, 1e-12, scale=scale)


@settings(max_examples=150, deadline=None)
@given(x=vectors(2, 4), y=vectors(2, 4), p=st.sampled_from(P_VALUES))
def test_semiscalar_bounded_by_norms(x, y, p):
    if x.shape != y.shape:
        return
    sp = gc.sequence_p(p)
    prod = gc.norm(sp, x) * gc.norm(sp, y)
    assert abs(gc.semiscalar(sp, x, y)) <= prod * (1.0 + 1e-12) + 1e-300


# --- duality map ------------------------------------------------------------

def test_duality_map_euclidean_identity():
    x = np.array([1.0, 2.0])
    assert np.array_equal(gc.duality_map(gc.euclidean(), x), x)


def test_duality_map_p4_hand_value():
    sp = gc.sequence_p(4)
    jx = gc.duality_map(sp, [1.0, 1.0])
    np.testing.assert_allclose(jx, [2 ** -0.5, 2 ** -0.5], rtol=1e-15)
    # both defining identities of the duality selection
    assert gc.semiscalar(sp, [1.0, 1.0], [1.0, 1.0]) == pytest.approx(math.sqrt(2), rel=1e-14)
    assert float(jx @ [1.0, 1.0]) == pytest.approx(math.sqrt(2), rel=1e-14)


def test_duality_map_zero():
    assert np.array_equal(gc.duality_map(gc.sequence_p(5), np.zeros(3)), np.zeros(3))


@settings(max_examples=150, deadline=None)
@given(x=vectors(1, 5), p=st.sampled_from(P_VALUES))
def test_duality_map_defining_identities(x, p):
    sp = gc.sequence_p(p)
    jx = gc.duality_map(sp, x)
    nx = gc.norm(sp, x)
    q = p / (p - 1.0)  # ||Jx|| in the dual space l_q
    assert rel_close(float(np.sum(np.abs(jx) ** q) ** (1.0 / q)), nx, 1e-10)
    assert rel_close(float(jx @ x), nx ** 2, 1e-10)


# --- quadratic norm inequality ----------------------------------------------

@settings(max_examples=200, deadline=None)
@given(x=vectors(2, 4, -50, 50), y=vectors(2, 4, -50, 50),
       p=st.sampled_from([2.0, 3.0, 4.0]))
def test_quadratic_inequality_sharp_sigma(x, y, p):
    if x.shape != y.shape:
        return
    sp = gc.sequence_p(p)
    lhs = gc.norm(sp, x + y) ** 2
    rhs = gc.norm(sp, x) ** 2 + 2 * gc.semiscalar(sp, x, y) + sp.sigma * gc.norm(sp, y) ** 2
    assert lhs <= rhs + 1e-9 * max(1.0, lhs, abs(rhs))


def test_verify_axioms_euclidean():
    rep = gc.verify_space_axioms(gc.euclidean(), n_samples=1000, seed=0)
    assert rep.passed
    assert rep.n_checked >= 1000 // 3


def test_verify_axioms_p3():
    rep = gc.verify_space_axioms(gc.sequence_p(3), n_samples=100000, seed=42)
    assert rep.passed
    assert all(c.violations == 0 for c in rep.checks.values())


def test_verify_axioms_wrong_sigma_fails_with_witness():
    rep = gc.verify_space_axioms(gc.sequence_p(4), n_samples=100000, seed=42, sigma=0.5)
    assert not rep.passed
    bad = rep.checks["quadratic_inequality"]
    assert bad.violations > 0
    assert bad.witness is not None
    x, y = bad.witness[0], bad.witness[1]
    sp = gc.sequence_p(4)
    lhs = gc.norm(sp, x + y) ** 2
    rhs = gc.norm(sp, x) ** 2 + 2 * gc.semiscalar(sp, x, y) + 0.5 * gc.norm(sp, y) ** 2
    assert lhs > rhs  # the witness really violates the claimed inequality


def test_verify_axioms_rejects_empty():
    with pytest.raises(ArgumentError):
        gc.verify_space_axioms(gc.euclidean(), n_samples=0)


# n_rand values: no Gaussian rows, one partial block, exactly one full block
# (dim 4 has 12 structured rows), and several blocks
@pytest.mark.parametrize("dim, n_rand", [(2, 0), (3, 5), (4, _AXIOM_BLOCK - 12),
                                         (4, 2 * _AXIOM_BLOCK + 5)])
def test_sample_blocks_match_full_size_draws(dim, n_rand):
    # reference: every stream drawn whole, in order, from one generator
    xs_s, ys_s = _structured_pairs(dim)
    ref = np.random.default_rng(9)
    scale = 10.0 ** ref.uniform(-2, 2, size=(n_rand, 1))
    X = np.vstack([xs_s, ref.standard_normal((n_rand, dim)) * scale])
    Y = np.vstack([ys_s, ref.standard_normal((n_rand, dim)) * scale])
    n = len(X)
    want = (X, Y, np.roll(Y, 1, axis=0), ref.uniform(-3.0, 3.0, size=n),
            ref.uniform(-2.0, 2.0, size=n), ref.uniform(-2.0, 2.0, size=n))

    rng = np.random.default_rng(9)
    blocks = list(_sample_blocks(rng, xs_s, ys_s, n_rand))
    got = [np.concatenate(parts) for parts in zip(*blocks)]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    # the generator is left where the full-size draws leave it
    assert rng.bit_generator.state == ref.bit_generator.state
