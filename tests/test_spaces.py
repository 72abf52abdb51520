import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradcert as gc
from gradcert.errors import ArgumentError
from gradcert.spaces import (_AXIOM_BLOCK, _pnorm, _sample_blocks, _structured_pairs,
                             norm_duality_rows, norm_rows, semiscalar_rows)

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
    # a sum of squares that overflows (numpy warns of it) is rescaled, as the
    # l_p norm is; only a norm above the float range is inf, and not an error
    with np.errstate(over="ignore"):
        assert gc.norm(euc, [1e200, 1e200]) == 1e200 * math.sqrt(2.0)
        assert gc.norm(euc, [1.5e308, 1.5e308]) == math.inf
    for bad in ([math.nan, 1.0], [-math.inf, 1.0]):
        with pytest.raises(ArgumentError):
            gc.norm(lp, bad)


def test_euclidean_norm_rows_are_the_norms_of_their_rows():
    # rows whose sum of squares underflows, in part or to 0, are rescaled as
    # the scalar norm is; each sum here is exact in any order of addition
    X = np.array([[0.0, 6.69e-205], [1e-160, 0.0], [3e-170, -4e-170], [5e-324, 0.0],
                  [1e-154, 1e-154], [0.0, 0.0], [3.0, 4.0], [1.0, 1e-200]])
    euc = gc.euclidean()
    assert norm_rows(euc, X).tolist() == [gc.norm(euc, x) for x in X]
    # a row whose sum of squares overflows stays inf
    with np.errstate(over="ignore"):
        assert norm_rows(euc, np.array([[1e200, 1e200]])).tolist() == [math.inf]


def test_space_geometry_validation():
    for bad in (1.5, math.inf, math.nan, -2.0):
        with pytest.raises(ArgumentError):
            gc.sequence_p(bad)
        with pytest.raises(ArgumentError):
            gc.SpaceGeometry(bad)
    assert gc.euclidean().sigma == 1.0
    assert gc.sequence_p(4).sigma == 3.0


def test_a_space_is_its_exponent():
    # l_2 is Euclidean space: one value, and the dot-product kernels
    assert gc.sequence_p(2) == gc.euclidean() == gc.SpaceGeometry()
    assert gc.sequence_p(4) == gc.SpaceGeometry(4.0) != gc.euclidean()
    x, y = np.array([0.3, -1.7, 2.9]), np.array([1.1, 0.4, -0.6])
    assert gc.norm(gc.sequence_p(2), x) == math.sqrt(x.dot(x))
    assert gc.semiscalar(gc.sequence_p(2), x, y) == float(x @ y)


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

@pytest.mark.parametrize("space", [gc.euclidean(), gc.sequence_p(2.5), gc.sequence_p(4)],
                         ids=["euclidean", "p2.5", "p4"])
def test_semiscalar_rows_with_shared_duality_parts(space):
    # one set of duality parts of X serves every Y it is paired with; a zero
    # row of X pairs to 0 (the J0 = 0 convention)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 4)) * 10.0 ** rng.uniform(-3, 3, (6, 1))
    X[2] = 0.0
    parts = norm_duality_rows(space, X)[1]
    for Y in rng.standard_normal((3, 6, 4)):
        got = semiscalar_rows(space, X, Y, parts)
        assert got[2] == 0.0
        for g, x, y in zip(got, X, Y):
            assert rel_close(g, gc.semiscalar(space, x, y), 1e-13, gc.norm(space, x) * gc.norm(space, y))


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
def test_sample_blocks_hold_the_structured_then_the_drawn_rows(dim, n_rand):
    xs_s, ys_s = _structured_pairs(dim)
    blocks = list(_sample_blocks(np.random.default_rng(9), xs_s, ys_s, n_rand))
    for X, Y, Y2, lam, a1, a2 in blocks:
        assert 1 <= len(X) <= _AXIOM_BLOCK
        assert X.shape == Y.shape == Y2.shape and len(lam) == len(a1) == len(a2) == len(X)
        assert np.array_equal(Y2, np.roll(Y, 1, axis=0))  # rolled within the block
        assert np.abs(lam).max() <= 3.0 and max(np.abs(a1).max(), np.abs(a2).max()) <= 2.0
    # the blocks are full but the last, and concatenate to the structured
    # rows followed by exactly n_rand drawn rows
    assert all(len(b[0]) == _AXIOM_BLOCK for b in blocks[:-1])
    X, Y = (np.concatenate([b[i] for b in blocks]) for i in (0, 1))
    k = len(xs_s)
    assert X.shape == Y.shape == (k + n_rand, dim)
    assert np.array_equal(X[:k], xs_s) and np.array_equal(Y[:k], ys_s)
    assert np.isfinite(X[k:]).all() and np.isfinite(Y[k:]).all()
    assert len(np.unique(X[k:], axis=0)) == n_rand  # drawn, not repeated
    # the same seed gives the same blocks
    again = list(_sample_blocks(np.random.default_rng(9), xs_s, ys_s, n_rand))
    assert len(again) == len(blocks)
    for b, c in zip(blocks, again):
        assert all(np.array_equal(u, v) for u, v in zip(b, c))


@pytest.mark.parametrize("space", [gc.euclidean(), gc.sequence_p(2.5), gc.sequence_p(3),
                                   gc.sequence_p(4), gc.sequence_p(6)],
                         ids=["euclidean", "p2.5", "p3", "p4", "p6"])
@pytest.mark.parametrize("n_samples", [1, 100, 3000])
@pytest.mark.parametrize("seed", [0, 3, 21, 1401])
def test_verify_axioms_passes_at_sigma_and_fails_at_an_understated_sigma(space, n_samples,
                                                                          seed):
    assert gc.verify_space_axioms(space, n_samples=n_samples, seed=seed).passed
    bad = gc.verify_space_axioms(space, n_samples=n_samples, seed=seed, sigma=0.9 * space.sigma)
    assert not bad.passed
    assert bad.checks["quadratic_inequality"].violations > 0
