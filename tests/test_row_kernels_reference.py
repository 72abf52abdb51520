"""The l_p row kernels and the space-axiom check against the forms they replaced.

``reference_norm_rows``, ``reference_duality_rows``, ``reference_semiscalar_rows``
and ``reference_check_block`` are copies of the kernels as they were when
every row reduction ran along axis 1 of the block, the duality map took its
rows through a boolean mask, and ``_check_block`` took each norm in a pass
of its own.  The kernels and ``verify_space_axioms``
must equal them bit for bit.
"""

import numpy as np
import pytest

import gradcert as gc
from gradcert import spaces
from gradcert.spaces import (EUCLIDEAN, _row_max, _row_sum, norm_duality_rows, norm_rows,
                             semiscalar_rows)

SPACES = [gc.euclidean(), gc.sequence_p(2.5), gc.sequence_p(3), gc.sequence_p(4),
          gc.sequence_p(6)]
SPACE_IDS = ["euclidean", "p2.5", "p3", "p4", "p6"]


def reference_norm_rows(space, X):
    if space.kind == EUCLIDEAN:
        return np.sqrt(np.add.reduce(X * X, axis=1))
    m = np.max(np.abs(X), axis=1)
    safe = np.where(m > 0.0, m, 1.0)
    return m * np.sum(np.abs(X / safe[:, None]) ** space.p, axis=1) ** (1.0 / space.p)


def reference_duality_rows(space, X):
    if space.kind == EUCLIDEAN:
        return None
    m = np.max(np.abs(X), axis=1)
    nz = m > 0.0
    U = X[nz] / m[nz, None]
    nu_ = np.sum(np.abs(U) ** space.p, axis=1) ** (1.0 / space.p)
    return nz, m[nz] * nu_ ** (2.0 - space.p), np.abs(U) ** (space.p - 1.0) * np.sign(U)


def reference_semiscalar_rows(space, X, Y, duality=None):
    if space.kind == EUCLIDEAN:
        return np.einsum("ij,ij->i", X, Y)
    nz, c, W = reference_duality_rows(space, X) if duality is None else duality
    out = np.zeros(len(X))
    out[nz] = c * np.einsum("ij,ij->i", W, Y[nz])
    return out


def reference_check_block(space, sig, tol, X, Y, Y2, lam, a1, a2, worst, nviol):
    nX = reference_norm_rows(space, X)
    nY = reference_norm_rows(space, Y)
    dX = reference_duality_rows(space, X)
    sxx = reference_semiscalar_rows(space, X, X, dX)
    sxy = reference_semiscalar_rows(space, X, Y, dX)

    def _update(name, slack, scale_, witness_rows):
        normed = slack / np.maximum(1.0, scale_)
        i = int(np.argmin(normed))
        if normed[i] < worst[name][0]:
            worst[name] = (float(normed[i]), tuple(w[i].copy() for w in witness_rows))
        nviol[name] += int(np.sum(normed < -tol))

    _update("pairing_norm", -np.abs(sxx - nX**2), nX**2, (X,))
    slxy = reference_semiscalar_rows(space, lam[:, None] * X, Y)
    _update("first_slot_homogeneity", -np.abs(slxy - lam * sxy),
            np.abs(lam) * np.abs(sxy) + nX * nY, (X, Y, lam))
    comb = reference_semiscalar_rows(space, X, a1[:, None] * Y + a2[:, None] * Y2, dX)
    parts = a1 * sxy + a2 * reference_semiscalar_rows(space, X, Y2, dX)
    _update("second_slot_linearity", -np.abs(comb - parts),
            np.abs(comb) + np.abs(parts) + nX * (nY + reference_norm_rows(space, Y2)),
            (X, Y, Y2))
    _update("cauchy_schwarz", nX * nY - sxy, nX * nY, (X, Y))
    lhs = reference_norm_rows(space, X + Y) ** 2
    rhs = nX**2 + 2.0 * sxy + sig * nY**2
    _update("quadratic_inequality", rhs - lhs, np.maximum(lhs, np.abs(rhs)), (X, Y))


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def blocks(rng, n, dim):
    """A block of scaled Gaussian rows, and the same block with zero rows."""
    X = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    Z = X.copy()
    Z[::3] = 0.0
    return X, Z


@pytest.mark.parametrize("width", range(1, 17))
def test_row_helpers_equal_numpy_reductions(width):
    # 7 and 8 sit on either side of the width where numpy starts pairwise sums
    rng = np.random.default_rng(width)
    for n in (0, 1, 7, 2048):
        A = rng.standard_normal((n, width)) * 10.0 ** rng.uniform(-8, 8, (n, 1))
        if n >= 7:
            A[1] = 0.0
            A[2], A[3] = np.inf, -np.inf
            A[4, width // 2] = -np.inf
            A[5] = np.nan
            A[6, width - 1] = np.nan
        for B in (A, np.abs(A)):
            assert same_bits(_row_max(B), np.max(B, axis=1))
            assert same_bits(_row_sum(B), np.sum(B, axis=1))


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
def test_row_kernels_equal_reference_kernels(space):
    rng = np.random.default_rng(41)
    for n, dim in ((1, 2), (7, 3), (2048, 3), (64, 4), (33, 7), (33, 8), (20, 9), (9, 20)):
        for X in blocks(rng, n, dim):
            Y = rng.standard_normal((n, dim))
            assert same_bits(norm_rows(space, X), reference_norm_rows(space, X))
            assert same_bits(semiscalar_rows(space, X, Y), reference_semiscalar_rows(space, X, Y))
            got, expected = norm_duality_rows(space, X)[1], reference_duality_rows(space, X)
            if expected is None:
                assert got is None
                continue
            assert same_bits(np.arange(n)[got[0]], np.arange(n)[expected[0]])
            assert same_bits(got[1], expected[1]) and same_bits(got[2], expected[2])
            assert same_bits(semiscalar_rows(space, X, Y, got),
                             reference_semiscalar_rows(space, X, Y, expected))


@pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
def test_norms_from_the_duality_pass_equal_norm_rows(space):
    # zero, infinite and NaN rows included
    X = np.random.default_rng(43).standard_normal((12, 3)) * 1e3
    X[1] = 0.0
    X[2, 0], X[3] = np.inf, -np.inf
    X[4, 1], X[5] = np.nan, np.nan
    with np.errstate(invalid="ignore"):
        norms, duality = norm_duality_rows(space, X)
        assert same_bits(norms, norm_rows(space, X))
        assert same_bits(norms, reference_norm_rows(space, X))
        if duality is not None:
            expected = norm_duality_rows(space, X)[1]
            assert same_bits(duality[1], expected[1]) and same_bits(duality[2], expected[2])


def _report(space, n_samples, seed, sigma):
    r = spaces.verify_space_axioms(space, n_samples=n_samples, seed=seed, sigma=sigma)
    checks = {name: (c.worst_slack.hex(), c.violations,
                     None if c.witness is None else [np.asarray(w).tobytes() for w in c.witness])
              for name, c in r.checks.items()}
    return r.passed, r.n_checked, r.sigma, checks


@pytest.mark.parametrize("space, understated", [
    (gc.euclidean(), 0.5), (gc.sequence_p(3), 1.5), (gc.sequence_p(4), 2.0),
    (gc.sequence_p(6), 3.0)], ids=["euclidean", "p3", "p4", "p6"])
@pytest.mark.parametrize("seed", [1, 8])
def test_verify_space_axioms_equals_reference_check(monkeypatch, space, understated, seed):
    n_big = 100_000 if space.p == 4.0 and seed == 1 else 6_000
    cases = [(n_big, None), (6_000, understated)]
    got = [_report(space, n, seed, sigma) for n, sigma in cases]
    monkeypatch.setattr(spaces, "_check_block", reference_check_block)
    expected = [_report(space, n, seed, sigma) for n, sigma in cases]
    assert got == expected
    assert got[0][0] and not got[1][0]  # the understated sigma is caught
