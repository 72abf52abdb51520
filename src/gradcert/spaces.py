"""Normed-space models: Euclidean space and finite-dimensional l_p, p >= 2.

The l_p model carries a semiscalar product ``[x, y] = <Jx, y>`` built from
the normalized duality selection

    (Jx)_i = ||x||^(2-p) * |x_i|^(p-1) * sign(x_i),

which satisfies ``[x, x] = ||x||^2`` and ``||Jx||_q = ||x||`` (q conjugate
to p).  By convention ``J0 = 0``, so ``semiscalar(0, y) = 0``.  For p = 2
every formula reduces exactly to the Euclidean dot product.

These spaces satisfy the quadratic-type norm inequality

    ||x + y||^2 <= ||x||^2 + 2[x, y] + sigma * ||y||^2

with the sharp constant ``sigma = p - 1`` (sigma = 1 in the Euclidean
case).  ``verify_space_axioms`` checks this inequality, and the algebraic
properties of the semiscalar product, on seeded samples in dimensions 2-4,
each block of at most 2,048 rows drawn where it is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError

_TINY = float(np.finfo(float).tiny)  # the least normal double


@dataclass(frozen=True)
class SpaceGeometry:
    """The space l_p, p >= 2, of finite dimension; p = 2 is Euclidean space, with dot products."""

    p: float = 2.0

    def __post_init__(self):
        if not 2.0 <= self.p < math.inf:
            raise ArgumentError(f"a space needs a finite p >= 2, got p={self.p}")

    @property
    def sigma(self) -> float:
        """Sharp constant of the quadratic norm inequality: p - 1, so 1 in Euclidean space."""
        return self.p - 1.0


def euclidean() -> SpaceGeometry:
    return SpaceGeometry(2.0)


def sequence_p(p: float) -> SpaceGeometry:
    return SpaceGeometry(float(p))


def _arr(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ArgumentError("expected a nonempty 1-d vector")
    return v


def _vec(x) -> np.ndarray:
    v = _arr(x)
    if not np.all(np.isfinite(v)):
        raise ArgumentError("vector has non-finite entries")
    return v


def _pnorm(v: np.ndarray, p: float) -> float:
    # rescale by the largest entry so |v_i|**p cannot under- or overflow
    m = float(np.max(np.abs(v)))
    if m == 0.0 or not math.isfinite(m):
        return m
    return m * float(np.sum(np.abs(v / m) ** p)) ** (1.0 / p)


def norm(space: SpaceGeometry, x) -> float:
    """||x|| in the space norm (2-norm or p-norm).

    The entries are checked only when the norm is not finite, which is the
    only case a non-finite entry can produce.
    """
    v = _arr(x)
    if space.p == 2.0:
        # what np.linalg.norm computes for a real vector, bit for bit, unless
        # the sum of squares underflows: then rescaled, as the l_p norm is
        w = v.ravel(order="K")
        s = w.dot(w)
        nv = math.sqrt(s) if s >= _TINY else _pnorm(v, 2.0)
    else:
        nv = _pnorm(v, space.p)
    if not math.isfinite(nv):
        _vec(v)  # raises on a non-finite entry; an overflowed norm stays inf
    return nv


def semiscalar(space: SpaceGeometry, x, y) -> float:
    """Semiscalar product [x, y] = <Jx, y>; the dot product when p = 2.

    Linear in ``y``, homogeneous in ``x``, and [x, x] = ||x||^2.
    Returns 0 when x = 0 (the J0 = 0 convention).  As in ``norm``, the
    entries are checked only when the result is not finite.
    """
    xv = _arr(x)
    yv = _arr(y)
    if xv.shape != yv.shape:
        raise ArgumentError("semiscalar arguments must have equal dimension")
    if space.p == 2.0:
        s = float(xv @ yv)
    else:
        m = float(np.max(np.abs(xv)))
        if not (0.0 < m < math.inf):  # x = 0, where J0 = 0 would hide y, or x not finite
            _vec(xv)
            _vec(yv)
            return 0.0
        # Jx = c * w, rescaled by m so the (p-1)-powers stay inside the
        # floating-point range: c = m * ||x/m||^(2-p), w_i = |x_i/m|^(p-1) sign(x_i)
        u = xv / m
        nu_ = float(np.sum(np.abs(u) ** space.p)) ** (1.0 / space.p)
        c, w = m * nu_ ** (2.0 - space.p), np.abs(u) ** (space.p - 1.0) * np.sign(u)
        s = float(c * (w @ yv))
    if not math.isfinite(s):
        _vec(xv)  # raises on a non-finite entry; an overflow stays inf
        _vec(yv)
    return s


# Row-wise variants used by the sampling code; rows of X/Y are vectors.  Short
# rows reduce over axis 0 of the contiguous transpose: numpy's per-row setup on
# axis 1 costs more than their arithmetic.  A max is exact either way; a sum only
# while numpy adds a row in order, below 8 entries (from 8 on it sums pairwise).

def _row_max(A: np.ndarray) -> np.ndarray:
    return np.max(np.ascontiguousarray(A.T), axis=0)


def _row_sum(A: np.ndarray) -> np.ndarray:
    return (np.add.reduce(np.ascontiguousarray(A.T), axis=0) if A.shape[1] < 8
            else np.add.reduce(A, axis=1))


def _scaled_rows(p: float, X: np.ndarray):
    """Per row: the largest magnitude m, u = x/m (x/1 when m = 0) and sum |u_i|^p."""
    m = _row_max(np.abs(X))
    U = X / np.where(m > 0.0, m, 1.0)[:, None]
    return m, U, _row_sum(np.abs(U) ** p)


def norm_rows(space: SpaceGeometry, X: np.ndarray) -> np.ndarray:
    if space.p == 2.0:
        # the formula of np.linalg.norm(X, axis=1), without its dispatch
        return np.sqrt(_row_sum(X * X))
    m, _, s = _scaled_rows(space.p, X)
    return m * s ** (1.0 / space.p)


def norm_duality_rows(space: SpaceGeometry, X: np.ndarray):
    """The norms of the rows of X and their duality map, from one pass over X.

    The map is (nz, c, W), None in Euclidean space: the rows with a nonzero
    entry (a mask, or a full slice if all have one) and their J x = c * w,
    rescaled as in ``semiscalar``.  It serves each Y paired with X.
    """
    if space.p == 2.0:
        return norm_rows(space, X), None
    m, U, s = _scaled_rows(space.p, X)
    p, nu_ = space.p, s ** (1.0 / space.p)
    nz = slice(None) if (m > 0.0).all() else m > 0.0  # a full slice takes views, not copies
    return m * nu_, (nz, m[nz] * nu_[nz] ** (2.0 - p), np.abs(U[nz]) ** (p - 1.0) * np.sign(U[nz]))


def semiscalar_rows(space: SpaceGeometry, X: np.ndarray, Y: np.ndarray,
                    duality=None) -> np.ndarray:
    """[x, y] for each row pair; ``duality`` is ``norm_duality_rows(space, X)[1]`` if known."""
    if space.p == 2.0:
        return np.einsum("ij,ij->i", X, Y)
    nz, c, W = norm_duality_rows(space, X)[1] if duality is None else duality
    out = np.zeros(len(X))
    out[nz] = c * np.einsum("ij,ij->i", W, Y[nz])
    return out


@dataclass
class PropertyCheck:
    """Worst normalized slack of one sampled property (negative = violated)."""

    worst_slack: float
    violations: int
    witness: tuple | None = field(repr=False)  # kept out of reports


@dataclass
class SpaceAxiomReport:
    passed: bool
    n_checked: int
    tol: float
    sigma: float
    checks: dict[str, PropertyCheck] = field(default_factory=dict)


def _structured_pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    # Deterministic adversarial pairs: parallel pairs expose sigma < 1, and
    # small alternating-sign perturbations of the all-ones vector approach
    # the sharp constant p - 1, exposing any understated sigma.
    xs, ys = [], []
    base = np.ones(dim)
    alt = np.array([(-1.0) ** i for i in range(dim)])
    for t in (-1.5, -0.5, 0.5, 2.0):
        xs.append(base.copy())
        ys.append(t * base)
    for eps in (1e-3, 1e-2, 0.1, 1.0):
        xs.append(base.copy())
        ys.append(eps * alt)
    eye = np.eye(dim)
    for i in range(dim):
        xs.append(eye[i].copy())
        ys.append(eye[(i + 1) % dim].copy())
    return np.array(xs), np.array(ys)


_AXIOM_DIMS = (2, 3, 4)
_AXIOM_BLOCK = 2048
_AXIOM_TOL = 1e-9
_AXIOM_NAMES = ("pairing_norm", "first_slot_homogeneity", "second_slot_linearity",
                "cauchy_schwarz", "quadratic_inequality")


def _check_block(space, sig, tol, X, Y, Y2, lam, a1, a2, worst, nviol) -> None:
    """Fold one block of sampled rows into the running worst slacks and counts."""
    nX, dX = norm_duality_rows(space, X)  # X is the first slot of four of the pairings
    nY = norm_rows(space, Y)
    nY2 = np.roll(nY, 1)  # Y2 is Y rolled down by one row within the block
    sxx = semiscalar_rows(space, X, X, dX)
    sxy = semiscalar_rows(space, X, Y, dX)

    def _update(name, slack, scale_, witness_rows):
        normed = slack / np.maximum(1.0, scale_)
        i = int(np.argmin(normed))
        if normed[i] < worst[name][0]:
            worst[name] = (float(normed[i]), tuple(w[i].copy() for w in witness_rows))
        nviol[name] += int(np.sum(normed < -tol))

    # (a) pairing against itself reproduces the squared norm
    _update("pairing_norm", -np.abs(sxx - nX**2), nX**2, (X,))
    # (b) [lam x, y] = lam [x, y]
    slxy = semiscalar_rows(space, lam[:, None] * X, Y)
    _update("first_slot_homogeneity", -np.abs(slxy - lam * sxy),
            np.abs(lam) * np.abs(sxy) + nX * nY, (X, Y, lam))
    # (c) linearity in the second slot
    comb = semiscalar_rows(space, X, a1[:, None] * Y + a2[:, None] * Y2, dX)
    parts = a1 * sxy + a2 * semiscalar_rows(space, X, Y2, dX)
    _update("second_slot_linearity", -np.abs(comb - parts),
            np.abs(comb) + np.abs(parts) + nX * (nY + nY2), (X, Y, Y2))
    # (d) [x, y] <= ||x|| ||y||
    _update("cauchy_schwarz", nX * nY - sxy, nX * nY, (X, Y))
    # (iv) ||x+y||^2 <= ||x||^2 + 2[x,y] + sigma ||y||^2
    lhs = norm_rows(space, X + Y) ** 2
    rhs = nX**2 + 2.0 * sxy + sig * nY**2
    _update("quadratic_inequality", rhs - lhs,
            np.maximum(lhs, np.abs(rhs)), (X, Y))


def _sample_blocks(rng, xs_s, ys_s, n_rand):
    """Yield (X, Y, Y2, lam, a1, a2) row blocks of one dimension's sample set.

    The rows are the structured pairs, then n_rand Gaussian rows times
    10**U(-2, 2), at most ``_AXIOM_BLOCK`` rows a block.  Each block draws
    its scales, X, Y, lam, a1 and a2 in turn from ``rng``; Y2 is Y rolled
    down by one row within the block.
    """
    k, dim = xs_s.shape
    n = k + n_rand
    for lo in range(0, n, _AXIOM_BLOCK):
        hi = min(n, lo + _AXIOM_BLOCK)
        m = max(hi, k) - max(lo, k)  # Gaussian rows in this block
        sc = 10.0 ** rng.uniform(-2, 2, size=(m, 1))
        X = np.vstack([xs_s[lo:hi], rng.standard_normal((m, dim)) * sc])
        Y = np.vstack([ys_s[lo:hi], rng.standard_normal((m, dim)) * sc])
        yield (X, Y, np.roll(Y, 1, axis=0), rng.uniform(-3.0, 3.0, hi - lo),
               rng.uniform(-2.0, 2.0, hi - lo), rng.uniform(-2.0, 2.0, hi - lo))


def verify_space_axioms(space: SpaceGeometry, n_samples: int = 1000, seed: int = 0,
                        sigma: float | None = None) -> SpaceAxiomReport:
    """Sample pairs (x, y) and scalars and check the semiscalar-product axioms.

    Checked per pair: [x,x] = ||x||^2, scalar homogeneity in the first slot,
    linearity in the second slot, [x,y] <= ||x|| ||y||, and the quadratic
    norm inequality with constant ``sigma`` (defaults to the space's own).
    A ``sigma`` override exists so a deliberately wrong constant can be shown
    to fail.  Violations beyond the relative tolerance ``_AXIOM_TOL`` are
    reported together with a witness pair.
    """
    if n_samples < 1:
        raise ArgumentError("n_samples must be >= 1")
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    sig = space.sigma if sigma is None else float(sigma)
    rng = np.random.default_rng(seed)

    worst = {n: (np.inf, None) for n in _AXIOM_NAMES}
    nviol = dict.fromkeys(_AXIOM_NAMES, 0)
    checked = 0

    per_dim = max(1, n_samples // len(_AXIOM_DIMS))
    for dim in _AXIOM_DIMS:
        xs_s, ys_s = _structured_pairs(dim)
        n_rand = max(0, per_dim - len(xs_s))
        # checks are row-wise; a strict improvement keeps the first witness on ties
        for block in _sample_blocks(rng, xs_s, ys_s, n_rand):
            _check_block(space, sig, _AXIOM_TOL, *block, worst, nviol)
        checked += len(xs_s) + n_rand

    checks = {
        name: PropertyCheck(worst[name][0], nviol[name],
                            worst[name][1] if nviol[name] else None)
        for name in _AXIOM_NAMES
    }
    passed = all(c.violations == 0 for c in checks.values())
    return SpaceAxiomReport(passed=passed, n_checked=checked, tol=_AXIOM_TOL,
                            sigma=sig, checks=checks)
