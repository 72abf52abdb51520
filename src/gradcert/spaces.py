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
properties of the semiscalar product, on a seeded sample set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError

EUCLIDEAN = "euclidean"
SEQUENCE_P = "sequence_p"


@dataclass(frozen=True)
class SpaceGeometry:
    """Ambient-space descriptor. ``p`` is only meaningful for ``sequence_p``."""

    kind: str
    p: float = 2.0

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, SEQUENCE_P):
            raise ArgumentError(f"unknown space kind {self.kind!r}")
        if self.kind == SEQUENCE_P and not (np.isfinite(self.p) and self.p >= 2.0):
            raise ArgumentError(f"sequence_p requires p >= 2, got p={self.p}")

    @property
    def sigma(self) -> float:
        """Sharp constant of the quadratic norm inequality (p - 1 for l_p)."""
        return 1.0 if self.kind == EUCLIDEAN else self.p - 1.0


def euclidean() -> SpaceGeometry:
    return SpaceGeometry(EUCLIDEAN)


def sequence_p(p: float) -> SpaceGeometry:
    return SpaceGeometry(SEQUENCE_P, float(p))


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
    if space.kind == EUCLIDEAN:
        # what np.linalg.norm computes for a real vector, bit for bit
        w = v.ravel(order="K")
        nv = math.sqrt(w.dot(w))
    else:
        nv = _pnorm(v, space.p)
    if not math.isfinite(nv):
        _vec(v)  # raises on a non-finite entry; an overflowed norm stays inf
    return nv


def _duality_parts(space: SpaceGeometry, xv: np.ndarray, m: float):
    """(c, w) with Jx = c * w, for x with largest magnitude m > 0.

    Rescaled so the (p-1)-powers stay inside the floating-point range:
    c = m * ||x/m||^(2-p) and w_i = |x_i/m|^(p-1) sign(x_i).
    """
    u = xv / m
    nu_ = float(np.sum(np.abs(u) ** space.p)) ** (1.0 / space.p)
    return m * nu_ ** (2.0 - space.p), np.abs(u) ** (space.p - 1.0) * np.sign(u)


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
    if space.kind == EUCLIDEAN:
        s = float(xv @ yv)
    else:
        m = float(np.max(np.abs(xv)))
        if not (0.0 < m < math.inf):  # x = 0, where J0 = 0 would hide y, or x not finite
            _vec(xv)
            _vec(yv)
            return 0.0
        c, w = _duality_parts(space, xv, m)
        s = float(c * (w @ yv))
    if not math.isfinite(s):
        _vec(xv)  # raises on a non-finite entry; an overflow stays inf
        _vec(yv)
    return s


def duality_map(space: SpaceGeometry, x) -> np.ndarray:
    """Jx as a coordinate vector: ||Jx||_q = ||x|| and <Jx, x> = ||x||^2."""
    xv = _vec(x)
    if space.kind == EUCLIDEAN:
        return xv.copy()
    m = float(np.max(np.abs(xv)))
    if m == 0.0:
        return np.zeros_like(xv)
    c, w = _duality_parts(space, xv, m)
    return c * w


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
    if space.kind == EUCLIDEAN:
        # the formula of np.linalg.norm(X, axis=1), without its dispatch
        return np.sqrt(_row_sum(X * X))
    m, _, s = _scaled_rows(space.p, X)
    return m * s ** (1.0 / space.p)


def norm_duality_rows(space: SpaceGeometry, X: np.ndarray):
    """The norms of the rows of X and their ``duality_rows``, from one pass over X."""
    if space.kind == EUCLIDEAN:
        return norm_rows(space, X), None
    m, U, s = _scaled_rows(space.p, X)
    p, nu_ = space.p, s ** (1.0 / space.p)
    nz = slice(None) if (m > 0.0).all() else m > 0.0  # a full slice takes views, not copies
    return m * nu_, (nz, m[nz] * nu_[nz] ** (2.0 - p), np.abs(U[nz]) ** (p - 1.0) * np.sign(U[nz]))


def duality_rows(space: SpaceGeometry, X: np.ndarray):
    """The duality map of the rows of X in the factored form ``semiscalar_rows`` pairs.

    Returns (nz, c, W): the rows with a nonzero entry (a mask, or a full slice
    if all have one) and their J x = c * w, rescaled as in ``_duality_parts``;
    None in Euclidean space.  Computed once, it serves each Y paired with X.
    """
    return None if space.kind == EUCLIDEAN else norm_duality_rows(space, X)[1]


def semiscalar_rows(space: SpaceGeometry, X: np.ndarray, Y: np.ndarray,
                    duality=None) -> np.ndarray:
    """[x, y] for each row pair; ``duality`` is ``duality_rows(space, X)`` if known."""
    if space.kind == EUCLIDEAN:
        return np.einsum("ij,ij->i", X, Y)
    nz, c, W = duality_rows(space, X) if duality is None else duality
    out = np.zeros(len(X))
    out[nz] = c * np.einsum("ij,ij->i", W, Y[nz])
    return out


@dataclass
class PropertyCheck:
    """Worst normalized slack of one sampled property (negative = violated)."""

    name: str
    worst_slack: float
    violations: int
    witness: tuple | None


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


_AXIOM_BLOCK = 2048
_AXIOM_NAMES = ("pairing_norm", "first_slot_homogeneity", "second_slot_linearity",
                "cauchy_schwarz", "quadratic_inequality")


def _check_block(space, sig, tol, X, Y, Y2, lam, a1, a2, worst, nviol) -> None:
    """Fold one block of sampled rows into the running worst slacks and counts."""
    nX, dX = norm_duality_rows(space, X)  # X is the first slot of four of the pairings
    nY = norm_rows(space, Y)
    nY2 = np.concatenate([norm_rows(space, Y2[:1]), nY[:-1]])  # Y2[1:] is Y[:-1]
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


def _generator_at(bg, state, skip: int = 0) -> np.random.Generator:
    """A generator on a copy of bit generator ``bg`` at ``state``, ``skip`` draws on."""
    g = np.random.Generator(type(bg)())
    g.bit_generator.state = state
    g.bit_generator.advance(skip)
    return g


def _sample_blocks(rng, xs_s, ys_s, n_rand):
    """Yield (X, Y, Y2, lam, a1, a2) row blocks of one dimension's sample set.

    The rows are those of full-size draws from ``rng`` in the order: scale
    (n_rand uniforms), X and Y (structured rows, then n_rand Gaussian rows
    times 10**scale), lam, a1 and a2 (n uniforms each); Y2 is Y rolled down
    by one row.  A uniform takes one step of the bit generator and a
    Gaussian a varying number, so the Gaussian rows are drawn once ahead to
    find where each stream starts; every stream is then read a block at a
    time from a copy placed at its start.  ``rng`` ends where the full-size
    draws leave it.
    """
    k, dim = xs_s.shape
    n = k + n_rand
    bg = rng.bit_generator
    starts = [bg.state]
    bg.advance(n_rand)
    for _ in range(2):  # the Gaussian rows of X, then of Y
        starts.append(bg.state)
        for lo in range(0, n_rand, _AXIOM_BLOCK):
            last = rng.standard_normal((min(_AXIOM_BLOCK, n_rand - lo), dim))[-1]
    gscale, gx, gy = (_generator_at(bg, st) for st in starts)
    st = bg.state
    glam, ga1, ga2 = (_generator_at(bg, st, i * n) for i in range(3))
    bg.advance(3 * n)
    # Y[n - 1], which the roll puts on row 0; powers are taken on arrays, as
    # numpy's scalar power can round differently
    y_prev = ys_s[-1]
    if n_rand:
        y_prev = last * 10.0 ** _generator_at(bg, starts[0], n_rand - 1).uniform(-2, 2, (1,))
    for lo in range(0, n, _AXIOM_BLOCK):
        hi = min(n, lo + _AXIOM_BLOCK)
        m = max(hi, k) - max(lo, k)  # Gaussian rows in this block
        sc = 10.0 ** gscale.uniform(-2, 2, size=(m, 1))
        X = np.vstack([xs_s[lo:hi], gx.standard_normal((m, dim)) * sc])
        Y = np.vstack([ys_s[lo:hi], gy.standard_normal((m, dim)) * sc])
        Y2 = np.vstack([y_prev, Y[:-1]])
        y_prev = Y[-1]
        yield (X, Y, Y2, glam.uniform(-3.0, 3.0, hi - lo),
               ga1.uniform(-2.0, 2.0, hi - lo), ga2.uniform(-2.0, 2.0, hi - lo))


def verify_space_axioms(
    space: SpaceGeometry,
    n_samples: int = 1000,
    seed: int = 0,
    dims: tuple[int, ...] = (2, 3, 4),
    sigma: float | None = None,
    tol: float = 1e-9,
) -> SpaceAxiomReport:
    """Sample pairs (x, y) and scalars and check the semiscalar-product axioms.

    Checked per pair: [x,x] = ||x||^2, scalar homogeneity in the first slot,
    linearity in the second slot, [x,y] <= ||x|| ||y||, and the quadratic
    norm inequality with constant ``sigma`` (defaults to the space's own).
    A ``sigma`` override exists so a deliberately wrong constant can be shown
    to fail.  Violations beyond the relative tolerance are reported together
    with a witness pair.
    """
    if n_samples < 1:
        raise ArgumentError("n_samples must be >= 1")
    if not dims:
        raise ArgumentError("dims must be nonempty")
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    sig = space.sigma if sigma is None else float(sigma)
    rng = np.random.default_rng(seed)

    worst = {n: (np.inf, None) for n in _AXIOM_NAMES}
    nviol = dict.fromkeys(_AXIOM_NAMES, 0)
    checked = 0

    per_dim = max(1, n_samples // len(dims))
    for dim in dims:
        xs_s, ys_s = _structured_pairs(dim)
        n_rand = max(0, per_dim - len(xs_s))
        # Row blocks bound the transient arrays; every check is row-wise, and a
        # strict improvement across blocks keeps the first witness on ties.
        for block in _sample_blocks(rng, xs_s, ys_s, n_rand):
            _check_block(space, sig, tol, *block, worst, nviol)
        checked += len(xs_s) + n_rand

    checks = {
        name: PropertyCheck(name, worst[name][0], nviol[name],
                            worst[name][1] if nviol[name] else None)
        for name in _AXIOM_NAMES
    }
    passed = all(c.violations == 0 for c in checks.values())
    return SpaceAxiomReport(passed=passed, n_checked=checked, tol=tol,
                            sigma=sig, checks=checks)
