"""The block-scored polish against the one-candidate-at-a-time polish it replaced.

``reference_polish``, ``reference_acute_ratio``, ``reference_step_ratio``
and ``reference_project_ball`` are copies of the sequential polish, its two
objectives and its projection as they were before the polish scored its
candidates in blocks; the reference images a direction by the dense
operator J or J J^T.  The estimator's polish images a block of directions
by the problem's operator actions, jvp and vjp, with no Jacobian, and takes
their norms by ``norm_rows``, which can round a row differently from the
reference's dense product and ``norm``.  So the estimator must take the
reference's accepted (point, direction) path step for step within a
relative 1e-12, and return its value within a relative 1e-14.  The block
polish images more rows than the sequential one, since a block's rows
after an accepted one are built again, but in fewer calls.
"""

import math
from collections import Counter

import numpy as np
import pytest

import gradcert as gc
from gradcert import estimator
from gradcert.errors import ArgumentError
from gradcert.spaces import norm, norm_duality_rows, norm_rows, semiscalar_rows

EUC = gc.euclidean()


def reference_acute_ratio(space, h, B):
    H = h[None, :]
    W = H @ B.T
    den = norm_rows(space, H)[0] * norm_rows(space, W)[0]
    num = semiscalar_rows(space, H, W)[0]
    return float(num / den) if den > 0.0 else 0.0


def reference_step_ratio(space, method):
    minimal_quadratic = method.minimising
    th = method.vartheta

    def lam_objective(B, h):
        w = B @ h
        num = semiscalar_rows(space, h[None, :], w[None, :])[0]
        if minimal_quadratic:
            den = space.sigma * norm(space, w) ** 2
            return num / den if den > 0 else math.inf
        return norm(space, h) ** 2 / (th * num) if num > 0 else math.inf
    return lam_objective


def reference_project_ball(space, center, r, x):
    d = x - center
    nd = norm(space, d)
    if nd > r:
        return center + d * (r / nd) if r > 0 else center.copy()
    return x


def reference_polish(objective, operator, space, center, r, x, h, minimize: bool,
                     path: list, iters: int = 40):
    # ``path`` receives each accepted (x, h); the rest is the sequential polish
    B = operator(x)
    best = objective(B, h)
    step = 0.25
    for _ in range(iters):
        improved = False
        for j in range(len(h)):
            for s in (step, -step):
                hc = h.copy()
                hc[j] += s
                nh = norm(space, hc)
                if nh == 0.0:
                    continue
                hc /= nh
                v = objective(B, hc)
                if (v < best) if minimize else (v > best):
                    best, h, improved = v, hc, True
                    path.append((x, h))
        if r > 0.0:
            for j in range(len(x)):
                for s in (step * r, -step * r):
                    xc = x.copy()
                    xc[j] += s
                    xc = reference_project_ball(space, center, r, xc)
                    Bc = operator(xc)
                    v = objective(Bc, h)
                    if (v < best) if minimize else (v > best):
                        best, x, B, improved = v, xc, Bc, True
                        path.append((x, h))
        if not improved:
            step *= 0.5
            if step < 1e-7:
                break
    return best


def reference_operator(problem, method):
    """The dense operator B(x) the reference images by: J J^T for adjoint families, else J."""
    def operator(x):
        J = np.asarray(problem.jacobian(x), dtype=float)
        return J @ J.T if method.uses_adjoint else J
    return operator


def _starts(problem, space, seed):
    """The center with the first axis, and a seeded ball point with a seeded direction."""
    center = np.asarray(problem.x0, dtype=float)
    rng = np.random.default_rng(seed)
    x = estimator._ball_points(center, problem.R, 4, rng, space)[-1]
    h = rng.standard_normal(len(center))
    return [(center, np.eye(len(center))[0]), (x, h / norm(space, h))]


def _close(a, b, rel):
    return np.linalg.norm(a - b) <= rel * np.linalg.norm(b)


def _same_path(got, expected, rel=1e-12):
    return len(got) == len(expected) and all(
        _close(x, x_ref, rel) and _close(h, h_ref, rel)
        for (x, h), (x_ref, h_ref) in zip(got, expected))


def _images(B, H):
    """The image B h of each row h of H; B is one operator, or a stack of one per row."""
    return H @ B.T if B.ndim == 2 else (B @ H[:, :, None])[:, :, 0]


def _score(objective, space, B, H):
    return objective.score(H, _images(B, H), norm_duality_rows(space, H))


POLISH_CASES = [
    (gc.chandrasekhar(0.5, 20), gc.STEEPEST_DESCENT, EUC),
    (gc.chandrasekhar(0.5, 6), gc.BANACH_MIN_RESIDUAL, gc.sequence_p(3)),
    (gc.chandrasekhar(0.5, 6), gc.BANACH_MIN_RESIDUAL, gc.sequence_p(4)),
    (gc.chandrasekhar(0.5, 6), gc.BANACH_MIN_RESIDUAL, gc.sequence_p(6)),
    (gc.linear_spd(1, 3, 3), gc.MIN_CO_ERROR, EUC),
]
POLISH_IDS = ["chandrasekhar20-sd", "chandrasekhar6-lp3", "chandrasekhar6-lp4",
              "chandrasekhar6-lp6", "spd3-min-co-error"]


def _objectives(space, method):
    """Each polish objective with its one-candidate reference."""
    return [(estimator._AcuteRatio(space), lambda B, h: reference_acute_ratio(space, h, B)),
            (estimator._StepRatio(space, method), reference_step_ratio(space, method))]


@pytest.mark.parametrize("case, rows, calls", [
    # jvp rows and calls over the four polishes of a case, and as many vjp
    # rows and calls for the adjoint family; the one-candidate polish makes
    # 6404, 1924, 1924, 1924 and 844 Jacobian calls of one row each
    (case, rows, calls) for case, (rows, calls) in zip(POLISH_CASES, [
        (32811, 1470), (6527, 736), (6274, 708), (6297, 721), (2062, 377)])],
    ids=POLISH_IDS)
def test_polish_equals_one_candidate_polish(case, rows, calls, counting):
    problem, family, space = case
    method = gc.MethodSpec(family)
    center, r = np.asarray(problem.x0, dtype=float), problem.R
    counted, work = counting(problem)
    images = estimator._image_map(counted, method)
    ref_calls = Counter()

    def ref_op(x, _op=reference_operator(problem, method)):
        ref_calls["operator"] += 1
        return _op(x)

    for x, h in _starts(problem, space, seed=3):
        for objective, reference in _objectives(space, method):
            path, ref_path = [], []
            expected = reference_polish(reference, ref_op, space, center, r, x, h,
                                        objective.minimize, path=ref_path)
            got = estimator._polish(objective, images, space, center, r, x, h, path=path)
            assert got == pytest.approx(expected, rel=1e-14, abs=0.0)
            assert _same_path(path, ref_path)
    # the polish forms no Jacobian: it reads images only
    assert work["jacobian"] == 0
    assert (work["jvp rows"], work["jvp calls"]) == (rows, calls)
    adjoint = (rows, calls) if method.uses_adjoint else (0, 0)
    assert (work["vjp rows"], work["vjp calls"]) == adjoint
    assert calls < ref_calls["operator"]


@pytest.mark.parametrize("case", POLISH_CASES[:4], ids=POLISH_IDS[:4])
def test_a_nan_operator_at_a_polish_candidate_raises(case):
    # the last point candidate of every block gets a NaN image; the
    # acuteness polish used to score such an image 0, a ratio that improves
    # on every positive one, and the step polish skipped it when an earlier
    # row improved
    problem, family, space = case
    method = gc.MethodSpec(family)
    center, r = np.asarray(problem.x0, dtype=float), problem.R
    images = estimator._image_map(problem, method)

    def poisoned(X, H):
        W = images(X, H)
        if X.ndim == 2:
            W[-1] = np.nan
        return W

    for x, h in _starts(problem, space, seed=3):
        for objective, _ in _objectives(space, method):
            with pytest.raises(ArgumentError, match="polish candidate has non-finite"):
                estimator._polish(objective, poisoned, space, center, r, x, h)


def test_a_non_finite_image_raises_where_the_one_candidate_polish_does():
    # every point candidate's image is NaN: the one-candidate polish raises
    # on the first one it scores, and so does the block polish
    problem, space = gc.chandrasekhar(0.5, 6), EUC
    method = gc.MethodSpec(gc.MIN_RESIDUAL)
    center, h = np.asarray(problem.x0, dtype=float), np.eye(6)[0]
    operator, images = reference_operator(problem, method), estimator._image_map(problem, method)

    def nan_images(X, H):
        W = images(X, H)
        return W if X.ndim == 1 else np.full_like(W, np.nan)

    def reference_nan_operator(x):
        B = operator(x)
        return B if x is center else np.full_like(B, np.nan)

    with pytest.raises(ArgumentError):
        reference_polish(reference_step_ratio(space, method), reference_nan_operator, space,
                         center, problem.R, center, h, minimize=False, path=[])
    with pytest.raises(ArgumentError):
        estimator._polish(estimator._StepRatio(space, method), nan_images, space, center,
                          problem.R, center, h)


ROW_SPACES = [EUC, gc.sequence_p(2.5), gc.sequence_p(3), gc.sequence_p(4), gc.sequence_p(6)]


def _assert_scores_close(got, expected, space, B, H):
    # rel 1e-14, times the condition ||h|| ||Bh|| / |[h, Bh]| of a row's
    # pairing where it cancels: every ratio is a pairing times or over
    # factors that round relatively, and a pairing rounds relative to
    # ||h|| ||Bh||, not to its own size
    W = _images(B, H)
    cond = norm_rows(space, H) * norm_rows(space, W) / np.abs(semiscalar_rows(space, H, W))
    expected = np.array(expected)
    assert np.array_equal(np.isinf(got), np.isinf(expected))
    fin = np.isfinite(expected)
    err = np.abs(got[fin] - expected[fin])
    assert np.all(err <= 1e-14 * np.abs(expected[fin]) * np.maximum(1.0, cond[fin]))


@pytest.mark.parametrize("space", ROW_SPACES, ids=["euclidean", "p2.5", "p3", "p4", "p6"])
def test_block_scorers_equal_one_candidate_scorers(space):
    # a row of a block scores as it would on its own, up to rounding, for
    # blocks of the polish's kind (unit h moved along each axis) and of
    # scaled random rows
    rng = np.random.default_rng(29)
    steps = [gc.MethodSpec(gc.BANACH_MIN_RESIDUAL),
             gc.MethodSpec(gc.BANACH_ALTMAN_STEEPEST_DESCENT, vartheta=1.5)]
    for n in (2, 3, 7, 8, 9, 16, 33, 80):
        B, B2 = rng.standard_normal((2, n, n))
        stack = np.stack([B, B2] * n)  # one operator per row of a 2n-row block
        h = rng.standard_normal(n)
        h /= norm(space, h)
        moved = np.repeat(h[None, :], 2 * n, axis=0)
        moved[np.arange(2 * n), np.arange(2 * n) // 2] += np.tile([0.25, -0.25], n)
        scaled = rng.standard_normal((2 * n, n)) * 10.0 ** rng.uniform(-3, 3, (2 * n, 1))
        for H in (moved, scaled):
            acute = estimator._AcuteRatio(space)
            _assert_scores_close(_score(acute, space, B, H),
                                 [reference_acute_ratio(space, row, B) for row in H],
                                 space, B, H)
            for method in steps:
                step = estimator._StepRatio(space, method)
                reference = reference_step_ratio(space, method)
                _assert_scores_close(_score(step, space, B, H),
                                     [reference(B, row) for row in H], space, B, H)
                _assert_scores_close(_score(step, space, stack, H),
                                     [reference(Bk, row) for Bk, row in zip(stack, H)],
                                     space, stack, H)
