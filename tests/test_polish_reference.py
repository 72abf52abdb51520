"""The block-scored polish against the one-candidate-at-a-time polish it replaced.

``reference_polish``, ``reference_acute_ratio`` and ``reference_step_ratio``
are copies of the sequential polish and its two objectives as they were
before the polish scored its direction candidates in blocks.  The
estimator's values must equal theirs bit for bit, with the same number of
Jacobian evaluations.
"""

import math

import numpy as np
import pytest

import gradcert as gc
from gradcert import estimator
from gradcert.estimator import _project_ball
from gradcert.spaces import norm, norm_each, norm_rows, semiscalar_rows

EUC = gc.euclidean()


def reference_acute_ratio(space, h, B):
    H = h[None, :]
    W = H @ B.T
    den = norm_rows(space, H)[0] * norm_rows(space, W)[0]
    num = semiscalar_rows(space, H, W)[0]
    return float(num / den) if den > 0.0 else 0.0


def reference_step_ratio(space, method):
    minimal_quadratic = method.mu_family == "min"
    th = method.effective_vartheta

    def lam_objective(B, h):
        w = B @ h
        num = semiscalar_rows(space, h[None, :], w[None, :])[0]
        if minimal_quadratic:
            den = space.sigma * norm(space, w) ** 2
            return num / den if den > 0 else math.inf
        return norm(space, h) ** 2 / (th * num) if num > 0 else math.inf
    return lam_objective


def reference_polish(objective, operator, space, center, r, x, h, minimize: bool,
                     iters: int = 40):
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
        if r > 0.0:
            for j in range(len(x)):
                for s in (step * r, -step * r):
                    xc = x.copy()
                    xc[j] += s
                    xc = _project_ball(space, center, r, xc)
                    Bc = operator(xc)
                    v = objective(Bc, h)
                    if (v < best) if minimize else (v > best):
                        best, x, B, improved = v, xc, Bc, True
        if not improved:
            step *= 0.5
            if step < 1e-7:
                break
    return best


def _counted_operator(problem, method):
    calls = [0]

    def operator(x):
        calls[0] += 1
        return estimator._operator(method, estimator._jacobian(problem, x))
    return operator, calls


def _starts(problem, space, seed):
    """The center with the first axis, and a seeded ball point with a seeded direction."""
    center = np.asarray(problem.x0, dtype=float)
    rng = np.random.default_rng(seed)
    x = estimator._ball_points(center, problem.R, 4, rng, space)[-1]
    h = rng.standard_normal(len(center))
    return [(center, np.eye(len(center))[0]), (x, h / norm(space, h))]


@pytest.mark.parametrize("problem, family, space", [
    (gc.chandrasekhar(0.5, 20), gc.STEEPEST_DESCENT, EUC),
    (gc.chandrasekhar(0.5, 6), gc.BANACH_MIN_RESIDUAL, gc.sequence_p(3)),
    (gc.chandrasekhar(0.5, 6), gc.BANACH_MIN_RESIDUAL, gc.sequence_p(4)),
    (gc.chandrasekhar(0.5, 6), gc.BANACH_MIN_RESIDUAL, gc.sequence_p(6)),
    (gc.linear_spd(1, 3, 3), gc.MIN_CO_ERROR, EUC),
], ids=["chandrasekhar20-sd", "chandrasekhar6-lp3", "chandrasekhar6-lp4",
        "chandrasekhar6-lp6", "spd3-min-co-error"])
def test_polish_equals_one_candidate_polish(problem, family, space):
    method = gc.MethodSpec(family)
    center, r = np.asarray(problem.x0, dtype=float), problem.R
    pairs = [(estimator._AcuteRatio(space), lambda B, h: reference_acute_ratio(space, h, B)),
             (estimator._StepRatio(space, method), reference_step_ratio(space, method))]
    for x, h in _starts(problem, space, seed=3):
        for objective, reference in pairs:
            op, calls = _counted_operator(problem, method)
            expected = reference_polish(reference, op, space, center, r, x, h,
                                        objective.minimize)
            expected_calls, calls[0] = calls[0], 0
            assert estimator._polish(objective, op, space, center, r, x, h) == expected
            assert calls[0] == expected_calls


ROW_SPACES = [EUC, gc.sequence_p(2.5), gc.sequence_p(3), gc.sequence_p(4), gc.sequence_p(6)]


@pytest.mark.parametrize("space", ROW_SPACES, ids=["euclidean", "p2.5", "p3", "p4", "p6"])
def test_block_scorers_equal_one_candidate_scorers(space):
    # a row of a block scores as it would on its own, for blocks of the
    # polish's kind (unit h moved along each axis) and of scaled random rows
    rng = np.random.default_rng(29)
    steps = [gc.MethodSpec(gc.BANACH_MIN_RESIDUAL),
             gc.MethodSpec(gc.BANACH_ALTMAN_STEEPEST_DESCENT, vartheta=1.5)]
    for n in (2, 3, 7, 8, 9, 16, 33, 80):
        B, B2 = rng.standard_normal((2, n, n))
        h = rng.standard_normal(n)
        h /= norm(space, h)
        moved = np.repeat(h[None, :], 2 * n, axis=0)
        moved[np.arange(2 * n), np.arange(2 * n) // 2] += np.tile([0.25, -0.25], n)
        scaled = rng.standard_normal((2 * n, n)) * 10.0 ** rng.uniform(-3, 3, (2 * n, 1))
        for H in (moved, scaled):
            assert norm_each(space, H) == [norm(space, row) for row in H]
            acute = estimator._AcuteRatio(space)
            got = acute(B, H, acute.terms(H))
            assert list(got) == [reference_acute_ratio(space, row, B) for row in H]
            for method in steps:
                step = estimator._StepRatio(space, method)
                reference = reference_step_ratio(space, method)
                got = step(B, H, step.terms(H))
                assert list(got) == [reference(B, row) for row in H]
                # the point sweep keeps a 1-row block's terms across operators
                one = H[:1]
                assert step(B2, one, step.terms(one))[0] == reference(B2, one[0])
