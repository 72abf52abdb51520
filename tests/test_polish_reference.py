"""The block-scored polish against the one-candidate-at-a-time polish it replaced.

``reference_polish``, ``reference_acute_ratio``, ``reference_step_ratio``
and ``reference_project_ball`` are copies of the sequential polish, its two
objectives and its projection as they were before the polish scored its
candidates in blocks.  The estimator's values and accepted (point,
direction) path must equal theirs bit for bit.  The block polish evaluates
more Jacobian rows than the sequential one, since a block's rows after an
accepted one are built again, but in fewer, stacked calls.
"""

import dataclasses
import math

import numpy as np
import pytest

import gradcert as gc
from gradcert import estimator
from gradcert.errors import ArgumentError
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


def _counted_operator(problem, method, jacobian=None):
    """The estimator's operator, counting its calls and the Jacobian rows they evaluate."""
    jacobian = problem.jacobian if jacobian is None else jacobian
    problem = dataclasses.replace(problem, jacobian=jacobian)
    work = {"calls": 0, "rows": 0}

    def operator(x):
        work["calls"] += 1
        work["rows"] += len(x) if x.ndim == 2 else 1
        return estimator._operator(method, estimator._jacobian(problem, x))
    return operator, work


def _starts(problem, space, seed):
    """The center with the first axis, and a seeded ball point with a seeded direction."""
    center = np.asarray(problem.x0, dtype=float)
    rng = np.random.default_rng(seed)
    x = estimator._ball_points(center, problem.R, 4, rng, space)[-1]
    h = rng.standard_normal(len(center))
    return [(center, np.eye(len(center))[0]), (x, h / norm(space, h))]


def _same_path(got, expected):
    return len(got) == len(expected) and all(
        np.array_equal(x, x_ref) and np.array_equal(h, h_ref)
        for (x, h), (x_ref, h_ref) in zip(got, expected))


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
    # Jacobian rows and calls over the four polishes of a case; the
    # one-candidate polish makes 6404, 1924, 1924, 1924 and 844 calls of
    # one row each
    (case, rows, calls) for case, (rows, calls) in zip(POLISH_CASES, [
        (8918, 1193), (2904, 478), (2809, 469), (2879, 478), (844, 144)])],
    ids=POLISH_IDS)
def test_polish_equals_one_candidate_polish(case, rows, calls):
    problem, family, space = case
    method = gc.MethodSpec(family)
    center, r = np.asarray(problem.x0, dtype=float), problem.R
    op, work = _counted_operator(problem, method)
    ref_op, ref_work = _counted_operator(problem, method)
    for x, h in _starts(problem, space, seed=3):
        for objective, reference in _objectives(space, method):
            path, ref_path = [], []
            expected = reference_polish(reference, ref_op, space, center, r, x, h,
                                        objective.minimize, path=ref_path)
            got = estimator._polish(objective, op, space, center, r, x, h, path=path)
            assert got == expected
            assert _same_path(path, ref_path)
    assert ref_work["calls"] == ref_work["rows"]
    assert (work["rows"], work["calls"]) == (rows, calls)
    assert calls < ref_work["calls"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", POLISH_CASES[:4], ids=POLISH_IDS[:4])
def test_rows_scored_after_the_accepted_one_never_raise(case):
    # a block's rows after its accepted one are points the one-candidate
    # polish never visits; give them NaN Jacobians, whose images make a
    # minimal-quadratic score raise on its own, and the polish must still
    # return the reference's value and path
    problem, family, space = case
    method = gc.MethodSpec(family)
    if method.mu_family != "min":
        method = gc.MethodSpec(gc.MIN_RESIDUAL if space == EUC else gc.BANACH_MIN_RESIDUAL)
    center, r = np.asarray(problem.x0, dtype=float), problem.R
    visited = set()

    def recording(x):
        visited.add(x.tobytes())
        return problem.jacobian(x)

    poisoned = [0]

    def poisoning(X):
        J = problem.jacobian(X)
        for i, x in enumerate(X.reshape(-1, X.shape[-1])):
            if x.tobytes() not in visited:
                J.reshape(-1, *J.shape[-2:])[i] = np.nan
                poisoned[0] += 1
        return J

    ref_op, _ = _counted_operator(problem, method, recording)
    op, _ = _counted_operator(problem, method, poisoning)
    for x, h in _starts(problem, space, seed=3):
        for objective, reference in _objectives(space, method):
            path, ref_path = [], []
            expected = reference_polish(reference, ref_op, space, center, r, x, h,
                                        objective.minimize, path=ref_path)
            assert estimator._polish(objective, op, space, center, r, x, h,
                                     path=path) == expected
            assert _same_path(path, ref_path)
    assert poisoned[0] > 0


def test_a_non_finite_image_raises_where_the_one_candidate_polish_does():
    # every point candidate's operator is NaN: the one-candidate polish
    # raises on the first one it scores, and so does the block polish
    problem, space = gc.chandrasekhar(0.5, 6), EUC
    method = gc.MethodSpec(gc.MIN_RESIDUAL)
    center, h = np.asarray(problem.x0, dtype=float), np.eye(6)[0]

    def operator(x):
        B = estimator._operator(method, estimator._jacobian(problem, x))
        return B if x.ndim == 1 else np.full_like(B, np.nan)

    def reference_operator(x):
        B = operator(x)
        return B if x is center else np.full_like(B, np.nan)

    with pytest.raises(ArgumentError):
        reference_polish(reference_step_ratio(space, method), reference_operator, space,
                         center, problem.R, center, h, minimize=False, path=[])
    with pytest.raises(ArgumentError):
        estimator._polish(estimator._StepRatio(space, method), operator, space, center,
                          problem.R, center, h)


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
