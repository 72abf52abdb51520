"""Reference values computed apart from the program.

Everything here is derived from the problem definitions and the step-rule
formulas in the paper, with numpy only: exact solutions, antieigenvalues,
contraction factors, step-size bounds, and the benchmark's own
midpoint-rule discretization of the Chandrasekhar H-equation solved by its
own Newton iteration.
"""

from __future__ import annotations

import math

import numpy as np

ADJOINT_FAMILIES = frozenset({"min_co_error", "min_error", "altman_min_error"})
MINIMAL_FAMILIES = frozenset({"min_residual", "min_co_error", "banach_min_residual"})
ALTMAN_FAMILIES = frozenset({"altman_steepest_descent", "altman_min_error",
                             "banach_altman_steepest_descent"})


def space_norm(v, p: float) -> float:
    """||v||_p, rescaled by the largest entry so powers cannot overflow."""
    v = np.abs(np.asarray(v, dtype=float))
    top = float(v.max())
    if top == 0.0:
        return 0.0
    return top * float(np.sum((v / top) ** p)) ** (1.0 / p)


def antieigenvalue(m: float, M: float) -> float:
    """cos of the largest angle between h and Ah for SPD A with spectrum [m, M]."""
    return 2.0 * math.sqrt(m * M) / (m + M)


def exact_nu(m: float, M: float, family: str) -> float:
    """Acuteness constant of T(x) f'(x): A for identity T, A^2 for the adjoint."""
    if family in ADJOINT_FAMILIES:
        return 2.0 * m * M / (m * m + M * M)
    return antieigenvalue(m, M)


def exact_mu(nu: float, family: str, vartheta: float = 1.0, sigma: float = 1.0) -> float:
    """Contraction factor of the family's step rule for acuteness constant nu."""
    if family in MINIMAL_FAMILIES:
        return math.sqrt(1.0 - nu * nu / sigma)
    th = vartheta if family in ALTMAN_FAMILIES else 1.0
    return math.sqrt(1.0 - 2.0 / th + sigma / (th * th * nu * nu))


def exact_step_bound(m: float, family: str, vartheta: float = 1.0) -> float:
    """Supremum of the step scalar over all directions for SPD A with smallest eigenvalue m."""
    base = 1.0 / (m * m) if family in ADJOINT_FAMILIES else 1.0 / m
    if family in MINIMAL_FAMILIES:
        return base
    return base / (vartheta if family in ALTMAN_FAMILIES else 1.0)


def h_equation(c: float, n: int, tol: float = 1e-15, max_iter: int = 50) -> np.ndarray:
    """Solution of the midpoint-rule H-equation H = 1 / (1 - (c/2) int mu H(nu)/(mu+nu)).

    Newton's method from H = 1 on the n-point composite midpoint rule
    (Kelley, Iterative Methods for Linear and Nonlinear Equations, 1995).
    """
    nodes = (np.arange(1, n + 1) - 0.5) / n
    weights = np.full(n, 1.0 / n)
    kernel = 0.5 * c * weights[None, :] * nodes[:, None] / (nodes[:, None] + nodes[None, :])
    H = np.ones(n)
    for _ in range(max_iter):
        s = 1.0 / (1.0 - kernel @ H)
        G = H - s
        if np.max(np.abs(G)) <= tol:
            return H
        H = H - np.linalg.solve(np.eye(n) - (s * s)[:, None] * kernel, G)
    raise RuntimeError(f"H-equation Newton did not reach {tol} for c={c}, n={n}")


def solution(problem: dict) -> np.ndarray:
    """The exact (or Newton-reference) solution of a built-in problem config."""
    name = problem["name"]
    params = problem.get("params", {})
    if name == "linear_spd":
        if params.get("b") is not None:
            raise ValueError("reference solution assumes the default b = 0")
        return np.zeros(int(params.get("dim", 2)))
    if name == "identity":
        return np.asarray(params["b"], dtype=float)
    if name == "scalar_quad":
        # smaller root of 0.05 x^2 - x + c, in the cancellation-free form
        c = float(params.get("c", 0.1))
        return np.array([2.0 * c / (1.0 + math.sqrt(1.0 - 0.2 * c))])
    if name == "chandrasekhar":
        return h_equation(float(params.get("c", 0.5)), int(params.get("n", 20)))
    raise ValueError(f"no reference solution for problem {name!r}")


def certified_mu(problem: dict, family: str, vartheta: float) -> float | None:
    """Contraction factor of the closed-form bounds when omega = 0, else None."""
    name = problem["name"]
    params = problem.get("params", {})
    if name == "linear_spd":
        nu = exact_nu(float(params["m"]), float(params["M"]), family)
    elif name == "identity":
        nu = 1.0
    else:
        return None
    return exact_mu(nu, family, vartheta)
