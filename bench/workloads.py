"""Workload definitions: the run configs each workload hands to the CLI.

A workload is a list of ``Case`` records built from the benchmark seed.
Every workload runs all four subcommands, so every end-to-end metric is
measured on every workload.  The seed only moves inputs that leave the
amount of work (nearly) unchanged, so runs with different seeds stay
comparable: the scale of x0 for linear problems (iterates scale with it
and step scalars do not, so step counts move by at most one), right-hand
sides of the identity, sampling-plan seeds, and space-check sample seeds.
Rotations are fixed per case, because a new rotation changes how many
steps a solve takes.  The two cases kept for known program faults use
inputs that do not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("certified-closed-form", "chandrasekhar-estimated", "lp-geometry")

# Known program faults kept in the workloads; each fails on every run.
F1 = "F1"  # verify_relaxation has no rounding floor: scalar_quad solve exits 2
F2 = "F2"  # mesh-dependent residual norm: chandrasekhar n=80 certify exits 3

RES_TOL = 1e-10


@dataclass(frozen=True)
class Case:
    """One CLI call: subcommand plus its config (without the output section)."""

    name: str
    command: str
    config: dict
    fault: str | None = None


def _subseed(rng) -> int:
    return int(rng.integers(2**31 - 1))


def _spd(rng, m: float, M: float, dim: int, rotation: int) -> dict:
    scale = 1.0 + 0.05 * float(rng.random())
    return {"name": "linear_spd",
            "params": {"m": m, "M": M, "dim": dim, "rotate": True, "seed": rotation,
                       "x0": [scale] * dim}}


def _certified(problem: dict, family: str, vartheta: float = 1.0,
               max_iter: int = 500) -> dict:
    return {
        "problem": problem,
        "method": {"family": family, "vartheta": vartheta},
        "space": {"kind": "euclidean"},
        "bounds": {"mode": "certified"},
        "run": {"res_tol": RES_TOL, "max_iter": max_iter},
    }


def _estimated(problem: dict, family: str, space: dict, plan: dict,
               max_iter: int = 500) -> dict:
    return {
        "problem": problem,
        "method": {"family": family},
        "space": space,
        "bounds": {"mode": "estimated", "plan": plan},
        "run": {"res_tol": RES_TOL, "max_iter": max_iter},
    }


def _verify_space(space: dict, seed: int, samples: int) -> dict:
    return {"space": space, "run": {"seed": seed, "samples": samples}}


HILBERT = ("min_residual", "min_co_error", "steepest_descent",
           "altman_steepest_descent", "min_error", "altman_min_error")

# (m, M, dim, rotation seed, families that certify on this spectrum,
# vartheta of the Altman variants).  Steepest descent and minimal errors
# certify only when the antieigenvalue exceeds sqrt(1/2); minimal co-errors
# only while its contraction factor keeps the run under max_iter steps.
SPECTRA = (
    (1.0, 2.0, 4, 11, HILBERT, 1.25),
    (1.0, 4.0, 2, 12, ("min_residual", "min_co_error", "steepest_descent",
                       "altman_steepest_descent"), 1.0),
    (2.0, 9.0, 8, 13, ("min_residual", "min_co_error", "steepest_descent"), 1.0),
    (1.0, 10.0, 5, 14, ("min_residual",), 1.0),
    (1.0, 25.0, 10, 15, ("min_residual",), 1.0),
)


def certified_closed_form(seed: int) -> list[Case]:
    """Closed-form bounds: the majorant and methods layers do the work."""
    rng = np.random.default_rng([0, seed])
    cases: list[Case] = []
    for k, (m, M, dim, rotation, families, th) in enumerate(SPECTRA):
        problem = _spd(rng, m, M, dim, rotation)
        for fam in families:
            vartheta = th if fam.startswith("altman") else 1.0
            cfg = _certified(problem, fam, vartheta)
            for cmd in ("certify", "solve"):
                cases.append(Case(f"spd{k}-{fam}-{cmd}", cmd, cfg))
    for dim in (2, 5):
        b = [float(v) for v in rng.uniform(-2.0, 2.0, dim)]
        problem = {"name": "identity", "params": {"dim": dim, "b": b}}
        for fam in HILBERT:
            cfg = _certified(problem, fam)
            for cmd in ("certify", "solve"):
                cases.append(Case(f"id{dim}-{fam}-{cmd}", cmd, cfg))
    for fam in ("min_residual", "steepest_descent", "min_error"):
        c = float(rng.uniform(0.05, 0.3))
        cases.append(Case(f"quad-{fam}-certify", "certify",
                          _certified({"name": "scalar_quad", "params": {"c": c}}, fam)))
    cases.append(Case("quad-min_residual-solve", "solve",
                      _certified({"name": "scalar_quad", "params": {}}, "min_residual"),
                      fault=F1))
    for k, (m, M, dim, fam) in enumerate(((1.0, 4.0, 2, "min_residual"),
                                          (2.0, 9.0, 8, "min_co_error"),
                                          (1.0, 2.0, 4, "steepest_descent"))):
        problem = _spd(rng, m, M, dim, 21 + k)
        plan = {"seed": _subseed(rng), "n_points": 16, "n_dirs": 32, "refine": True}
        cases.append(Case(f"est{k}-{fam}-estimate", "estimate",
                          _estimated(problem, fam, {"kind": "euclidean"}, plan)))
    cases.append(Case("euclid-verify-space", "verify-space",
                      _verify_space({"kind": "euclidean"}, _subseed(rng), 100000)))
    return cases


# The shipped sampling plan of configs/chandrasekhar_estimated.json.
SHIPPED_PLAN = {"seed": 7, "n_points": 64, "n_dirs": 128, "refine": True}


def chandrasekhar_estimated(seed: int) -> list[Case]:
    """Sampled bounds on the H-equation: estimator passes and Jacobians dominate."""
    rng = np.random.default_rng([1, seed])
    cases: list[Case] = []
    for n in (20, 40, 80):
        problem = {"name": "chandrasekhar", "params": {"c": 0.5, "n": n}}
        plan = dict(SHIPPED_PLAN, seed=_subseed(rng))
        cfg = _estimated(problem, "steepest_descent", {"kind": "euclidean"}, plan, 300)
        cases.append(Case(f"h{n}-estimate", "estimate", cfg))
        if n == 80:
            cases.append(Case(f"h{n}-certify", "certify",
                              _estimated(problem, "steepest_descent",
                                         {"kind": "euclidean"}, SHIPPED_PLAN, 300),
                              fault=F2))
        else:
            cases.append(Case(f"h{n}-certify", "certify", cfg))
            cases.append(Case(f"h{n}-solve", "solve", cfg))
    cases.append(Case("euclid-verify-space", "verify-space",
                      _verify_space({"kind": "euclidean"}, _subseed(rng), 100000)))
    return cases


def lp_geometry(seed: int) -> list[Case]:
    """l_p spaces: the |x|^p row kernels and sigma = p - 1 > 1."""
    rng = np.random.default_rng([2, seed])
    cases: list[Case] = []
    for p in (3.0, 4.0, 6.0):
        space = {"kind": "sequence_p", "p": p}
        problems = (
            ("spd", _spd(rng, 1.0, 3.0, 3, 31)),
            ("h", {"name": "chandrasekhar", "params": {"c": 0.5, "n": 6}}),
        )
        for tag, problem in problems:
            plan = {"seed": _subseed(rng), "n_points": 8, "n_dirs": 256, "refine": True}
            cfg = _estimated(problem, "banach_min_residual", space, plan)
            for cmd in ("estimate", "certify", "solve"):
                cases.append(Case(f"p{p:g}-{tag}-{cmd}", cmd, cfg))
        cases.append(Case(f"p{p:g}-verify-space", "verify-space",
                          _verify_space(space, _subseed(rng), 100000)))
    return cases


BUILDERS = {
    "certified-closed-form": certified_closed_form,
    "chandrasekhar-estimated": chandrasekhar_estimated,
    "lp-geometry": lp_geometry,
}


def build(workload: str, seed: int) -> list[Case]:
    return BUILDERS[workload](seed)
