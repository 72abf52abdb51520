"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` replaces public functions of gradcert at the name their
caller looks up (a module attribute, or a global of the calling module)
with wrappers that time a span and count the call.  Spans nest on a stack,
so each span's self time is its duration minus the time of the spans it
encloses.  Problems get their ``f`` and ``jacobian`` wrapped when
``problems.make_problem`` builds them.  The moduli of continuity get their
``integral`` counted without a span: each call is one relaxation-map
evaluation, and a span would cost as much as the call.  Totals are kept in
memory per span name and read once per pass; ``uninstall`` restores every
replaced attribute.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name).  One function can be looked up under
# several modules; each lookup site gets its own wrapper for the same span.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "cli.load_config"),
    ("estimator", "estimate_nu_tilde", "estimator.nu_tilde"),
    ("estimator", "estimate_lambda_tilde", "estimator.lambda_tilde"),
    ("estimator", "estimate_nu_trajectory", "estimator.nu_trajectory"),
    ("estimator", "estimate_theta", "estimator.theta"),
    ("estimator", "estimate_omega_lipschitz", "estimator.omega_lipschitz"),
    ("majorant", "certify", "majorant.certify"),
    ("majorant", "majorant_sum", "majorant.majorant_sum"),
    ("majorant", "smallest_fixed_point", "majorant.fixed_point"),
    ("majorant", "aposteriori_bound", "majorant.aposteriori"),
    ("majorant", "apriori_bound", "majorant.apriori"),
    ("methods", "solve", "methods.solve"),
    ("methods", "step_direction", "methods.step_direction"),
    ("methods", "verify_relaxation", "methods.verify_relaxation"),
    ("spaces", "norm_rows", "spaces.norm_rows"),
    ("estimator", "norm_rows", "spaces.norm_rows"),
    ("spaces", "semiscalar_rows", "spaces.semiscalar_rows"),
    ("estimator", "semiscalar_rows", "spaces.semiscalar_rows"),
    ("spaces", "norm", "spaces.norm"),
    ("estimator", "norm", "spaces.norm"),
    ("methods", "norm", "spaces.norm"),
    ("spaces", "verify_space_axioms", "spaces.verify_axioms"),
)
ROW_SPANS = frozenset({"spaces.norm_rows", "spaces.semiscalar_rows"})
MODULI = ("LipschitzModulus", "HolderModulus", "TabulatedModulus")

# Per-layer metric -> (kind, source).  "self" is a span's self time in
# seconds, "calls" its number of calls, "count" a counter of its own.
METRICS = {
    "cli.load_config_s": ("self", "cli.load_config"),
    "cli.self_s": ("self", "cli.main"),
    "cli.report_bytes": ("count", "cli.report_bytes"),
    "cli.trace_bytes": ("count", "cli.trace_bytes"),
    "problems.f_evals": ("calls", "problems.f"),
    "problems.jacobian_evals": ("calls", "problems.jacobian"),
    "problems.f_s": ("self", "problems.f"),
    "problems.jacobian_s": ("self", "problems.jacobian"),
    "estimator.nu_tilde_s": ("self", "estimator.nu_tilde"),
    "estimator.lambda_tilde_s": ("self", "estimator.lambda_tilde"),
    "estimator.nu_trajectory_s": ("self", "estimator.nu_trajectory"),
    "estimator.theta_s": ("self", "estimator.theta"),
    "estimator.omega_lipschitz_s": ("self", "estimator.omega_lipschitz"),
    "estimator.jacobian_evals": ("count", "estimator.jacobian_evals"),
    "majorant.certify_s": ("self", "majorant.certify"),
    "majorant.majorant_sum_calls": ("calls", "majorant.majorant_sum"),
    "majorant.majorant_sum_s": ("self", "majorant.majorant_sum"),
    "majorant.fixed_point_calls": ("calls", "majorant.fixed_point"),
    "majorant.fixed_point_s": ("self", "majorant.fixed_point"),
    "majorant.relax_evals": ("count", "majorant.relax_evals"),
    "majorant.relax_points": ("count", "majorant.relax_points"),
    "majorant.aposteriori_calls": ("calls", "majorant.aposteriori"),
    "majorant.aposteriori_s": ("self", "majorant.aposteriori"),
    "majorant.apriori_s": ("self", "majorant.apriori"),
    "methods.solve_s": ("self", "methods.solve"),
    "methods.steps": ("calls", "methods.step_direction"),
    "methods.step_direction_s": ("self", "methods.step_direction"),
    "methods.verify_relaxation_s": ("self", "methods.verify_relaxation"),
    "spaces.norm_rows_calls": ("calls", "spaces.norm_rows"),
    "spaces.norm_rows_s": ("self", "spaces.norm_rows"),
    "spaces.semiscalar_rows_calls": ("calls", "spaces.semiscalar_rows"),
    "spaces.semiscalar_rows_s": ("self", "spaces.semiscalar_rows"),
    "spaces.rows": ("count", "spaces.rows"),
    "spaces.norm_calls": ("calls", "spaces.norm"),
    "spaces.norm_s": ("self", "spaces.norm"),
    "spaces.verify_axioms_s": ("self", "spaces.verify_axioms"),
}


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # [span name, time covered by child spans]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def snapshot(self) -> dict[str, float]:
        """Every per-layer metric for the work since the last ``reset``."""
        src = {"self": self.self_s, "calls": self.calls, "count": self.counts}
        return {name: src[kind][key] for name, (kind, key) in METRICS.items()}

    def span(self, name: str, fn, on_call=None):
        stack, self_s, calls = self._stack, self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[name] += dt - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dt
        return wrapper

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, pkg) -> None:
        """Wrap the public functions of the gradcert package ``pkg``."""
        counts = self.counts

        def count_rows(args):
            counts["spaces.rows"] += len(args[1])

        for mod, attr, name in SPANS:
            module = getattr(pkg, mod)
            self._replace(module, attr, self.span(
                name, getattr(module, attr),
                count_rows if name in ROW_SPANS else None))

        stack = self._stack

        def count_estimator_jacobian(args):
            if stack and stack[-1][0].startswith("estimator."):
                counts["estimator.jacobian_evals"] += 1

        make_problem = pkg.problems.make_problem

        def traced_make_problem(name, **params):
            problem = make_problem(name, **params)
            return dataclasses.replace(
                problem,
                f=self.span("problems.f", problem.f),
                jacobian=self.span("problems.jacobian", problem.jacobian,
                                   count_estimator_jacobian))

        self._replace(pkg.problems, "make_problem", traced_make_problem)

        for cls_name in MODULI:
            cls = getattr(pkg.majorant, cls_name)

            def integral(obj, r, t, _orig=cls.integral):
                counts["majorant.relax_evals"] += 1
                # isinstance, not np.size: this runs ~10^6 times a pass
                counts["majorant.relax_points"] += t.size if isinstance(t, np.ndarray) else 1
                return _orig(obj, r, t)

            self._replace(cls, "integral", integral)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
