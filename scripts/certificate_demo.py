#!/usr/bin/env python3
"""End-to-end certificate walkthrough on two nonlinear problems.

quad2d uses its shipped closed-form bound functions; the H-equation
discretization gets sampled bounds.  For each run the script prints the
certificate, then a per-step table comparing the true error (against a
Newton reference) with the a priori and a posteriori bounds.

Usage: python scripts/certificate_demo.py [--seed 7]
"""

import argparse

import numpy as np

import gradcert as gc

EUC = gc.euclidean()


def show(problem, method, bounds, label):
    a = gc.norm(EUC, problem.f(problem.x0))
    cert = gc.certify(bounds, 1.0, a)
    print(f"\n=== {label}: {problem.name}, {method.family} ===")
    print(f"initial residual a = {a:.6g}, ball R = {problem.R:g}")
    print(f"certificate: feasible={cert.feasible} r={cert.r:.6g} "
          f"phi*={cert.phi_star if cert.phi_star is None else round(cert.phi_star, 6)} "
          f"w(a)={cert.w_of_a:.6g} condition={cert.condition_value:.6g}")
    if cert.feasible:
        print(f"rate bounds: per-step <= {cert.velo_bound:.4f}, "
              f"asymptotic <= {cert.linear_rate:.4f}")
    else:
        print(f"diagnostics: {cert.diagnostics}")
        print("falling back to the bound map at r = R for a posteriori use")

    attach = cert.feasible
    trace = gc.solve(problem, method, EUC, gc.StopRule(1e-10, 300),
                     cert if attach else None, bounds if attach else None)
    x_star = gc.newton_solve(problem)
    print(f"run: {trace.termination} in {trace.n_steps} steps")
    print(f"{'n':>3} {'residual':>12} {'true error':>12} {'apost bound':>12} "
          f"{'apriori bound':>13}")
    for s in trace.steps:
        err = float(np.linalg.norm(s.x - x_star))
        apost = gc.aposteriori_bound(cert, s.res_norm)
        apri = (gc.apriori_bound(cert, s.n) if cert.feasible else float("nan"))
        print(f"{s.n:>3d} {s.res_norm:>12.4e} {err:>12.4e} {apost:>12.4e} {apri:>13.4e}")
        assert err <= apost + 1e-8
    if attach:
        report = gc.verify_relaxation(trace, cert)
        print(f"relaxation verification: "
              f"{'ok' if report.ok else f'{len(report.violations)} violations'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    pq = gc.quad2d()
    method = gc.MethodSpec(gc.MIN_RESIDUAL)
    show(pq, method, pq.certified_bounds.bound_data(method, 1.0),
         "closed-form bounds")

    pc = gc.chandrasekhar(0.5, 20)
    method = gc.MethodSpec(gc.STEEPEST_DESCENT)
    plan = gc.SamplePlan(seed=args.seed, n_points=64, n_dirs=128, refine=True)
    bounds = gc.estimated_bound_data(pc, method, EUC, plan)
    print(f"\nsampled bounds for {pc.name}: nu={bounds.nu:.6g} "
          f"lam={bounds.lam:.6g} theta={bounds.theta:.6g}")
    show(pc, method, bounds, "sampled bounds")


if __name__ == "__main__":
    main()
