#!/usr/bin/env python3
"""Mesh-size scaling study for ``solve_poisson``.

Solves one problem per (n, exponent class): box [-2, 2], Omega = (-1, 1),
s = 0.3, h = 1 + sin 3x on Omega and exterior datum g = 0.2 cos x, from the
default cold start.  Reports the ``assemble_weights`` time (assemble_s) and
its tracemalloc peak (assemble_peak_mb, from a second, traced call), the
solve time (assembly excluded), its time per outer iteration (s_per_iter),
the tracemalloc peak of a second, traced solve (solve_peak_mb), outer
iterations, CG iterations, backtracks, sup u over Omega and the final
residual recomputed with the public ``energy_gradient``, so a speed-up that
changes the answer shows at once.

Classes: p1_5, p2, bump (gauss_bump 2 to 2.5), p3 and affine (2 + 0.2
(x + y) / 2, r = 2.8) by default; any constant exponent can be named as
pA_B (p1_3 is p = 1.3).  BLAS threads are not pinned here; set
OMP_NUM_THREADS / OPENBLAS_NUM_THREADS for comparable timings.

Usage: python scripts/poisson_scaling_study.py [--sizes 256 512 1024 2048]
       [--classes p1_5 p2 bump p3 affine]
"""

import argparse
import time
import tracemalloc

import numpy as np

from fpxlap import GridFunction, PoissonProblem, assemble_weights, build_mesh, energy_gradient, solve_poisson
from fpxlap.catalog import pair_exponent, scalar_exponent

R, OMEGA, S = 2.0, [(-1.0, 1.0)], 0.3
NAMED = {"bump": ("gauss_bump", {"base": 2.0, "amplitude": 0.5, "width": 1.0}, 3.0),
         "affine": ("affine", {"base": 2.0, "slope": 0.2}, 2.8)}


def exponent_class(name):
    """(kind, params, r) for a class name; r lies strictly between p and p*_s."""
    if name in NAMED:
        return NAMED[name]
    value = float(name[1:].replace("_", "."))
    critical = value / (1.0 - S * value)
    return "constant", {"value": value}, 0.5 * (value + critical)


def traced_peak_mb(call, *args):
    """tracemalloc peak of one call, in MB."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def run(sizes, classes):
    print(f"{'n':>5} {'class':>6} {'assemble_s':>10} {'assemble_peak_mb':>16} {'seconds':>8} "
          f"{'s_per_iter':>10} {'solve_peak_mb':>13} {'outer':>6} {'cg':>6} {'backtracks':>10} "
          f"{'sup_u':>10} {'residual':>9} {'converged':>9}")
    for n in sizes:
        mesh = build_mesh(R, n, OMEGA)
        x = mesh.cell_centers
        h = GridFunction(mesh, np.where(mesh.interior_mask, 1.0 + np.sin(3.0 * x), 0.0))
        g = GridFunction(mesh, 0.2 * np.cos(x))
        for name in classes:
            kind, params, r_value = exponent_class(name)
            p = pair_exponent(kind, params, s=S, R=R)
            start = time.perf_counter()
            weights = assemble_weights(mesh, p)
            assemble_s = time.perf_counter() - start
            peak_mb = traced_peak_mb(assemble_weights, mesh, p)
            prob = PoissonProblem(mesh=mesh, weights=weights, p=p,
                                  r=scalar_exponent("constant", {"value": r_value}, R), h=h, g=g)
            start = time.perf_counter()
            sol = solve_poisson(prob)
            seconds = time.perf_counter() - start
            solve_peak_mb = traced_peak_mb(solve_poisson, prob)
            residual = float(np.max(np.abs(energy_gradient(sol.u, prob).values)))
            sup_u = float(np.max(np.abs(sol.u.u.values[mesh.interior_mask])))
            print(f"{n:>5} {name:>6} {assemble_s:>10.3f} {peak_mb:>16.1f} {seconds:>8.3f} "
                  f"{seconds / max(sol.iterations, 1):>10.4f} {solve_peak_mb:>13.1f} "
                  f"{sol.iterations:>6} {sol.cg_iterations:>6} "
                  f"{sol.backtracks:>10} {sup_u:>10.6f} {residual:>9.2e} {str(sol.converged):>9}",
                  flush=True)


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", type=int, nargs="+", default=[256, 512, 1024, 2048])
    ap.add_argument("--classes", nargs="+", default=["p1_5", "p2", "bump", "p3", "affine"])
    args = ap.parse_args()
    run(args.sizes, args.classes)
