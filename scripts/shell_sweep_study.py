#!/usr/bin/env python3
"""Shell-count study for the decomposition solver.

Solves the same semilinear problem with 1..M shells and reports sweeps,
the sweeps that kept the Anderson-mixed candidate, the global residual, and
the gap to the single-domain fixed-point solution (all at default damping).

Usage: python scripts/shell_sweep_study.py [--shells 1 2 3 5] [--n 96]
"""

import argparse

import numpy as np

from fpxlap import (GridFunction, Nonlinearity, PoissonProblem, ScalarExponent,
                    assemble_weights, build_mesh, fixed_point_solve,
                    solve_by_decomposition)
from fpxlap.exponents import ExponentField


def run(shell_counts, n):
    mesh = build_mesh(2.0, n, [(-1.0, 1.0)])
    p = ExponentField(
        evaluator=lambda x, y: 2.0 + 0.0 * (np.asarray(x) + np.asarray(y)),
        p_minus=2.0, p_plus=2.0, s=0.4,
    )
    template = PoissonProblem(
        mesh=mesh, weights=assemble_weights(mesh, p), p=p,
        r=ScalarExponent(evaluator=lambda x: 3.0 + 0.0 * np.asarray(x), lower=3.0, upper=3.0),
        h=GridFunction.zeros(mesh), g=GridFunction.zeros(mesh),
    )
    eps = 0.05
    avals = 0.5 * np.exp(-2.0 * mesh.cell_centers ** 2) + 0.1
    f = Nonlinearity(
        evaluator=lambda x, t: (0.5 * np.exp(-2.0 * np.asarray(x) ** 2) + 0.1)
        + eps * np.arctan(np.asarray(t)),
        a=GridFunction(mesh, avals), c_growth=eps,
    )
    ref, trace = fixed_point_solve(f, template)
    print(f"reference fixed point: {len(trace.iterates)} iterations, "
          f"residual {trace.residual:.2e}")
    print(f"{'shells':>7} {'sweeps':>7} {'mixed_sweeps':>13} {'residual':>11} "
          f"{'sup_gap_to_fp':>14}")
    for m in shell_counts:
        sol, rep = solve_by_decomposition(f, GridFunction.zeros(mesh), m, template)
        gap = float(np.max(np.abs(sol.u.u.values - ref.u.u.values)))
        print(f"{m:>7} {rep.sweeps:>7} {rep.mixed_sweeps:>13} {rep.residual:>11.2e} "
              f"{gap:>14.2e}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--shells", type=int, nargs="+", default=[1, 2, 3, 5])
    ap.add_argument("--n", type=int, default=96)
    args = ap.parse_args()
    run(args.shells, args.n)
