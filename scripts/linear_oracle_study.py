#!/usr/bin/env python3
"""Refinement study for the constant-order linear case against the closed form.

Solves the p = 2, s = 0.4 problem with unit source and zero exterior data on
(-1, 1) inside the box [-4, 4], and compares against the Getoor ball profile
scaled to this solver's convention: the pair-doubled weak form with the bare
kernel solves the Fourier-normalized equation scaled by C_{1,s}/2, so

    u_exact(x) = (C_{1,s}/2) * c_s * (1 - x^2)^s,
    c_s   = Gamma(1/2) / (4^s Gamma(1/2+s) Gamma(1+s)),
    C_1s  = 4^s Gamma(1/2+s) s / (sqrt(pi) Gamma(1-s)).

Usage: python scripts/linear_oracle_study.py [--s 0.4] [--sizes 64 128 256 512]
"""

import argparse
from math import gamma, pi, sqrt

import numpy as np

from fpxlap import GridFunction, PoissonProblem, assemble_weights, build_mesh, solve_poisson
from fpxlap.exponents import ExponentField


def run(s, sizes):
    c_s = gamma(0.5) / (4 ** s * gamma(0.5 + s) * gamma(1 + s))
    c_norm = 4 ** s * gamma(0.5 + s) * s / (sqrt(pi) * gamma(1 - s))
    amplitude = 0.5 * c_norm * c_s
    print(f"s = {s}   amplitude = {amplitude:.8f}")
    print(f"{'n':>6} {'rel_L2_error':>14} {'sup_error':>12} {'iterations':>11}")
    prev = None
    for n in sizes:
        mesh = build_mesh(4.0, n, [(-1.0, 1.0)])
        p = ExponentField(
            evaluator=lambda x, y: 2.0 + 0.0 * (np.asarray(x) + np.asarray(y)),
            p_minus=2.0, p_plus=2.0, s=s,
        )
        prob = PoissonProblem(
            mesh=mesh, weights=assemble_weights(mesh, p), p=p,
            h=GridFunction(mesh, np.ones(n)), g=GridFunction.zeros(mesh),
        )
        sol = solve_poisson(prob)
        mask = mesh.interior_mask
        exact = amplitude * (1.0 - mesh.cell_centers[mask] ** 2) ** s
        diff = sol.u.u.values[mask] - exact
        rel = float(np.sqrt(np.sum(diff ** 2) / np.sum(exact ** 2)))
        sup = float(np.max(np.abs(diff)))
        rate = "" if prev is None else f"  rate {np.log2(prev / rel):.2f}"
        print(f"{n:>6} {rel:>14.6f} {sup:>12.2e} {sol.iterations:>11}{rate}")
        prev = rel


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--s", type=float, default=0.4)
    ap.add_argument("--sizes", type=int, nargs="+", default=[64, 128, 256, 512])
    args = ap.parse_args()
    run(args.s, args.sizes)
