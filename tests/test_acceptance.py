"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test emits one PASS/FAIL line, printed and appended to
``acceptance_report.txt`` under pytest's base temporary directory (pytest's
fd capture hides prints from passing tests); the run's summary prints the
file's path.  Criteria with stated runtime budgets assert them.
"""

import time
from math import gamma as gamma_fn, pi, sqrt

import numpy as np
import pytest

from fpxlap import (GridFunction, PoissonProblem, Tolerances, assemble_weights, build_mesh,
                    energy, energy_gradient, fixed_point_solve, gagliardo_seminorm,
                    lr_estimate_check, luxemburg_norm, minimizer_equivalence_check,
                    nemytsky, solve_by_decomposition, solve_poisson, trace_exponent,
                    weak_form)
from fpxlap.semilinear import Nonlinearity
from fpxlap.sobolev import apply_operator
from fpxlap.suites import (run_cara_suite, run_edm_suite, run_holder_suite,
                           run_norm_modular_suite)

from util import bump_pair, const_pair, const_scalar, grid, random_w0


@pytest.fixture
def report(acceptance_report_path):
    """Print one PASS/FAIL line and append it to the report file."""
    def emit(ok: bool, label: str, **fields) -> bool:
        tail = "  ".join(f"{k}={v}" for k, v in fields.items())
        line = f"{'PASS' if ok else 'FAIL'}  {label}  {tail}"
        print(line)
        with acceptance_report_path.open("a") as fh:
            fh.write(line + "\n")
        return ok

    return emit


def make_problem(mesh, p, r_value, h_vals, g_vals, **tol):
    W = assemble_weights(mesh, p)
    return PoissonProblem(
        mesh=mesh, weights=W, p=p, r=const_scalar(r_value),
        h=grid(mesh, h_vals), g=grid(mesh, g_vals),
        tolerances=Tolerances(**tol) if tol else Tolerances(),
    )


@pytest.fixture(scope="module")
def mesh256():
    return build_mesh(2.0, 256, [(-1.0, 1.0)])


def test_criterion_01_norm_modular_suite(mesh256, report):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    res = run_norm_modular_suite(mesh256, rng, 500)
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed < 5.0
    assert report(ok, "criterion-01 norm-modular", cases=res.cases,
                  failures=res.failures,
                  unit_ball_defect=res.extras["worst_unit_ball_defect"],
                  seconds=f"{elapsed:.2f}")


def test_criterion_02_holder_suite(mesh256, report):
    rng = np.random.default_rng(102)
    res = run_holder_suite(mesh256, rng, 1000)
    assert report(res.passed, "criterion-02 holder", cases=res.cases,
                  failures=res.failures, worst_slack=f"{res.worst_slack:.3e}")


def test_criterion_03_edm_and_cara_suites(mesh256, report):
    rng = np.random.default_rng(103)
    edm = run_edm_suite(mesh256, rng, 500)
    cara = run_cara_suite(mesh256, rng, 500)
    ok = edm.passed and cara.passed
    assert report(ok, "criterion-03 edm+cara", edm_failures=edm.failures,
                  cara_failures=cara.failures)


def test_criterion_04_gradient_matches_finite_differences(report):
    mesh = build_mesh(2.0, 128, [(-1.0, 1.0)])
    rng = np.random.default_rng(104)
    configs = [
        (const_pair(1.5, 0.5), 2.2),
        (const_pair(2.0, 0.4), 3.0),
        (const_pair(3.0, 0.3), 4.0),
        (bump_pair(2.0, 0.5, s=0.3), 3.0),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    step = 1e-6
    for p, rv in configs:
        prob = make_problem(mesh, p, rv, rng.standard_normal(128),
                            0.3 * rng.standard_normal(128))
        base = prob.g.values.copy()
        base[mesh.interior_mask] = rng.standard_normal(int(mesh.interior_mask.sum()))
        u0 = grid(mesh, base)
        gvals = energy_gradient(u0, prob).values
        for _ in range(50):
            d = random_w0(rng, mesh).values
            d /= np.linalg.norm(d)
            ep = energy(grid(mesh, base + step * d), prob)
            em = energy(grid(mesh, base - step * d), prob)
            fd = (ep - em) / (2 * step)
            an = float(gvals @ d)
            worst = max(worst, abs(fd - an) / max(abs(an), 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    assert report(ok, "criterion-04 gradient-vs-fd", worst_rel=f"{worst:.2e}",
                  seconds=f"{elapsed:.2f}")


def test_criterion_05_uniqueness_two_initializations(report):
    mesh = build_mesh(2.0, 64, [(-1.0, 1.0)])
    rng = np.random.default_rng(105)
    specs = [(1.5, 0.5, 2.2), (2.0, 0.4, 3.0), (3.0, 0.3, 4.0)]
    worst = 0.0
    for k in range(10):
        pv, s, rv = specs[k % 3]
        prob = make_problem(mesh, const_pair(pv, s), rv,
                            rng.standard_normal(64), 0.2 * rng.standard_normal(64))
        sols = []
        for _ in range(2):
            vals = prob.g.values.copy()
            vals[mesh.interior_mask] = rng.standard_normal(int(mesh.interior_mask.sum()))
            sol = solve_poisson(prob, initial=grid(mesh, vals))
            assert sol.converged
            sols.append(sol.u.u.values)
        worst = max(worst, float(np.max(np.abs(sols[0] - sols[1]))))
    ok = worst <= 1e-6
    assert report(ok, "criterion-05 uniqueness", problems=10, worst_sup=f"{worst:.2e}")


def test_criterion_06_weak_solution_equivalence(report):
    mesh = build_mesh(2.0, 64, [(-1.0, 1.0)])
    rng = np.random.default_rng(106)
    specs = [(const_pair(1.5, 0.5), 2.2), (const_pair(2.0, 0.4), 3.0),
             (const_pair(3.0, 0.3), 4.0), (bump_pair(2.0, 0.5, s=0.3), 3.0),
             (const_pair(2.0, 0.4), 3.0)]
    worst_drop = 0.0
    all_ok = True
    for p, rv in specs:
        prob = make_problem(mesh, p, rv, rng.standard_normal(64),
                            0.2 * rng.standard_normal(64))
        sol = solve_poisson(prob)
        assert sol.converged
        check = minimizer_equivalence_check(sol, prob, trials=100, rng=rng)
        all_ok &= check.passed
        worst_drop = min(worst_drop, check.value)
    ok = all_ok and worst_drop >= -1e-8
    assert report(ok, "criterion-06 minimizer-equivalence", problems=len(specs),
                  worst_energy_drop=f"{worst_drop:.2e}")


def test_criterion_07_linear_case_closed_form_oracle(report):
    # p = 2, s = 0.4, h = 1, g = 0 on (-1,1): the pair-doubled weak form with
    # the bare kernel solves the Fourier-normalized problem scaled by
    # C_{1,s}/2, so the ball solution is (C_{1,s}/2) c_s (1-x^2)^s
    s = 0.4
    c_s = gamma_fn(0.5) / (4 ** s * gamma_fn(0.5 + s) * gamma_fn(1 + s))
    c_norm = 4 ** s * gamma_fn(0.5 + s) * s / (sqrt(pi) * gamma_fn(1 - s))
    amplitude = 0.5 * c_norm * c_s
    t0 = time.perf_counter()
    errors = []
    for n in (128, 256, 512):
        mesh = build_mesh(4.0, n, [(-1.0, 1.0)])
        prob = make_problem(mesh, const_pair(2.0, s), 3.0,
                            np.ones(n), np.zeros(n))
        sol = solve_poisson(prob)
        assert sol.converged
        mask = mesh.interior_mask
        exact = amplitude * (1.0 - mesh.cell_centers[mask] ** 2) ** s
        diff = sol.u.u.values[mask] - exact
        errors.append(float(np.sqrt(np.sum(diff ** 2) / np.sum(exact ** 2))))
    elapsed = time.perf_counter() - t0
    ok = errors[-1] <= 0.05 and errors[0] > errors[1] > errors[2] and elapsed < 60.0
    assert report(ok, "criterion-07 linear-oracle",
                  rel_l2_errors="/".join(f"{e:.4f}" for e in errors),
                  seconds=f"{elapsed:.1f}")


def test_criterion_08_operator_weak_form_identity(report):
    mesh = build_mesh(2.0, 64, [(-1.0, 1.0)])
    W = assemble_weights(mesh, bump_pair(1.8, 0.6, s=0.3))
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(100):
        u = grid(mesh, rng.standard_normal(64) * rng.uniform(0.1, 5.0))
        phi = random_w0(rng, mesh)
        lhs = weak_form(u, phi, W)
        op = apply_operator(u, W)
        rhs = 2.0 * mesh.cell_width * float(
            np.sum(phi.values[mesh.interior_mask] * op[mesh.interior_mask]))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    ok = worst <= 1e-12
    assert report(ok, "criterion-08 operator-identity", worst_rel=f"{worst:.2e}")


def _estimate_family(mesh, rng, count, r):
    # geometric amplitude ladder with conjugate-norm-normalized shapes: the
    # family spans both norm regimes with evenly covered scales, and the
    # shape perturbations stay small next to the 10% holdout slack
    from fpxlap import conjugate_exponent

    xs = mesh.cell_centers
    rc = conjugate_exponent(r)
    base = np.sin(2.0 * xs) + np.exp(-(xs ** 2) / 0.3)
    family = []
    for k in range(count):
        shape = base + 0.05 * rng.standard_normal(mesh.n_cells)
        h = grid(mesh, shape)
        nrm = luxemburg_norm(h, rc, mesh.interior_mask)
        amp = 10.0 ** (-1.5 + 2.5 * k / (count - 1))
        family.append(grid(mesh, amp * shape / nrm))
    return family


def test_criterion_09_lr_estimate_fit_and_holdout(report):
    rng = np.random.default_rng(109)
    mesh = build_mesh(2.0, 64, [(-1.0, 1.0)])
    outcomes = {}
    for name, p, rv in (("constant_p", const_pair(2.0, 0.4), 3.0),
                        ("variable_p", bump_pair(2.0, 0.5, s=0.25), 3.2)):
        g = grid(mesh, 0.2 * np.exp(-((mesh.cell_centers - 1.4) ** 2) / 0.05))
        prob = make_problem(mesh, p, rv, np.zeros(64), g.values)
        family = _estimate_family(mesh, rng, 16, prob.r)
        est = lr_estimate_check(family, prob)
        outcomes[name] = est
    ok = all(e.feasible and e.holdout_passed for e in outcomes.values())
    assert report(ok, "criterion-09 lr-estimate",
                  **{f"{k}_worst_ratio": f"{v.worst_ratio:.3f}"
                     for k, v in outcomes.items()})


def _criterion10_setup(n=96):
    mesh = build_mesh(2.0, n, [(-1.0, 1.0)])
    eps = 0.05
    avals = 0.5 * np.exp(-2.0 * mesh.cell_centers ** 2) + 0.1
    f = Nonlinearity(
        evaluator=lambda x, t: (0.5 * np.exp(-2.0 * np.asarray(x) ** 2) + 0.1)
        + eps * np.arctan(np.asarray(t)),
        a=grid(mesh, avals), c_growth=eps,
    )
    template = make_problem(mesh, const_pair(2.0, 0.4), 3.0,
                            np.zeros(n), np.zeros(n))
    return mesh, f, template, avals, eps


def _minimize_semilinear_potential(mesh, template, avals, eps, tol=1e-8,
                                   max_iter=20_000):
    """Independent oracle: plain Armijo gradient descent on the potential energy."""
    mask = mesh.interior_mask
    dx = mesh.cell_width

    def pot_energy(vals):
        t = vals[mask]
        potential = avals[mask] * t + eps * (t * np.arctan(t) - 0.5 * np.log1p(t * t))
        return energy(grid(mesh, vals), template) - dx * float(np.sum(potential))

    def pot_grad(vals):
        base = energy_gradient(grid(mesh, vals), template).values[mask]
        return base - dx * (avals[mask] + eps * np.arctan(vals[mask]))

    vals = np.zeros(mesh.n_cells)
    e_now = pot_energy(vals)
    step = 1.0
    for _ in range(max_iter):
        gvec = pot_grad(vals)
        if np.max(np.abs(gvec)) <= tol:
            break
        step = min(4.0 * step, 1e4)
        while step > 1e-18:
            trial = vals.copy()
            trial[mask] -= step * gvec
            e_t = pot_energy(trial)
            if e_t <= e_now - 1e-4 * step * float(gvec @ gvec):
                vals, e_now = trial, e_t
                break
            step *= 0.5
    return vals, float(np.max(np.abs(pot_grad(vals))))


def test_criterion_10_fixed_point_vs_potential_oracle(report):
    mesh, f, template, avals, eps = _criterion10_setup()
    sol, trace = fixed_point_solve(f, template, theta=0.5, max_iter=200)
    oracle_vals, oracle_res = _minimize_semilinear_potential(mesh, template, avals, eps)
    gap = float(np.max(np.abs(sol.u.u.values - oracle_vals)))
    ok = (trace.converged and len(trace.iterates) <= 200
          and trace.final_increment <= 1e-8 and gap <= 1e-5)
    assert report(ok, "criterion-10 fixed-point", iterations=len(trace.iterates),
                  final_increment=f"{trace.final_increment:.2e}",
                  oracle_residual=f"{oracle_res:.1e}", sup_gap=f"{gap:.2e}")


def test_criterion_11_decomposition_matches_fixed_point(report):
    mesh, f, template, _, _ = _criterion10_setup()
    g = GridFunction.zeros(mesh)
    sol_fp, trace = fixed_point_solve(f, template, theta=0.5, max_iter=200)
    assert trace.converged
    sol_dc, rep = solve_by_decomposition(f, g, 3, template, theta=0.5)
    gap = float(np.max(np.abs(sol_dc.u.u.values - sol_fp.u.u.values)))
    ok = rep.converged and gap <= 1e-4 and rep.residual <= 1e-5
    assert report(ok, "criterion-11 decomposition", sweeps=rep.sweeps,
                  sup_gap=f"{gap:.2e}", residual=f"{rep.residual:.2e}")


def _random_band_limited_w0(rng, mesh, modes=10):
    # mesh-independent law: fixed sine basis vanishing at the ends of Omega,
    # so the fitted ratio estimates a continuum quantity under refinement
    xs = mesh.cell_centers
    coeffs = rng.standard_normal(modes) / (1.0 + np.arange(modes))
    scale = 10.0 ** rng.uniform(-1, 1)
    vals = np.zeros(mesh.n_cells)
    for k, ck in enumerate(coeffs, start=1):
        vals += ck * np.sin(k * pi * (xs + 1.0) / 2.0)
    vals *= scale
    vals[~mesh.interior_mask] = 0.0
    return grid(mesh, vals)


def test_criterion_12_poincare_constant_stability(report):
    p = bump_pair(2.0, 0.5, s=0.3)
    pbar = trace_exponent(p)
    fitted = {}
    for n in (128, 256):
        mesh = build_mesh(2.0, n, [(-1.0, 1.0)])
        W = assemble_weights(mesh, p)
        rng = np.random.default_rng(112)
        ratios = []
        for _ in range(200):
            u = _random_band_limited_w0(rng, mesh)
            semi = gagliardo_seminorm(u, W)
            if semi == 0.0:
                continue
            ratios.append(luxemburg_norm(u, pbar, mesh.interior_mask) / semi)
        fitted[n] = max(ratios)
    change = abs(fitted[256] - fitted[128]) / fitted[128]
    ok = change < 0.20
    assert report(ok, "criterion-12 poincare-stability",
                  c128=f"{fitted[128]:.4f}", c256=f"{fitted[256]:.4f}",
                  rel_change=f"{change:.3f}")
