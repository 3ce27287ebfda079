"""Correctness gate for benchmark items that does not trust the solver.

Each check recomputes what the solver claims from the returned field alone:
the sup Euler-Lagrange residual through the public ``energy_gradient`` (with
``nemytsky`` for semilinear items), a dense direct or Newton solve of the
p = 2 system assembled from the public kernel weights, and the unit-ball
defect |rho(u / ||u||) - 1| of every norm from a modular summed here with
numpy rather than by the library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fpxlap import poisson, semilinear

EL_TOL = 1e-8          # certified Poisson Euler-Lagrange residual (Tolerances default)
SEMILINEAR_TOL = 1e-6  # residual target of fixed_point_solve / solve_by_decomposition
UNIT_BALL_TOL = 1e-9
IDENTITY_RTOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str


def _fail(detail: str) -> Verdict:
    return Verdict(False, detail)


def sup_interior(values: np.ndarray, mesh) -> float:
    return float(np.max(np.abs(values[mesh.interior_mask])))


def linear_system(prob):
    """Interior matrix A and exterior load b of the p = 2 energy gradient.

    For p = 2 everywhere the gradient at interior cell i is
    2 sum_j w_ij (u_i - u_j) + 2 dx tail_i u_i - dx h_i, i.e. A u_I - b - dx h_I.
    """
    mesh, W = prob.mesh, prob.weights
    inner = mesh.interior_mask
    A = -2.0 * W.w[np.ix_(inner, inner)]
    A[np.diag_indices_from(A)] += 2.0 * W.w[inner].sum(axis=1) + 2.0 * mesh.cell_width * W.tail[inner]
    b = 2.0 * W.w[np.ix_(inner, ~inner)] @ prob.g.values[~inner]
    return A, b


def _inverse_inf_norm(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.inv(M)).sum(axis=1)))


def is_p2(prob) -> bool:
    return bool(np.all(prob.weights.p_pair == 2.0))


def _exterior_kept(values: np.ndarray, prob) -> bool:
    ext = prob.mesh.exterior_mask
    return bool(np.array_equal(values[ext], prob.g.values[ext]))


def check_poisson(sol, prob) -> Verdict:
    """Converged, exterior datum kept, recomputed residual <= EL_TOL and, for
    p = 2, within ||A^-1||_inf * EL_TOL of the dense direct solution."""
    vals = sol.u.u.values
    if not sol.converged:
        return _fail(f"not converged (reported residual {sol.el_residual:.3e})")
    if not _exterior_kept(vals, prob):
        return _fail("field differs from the exterior datum outside omega")
    inner = prob.mesh.interior_mask
    res = float(np.max(np.abs(poisson.energy_gradient(sol.u, prob).values[inner])))
    if not res <= EL_TOL:
        return _fail(f"recomputed EL residual {res:.3e} > {EL_TOL:.0e}")
    if not is_p2(prob):
        return Verdict(True, f"residual={res:.3e}")
    A, b = linear_system(prob)
    ref = np.linalg.solve(A, b + prob.mesh.cell_width * prob.h.values[inner])
    gap = float(np.max(np.abs(vals[inner] - ref)))
    bound = _inverse_inf_norm(A) * EL_TOL
    if not gap <= bound:
        return _fail(f"gap to dense direct solve {gap:.3e} > certified {bound:.3e}")
    return Verdict(True, f"residual={res:.3e} direct_gap={gap:.3e}")


def newton_reference(prob, f, dfdt, c_max: float):
    """Dense Newton solve of A u - b - dx f(x, u) = 0 for p = 2, from u = 0,
    and the bound ||(A - dx c_max I)^-1||_inf that turns a residual into a
    distance (A - dx c I is a diagonally dominant M-matrix for 0 <= f_t <= c)."""
    A, b = linear_system(prob)
    inner = prob.mesh.interior_mask
    x = prob.mesh.cell_centers[inner]
    dx = prob.mesh.cell_width
    shifted = A - dx * c_max * np.eye(A.shape[0])
    off = np.abs(shifted).sum(axis=1) - 2.0 * np.abs(np.diag(shifted))
    if np.any(off >= 0.0):
        raise ValueError("reference bound needs a diagonally dominant shifted matrix")
    u = np.zeros(A.shape[0])
    for _ in range(60):
        G = A @ u - b - dx * np.asarray(f(x, u), dtype=float)
        step = np.linalg.solve(A - dx * np.diag(dfdt(x, u)), G)
        u -= step
        if float(np.max(np.abs(step))) <= 1e-15 * (1.0 + float(np.max(np.abs(u)))):
            break
    return u, _inverse_inf_norm(shifted)


def check_semilinear(u, prob, f, converged: bool, reference=None) -> Verdict:
    """Converged flag, recomputed semilinear residual <= SEMILINEAR_TOL and,
    when a p = 2 reference (u_ref, bound) is given, |u - u_ref| <= bound * tol."""
    if not converged:
        return _fail("semilinear solver reports non-convergence")
    vals = u.u.values
    if not _exterior_kept(vals, prob):
        return _fail("field differs from the exterior datum outside omega")
    inner = prob.mesh.interior_mask
    grad = poisson.energy_gradient(u, prob.with_h(semilinear.nemytsky(f, u.u)))
    res = float(np.max(np.abs(grad.values[inner])))
    if not res <= SEMILINEAR_TOL:
        return _fail(f"recomputed semilinear residual {res:.3e} > {SEMILINEAR_TOL:.0e}")
    if reference is None:
        return Verdict(True, f"residual={res:.3e}")
    u_ref, inv_norm = reference
    gap = float(np.max(np.abs(vals[inner] - u_ref)))
    bound = inv_norm * SEMILINEAR_TOL
    if not gap <= bound:
        return _fail(f"gap to dense Newton solve {gap:.3e} > certified {bound:.3e}")
    return Verdict(True, f"residual={res:.3e} newton_gap={gap:.3e}")


def pair_modular(values: np.ndarray, W, variant: str) -> float:
    """Gagliardo modular summed from its definition: 'rn' adds the exterior
    tails, 'omega' drops them and the exterior-exterior pairs."""
    terms = W.w * np.abs(values[:, None] - values[None, :]) ** W.p_pair
    if variant == "omega":
        ext = W.mesh.exterior_mask
        terms[np.ix_(ext, ext)] = 0.0
        return float(terms.sum())
    tails = 2.0 * W.mesh.cell_width * np.sum(W.tail * np.abs(values) ** W.p_bar)
    return float(terms.sum() + tails)


def lebesgue_modular(values: np.ndarray, q, mesh) -> float:
    inner = mesh.interior_mask
    return float(np.sum(np.abs(values[inner]) ** q.values(mesh.cell_centers[inner])) * mesh.cell_width)


def unit_ball_defects(u, W, q, seminorm_rn: float, full: float, lux: float) -> dict:
    """|rho(u/norm) - 1| for the 'rn' seminorm, the 'omega' seminorm inside
    full_norm (full - lux) and the interior Luxemburg norm."""
    vals = u.values
    return {
        "seminorm_rn": abs(pair_modular(vals / seminorm_rn, W, "rn") - 1.0),
        "seminorm_omega": abs(pair_modular(vals / (full - lux), W, "omega") - 1.0),
        "luxemburg": abs(lebesgue_modular(vals / lux, q, u.mesh) - 1.0),
    }


def check_norms(defects: dict) -> Verdict:
    worst = max(defects.values())
    text = " ".join(f"{k}={v:.2e}" for k, v in defects.items())
    return Verdict(worst <= UNIT_BALL_TOL, f"unit-ball defects {text}")


def check_identity(lhs: float, op: np.ndarray, phi: np.ndarray, dx: float) -> Verdict:
    """<L(u), phi> = 2 dx sum_i phi_i (operator u)_i for phi supported in the box."""
    rhs = 2.0 * dx * float(np.sum(phi * op))
    scale = 2.0 * dx * float(np.sum(np.abs(phi * op))) + 1e-300
    rel = abs(lhs - rhs) / scale
    return Verdict(rel <= IDENTITY_RTOL, f"weak_form/apply_operator rel gap {rel:.2e}")


def check_verify_report(status: int, report: dict, counts: dict) -> Verdict:
    """CLI verify exit status 0, every suite ran its cases with zero failures,
    and the norm/modular suite's unit-ball defect is within UNIT_BALL_TOL."""
    if status != 0:
        return _fail(f"fpxlap verify exited with status {status}")
    for name, n in counts.items():
        cases = int(report.get(f"check.{name}.cases", -1))
        failures = int(report.get(f"check.{name}.failures", -1))
        if cases != n or failures != 0:
            return _fail(f"suite {name}: cases={cases} (want {n}) failures={failures}")
    defect = float(report["check.norm_modular.worst_unit_ball_defect"])
    if not defect <= UNIT_BALL_TOL:
        return _fail(f"norm_modular unit-ball defect {defect:.3e} > {UNIT_BALL_TOL:.0e}")
    return Verdict(True, f"suites pass, unit-ball defect {defect:.2e}")
