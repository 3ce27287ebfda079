"""Variable-exponent Lebesgue machinery on cellwise-constant grid functions.

Integrals are midpoint sums, which are exact for piecewise constants, so the
modular identities and inequalities below hold sharply at the discrete level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import CheckResult
from .exponents import ScalarExponent, conjugate_exponent
from .mesh_kernel import Mesh


class BisectionError(RuntimeError):
    """The Luxemburg root-finder did not converge in its step budget."""


_NEWTON_RTOL = 1e-10     # Newton step (relative in lam) that ends _luxemburg_root
_NEWTON_MAX_STEPS = 200  # steps after which it raises BisectionError
_HOLDER_TOL = 1e-10      # absolute slack of holder_pairing_check
_BOUNDS_TOL = 1e-9       # that of norm_of_one_bounds and power_norm_bounds_check


@dataclass(frozen=True)
class GridFunction:
    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.mesh.n_cells,):
            raise ValueError(
                f"grid function has {vals.shape} values for {self.mesh.n_cells} cells"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, mesh: Mesh, fn) -> "GridFunction":
        return cls(mesh, np.asarray(fn(mesh.cell_centers), dtype=float) * np.ones(mesh.n_cells))

    @classmethod
    def zeros(cls, mesh: Mesh) -> "GridFunction":
        return cls(mesh, np.zeros(mesh.n_cells))

    def replace_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.mesh, values)


def _region_mask(mesh: Mesh, region) -> np.ndarray:
    if region is None:
        return mesh.interior_mask
    mask = np.asarray(region, dtype=bool)
    if mask.shape != (mesh.n_cells,):
        raise ValueError("region mask shape mismatch")
    return mask


def modular(u: GridFunction, q: ScalarExponent) -> float:
    """rho_q(u) = sum_{i in Omega} |u_i|^{q(x_i)} * cell_width."""
    mask = u.mesh.interior_mask
    qv = q.values(u.mesh.cell_centers[mask])
    return float(np.sum(np.abs(u.values[mask]) ** qv) * u.mesh.cell_width)


def _luxemburg_root(a: np.ndarray, q: np.ndarray) -> float:
    """lam = e^t at the root of phi(t) = log sum exp(a - q t) = log rho(u / e^t).

    a holds the logs of the modular terms at lam = 1 (-inf for a zero term)
    and q their exponents, flat arrays of one size.  A constant exponent
    gives the closed form t = log rho / q.  Otherwise phi is convex and
    decreasing, so Newton's method t += phi * sum(e) / sum(q e), with
    e = exp(a - q t) after a max-shift, lands left of the root from any
    start (the first step, from t = 0, gives log rho over the rho-weighted
    mean exponent) and then rises to it monotonically.  Stops once a step
    is at most ``_NEWTON_RTOL`` (relative in lam) and raises BisectionError
    after ``_NEWTON_MAX_STEPS`` steps, both read at call time.  Returns 0
    when every term vanishes.
    """
    shift = float(a.max(initial=-math.inf))
    if shift == -math.inf:
        return 0.0
    q_lo = float(q.min())
    if q_lo == float(q.max()):
        return math.exp((shift + math.log(float(np.exp(a - shift).sum()))) / q_lo)
    z = np.empty_like(a)
    t, step = 0.0, math.inf
    for _ in range(_NEWTON_MAX_STEPS):
        np.multiply(q, -t, out=z)
        z += a
        shift = float(z.max())
        z -= shift
        np.exp(z, out=z)
        total = float(z.sum())
        step = (shift + math.log(total)) * total / float(np.vdot(q, z))
        t += step
        if abs(step) <= _NEWTON_RTOL:
            return math.exp(t)
    raise BisectionError(f"Luxemburg Newton solve did not converge in {_NEWTON_MAX_STEPS}"
                         f" steps (last step {step:.3e})")


def luxemburg_norm(u: GridFunction, q: ScalarExponent, region=None) -> float:
    """inf{lam > 0 : rho_q(u/lam) <= 1}: the logs of the terms |u_i|^q_i dx,
    with u scaled by its sup, go to ``_luxemburg_root`` once (Newton's
    method on log lam, or a closed form for a constant exponent).  Returns
    0 for the zero function."""
    mask = _region_mask(u.mesh, region)
    vals = np.abs(u.values[mask])
    if vals.size == 0 or not vals.any():
        return 0.0
    # factor out the sup so extreme scales cannot under- or overflow the modular
    vmax = float(vals.max())
    qv = q.values(u.mesh.cell_centers[mask])
    with np.errstate(divide="ignore"):
        logs = np.log(vals / vmax)
    logs *= qv
    logs += np.log(u.mesh.cell_width)
    return vmax * _luxemburg_root(logs, qv)


def pairing(u: GridFunction, v: GridFunction) -> float:
    """Discrete duality pairing: sum u_i v_i * cell_width over Omega."""
    mask = u.mesh.interior_mask
    return float(np.sum(u.values[mask] * v.values[mask]) * u.mesh.cell_width)


def holder_pairing_check(u: GridFunction, v: GridFunction, q: ScalarExponent) -> CheckResult:
    """|sum u v dx| <= 2 ||u||_q ||v||_{q'} over Omega."""
    qc = conjugate_exponent(q)
    lhs = abs(pairing(u, v))
    bound = 2.0 * luxemburg_norm(u, q) * luxemburg_norm(v, qc)
    return CheckResult(
        name="holder_pairing",
        passed=lhs <= bound + _HOLDER_TOL,
        value=lhs,
        bound=bound,
        slack=bound - lhs,
    )


def norm_of_one_bounds(gamma: ScalarExponent, mesh: Mesh) -> CheckResult:
    """min(|O|^(1/g+), |O|^(1/g-)) <= ||1||_gamma <= max(...) on Omega."""
    mask = mesh.interior_mask
    measure = float(mask.sum()) * mesh.cell_width
    g_lo, g_hi = gamma.range_on(mesh.cell_centers[mask])
    ends = (measure ** (1.0 / g_hi), measure ** (1.0 / g_lo))
    lo_bound, hi_bound = min(ends), max(ends)
    one = GridFunction(mesh, np.ones(mesh.n_cells))
    norm1 = luxemburg_norm(one, gamma)
    ok = (lo_bound - _BOUNDS_TOL) <= norm1 <= (hi_bound + _BOUNDS_TOL)
    return CheckResult(
        name="norm_of_one",
        passed=ok,
        value=norm1,
        bound=hi_bound,
        slack=min(norm1 - lo_bound, hi_bound - norm1),
        detail=f"measure={measure:.6g} lower={lo_bound:.12g}",
    )


def power_norm_bounds_check(u: GridFunction, alpha: ScalarExponent,
                            beta: ScalarExponent) -> CheckResult:
    """Sandwich for || |u|^beta ||_alpha between powers of ||u||_{alpha*beta}
    over Omega.

    With m = ||u||_{alpha*beta}: if m <= 1 then m^(beta+) <= |||u|^beta||_alpha
    <= m^(beta-), and with the exponents swapped when m >= 1.  beta may touch 1.
    """
    mask = u.mesh.interior_mask
    centers = u.mesh.cell_centers[mask]

    def ab(x):
        return alpha.evaluator(x) * beta.evaluator(x)

    prod = ScalarExponent(evaluator=ab, lower=alpha.lower * beta.lower,
                          upper=alpha.upper * beta.upper)
    m = luxemburg_norm(u, prod)
    bvals = beta.values(centers)
    b_lo, b_hi = float(bvals.min()), float(bvals.max())
    pw = np.zeros(u.mesh.n_cells)
    pw[mask] = np.abs(u.values[mask]) ** bvals
    powered = u.replace_values(pw)
    mid = luxemburg_norm(powered, alpha)
    if m == 0.0:
        ok = mid <= _BOUNDS_TOL
        return CheckResult("power_norm_bounds", ok, mid, 0.0, -mid)
    if m <= 1.0:
        lo_b, hi_b = m ** b_hi, m ** b_lo
    else:
        lo_b, hi_b = m ** b_lo, m ** b_hi
    ok = (lo_b - _BOUNDS_TOL) <= mid <= (hi_b + _BOUNDS_TOL)
    return CheckResult(
        name="power_norm_bounds",
        passed=ok,
        value=mid,
        bound=hi_b,
        slack=min(mid - lo_b, hi_b - mid),
        detail=f"base_norm={m:.12g}",
    )


def norm_modular_relation_check(u: GridFunction, q: ScalarExponent,
                                tol: float = 1e-9) -> CheckResult:
    """Items (1)-(3) of the norm/modular comparison over Omega.

    (1) ||u|| < 1 iff rho(u) < 1 (and similarly at 1 and above 1);
    (2) ||u|| > 1 implies ||u||^q- <= rho(u) <= ||u||^q+;
    (3) ||u|| < 1 implies ||u||^q+ <= rho(u) <= ||u||^q-.
    """
    rho = modular(u, q)
    nrm = luxemburg_norm(u, q)
    q_lo, q_hi = q.range_on(u.mesh.cell_centers[u.mesh.interior_mask])
    worst = np.inf

    # item (1): the two sides must straddle 1 the same way
    if nrm < 1.0 - tol and not rho < 1.0 + tol:
        worst = min(worst, -(rho - 1.0))
    if rho < 1.0 - tol and not nrm < 1.0 + tol:
        worst = min(worst, -(nrm - 1.0))
    if nrm > 1.0 + tol and not rho > 1.0 - tol:
        worst = min(worst, -(1.0 - rho))
    if rho > 1.0 + tol and not nrm > 1.0 - tol:
        worst = min(worst, -(1.0 - nrm))

    if nrm > 1.0 + tol:
        worst = min(worst, rho - nrm ** q_lo, nrm ** q_hi - rho)
    if 0.0 < nrm < 1.0 - tol:
        worst = min(worst, rho - nrm ** q_hi, nrm ** q_lo - rho)
    if worst is np.inf:
        worst = 0.0
    return CheckResult(
        name="norm_modular_relation",
        passed=worst >= -tol,
        value=rho,
        bound=nrm,
        slack=float(worst),
        detail=f"norm={nrm:.12g} modular={rho:.12g}",
    )
