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


def region_measure(mesh: Mesh, region=None) -> float:
    return float(_region_mask(mesh, region).sum()) * mesh.cell_width


def modular(u: GridFunction, q: ScalarExponent, region=None) -> float:
    """rho_q(u) = sum_{i in region} |u_i|^{q(x_i)} * cell_width."""
    mask = _region_mask(u.mesh, region)
    if not mask.any():
        return 0.0
    qv = q.values(u.mesh.cell_centers[mask])
    return float(np.sum(np.abs(u.values[mask]) ** qv) * u.mesh.cell_width)


def _luxemburg_root(groups) -> float:
    """lam = e^t at the root of phi(t) = log sum exp(a - q t) over the groups.

    Each group is a pair (a, q) of equal-shape arrays: a holds the logs of
    the modular terms at lam = 1 (-inf for a zero term) and q their
    exponents, so phi(t) = log rho(u / e^t).  A constant exponent gives the
    closed form t = log rho / q.  Otherwise phi, a log-sum-exp of affine
    functions, is convex and decreasing, so Newton's method
    t += phi * sum(e) / sum(q e), with e = exp(a - q t) computed after a
    max-shift, lands left of the root from any start and then rises to it
    monotonically.  The first step, from t = 0, gives log rho / q_mean with
    q_mean the rho-weighted mean exponent, which lies inside the bracket
    [log rho / q-, log rho / q+].  Stops once a step is at most
    ``_NEWTON_RTOL`` (relative in lam) and raises BisectionError after
    ``_NEWTON_MAX_STEPS`` steps; both are read at call time, so the seminorm
    and the norm share them.  Returns 0 when every term vanishes.
    """
    shift = max(float(a.max()) for a, _ in groups)
    if shift == -math.inf:
        return 0.0
    q_lo = min(float(q.min()) for _, q in groups)
    if q_lo == max(float(q.max()) for _, q in groups):
        total = sum(float(np.exp(a - shift).sum()) for a, _ in groups)
        return math.exp((shift + math.log(total)) / q_lo)
    work = [np.empty(a.shape) for a, _ in groups]
    t, step = 0.0, math.inf
    for _ in range(_NEWTON_MAX_STEPS):
        for (a, q), z in zip(groups, work):
            np.multiply(q, -t, out=z)
            z += a
        shift = max(float(z.max()) for z in work)
        total = weighted = 0.0
        for (_, q), z in zip(groups, work):
            z -= shift
            np.exp(z, out=z)
            total += float(z.sum())
            weighted += float(np.vdot(q, z))
        step = (shift + math.log(total)) * total / weighted
        t += step
        if abs(step) <= _NEWTON_RTOL:
            return math.exp(t)
    raise BisectionError(f"Luxemburg Newton solve did not converge in {_NEWTON_MAX_STEPS}"
                         f" steps (last step {step:.3e})")


def luxemburg_norm(u: GridFunction, q: ScalarExponent, region=None) -> float:
    """inf{lam > 0 : rho_q(u/lam) <= 1} by Newton's method on log lam.

    With u scaled by its sup, the modular terms |u_i|^q_i dx are formed
    once as logs, and each Newton step costs one exp pass over them (see
    ``_luxemburg_root``, which stops at ``_NEWTON_RTOL`` within
    ``_NEWTON_MAX_STEPS`` steps).  A constant exponent gives the closed form
    rho^(1/q) with no iteration.  Returns 0 for the zero function.
    """
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
    return vmax * _luxemburg_root([(logs, qv)])


def pairing(u: GridFunction, v: GridFunction, region=None) -> float:
    """Discrete duality pairing: sum u_i v_i * cell_width over region."""
    mask = _region_mask(u.mesh, region)
    return float(np.sum(u.values[mask] * v.values[mask]) * u.mesh.cell_width)


def holder_pairing_check(u: GridFunction, v: GridFunction, q: ScalarExponent,
                         region=None, tol: float = 1e-10) -> CheckResult:
    """|sum u v dx| <= 2 ||u||_q ||v||_{q'}."""
    qc = conjugate_exponent(q)
    lhs = abs(pairing(u, v, region))
    bound = 2.0 * luxemburg_norm(u, q, region) * luxemburg_norm(v, qc, region)
    return CheckResult(
        name="holder_pairing",
        passed=lhs <= bound + tol,
        value=lhs,
        bound=bound,
        slack=bound - lhs,
    )


def norm_of_one_bounds(gamma: ScalarExponent, mesh: Mesh, region=None,
                       tol: float = 1e-9) -> CheckResult:
    """min(|O|^(1/g+), |O|^(1/g-)) <= ||1||_gamma <= max(...) on the region."""
    mask = _region_mask(mesh, region)
    measure = float(mask.sum()) * mesh.cell_width
    g_lo, g_hi = gamma.range_on(mesh.cell_centers[mask])
    ends = (measure ** (1.0 / g_hi), measure ** (1.0 / g_lo))
    lo_bound, hi_bound = min(ends), max(ends)
    one = GridFunction(mesh, np.ones(mesh.n_cells))
    norm1 = luxemburg_norm(one, gamma, mask)
    ok = (lo_bound - tol) <= norm1 <= (hi_bound + tol)
    return CheckResult(
        name="norm_of_one",
        passed=ok,
        value=norm1,
        bound=hi_bound,
        slack=min(norm1 - lo_bound, hi_bound - norm1),
        detail=f"measure={measure:.6g} lower={lo_bound:.12g}",
    )


def power_norm_bounds_check(u: GridFunction, alpha: ScalarExponent,
                            beta: ScalarExponent, region=None,
                            tol: float = 1e-9) -> CheckResult:
    """Sandwich for || |u|^beta ||_alpha between powers of ||u||_{alpha*beta}.

    With m = ||u||_{alpha*beta}: if m <= 1 then m^(beta+) <= |||u|^beta||_alpha
    <= m^(beta-), and with the exponents swapped when m >= 1.  beta may touch 1.
    """
    mask = _region_mask(u.mesh, region)
    centers = u.mesh.cell_centers[mask]

    def ab(x):
        return alpha.evaluator(x) * beta.evaluator(x)

    prod = ScalarExponent(evaluator=ab, lower=alpha.lower * beta.lower,
                          upper=alpha.upper * beta.upper)
    m = luxemburg_norm(u, prod, mask)
    bvals = beta.values(centers)
    b_lo, b_hi = float(bvals.min()), float(bvals.max())
    pw = np.zeros(u.mesh.n_cells)
    pw[mask] = np.abs(u.values[mask]) ** bvals
    powered = u.replace_values(pw)
    mid = luxemburg_norm(powered, alpha, mask)
    if m == 0.0:
        ok = mid <= tol
        return CheckResult("power_norm_bounds", ok, mid, 0.0, -mid)
    if m <= 1.0:
        lo_b, hi_b = m ** b_hi, m ** b_lo
    else:
        lo_b, hi_b = m ** b_lo, m ** b_hi
    ok = (lo_b - tol) <= mid <= (hi_b + tol)
    return CheckResult(
        name="power_norm_bounds",
        passed=ok,
        value=mid,
        bound=hi_b,
        slack=min(mid - lo_b, hi_b - mid),
        detail=f"base_norm={m:.12g}",
    )


def norm_modular_relation_check(u: GridFunction, q: ScalarExponent, region=None,
                                tol: float = 1e-9) -> CheckResult:
    """Items (1)-(3) of the norm/modular comparison.

    (1) ||u|| < 1 iff rho(u) < 1 (and similarly at 1 and above 1);
    (2) ||u|| > 1 implies ||u||^q- <= rho(u) <= ||u||^q+;
    (3) ||u|| < 1 implies ||u||^q+ <= rho(u) <= ||u||^q-.
    """
    mask = _region_mask(u.mesh, region)
    rho = modular(u, q, mask)
    nrm = luxemburg_norm(u, q, mask)
    q_lo, q_hi = q.range_on(u.mesh.cell_centers[mask]) if mask.any() else (1.0, 1.0)
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
