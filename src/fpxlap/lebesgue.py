"""Variable-exponent Lebesgue machinery on cellwise-constant grid functions.

Integrals are midpoint sums, which are exact for piecewise constants, so the
modular identities and inequalities below hold sharply at the discrete level.

Each quantity and check has one private core, ``_*_rows``, on a stack of
cases, one per row: (k, N) arrays of interior values and exponent values.
The public functions call it with one row; the seeded suites of
``suites.py`` call it a chunk of cases at a time.  A row's numbers do not
depend on the other rows, and the per-row scalars (logs, exps and powers of
one float) go through ``math`` and Python floats, so a stacked case and its
one-row call agree bit for bit.
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


def _modular_rows(vals: np.ndarray, q: np.ndarray, cell_width: float) -> np.ndarray:
    """rho_q of each row: sum_i |u_i|^{q_i} * cell_width."""
    return (np.abs(vals) ** q).sum(axis=1) * cell_width


def modular(u: GridFunction, q: ScalarExponent) -> float:
    """rho_q(u) = sum_{i in Omega} |u_i|^{q(x_i)} * cell_width."""
    mask = u.mesh.interior_mask
    qv = q.values(u.mesh.cell_centers[mask])
    return float(_modular_rows(u.values[mask][None], qv[None], u.mesh.cell_width)[0])


def _column(per_row: list[float]):
    """Per-row scalars shaped to broadcast over the rows of a stack; one row
    gets a plain float, which numpy's arithmetic takes by its faster scalar
    path."""
    return per_row[0] if len(per_row) == 1 else np.array(per_row)[:, None]


def _luxemburg_rows(a: np.ndarray, q: np.ndarray) -> list[float]:
    """lam = e^t at the root of phi(t) = log sum exp(a - q t) = log rho(u / e^t),
    for each row of the (k, N) arrays a and q.

    a holds the logs of the modular terms at lam = 1 (-inf for a zero term)
    and q their exponents.  A row whose terms all vanish gives 0, and a
    constant exponent the closed form t = log rho / q.  Otherwise phi is
    convex and decreasing, so Newton's method t += phi * sum(e) / sum(q e),
    with e = exp(a - q t) after a max-shift, lands left of the root from any
    start (the first step, from t = 0, gives log rho over the rho-weighted
    mean exponent) and then rises to it monotonically.  The varying rows
    step together, one exp pass over their stack a step; a row stops once
    its own step is at most ``_NEWTON_RTOL`` (relative in lam) and drops
    out, so each row takes exactly the iterates of its one-row solve.
    Raises BisectionError when a row is still stepping after
    ``_NEWTON_MAX_STEPS`` steps; both are read at call time.
    """
    lam = [0.0] * len(a)
    # the reductions call the ufuncs directly, without the ndarray methods'
    # Python wrappers: a one-row call makes a dozen of them
    shifts = np.maximum.reduce(a, axis=1, initial=-math.inf).tolist()
    q_lo = np.minimum.reduce(q, axis=1, initial=math.inf).tolist()
    q_hi = np.maximum.reduce(q, axis=1, initial=-math.inf).tolist()
    rows = []
    for i, (shift, lo, hi) in enumerate(zip(shifts, q_lo, q_hi)):
        if shift == -math.inf:
            continue
        if lo == hi:
            lam[i] = math.exp((shift + math.log(float(np.exp(a[i] - shift).sum()))) / lo)
        else:
            rows.append(i)
    if not rows:
        return lam
    if len(rows) < len(a):
        a, q = a[rows], q[rows]
    t = [0.0] * len(rows)
    shift = [shifts[i] for i in rows]
    z = a - _column(shift)  # the shifted exponents at t = 0, where q t vanishes
    for _ in range(_NEWTON_MAX_STEPS):
        np.exp(z, out=z)
        keep = []
        # np.vecdot takes each row's dot from BLAS, as np.vdot does for one row
        for j, (s, total, dot) in enumerate(zip(shift, np.add.reduce(z, axis=1).tolist(),
                                                np.vecdot(q, z).tolist())):
            step = (s + math.log(total)) * total / dot
            t[j] += step
            if abs(step) <= _NEWTON_RTOL:
                lam[rows[j]] = math.exp(t[j])
            else:
                keep.append(j)
        if not keep:
            return lam
        if len(keep) < len(rows):
            rows, t = [rows[j] for j in keep], [t[j] for j in keep]
            a, q, z = a[keep], q[keep], z[keep]
        np.multiply(q, _column(t), out=z)
        np.subtract(a, z, out=z)
        shift = np.maximum.reduce(z, axis=1).tolist()
        z -= _column(shift)
    raise BisectionError(f"Luxemburg Newton solve did not converge in {_NEWTON_MAX_STEPS}"
                         f" steps ({len(rows)} of {len(lam)} rows still stepping)")


def _luxemburg_root(a: np.ndarray, q: np.ndarray) -> float:
    """``_luxemburg_rows`` for the one case of the flat arrays a and q."""
    return _luxemburg_rows(a[None], q[None])[0]


def _norm_rows(vals: np.ndarray, q: np.ndarray, cell_width: float) -> list[float]:
    """Luxemburg norm of each row: the logs of the terms |u_i|^q_i dx, with
    |u| scaled by its row sup, go to ``_luxemburg_rows``; a row of zeros is
    scaled by 1, so its logs are all -inf and its root, hence its norm, 0."""
    vals = np.abs(vals)
    sups = np.maximum.reduce(vals, axis=1, initial=0.0).tolist()
    # factor out the sup so extreme scales cannot under- or overflow the modular
    with np.errstate(divide="ignore"):
        logs = np.log(vals / _column([s or 1.0 for s in sups]))
    logs *= q
    logs += np.log(cell_width)
    return [s * lam for s, lam in zip(sups, _luxemburg_rows(logs, q))]


def luxemburg_norm(u: GridFunction, q: ScalarExponent, region=None) -> float:
    """inf{lam > 0 : rho_q(u/lam) <= 1} over ``region`` (default Omega), by
    Newton's method on log lam or a closed form for a constant exponent;
    0 for the zero function."""
    mask = _region_mask(u.mesh, region)
    qv = q.values(u.mesh.cell_centers[mask])
    return _norm_rows(u.values[mask][None], qv[None], u.mesh.cell_width)[0]


def pairing(u: GridFunction, v: GridFunction) -> float:
    """Discrete duality pairing: sum u_i v_i * cell_width over Omega."""
    mask = u.mesh.interior_mask
    return float(np.sum(u.values[mask] * v.values[mask]) * u.mesh.cell_width)


def _one_case(name: str, value, bound, slack, passed, detail: str = "") -> CheckResult:
    """The CheckResult of row 0 of a core's per-row value, bound, slack and
    verdict: the public checks' one case."""
    return CheckResult(name=name, passed=bool(passed[0]), value=float(value[0]),
                       bound=float(bound[0]), slack=float(slack[0]), detail=detail)


def _holder_rows(u: np.ndarray, v: np.ndarray, q: np.ndarray, q_conj: np.ndarray,
                 cell_width: float):
    """|sum u v dx| and its bound 2 ||u||_q ||v||_{q'} per row, with the
    slack and the verdict."""
    lhs = np.abs((u * v).sum(axis=1) * cell_width)
    u_norm = np.array(_norm_rows(u, q, cell_width))
    bound = 2.0 * u_norm * np.array(_norm_rows(v, q_conj, cell_width))
    return lhs, bound, bound - lhs, lhs <= bound + _HOLDER_TOL


def holder_pairing_check(u: GridFunction, v: GridFunction, q: ScalarExponent) -> CheckResult:
    """|sum u v dx| <= 2 ||u||_q ||v||_{q'} over Omega."""
    mask = u.mesh.interior_mask
    centers = u.mesh.cell_centers[mask]
    return _one_case("holder_pairing", *_holder_rows(
        u.values[mask][None], v.values[mask][None], q.values(centers)[None],
        conjugate_exponent(q).values(centers)[None], u.mesh.cell_width))


def _norm_of_one_rows(gamma: np.ndarray, cell_width: float):
    """||1||_gamma per row with its bounds min and max of |O|^(1/g+) and
    |O|^(1/g-), the slack and the verdict; |O| is the row's measure."""
    measure = gamma.shape[1] * cell_width
    norm1 = np.array(_norm_rows(np.ones_like(gamma), gamma, cell_width))
    ends = [(measure ** (1.0 / g_hi), measure ** (1.0 / g_lo))
            for g_lo, g_hi in zip(gamma.min(axis=1).tolist(), gamma.max(axis=1).tolist())]
    lo_bound = np.array([min(e) for e in ends])
    hi_bound = np.array([max(e) for e in ends])
    ok = (lo_bound - _BOUNDS_TOL <= norm1) & (norm1 <= hi_bound + _BOUNDS_TOL)
    return norm1, lo_bound, hi_bound, np.minimum(norm1 - lo_bound, hi_bound - norm1), ok


def norm_of_one_bounds(gamma: ScalarExponent, mesh: Mesh) -> CheckResult:
    """min(|O|^(1/g+), |O|^(1/g-)) <= ||1||_gamma <= max(...) on Omega."""
    norm1, lo_bound, hi_bound, slack, ok = _norm_of_one_rows(
        gamma.values(mesh.cell_centers[mesh.interior_mask])[None], mesh.cell_width)
    return _one_case("norm_of_one", norm1, hi_bound, slack, ok,
                     f"measure={mesh.omega_measure:.6g} lower={float(lo_bound[0]):.12g}")


def _power_bounds(m: float, mid: float, b_lo: float, b_hi: float) -> tuple[float, float, bool]:
    """(upper bound, slack, verdict) of the sandwich of ``mid`` between
    powers of ``m``; for m = 0 the bound is 0 and mid must vanish."""
    if m == 0.0:
        return 0.0, -mid, mid <= _BOUNDS_TOL
    if m <= 1.0:
        lo_b, hi_b = m ** b_hi, m ** b_lo
    else:
        lo_b, hi_b = m ** b_lo, m ** b_hi
    return hi_b, min(mid - lo_b, hi_b - mid), (lo_b - _BOUNDS_TOL) <= mid <= (hi_b + _BOUNDS_TOL)


def _power_norm_rows(vals: np.ndarray, alpha: np.ndarray, beta: np.ndarray, cell_width: float):
    """|| |u|^beta ||_alpha and m = ||u||_{alpha*beta} per row, with the
    upper bound, the slack and the verdict of ``_power_bounds``."""
    m = _norm_rows(vals, alpha * beta, cell_width)
    mid = _norm_rows(np.abs(vals) ** beta, alpha, cell_width)
    rows = [_power_bounds(*case) for case in zip(
        m, mid, beta.min(axis=1).tolist(), beta.max(axis=1).tolist())]
    bound, slack, ok = (np.array(col) for col in zip(*rows))
    return np.array(mid), np.array(m), bound, slack, ok


def power_norm_bounds_check(u: GridFunction, alpha: ScalarExponent,
                            beta: ScalarExponent) -> CheckResult:
    """Sandwich for || |u|^beta ||_alpha between powers of ||u||_{alpha*beta}
    over Omega.

    With m = ||u||_{alpha*beta}: if m <= 1 then m^(beta+) <= |||u|^beta||_alpha
    <= m^(beta-), and with the exponents swapped when m >= 1.  beta may touch 1.
    """
    mask = u.mesh.interior_mask
    centers = u.mesh.cell_centers[mask]
    mid, m, bound, slack, ok = _power_norm_rows(
        u.values[mask][None], alpha.values(centers)[None], beta.values(centers)[None],
        u.mesh.cell_width)
    m = float(m[0])
    return _one_case("power_norm_bounds", mid, bound, slack, ok,
                     f"base_norm={m:.12g}" if m != 0.0 else "")


def _norm_modular_slack(rho: float, nrm: float, q_lo: float, q_hi: float, tol: float) -> float:
    """The worst margin of items (1)-(3) for one case; 0 when none applies."""
    worst = math.inf

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
    return 0.0 if worst == math.inf else worst


def _norm_modular_rows(vals: np.ndarray, q: np.ndarray, cell_width: float, tol: float):
    """rho_q(u) and ||u||_q per row, with the slack of
    ``_norm_modular_slack`` and the verdict."""
    rho = _modular_rows(vals, q, cell_width)
    nrm = _norm_rows(vals, q, cell_width)
    slack = np.array([_norm_modular_slack(*case, tol) for case in zip(
        rho.tolist(), nrm, q.min(axis=1).tolist(), q.max(axis=1).tolist())])
    return rho, np.array(nrm), slack, slack >= -tol


def norm_modular_relation_check(u: GridFunction, q: ScalarExponent,
                                tol: float = 1e-9) -> CheckResult:
    """Items (1)-(3) of the norm/modular comparison over Omega.

    (1) ||u|| < 1 iff rho(u) < 1 (and similarly at 1 and above 1);
    (2) ||u|| > 1 implies ||u||^q- <= rho(u) <= ||u||^q+;
    (3) ||u|| < 1 implies ||u||^q+ <= rho(u) <= ||u||^q-.
    """
    mask = u.mesh.interior_mask
    rho, nrm, slack, passed = _norm_modular_rows(
        u.values[mask][None], q.values(u.mesh.cell_centers[mask])[None], u.mesh.cell_width, tol)
    return _one_case("norm_modular_relation", rho, nrm, slack, passed,
                     f"norm={float(nrm[0]):.12g} modular={float(rho[0]):.12g}")
