"""Variable exponents: the symmetric pair exponent p(x,y) and scalar exponents.

The pair exponent drives the kernel power 1 + s*p(x,y); the scalars play the
roles of the Lebesgue exponents q, r, gamma and the diagonal trace pbar.
All validation is sample-based at cell centers: evaluators must broadcast
over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class ExponentError(ValueError):
    """Raised for exponents violating the admissibility hypotheses."""


@dataclass(frozen=True)
class ExponentField:
    """Symmetric two-point exponent p(x,y) with fractional order s.

    ``p_minus``/``p_plus`` are the declared inf/sup over the working box;
    catalog constructors fill them analytically and validation cross-checks
    them against sampled values.  ``assemble_weights`` trusts equal bounds
    as a constant exponent and checks only the trace p(x,x) against them.
    """

    evaluator: Callable
    p_minus: float
    p_plus: float
    s: float

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ExponentError(f"fractional order s={self.s} outside (0,1)")
        if not (1.0 < self.p_minus <= self.p_plus < np.inf):
            raise ExponentError(
                f"exponent bounds ({self.p_minus}, {self.p_plus}) violate 1 < p- <= p+ < inf"
            )

    def pair_matrix(self, centers: np.ndarray) -> np.ndarray:
        """Sample p at all center pairs; rejects non-finite values."""
        pm = np.asarray(self.evaluator(centers[:, None], centers[None, :]), dtype=float)
        if not np.all(np.isfinite(pm)):
            raise ExponentError("exponent evaluator produced non-finite values")
        return pm

    def trace_values(self, centers: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.evaluator(centers, centers), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ExponentError("exponent evaluator produced non-finite values")
        return vals


@dataclass(frozen=True)
class ScalarExponent:
    """One-point exponent with declared range bounds."""

    evaluator: Callable
    lower: float
    upper: float

    def __post_init__(self):
        if not (self.lower <= self.upper < np.inf):
            raise ExponentError(f"scalar exponent bounds ({self.lower}, {self.upper}) invalid")

    def __call__(self, x):
        return self.evaluator(x)

    def values(self, centers: np.ndarray) -> np.ndarray:
        vals = np.array(self.evaluator(centers), dtype=float)  # a copy the caller owns
        if vals.shape != np.shape(centers):  # a constant broadcasts over the centers
            vals = vals * np.ones_like(centers)
        if not np.isfinite(vals).all():
            raise ExponentError("scalar exponent produced non-finite values")
        return vals


@dataclass(frozen=True)
class ValidationReport:
    symmetry_defect: float
    sampled_p_minus: float
    sampled_p_plus: float
    s_p_plus: float
    lower_bound_ok: bool
    subcritical_ok: bool
    symmetric_ok: bool
    bounds_ok: bool

    @property
    def passed(self) -> bool:
        return self.lower_bound_ok and self.subcritical_ok and self.symmetric_ok and self.bounds_ok

    def lines(self):
        yield f"exponent.symmetry_defect: {self.symmetry_defect:.3e}"
        yield f"exponent.sampled_p_minus: {self.sampled_p_minus:.12g}"
        yield f"exponent.sampled_p_plus: {self.sampled_p_plus:.12g}"
        yield f"exponent.s_p_plus: {self.s_p_plus:.12g}"
        yield f"exponent.lower_bound_ok: {self.lower_bound_ok}"
        yield f"exponent.subcritical_ok: {self.subcritical_ok}"
        yield f"exponent.symmetric_ok: {self.symmetric_ok}"
        yield f"exponent.bounds_ok: {self.bounds_ok}"
        yield f"exponent.passed: {self.passed}"


SYMMETRY_TOL = 1e-12


def validate_exponent_field(p: ExponentField, mesh) -> ValidationReport:
    """Sample p over cell-center pairs and check symmetry, bounds, subcriticality.

    The bounds check compares sampled values against the declared
    [p_minus, p_plus]; p-/p+ of the discrete problem are the sampled extremes.
    """
    centers = mesh.cell_centers
    pm = p.pair_matrix(centers)
    defect = float(np.max(np.abs(pm - pm.T))) if pm.size else 0.0
    sampled_min = float(pm.min())
    sampled_max = float(pm.max())
    sp_plus = p.s * max(sampled_max, p.p_plus)
    return ValidationReport(
        symmetry_defect=defect,
        sampled_p_minus=sampled_min,
        sampled_p_plus=sampled_max,
        s_p_plus=sp_plus,
        lower_bound_ok=sampled_min > 1.0 and p.p_minus > 1.0,
        subcritical_ok=sp_plus < 1.0,
        symmetric_ok=defect <= SYMMETRY_TOL,
        bounds_ok=bool(
            sampled_min >= p.p_minus - SYMMETRY_TOL and sampled_max <= p.p_plus + SYMMETRY_TOL
        ),
    )


def trace_exponent(p: ExponentField) -> ScalarExponent:
    """Diagonal trace pbar(x) = p(x,x)."""
    return ScalarExponent(
        evaluator=lambda x: p.evaluator(x, x), lower=p.p_minus, upper=p.p_plus
    )


def critical_exponent(p: ExponentField, x):
    """Critical Sobolev exponent pbar(x) / (1 - s*pbar(x)) in dimension N = 1.

    Raises ExponentError when the denominator degenerates (1 - s*pbar <= 0).
    """
    pbar = np.asarray(p.evaluator(x, x), dtype=float)
    denom = 1.0 - p.s * pbar
    if np.any(denom <= 0.0):
        raise ExponentError("degenerate critical exponent: 1 - s*pbar(x) <= 0")
    out = pbar / denom
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


def _conjugate_values(qx):
    """q' = q/(q-1) of exponent values."""
    return qx / (qx - 1.0)


def conjugate_exponent(q: ScalarExponent) -> ScalarExponent:
    """Pointwise conjugate q' = q/(q-1), so 1/q + 1/q' = 1."""
    if q.lower <= 1.0:
        raise ExponentError("conjugate exponent requires q > 1")
    return ScalarExponent(evaluator=lambda x: _conjugate_values(q.evaluator(x)),
                          lower=q.upper / (q.upper - 1.0), upper=q.lower / (q.lower - 1.0))


def validate_growth_pair(r: ScalarExponent, p: ExponentField, mesh) -> bool:
    """Exponent compatibility for the semilinear right-hand side.

    True iff pbar+ < r- and r(x) < critical exponent at every interior center.
    """
    centers = mesh.cell_centers[mesh.interior_mask]
    if centers.size == 0:
        return False
    pbar = p.trace_values(centers)
    rvals = r.values(centers)
    crit = critical_exponent(p, centers)
    return bool(pbar.max() < rvals.min() and np.all(rvals < crit))
