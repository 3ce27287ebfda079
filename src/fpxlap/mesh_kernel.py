"""Uniform 1D mesh on a truncated box and exact pairwise kernel weights.

The kernel |x-y|^(-(1+s*p(x,y))) is integrated in closed form over each cell
pair with the exponent frozen at the pair of cell centers.  For cells
A=[a1,a2], B=[b1,b2] and alpha = 1+s*p the double integral is

    w = phi(a2-b1) + phi(a1-b2) - phi(a2-b2) - phi(a1-b1),
    phi(t) = |t|^(2-alpha) / ((1-alpha)(2-alpha)),

which remains finite for adjacent cells exactly when alpha < 2, i.e.
s*p < 1.  The per-cell tail is the one-sided exterior integral
int_{|y|>R} |x_i-y|^(-(1+s*pbar(x_i))) dy; callers weight it by the cell
measure when it enters a double-integral quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exponents import ExponentField


class MeshError(ValueError):
    """Raised for inadmissible box/omega geometry."""


class KernelError(ValueError):
    """Raised when the piecewise-constant discretization is invalid."""


@dataclass(frozen=True)
class Mesh:
    R: float
    n_cells: int
    cell_centers: np.ndarray
    cell_width: float
    interior_mask: np.ndarray
    omega: tuple[tuple[float, float], ...]

    @property
    def exterior_mask(self) -> np.ndarray:
        return ~self.interior_mask

    @property
    def omega_measure(self) -> float:
        return float(self.interior_mask.sum()) * self.cell_width

    @property
    def interior_indices(self) -> np.ndarray:
        return np.where(self.interior_mask)[0]


def build_mesh(R: float, n_cells: int, omega) -> Mesh:
    """Tile [-R, R] with n_cells uniform cells; mark centers inside omega.

    omega is a list of disjoint open intervals strictly inside (-R, R);
    the exterior collar must be nonempty on both checks (at least one
    interior and one exterior cell).
    """
    if not R > 0:
        raise MeshError(f"box half-width R={R} must be positive")
    if n_cells < 4:
        raise MeshError(f"n_cells={n_cells} must be at least 4")
    intervals = sorted((float(a), float(b)) for a, b in omega)
    if not intervals:
        raise MeshError("omega must contain at least one interval")
    for a, b in intervals:
        if not (a < b):
            raise MeshError(f"degenerate omega interval ({a}, {b})")
        if not (-R < a and b < R):
            raise MeshError(
                f"omega interval ({a}, {b}) touches or exceeds the box (-{R}, {R}); "
                "an exterior collar is required"
            )
    for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
        if b1 > a2:
            raise MeshError(f"omega intervals ({a1},{b1}) and ({a2},{b2}) overlap")

    width = 2.0 * R / n_cells
    centers = -R + width * (np.arange(n_cells) + 0.5)
    mask = np.zeros(n_cells, dtype=bool)
    for a, b in intervals:
        mask |= (centers > a) & (centers < b)
    if not mask.any():
        raise MeshError("omega captures no cell centers; refine the mesh")
    if mask.all():
        raise MeshError("no exterior cells inside the box; enlarge R")
    return Mesh(
        R=float(R),
        n_cells=int(n_cells),
        cell_centers=centers,
        cell_width=width,
        interior_mask=mask,
        omega=tuple(intervals),
    )


def restrict_interior(mesh: Mesh, interior_mask: np.ndarray) -> Mesh:
    """Same box and cells, different interior set (used by shell solves)."""
    mask = np.asarray(interior_mask, dtype=bool)
    if mask.shape != mesh.interior_mask.shape:
        raise MeshError("interior mask shape mismatch")
    if not mask.any() or mask.all():
        raise MeshError("restricted interior must be a proper nonempty subset")
    return replace(mesh, interior_mask=mask, omega=mesh.omega)


def _phi(t: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    # |t|^(2-alpha) vanishes at t=0 for alpha<2, matching the improper limit
    return np.abs(t) ** (2.0 - alpha) / ((1.0 - alpha) * (2.0 - alpha))


@dataclass(frozen=True)
class KernelWeights:
    mesh: Mesh
    w: np.ndarray
    p_pair: np.ndarray
    tail: np.ndarray

    @property
    def p_bar(self) -> np.ndarray:
        return np.diagonal(self.p_pair)

    @property
    def p_minus(self) -> float:
        return float(self.p_pair.min())

    @property
    def p_plus(self) -> float:
        return float(self.p_pair.max())


def assemble_weights(mesh: Mesh, p: ExponentField) -> KernelWeights:
    """Exact pair weights and exterior tails for the frozen-exponent kernel.

    Rejects configurations with s*p >= 1 on adjacent cell pairs, where the
    adjacent improper integral diverges for piecewise constants.
    """
    centers = mesh.cell_centers
    n = mesh.n_cells
    p_pair = p.pair_matrix(centers)
    alpha = 1.0 + p.s * p_pair

    adj = np.diagonal(alpha, offset=1)
    if np.any(adj >= 2.0):
        worst = float(np.max(np.diagonal(p_pair, offset=1)))
        raise KernelError(
            f"non-integrable adjacency: s*p = {p.s * worst:.6g} >= 1 on adjacent cells; "
            "the piecewise-constant discretization requires s*p+ < 1"
        )

    half = mesh.cell_width / 2.0
    left = centers - half
    right = centers + half
    # grouped so that the matrix is exactly symmetric in floating point
    a_far = _phi(right[:, None] - left[None, :], alpha) + _phi(left[:, None] - right[None, :], alpha)
    a_near = _phi(right[:, None] - right[None, :], alpha) + _phi(left[:, None] - left[None, :], alpha)
    w = a_far - a_near
    np.fill_diagonal(w, 0.0)
    if not np.all(np.isfinite(w)):
        raise KernelError("non-finite kernel weight encountered")
    if w.min() < 0.0:
        # exact integrals of a positive kernel; allow only fp dust
        if w.min() < -1e-12 * max(w.max(), 1.0):
            raise KernelError("negative kernel weight encountered")
        w = np.maximum(w, 0.0)

    spbar = p.s * p.trace_values(centers)
    tail = ((centers + mesh.R) ** (-spbar) + (mesh.R - centers) ** (-spbar)) / spbar
    return KernelWeights(mesh=mesh, w=w, p_pair=p_pair, tail=tail)

