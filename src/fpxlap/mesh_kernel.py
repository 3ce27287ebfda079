"""Uniform 1D mesh on a truncated box and exact pairwise kernel weights.

The kernel |x-y|^(-(1+s*p(x,y))) is integrated in closed form over each cell
pair with the exponent frozen at the pair of cell centers.  For cells
A=[a1,a2], B=[b1,b2] and alpha = 1+s*p the double integral is

    w = phi(a2-b1) + phi(a1-b2) - phi(a2-b2) - phi(a1-b1),
    phi(t) = |t|^(2-alpha) / ((1-alpha)(2-alpha)),

which remains finite for adjacent cells exactly when alpha < 2, i.e.
s*p < 1.  The weights are filled over the upper triangle in the row blocks
of ``_row_blocks``, which the pair passes use too (about 2^15 pairs a
block, so no n x n temporaries), and the lower triangle is its mirror; a
constant exponent is kept as one read-only zero-stride array.  The per-cell
tail is the one-sided exterior integral int_{|y|>R} |x_i-y|^(-(1+s*pbar(x_i)))
dy; callers weight it by the cell measure in a double-integral quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exponents import ExponentError, ExponentField


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
    )


def restrict_interior(mesh: Mesh, interior_mask: np.ndarray) -> Mesh:
    """Same box and cells, different interior set (used by shell solves)."""
    mask = np.asarray(interior_mask, dtype=bool)
    if mask.shape != mesh.interior_mask.shape:
        raise MeshError("interior mask shape mismatch")
    if not mask.any() or mask.all():
        raise MeshError("restricted interior must be a proper nonempty subset")
    return replace(mesh, interior_mask=mask)


# pairs per block of rows over an upper triangle: a block's scratch stays in cache
_BLOCK_PAIRS = 1 << 15


def _row_blocks(m: int, n: int):
    """Row ranges [i0, i1) of m rows, where row i holds the columns [i, n),
    of about ``_BLOCK_PAIRS`` pairs each (at least one row a block); rows
    left over with fewer than half a block's pairs join the last block."""
    i0 = 0
    while i0 < m:
        i1 = min(i0 + max(1, _BLOCK_PAIRS // (n - i0)), m)
        if (m - i1) * (n - i1) < _BLOCK_PAIRS // 2:
            i1 = m
        yield i0, i1
        i0 = i1


def _layout(interior: np.ndarray):
    """The columns [interior | exterior] of the interior-row blocks: the cell
    of each column, and the runs (j0, j1, shift) of consecutive cells in
    them, cols[j] = j + shift for j in [j0, j1)."""
    cols = np.concatenate([np.flatnonzero(interior), np.flatnonzero(~interior)])
    cut = (np.flatnonzero(np.diff(cols) != 1) + 1).tolist()
    return cols, [(j0, j1, int(cols[j0]) - j0) for j0, j1 in zip([0] + cut, cut + [cols.size])]


def _gather(a: np.ndarray, runs: list, i0: int, i1: int, out: np.ndarray) -> np.ndarray:
    """a[cols[i0:i1]][:, cols[i0:]] into out, one slice copy per pair of
    ``_layout`` runs; returns out."""
    for r0, r1, r_shift in runs:
        r0, r1 = max(r0, i0), min(r1, i1)
        if r0 >= r1:
            continue
        for c0, c1, c_shift in runs:
            c0 = max(c0, i0)
            if c0 < c1:
                out[r0 - i0:r1 - i0, c0 - i0:c1 - i0] = a[r0 + r_shift:r1 + r_shift,
                                                            c0 + c_shift:c1 + c_shift]
    return out


def _phi(out: np.ndarray, t_rows: np.ndarray, t_cols: np.ndarray,
         two_minus_alpha: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """phi(t_rows[i] - t_cols[j]) into out, with denom = (1-alpha)(2-alpha)."""
    # |t|^(2-alpha) vanishes at t=0 for alpha<2, matching the improper limit
    np.subtract(t_rows[:, None], t_cols[None, :], out=out)
    np.abs(out, out=out)
    np.power(out, two_minus_alpha, out=out)
    return np.divide(out, denom, out=out)


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
    def p_const(self) -> float | None:
        """The uniform exponent of a zero-stride p_pair, the form that
        ``assemble_weights`` gives a constant one; None otherwise."""
        return None if any(self.p_pair.strides) else float(self.p_pair.flat[0])

    @property
    def p_minus(self) -> float:
        return float(self.p_pair.min())

    @property
    def p_plus(self) -> float:
        return float(self.p_pair.max())


def assemble_weights(mesh: Mesh, p: ExponentField) -> KernelWeights:
    """Exact pair weights and exterior tails for the frozen-exponent kernel.

    ``w`` is filled one block of rows of ``_row_blocks(n, n)`` at a time:
    the block of rows [i0, i1) covers the columns [i0, n), and its alpha,
    2 - alpha and (1 - alpha)(2 - alpha) are formed once into preallocated
    buffers shared by the four phi terms.  The lower triangle is copied in
    as the transpose, so ``w`` is exactly symmetric; with the grouping
    (phi(r-l) + phi(l-r)) - (phi(r-r) + phi(l-l)) every weight of an
    exactly symmetric exponent equals the full-matrix formula bit for bit.
    The cell edges are -R + k dx, k = 0..n, so adjacent cells share one
    float edge and their touching term is phi(0) = 0 exactly.
    A constant exponent, declared by p_minus == p_plus, is stored as a
    read-only ``np.broadcast_to`` of its value without sampling p on cell
    pairs; its trace p(x,x), which the tails read, must equal that value.

    Rejects configurations with s*p >= 1 on adjacent cell pairs, where the
    adjacent improper integral diverges for piecewise constants.
    """
    centers = mesh.cell_centers
    n = mesh.n_cells
    pbar = p.trace_values(centers)
    if p.p_minus == p.p_plus:
        if np.any(pbar != p.p_minus):
            raise ExponentError(f"exponent declared constant {p.p_minus} varies on its trace")
        p_pair = np.broadcast_to(float(p.p_minus), (n, n))
    else:
        p_pair = p.pair_matrix(centers)
    adjacent = np.diagonal(p_pair, offset=1)
    if np.any(1.0 + p.s * adjacent >= 2.0):
        worst = float(np.max(adjacent))
        raise KernelError(
            f"non-integrable adjacency: s*p = {p.s * worst:.6g} >= 1 on adjacent cells; "
            "the piecewise-constant discretization requires s*p+ < 1"
        )

    edges = -mesh.R + mesh.cell_width * np.arange(n + 1)
    left, right = edges[:-1], edges[1:]
    w = np.empty((n, n))
    spans = list(_row_blocks(n, n))
    # two blocks' room at least: freeing it raises glibc's mmap threshold past the
    # 2 MB n x n arrays of a varying-exponent assembly at n = 512, which would
    # otherwise be mapped afresh each call (about 960 more page faults a call)
    buffers = np.empty((5, max(2 * _BLOCK_PAIRS, *((i1 - i0) * (n - i0) for i0, i1 in spans))))
    w_min = w_max = 0.0
    for i0, i1 in spans:
        rows, cols = i1 - i0, n - i0
        alpha, two_m, denom, far, near = (buf[:rows * cols].reshape(rows, cols) for buf in buffers)
        np.multiply(p_pair[i0:i1, i0:], p.s, out=alpha)
        alpha += 1.0
        np.subtract(2.0, alpha, out=two_m)
        np.subtract(1.0, alpha, out=denom)
        denom *= two_m
        # grouped so that the matrix is exactly symmetric in floating point;
        # alpha's buffer is free from here on and holds the second phi term
        _phi(far, right[i0:i1], left[i0:], two_m, denom)
        far += _phi(alpha, left[i0:i1], right[i0:], two_m, denom)
        _phi(near, right[i0:i1], right[i0:], two_m, denom)
        near += _phi(alpha, left[i0:i1], left[i0:], two_m, denom)
        far -= near
        # the block's own square: zero diagonal, lower part mirrored from above
        square = far[:, :rows]
        lower = np.tril_indices(rows, -1)
        square[lower] = square.T[lower]
        np.fill_diagonal(square, 0.0)
        if not np.isfinite(far).all():
            raise KernelError("non-finite kernel weight encountered")
        w_min, w_max = min(w_min, float(far.min())), max(w_max, float(far.max()))
        w[i0:i1, i0:] = far
        w[i1:, i0:i1] = far[:, rows:].T
    if w_min < 0.0:
        # exact integrals of a positive kernel; allow only fp dust
        if w_min < -1e-12 * max(w_max, 1.0):
            raise KernelError("negative kernel weight encountered")
        np.maximum(w, 0.0, out=w)

    spbar = p.s * pbar
    tail = ((centers + mesh.R) ** (-spbar) + (mesh.R - centers) ** (-spbar)) / spbar
    return KernelWeights(mesh=mesh, w=w, p_pair=p_pair, tail=tail)
