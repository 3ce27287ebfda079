"""Uniform 1D mesh on a truncated box and exact pairwise kernel weights.

The kernel |x-y|^(-(1+s*p(x,y))) is integrated in closed form over each cell
pair with the exponent frozen at the pair of cell centers.  For cells
A=[a1,a2], B=[b1,b2] and alpha = 1+s*p the double integral is

    w = phi(a2-b1) + phi(a1-b2) - phi(a2-b2) - phi(a1-b1),
    phi(t) = |t|^(2-alpha) / ((1-alpha)(2-alpha)),

which remains finite for adjacent cells exactly when alpha < 2, i.e.
s*p < 1.  With the cell edges e_0 < ... < e_n, w_ij is the mixed second
difference of phi over the edge-difference grid |e_a - e_b|, so a constant
exponent takes one power per edge pair (its exponent a filled row: numpy's
power of a zero-stride exponent 0.5 takes sqrt, which rounds differently).
The weights are filled over the upper triangle in the row blocks of
``_row_blocks``, which the pair passes use too (about 2^15 pairs a block, so
no n x n temporaries), and the lower triangle is its mirror; a constant
exponent is kept as one read-only zero-stride array.  The per-cell tail is
the one-sided exterior integral int_{|y|>R} |x_i-y|^(-(1+s*pbar(x_i))) dy;
callers weight it by the cell measure in a double-integral quantity.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .exponents import ExponentError, ExponentField


class MeshError(ValueError):
    """Raised for inadmissible box/omega geometry."""


class KernelError(ValueError):
    """Raised when the piecewise-constant discretization is invalid."""


def _is_count(n) -> bool:
    """A positive integer; a bool is an int to Python but not a count."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1


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
    if not 0 < R < math.inf:
        raise MeshError(f"box half-width R={R} must be positive and finite")
    if not (_is_count(n_cells) and n_cells >= 4):
        raise MeshError(f"n_cells={n_cells!r} must be an integer of at least 4")
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


def _phi(out: np.ndarray, t: np.ndarray, two_minus_alpha, denom) -> np.ndarray:
    """phi(t) into out for t >= 0, with denom = (1-alpha)(2-alpha)."""
    # |t|^(2-alpha) vanishes at t=0 for alpha<2, matching the improper limit
    np.power(t, two_minus_alpha, out=out)
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
    the block of rows [i0, i1) covers the columns [i0, n) and is read off
    the grid G = |e_a - e_b| of its edges a in [i0, i1], b in [i0, n], as
    the mixed second difference (Phi[i+1, j] + Phi[i, j+1]) - (Phi[i+1, j+1]
    + Phi[i, j]) of Phi = phi(G); G's entries are the float differences
    r_i - l_j, l_i - r_j, r_i - r_j and l_i - l_j of the four-phi formula.
    A constant exponent takes Phi once over the grid, one power per edge
    pair; its exponent 2 - alpha is a filled row broadcast over the grid's
    rows, not a scalar, since numpy's power takes sqrt for a zero-stride
    exponent of 0.5, which does not round like the power.  A varying
    exponent forms alpha, 2 - alpha and (1 - alpha)(2 - alpha) once a block
    into preallocated buffers and takes the four phi terms with each pair's
    own exponent.  The strict lower triangle is then copied in as the
    transpose of the upper, square tile by square tile, so ``w`` is exactly
    symmetric; with that grouping every weight of an exactly symmetric
    exponent equals the full-matrix formula bit for bit.
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
    constant = p.p_minus == p.p_plus
    if constant:
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
    w = np.empty((n, n))
    spans = list(_row_blocks(n, n))
    # two blocks' room at least: freeing it raises glibc's mmap threshold past the
    # 2 MB n x n arrays of a varying-exponent assembly at n = 512, which would
    # otherwise be mapped afresh each call (about 960 more page faults a call)
    buffers = np.empty((5, max(2 * _BLOCK_PAIRS,
                               *((i1 - i0 + 1) * (n - i0 + 1) for i0, i1 in spans))))
    if constant:
        alpha = float(p.p_minus) * p.s + 1.0
        # a filled row, not a scalar: a zero-stride exponent 0.5 takes sqrt
        two_m_row = np.full(n + 1, 2.0 - alpha)
        denom_const = (1.0 - alpha) * (2.0 - alpha)
    # the strict lower triangle of a mirror tile
    tile = max(1, math.isqrt(_BLOCK_PAIRS // 2))
    lower = np.tri(tile, k=-1, dtype=bool)
    w_min = w_max = 0.0
    for i0, i1 in spans:
        rows, cols = i1 - i0, n - i0
        grid, two_m, denom, far, near = buffers
        # the edge-difference grid |e_a - e_b|, a in [i0, i1], b in [i0, n]:
        # cell pair (i, j) reads its four phi arguments at (i+1, j), (i, j+1),
        # (i+1, j+1) and (i, j).  e_b - e_a is exactly -(e_a - e_b), and only
        # the columns b <= i1 can hold a negative one
        grid = grid[:(rows + 1) * (cols + 1)].reshape(rows + 1, cols + 1)
        grid[...] = edges[i0:]
        grid -= edges[i0:i1 + 1, None]
        np.abs(grid[:, :rows + 1], out=grid[:, :rows + 1])
        far, near = (buf[:rows * cols].reshape(rows, cols) for buf in (far, near))
        # grouped (phi(r-l) + phi(l-r)) - (phi(r-r) + phi(l-l)), so that the
        # matrix of an exactly symmetric exponent is exactly symmetric
        if constant:
            # phi depends on the edge pair alone: one power per edge pair
            _phi(grid, grid, two_m_row[i0:], denom_const)
            np.add(grid[1:, :-1], grid[:-1, 1:], out=far)
            np.add(grid[1:, 1:], grid[:-1, :-1], out=near)
        else:
            two_m, denom = (buf[:rows * cols].reshape(rows, cols) for buf in (two_m, denom))
            np.multiply(p_pair[i0:i1, i0:], p.s, out=two_m)
            two_m += 1.0
            np.subtract(1.0, two_m, out=denom)
            np.subtract(2.0, two_m, out=two_m)
            denom *= two_m
            _phi(far, grid[1:, :-1], two_m, denom)
            far += _phi(near, grid[:-1, 1:], two_m, denom)
            _phi(near, grid[1:, 1:], two_m, denom)
            # the last term overwrites the exponent it reads
            near += _phi(two_m, grid[:-1, :-1], two_m, denom)
        far -= near
        # the block's own square gets a zero diagonal; its lower part, the same
        # formula on the same cell pairs, is checked here and mirrored below
        np.fill_diagonal(far[:, :rows], 0.0)
        # min and max propagate nan, and an infinity is one of them
        b_min, b_max = float(far.min()), float(far.max())
        if not (np.isfinite(b_min) and np.isfinite(b_max)):
            raise KernelError("non-finite kernel weight encountered")
        w_min, w_max = min(w_min, b_min), max(w_max, b_max)
        w[i0:i1, i0:] = far
    # the rest of the lower triangle, mirrored in square tiles of about half a
    # block's pairs: a block of few rows would copy in short strided runs
    for r0 in range(0, n, tile):
        r1 = min(r0 + tile, n)
        k = r1 - r0
        square, mirror = w[r0:r1, r0:r1], buffers[0][:k * k].reshape(k, k)
        np.copyto(mirror, square.T)
        np.copyto(square, mirror, where=lower[:k, :k])
        for c0 in range(r1, n, tile):
            w[c0:c0 + tile, r0:r1] = w[r0:r1, c0:c0 + tile].T
    if w_min < 0.0:
        # exact integrals of a positive kernel; allow only fp dust
        if w_min < -1e-12 * max(w_max, 1.0):
            raise KernelError("negative kernel weight encountered")
        np.maximum(w, 0.0, out=w)

    spbar = p.s * pbar
    tail = ((centers + mesh.R) ** (-spbar) + (mesh.R - centers) ** (-spbar)) / spbar
    return KernelWeights(mesh=mesh, w=w, p_pair=p_pair, tail=tail)
