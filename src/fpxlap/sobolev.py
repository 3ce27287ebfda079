"""Gagliardo modular/seminorm, the discrete nonlocal operator, and weak forms.

Discrete convention for a field u on the box cells, extended by zero beyond
the box: the full-space double integral splits into the in-box pair sum plus
exterior-of-box tail terms.  Each unordered pair {i,j} appears twice in the
double integral, and so does each (cell, exterior) ordering, hence

    rho(u)      = sum_{i<j} 2 w_ij |u_i-u_j|^{p_ij}
                  + 2 dx sum_i tail_i |u_i|^{pbar_i},
    <L(u),phi>  = sum_{i<j} 2 w_ij |u_i-u_j|^{p_ij-2}(u_i-u_j)(phi_i-phi_j)
                  + 2 dx sum_i tail_i |u_i|^{pbar_i-2} u_i phi_i,

where the tail integral carries the cell measure dx once because ``tail_i``
stores the one-dimensional exterior integral frozen at the cell center.  The
cell-averaged operator value then satisfies the exact identity
<L(u),phi> = 2 sum_i phi_i (operator u)_i dx for phi supported in the box.

Each pass forms each unordered pair once, in the row blocks of
``mesh_kernel._row_blocks`` (no n x n temporary); 'omega' and ``poisson.energy``
take only the interior rows, so they never form a pair of two exterior cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import ScalarExponent
from .lebesgue import GridFunction, _luxemburg_root, luxemburg_norm
from .mesh_kernel import KernelWeights, _gather, _layout, _row_blocks


@dataclass(frozen=True)
class DirichletPair:
    """Field u agreeing with the exterior datum g outside the interior set."""

    u: GridFunction
    g: GridFunction

    def __post_init__(self):
        ext = self.u.mesh.exterior_mask
        if not np.array_equal(self.u.values[ext], self.g.values[ext]):
            raise ValueError("u must equal g on every exterior cell")


def _pair_blocks(W: KernelWeights, variant: str, fields, spare: int):
    """The variant's pairs by blocks of rows [i0, i1) over the columns from
    i0 on: all cells for 'rn', with w, p views of the weights; the interior
    rows and [interior | exterior] columns (``mesh_kernel._layout``) for
    'omega', with w, p gathered.  Yields (i0, i1, w, p or W.p_const, the
    d = f_i - f_j of each field, ``spare`` free buffers).  The block's own
    square [:, :i1 - i0] holds its pairs both ways, the other columns once."""
    n, p_const = W.mesh.n_cells, W.p_const
    if variant == "rn":
        m, runs = n, None
    elif variant == "omega":
        m = int(np.count_nonzero(W.mesh.interior_mask))
        cols, runs = _layout(W.mesh.interior_mask)
        fields = [f[cols] for f in fields]
    else:
        raise ValueError(f"unknown modular variant {variant!r}")
    spans = list(_row_blocks(m, n))
    gathered = 0 if runs is None else 1 + (p_const is None)
    buffers = np.empty((len(fields) + spare + gathered, max((i1 - i0) * (n - i0) for i0, i1 in spans)))
    for i0, i1 in spans:
        views = [buf[:(i1 - i0) * (n - i0)].reshape(i1 - i0, n - i0) for buf in buffers]
        w = W.w[i0:i1, i0:] if runs is None else _gather(W.w, runs, i0, i1, views.pop())
        p = p_const if p_const is not None else (
            W.p_pair[i0:i1, i0:] if runs is None else _gather(W.p_pair, runs, i0, i1, views.pop()))
        diffs = [np.subtract(f[i0:i1, None], f[None, i0:], out=views.pop()) for f in fields]
        yield i0, i1, w, p, diffs, views


def _twice_upper(terms: np.ndarray, rows: int) -> float:
    """Twice a block's symmetric pair terms summed over its pairs, each once."""
    return 2.0 * float(terms[:, rows:].sum()) + float(terms[:, :rows].sum())


def _pair_sum(vals: np.ndarray, W: KernelWeights, variant: str, over_p: bool = False) -> float:
    """sum of 2 w_ij |u_i-u_j|^{p_ij} (over p_ij with over_p) over the
    variant's unordered pairs."""
    total, p_const = 0.0, W.p_const
    for i0, i1, w, p, (d,), _ in _pair_blocks(W, variant, [vals], 0):
        np.power(np.abs(d, out=d), p, out=d)
        if over_p and p_const is None:
            d /= p
        d *= w
        total += _twice_upper(d, i1 - i0)
    return total / p_const if over_p and p_const is not None else total


def gagliardo_modular(u: GridFunction, W: KernelWeights, variant: str = "rn") -> float:
    """Double-integral modular of u; 'rn' includes tails, 'omega' drops tails
    and the exterior-exterior pairs."""
    rho = _pair_sum(u.values, W, variant)
    if variant == "rn":
        rho += 2.0 * W.mesh.cell_width * float(np.sum(W.tail * np.abs(u.values) ** W.p_bar))
    return rho


def gagliardo_seminorm(u: GridFunction, W: KernelWeights, variant: str = "rn") -> float:
    """inf{lam > 0 : rho(u/lam) <= 1}, with u scaled by its sup.

    A constant exponent p gives the closed form rho^(1/p).  A varying one
    goes by Newton's method on log lam (``lebesgue._luxemburg_root``): the
    logs log 2 w_ij + p_ij log|u_i-u_j| of the pairs, each once and without
    the ties d = 0, and for 'rn' those of the tails are formed once into one
    flat buffer, and each Newton step is one exp pass over it.
    """
    if variant not in ("rn", "omega"):
        raise ValueError(f"unknown modular variant {variant!r}")
    vmax = float(np.abs(u.values).max())
    if vmax == 0.0:
        return 0.0
    vals = u.values / vmax
    p_const = W.p_const
    if p_const is not None:
        return vmax * gagliardo_modular(GridFunction(W.mesh, vals), W, variant) ** (1.0 / p_const)

    def terms():
        """|d|, p and w of each kept term, block by block, then the tails."""
        for i0, i1, w, p, (d,), _ in _pair_blocks(W, variant, [vals], 0):
            keep = d != 0.0
            keep[:, :i1 - i0][np.tri(i1 - i0, dtype=bool)] = False
            yield np.abs(d[keep]), p[keep], w[keep]
        if variant == "rn":
            keep = vals != 0.0
            yield np.abs(vals[keep]), W.p_bar[keep], W.mesh.cell_width * W.tail[keep]

    n = W.mesh.n_cells
    m = int(np.count_nonzero(W.mesh.interior_mask)) if variant == "omega" else n
    logs, q = np.empty((2, m * n - m * (m + 1) // 2 + n))  # each pair once, n tails
    size = 0
    with np.errstate(divide="ignore"):  # a zero weight or tail gives a harmless -inf
        for d, p, w in terms():
            seg, q[size:size + d.size] = logs[size:size + d.size], p
            np.log(d, out=seg)
            seg *= p
            seg += np.log(2.0 * w)
            size += d.size
    return vmax * _luxemburg_root(logs[:size], q[:size])


def full_norm(u: GridFunction, W: KernelWeights, q: ScalarExponent) -> float:
    """'omega' seminorm plus Luxemburg norm over the interior region."""
    return gagliardo_seminorm(u, W, "omega") + luxemburg_norm(u, q, u.mesh.interior_mask)


def apply_operator(u: GridFunction, W: KernelWeights) -> np.ndarray:
    """Cell-averaged principal-value operator.

    (operator u)_i = (1/dx) sum_{j != i} w_ij |u_i-u_j|^{p_ij-2}(u_i-u_j)
                     + tail_i |u_i|^{pbar_i-2} u_i,

    with each flux |d|^p / d (0 at d = 0) formed once per pair in the 'rn'
    blocks, at every exponent: row sums minus the antisymmetric column
    sums.  The self-cell term vanishes identically for piecewise
    constants, the discrete principal-value cancellation.
    """
    vals = u.values
    out, ones = np.zeros(vals.size), np.ones(vals.size)
    for i0, i1, w, p, (d,), (t,) in _pair_blocks(W, "rn", [vals], 1):
        np.divide(np.power(np.abs(d, out=t), p, out=t), d, out=d, where=d != 0.0)
        d *= w
        out[i0:i1] += d @ ones[i0:]
        out[i1:] -= ones[i0:i1] @ d[:, i1 - i0:]
    tail_flux = np.divide(np.abs(vals) ** W.p_bar, vals, out=np.zeros(vals.size), where=vals != 0.0)
    return out / W.mesh.cell_width + W.tail * tail_flux


def weak_form(u: GridFunction, phi: GridFunction, W: KernelWeights) -> float:
    """<L(u), phi> including the exterior tail pairing.

    Its own formula sign(d) |d|^{p-1}, at every exponent, in its own pass,
    apart from the operator's |d|^p / d: the independent side of the
    identity <L(u), phi> = 2 dx sum phi (operator u).
    """
    p_const = W.p_const
    total = 0.0
    for i0, i1, w, p, (du, dphi), (t, e) in _pair_blocks(W, "rn", [u.values, phi.values], 2):
        pm1 = np.subtract(p, 1.0, out=e) if p_const is None else p_const - 1.0
        np.power(np.abs(du, out=t), pm1, out=t)
        np.multiply(np.sign(du, out=du), t, out=du)
        du *= dphi
        du *= w
        total += _twice_upper(du, i1 - i0)
    vals = u.values
    tail_flux = np.sign(vals) * np.abs(vals) ** (W.p_bar - 1.0)
    return total + 2.0 * W.mesh.cell_width * float(np.sum(W.tail * tail_flux * phi.values))
