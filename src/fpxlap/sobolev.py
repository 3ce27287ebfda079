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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import ScalarExponent
from .lebesgue import GridFunction, _luxemburg_root, luxemburg_norm
from .mesh_kernel import KernelWeights, Mesh


@dataclass(frozen=True)
class DirichletPair:
    """Field u agreeing with the exterior datum g outside the interior set."""

    u: GridFunction
    g: GridFunction

    def __post_init__(self):
        ext = self.u.mesh.exterior_mask
        if not np.array_equal(self.u.values[ext], self.g.values[ext]):
            raise ValueError("u must equal g on every exterior cell")

    @classmethod
    def from_interior(cls, mesh: Mesh, interior_values: np.ndarray,
                      g: GridFunction) -> "DirichletPair":
        vals = g.values.copy()
        vals[mesh.interior_mask] = interior_values
        return cls(u=GridFunction(mesh, vals), g=g)


def _uniform(a: np.ndarray) -> float | None:
    """The common value of a constant array, None when it varies; a
    zero-stride array (a broadcast constant exponent) answers without a scan."""
    if not any(a.strides) or a.min() == a.max():
        return float(a.flat[0])
    return None


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, 0 where den = 0: |d|^{p-2} d from |d|^p and d."""
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)


def _pair_powers(vals: np.ndarray, W: KernelWeights, p_const: float | None):
    """The one pair pass of the n x n references: d = u_i - u_j,
    |d|^{p_ij} and the tail powers |u_i|^{pbar_i}; squares when the uniform
    exponent p_const (``_uniform(W.p_pair)``, scanned once by the caller)
    is 2."""
    diff = vals[:, None] - vals[None, :]
    if p_const == 2.0:
        return diff, diff * diff, vals * vals
    return diff, np.abs(diff) ** W.p_pair, np.abs(vals) ** W.p_bar


def _exterior_block(W: KernelWeights, variant: str):
    """Index of the exterior-exterior pairs that the 'omega' variant drops."""
    if variant == "rn":
        return None
    if variant == "omega":
        ext = W.mesh.exterior_mask
        return np.ix_(ext, ext)
    raise ValueError(f"unknown modular variant {variant!r}")


def gagliardo_modular(u: GridFunction, W: KernelWeights, variant: str = "rn") -> float:
    """Double-integral modular of u; 'rn' includes tails, 'omega' drops tails
    and the exterior-exterior pairs."""
    _, power, tail_power = _pair_powers(u.values, W, _uniform(W.p_pair))
    terms = W.w * power
    block = _exterior_block(W, variant)
    if block is not None:
        terms[block] = 0.0
        return float(terms.sum())
    return float(terms.sum()) + 2.0 * W.mesh.cell_width * float(np.sum(W.tail * tail_power))


def gagliardo_seminorm(u: GridFunction, W: KernelWeights, variant: str = "rn") -> float:
    """inf{lam > 0 : rho(u/lam) <= 1} by Newton's method on log lam.

    With u scaled by its sup, the pair terms log w_ij + p_ij log|u_i-u_j|
    are formed once, in place in the difference buffer ('omega' sets the
    exterior-exterior pairs to -inf), and 'rn' adds the n tail terms as a
    second group; each Newton step is one exp pass over them (see
    ``lebesgue._luxemburg_root``, with the tolerance ``_NEWTON_RTOL`` and
    the budget ``_NEWTON_MAX_STEPS`` of ``lebesgue``).  A constant exponent
    gives the closed form rho^(1/p) with no iteration.
    """
    block = _exterior_block(W, variant)
    vmax = float(np.abs(u.values).max())
    if vmax == 0.0:
        return 0.0
    vals = u.values / vmax
    logs = vals[:, None] - vals[None, :]
    with np.errstate(divide="ignore"):
        np.abs(logs, out=logs)
        np.log(logs, out=logs)
        logs *= W.p_pair
        logs += np.log(W.w)
        groups = [(logs, W.p_pair)]
        if block is None:
            tail_logs = np.log(2.0 * W.mesh.cell_width * W.tail) + W.p_bar * np.log(np.abs(vals))
            groups.append((tail_logs, W.p_bar))
        else:
            logs[block] = -np.inf
    return vmax * _luxemburg_root(groups)


def full_norm(u: GridFunction, W: KernelWeights, q: ScalarExponent) -> float:
    """'omega' seminorm plus Luxemburg norm over the interior region."""
    return gagliardo_seminorm(u, W, "omega") + luxemburg_norm(u, q, u.mesh.interior_mask)


def apply_operator(u: GridFunction, W: KernelWeights) -> np.ndarray:
    """Cell-averaged principal-value operator.

    (operator u)_i = (1/dx) sum_{j != i} w_ij |u_i-u_j|^{p_ij-2}(u_i-u_j)
                     + tail_i |u_i|^{pbar_i-2} u_i,

    with each flux taken from the shared pair pass as |d|^p / d (0 at
    d = 0); at uniform p = 2 the fluxes are d and u themselves.  The
    self-cell term vanishes identically for piecewise constants, which is
    the discrete counterpart of the principal-value cancellation.
    """
    vals = u.values
    p_const = _uniform(W.p_pair)
    if p_const == 2.0:
        pair, tail_flux = W.w * (vals[:, None] - vals[None, :]), vals
    else:
        diff, power, tail_power = _pair_powers(vals, W, p_const)
        pair, tail_flux = W.w * _ratio(power, diff), _ratio(tail_power, vals)
    return pair.sum(axis=1) / W.mesh.cell_width + W.tail * tail_flux


def weak_form(u: GridFunction, phi: GridFunction, W: KernelWeights) -> float:
    """<L(u), phi> including the exterior tail pairing.

    Its own pass, sign(d) |d|^{p-1} (d itself at uniform p = 2), apart from
    the shared one: it is the independent side of the identity
    <L(u), phi> = 2 dx sum phi (operator u).
    """
    du = u.values[:, None] - u.values[None, :]
    dphi = phi.values[:, None] - phi.values[None, :]
    if _uniform(W.p_pair) == 2.0:
        flux, tail_flux = du, u.values
    else:
        flux = np.sign(du) * np.abs(du) ** (W.p_pair - 1.0)
        tail_flux = np.sign(u.values) * np.abs(u.values) ** (W.p_bar - 1.0)
    pair = float((W.w * flux * dphi).sum())
    tail = 2.0 * W.mesh.cell_width * float(np.sum(W.tail * tail_flux * phi.values))
    return pair + tail
