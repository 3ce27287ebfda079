"""Shared construction helpers for the test suite."""

import math

import numpy as np

from fpxlap import ExponentField, GridFunction, KernelWeights, ScalarExponent


def const_pair(value, s):
    return ExponentField(
        evaluator=lambda x, y, v=value: v + 0.0 * (np.asarray(x) + np.asarray(y)),
        p_minus=value, p_plus=value, s=s,
    )


def bump_pair(base, amp, s, width=1.0):
    return ExponentField(
        evaluator=lambda x, y: base + amp * np.exp(-(((np.asarray(x) - np.asarray(y)) / width) ** 2)),
        p_minus=base, p_plus=base + amp, s=s,
    )


def const_scalar(value):
    return ScalarExponent(
        evaluator=lambda x, v=value: v + 0.0 * np.asarray(x), lower=value, upper=value
    )


def affine_scalar(base, slope, R):
    return ScalarExponent(
        evaluator=lambda x: base + slope * np.asarray(x),
        lower=base - abs(slope) * R, upper=base + abs(slope) * R,
    )


def zero_tails(W):
    """The same pair weights with the exterior-of-box tails dropped
    (the R -> infinity limit of the tail terms)."""
    return KernelWeights(W.mesh, W.w, W.p_pair, np.zeros_like(W.tail))


def grid(mesh, values):
    return GridFunction(mesh, np.asarray(values, dtype=float))


def unit_grid(mesh):
    return GridFunction(mesh, np.ones(mesh.n_cells))


def random_w0(rng, mesh, scale=1.0):
    """Random zero-exterior grid function."""
    vals = np.where(mesh.interior_mask, scale * rng.standard_normal(mesh.n_cells), 0.0)
    return GridFunction(mesh, vals)


def reference_weights(mesh, p):
    """The full-matrix four-phi assembly: every n x n pair at once, with no
    blocks and no mirror; the oracle for ``assemble_weights``."""
    centers = mesh.cell_centers
    p_pair = p.pair_matrix(centers)
    alpha = 1.0 + p.s * p_pair

    def phi(t):
        return np.abs(t) ** (2.0 - alpha) / ((1.0 - alpha) * (2.0 - alpha))

    edges = -mesh.R + mesh.cell_width * np.arange(mesh.n_cells + 1)
    left, right = edges[:-1], edges[1:]
    a_far = phi(right[:, None] - left[None, :]) + phi(left[:, None] - right[None, :])
    a_near = phi(right[:, None] - right[None, :]) + phi(left[:, None] - left[None, :])
    w = a_far - a_near
    np.fill_diagonal(w, 0.0)
    w = np.maximum(w, 0.0)
    spbar = p.s * p.trace_values(centers)
    tail = ((centers + mesh.R) ** (-spbar) + (mesh.R - centers) ** (-spbar)) / spbar
    return KernelWeights(mesh, w, p_pair, tail)


# The dense n x n references of the sobolev layer and the Poisson energy: every
# ordered pair at once (so each unordered pair twice), with no blocks.  Each
# takes absolute=True to sum the absolute values of its terms instead, the
# scale of their rounding error.


def dense_pairs(W, variant="rn"):
    """The ordered pairs a variant counts: all for 'rn', those with a cell in
    Omega for 'omega'."""
    inner = W.mesh.interior_mask
    if variant == "rn":
        return np.ones((inner.size, inner.size), dtype=bool)
    return inner[:, None] | inner[None, :]


def _total(terms, absolute):
    return float(sum(np.sum(np.abs(t) if absolute else t) for t in terms))


def _dense_flux(d, p):
    """|d|^p / d, 0 at d = 0."""
    power = np.abs(d) ** p
    return np.divide(power, d, out=np.zeros_like(power), where=d != 0.0)


def dense_modular_terms(u, W, variant="rn"):
    """The terms of rho(u): w |u_i-u_j|^p over the variant's pairs and, for
    'rn', the tails 2 dx tail |u|^pbar."""
    vals = u.values
    pair = np.where(dense_pairs(W, variant), W.w * np.abs(vals[:, None] - vals[None, :]) ** W.p_pair, 0.0)
    tail = 2.0 * W.mesh.cell_width * W.tail * np.abs(vals) ** W.p_bar
    exps = np.broadcast_to(W.p_pair, pair.shape)
    if variant == "omega":
        return pair.ravel(), exps.ravel()
    return np.concatenate([pair.ravel(), tail]), np.concatenate([exps.ravel(), W.p_bar])


def dense_modular(u, W, variant="rn"):
    return float(dense_modular_terms(u, W, variant)[0].sum())


def dense_seminorm(u, W, variant="rn"):
    """inf{lam : rho(u / lam) <= 1} by bisection in t = log lam on the dense
    terms, rho(u / e^t) = sum c e^(-q t), from the bracket
    [log rho / p+, log rho / p-] (sorted) to a width of 1e-15."""
    c, q = dense_modular_terms(u, W, variant)
    rho = float(c.sum())
    if rho == 0.0:
        return 0.0
    lo, hi = sorted((math.log(rho) / W.p_plus, math.log(rho) / W.p_minus))
    while hi - lo > 1e-15 * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if float(np.sum(c * np.exp(-q * mid))) > 1.0:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def dense_operator(u, W, absolute=False):
    """(1/dx) sum_j w_ij |d|^{p-2} d + tail_i |u_i|^{pbar-2} u_i per cell."""
    vals = u.values
    pair = W.w * _dense_flux(vals[:, None] - vals[None, :], W.p_pair)
    tail = W.tail * _dense_flux(vals, W.p_bar)
    if absolute:
        pair, tail = np.abs(pair), np.abs(tail)
    return pair.sum(axis=1) / W.mesh.cell_width + tail


def dense_weak_form(u, phi, W, absolute=False):
    """sum over ordered pairs of w sign(d)|d|^{p-1} (phi_i - phi_j), plus
    2 dx sum tail sign(u)|u|^{pbar-1} phi."""
    du, vals = u.values[:, None] - u.values[None, :], u.values
    pair = W.w * np.sign(du) * np.abs(du) ** (W.p_pair - 1.0) * (phi.values[:, None] - phi.values[None, :])
    tail = 2.0 * W.mesh.cell_width * W.tail * np.sign(vals) * np.abs(vals) ** (W.p_bar - 1.0) * phi.values
    return _total((pair, tail), absolute)


def dense_energy(u, prob, absolute=False):
    """sum w |d|^p / p over the ordered pairs with a cell in Omega, plus
    2 dx sum_Omega tail |u|^pbar / pbar, minus dx sum_Omega h u."""
    W, vals, inner = prob.weights, u.values, prob.mesh.interior_mask
    dx = prob.mesh.cell_width
    pair = np.where(dense_pairs(W, "omega"), W.w * np.abs(vals[:, None] - vals[None, :]) ** W.p_pair / W.p_pair, 0.0)
    tail = 2.0 * dx * W.tail[inner] * np.abs(vals[inner]) ** W.p_bar[inner] / W.p_bar[inner]
    return _total((pair, tail, -dx * prob.h.values[inner] * vals[inner]), absolute)
