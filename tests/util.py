"""Shared construction helpers for the test suite."""

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

    half = mesh.cell_width / 2.0
    left, right = centers - half, centers + half
    a_far = phi(right[:, None] - left[None, :]) + phi(left[:, None] - right[None, :])
    a_near = phi(right[:, None] - right[None, :]) + phi(left[:, None] - left[None, :])
    w = a_far - a_near
    np.fill_diagonal(w, 0.0)
    w = np.maximum(w, 0.0)
    spbar = p.s * p.trace_values(centers)
    tail = ((centers + mesh.R) ** (-spbar) + (mesh.R - centers) ** (-spbar)) / spbar
    return KernelWeights(mesh, w, p_pair, tail)
