import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from fpxlap import (
    ExponentError, ExponentField, KernelError, MeshError, assemble_weights, build_mesh, mesh_kernel,
    restrict_interior,
)
from fpxlap.catalog import pair_exponent

from util import bump_pair, const_pair, reference_weights

CATALOG_KINDS = [
    ("constant", {"value": 1.5}),
    ("constant", {"value": 2.0}),
    ("constant", {"value": 3.0}),
    ("gauss_bump", {"base": 2.0, "amplitude": 0.5, "width": 1.0}),
    ("affine", {"base": 2.0, "slope": 0.1}),
    ("radial", {"base": 1.8, "slope": 0.05}),
]


class TestBuildMesh:
    def test_basic_partition(self):
        mesh = build_mesh(2.0, 8, [(-1.0, 1.0)])
        assert mesh.cell_width == pytest.approx(0.5)
        assert np.allclose(mesh.cell_centers,
                           [-1.75, -1.25, -0.75, -0.25, 0.25, 0.75, 1.25, 1.75])
        assert list(mesh.interior_mask) == [False, False, True, True, True, True, False, False]
        assert mesh.n_cells * mesh.cell_width == pytest.approx(2 * mesh.R, abs=1e-12)

    def test_missing_collar_rejected(self):
        with pytest.raises(MeshError):
            build_mesh(1.0, 4, [(-1.0, 1.0)])

    def test_union_of_intervals(self):
        mesh = build_mesh(2.0, 8, [(-1.0, 0.0), (0.5, 1.0)])
        inside = mesh.cell_centers[mesh.interior_mask]
        assert np.allclose(inside, [-0.75, -0.25, 0.75])

    def test_rejects_bad_inputs(self):
        with pytest.raises(MeshError):
            build_mesh(-1.0, 8, [(-0.5, 0.5)])
        with pytest.raises(MeshError):
            build_mesh(2.0, 3, [(-0.5, 0.5)])
        with pytest.raises(MeshError):
            build_mesh(2.0, 8, [])
        with pytest.raises(MeshError):
            build_mesh(2.0, 8, [(0.5, 0.5)])
        with pytest.raises(MeshError):
            build_mesh(2.0, 8, [(-1.0, 0.5), (0.0, 1.0)])


class TestWeights:
    def test_disjoint_pair_closed_form(self):
        # cells [0,1] and [2,3] with kernel |x-y|^{-1.5}
        mesh = build_mesh(2.0, 4, [(-1.0, 1.0)])  # width-1 cells at -1.5,-0.5,0.5,1.5
        p = const_pair(2.0, 0.25)  # s*p = 0.5 so the exponent is 1.5
        W = assemble_weights(mesh, p)
        expected = 8 * np.sqrt(2.0) - 4.0 - 4 * np.sqrt(3.0)
        # cells 0 and 2 are separated by exactly one cell, like [0,1] vs [2,3]
        assert W.w[0, 2] == pytest.approx(expected, rel=1e-13)
        oracle, _ = dblquad(lambda y, x: abs(x - y) ** -1.5, 0.0, 1.0, 2.0, 3.0,
                            epsabs=1e-12, epsrel=1e-12)
        assert W.w[0, 2] == pytest.approx(oracle, rel=1e-10)

    def test_adjacent_pair_quadrature_oracle(self):
        mesh = build_mesh(2.0, 8, [(-1.0, 1.0)])
        p = const_pair(2.2, 0.35)  # alpha = 1.77, improper but integrable
        W = assemble_weights(mesh, p)
        a1, a2 = -2.0, -1.5
        b1, b2 = -1.5, -1.0
        oracle, _ = dblquad(lambda y, x: abs(x - y) ** -1.77, a1, a2, b1, b2,
                            epsabs=1e-11, epsrel=1e-11)
        assert W.w[0, 1] == pytest.approx(oracle, rel=1e-8)

    def test_diagonal_and_symmetry(self, mesh64, rng):
        p = ExponentField(
            evaluator=lambda x, y: 2.0 + 0.3 * np.exp(-(np.asarray(x) - np.asarray(y)) ** 2),
            p_minus=2.0, p_plus=2.3, s=0.3,
        )
        W = assemble_weights(mesh64, p)
        assert np.all(np.diagonal(W.w) == 0.0)
        assert np.array_equal(W.w, W.w.T)
        assert W.w.min() >= 0.0

    def test_translation_invariance_constant_exponent(self, mesh64):
        W = assemble_weights(mesh64, const_pair(2.0, 0.3))
        for k in (1, 3, 10):
            band = np.diagonal(W.w, offset=k)
            assert np.allclose(band, band[0], rtol=1e-12)

    def test_refinement_consistency(self):
        coarse = build_mesh(2.0, 8, [(-1.0, 1.0)])
        fine = build_mesh(2.0, 16, [(-1.0, 1.0)])
        p = const_pair(2.0, 0.3)
        Wc = assemble_weights(coarse, p)
        Wf = assemble_weights(fine, p)
        for I in range(8):
            for J in range(8):
                if I == J:
                    continue
                total = Wf.w[2 * I:2 * I + 2, 2 * J:2 * J + 2].sum()
                assert total == pytest.approx(Wc.w[I, J], rel=1e-8)

    def test_non_integrable_adjacency(self, mesh16):
        with pytest.raises(KernelError):
            assemble_weights(mesh16, const_pair(2.0, 0.5))  # s*p = 1

    @given(n=st.sampled_from([8, 12, 20]), base=st.floats(1.6, 2.6), s=st.floats(0.05, 0.3))
    @settings(max_examples=25, deadline=None)
    def test_random_configs_symmetric_nonnegative(self, n, base, s):
        mesh = build_mesh(1.5, n, [(-0.5, 0.75)])
        p = ExponentField(
            evaluator=lambda x, y: base + 0.2 * np.abs(np.asarray(x) - np.asarray(y)),
            p_minus=base, p_plus=base + 0.2 * 3.0, s=s,
        )
        W = assemble_weights(mesh, p)
        assert np.array_equal(W.w, W.w.T)
        assert W.w.min() >= 0.0 and np.all(np.diagonal(W.w) == 0.0)


def _assert_matches_reference(mesh, p):
    W, ref = assemble_weights(mesh, p), reference_weights(mesh, p)
    assert np.array_equal(W.w, ref.w)
    assert np.array_equal(W.p_pair, ref.p_pair)
    assert np.array_equal(W.tail, ref.tail)


class TestBlockAssembly:
    """The row-block, mirrored assembly against the full-matrix formula."""

    # n = 333 spans two blocks of the default size
    @pytest.mark.parametrize("n", [16, 96, 128, 192, 333])
    @pytest.mark.parametrize("kind,params", CATALOG_KINDS)
    def test_bit_identical_to_full_matrix_formula(self, n, kind, params):
        mesh = build_mesh(2.0, n, [(-1.0, 1.0)])
        _assert_matches_reference(mesh, pair_exponent(kind, params, s=0.3, R=2.0))

    @pytest.mark.parametrize("block_pairs", [50, 1000])
    @pytest.mark.parametrize("kind,params", CATALOG_KINDS)
    def test_bit_identical_with_small_blocks(self, monkeypatch, block_pairs, kind, params):
        # one row per block (50 pairs), then blocks of a few rows each
        monkeypatch.setattr(mesh_kernel, "_BLOCK_PAIRS", block_pairs)
        mesh = build_mesh(2.0, 96, [(-1.0, 1.0)])
        _assert_matches_reference(mesh, pair_exponent(kind, params, s=0.3, R=2.0))

    @pytest.mark.parametrize("block_pairs", [50, 1000, 1 << 16])
    def test_nearly_symmetric_exponent_gives_symmetric_weights(self, monkeypatch, block_pairs):
        # p(x, y) - p(y, x) = 1e-13 (x - y): inside the validation's symmetry
        # tolerance, but the lower triangle must still be the upper's mirror
        monkeypatch.setattr(mesh_kernel, "_BLOCK_PAIRS", block_pairs)
        mesh = build_mesh(2.0, 96, [(-1.0, 1.0)])
        p = ExponentField(
            evaluator=lambda x, y: 2.0 + 0.3 * np.exp(-(np.asarray(x) - np.asarray(y)) ** 2)
            + 1e-13 * np.asarray(x),
            p_minus=2.0 - 1e-12, p_plus=2.3 + 1e-12, s=0.3,
        )
        assert not np.array_equal(p.pair_matrix(mesh.cell_centers), p.pair_matrix(mesh.cell_centers).T)
        W = assemble_weights(mesh, p)
        assert np.array_equal(W.w, W.w.T)
        upper = np.triu_indices(96, 1)
        assert np.array_equal(W.w[upper], reference_weights(mesh, p).w[upper])

    @pytest.mark.parametrize("block_pairs", [None, 50, 1000])
    @pytest.mark.parametrize("n", [16, 96, 333])
    def test_bit_identical_at_exponent_one_half(self, monkeypatch, n, block_pairs):
        # s p = 0.5, so 2 - alpha = 0.5, where numpy's power of a zero-stride
        # exponent takes sqrt, which rounds unlike the reference's full matrix
        if block_pairs is not None:
            monkeypatch.setattr(mesh_kernel, "_BLOCK_PAIRS", block_pairs)
        _assert_matches_reference(build_mesh(2.0, n, [(-1.0, 1.0)]), const_pair(2.5, 0.2))

    @pytest.mark.parametrize("block_pairs", [50, 1000, 1 << 15])
    def test_varying_branch_matches_constant_branch(self, monkeypatch, block_pairs):
        # a constant evaluator declared varying takes the four-phi branch
        monkeypatch.setattr(mesh_kernel, "_BLOCK_PAIRS", block_pairs)
        mesh = build_mesh(2.0, 96, [(-1.0, 1.0)])
        declared = ExponentField(const_pair(2.5, 0.3).evaluator, p_minus=2.4, p_plus=2.6, s=0.3)
        W, ref = assemble_weights(mesh, declared), assemble_weights(mesh, const_pair(2.5, 0.3))
        assert W.p_pair.strides != (0, 0) and ref.p_pair.strides == (0, 0)
        assert np.array_equal(W.w, ref.w) and np.array_equal(W.tail, ref.tail)

    def test_constant_exponent_is_one_read_only_value(self, mesh64):
        W = assemble_weights(mesh64, const_pair(2.5, 0.3))
        assert W.p_pair.shape == (64, 64) and W.p_pair.strides == (0, 0)
        assert np.all(W.p_pair == 2.5) and np.all(W.p_bar == 2.5)
        with pytest.raises(ValueError):
            W.p_pair[0, 1] = 2.0

    def test_declared_constant_exponent_is_never_sampled_on_pairs(self, mesh64):
        def cells_only(x, y):
            if np.ndim(x) > 1 or np.ndim(y) > 1:
                raise ValueError("sampled on cell pairs")
            return 2.5 + 0.0 * (np.asarray(x) + np.asarray(y))

        W = assemble_weights(mesh64, ExponentField(cells_only, p_minus=2.5, p_plus=2.5, s=0.3))
        ref = assemble_weights(mesh64, const_pair(2.5, 0.3))
        assert W.p_pair.strides == (0, 0)
        assert np.array_equal(W.w, ref.w) and np.array_equal(W.tail, ref.tail)

    def test_declared_constant_exponent_with_varying_trace_is_rejected(self, mesh64):
        p = ExponentField(
            evaluator=lambda x, y: 2.5 + 0.1 * np.asarray(x) + 0.0 * np.asarray(y),
            p_minus=2.5, p_plus=2.5, s=0.3,
        )
        with pytest.raises(ExponentError, match="declared constant"):
            assemble_weights(mesh64, p)

    def test_variable_exponent_is_dense(self, mesh64):
        W = assemble_weights(mesh64, bump_pair(2.0, 0.5, s=0.3))
        assert W.p_pair.flags.c_contiguous and W.p_pair.flags.writeable

    @pytest.mark.parametrize("kind,params", CATALOG_KINDS[3:5])
    def test_peak_memory_at_most_three_and_a_half_arrays(self, kind, params):
        n = 1024
        mesh = build_mesh(2.0, n, [(-1.0, 1.0)])
        p = pair_exponent(kind, params, s=0.3, R=2.0)
        tracemalloc.start()
        try:
            assemble_weights(mesh, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 8 * n * n

    def test_adjacent_weights_equal_closed_form(self):
        # adjacent cells of width h: phi(0) + phi(2h) - 2 phi(h) with phi(0) = 0
        mesh = build_mesh(2.0, 96, [(-1.0, 1.0)])
        p = const_pair(2.0, 0.4)
        alpha = 1.0 + 0.4 * 2.0
        h = mesh.cell_width
        phi = lambda t: t ** (2.0 - alpha) / ((1.0 - alpha) * (2.0 - alpha))
        adjacent = np.diagonal(assemble_weights(mesh, p).w, 1)
        np.testing.assert_allclose(adjacent, phi(2.0 * h) - 2.0 * phi(h), rtol=1e-12, atol=0.0)


def _exterior_integral(x, a, R):
    """int_{|y|>R} |x-y|^(-(1+a)) dy by adaptive quadrature, one side at a time."""
    right, _ = quad(lambda y: (y - x) ** (-1.0 - a), R, np.inf, epsabs=0.0, epsrel=1e-13)
    left, _ = quad(lambda y: (x - y) ** (-1.0 - a), -np.inf, -R, epsabs=0.0, epsrel=1e-13)
    return left + right


class TestTail:
    def test_center_cell_unit_case(self):
        # a center at 0 sees 2 R^(-s pbar) / (s pbar), which is 1 at this R
        spbar = 0.8
        R = (2.0 / spbar) ** (1.0 / spbar)
        mesh = build_mesh(R, 5, [(-1.0, 1.0)])
        i = 2
        assert mesh.cell_centers[i] == pytest.approx(0.0)
        W = assemble_weights(mesh, const_pair(2.0, 0.4))
        assert W.tail[i] == pytest.approx(1.0, rel=1e-14)

    def test_off_center_quadrature_oracle(self):
        # x_i = 1, R = 2, s*pbar = 0.8: closed form (3^-0.8 + 1)/0.8
        mesh = build_mesh(2.0, 10, [(-1.25, 1.25)])
        i = int(np.argmin(np.abs(mesh.cell_centers - 1.0)))
        assert mesh.cell_centers[i] == pytest.approx(1.0)
        val = assemble_weights(mesh, const_pair(2.0, 0.4)).tail[i]
        assert val == pytest.approx((3.0 ** -0.8 + 1.0) / 0.8, rel=1e-13)
        assert val == pytest.approx(_exterior_integral(1.0, 0.8, 2.0), rel=1e-10)
        assert val == pytest.approx(1.7690545581731932, rel=1e-12)

    def test_monotone_decreasing_in_R(self):
        p = const_pair(2.0, 0.4)
        tails = []
        for R in (2.0, 4.0, 8.0, 16.0, 64.0, 256.0):
            mesh = build_mesh(R, 2 * int(R) + 1, [(-1.0, 1.0)])
            i = int(np.argmin(np.abs(mesh.cell_centers)))
            tails.append(assemble_weights(mesh, p).tail[i])
        assert all(a > b for a, b in zip(tails, tails[1:]))
        assert tails[-1] < 0.03  # 2 R^{-0.8} / 0.8 vanishes as the box grows

    def test_assembled_tail_matches_pointwise(self, mesh64):
        # the tail exponent is s pbar(x_i), frozen on the diagonal
        for p in (const_pair(2.0, 0.4), bump_pair(1.6, 0.8, s=0.35)):
            W = assemble_weights(mesh64, p)
            for i in (0, 10, 32, 63):
                x = mesh64.cell_centers[i]
                a = p.s * float(p.evaluator(x, x))
                assert W.tail[i] == pytest.approx(_exterior_integral(x, a, mesh64.R), rel=1e-10)


# each mesh and interior set the builders reject: (call, fragment of the
# MeshError message); the centers of build_mesh(2, 4, .) are -1.5, -0.5, 0.5, 1.5
REJECTIONS = {
    "box_infinite": (lambda: build_mesh(np.inf, 8, [(-1.0, 1.0)]),
                     "box half-width R=inf must be positive and finite"),
    "box_nan": (lambda: build_mesh(np.nan, 8, [(-1.0, 1.0)]),
                "box half-width R=nan must be positive and finite"),
    "cells_fractional": (lambda: build_mesh(2.0, 8.0, [(-1.0, 1.0)]),
                         "n_cells=8.0 must be an integer of at least 4"),
    "cells_too_few": (lambda: build_mesh(2.0, 3, [(-1.0, 1.0)]),
                      "n_cells=3 must be an integer of at least 4"),
    "omega_between_centers": (lambda: build_mesh(2.0, 4, [(0.6, 1.4)]),
                              "omega captures no cell centers; refine the mesh"),
    "no_exterior_cell": (lambda: build_mesh(1.0, 4, [(-0.9, 0.9)]),
                         "no exterior cells inside the box; enlarge R"),
    "restricted_shape": (lambda: restrict_interior(build_mesh(2.0, 4, [(-1.0, 1.0)]),
                                                   np.ones(3, dtype=bool)),
                         "interior mask shape mismatch"),
    "restricted_everything": (lambda: restrict_interior(build_mesh(2.0, 4, [(-1.0, 1.0)]),
                                                        np.ones(4, dtype=bool)),
                              "restricted interior must be a proper nonempty subset"),
    "restricted_nothing": (lambda: restrict_interior(build_mesh(2.0, 4, [(-1.0, 1.0)]),
                                                     np.zeros(4, dtype=bool)),
                           "restricted interior must be a proper nonempty subset"),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_rejections(case):
    call, fragment = REJECTIONS[case]
    with pytest.raises(MeshError) as excinfo:
        call()
    assert excinfo.type is MeshError and fragment in str(excinfo.value)
