import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from fpxlap import (BisectionError, GridFunction, ScalarExponent, build_mesh,
                    holder_pairing_check, luxemburg_norm, modular,
                    norm_modular_relation_check, norm_of_one_bounds, power_norm_bounds_check)
from fpxlap import lebesgue as lebesgue_module
from fpxlap.lebesgue import pairing, region_measure

from util import affine_scalar, const_scalar, grid, unit_grid


@pytest.fixture
def unit_omega_mesh():
    # box [-2,2], 256 cells, Omega = (0,1) resolved exactly by the grid
    return build_mesh(2.0, 256, [(0.0, 1.0)])


class TestModular:
    def test_zero(self, unit_omega_mesh):
        u = GridFunction.zeros(unit_omega_mesh)
        assert modular(u, const_scalar(2.0)) == 0.0

    def test_unit_constant(self, unit_omega_mesh):
        assert modular(unit_grid(unit_omega_mesh), const_scalar(2.0)) == pytest.approx(1.0)

    def test_midpoint_quadrature_error(self, unit_omega_mesh):
        u = GridFunction.from_callable(unit_omega_mesh, lambda x: x)
        rho = modular(u, const_scalar(2.0))
        width = unit_omega_mesh.cell_width
        assert abs(rho - 1.0 / 3.0) <= width ** 2 / 10.0

    def test_zero_iff_vanishes_on_region(self, unit_omega_mesh):
        vals = np.zeros(unit_omega_mesh.n_cells)
        vals[~unit_omega_mesh.interior_mask] = 3.0  # exterior values invisible
        assert modular(grid(unit_omega_mesh, vals), const_scalar(2.0)) == 0.0


def _brentq_norm(u, q):
    """Independent oracle: scalar root of the same discrete modular."""
    return brentq(lambda lam: modular(u.replace_values(u.values / lam), q) - 1.0,
                  0.5, 5.0, xtol=1e-13)


class TestLuxemburgNorm:
    def test_constant_closed_form(self):
        # ||c||_{q0} = c * m^(1/q0) on a region of measure m
        mesh = build_mesh(2.0, 256, [(0.0, 1.0)])
        u = grid(mesh, np.full(mesh.n_cells, 2.0))
        assert luxemburg_norm(u, const_scalar(2.0)) == pytest.approx(2.0, rel=1e-10)
        mesh4 = build_mesh(4.0, 256, [(-2.0, 2.0)])
        u4 = grid(mesh4, np.full(mesh4.n_cells, 3.0))
        # measure 4, q = 3: 3 * 4^(1/3)
        assert luxemburg_norm(u4, const_scalar(3.0)) == pytest.approx(3.0 * 4.0 ** (1 / 3), rel=1e-10)

    def test_zero_function(self, unit_omega_mesh):
        assert luxemburg_norm(GridFunction.zeros(unit_omega_mesh), const_scalar(2.0)) == 0.0

    def test_variable_exponent_against_root_finder(self):
        # u = 1+x, q = 2+x on (0,1); independent oracle: scalar root of the
        # same discrete modular via brentq, plus the continuum root by
        # adaptive quadrature
        mesh = build_mesh(2.0, 4096, [(0.0, 1.0)])
        u = GridFunction.from_callable(mesh, lambda x: 1.0 + x)
        q = affine_scalar(2.0, 1.0, R=2.0)
        lam = luxemburg_norm(u, q)
        assert lam == pytest.approx(_brentq_norm(u, q), abs=1e-8)

        lam_continuum = brentq(
            lambda lam: quad(lambda x: ((1 + x) / lam) ** (2 + x), 0, 1, epsabs=1e-13)[0] - 1.0,
            0.5, 5.0, xtol=1e-13,
        )
        assert lam_continuum == pytest.approx(1.5720306675895064, abs=1e-12)
        assert lam == pytest.approx(lam_continuum, abs=5e-7)  # midpoint-rule gap

    @pytest.mark.parametrize("slope", (0.01, 8.99))
    def test_wide_and_narrow_exponent_ranges_against_brentq(self, slope):
        # q = 1.01 + slope |x| spans [1.01, 1.02] or [1.01, 10] on (0, 1)
        mesh = build_mesh(2.0, 4096, [(0.0, 1.0)])
        u = GridFunction.from_callable(mesh, lambda x: 1.0 + x)
        q = ScalarExponent(evaluator=lambda x: 1.01 + slope * np.abs(x),
                           lower=1.01, upper=1.01 + 2.0 * slope)
        assert luxemburg_norm(u, q) == pytest.approx(_brentq_norm(u, q), rel=1e-12)

    @pytest.mark.parametrize("q", (1.01, 2.5, 10.0))
    def test_constant_exponent_is_modular_root(self, q, mesh256, rng):
        for _ in range(10):
            u = grid(mesh256, rng.standard_normal(mesh256.n_cells) * 10.0 ** rng.uniform(-3, 3))
            rho = modular(u, const_scalar(q))
            assert luxemburg_norm(u, const_scalar(q)) == pytest.approx(rho ** (1.0 / q), rel=1e-15)

    def test_step_budget_exhaustion_raises(self, mesh256, rng, monkeypatch):
        monkeypatch.setattr(lebesgue_module, "_NEWTON_MAX_STEPS", 1)
        u = grid(mesh256, rng.standard_normal(mesh256.n_cells))
        with pytest.raises(BisectionError):
            luxemburg_norm(u, affine_scalar(2.0, 0.3, R=2.0))
        # a constant exponent takes the closed form without a Newton step
        assert luxemburg_norm(u, const_scalar(2.0)) > 0.0

    @pytest.mark.parametrize("field", ("normal", "wide", "spike_high", "spike_low"))
    def test_unit_ball_certificate(self, field, mesh256, rng):
        n = mesh256.n_cells
        for _ in range(50):
            if field == "normal":
                vals = rng.standard_normal(n) * rng.uniform(0.1, 10)
                q = affine_scalar(rng.uniform(1.6, 3.2), rng.uniform(-0.1, 0.1), R=2.0)
            else:
                q = affine_scalar(5.505, 4.495, R=2.0)  # spans [1.01, 10] on Omega
                if field == "wide":
                    vals = rng.standard_normal(n) * 10.0 ** rng.uniform(-150, 150, n)
                else:
                    vals = np.zeros(n)
                    vals[rng.choice(mesh256.interior_indices)] = 1e200 if field == "spike_high" else 1e-200
            u = grid(mesh256, vals)
            nrm = luxemburg_norm(u, q)
            assert abs(modular(u.replace_values(u.values / nrm), q) - 1.0) <= 1e-12

    @given(t=st.floats(-50.0, 50.0), scale=st.floats(0.01, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, t, scale):
        mesh = build_mesh(2.0, 32, [(-1.0, 1.0)])
        gen = np.random.default_rng(7)
        u = grid(mesh, scale * gen.standard_normal(mesh.n_cells))
        q = affine_scalar(2.0, 0.3, R=2.0)
        n1 = luxemburg_norm(u.replace_values(t * u.values), q)
        n0 = luxemburg_norm(u, q)
        assert n1 == pytest.approx(abs(t) * n0, rel=1e-9, abs=1e-12)

    def test_triangle_inequality(self, mesh64, rng):
        q = affine_scalar(2.2, 0.25, R=2.0)
        for _ in range(500):
            u = grid(mesh64, rng.standard_normal(mesh64.n_cells) * rng.uniform(0.01, 100))
            v = grid(mesh64, rng.standard_normal(mesh64.n_cells) * rng.uniform(0.01, 100))
            lhs = luxemburg_norm(u.replace_values(u.values + v.values), q)
            rhs = luxemburg_norm(u, q) + luxemburg_norm(v, q)
            assert lhs <= rhs + 1e-9 * max(1.0, rhs)


class TestHolder:
    def test_zero_passes(self, mesh64):
        u = GridFunction.zeros(mesh64)
        check = holder_pairing_check(u, unit_grid(mesh64), const_scalar(2.0))
        assert check.passed and check.value == 0.0

    def test_unit_pair(self):
        mesh = build_mesh(2.0, 256, [(0.0, 1.0)])
        one = unit_grid(mesh)
        check = holder_pairing_check(one, one, const_scalar(2.0))
        assert check.passed
        assert check.value == pytest.approx(1.0)
        assert check.bound == pytest.approx(2.0, rel=1e-9)

    def test_random_family(self, mesh64, rng):
        for _ in range(300):
            q = affine_scalar(rng.uniform(1.7, 3.0), rng.uniform(-0.2, 0.2), R=2.0)
            u = grid(mesh64, rng.standard_normal(mesh64.n_cells) * rng.uniform(0.01, 50))
            v = grid(mesh64, rng.standard_normal(mesh64.n_cells) * rng.uniform(0.01, 50))
            assert holder_pairing_check(u, v, q).passed


class TestNormOfOne:
    def test_measure_one_degeneracy(self):
        mesh = build_mesh(2.0, 256, [(0.0, 1.0)])
        gamma = affine_scalar(2.0, 1.0, R=2.0)  # variable, but |Omega| = 1
        check = norm_of_one_bounds(gamma, mesh)
        assert check.passed
        assert check.value == pytest.approx(1.0, rel=1e-9)

    def test_measure_four(self):
        mesh = build_mesh(4.0, 256, [(-2.0, 2.0)])
        check = norm_of_one_bounds(const_scalar(2.0), mesh)
        assert check.passed
        assert check.value == pytest.approx(2.0, rel=1e-9)
        assert check.bound == pytest.approx(2.0, rel=1e-12)

    def test_random_family(self, mesh64, rng):
        for _ in range(200):
            gamma = affine_scalar(rng.uniform(1.6, 3.2), rng.uniform(-0.2, 0.2), R=2.0)
            assert norm_of_one_bounds(gamma, mesh64).passed


class TestPowerNormBounds:
    def test_zero(self, mesh64):
        u = GridFunction.zeros(mesh64)
        check = power_norm_bounds_check(u, const_scalar(2.0), const_scalar(1.5))
        assert check.passed

    def test_beta_one_degenerate(self, mesh64, rng):
        u = grid(mesh64, rng.standard_normal(mesh64.n_cells))
        alpha = const_scalar(2.0)
        beta = const_scalar(1.0)
        check = power_norm_bounds_check(u, alpha, beta)
        assert check.passed
        base = luxemburg_norm(u, alpha, mesh64.interior_mask)
        assert check.value == pytest.approx(base, rel=1e-9)

    def test_random_family(self, mesh64, rng):
        alpha = const_scalar(2.0)
        for _ in range(200):
            beta = affine_scalar(1.5, 0.15, R=2.0)
            u = grid(mesh64, rng.standard_normal(mesh64.n_cells) * rng.uniform(0.05, 20))
            assert power_norm_bounds_check(u, alpha, beta).passed


class TestNormModularRelation:
    def test_unit_norm_gives_unit_modular(self, mesh64, rng):
        q = affine_scalar(2.1, 0.3, R=2.0)
        u = grid(mesh64, rng.standard_normal(mesh64.n_cells))
        nrm = luxemburg_norm(u, q)
        scaled = u.replace_values(u.values / nrm)
        assert modular(scaled, q) == pytest.approx(1.0, abs=1e-8)
        assert norm_modular_relation_check(scaled, q).passed

    def test_constant_exponent_identity(self, mesh64, rng):
        q = const_scalar(2.5)
        u = grid(mesh64, rng.standard_normal(mesh64.n_cells) * 2.0)
        rho = modular(u, q)
        nrm = luxemburg_norm(u, q)
        assert rho == pytest.approx(nrm ** 2.5, rel=1e-9)
        assert norm_modular_relation_check(u, q).passed

    def test_random_family(self, mesh64, rng):
        for _ in range(300):
            q = affine_scalar(rng.uniform(1.7, 3.2), rng.uniform(-0.15, 0.15), R=2.0)
            u = grid(mesh64, rng.standard_normal(mesh64.n_cells) * rng.uniform(1e-2, 1e2))
            assert norm_modular_relation_check(u, q).passed


class TestInclusion:
    def test_embedding_constant_on_small_domain(self, rng):
        # q1 <= q2 pointwise on |Omega| <= 1 gives ||u||_q1 <= (1+|Omega|) ||u||_q2
        for n in (128, 256):
            mesh = build_mesh(2.0, n, [(0.0, 1.0)])
            q1 = affine_scalar(1.8, 0.1, R=2.0)
            q2 = affine_scalar(2.4, 0.2, R=2.0)
            measure = region_measure(mesh)
            worst = 0.0
            local_rng = np.random.default_rng(11)
            for _ in range(100):
                u = grid(mesh, local_rng.standard_normal(mesh.n_cells) * local_rng.uniform(0.1, 10))
                n2 = luxemburg_norm(u, q2)
                if n2 == 0:
                    continue
                worst = max(worst, luxemburg_norm(u, q1) / n2)
            assert worst <= 1.0 + measure + 1e-9
            if n == 128:
                coarse_worst = worst
        assert abs(worst - coarse_worst) <= 0.2 * coarse_worst

    def test_pairing_is_symmetric_bilinear(self, mesh64, rng):
        u = grid(mesh64, rng.standard_normal(mesh64.n_cells))
        v = grid(mesh64, rng.standard_normal(mesh64.n_cells))
        assert pairing(u, v) == pytest.approx(pairing(v, u), rel=1e-14)
