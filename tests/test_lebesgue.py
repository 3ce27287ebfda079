import tracemalloc

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
from fpxlap import suites
from fpxlap.lebesgue import pairing

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

    def test_root_of_vanishing_terms_is_zero(self):
        assert lebesgue_module._luxemburg_root(np.full(5, -np.inf), np.full(5, 2.0)) == 0.0
        assert lebesgue_module._luxemburg_root(np.full(3, -np.inf), np.array([1.5, 2.0, 3.0])) == 0.0
        assert lebesgue_module._luxemburg_root(np.empty(0), np.empty(0)) == 0.0

    def test_root_constant_exponent_takes_closed_form(self, rng, monkeypatch):
        # with no Newton step allowed, a constant q still gives exp(log rho / q)
        monkeypatch.setattr(lebesgue_module, "_NEWTON_MAX_STEPS", 0)
        a = np.append(rng.normal(0.0, 3.0, 50), -np.inf)
        rho = float(np.sum(np.exp(a)))
        assert lebesgue_module._luxemburg_root(a, np.full(a.size, 2.5)) == \
            pytest.approx(rho ** (1.0 / 2.5), rel=1e-14)

    def test_root_solves_the_modular_equation(self, rng):
        # sum exp(a - q log lam) = 1 at the root, zero terms included
        a = np.append(rng.normal(0.0, 3.0, 200), [-np.inf, -np.inf])
        q = rng.uniform(1.2, 4.0, a.size)
        lam = lebesgue_module._luxemburg_root(a, q)
        assert float(np.sum(np.exp(a - q * np.log(lam)))) == pytest.approx(1.0, abs=1e-12)

    def test_root_step_budget_raises(self, rng, monkeypatch):
        monkeypatch.setattr(lebesgue_module, "_NEWTON_MAX_STEPS", 1)
        with pytest.raises(BisectionError):
            lebesgue_module._luxemburg_root(rng.normal(0.0, 3.0, 50), rng.uniform(1.2, 4.0, 50))

    def test_batched_root_equals_its_one_row_calls(self, rng):
        # one batch: a row of zero terms, constant rows (one with zero terms)
        # and varying rows of very different scales
        k, n = 9, 200
        a = rng.normal(0.0, 3.0, (k, n)) + rng.uniform(-40.0, 40.0, (k, 1))
        q = rng.uniform(1.05, 8.0, (k, n))
        a[0] = -np.inf
        q[[1, 4]] = [[2.5], [1.3]]
        a[4, ::3] = -np.inf
        a[6, rng.random(n) < 0.5] = -np.inf
        batch = lebesgue_module._luxemburg_rows(a, q)
        assert batch[0] == 0.0 and all(lam > 0.0 for lam in batch[1:])
        assert batch == [lebesgue_module._luxemburg_root(a[i], q[i]) for i in range(k)]

    def test_batched_root_step_budget_raises_for_one_varying_row(self, rng, monkeypatch):
        a = rng.normal(0.0, 3.0, (4, 50))
        q = np.full((4, 50), 2.0)
        a[0] = -np.inf
        q[2] = rng.uniform(1.2, 4.0, 50)
        monkeypatch.setattr(lebesgue_module, "_NEWTON_MAX_STEPS", 1)
        with pytest.raises(BisectionError):
            lebesgue_module._luxemburg_rows(a, q)
        q[2] = 3.0  # no varying row left: zero and closed-form rows take no step
        assert lebesgue_module._luxemburg_rows(a, q)[0] == 0.0

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
            measure = mesh.omega_measure
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


def _one_case(name, mesh, rows):
    """(slack, passed, defect) of one suite case through the public checks,
    built from its rows of exponent and field values at the interior cells."""
    mask = mesh.interior_mask

    def exponent(row):
        # the public checks evaluate an exponent at the interior centers only
        return ScalarExponent(evaluator=lambda x: row, lower=row.min(), upper=row.max())

    def field(row):
        values = np.zeros(mesh.n_cells)
        values[mask] = row
        return grid(mesh, values)

    if name == "norm_modular":
        q, u = exponent(rows[0]), field(rows[1])
        check = norm_modular_relation_check(u, q, tol=suites._NORM_MODULAR_TOL)
        defect = abs(modular(u.replace_values(u.values / check.bound), q) - 1.0)
        return check.slack, check.passed and not defect > suites._NORM_MODULAR_TOL, defect
    if name == "holder":
        check = holder_pairing_check(field(rows[1]), field(rows[2]), exponent(rows[0]))
    elif name == "cara":
        check = norm_of_one_bounds(exponent(rows[0]), mesh)
    else:
        check = power_norm_bounds_check(field(rows[2]), exponent(rows[0]), exponent(rows[1]))
    return check.slack, check.passed, 0.0


def _recorded_draws(monkeypatch):
    """(arguments, chunks) of each later call of ``suites._draws``."""
    calls = []
    draws = suites._draws

    def recording(*args):
        chunks = []
        calls.append((args, chunks))
        for chunk in draws(*args):
            chunks.append(chunk)
            yield chunk

    monkeypatch.setattr(suites, "_draws", recording)
    return calls


@pytest.fixture
def suite_mesh():
    # two intervals, so the interior cells are not one run of the box
    return build_mesh(2.0, 96, [(-1.5, -0.5), (0.2, 1.0)])


class TestSuiteChunks:
    @pytest.mark.parametrize("name", tuple(suites.SUITE_RUNNERS))
    def test_chunked_cases_equal_the_single_case_checks(self, name, suite_mesh, monkeypatch):
        # 3 cases a chunk, so 11 cases make 3 full chunks and a remainder of 2
        mesh = suite_mesh
        monkeypatch.setattr(suites, "_CHUNK_VALUES", 3 * int(mesh.interior_mask.sum()))
        calls = _recorded_draws(monkeypatch)
        outcomes = list(getattr(suites, f"_{name}_cases")(mesh, np.random.default_rng(5), 11))
        (_, chunks), = calls
        sizes, slack, passed, defect, cases = [], [], [], [], []
        for (s, p, d), arrays in zip(outcomes, chunks, strict=True):
            sizes.append(s.size)
            slack += s.tolist()
            passed += p.tolist()
            defect += d.tolist()
            cases += [_one_case(name, mesh, rows) for rows in zip(*arrays, strict=True)]
        assert sizes == [3, 3, 3, 2]
        # bit for bit: compare the float64 bit patterns
        assert np.array(slack).view(np.int64).tolist() == \
            np.array([c[0] for c in cases]).view(np.int64).tolist()
        assert passed == [bool(c[1]) for c in cases]
        assert np.array(defect).view(np.int64).tolist() == \
            np.array([c[2] for c in cases], dtype=float).view(np.int64).tolist()
        result = suites.SUITE_RUNNERS[name](mesh, np.random.default_rng(5), 11)
        assert result.worst_slack == min(c[0] for c in cases)
        assert result.failures == sum(not c[1] for c in cases)

    @pytest.mark.parametrize("name", tuple(suites.SUITE_RUNNERS))
    def test_report_does_not_depend_on_the_chunk_size(self, name, suite_mesh, monkeypatch):
        mesh = suite_mesh
        interior = int(mesh.interior_mask.sum())
        results = []
        # 1 case, 3 cases and all 11 cases a chunk
        for values in (interior, 3 * interior, suites._CHUNK_VALUES):
            monkeypatch.setattr(suites, "_CHUNK_VALUES", values)
            results.append(suites.SUITE_RUNNERS[name](mesh, np.random.default_rng(5), 11))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("name", tuple(suites.SUITE_RUNNERS))
    def test_drawn_exponents_lie_inside_their_ranges(self, name, suite_mesh, monkeypatch):
        mesh = suite_mesh
        calls = _recorded_draws(monkeypatch)
        suites.SUITE_RUNNERS[name](mesh, np.random.default_rng(9), 500)
        (args, chunks), = calls
        ranges = args[3]
        for arrays in chunks:
            for (lo, hi), q in zip(ranges, arrays):
                assert q.shape[1] == mesh.interior_mask.sum()
                assert lo < q.min() and q.max() < hi

    def test_holder_suite_memory_does_not_grow_with_its_cases(self, mesh256):
        per_chunk = suites._CHUNK_VALUES // int(mesh256.interior_mask.sum())

        def peak(n_cases):
            tracemalloc.start()
            suites.run_holder_suite(mesh256, np.random.default_rng(3), n_cases)
            out = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return out

        assert peak(20 * per_chunk) <= 2 * peak(per_chunk)


# each malformed grid function and region a public call rejects:
# (call on a mesh, fragment of the ValueError message)
REJECTIONS = {
    "values_shape": (lambda mesh: GridFunction(mesh, np.zeros(mesh.n_cells + 1)),
                     "grid function has (17,) values for 16 cells"),
    "values_not_finite": (lambda mesh: GridFunction(mesh, np.full(mesh.n_cells, np.nan)),
                          "grid function values must be finite"),
    "region_shape": (lambda mesh: luxemburg_norm(unit_grid(mesh), const_scalar(2.0),
                                                 np.ones(mesh.n_cells - 1, dtype=bool)),
                     "region mask shape mismatch"),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_rejections(mesh16, case):
    call, fragment = REJECTIONS[case]
    with pytest.raises(ValueError) as excinfo:
        call(mesh16)
    assert excinfo.type is ValueError and fragment in str(excinfo.value)


def test_unknown_suite_is_rejected(mesh16):
    with pytest.raises(ValueError) as excinfo:
        suites.run_suites(mesh16, np.random.default_rng(0), {"norm_modular": 1, "hoelder": 1})
    assert excinfo.type is ValueError and "unknown check suite 'hoelder'" in str(excinfo.value)
