import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpxlap import (BisectionError, DirichletPair, GridFunction, PoissonProblem,
                    apply_operator, assemble_weights, build_mesh, energy, full_norm,
                    gagliardo_modular, gagliardo_seminorm, luxemburg_norm, trace_exponent,
                    weak_form)
from fpxlap import lebesgue as lebesgue_module

from util import (bump_pair, const_pair, const_scalar, dense_energy, dense_modular,
                  dense_operator, dense_seminorm, dense_weak_form, grid, random_w0, zero_tails)


@pytest.fixture
def weights64(mesh64):
    return assemble_weights(mesh64, const_pair(2.0, 0.4))


@pytest.fixture
def varweights64(mesh64):
    return assemble_weights(mesh64, bump_pair(2.0, 0.4, s=0.3))


def brute_modular(u, W):
    """Literal pair-sum definition used as the structural oracle."""
    n = W.mesh.n_cells
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += 2.0 * W.w[i, j] * abs(u.values[i] - u.values[j]) ** W.p_pair[i, j]
    for i in range(n):
        total += 2.0 * W.mesh.cell_width * W.tail[i] * abs(u.values[i]) ** W.p_pair[i, i]
    return total


def brute_energy(u, prob):
    """Literal pair-sum energy: the pairs with an interior end and the
    interior tails over their exponents, minus the interior source term."""
    W, dx = prob.weights, prob.mesh.cell_width
    n, interior = W.mesh.n_cells, prob.mesh.interior_mask
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if interior[i] or interior[j]:
                p = W.p_pair[i, j]
                total += 2.0 * W.w[i, j] * abs(u.values[i] - u.values[j]) ** p / p
    for i in range(n):
        if interior[i]:
            p = W.p_pair[i, i]
            total += 2.0 * dx * W.tail[i] * abs(u.values[i]) ** p / p
            total -= dx * prob.h.values[i] * u.values[i]
    return total


def brute_operator(u, W):
    """Literal cell-by-cell operator: fluxes |t|^(p-2) t, 0 at t = 0."""
    n = W.mesh.n_cells
    out = np.zeros(n)
    for i in range(n):
        for j in range(n):
            du = u.values[i] - u.values[j]
            if j != i and du != 0.0:
                out[i] += W.w[i, j] * abs(du) ** (W.p_pair[i, j] - 2.0) * du
        out[i] /= W.mesh.cell_width
        ui = u.values[i]
        if ui != 0.0:
            out[i] += W.tail[i] * abs(ui) ** (W.p_pair[i, i] - 2.0) * ui
    return out


def brute_weak_form(u, phi, W):
    n = W.mesh.n_cells
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            du = u.values[i] - u.values[j]
            term = abs(du) ** (W.p_pair[i, j] - 2.0) * du if du != 0.0 else 0.0
            total += 2.0 * W.w[i, j] * term * (phi.values[i] - phi.values[j])
    for i in range(n):
        ui = u.values[i]
        term = abs(ui) ** (W.p_pair[i, i] - 2.0) * ui if ui != 0.0 else 0.0
        total += 2.0 * W.mesh.cell_width * W.tail[i] * term * phi.values[i]
    return total


# a variable exponent and the uniform p = 2 shortcut of the shared pair pass
ORACLE_EXPONENTS = {"bump": bump_pair(1.8, 0.5, s=0.3), "p2": const_pair(2.0, 0.3)}


@pytest.mark.parametrize("name", ORACLE_EXPONENTS)
class TestPairPassOracles:
    """The references on the shared pair pass against loop sums that share
    none of its code, on fields with nonzero exterior data and tails."""

    def test_energy_matches_brute_force(self, name, mesh16, rng):
        W = assemble_weights(mesh16, ORACLE_EXPONENTS[name])
        u = grid(mesh16, rng.standard_normal(mesh16.n_cells))
        prob = PoissonProblem(mesh=mesh16, weights=W, p=ORACLE_EXPONENTS[name],
                              h=grid(mesh16, rng.standard_normal(16)), g=u)
        assert np.all(W.tail > 0.0) and np.any(u.values[mesh16.exterior_mask] != 0.0)
        assert energy(u, prob) == pytest.approx(brute_energy(u, prob), rel=1e-12)

    def test_operator_matches_brute_force(self, name, mesh16, rng):
        W = assemble_weights(mesh16, ORACLE_EXPONENTS[name])
        u = grid(mesh16, rng.standard_normal(mesh16.n_cells))
        assert np.allclose(apply_operator(u, W), brute_operator(u, W), rtol=1e-12, atol=0.0)


class TestGagliardoModular:
    def test_zero(self, mesh64, weights64):
        assert gagliardo_modular(GridFunction.zeros(mesh64), weights64) == 0.0

    def test_constant_with_tails_suppressed(self, mesh64, weights64):
        u = grid(mesh64, np.full(mesh64.n_cells, 3.7))
        assert gagliardo_modular(u, zero_tails(weights64)) == 0.0
        assert gagliardo_modular(u, weights64) > 0.0  # tails see the constant

    def test_single_cell_indicator_manual_sum(self, varweights64, mesh64):
        W = varweights64
        k = 20
        u = grid(mesh64, np.eye(mesh64.n_cells)[k])
        expected = 2.0 * W.w[k].sum() + 2.0 * mesh64.cell_width * W.tail[k]
        assert gagliardo_modular(u, W) == pytest.approx(expected, rel=1e-12)

    def test_matches_brute_force(self, mesh16, rng):
        W = assemble_weights(mesh16, bump_pair(1.8, 0.5, s=0.3))
        u = grid(mesh16, rng.standard_normal(mesh16.n_cells))
        assert gagliardo_modular(u, W) == pytest.approx(brute_modular(u, W), rel=1e-12)

    def test_omega_variant_drops_tails_and_outer_pairs(self, mesh16, rng):
        W = assemble_weights(mesh16, const_pair(2.0, 0.3))
        ext = mesh16.exterior_mask
        u_vals = rng.standard_normal(mesh16.n_cells)
        u = grid(mesh16, u_vals)
        omega_val = gagliardo_modular(u, W, variant="omega")
        total = 0.0
        for i in range(mesh16.n_cells):
            for j in range(mesh16.n_cells):
                if i != j and not (ext[i] and ext[j]):
                    total += W.w[i, j] * abs(u_vals[i] - u_vals[j]) ** 2
        assert omega_val == pytest.approx(total, rel=1e-12)


class TestSeminorm:
    def test_zero(self, mesh64, weights64):
        assert gagliardo_seminorm(GridFunction.zeros(mesh64), weights64) == 0.0

    def test_constant_exponent_power_identity(self, mesh64, weights64, rng):
        u = grid(mesh64, rng.standard_normal(mesh64.n_cells))
        # constant exponent 2: the seminorm is the square root of the modular.
        # The library takes that closed form from its own modular pass, so
        # check it against the dense n x n modular and the dense bisection.
        semi = gagliardo_seminorm(u, weights64)
        assert semi == pytest.approx(np.sqrt(dense_modular(u, weights64)), rel=1e-12)
        assert semi == pytest.approx(dense_seminorm(u, weights64), rel=1e-12)

    @pytest.mark.parametrize("variant", ("rn", "omega"))
    def test_bisection_certificate(self, variant, mesh64, varweights64, rng):
        for k in range(25):
            # odd draws spread the cells over 10^-150 .. 10^150
            scale = 10.0 ** rng.uniform(-150, 150, mesh64.n_cells) if k % 2 else rng.uniform(0.1, 10)
            u = grid(mesh64, rng.standard_normal(mesh64.n_cells) * scale)
            lam = gagliardo_seminorm(u, varweights64, variant)
            scaled = u.replace_values(u.values / lam)
            assert abs(gagliardo_modular(scaled, varweights64, variant) - 1.0) <= 1e-12

    def test_step_budget_exhaustion_raises(self, mesh64, varweights64, rng, monkeypatch):
        monkeypatch.setattr(lebesgue_module, "_NEWTON_MAX_STEPS", 1)
        u = grid(mesh64, rng.standard_normal(mesh64.n_cells))
        with pytest.raises(BisectionError):
            gagliardo_seminorm(u, varweights64)


class TestFullNorm:
    def test_zero(self, mesh64, weights64):
        q = const_scalar(2.0)
        assert full_norm(GridFunction.zeros(mesh64), weights64, q) == 0.0

    def test_additivity_by_construction(self, mesh64, varweights64, rng):
        u = grid(mesh64, rng.standard_normal(mesh64.n_cells))
        q = trace_exponent(bump_pair(2.0, 0.4, s=0.3))
        total = full_norm(u, varweights64, q)
        parts = (gagliardo_seminorm(u, varweights64, variant="omega")
                 + luxemburg_norm(u, q, mesh64.interior_mask))
        assert total == parts


class TestApplyOperator:
    def test_zero_everywhere(self, mesh64, weights64):
        out = apply_operator(GridFunction.zeros(mesh64), weights64)
        assert np.all(out == 0.0)

    def test_constant_with_tails_suppressed(self, mesh64, weights64):
        u = grid(mesh64, np.full(mesh64.n_cells, 2.5))
        out = apply_operator(u, zero_tails(weights64))
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_sign_equivariance(self, mesh64, varweights64, rng):
        u = grid(mesh64, rng.standard_normal(mesh64.n_cells))
        plus = apply_operator(u, varweights64)
        minus = apply_operator(u.replace_values(-u.values), varweights64)
        assert np.allclose(plus, -minus, rtol=1e-12, atol=1e-14)


class TestWeakForm:
    def test_zero_test_function(self, mesh64, varweights64, rng):
        u = grid(mesh64, rng.standard_normal(mesh64.n_cells))
        assert weak_form(u, GridFunction.zeros(mesh64), varweights64) == 0.0

    def test_self_pairing_is_modular(self, mesh64, varweights64, rng):
        u = grid(mesh64, rng.standard_normal(mesh64.n_cells))
        assert weak_form(u, u, varweights64) == pytest.approx(
            gagliardo_modular(u, varweights64), rel=1e-12)
        assert weak_form(u, u, varweights64) >= 0.0

    def test_self_pairing_zero_iff_zero_with_tails(self, mesh64, weights64):
        u = grid(mesh64, np.full(mesh64.n_cells, 1.3))
        assert weak_form(u, u, weights64) > 0.0
        z = GridFunction.zeros(mesh64)
        assert weak_form(z, z, weights64) == 0.0

    def test_brute_force_parity(self, mesh16, rng):
        W = assemble_weights(mesh16, bump_pair(1.7, 0.6, s=0.25))
        u = grid(mesh16, rng.standard_normal(mesh16.n_cells))
        phi = random_w0(rng, mesh16)
        assert weak_form(u, phi, W) == pytest.approx(brute_weak_form(u, phi, W), rel=1e-12)

    def test_operator_identity_on_six_cells(self, rng):
        # <L(u), phi> = 2 sum_i phi_i (operator u)_i dx for phi supported inside
        mesh = build_mesh(1.5, 6, [(-0.6, 0.6)])
        W = assemble_weights(mesh, bump_pair(1.9, 0.3, s=0.3))
        for _ in range(10):
            u = grid(mesh, rng.standard_normal(6))
            phi = random_w0(rng, mesh)
            lhs = brute_weak_form(u, phi, W)
            op = apply_operator(u, W)
            rhs = 2.0 * mesh.cell_width * float(
                np.sum(phi.values[mesh.interior_mask] * op[mesh.interior_mask]))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_symmetry_in_linear_case(self, mesh64, weights64, rng):
        u = grid(mesh64, rng.standard_normal(mesh64.n_cells))
        v = grid(mesh64, rng.standard_normal(mesh64.n_cells))
        a = weak_form(u, v, weights64)
        b = weak_form(v, u, weights64)
        assert a == pytest.approx(b, rel=1e-10)

    def test_monotonicity(self, mesh64, varweights64, rng):
        for _ in range(50):
            u = grid(mesh64, rng.standard_normal(mesh64.n_cells))
            v = grid(mesh64, rng.standard_normal(mesh64.n_cells))
            duv = u.replace_values(u.values - v.values)
            gap = weak_form(u, duv, varweights64) - weak_form(v, duv, varweights64)
            assert gap >= -1e-12


class TestDirichletPair:
    def test_exterior_agreement_enforced(self, mesh16, rng):
        g = grid(mesh16, rng.standard_normal(mesh16.n_cells))
        u_bad = grid(mesh16, rng.standard_normal(mesh16.n_cells))
        with pytest.raises(ValueError):
            DirichletPair(u=u_bad, g=g)
        pair = DirichletPair(u=grid(mesh16, np.where(mesh16.interior_mask, 1.0, g.values)), g=g)
        ext = mesh16.exterior_mask
        assert np.array_equal(pair.u.values[ext], g.values[ext])


class TestPoincare:
    def test_ratio_bounded_over_random_family(self, rng):
        mesh = build_mesh(2.0, 64, [(-1.0, 1.0)])
        p = bump_pair(2.0, 0.4, s=0.3)
        W = assemble_weights(mesh, p)
        pbar = trace_exponent(p)
        ratios = []
        for _ in range(40):
            u = random_w0(rng, mesh, scale=rng.uniform(0.1, 10))
            semi = gagliardo_seminorm(u, W)
            if semi == 0:
                continue
            ratios.append(luxemburg_norm(u, pbar, mesh.interior_mask) / semi)
        assert max(ratios) < 10.0  # a finite uniform constant at this scale

    @given(scale=st.floats(0.01, 100.0))
    @settings(max_examples=20, deadline=None)
    def test_seminorm_homogeneity(self, scale):
        mesh = build_mesh(2.0, 32, [(-1.0, 1.0)])
        W = assemble_weights(mesh, bump_pair(2.0, 0.3, s=0.3))
        gen = np.random.default_rng(5)
        u = grid(mesh, gen.standard_normal(32))
        s1 = gagliardo_seminorm(u.replace_values(scale * u.values), W)
        s0 = gagliardo_seminorm(u, W)
        assert s1 == pytest.approx(scale * s0, rel=1e-9)


# exponent and field of the parity cases: the uniform p = 2 is a zero-stride
# p_pair; p = 1.5 gets a plateau field, with exact ties d = 0 and zeros
# u_i = 0, where the flux and the modular term must be 0
PARITY_CASES = {
    "p2": (const_pair(2.0, 0.3), "normal"),
    "p1_5_plateau": (const_pair(1.5, 0.3), "plateau"),
    "gauss_bump": (bump_pair(2.0, 0.5, s=0.3), "normal"),
}
PARITY_OMEGAS = {"one_interval": [(-1.0, 1.0)],
                 "three_intervals": [(-1.7, -1.1), (-0.6, 0.4), (0.9, 1.6)]}


@pytest.mark.parametrize("n", (8, 96, 333, 1024))
@pytest.mark.parametrize("omega", PARITY_OMEGAS)
@pytest.mark.parametrize("case", PARITY_CASES)
def test_blocked_passes_match_dense_oracles(case, omega, n):
    """The blocked passes against the n x n formulas of ``util`` to a relative
    1e-13 (of the absolute terms where they cancel): one block at n = 8 and
    96, a merged last block at 333, many blocks at 1024, and 1 or 3 runs of
    interior cells."""
    p, field = PARITY_CASES[case]
    mesh = build_mesh(2.0, n, PARITY_OMEGAS[omega])
    W = assemble_weights(mesh, p)
    gen = np.random.default_rng(n)
    vals = gen.standard_normal(n)
    if field == "plateau":
        vals = np.round(2.0 * vals) / 2.0
        assert np.any(vals == 0.0) and np.unique(vals).size < n
    u, phi, h = grid(mesh, vals), grid(mesh, gen.standard_normal(n)), grid(mesh, gen.standard_normal(n))
    for variant in ("rn", "omega"):
        assert gagliardo_modular(u, W, variant) == pytest.approx(dense_modular(u, W, variant), rel=1e-13)
        assert gagliardo_seminorm(u, W, variant) == pytest.approx(dense_seminorm(u, W, variant), rel=1e-13)
    op = apply_operator(u, W)
    assert np.all(np.isfinite(op))
    assert np.all(np.abs(op - dense_operator(u, W)) <= 1e-13 * dense_operator(u, W, absolute=True))
    assert abs(weak_form(u, phi, W) - dense_weak_form(u, phi, W)) \
        <= 1e-13 * dense_weak_form(u, phi, W, absolute=True)
    prob = PoissonProblem(mesh=mesh, weights=W, p=p, h=h, g=u)
    assert abs(energy(u, prob) - dense_energy(u, prob)) <= 1e-13 * dense_energy(u, prob, absolute=True)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPassMemory:
    """No n x n temporary at n = 1024: the passes peak below n^2 8 / 4 bytes
    (2 MB), the size of a quarter of one n x n float array."""

    N = 1024

    @pytest.fixture(scope="class")
    def fields(self):
        mesh = build_mesh(2.0, self.N, [(-1.0, 1.0)])
        u = grid(mesh, np.random.default_rng(3).standard_normal(self.N))
        return u, {"p2": assemble_weights(mesh, const_pair(2.0, 0.3)),
                   "bump": assemble_weights(mesh, bump_pair(2.0, 0.5, s=0.3))}

    @pytest.mark.parametrize("name", ("p2", "bump"))
    @pytest.mark.parametrize("variant", ("rn", "omega"))
    def test_modular_and_operator(self, fields, name, variant):
        u, weights = fields
        W = weights[name]
        assert _peak_bytes(lambda: gagliardo_modular(u, W, variant)) < self.N ** 2 * 8 / 4
        assert _peak_bytes(lambda: apply_operator(u, W)) < self.N ** 2 * 8 / 4

    @pytest.mark.parametrize("variant", ("rn", "omega"))
    def test_seminorm(self, fields, variant):
        u, weights = fields
        # a constant exponent takes the closed form from one modular pass
        assert _peak_bytes(lambda: gagliardo_seminorm(u, weights["p2"], variant)) < self.N ** 2 * 8 / 4
        # a varying one keeps, for Newton's method, the log and the exponent
        # of each pair once and of each tail, and one work array of that size:
        # three arrays of n (n + 1) / 2 floats, below the n^2 logs and the
        # n^2 work array of the full pair matrix
        flat = self.N * (self.N + 1) // 2 * 8
        assert _peak_bytes(lambda: gagliardo_seminorm(u, weights["bump"], variant)) < 3 * flat + 2**20


@pytest.mark.parametrize("call", (gagliardo_modular, gagliardo_seminorm))
@pytest.mark.parametrize("field", ("cos", "zero"))
def test_unknown_variant_is_rejected(weights64, mesh64, call, field):
    # a zero field is rejected too, before its seminorm's shortcut to 0
    vals = np.cos(mesh64.cell_centers) if field == "cos" else np.zeros(mesh64.n_cells)
    with pytest.raises(ValueError) as excinfo:
        call(grid(mesh64, vals), weights64, "box")
    assert excinfo.type is ValueError and "unknown modular variant 'box'" in str(excinfo.value)
