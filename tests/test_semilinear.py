import numpy as np
import pytest

from fpxlap import (DecompositionError, GridFunction, GrowthError, KernelWeights,
                    NemytskyError, Nonlinearity, PoissonProblem, assemble_weights, build_mesh,
                    calibrate_nemytsky_constant, energy, energy_gradient,
                    fixed_point_solve, gamma_exponent, growth_screen,
                    invariant_ball_radius, measure_constant, nemytsky,
                    nemytsky_bound_check, restrict_interior, shell_partition,
                    solve_by_decomposition, solve_poisson)
from fpxlap import poisson as poisson_module
from fpxlap import semilinear as semilinear_module
from fpxlap.catalog import nonlinearity, pair_exponent
from fpxlap.exponents import conjugate_exponent
from fpxlap.lebesgue import luxemburg_norm

from util import const_pair, const_scalar, grid


def zero_a(mesh):
    return GridFunction.zeros(mesh)


def const_a(mesh, value):
    return grid(mesh, np.full(mesh.n_cells, value))


def arctan_nonlinearity(mesh, eps=0.05, amp=0.5):
    avals = amp * np.exp(-2.0 * mesh.cell_centers ** 2) + 0.1
    a = grid(mesh, avals)
    return Nonlinearity(
        evaluator=lambda x, t: (amp * np.exp(-2.0 * np.asarray(x) ** 2) + 0.1)
        + eps * np.arctan(np.asarray(t)),
        a=a, c_growth=eps,
    )


def make_template(mesh, p=None, r_value=3.0):
    p = p or const_pair(2.0, 0.4)
    W = assemble_weights(mesh, p)
    zeros = GridFunction.zeros(mesh)
    return PoissonProblem(mesh=mesh, weights=W, p=p, r=const_scalar(r_value),
                          h=zeros, g=zeros)


def exterior_gaussian(mesh):
    return grid(mesh, 0.1 * np.exp(-((mesh.cell_centers - 1.5) / 0.4) ** 2))


def p2_newton_reference(template, g, f, dfdt, c_max):
    """Dense Newton solve of the p = 2 system A u - b - dx f(x, u) = 0 and
    ||(A - dx c_max I)^-1||_inf, which turns a residual into a distance."""
    mesh, w, tail = template.mesh, template.weights.w, template.weights.tail
    inner, dx = mesh.interior_mask, mesh.cell_width
    A = -2.0 * w[np.ix_(inner, inner)]
    A[np.diag_indices_from(A)] += 2.0 * w[inner].sum(axis=1) + 2.0 * dx * tail[inner]
    b = 2.0 * w[np.ix_(inner, ~inner)] @ g.values[~inner]
    x = mesh.cell_centers[inner]
    u = np.zeros(A.shape[0])
    for _ in range(60):
        step = np.linalg.solve(A - dx * np.diag(dfdt(x, u)), A @ u - b - dx * f(x, u))
        u -= step
        if np.max(np.abs(step)) <= 1e-15 * (1.0 + np.max(np.abs(u))):
            break
    shifted_inv = np.linalg.inv(A - dx * c_max * np.eye(A.shape[0]))
    return u, float(np.max(np.abs(shifted_inv).sum(axis=1)))


def plain_block_gauss_seidel(f, g, shells, template, theta, target=1e-6):
    """Unmixed shell sweeps built from the public pieces: the field and the
    global residual after every sweep until the residual meets the target."""
    prob = template.with_g(g)
    mesh = prob.mesh
    current = poisson_module.initial_guess(prob).values.copy()
    shell_probs = []
    for m in shell_partition(mesh, shells):
        sm = restrict_interior(mesh, m)
        sw = KernelWeights(mesh=sm, w=prob.weights.w, p_pair=prob.weights.p_pair,
                           tail=prob.weights.tail)
        shell_probs.append(PoissonProblem(mesh=sm, weights=sw, p=prob.p, r=prob.r,
                                          h=GridFunction.zeros(sm), g=GridFunction(sm, current),
                                          tolerances=prob.tolerances))
    blocks = [poisson_module._InteriorBlock(sp.mesh, sp.weights) for sp in shell_probs]
    residuals = []
    for _ in range(200):
        for sp, block in zip(shell_probs, blocks):
            sol, trace = fixed_point_solve(f, sp.with_g(GridFunction(sp.mesh, current)),
                                           theta=theta, _block=block)
            assert trace.converged
            current = sol.u.u.values.copy()
        u = grid(mesh, current)
        grad = energy_gradient(u, prob.with_h(nemytsky(f, u))).values[mesh.interior_mask]
        residuals.append(float(np.max(np.abs(grad))))
        if residuals[-1] <= target:
            break
    return current, residuals


@pytest.fixture
def mesh96():
    return build_mesh(2.0, 96, [(-1.0, 1.0)])


class TestNemytsky:
    def test_identity_on_zero(self, mesh64):
        f = Nonlinearity(evaluator=lambda x, t: np.asarray(t) * 1.0,
                         a=zero_a(mesh64), c_growth=1.0)
        out = nemytsky(f, GridFunction.zeros(mesh64))
        assert np.all(out.values == 0.0)

    def test_t_independent_source(self, mesh64, rng):
        f = Nonlinearity(evaluator=lambda x, t: np.cos(np.asarray(x)) + 0.0 * np.asarray(t),
                         a=grid(mesh64, np.abs(np.cos(mesh64.cell_centers))), c_growth=0.0)
        for _ in range(3):
            u = grid(mesh64, rng.standard_normal(64))
            out = nemytsky(f, u)
            mask = mesh64.interior_mask
            assert np.allclose(out.values[mask], np.cos(mesh64.cell_centers[mask]))
            assert np.all(out.values[~mask] == 0.0)

    def test_power_at_one(self, mesh64):
        p = const_pair(3.0, 0.28)
        f = Nonlinearity(
            evaluator=lambda x, t: np.sign(np.asarray(t)) * np.abs(np.asarray(t)) ** 2.0,
            a=zero_a(mesh64), c_growth=1.0,
        )
        ones = grid(mesh64, np.ones(64))
        out = nemytsky(f, ones)
        assert np.allclose(out.values[mesh64.interior_mask], 1.0)

    def test_nonfinite_abort_names_cell(self, mesh64):
        f = Nonlinearity(evaluator=lambda x, t: np.nan * np.asarray(t, dtype=float),
                         a=zero_a(mesh64), c_growth=1.0)
        with pytest.raises(NemytskyError, match="cell"):
            nemytsky(f, GridFunction.zeros(mesh64))


class TestGrowthScreen:
    def test_arctan_passes_for_quadratic_growth(self, mesh64):
        f = arctan_nonlinearity(mesh64)
        assert growth_screen(f, mesh64, const_pair(2.0, 0.4)).passed

    def test_violator_rejected(self, mesh64):
        # |10 t| exceeds 10 |t|^2 for small t and a = 0: screened out
        f = Nonlinearity(evaluator=lambda x, t: 10.0 * np.asarray(t),
                         a=zero_a(mesh64), c_growth=10.0)
        check = growth_screen(f, mesh64, const_pair(3.0, 0.28))
        assert not check.passed
        with pytest.raises(GrowthError):
            fixed_point_solve(f, make_template(mesh64, const_pair(3.0, 0.28), 4.0))

    def test_exact_power_growth_is_tight(self, mesh64):
        p = const_pair(2.5, 0.3)
        f = Nonlinearity(
            evaluator=lambda x, t: 0.7 * np.sign(np.asarray(t)) * np.abs(np.asarray(t)) ** 1.5,
            a=zero_a(mesh64), c_growth=0.7,
        )
        check = growth_screen(f, mesh64, p)
        assert check.passed
        assert check.value <= 0.0  # equality case, no slack needed


class TestNemytskyBound:
    def test_gamma_arithmetic(self, mesh64):
        p = const_pair(2.0, 0.25)
        gam = gamma_exponent(const_scalar(3.0), p)
        xs = mesh64.cell_centers
        assert np.allclose(gam.values(xs), 6.0)
        c_om = measure_constant(mesh64, gam)
        assert c_om == pytest.approx(2.0 * 2.0 ** (1.0 / 6.0))  # |Omega| = 2 here

    def test_zero_function_passes(self, mesh64):
        p = const_pair(2.0, 0.25)
        f = Nonlinearity(evaluator=lambda x, t: 0.0 * np.asarray(t),
                         a=zero_a(mesh64), c_growth=0.0)
        check = nemytsky_bound_check(f, GridFunction.zeros(mesh64),
                                     const_scalar(3.0), p, c_frozen=1.0)
        assert check.passed and check.value == 0.0

    def test_frozen_constant_holds_on_fresh_inputs(self, mesh64, rng):
        p = const_pair(2.0, 0.25)
        r = const_scalar(3.0)
        f = arctan_nonlinearity(mesh64)
        c = calibrate_nemytsky_constant(f, r, p, mesh64, np.random.default_rng(5))
        for _ in range(200):
            u = grid(mesh64, rng.standard_normal(64) * rng.uniform(1e-3, 1e3))
            assert nemytsky_bound_check(f, u, r, p, c).passed


class TestFixedPoint:
    def test_t_independent_converges_immediately(self, mesh96):
        mesh = mesh96
        source = np.cos(mesh.cell_centers)
        f = Nonlinearity(
            evaluator=lambda x, t: np.cos(np.asarray(x)) + 0.0 * np.asarray(t),
            a=grid(mesh, np.abs(source)), c_growth=0.0,
        )
        template = make_template(mesh)
        sol, trace = fixed_point_solve(f, template)
        assert trace.converged
        assert len(trace.iterates) == 1  # constant map fixes h at once
        direct = solve_poisson(template.with_h(nemytsky(f, sol.u.u)))
        assert np.allclose(sol.u.u.values, direct.u.u.values, atol=1e-10)

    def test_zero_nonlinearity(self, mesh96):
        f = Nonlinearity(evaluator=lambda x, t: 0.0 * np.asarray(t),
                         a=zero_a(mesh96), c_growth=0.0)
        sol, trace = fixed_point_solve(f, make_template(mesh96))
        assert trace.converged
        assert np.allclose(sol.u.u.values, 0.0, atol=1e-12)

    def test_max_iter_below_one_rejected(self, mesh96):
        with pytest.raises(ValueError, match="max_iter"):
            fixed_point_solve(arctan_nonlinearity(mesh96), make_template(mesh96), max_iter=0)

    def test_fixed_point_certificate(self, mesh96):
        f = arctan_nonlinearity(mesh96)
        template = make_template(mesh96)
        sol, trace = fixed_point_solve(f, template, theta=0.5)
        assert trace.converged
        assert trace.residual <= 1e-6
        # rows are (increment, inner EL residual)
        assert all(len(row) == 2 for row in trace.iterates)
        assert trace.final_increment == trace.iterates[-1][0] <= 1e-8
        h_star = trace.h_star
        j_h = nemytsky(f, solve_poisson(template.with_h(h_star)).u.u)
        gap = grid(mesh96, j_h.values - h_star.values)
        rc = conjugate_exponent(template.r)
        assert luxemburg_norm(gap, rc, mesh96.interior_mask) <= 2e-8

    def test_matches_potential_minimization(self, mesh96):
        # independent oracle: minimize the semilinear energy directly
        mesh = mesh96
        eps = 0.05
        f = arctan_nonlinearity(mesh, eps=eps)
        template = make_template(mesh)
        sol, trace = fixed_point_solve(f, template, theta=0.5)
        assert trace.converged

        avals = f.a.values
        mask = mesh.interior_mask
        dx = mesh.cell_width
        zero_h = template.h

        def semilinear_energy(vals):
            u = grid(mesh, vals)
            t = vals[mask]
            potential = avals[mask] * t + eps * (t * np.arctan(t) - 0.5 * np.log1p(t * t))
            return energy(u, template) - dx * float(np.sum(potential))

        def semilinear_grad(vals):
            u = grid(mesh, vals)
            base = energy_gradient(u, template).values[mask]
            return base - dx * (avals[mask] + eps * np.arctan(vals[mask]))

        vals = np.zeros(mesh.n_cells)
        for _ in range(500):
            gvec = semilinear_grad(vals)
            if np.max(np.abs(gvec)) <= 1e-10:
                break
            step = 1.0
            e0 = semilinear_energy(vals)
            d = -gvec
            while step > 1e-18:
                trial = vals.copy()
                trial[mask] += step * d
                if semilinear_energy(trial) <= e0 - 1e-4 * step * float(gvec @ gvec):
                    vals = trial
                    break
                step *= 0.5
        assert np.max(np.abs(semilinear_grad(vals))) <= 1e-6
        assert np.max(np.abs(sol.u.u.values - vals)) <= 1e-5

    def test_converged_output_minimizes_potential_energy(self, mesh96, rng):
        # residual equivalence: a potential-case fixed point is the global
        # minimizer of the semilinear energy
        eps = 0.05
        f = arctan_nonlinearity(mesh96, eps=eps)
        template = make_template(mesh96)
        sol, trace = fixed_point_solve(f, template, theta=0.5)
        assert trace.converged
        mask = mesh96.interior_mask
        dx = mesh96.cell_width
        avals = f.a.values

        def semilinear_energy(vals):
            t = vals[mask]
            potential = avals[mask] * t + eps * (t * np.arctan(t) - 0.5 * np.log1p(t * t))
            return energy(grid(mesh96, vals), template) - dx * float(np.sum(potential))

        e0 = semilinear_energy(sol.u.u.values)
        for _ in range(50):
            phi = np.where(mask, rng.standard_normal(mesh96.n_cells), 0.0)
            phi *= rng.uniform(0.05, 1.0) / np.max(np.abs(phi))
            assert semilinear_energy(sol.u.u.values + phi) >= e0 - 1e-8

    def test_p_two_warm_solves_use_the_factor(self, mesh96, monkeypatch):
        solves = []
        original = semilinear_module.solve_poisson

        def recording(prob, *args, **kwargs):
            sol = original(prob, *args, **kwargs)
            solves.append((prob, sol))
            return sol

        monkeypatch.setattr(semilinear_module, "solve_poisson", recording)
        sol, trace = fixed_point_solve(arctan_nonlinearity(mesh96), make_template(mesh96))
        assert trace.converged
        assert trace.poisson_solves == len(solves) == len(trace.iterates) + 1
        assert trace.cg_iterations == sum(s.cg_iterations for _, s in solves)
        assert trace.backtracks == sum(s.backtracks for _, s in solves)
        cold, warm = solves[0][1], [s for _, s in solves[1:]]
        assert cold.cg_iterations > 0
        # after the cold solve, each direction is one application of the
        # factored Hessian: at most one iteration and no CG step
        assert all(s.iterations <= 1 and s.cg_iterations == 0 for s in warm)
        assert any(s.iterations == 1 for s in warm)
        for prob, s in solves:
            grad = energy_gradient(s.u, prob).values[mesh96.interior_mask]
            assert np.max(np.abs(grad)) <= prob.tolerances.el_residual

    def test_second_call_repeats_the_work(self, mesh96):
        f, template = arctan_nonlinearity(mesh96), make_template(mesh96)
        (s1, t1), (s2, t2) = (fixed_point_solve(f, template) for _ in range(2))
        assert (t2.poisson_solves, t2.cg_iterations) == (t1.poisson_solves, t1.cg_iterations)
        assert np.array_equal(s2.u.u.values, s1.u.u.values)

    def test_default_is_undamped(self, mesh96):
        sol, trace = fixed_point_solve(arctan_nonlinearity(mesh96), make_template(mesh96))
        assert trace.converged and trace.residual <= 1e-6
        assert trace.theta == 1.0
        assert len(trace.iterates) <= 6

    def test_oscillation_reduces_damping(self, mesh64):
        # strong negative feedback makes the undamped map oscillate, so the
        # solver must either shrink theta or report failure
        f = Nonlinearity(evaluator=lambda x, t: -50.0 * np.asarray(t) + 1.0,
                         a=const_a(mesh64, 1.0), c_growth=50.0)
        template = make_template(mesh64)
        sol, trace = fixed_point_solve(f, template, theta=1.0, max_iter=60)
        assert (not trace.converged) or trace.theta < 1.0


class TestBallRadius:
    def test_k2_zero_finite(self):
        ball = invariant_ball_radius(c_bound=1.2, a_norm=0.4, k1=0.5, k2=0.0,
                                     c_omega=1.1, p_minus=2.0, p_plus=2.0)
        assert ball.feasible
        expected = 1.2 * (0.4 + 0.5 * 1.1 + 0.5 * 1.1)
        assert ball.value == pytest.approx(expected)

    def test_infeasible_flag(self):
        ball = invariant_ball_radius(c_bound=1.0, a_norm=1.0, k1=1.0, k2=0.6,
                                     c_omega=1.0, p_minus=2.0, p_plus=2.0)
        assert not ball.feasible
        assert ball.denominator <= 0.0

    def test_shrinking_domain_becomes_feasible(self):
        # measure constant shrinks with the domain, radius turns feasible
        meshes = [build_mesh(2.0, 128, [(-w, w)]) for w in (1.0, 0.25, 0.125)]
        p = const_pair(2.0, 0.25)
        gam = gamma_exponent(const_scalar(3.0), p)
        consts = [measure_constant(m, gam) for m in meshes]
        assert consts[0] > consts[1] > consts[2]
        k2 = 0.3
        balls = [invariant_ball_radius(1.0, 1.0, 1.0, k2, c, 2.0, 2.0) for c in consts]
        feas = [b.feasible for b in balls]
        assert feas == sorted(feas)  # once feasible, stays feasible as domain shrinks
        assert balls[-1].feasible


class TestDecomposition:
    def test_partition_telescopes(self, mesh96):
        masks = shell_partition(mesh96, 3)
        union = np.zeros(mesh96.n_cells, dtype=int)
        for m in masks:
            union += m.astype(int)
        assert np.array_equal(union.astype(bool), mesh96.interior_mask)
        assert union.max() == 1  # disjoint

    def test_single_shell_degenerates_to_fixed_point(self, mesh96):
        f = arctan_nonlinearity(mesh96)
        template = make_template(mesh96)
        g = GridFunction.zeros(mesh96)
        sol_fp, _ = fixed_point_solve(f, template, theta=0.5)
        sol_dc, rep = solve_by_decomposition(f, g, 1, template, theta=0.5)
        assert rep.converged and rep.sweeps == 1
        assert np.allclose(sol_dc.u.u.values, sol_fp.u.u.values, atol=1e-12)

    def test_t_independent_matches_poisson(self, mesh96):
        mesh = mesh96
        source = np.cos(mesh.cell_centers)
        f = Nonlinearity(
            evaluator=lambda x, t: np.cos(np.asarray(x)) + 0.0 * np.asarray(t),
            a=grid(mesh, np.abs(source)), c_growth=0.0,
        )
        template = make_template(mesh)
        g = GridFunction.zeros(mesh)
        sol_dc, rep = solve_by_decomposition(f, g, 3, template, theta=0.5)
        assert rep.converged
        h = grid(mesh, np.where(mesh.interior_mask, source, 0.0))
        sol_p = solve_poisson(template.with_h(h))
        assert np.max(np.abs(sol_dc.u.u.values - sol_p.u.u.values)) < 1e-6

    def test_three_shells_match_fixed_point(self, mesh96):
        f = arctan_nonlinearity(mesh96)
        template = make_template(mesh96)
        g = GridFunction.zeros(mesh96)
        sol_fp, _ = fixed_point_solve(f, template, theta=0.5)
        sol_dc, rep = solve_by_decomposition(f, g, 3, template, theta=0.5)
        assert rep.converged
        assert rep.residual <= 1e-5
        assert np.max(np.abs(sol_dc.u.u.values - sol_fp.u.u.values)) < 1e-4

    def test_growth_pair_validated_once_per_shell(self, mesh96, monkeypatch):
        f = arctan_nonlinearity(mesh96)
        template = make_template(mesh96)
        calls, screens = [], []
        original = poisson_module.validate_growth_pair
        original_screen = semilinear_module.growth_screen

        def counting(*args):
            calls.append(args)
            return original(*args)

        def counting_screen(*args, **kwargs):
            screens.append(args)
            return original_screen(*args, **kwargs)

        monkeypatch.setattr(poisson_module, "validate_growth_pair", counting)
        monkeypatch.setattr(semilinear_module, "growth_screen", counting_screen)
        _, rep = solve_by_decomposition(f, GridFunction.zeros(mesh96), 3, template, theta=0.5)
        assert rep.converged and rep.sweeps > 1
        assert len(calls) == 3
        # the whole interior is screened once; the shells lie inside it
        assert len(screens) == 1 and screens[0][1] is mesh96

    @pytest.mark.parametrize("shells", [3, 5])
    def test_mixed_sweeps_match_newton_reference(self, mesh96, shells):
        eps = 0.05
        f = arctan_nonlinearity(mesh96, eps=eps)
        template = make_template(mesh96)
        g = exterior_gaussian(mesh96)
        sol, rep = solve_by_decomposition(f, g, shells, template)
        assert rep.converged and rep.sweeps <= 12
        assert rep.mixed_sweeps >= 1
        assert len(rep.residuals) == rep.sweeps and rep.residuals[-1] == rep.residual <= 1e-6
        inner = mesh96.interior_mask
        assert np.array_equal(sol.u.u.values[~inner], g.values[~inner])
        u_ref, inv_norm = p2_newton_reference(template, g, f, lambda x, t: eps / (1.0 + t * t),
                                              eps)
        assert np.max(np.abs(sol.u.u.values[inner] - u_ref)) <= inv_norm * 1e-6

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_rejected_candidates_leave_plain_sweeps(self, mesh96, monkeypatch, theta):
        # every candidate is pushed far off, so the residual safeguard must
        # reject it, clear the history and keep the plain sweep bit for bit
        histories = []

        def poisoned(dxs, dfs, swept, res):
            histories.append(len(dfs))
            return None if not dfs else swept + 1.0

        monkeypatch.setattr(semilinear_module, "_anderson_mix", poisoned)
        f, template = arctan_nonlinearity(mesh96), make_template(mesh96)
        g = exterior_gaussian(mesh96)
        sol, rep = solve_by_decomposition(f, g, 3, template, theta=theta)
        plain, residuals = plain_block_gauss_seidel(f, g, 3, template, theta)
        assert rep.converged and rep.mixed_sweeps == 0
        assert rep.sweeps == len(residuals) > 2
        assert rep.residuals == residuals
        assert np.array_equal(sol.u.u.values, plain)
        # a rejection clears the history: each later candidate uses one pair
        assert histories[0] == 0 and set(histories[1:]) == {1}

    @pytest.mark.xfail(strict=True, raises=DecompositionError,
                       reason="warm-started inner solves stall just above the EL tolerance "
                              "(shell 1, sweep 17)")
    def test_plain_sweeps_converge_with_variable_exponent(self, monkeypatch):
        # the perfbench variable_shells case without Anderson mixing: plain
        # block Gauss-Seidel needs more sweeps than the mixed run, and one of
        # its warm-started inner Poisson solves stalls
        monkeypatch.setattr(semilinear_module, "_anderson_mix", lambda *args: None)
        mesh = build_mesh(2.0, 96, [(-1.0, 1.0)])
        p = pair_exponent("gauss_bump", {"base": 2.0, "amplitude": -0.4, "width": 1.0},
                          s=0.4, R=2.0)
        template = make_template(mesh, p=p, r_value=2.6)
        f = nonlinearity("arctan", {"eps": 0.05, "a": {
            "kind": "gaussian", "params": {"amplitude": 0.5, "center": 0.0, "width": 0.7}}},
            mesh, p)
        zero = GridFunction.zeros(mesh)
        sol, rep = solve_by_decomposition(f, zero, 3, template)
        assert rep.converged and rep.mixed_sweeps == 0
        grad = energy_gradient(sol.u, template.with_h(nemytsky(f, sol.u.u))).values
        assert np.max(np.abs(grad)) <= 1e-6

    def test_too_many_shells_rejected(self, mesh16):
        with pytest.raises(ValueError):
            shell_partition(mesh16, 100)
