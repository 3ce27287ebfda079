import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fpxlap import (GridFunction, KernelWeights, PoissonProblem, Tolerances,
                    assemble_weights, build_mesh, energy, energy_gradient,
                    gagliardo_modular, lr_estimate_check, luxemburg_norm,
                    minimizer_equivalence_check, restrict_interior, shell_partition,
                    solve_poisson, weak_form)
from fpxlap import mesh_kernel
from fpxlap import poisson as poisson_module
from fpxlap.catalog import pair_exponent
from fpxlap.exponents import conjugate_exponent
from fpxlap.poisson import initial_guess

from util import bump_pair, const_pair, const_scalar, dense_operator, grid, random_w0, zero_tails


def make_problem(mesh, p, r_value, h_vals, g_vals, **tol):
    W = assemble_weights(mesh, p)
    return PoissonProblem(
        mesh=mesh, weights=W, p=p, r=const_scalar(r_value),
        h=grid(mesh, h_vals), g=grid(mesh, g_vals),
        tolerances=Tolerances(**tol) if tol else Tolerances(),
    )


@pytest.fixture
def linear_problem(mesh64):
    return make_problem(mesh64, const_pair(2.0, 0.4), 3.0,
                        np.ones(64), np.zeros(64))


class TestEnergy:
    def test_zero_data_zero_energy(self, linear_problem, mesh64):
        zero = GridFunction.zeros(mesh64)
        prob = linear_problem.with_h(zero)
        assert energy(zero, prob) == 0.0

    def test_nonnegative_without_source(self, linear_problem, mesh64, rng):
        prob = linear_problem.with_h(GridFunction.zeros(mesh64))
        for _ in range(20):
            u = grid(mesh64, rng.standard_normal(64))
            assert energy(u, prob) >= 0.0
        const = grid(mesh64, np.full(64, 2.0))
        assert energy(const, prob) > 0.0  # tails see constants

    def test_lower_bound_by_modular(self, mesh64, rng):
        p = bump_pair(2.0, 0.5, s=0.25)
        prob = make_problem(mesh64, p, 3.2, rng.standard_normal(64), np.zeros(64))
        dx = mesh64.cell_width
        for _ in range(20):
            # the Dirichlet class of g = 0: the 'rn' modular has no exterior term
            u = random_w0(rng, mesh64)
            source = dx * float(np.sum(prob.h.values[mesh64.interior_mask]
                                       * u.values[mesh64.interior_mask]))
            lower = gagliardo_modular(u, prob.weights) / prob.weights.p_plus - source
            assert energy(u, prob) >= lower - 1e-12

    @pytest.mark.parametrize("kind", ("p1_5", "p2", "gauss_bump", "affine"))
    @pytest.mark.parametrize("omega", ("one", "three", "shell"))
    def test_constant_field_leaves_interior_tails_and_source(self, kind, omega, rng):
        prob = _oracle_problem(kind, omega, rng)
        mesh, W, c = prob.mesh, prob.weights, -0.7
        u = grid(mesh, np.full(64, c))
        prob = prob.with_g(u)
        dx, rows = mesh.cell_width, np.flatnonzero(mesh.interior_mask)
        exact = math.fsum([2.0 * dx * W.tail[i] * abs(c) ** W.p_bar[i] / W.p_bar[i] for i in rows]
                          + [-dx * prob.h.values[i] * c for i in rows])
        assert energy(u, prob) == pytest.approx(exact, rel=1e-13, abs=0.0)
        assert _block_energy(prob, u.values) == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("kind", ("p1_5", "p2", "gauss_bump", "affine"))
    @pytest.mark.parametrize("omega", ("one", "three", "shell"))
    def test_zero_interior_leaves_interior_exterior_pairs(self, kind, omega, rng):
        prob = _oracle_problem(kind, omega, rng)
        mesh, W, g = prob.mesh, prob.weights, prob.g.values
        u = grid(mesh, np.where(mesh.interior_mask, 0.0, g))
        rows, ext = np.flatnonzero(mesh.interior_mask), np.flatnonzero(mesh.exterior_mask)
        exact = math.fsum(2.0 * W.w[i, j] * abs(g[j]) ** W.p_pair[i, j] / W.p_pair[i, j]
                          for i in rows for j in ext)
        assert energy(u, prob) == pytest.approx(exact, rel=1e-13, abs=0.0)
        assert _block_energy(prob, u.values) == pytest.approx(exact, rel=1e-13, abs=0.0)


def _block_energy(prob, v):
    """The energy of the field v from one pass over a fresh interior block."""
    block = poisson_module._InteriorBlock(prob.mesh, prob.weights)
    rows = block.rows
    return block._pass(v, np.zeros(rows.size)) - prob.mesh.cell_width * prob.h.values[rows] @ v[rows]


class TestGradient:
    def test_zero_field_zero_source(self, mesh64):
        prob = make_problem(mesh64, const_pair(2.0, 0.4), 3.0, np.zeros(64), np.zeros(64))
        g = energy_gradient(GridFunction.zeros(mesh64), prob)
        assert np.all(g.values == 0.0)

    def test_matches_central_differences(self, mesh64, rng):
        p = bump_pair(2.0, 0.5, s=0.25)
        prob = make_problem(mesh64, p, 3.2, rng.standard_normal(64),
                            0.3 * rng.standard_normal(64))
        base = prob.g.values.copy()
        base[mesh64.interior_mask] = rng.standard_normal(int(mesh64.interior_mask.sum()))
        u0 = grid(mesh64, base)
        gvals = energy_gradient(u0, prob).values
        step = 1e-6
        for _ in range(20):
            d = random_w0(rng, mesh64).values
            d /= np.linalg.norm(d)
            ep = energy(grid(mesh64, u0.values + step * d), prob)
            em = energy(grid(mesh64, u0.values - step * d), prob)
            fd = (ep - em) / (2 * step)
            an = float(gvals @ d)
            assert fd == pytest.approx(an, rel=1e-5)

    def test_linearity_for_p_two(self, mesh64, rng):
        prob = make_problem(mesh64, const_pair(2.0, 0.4), 3.0,
                            rng.standard_normal(64), np.zeros(64))
        u = random_w0(rng, mesh64)
        v = random_w0(rng, mesh64)
        zero = GridFunction.zeros(mesh64)
        gu = energy_gradient(u, prob).values
        gv = energy_gradient(v, prob).values
        g0 = energy_gradient(zero, prob).values
        gsum = energy_gradient(grid(mesh64, u.values + v.values), prob).values
        # the source offset enters every gradient once
        assert np.allclose(gsum, gu + gv - g0, rtol=1e-10, atol=1e-12)


class TestSolve:
    def test_zero_data_gives_zero(self, mesh64):
        prob = make_problem(mesh64, const_pair(2.0, 0.4), 3.0, np.zeros(64), np.zeros(64))
        sol = solve_poisson(prob)
        assert sol.converged
        assert np.allclose(sol.u.u.values, 0.0, atol=1e-12)
        assert sol.energy == pytest.approx(0.0, abs=1e-15)

    def test_weak_form_residual_certificate(self, mesh64, rng):
        p = bump_pair(2.0, 0.5, s=0.25)
        prob = make_problem(mesh64, p, 3.2, rng.standard_normal(64),
                            0.2 * rng.standard_normal(64))
        sol = solve_poisson(prob)
        assert sol.converged
        dx = mesh64.cell_width
        interior = np.where(mesh64.interior_mask)[0]
        for k in interior[::7]:
            phi = grid(mesh64, np.eye(64)[k])
            res = weak_form(sol.u.u, phi, prob.weights) - dx * prob.h.values[k]
            assert abs(res) <= prob.tolerances.el_residual * 1.001

    def test_uniqueness_two_initializations(self, mesh64, rng):
        for pval, s in ((1.5, 0.5), (2.0, 0.4), (3.0, 0.28)):
            prob = make_problem(mesh64, const_pair(pval, s), pval + 0.9,
                                rng.standard_normal(64), 0.2 * rng.standard_normal(64))
            inits = []
            for _ in range(2):
                vals = prob.g.values.copy()
                vals[mesh64.interior_mask] = rng.standard_normal(int(mesh64.interior_mask.sum()))
                inits.append(grid(mesh64, vals))
            s1 = solve_poisson(prob, initial=inits[0])
            s2 = solve_poisson(prob, initial=inits[1])
            assert s1.converged and s2.converged
            assert np.max(np.abs(s1.u.u.values - s2.u.u.values)) < 1e-6

    def test_energy_monotone_along_iterates(self, mesh64, rng):
        p = bump_pair(2.0, 0.5, s=0.25)
        prob = make_problem(mesh64, p, 3.2, rng.standard_normal(64), np.zeros(64))
        sol = solve_poisson(prob)
        hist = np.asarray(sol.energy_history)
        assert sol.converged
        drops = np.diff(hist)
        assert np.all(drops <= 1e-12 * (1.0 + np.abs(hist[:-1])))

    def test_g_shift_translation_no_tails(self, mesh64, rng):
        # with tails suppressed and constant p, shifting g by c shifts u by c
        p = const_pair(2.0, 0.4)
        W = zero_tails(assemble_weights(mesh64, p))
        h = grid(mesh64, rng.standard_normal(64))
        g0 = grid(mesh64, 0.3 * rng.standard_normal(64))
        base = PoissonProblem(mesh=mesh64, weights=W, p=p, r=const_scalar(3.0), h=h, g=g0)
        shifted = base.with_g(grid(mesh64, g0.values + 2.5))
        s0 = solve_poisson(base)
        s1 = solve_poisson(shifted)
        assert s0.converged and s1.converged
        assert np.allclose(s1.u.u.values, s0.u.u.values + 2.5, atol=1e-7)

    def test_coercivity_along_rays(self, mesh64, rng):
        p = bump_pair(2.0, 0.5, s=0.25)
        prob = make_problem(mesh64, p, 3.2, rng.standard_normal(64), np.zeros(64))
        for _ in range(20):
            v = random_w0(rng, mesh64)
            energies = [energy(grid(mesh64, t * v.values), prob) for t in (10.0, 100.0, 1000.0)]
            assert energies[0] < energies[1] < energies[2]

    @pytest.mark.parametrize("el_residual", (0.0, -1e-8, math.inf, math.nan))
    def test_tolerance_must_be_finite_and_positive(self, el_residual):
        # an infinite tolerance certifies any field, a nan one none
        with pytest.raises(ValueError, match="positive and finite"):
            Tolerances(el_residual=el_residual)

    def test_boolean_tolerance_rejected(self):
        # True would be read as 1.0 and certify an unsolved field after 0 iterations
        with pytest.raises(ValueError, match="positive and finite"):
            Tolerances(el_residual=True)

    @pytest.mark.parametrize("max_iter", (2.5, True))
    def test_max_iter_must_be_an_integer(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be a positive integer"):
            Tolerances(max_iter=max_iter)

    def test_nonconvergence_is_reported(self, mesh64):
        # p = 2 converges in one iteration, so use a nonlinear exponent
        prob = make_problem(mesh64, const_pair(3.0, 0.28), 4.0,
                            np.ones(64), np.zeros(64), el_residual=1e-8, max_iter=1)
        sol = solve_poisson(prob)
        assert not sol.converged
        assert sol.iterations == 1
        assert sol.el_residual > prob.tolerances.el_residual


class TestEquivalence:
    def test_minimizer_passes(self, mesh64, rng):
        p = bump_pair(2.0, 0.5, s=0.25)
        prob = make_problem(mesh64, p, 3.2, rng.standard_normal(64),
                            0.2 * rng.standard_normal(64))
        sol = solve_poisson(prob)
        check = minimizer_equivalence_check(sol, prob, trials=100, rng=rng)
        assert check.passed

    def test_perturbed_field_fails(self, mesh64, rng):
        prob = make_problem(mesh64, const_pair(2.0, 0.4), 3.0,
                            np.ones(64), np.zeros(64))
        sol = solve_poisson(prob)
        bad = sol.u.u.values.copy()
        bad[mesh64.interior_mask] += 0.05
        sol.u.u.values[:] = bad
        check = minimizer_equivalence_check(sol, prob, trials=200, rng=rng)
        assert not check.passed


class TestEstimate:
    def test_zero_family_feasible_at_origin(self, mesh64):
        prob = make_problem(mesh64, const_pair(2.0, 0.4), 3.0, np.zeros(64), np.zeros(64))
        family = [GridFunction.zeros(mesh64) for _ in range(8)]
        report = lr_estimate_check(family, prob)
        assert report.feasible and report.holdout_passed
        assert report.k1 == pytest.approx(0.0, abs=1e-12)
        assert report.k2 == pytest.approx(0.0, abs=1e-12)

    def test_scaled_family_linear_case(self, mesh64):
        # p constant: (p+-1)/(p--1) = 1, u scales linearly with h, so the
        # bound is affine and the holdout must pass
        base = np.cos(2.0 * mesh64.cell_centers)
        family = [grid(mesh64, k * base) for k in np.linspace(0.25, 4.0, 16)]
        prob = make_problem(mesh64, const_pair(2.0, 0.4), 3.0, np.zeros(64), np.zeros(64))
        report = lr_estimate_check(family, prob)
        assert report.feasible
        assert report.holdout_passed
        # linearity: a_k proportional to b_k, intercept negligible
        a, b = np.array(report.train_pairs).T
        ratio = a / b
        assert np.allclose(ratio, ratio[0], rtol=1e-6)

    def test_norm_scaling_sanity(self, mesh64):
        prob = make_problem(mesh64, const_pair(2.0, 0.4), 3.0,
                            np.ones(64), np.zeros(64))
        sol = solve_poisson(prob)
        r = prob.r
        rc = conjugate_exponent(r)
        un = luxemburg_norm(sol.u.u, r, mesh64.interior_mask)
        hn = luxemburg_norm(prob.h, rc, mesh64.interior_mask)
        assert un > 0 and hn > 0


class TestContinuity:
    def test_solution_map_continuity(self, mesh64, rng):
        p = const_pair(2.0, 0.4)
        prob = make_problem(mesh64, p, 3.0, np.zeros(64), 0.1 * rng.standard_normal(64))
        h0 = grid(mesh64, rng.standard_normal(64))
        u0 = solve_poisson(prob.with_h(h0)).u.u
        r = prob.r
        for _ in range(5):
            direction = rng.standard_normal(64)
            dists = []
            for delta in (0.4, 0.2, 0.1, 0.05):
                hn = grid(mesh64, h0.values + delta * direction)
                un = solve_poisson(prob.with_h(hn)).u.u
                diff = grid(mesh64, un.values - u0.values)
                dists.append(luxemburg_norm(diff, r, mesh64.interior_mask))
            assert all(a > b for a, b in zip(dists, dists[1:]))
            # linear problem: distance is proportional to the perturbation size
            assert dists[-1] == pytest.approx(0.125 * dists[0], rel=1e-3)


class TestInitialGuess:
    def test_mean_fill(self, mesh64, rng):
        g = grid(mesh64, rng.standard_normal(64))
        prob = make_problem(mesh64, const_pair(2.0, 0.4), 3.0, np.zeros(64), g.values)
        start = initial_guess(prob)
        ext = mesh64.exterior_mask
        assert np.array_equal(start.values[ext], g.values[ext])
        assert np.allclose(start.values[mesh64.interior_mask], g.values[ext].mean())


def _two_interval_problem(rng):
    mesh = build_mesh(2.0, 64, [(-1.6, -0.4), (0.2, 1.3)])
    return make_problem(mesh, bump_pair(2.0, 0.5, s=0.25), 3.2,
                        rng.standard_normal(64), 0.3 * rng.standard_normal(64))


def _shell_problem(rng, p=None, r_value=3.2):
    # the middle shell of a decomposition: other interior cells act as data
    mesh = build_mesh(2.0, 64, [(-1.0, 1.0)])
    p = p or bump_pair(2.0, 0.5, s=0.25)
    W = assemble_weights(mesh, p)
    shell = restrict_interior(mesh, shell_partition(mesh, 3)[1])
    Ws = KernelWeights(mesh=shell, w=W.w, p_pair=W.p_pair, tail=W.tail)
    return PoissonProblem(mesh=shell, weights=Ws, p=p, r=const_scalar(r_value),
                          h=grid(shell, rng.standard_normal(64)),
                          g=grid(shell, rng.standard_normal(64)))


def _class_problem(kind, rng):
    mesh = build_mesh(2.0, 64, [(-1.0, 1.0)])
    h, g = rng.standard_normal(64), 0.3 * rng.standard_normal(64)
    if kind == "p1_5":
        return make_problem(mesh, const_pair(1.5, 0.5), 2.2, h, g)
    if kind == "p3":
        return make_problem(mesh, const_pair(3.0, 0.28), 4.0, h, g)
    if kind == "gauss_bump":
        return make_problem(mesh, bump_pair(2.0, 0.5, s=0.25), 3.2, h, g)
    if kind == "affine":  # p from 1.7 to 2.3 across Omega
        p = pair_exponent("affine", {"base": 2.0, "slope": 0.3}, s=0.3, R=2.0)
        return make_problem(mesh, p, 3.0, h, g)
    if kind == "two_intervals":
        return _two_interval_problem(rng)
    return _shell_problem(rng)


SOLVER_CLASSES = ("p1_5", "p3", "gauss_bump", "affine", "two_intervals", "shell")


class TestInteriorBlockSolver:
    @pytest.mark.parametrize("kind", SOLVER_CLASSES)
    def test_energy_and_residual_match_reference(self, kind, rng):
        prob = _class_problem(kind, rng)
        sol = solve_poisson(prob)
        assert sol.converged
        assert sol.energy == pytest.approx(energy(sol.u, prob), rel=1e-12)
        grad = energy_gradient(sol.u, prob).values
        assert np.max(np.abs(grad)) <= prob.tolerances.el_residual
        assert sol.cg_iterations >= sol.iterations

    @pytest.mark.parametrize("kind", SOLVER_CLASSES)
    def test_energy_history_monotone(self, kind, rng):
        prob = _class_problem(kind, rng)
        sol = solve_poisson(prob)
        hist = np.asarray(sol.energy_history)
        assert sol.converged
        assert len(hist) == sol.iterations + 1
        assert hist[-1] == sol.energy
        assert np.all(np.diff(hist) <= 1e-12 * (1.0 + np.abs(hist[:-1])))

    @pytest.mark.parametrize("build", ("box", "two_intervals", "shell", "warm", "reused"))
    def test_p_two_takes_one_iteration(self, build, rng):
        p = const_pair(2.0, 0.4)
        initial = None
        if build == "shell":
            prob = _shell_problem(rng, p=p, r_value=3.0)
        else:
            omega = [(-1.6, -0.4), (0.2, 1.3)] if build == "two_intervals" else [(-1.0, 1.0)]
            mesh = build_mesh(2.0, 64, omega)
            prob = make_problem(mesh, p, 3.0, rng.standard_normal(64),
                                0.3 * rng.standard_normal(64))
        block = poisson_module._InteriorBlock(prob.mesh, prob.weights)
        if build in ("warm", "reused"):
            # a nearby solution as the start, as in the Picard and shell sweeps
            cold = solve_poisson(prob, _block=block)
            initial = cold.u.u
            prob = prob.with_h(grid(mesh, prob.h.values + 1e-3 * rng.standard_normal(64)))
        # a fresh block per call for "warm", the cold solve's block for "reused"
        sol = solve_poisson(prob, initial=initial, _block=block if build == "reused" else None)
        assert sol.converged
        assert sol.iterations == 1
        assert sol.backtracks == 0
        # CG stops at an absolute residual, so certify the field independently
        grad = energy_gradient(sol.u, prob).values
        assert np.max(np.abs(grad)) <= prob.tolerances.el_residual
        if build == "warm":
            # the 32 interior unknowns fit one preconditioner block, which is
            # then the exact inverse: cold or warm, CG takes one step
            assert sol.cg_iterations == cold.cg_iterations == 1
        if build == "reused":
            # the direction comes from the factored Hessian, not from CG
            assert sol.cg_iterations == 0

    @pytest.mark.parametrize("kind", ("p1_5", "gauss_bump", "affine", "shell"))
    def test_block_reused_across_h_matches_fresh_solves(self, kind, rng):
        prob = _class_problem(kind, rng)
        block = poisson_module._InteriorBlock(prob.mesh, prob.weights)
        warm = None
        for scale in (1.0, 1.1, 0.9):
            step = prob.with_h(grid(prob.mesh, scale * prob.h.values))
            reused = solve_poisson(step, initial=warm, _block=block)
            fresh = solve_poisson(step, initial=warm)
            assert reused.converged
            assert np.array_equal(reused.u.u.values, fresh.u.u.values)
            assert reused.energy == fresh.energy
            assert (reused.iterations, reused.cg_iterations, reused.backtracks) == \
                (fresh.iterations, fresh.cg_iterations, fresh.backtracks)
            warm = reused.u.u

    @pytest.mark.parametrize("kind", ("p2", "p1_5", "gauss_bump", "shell"))
    def test_block_reused_across_g_reports_reference_energy(self, kind, rng):
        if kind == "p2":
            mesh = build_mesh(2.0, 64, [(-1.0, 1.0)])
            prob = make_problem(mesh, const_pair(2.0, 0.4), 3.0, rng.standard_normal(64),
                                0.3 * rng.standard_normal(64))
        else:
            prob = _class_problem(kind, rng)
        block = poisson_module._InteriorBlock(prob.mesh, prob.weights)
        first = prob.g
        data = [first] + [grid(prob.mesh, c * rng.standard_normal(64)) for c in (1.0, 0.1)]
        for g in data + [first]:
            swapped = prob.with_g(g)
            sol = solve_poisson(swapped, _block=block)
            assert sol.converged
            assert sol.energy == pytest.approx(energy(sol.u, swapped), rel=1e-12)

    @pytest.mark.parametrize("kind", ("p2", "p1_5"))
    def test_public_call_keeps_no_state(self, kind, rng, monkeypatch):
        if kind == "p2":
            mesh = build_mesh(2.0, 64, [(-1.0, 1.0)])
            prob = make_problem(mesh, const_pair(2.0, 0.4), 3.0, rng.standard_normal(64),
                                0.3 * rng.standard_normal(64))
        else:
            prob = _class_problem(kind, rng)
        factors = []
        original = np.linalg.cholesky

        def counting(a):
            factors.append(a.shape)
            return original(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        first, second = solve_poisson(prob), solve_poisson(prob)
        # no memo on the problem or the weights: the second call repeats the
        # first one's CG work, and a one-off solve never factors
        assert factors == []
        assert first.cg_iterations > 0
        assert (second.iterations, second.cg_iterations) == (first.iterations, first.cg_iterations)
        assert np.array_equal(second.u.u.values, first.u.u.values)

    @pytest.mark.parametrize("max_iter", (1, 2, 3, 5))
    def test_residual_describes_returned_field_at_max_iter(self, max_iter, rng):
        prob = _class_problem("p1_5", rng)
        prob = PoissonProblem(mesh=prob.mesh, weights=prob.weights, p=prob.p, r=prob.r,
                              h=prob.h, g=prob.g, tolerances=Tolerances(max_iter=max_iter))
        sol = solve_poisson(prob)
        assert sol.iterations == max_iter
        recomputed = float(np.max(np.abs(energy_gradient(sol.u, prob).values)))
        assert sol.el_residual == pytest.approx(recomputed, rel=1e-9)
        assert sol.converged == (recomputed <= prob.tolerances.el_residual)
        assert sol.energy == pytest.approx(energy(sol.u, prob), rel=1e-12)

    def test_construction_and_with_data_do_not_validate_growth(self, linear_problem, mesh64, monkeypatch):
        calls = []
        original = poisson_module.validate_growth_pair

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(poisson_module, "validate_growth_pair", counting)
        zero = GridFunction.zeros(mesh64)
        swapped = linear_problem.with_h(zero).with_g(zero)
        assert calls == []
        assert swapped.h is zero and swapped.g is zero
        assert swapped.weights is linear_problem.weights
        PoissonProblem(mesh=mesh64, weights=linear_problem.weights, p=linear_problem.p,
                       r=linear_problem.r, h=zero, g=zero)
        assert calls == []

    def test_growth_exponent_is_not_read(self, rng):
        prob = _class_problem("gauss_bump", rng)
        without = PoissonProblem(mesh=prob.mesh, weights=prob.weights, p=prob.p, h=prob.h,
                                 g=prob.g)
        assert without.r is None and prob.r is not None
        assert np.array_equal(solve_poisson(without).u.u.values, solve_poisson(prob).u.u.values)


def _study_problem(kind, n):
    """The scaling problem of scripts/bench_layers.py's solve_poisson entries:
    box [-2, 2], Omega = (-1, 1), s = 0.3, h = 1 + sin 3x, g = 0.2 cos x."""
    exponent, params = {"p1_3": ("constant", {"value": 1.3}),
                        "p1_5": ("constant", {"value": 1.5}),
                        "p2": ("constant", {"value": 2.0}),
                        "p3": ("constant", {"value": 3.0}),
                        "gauss_bump": ("gauss_bump", {"base": 2.0, "amplitude": 0.5, "width": 1.0}),
                        "affine": ("affine", {"base": 2.0, "slope": 0.2})}[kind]
    mesh = build_mesh(2.0, n, [(-1.0, 1.0)])
    x = mesh.cell_centers
    p = pair_exponent(exponent, params, s=0.3, R=2.0)
    return PoissonProblem(mesh=mesh, weights=assemble_weights(mesh, p), p=p,
                          h=grid(mesh, 1.0 + np.sin(3.0 * x)), g=grid(mesh, 0.2 * np.cos(x)))


# "shell": the middle of three shells of (-1, 1), with exterior columns on both sides
OMEGAS = {"one": [(-1.0, 1.0)], "three": [(-1.7, -1.1), (-0.6, 0.2), (0.7, 1.5)],
          "shell": [(-1.0, 1.0)]}


def _oracle_problem(kind, omega, rng):
    mesh = build_mesh(2.0, 64, OMEGAS[omega])
    p, r_value = {"p1_1": (const_pair(1.1, 0.5), 1.6),
                  "p1_5": (const_pair(1.5, 0.5), 2.2),
                  "p2": (const_pair(2.0, 0.4), 3.0),
                  "p3": (const_pair(3.0, 0.28), 4.0),
                  "gauss_bump": (bump_pair(2.0, 0.5, s=0.25), 3.2),
                  "affine": (pair_exponent("affine", {"base": 2.0, "slope": 0.3}, s=0.3, R=2.0),
                             2.6)}[kind]
    prob = make_problem(mesh, p, r_value, rng.standard_normal(64), 0.3 * rng.standard_normal(64))
    if omega != "shell":
        return prob
    shell = restrict_interior(mesh, shell_partition(mesh, 3)[1])
    W = prob.weights
    return PoissonProblem(mesh=shell, weights=KernelWeights(mesh=shell, w=W.w, p_pair=W.p_pair,
                                                            tail=W.tail),
                          p=p, r=prob.r, h=grid(shell, prob.h.values), g=grid(shell, prob.g.values))


def _dense_model_hessian(prob, v, floor):
    """2 (diag(sum_j M_ij + dx tau_i) - M on the interior pairs) over the full
    n x n pair matrix, M = max(p-1, 1) w max(|d|, floor)^{p-2} and, with the
    same floor, tau = max(pbar-1, 1) tail max(|u|, floor)^{pbar-2}."""
    W, mesh = prob.weights, prob.mesh
    rows = np.flatnonzero(mesh.interior_mask)
    p, p_bar = W.p_pair[rows], W.p_bar[rows]
    M = (np.maximum(p - 1.0, 1.0) * W.w[rows]
         * np.maximum(np.abs(v[rows, None] - v[None, :]), floor) ** (p - 2.0))
    tau = (np.maximum(p_bar - 1.0, 1.0) * W.tail[rows]
           * np.maximum(np.abs(v[rows]), floor) ** (p_bar - 2.0))
    hess = -2.0 * M[:, rows]
    hess[np.diag_indices_from(hess)] = 2.0 * (M.sum(axis=1) + mesh.cell_width * tau)
    return hess


class TestModelFloor:
    # p = 1.1: the most negative p - 2, where an exact tie's weight is the largest
    @pytest.mark.parametrize("kind", ("p1_1", "p1_5", "p2", "p3", "gauss_bump", "affine"))
    @pytest.mark.parametrize("omega", tuple(OMEGAS))
    @pytest.mark.parametrize("block_pairs", (None, 700, 1))
    def test_block_pass_matches_dense_reference(self, kind, omega, block_pairs, rng, monkeypatch):
        if block_pairs is not None:
            # 700: several blocks, m not a multiple of their rows; 1: one row a block
            monkeypatch.setattr(mesh_kernel, "_BLOCK_PAIRS", block_pairs)
        prob = _oracle_problem(kind, omega, rng)
        mesh = prob.mesh
        block = poisson_module._InteriorBlock(mesh, prob.weights)
        rows, ext = block.rows, np.flatnonzero(mesh.exterior_mask)
        spans = [(i0, i1) for i0, i1, *_ in block.blocks]
        if block_pairs is None:
            assert spans == [(0, rows.size)]
        elif block_pairs == 1:
            assert all(i1 - i0 == 1 for i0, i1 in spans) and len(spans) == rows.size
        elif omega == "shell":
            # a shell's few interior rows fit in one block
            assert spans == [(0, rows.size)]
        else:
            assert len({i1 - i0 for i0, i1 in spans}) > 1
        v = np.where(mesh.interior_mask, rng.standard_normal(64), prob.g.values)
        # exact ties d = 0: interior-interior, interior-exterior and a tail
        v[rows[::4]] = v[rows[1]]
        v[rows[2]] = v[ext[0]]
        v[rows[3]] = 0.0
        u = grid(mesh, v)
        source = mesh.cell_width * prob.h.values[rows]
        ref_grad = energy_gradient(u, prob).values[rows]
        diff = np.abs(v[rows, None] - v[None, :])
        for q in (0.1, 0.5, 0.9):
            grad = np.zeros(rows.size)
            e = block._pass(v, grad) - source @ v[rows]
            grad -= source
            assert np.isfinite(e) and np.all(np.isfinite(grad))
            assert e == pytest.approx(energy(u, prob), rel=1e-13, abs=0.0)
            assert np.max(np.abs(grad - ref_grad)) <= 1e-13 * np.max(np.abs(ref_grad))
            floor = float(np.quantile(diff, q))
            assert np.any(diff < floor) and np.any(diff > floor)
            if block.quadratic:
                hess = block._quadratic_hessian()
            else:
                hess = block._model_hessian(floor)
            ref = _dense_model_hessian(prob, v, floor)
            assert np.all(np.isfinite(hess))
            np.testing.assert_allclose(hess, ref, rtol=1e-13, atol=0.0)

    # outer iterations at n = 256 with the residual-tied floor, and with the
    # earlier floor that only halved once per iteration
    @pytest.mark.parametrize("kind,iterations,halving_floor",
                             (("p3", 7, 10), ("gauss_bump", 5, 11), ("affine", 10, 11)))
    def test_residual_tied_floor_cuts_outer_iterations(self, kind, iterations, halving_floor):
        prob = _study_problem(kind, 256)
        sol = solve_poisson(prob)
        assert sol.converged
        assert sol.iterations == iterations < halving_floor
        grad = energy_gradient(sol.u, prob).values
        assert np.max(np.abs(grad)) <= prob.tolerances.el_residual

    # outer iterations at n = 256 for p < 2, whose floor falls by the least
    # decay per step (x0.1), and with a decay of x0.5
    @pytest.mark.parametrize("kind,iterations,halving_decay", (("p1_3", 44, 62), ("p1_5", 23, 25)))
    def test_tenfold_floor_decay_cuts_outer_iterations(self, kind, iterations, halving_decay):
        assert poisson_module._FLOOR_DECAY == 0.1
        prob = _study_problem(kind, 256)
        sol = solve_poisson(prob)
        assert sol.converged
        assert sol.iterations == iterations < halving_decay
        grad = energy_gradient(sol.u, prob).values
        assert np.max(np.abs(grad)) <= prob.tolerances.el_residual

    def test_p_two_never_reaches_the_floor(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the uniform p = 2 model has no floor")

        monkeypatch.setattr(poisson_module, "_floor_weights", fail)
        prob = _study_problem("p2", 128)
        block = poisson_module._InteriorBlock(prob.mesh, prob.weights)

        def fingerprint(sol):
            return (sol.iterations, sol.cg_iterations,
                    hashlib.sha256(sol.u.u.values.tobytes()).hexdigest()[:16])

        # the counts and field hashes date from the block-Jacobi CG (two
        # blocks of 32 interior unknowns)
        cold = solve_poisson(prob)
        first = solve_poisson(prob, _block=block)
        reused = solve_poisson(prob.with_h(grid(prob.mesh, 0.5 * prob.h.values)),
                               initial=first.u.u, _block=block)
        assert fingerprint(cold) == fingerprint(first) == (1, 8, "6ca5b0cb5608cca7")
        assert fingerprint(reused) == (1, 0, "376502e33d7eae68")


class TestEnergyGradient:
    @pytest.mark.parametrize("kind", ("p1_5", "p2", "gauss_bump", "affine"))
    @pytest.mark.parametrize("omega", tuple(OMEGAS))
    @pytest.mark.parametrize("block_pairs", (None, 700, 1))
    def test_interior_rows_match_dense_operator(self, kind, omega, block_pairs, rng,
                                                monkeypatch):
        if block_pairs is not None:
            monkeypatch.setattr(mesh_kernel, "_BLOCK_PAIRS", block_pairs)
        prob = _oracle_problem(kind, omega, rng)
        mesh, W = prob.mesh, prob.weights
        inner, dx = mesh.interior_mask, mesh.cell_width
        rows, ext = np.flatnonzero(inner), np.flatnonzero(~inner)
        v = np.where(inner, rng.standard_normal(64), prob.g.values)
        # exact ties d = 0: interior-interior, interior-exterior and a tail
        v[rows[::4]] = v[rows[1]]
        v[rows[2]] = v[ext[0]]
        v[rows[3]] = 0.0
        u = grid(mesh, v)
        grad = energy_gradient(u, prob).values
        ref = np.where(inner, 2.0 * dx * dense_operator(u, W) - dx * prob.h.values, 0.0)
        scale = 2.0 * dx * dense_operator(u, W, absolute=True) + dx * np.abs(prob.h.values)
        assert np.all(grad[~inner] == 0.0)
        assert np.all(np.abs(grad - ref)[inner] <= 1e-12 * scale[inner])

    def test_no_rows_by_cells_temporary(self):
        # the row blocks' buffers stay near 1.3 MB at any n; one 1024 x 2048
        # array of the interior rows would take 16 MB
        n = 2048
        mesh = build_mesh(2.0, n, [(-1.0, 1.0)])
        prob = make_problem(mesh, const_pair(1.5, 0.3), 2.0, np.ones(n),
                            np.cos(mesh.cell_centers))
        u = grid(mesh, np.sin(3.0 * mesh.cell_centers))
        tracemalloc.start()
        try:
            energy_gradient(u, prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = int(mesh.interior_mask.sum())
        assert peak < m * n * 8 / 4


class TestWarmStart:
    @pytest.mark.parametrize("kind", ("p1_5", "gauss_bump"))
    def test_start_near_the_answer_saves_outer_iterations(self, kind):
        prob = _study_problem(kind, 128)
        cold = solve_poisson(prob)
        inner = prob.mesh.interior_mask
        v = cold.u.u.values.copy()
        v[inner] += 1e-6 * np.random.default_rng(0).standard_normal(int(inner.sum()))
        warm = solve_poisson(prob, initial=grid(prob.mesh, v))
        assert cold.converged and warm.converged
        assert warm.iterations < cold.iterations

    @pytest.mark.parametrize("start", ("cold", "warm_without_load", "warm"))
    def test_first_floor(self, start, monkeypatch):
        floors = []
        original = poisson_module._InteriorBlock._model_hessian

        def recording(block, floor):
            floors.append(floor)
            return original(block, floor)

        monkeypatch.setattr(poisson_module._InteriorBlock, "_model_hessian", recording)
        prob = _study_problem("p1_5", 128)
        initial = None
        if start != "cold":
            # a start near the answer, whose first residual is below the load
            inner = prob.mesh.interior_mask
            near = solve_poisson(prob).u.u.values.copy()
            near[inner] += 1e-4 * np.random.default_rng(0).standard_normal(int(inner.sum()))
            initial = grid(prob.mesh, near)
        if start == "warm_without_load":
            prob = prob.with_h(GridFunction.zeros(prob.mesh))
        floors.clear()
        solve_poisson(prob, initial=initial)
        v = (initial_guess(prob) if initial is None else initial).values
        spread = float(v.max() - v.min())
        # a cold start, or a warm one with no load to compare with, keeps 0.3;
        # a warm one scales it by its first residual over the load
        if start == "warm":
            inner = prob.mesh.interior_mask
            r0 = float(np.max(np.abs(energy_gradient(initial, prob).values)))
            load = prob.mesh.cell_width * float(np.max(np.abs(prob.h.values[inner])))
            assert r0 < load
            assert floors[0] == pytest.approx(0.3 * r0 / load * spread, rel=1e-9)
        else:
            assert floors[0] == 0.3 * spread


class TestBlockJacobiCG:
    @pytest.mark.parametrize("m", (1, 7, 32))
    def test_one_step_when_one_block_covers_the_unknowns(self, m, rng):
        assert m <= poisson_module._PCG_BLOCK
        B = rng.standard_normal((m, m))
        A = B @ B.T + m * np.eye(m)
        rhs = rng.standard_normal(m)
        d, steps = poisson_module._pcg(A, rhs, 1e-10)
        assert steps == 1
        assert np.linalg.norm(A @ d - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_several_blocks_solve_to_the_tolerance(self, rng):
        m = 3 * poisson_module._PCG_BLOCK + 5
        B = rng.standard_normal((m, m))
        A = B @ B.T + m * np.eye(m)
        rhs = rng.standard_normal(m)
        d, steps = poisson_module._pcg(A, rhs, 1e-10)
        assert 1 < steps <= 8 * m
        assert np.linalg.norm(A @ d - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_lost_positive_curvature_stops_at_once(self):
        # the first direction (0, -1) has curvature -1: no step is taken
        d, steps = poisson_module._pcg(np.diag([1.0, -1.0]), np.array([0.0, 1.0]), 1e-10)
        assert steps == 0
        assert np.array_equal(d, np.zeros(2))

    @pytest.mark.parametrize("kind", ("p1_5", "shell"))
    def test_solves_within_one_block_take_one_step_an_iteration(self, kind, rng):
        # 32 interior unknowns at n = 64, and a shell's few
        prob = _class_problem(kind, rng)
        assert int(prob.mesh.interior_mask.sum()) <= poisson_module._PCG_BLOCK
        sol = solve_poisson(prob)
        assert sol.converged
        assert sol.cg_iterations == sol.iterations


def test_estimate_needs_eight_right_hand_sides(mesh16):
    prob = make_problem(mesh16, const_pair(2.0, 0.4), 3.0, np.zeros(16), np.zeros(16))
    family = [GridFunction.zeros(mesh16) for _ in range(7)]
    with pytest.raises(ValueError) as excinfo:
        lr_estimate_check(family, prob)
    assert excinfo.type is ValueError
    assert "estimate protocol needs at least 8 right-hand sides" in str(excinfo.value)


def _assert_documented_outcome(sol, prob):
    """The energy never rises, and converged is the check of the recomputed
    gradient sup against the tolerance."""
    assert np.all(np.diff(sol.energy_history) <= 0.0)
    recomputed = float(np.max(np.abs(energy_gradient(sol.u, prob).values)))
    assert sol.converged == (recomputed <= prob.tolerances.el_residual)


class TestSolverStops:
    """The guards of the outer iteration, each forced by a patched direction
    or energy.  A model direction is built at the accepted point, which is
    always the last evaluated one, and its first trial takes the full step."""

    @staticmethod
    def _record(monkeypatch, scale):
        """Patch ``_pcg`` to return ``scale`` times its direction; returns the
        fields and gradients of every evaluation and, per direction, the
        number of evaluations made before it and its sup-norm."""
        evaluated, directions = [], []
        pcg, evaluate = poisson_module._pcg, poisson_module._InteriorBlock._evaluate

        def scaled_pcg(A, rhs, rtol):
            d, steps = pcg(A, rhs, rtol)
            directions.append((len(evaluated), float(np.max(np.abs(scale * d)))))
            return scale * d, steps

        def recording(self, v, source):
            e, grad = evaluate(self, v, source)
            evaluated.append((v.copy(), grad.copy()))
            return e, grad

        monkeypatch.setattr(poisson_module, "_pcg", scaled_pcg)
        monkeypatch.setattr(poisson_module._InteriorBlock, "_evaluate", recording)
        return evaluated, directions

    def test_a_long_direction_is_capped(self, rng, monkeypatch):
        prob = _class_problem("p1_5", rng)
        evaluated, directions = self._record(monkeypatch, 1e6)
        sol = solve_poisson(prob)
        _assert_documented_outcome(sol, prob)
        assert sol.converged
        capped = 0
        for count, dn in directions:
            vals, trial = evaluated[count - 1][0], evaluated[count][0]
            cap = 10.0 * (1.0 + float(np.max(np.abs(vals))))
            # the first trial's step is the direction, cut down to the cap
            assert float(np.max(np.abs(trial - vals))) == pytest.approx(min(dn, cap), rel=1e-9)
            capped += dn > cap
        assert capped >= 1

    def test_an_ascent_direction_falls_back_to_steepest_descent(self, rng, monkeypatch):
        prob = replace(_class_problem("p1_5", rng), tolerances=Tolerances(max_iter=5))
        evaluated, directions = self._record(monkeypatch, -1.0)
        sol = solve_poisson(prob)
        _assert_documented_outcome(sol, prob)
        assert sol.iterations == len(directions) == 5
        rows = np.flatnonzero(prob.mesh.interior_mask)
        for count, _ in directions:
            (vals, grad), trial = evaluated[count - 1], evaluated[count][0]
            expected = vals.copy()
            expected[rows] += 1.0 * -grad
            assert np.array_equal(trial, expected)

    def test_no_accepted_step_stops_at_the_start(self, rng, monkeypatch):
        prob = replace(_class_problem("p1_5", rng), tolerances=Tolerances(max_iter=3))
        evaluate = poisson_module._InteriorBlock._evaluate
        calls = []

        def infinite_after_the_first(self, v, source):
            e, grad = evaluate(self, v, source)
            calls.append(None)
            return (e if len(calls) == 1 else math.inf), grad

        monkeypatch.setattr(poisson_module._InteriorBlock, "_evaluate", infinite_after_the_first)
        sol = solve_poisson(prob)
        _assert_documented_outcome(sol, prob)
        assert not sol.converged and sol.iterations == 1
        assert np.array_equal(sol.u.u.values, initial_guess(prob).values)
        # every halving down to the smallest step was tried
        assert sol.backtracks == len(calls) - 1 > 60

    def test_estimate_family_with_failing_solves_is_infeasible(self, mesh64):
        prob = make_problem(mesh64, const_pair(1.5, 0.5), 2.2, np.zeros(64), np.zeros(64),
                            max_iter=1)
        base = np.cos(2.0 * mesh64.cell_centers)
        family = [grid(mesh64, k * base) for k in np.linspace(0.25, 4.0, 8)]
        assert not solve_poisson(prob.with_h(family[0])).converged
        report = lr_estimate_check(family, prob)
        assert not report.feasible
        assert report.detail == "solver non-convergence inside estimate family"
        assert (report.k1, report.k2, report.train_pairs) == (0.0, 0.0, [])
