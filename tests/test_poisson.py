import hashlib

import numpy as np
import pytest

from fpxlap import (GridFunction, KernelWeights, PoissonProblem, Tolerances,
                    assemble_weights, build_mesh, energy, energy_gradient,
                    gagliardo_modular, lr_estimate_check, luxemburg_norm,
                    minimizer_equivalence_check, restrict_interior, shell_partition,
                    solve_poisson, weak_form)
from fpxlap import poisson as poisson_module
from fpxlap.catalog import pair_exponent, scalar_exponent
from fpxlap.exponents import conjugate_exponent
from fpxlap.poisson import initial_guess

from util import bump_pair, const_pair, const_scalar, grid, random_w0, zero_tails


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
            u = grid(mesh64, rng.standard_normal(64))
            source = dx * float(np.sum(prob.h.values[mesh64.interior_mask]
                                       * u.values[mesh64.interior_mask]))
            lower = gagliardo_modular(u, prob.weights) / prob.weights.p_plus - source
            assert energy(u, prob) >= lower - 1e-12


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
            assert 0 < sol.cg_iterations < cold.cg_iterations
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
    def test_block_recomputes_exterior_energy_after_with_g(self, kind, rng):
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

    def test_with_data_skips_growth_validation(self, linear_problem, mesh64, monkeypatch):
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
        assert len(calls) == 1


def _study_problem(kind, n):
    """The data form of scripts/poisson_scaling_study.py: box [-2, 2],
    Omega = (-1, 1), s = 0.3, h = 1 + sin 3x, g = 0.2 cos x."""
    exponents = {"p2": (("constant", {"value": 2.0}), 3.0),
                 "p3": (("constant", {"value": 3.0}), 3.5),
                 "gauss_bump": (("gauss_bump", {"base": 2.0, "amplitude": 0.5, "width": 1.0}), 3.0),
                 "affine": (("affine", {"base": 2.0, "slope": 0.2}), 2.8)}
    (exponent, params), r_value = exponents[kind]
    mesh = build_mesh(2.0, n, [(-1.0, 1.0)])
    x = mesh.cell_centers
    p = pair_exponent(exponent, params, s=0.3, R=2.0)
    return PoissonProblem(mesh=mesh, weights=assemble_weights(mesh, p), p=p,
                          r=scalar_exponent("constant", {"value": r_value}, 2.0),
                          h=grid(mesh, 1.0 + np.sin(3.0 * x)), g=grid(mesh, 0.2 * np.cos(x)))


class TestModelFloor:
    @pytest.mark.parametrize("kind", ("p1_5", "p3", "gauss_bump", "affine"))
    def test_weights_from_power_match_reference(self, kind, rng):
        prob = _class_problem(kind, rng)
        block = poisson_module._InteriorBlock(prob.mesh, prob.weights)
        v = np.where(prob.mesh.interior_mask, rng.standard_normal(64), prob.g.values)
        x = v[block.rows]
        diff = x[:, None] - v[None, :]
        # the powers the solver keeps from its accepted point
        power, tail_power = np.abs(diff) ** block.p_rows, np.abs(x) ** block.p_bar
        for q in (0.1, 0.5, 0.9):
            floor = float(np.quantile(np.abs(diff), q))
            assert np.any(np.abs(diff) < floor) and np.any(np.abs(diff) > floor)
            got = poisson_module._lagged_weights(power, diff, floor, block.p_rows) * block.w_model
            ref = np.maximum(np.abs(diff), floor) ** (block.p_rows - 2.0) * block.w_model
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)
            floor = float(np.quantile(np.abs(x), q))
            got = poisson_module._lagged_weights(tail_power, x, floor, block.p_bar)
            ref = np.maximum(np.abs(x), floor) ** (block.p_bar - 2.0)
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)

    # outer iterations at n = 256 with the residual-tied floor, and with the
    # earlier floor that only halved once per iteration
    @pytest.mark.parametrize("kind,iterations,halving_floor",
                             (("p3", 7, 10), ("gauss_bump", 6, 11), ("affine", 10, 11)))
    def test_residual_tied_floor_cuts_outer_iterations(self, kind, iterations, halving_floor):
        prob = _study_problem(kind, 256)
        sol = solve_poisson(prob)
        assert sol.converged
        assert sol.iterations == iterations < halving_floor
        grad = energy_gradient(sol.u, prob).values
        assert np.max(np.abs(grad)) <= prob.tolerances.el_residual

    def test_p_two_never_reaches_the_floor(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the uniform p = 2 model has no floor")

        monkeypatch.setattr(poisson_module, "_lagged_weights", fail)
        prob = _study_problem("p2", 128)
        block = poisson_module._InteriorBlock(prob.mesh, prob.weights)

        def fingerprint(sol):
            return (sol.iterations, sol.cg_iterations,
                    hashlib.sha256(sol.u.u.values.tobytes()).hexdigest()[:16])

        # recorded with the halving floor: p = 2 fields and counts are bit-identical
        cold = solve_poisson(prob)
        first = solve_poisson(prob, _block=block)
        reused = solve_poisson(prob.with_h(grid(prob.mesh, 0.5 * prob.h.values)),
                               initial=first.u.u, _block=block)
        assert fingerprint(cold) == fingerprint(first) == (1, 31, "15ad93a21c2c8f45")
        assert fingerprint(reused) == (1, 0, "6408386f66c329bd")
