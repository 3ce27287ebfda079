"""Semilinear layer: Nemytsky operator, Picard fixed point, shell solver.

The fixed-point map composes the Poisson solution map with the Nemytsky
operator; Picard iteration drives h_{k+1} = (1-theta) h_k + theta N_f(T(h_k))
until the conjugate-norm increment is negligible.  theta starts undamped at
its cap (1 by default) and is halved whenever the increments keep growing.
The shell solver splits the interior into contiguous equal-measure blocks
and performs sequential block solves.  One sweep over the shells is a map
on the interior values, and its iterates are Anderson-mixed under a
residual safeguard until the global semilinear residual meets its target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checks import CheckResult
from .exponents import (ExponentError, ExponentField, ScalarExponent, conjugate_exponent,
                        trace_exponent)
from .lebesgue import GridFunction, luxemburg_norm
from .mesh_kernel import KernelWeights, Mesh, restrict_interior
from .poisson import (PoissonProblem, PoissonSolution, _InteriorBlock, energy as poisson_energy,
                      energy_gradient, initial_guess, solve_poisson)
from .sobolev import DirichletPair


class GrowthError(ValueError):
    """Nonlinearity rejected by the sampled growth screen."""


class NemytskyError(RuntimeError):
    """Nemytsky evaluation produced a non-finite value."""


class DecompositionError(RuntimeError):
    def __init__(self, shell: int, sweep: int, message: str):
        super().__init__(f"shell {shell} (sweep {sweep}): {message}")
        self.shell = shell
        self.sweep = sweep


@dataclass(frozen=True)
class Nonlinearity:
    """Carathéodory-type right-hand side f(x, t) with declared growth data."""

    evaluator: object
    a: GridFunction
    c_growth: float

    def __post_init__(self):
        if self.c_growth < 0:
            raise GrowthError("growth constant must be nonnegative")
        if np.any(self.a.values < 0):
            raise GrowthError("growth offset a(x) must be nonnegative")

    def __call__(self, x, t):
        return self.evaluator(x, t)


# the t values of growth_screen: 0 and +-10^-3 .. 10^3, 25 per sign
_T_LATTICE = np.concatenate([-np.logspace(3, -3, 25), [0.0], np.logspace(-3, 3, 25)])
_BOUND_TOL = 1e-12             # excess forgiven by growth_screen and nemytsky_bound_check
_CALIBRATION_SAMPLES = 64      # fields drawn by calibrate_nemytsky_constant
_CALIBRATION_HEADROOM = 1.05   # factor it applies to their worst ratio


def growth_screen(f: Nonlinearity, mesh: Mesh, p: ExponentField) -> CheckResult:
    """Sampled check of |f(x,t)| <= a(x) + C |t|^{pbar(x)-1} on interior
    cells, at every t of ``_T_LATTICE``."""
    centers = mesh.cell_centers[mesh.interior_mask]
    pbar = p.trace_values(centers)
    avals = f.a.values[mesh.interior_mask]
    ts = _T_LATTICE[None, :]
    fv = np.asarray(f.evaluator(centers[:, None], ts), dtype=float)
    fv = fv * np.ones((centers.size, ts.size))
    if not np.all(np.isfinite(fv)):
        raise NemytskyError("nonlinearity produced non-finite values on the screen lattice")
    bound = avals[:, None] + f.c_growth * np.abs(ts) ** (pbar[:, None] - 1.0)
    defect = float(np.max(np.abs(fv) - bound))
    return CheckResult(
        name="growth_screen",
        passed=defect <= _BOUND_TOL,
        value=defect,
        bound=0.0,
        slack=-defect,
    )


def require_growth(f: Nonlinearity, mesh: Mesh, p: ExponentField) -> None:
    check = growth_screen(f, mesh, p)
    if not check.passed:
        raise GrowthError(
            f"nonlinearity violates the growth bound by {check.value:.3e} on the sample lattice"
        )


def nemytsky(f: Nonlinearity, u: GridFunction) -> GridFunction:
    """(N_f u)_i = f(x_i, u_i) on interior cells, zero elsewhere."""
    mesh = u.mesh
    mask = mesh.interior_mask
    out = np.zeros(mesh.n_cells)
    vals = np.asarray(f.evaluator(mesh.cell_centers[mask], u.values[mask]), dtype=float)
    vals = vals * np.ones(int(mask.sum()))
    bad = ~np.isfinite(vals)
    if bad.any():
        cell = int(np.where(mask)[0][np.argmax(bad)])
        raise NemytskyError(f"non-finite Nemytsky output at cell {cell}")
    out[mask] = vals
    return GridFunction(mesh, out)


def gamma_exponent(r: ScalarExponent, p: ExponentField) -> ScalarExponent:
    """gamma(x) = pbar(x) r(x) / (r(x) - pbar(x)); needs r > pbar pointwise.

    Since gamma = 1/(1/pbar - 1/r), its declared range follows from the
    extreme combinations of the constituent bounds.
    """
    pbar = trace_exponent(p)
    gap_min = 1.0 / p.p_plus - 1.0 / r.lower
    gap_max = 1.0 / p.p_minus - 1.0 / r.upper
    if gap_min <= 0.0:
        raise ExponentError(
            f"gamma exponent needs r- > pbar+ on declared bounds (r- = {r.lower}, "
            f"pbar+ <= {p.p_plus})"
        )

    def ev(x):
        pv = pbar.evaluator(x)
        rv = r.evaluator(x)
        return pv * rv / (rv - pv)

    return ScalarExponent(evaluator=ev, lower=1.0 / gap_max, upper=1.0 / gap_min)


def measure_constant(mesh: Mesh, gamma: ScalarExponent) -> float:
    """C_Omega = 2 max(|O|^(1/gamma+), |O|^(1/gamma-)) on the interior."""
    mask = mesh.interior_mask
    measure = float(mask.sum()) * mesh.cell_width
    gvals = gamma.values(mesh.cell_centers[mask])
    g_lo, g_hi = float(gvals.min()), float(gvals.max())
    return 2.0 * max(measure ** (1.0 / g_hi), measure ** (1.0 / g_lo))


def _bound_bracket(f: Nonlinearity, u: GridFunction, r: ScalarExponent,
                   p: ExponentField, mesh: Mesh) -> tuple[float, float]:
    """Returns (||N_f u||_{r'}, bracket) with the constant factored out."""
    mask = mesh.interior_mask
    rc = conjugate_exponent(r)
    lhs = luxemburg_norm(nemytsky(f, u), rc, mask)
    pbar = trace_exponent(p)
    pbar_c = conjugate_exponent(pbar)
    a_norm = luxemburg_norm(f.a, pbar_c, mask)
    c_om = measure_constant(mesh, gamma_exponent(r, p))
    u_norm = luxemburg_norm(u, r, mask)
    pm = p.pair_matrix(mesh.cell_centers)
    p_minus, p_plus = float(pm.min()), float(pm.max())
    bracket = a_norm + (c_om * u_norm) ** (p_plus - 1.0) + (c_om * u_norm) ** (p_minus - 1.0)
    return lhs, bracket


def calibrate_nemytsky_constant(f: Nonlinearity, r: ScalarExponent, p: ExponentField,
                                mesh: Mesh, rng: np.random.Generator) -> float:
    """Freeze the bound constant as the worst calibration ratio plus headroom.

    The ``_CALIBRATION_SAMPLES`` calibration fields span amplitudes 1e-3..1e3
    so both power regimes of the bracket are exercised before the constant is
    frozen at ``_CALIBRATION_HEADROOM`` times the worst ratio.
    """
    worst = 0.0
    for scale in np.logspace(-3, 3, _CALIBRATION_SAMPLES):
        raw = np.zeros(mesh.n_cells)
        raw[mesh.interior_mask] = scale * rng.standard_normal(int(mesh.interior_mask.sum()))
        lhs, bracket = _bound_bracket(f, GridFunction(mesh, raw), r, p, mesh)
        if bracket > 0:
            worst = max(worst, lhs / bracket)
    return worst * _CALIBRATION_HEADROOM if worst > 0 else _CALIBRATION_HEADROOM


def nemytsky_bound_check(f: Nonlinearity, u: GridFunction, r: ScalarExponent,
                         p: ExponentField, c_frozen: float) -> CheckResult:
    """||N_f u||_{r'} <= C (||a||_{pbar'} + (C_Om ||u||_r)^{p+-1} + (C_Om ||u||_r)^{p--1})."""
    lhs, bracket = _bound_bracket(f, u, r, p, u.mesh)
    bound = c_frozen * bracket
    return CheckResult(
        name="nemytsky_bound",
        passed=lhs <= bound + _BOUND_TOL,
        value=lhs,
        bound=bound,
        slack=bound - lhs,
    )


@dataclass
class FixedPointTrace:
    """One (increment, inner EL residual) row per Picard iteration, plus the
    totals of every Poisson solve the run made (the final one included)."""

    theta: float
    iterates: list[tuple[float, float]] = field(default_factory=list)
    converged: bool = False
    residual: float = np.inf
    h_star: GridFunction | None = None
    poisson_solves: int = 0
    cg_iterations: int = 0
    backtracks: int = 0

    @property
    def final_increment(self) -> float:
        return self.iterates[-1][0] if self.iterates else np.inf


@dataclass(frozen=True)
class BallRadius:
    value: float
    feasible: bool
    denominator: float


def invariant_ball_radius(c_bound: float, a_norm: float, k1: float, k2: float,
                          c_omega: float, p_minus: float, p_plus: float) -> BallRadius:
    """Radius of the invariant ball for the fixed-point map.

    M = (C (||a|| + K1 c^{p+-1} + K1 c^{p--1}) /
         (1 - K2 (c^{p+-1} + c^{p--1})))^{(p--1)/(p+-1)},
    infeasible when the denominator is not positive (domain not small
    enough for these constants).
    """
    powers = c_omega ** (p_plus - 1.0) + c_omega ** (p_minus - 1.0)
    denom = 1.0 - k2 * powers
    if denom <= 0.0:
        return BallRadius(value=np.inf, feasible=False, denominator=denom)
    numer = c_bound * (a_norm + k1 * c_omega ** (p_plus - 1.0) + k1 * c_omega ** (p_minus - 1.0))
    value = (numer / denom) ** ((p_minus - 1.0) / (p_plus - 1.0))
    return BallRadius(value=float(value), feasible=True, denominator=float(denom))


# sup-norm of the semilinear residual (energy_gradient with h = N_f(u))
# that certifies a fixed point or ends the shell sweeps
_RESIDUAL_TARGET = 1e-6
# conjugate-norm Picard increment that ends the fixed-point iteration
_INCREMENT_TOL = 1e-8
# floor of the halved damping factor
_THETA_MIN = 1e-3
# most shell sweeps one decomposition runs
_MAX_SWEEPS = 200


def fixed_point_solve(f: Nonlinearity, prob: PoissonProblem, theta: float = 1.0,
                      max_iter: int = 200, *, _block: _InteriorBlock | None = None
                      ) -> tuple[PoissonSolution, FixedPointTrace]:
    """Picard iteration for h = N_f(T(h)), damped by theta when needed.

    Starts from h0 = N_f applied to the datum-filled grid with the damping
    factor at its cap ``theta`` (1, undamped, by default) and halves it, down
    to ``_THETA_MIN``, whenever the increment norm grows twice in a row, for
    at most ``max_iter`` (>= 1) steps or until the increment is at most
    ``_INCREMENT_TOL``.  A non-finite increment, or one above
    1e12 max(1, first increment), stops the run.  Non-convergence is returned
    in the trace, never raised: the caller may retry with a smaller cap.  A
    converged run is certified by the sup-norm of ``energy_gradient`` at the
    final field, at most ``_RESIDUAL_TARGET``.  Every Poisson solve of the
    call shares one interior block, since only h changes between them.

    ``_block`` is private to the package: ``solve_by_decomposition`` passes
    the block of a shell, which it reuses across sweeps, after screening the
    growth of f once on the whole interior, which contains the shell's.
    Without it the call screens f and builds its own block.
    """
    if not (0.0 < theta <= 1.0):
        raise ValueError("damping theta must lie in (0, 1]")
    if max_iter < 1:
        raise ValueError("fixed-point max_iter must be at least 1")
    if _block is None:
        require_growth(f, prob.mesh, prob.p)
        _block = _InteriorBlock(prob.mesh, prob.weights)
    mask = prob.mesh.interior_mask
    rc = conjugate_exponent(prob.r)

    h = nemytsky(f, initial_guess(prob))
    trace = FixedPointTrace(theta=theta)
    warm = None

    def solve(h_k):
        sol_k = solve_poisson(prob.with_h(h_k), initial=warm, _block=_block)
        trace.poisson_solves += 1
        trace.cg_iterations += sol_k.cg_iterations
        trace.backtracks += sol_k.backtracks
        return sol_k

    grew = 0
    prev_inc = np.inf
    cap = None
    for _ in range(max_iter):
        sol = solve(h)
        if not sol.converged:
            trace.h_star = h
            return sol, trace
        warm = sol.u.u
        target = nemytsky(f, sol.u.u)
        new_vals = (1.0 - theta) * h.values + theta * target.values
        delta = np.zeros_like(new_vals)
        delta[mask] = new_vals[mask] - h.values[mask]
        inc = luxemburg_norm(GridFunction(prob.mesh, delta), rc, mask)
        trace.iterates.append((inc, sol.el_residual))
        h = GridFunction(prob.mesh, new_vals)
        if cap is None:
            cap = max(1.0, inc) * 1e12
        if not np.isfinite(inc) or inc > cap:
            trace.h_star = h
            trace.converged = False
            return sol, trace
        if inc <= _INCREMENT_TOL:
            trace.converged = True
            break
        if inc > prev_inc:
            grew += 1
            if grew >= 2 and theta > _THETA_MIN:
                theta = max(theta / 2.0, _THETA_MIN)
                trace.theta = theta
                grew = 0
        else:
            grew = 0
        prev_inc = inc
    trace.h_star = h
    if not trace.converged:
        return sol, trace
    final = solve(h)
    residual_grid = energy_gradient(final.u, prob.with_h(nemytsky(f, final.u.u)))
    residual = float(np.max(np.abs(residual_grid.values[mask])))
    trace.residual = residual
    trace.converged = final.converged and residual <= _RESIDUAL_TARGET
    return final, trace


def shell_partition(mesh: Mesh, shells: int) -> list[np.ndarray]:
    """Split interior cells into contiguous left-to-right equal-count blocks."""
    if shells < 1:
        raise ValueError("need at least one shell")
    idx = mesh.interior_indices
    if shells > idx.size:
        raise ValueError(f"cannot split {idx.size} interior cells into {shells} shells")
    masks = []
    for block in np.array_split(idx, shells):
        m = np.zeros(mesh.n_cells, dtype=bool)
        m[block] = True
        masks.append(m)
    return masks


@dataclass
class DecompositionReport:
    """``residuals`` holds the global residual after each sweep and
    ``mixed_sweeps`` counts the sweeps that kept the Anderson candidate."""

    shell_measures: list[float]
    sweeps: int
    residual: float
    converged: bool
    shell_traces: list[list[FixedPointTrace]] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    mixed_sweeps: int = 0


# number of secant pairs kept by the Anderson mixing of the shell sweeps
_ANDERSON_DEPTH = 5


def _anderson_mix(dxs: list[np.ndarray], dfs: list[np.ndarray], swept: np.ndarray,
                  res: np.ndarray) -> np.ndarray | None:
    """Anderson (type II) candidate for the fixed point of a map S.

    ``swept`` = S(x) and ``res`` = S(x) - x at the current iterate x;
    ``dxs`` / ``dfs`` are the differences of the last iterates and of their
    residuals.  Returns S(x) - (dX + dF) gamma with gamma the least-squares
    solution of dF gamma = res, or None without history (Walker & Ni 2011).
    """
    if not dfs:
        return None
    d_f = np.column_stack(dfs)
    gamma = np.linalg.lstsq(d_f, res, rcond=None)[0]
    return swept - (np.column_stack(dxs) + d_f) @ gamma


def solve_by_decomposition(f: Nonlinearity, g: GridFunction, shells: int,
                           prob_template: PoissonProblem, theta: float = 1.0,
                           max_iter: int = 200) -> tuple[PoissonSolution, DecompositionReport]:
    """Sequential shell solves with the freshest global field as exterior data.

    Each sweep solves the semilinear problem (``fixed_point_solve`` with the
    damping cap ``theta``) on every shell in turn, the previous iterate
    supplying the exterior values.  The sweep is a map x -> S(x) on the
    interior values, and its iterates are Anderson-mixed with the last
    ``_ANDERSON_DEPTH`` secant pairs: the mixed candidate, which changes
    interior cells only, is kept when its global semilinear residual is
    below that of the plain sweep; otherwise the plain sweep is kept and the
    history cleared.  Sweeps repeat, at most ``_MAX_SWEEPS`` times, until the
    global residual meets ``_RESIDUAL_TARGET`` (one sweep suffices in the
    degenerate single-shell case).
    Per-shell non-convergence aborts with the shell index.
    """
    prob = prob_template.with_g(g)
    require_growth(f, prob.mesh, prob.p)
    masks = shell_partition(prob.mesh, shells)
    dx = prob.mesh.cell_width
    report = DecompositionReport(
        shell_measures=[float(m.sum()) * dx for m in masks],
        sweeps=0,
        residual=np.inf,
        converged=False,
    )
    current = initial_guess(prob).values.copy()
    mask_all = prob.mesh.interior_mask

    def global_residual(values):
        u = GridFunction(prob.mesh, values)
        grad = energy_gradient(u, prob.with_h(nemytsky(f, u)))
        return float(np.max(np.abs(grad.values[mask_all])))

    # one problem and one interior block per shell, validated once; each
    # sweep only swaps the datum
    shell_probs = []
    for m in masks:
        sm = restrict_interior(prob.mesh, m)
        sw = KernelWeights(mesh=sm, w=prob.weights.w, p_pair=prob.weights.p_pair,
                           tail=prob.weights.tail)
        shell_probs.append(PoissonProblem(
            mesh=sm, weights=sw, p=prob.p, r=prob.r,
            h=GridFunction(sm, np.zeros(sm.n_cells)), g=GridFunction(sm, current),
            tolerances=prob.tolerances,
        ))
    blocks = [_InteriorBlock(sp.mesh, sp.weights) for sp in shell_probs]
    x = current[mask_all]
    last = None  # (x, S(x) - x) of the previous sweep
    dxs, dfs = [], []
    for sweep in range(1, _MAX_SWEEPS + 1):
        sweep_traces = []
        for j, (shell_prob, block) in enumerate(zip(shell_probs, blocks)):
            sub_prob = shell_prob.with_g(GridFunction(shell_prob.mesh, current))
            sol_j, trace_j = fixed_point_solve(f, sub_prob, theta, max_iter, _block=block)
            if not trace_j.converged:
                raise DecompositionError(j, sweep, "fixed-point iteration did not converge")
            current = sol_j.u.u.values.copy()
            sweep_traces.append(trace_j)
        report.shell_traces.append(sweep_traces)
        report.sweeps = sweep
        residual = global_residual(current)
        if residual > _RESIDUAL_TARGET:
            swept = current[mask_all]
            res = swept - x
            if last is not None:
                dxs.append(x - last[0])
                dfs.append(res - last[1])
                del dxs[:-_ANDERSON_DEPTH], dfs[:-_ANDERSON_DEPTH]
            last = (x, res)
            candidate = _anderson_mix(dxs, dfs, swept, res)
            if candidate is not None:
                trial = current.copy()
                trial[mask_all] = candidate
                try:
                    trial_residual = global_residual(trial)
                except NemytskyError:  # f need not be finite at an extrapolated point
                    trial_residual = np.inf
                if trial_residual < residual:
                    current, residual = trial, trial_residual
                    report.mixed_sweeps += 1
                else:
                    dxs.clear()
                    dfs.clear()
        x = current[mask_all]
        report.residuals.append(residual)
        report.residual = residual
        if residual <= _RESIDUAL_TARGET:
            report.converged = True
            break

    u = DirichletPair(u=GridFunction(prob.mesh, current), g=prob.g)
    h_final = nemytsky(f, u.u)
    solution = PoissonSolution(
        u=u,
        energy=poisson_energy(u, prob.with_h(h_final)),
        el_residual=report.residual,
        iterations=report.sweeps,
        converged=report.converged,
    )
    return solution, report
