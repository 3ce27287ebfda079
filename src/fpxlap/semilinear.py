"""Semilinear layer: Nemytsky operator, Picard fixed point, shell solver.

The fixed-point map composes the Poisson solution map with the Nemytsky
operator; Picard iteration drives h_{k+1} = (1-theta) h_k + theta N_f(T(h_k))
until the conjugate-norm increment is negligible.  theta starts undamped at
its cap (1 by default) and is halved whenever the increments keep growing.
The shell solver splits the interior into contiguous equal-measure blocks.
One sweep gives each shell in turn one Poisson solve with h = N_f of the
current field, started from that field, which also supplies the exterior
values; its fixed point is the semilinear solution.  The sweep is a map on
the interior values, and its iterates are Anderson-mixed under a residual
safeguard until the global semilinear residual meets its target.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .checks import CheckResult
from .exponents import (ExponentError, ExponentField, ScalarExponent, conjugate_exponent,
                        trace_exponent)
from .lebesgue import GridFunction, _norm_rows, luxemburg_norm
from .mesh_kernel import Mesh, _is_count, restrict_interior
from .poisson import (PoissonProblem, PoissonSolution, _InteriorBlock, _require_growth_pair,
                      energy as poisson_energy, initial_guess, solve_poisson)
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
        self.message = message


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
    measure = mesh.omega_measure
    gvals = gamma.values(mesh.cell_centers[mesh.interior_mask])
    g_lo, g_hi = float(gvals.min()), float(gvals.max())
    return 2.0 * max(measure ** (1.0 / g_hi), measure ** (1.0 / g_lo))


def _bracket_parts(f: Nonlinearity, r: ScalarExponent, p: ExponentField,
                   mesh: Mesh) -> tuple[float, float, float, float]:
    """The parts of the bound bracket that do not depend on u: ||a||_{pbar'}
    over Omega, C_Omega, and p- and p+ sampled over the box pairs."""
    a_norm = luxemburg_norm(f.a, conjugate_exponent(trace_exponent(p)), mesh.interior_mask)
    c_om = measure_constant(mesh, gamma_exponent(r, p))
    pm = p.pair_matrix(mesh.cell_centers)
    return a_norm, c_om, float(pm.min()), float(pm.max())


def _bound_bracket(f: Nonlinearity, u: GridFunction, r: ScalarExponent,
                   parts: tuple[float, float, float, float]) -> tuple[float, float]:
    """Returns (||N_f u||_{r'}, bracket) with the constant factored out;
    ``parts`` is ``_bracket_parts`` of the same f, r, p and mesh."""
    mask = u.mesh.interior_mask
    lhs = luxemburg_norm(nemytsky(f, u), conjugate_exponent(r), mask)
    a_norm, c_om, p_minus, p_plus = parts
    u_norm = luxemburg_norm(u, r, mask)
    bracket = a_norm + (c_om * u_norm) ** (p_plus - 1.0) + (c_om * u_norm) ** (p_minus - 1.0)
    return lhs, bracket


def calibrate_nemytsky_constant(f: Nonlinearity, r: ScalarExponent, p: ExponentField,
                                mesh: Mesh, rng: np.random.Generator) -> float:
    """Freeze the bound constant as the worst calibration ratio plus headroom.

    The ``_CALIBRATION_SAMPLES`` calibration fields span amplitudes 1e-3..1e3
    so both power regimes of the bracket are exercised before the constant is
    frozen at ``_CALIBRATION_HEADROOM`` times the worst ratio.  The parts of
    the bracket that do not depend on the field are computed once.
    """
    parts = _bracket_parts(f, r, p, mesh)
    worst = 0.0
    for scale in np.logspace(-3, 3, _CALIBRATION_SAMPLES):
        raw = np.zeros(mesh.n_cells)
        raw[mesh.interior_mask] = scale * rng.standard_normal(int(mesh.interior_mask.sum()))
        lhs, bracket = _bound_bracket(f, GridFunction(mesh, raw), r, parts)
        if bracket > 0:
            worst = max(worst, lhs / bracket)
    return worst * _CALIBRATION_HEADROOM if worst > 0 else _CALIBRATION_HEADROOM


def nemytsky_bound_check(f: Nonlinearity, u: GridFunction, r: ScalarExponent,
                         p: ExponentField, c_frozen: float) -> CheckResult:
    """||N_f u||_{r'} <= C (||a||_{pbar'} + (C_Om ||u||_r)^{p+-1} + (C_Om ||u||_r)^{p--1})."""
    lhs, bracket = _bound_bracket(f, u, r, _bracket_parts(f, r, p, u.mesh))
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
    totals of every Poisson solve the run made: one per row, and one more
    when a solve did not converge.  A decomposition keeps one trace per
    shell per sweep, for that shell's one Poisson solve: its row is the
    sup-norm change of the shell's values and the solve's EL residual."""

    theta: float
    iterates: list[tuple[float, float]] = field(default_factory=list)
    converged: bool = False
    residual: float = np.inf
    h_star: GridFunction | None = None
    poisson_solves: int = 0
    outer_iterations: int = 0
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


# sup-norm of the semilinear residual (the energy gradient with h = N_f(u))
# that certifies a fixed point or ends the shell sweeps
_RESIDUAL_TARGET = 1e-6
# conjugate-norm Picard increment that ends the fixed-point iteration
_INCREMENT_TOL = 1e-8
# floor of the halved damping factor
_THETA_MIN = 1e-3
# most shell sweeps one decomposition runs
_MAX_SWEEPS = 200


def fixed_point_solve(f: Nonlinearity, prob: PoissonProblem, theta: float = 1.0,
                      max_iter: int = 200) -> tuple[PoissonSolution, FixedPointTrace]:
    """Picard iteration for h = N_f(T(h)), damped by theta when needed.

    Checks the growth pair (r, p) and screens the growth of f first.
    Starts from h0 = N_f applied to the datum-filled grid with the damping
    factor at its cap ``theta`` (1, undamped, by default) and halves it, down
    to ``_THETA_MIN``, whenever the increment norm grows twice in a row, for
    at most ``max_iter`` (>= 1) steps or until the increment is at most
    ``_INCREMENT_TOL``.  Each Poisson solve starts warm from the field of
    the one before.  A non-finite increment, one above
    1e12 max(1, first increment), or one that grows twice in a row with
    the damping factor at its floor stops the run.  Non-convergence is returned
    in the trace, never raised: the caller may retry with a smaller cap.  A
    converged run returns the field of its last Poisson solve, u = T(h_k),
    with no further solve: it is certified by the sup-norm of the energy
    gradient at u with h = N_f(u), at most ``_RESIDUAL_TARGET``, which the
    solves' interior block forms by its own pass (``_InteriorBlock.residual``).
    Every Poisson solve of the call shares that block, since only h changes
    between them, and r' is evaluated at the interior centres once.
    """
    if isinstance(theta, bool) or not (0.0 < theta <= 1.0):
        raise ValueError("damping theta must lie in (0, 1]")
    if not _is_count(max_iter):
        raise ValueError("fixed-point max_iter must be a positive integer")
    _require_growth_pair(prob)
    require_growth(f, prob.mesh, prob.p)
    block = _InteriorBlock(prob.mesh, prob.weights)
    mesh = prob.mesh
    mask = mesh.interior_mask
    rc_values = conjugate_exponent(prob.r).values(mesh.cell_centers[mask])[None]

    h = nemytsky(f, initial_guess(prob))
    trace = FixedPointTrace(theta=theta)
    warm = None

    grew = 0
    prev_inc = np.inf
    cap = None
    for _ in range(max_iter):
        sol = solve_poisson(prob.with_h(h), initial=warm, _block=block)
        trace.poisson_solves += 1
        trace.outer_iterations += sol.iterations
        trace.cg_iterations += sol.cg_iterations
        trace.backtracks += sol.backtracks
        if not sol.converged:
            break
        warm = sol.u.u
        target = nemytsky(f, warm)
        new_vals = (1.0 - theta) * h.values + theta * target.values
        # h and N_f vanish off Omega, so the increment does too
        inc = _norm_rows((new_vals - h.values)[mask][None], rc_values, mesh.cell_width)[0]
        trace.iterates.append((inc, sol.el_residual))
        h = GridFunction(mesh, new_vals)
        if cap is None:
            cap = max(1.0, inc) * 1e12
        if not np.isfinite(inc) or inc > cap:
            break
        if inc <= _INCREMENT_TOL:
            trace.residual = block.residual(warm.values, target.values)
            trace.converged = trace.residual <= _RESIDUAL_TARGET
            break
        if inc > prev_inc:
            grew += 1
            if grew >= 2:
                if theta <= _THETA_MIN:
                    break
                theta = max(theta / 2.0, _THETA_MIN)
                trace.theta = theta
                grew = 0
        else:
            grew = 0
        prev_inc = inc
    trace.h_star = h
    return sol, trace


def shell_partition(mesh: Mesh, shells: int) -> list[np.ndarray]:
    """Split interior cells into contiguous left-to-right equal-count blocks."""
    if not _is_count(shells):
        raise ValueError(f"shells={shells!r}: need at least one shell, as an integer count")
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
    sweeps: int = 0
    residual: float = np.inf
    converged: bool = False
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
                           prob_template: PoissonProblem
                           ) -> tuple[PoissonSolution, DecompositionReport]:
    """Sequential shell solves with the freshest global field as exterior data.

    Each sweep gives every shell in turn one Poisson solve on its cells: the
    source is h = N_f of the current global field, which also supplies the
    exterior values and the warm start, and the solution replaces the
    shell's values in that field.  A field the sweep leaves unchanged solves
    the semilinear problem on every shell, so the sweep's fixed point is the
    solution.  The sweep is a map x -> S(x) on the interior values, and its
    iterates are Anderson-mixed with the last
    ``_ANDERSON_DEPTH`` secant pairs: the mixed candidate, which changes
    interior cells only, is kept when its global semilinear residual is
    below that of the plain sweep; otherwise the plain sweep is kept and the
    history cleared.  Sweeps repeat, at most ``_MAX_SWEEPS`` times, until the
    global residual meets ``_RESIDUAL_TARGET``: this is the decomposition's
    only fixed-point iteration.  The global residual, the sup-norm of the
    energy gradient with h = N_f(u), is the max of the shells' interior
    blocks' ``residual``: their rows partition the interior.  A shell solve
    that does not converge raises ``DecompositionError`` with the shell
    index and the sweep.
    """
    prob = prob_template.with_g(g)
    _require_growth_pair(prob)
    require_growth(f, prob.mesh, prob.p)
    masks = shell_partition(prob.mesh, shells)
    dx = prob.mesh.cell_width
    report = DecompositionReport(shell_measures=[float(m.sum()) * dx for m in masks])
    current = initial_guess(prob).values.copy()
    mask_all = prob.mesh.interior_mask

    # one problem and one interior block per shell; each solve swaps in h and the datum
    shell_probs = []
    for m in masks:
        sm = restrict_interior(prob.mesh, m)
        shell_probs.append(replace(prob, mesh=sm, weights=replace(prob.weights, mesh=sm)))
    blocks = [_InteriorBlock(sp.mesh, sp.weights) for sp in shell_probs]

    def global_residual(values):
        # the shells' rows partition the interior
        h = nemytsky(f, GridFunction(prob.mesh, values)).values
        return max(block.residual(values, h) for block in blocks)

    x = current[mask_all]
    last = None  # (x, S(x) - x) of the previous sweep
    dxs, dfs = [], []
    for sweep in range(1, _MAX_SWEEPS + 1):
        sweep_traces = []
        for j, (shell_prob, block) in enumerate(zip(shell_probs, blocks)):
            start = GridFunction(shell_prob.mesh, current)
            sol = solve_poisson(replace(shell_prob, h=nemytsky(f, start), g=start),
                                initial=start, _block=block)
            if not sol.converged:
                raise DecompositionError(j, sweep, "Poisson solve did not converge "
                                                   f"(EL residual {sol.el_residual:.3e})")
            change = float(np.max(np.abs(sol.u.u.values - current)))
            current = sol.u.u.values
            sweep_traces.append(FixedPointTrace(
                theta=1.0, iterates=[(change, sol.el_residual)], converged=True,
                residual=sol.el_residual, poisson_solves=1, outer_iterations=sol.iterations,
                cg_iterations=sol.cg_iterations, backtracks=sol.backtracks))
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
