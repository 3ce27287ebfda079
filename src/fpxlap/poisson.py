"""Poisson solution map: convex energy minimization over the Dirichlet class.

The energy of a field u equal to g on exterior cells is

    E(u) = sum_{i<j} 2 w_ij |u_i-u_j|^{p_ij} / p_ij
           + 2 dx sum_i tail_i |u_i|^{pbar_i} / pbar_i
           - dx sum_{i interior} h_i u_i,

strictly convex in the interior unknowns, minimized by damped lagged-weight
linearization with Armijo backtracking.  The lagged weights are floored
where differences degenerate; the floor shrinks with the gradient residual
(the IRLS rule), and the weights come from the accepted point's |d|^p, so
an iteration makes one power pass per trial point and none for the model.
The gradient component at an interior cell equals the weak-form residual
against that cell's indicator, so the stopping rule certifies the discrete
Euler-Lagrange equations directly.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .checks import CheckResult, EstimateReport
from .exponents import ExponentField, ScalarExponent, conjugate_exponent, trace_exponent, validate_growth_pair
from .lebesgue import GridFunction, luxemburg_norm
from .mesh_kernel import KernelWeights, Mesh
from .sobolev import (DirichletPair, _pair_powers, _ratio, _uniform, apply_operator, full_norm,
                      weak_form)


_MIN_STEP = 1e-20      # smallest Armijo step tried before an iteration gives up
_ENERGY_TOL = 1e-8     # energy drop forgiven by minimizer_equivalence_check
_HOLDOUT_SLACK = 0.10  # holdout ratio above 1 forgiven by lr_estimate_check


@dataclass(frozen=True)
class Tolerances:
    el_residual: float = 1e-8
    max_iter: int = 50_000

    def __post_init__(self):
        if self.el_residual <= 0 or self.max_iter <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class PoissonProblem:
    mesh: Mesh
    weights: KernelWeights
    p: ExponentField
    r: ScalarExponent
    h: GridFunction
    g: GridFunction
    tolerances: Tolerances = Tolerances()

    def __post_init__(self):
        if not validate_growth_pair(self.r, self.p, self.mesh):
            raise ValueError("growth pair (r, p) fails pbar+ < r- or r < critical exponent")

    def _with_data(self, name: str, value: GridFunction) -> "PoissonProblem":
        # the growth check depends only on (r, p, mesh), so a new h or g
        # skips it instead of rerunning __post_init__
        new = copy.copy(self)
        object.__setattr__(new, name, value)
        return new

    def with_h(self, h: GridFunction) -> "PoissonProblem":
        return self._with_data("h", h)

    def with_g(self, g: GridFunction) -> "PoissonProblem":
        return self._with_data("g", g)


@dataclass
class PoissonSolution:
    u: DirichletPair
    energy: float
    el_residual: float
    iterations: int
    converged: bool
    energy_history: list[float] = field(default_factory=list)
    cg_iterations: int = 0
    backtracks: int = 0


def _field(u) -> GridFunction:
    return u.u if isinstance(u, DirichletPair) else u


def energy(u, prob: PoissonProblem) -> float:
    """Energy of a field on the full n x n pair matrix.

    Plain reference implementation on the pair pass that the modular and
    the operator share: sum w |d|^p / p plus the tails over pbar, minus the
    source.  ``solve_poisson`` evaluates the same energy on its interior-row
    block, and tests and checks recompute with this one.
    """
    vals = _field(u).values
    W = prob.weights
    _, power, tail_power = _pair_powers(vals, W, _uniform(W.p_pair))
    pair = float((W.w * power / W.p_pair).sum())
    dx = prob.mesh.cell_width
    tail = 2.0 * dx * float(np.sum(W.tail * tail_power / W.p_bar))
    mask = prob.mesh.interior_mask
    source = dx * float(np.sum(prob.h.values[mask] * vals[mask]))
    return pair + tail - source


def energy_gradient(u, prob: PoissonProblem) -> GridFunction:
    """First variation with respect to the interior unknowns.

    2 dx (operator u) - dx h, that is component i (interior):
    2 sum_j w_ij |u_i-u_j|^{p_ij-2}(u_i-u_j) + 2 dx tail_i |u_i|^{pbar_i-2} u_i
    - dx h_i.  Exterior components are constrained and reported as zero.
    Plain reference implementation on ``apply_operator`` over the full n x n
    pair matrix, independent of the interior-row block inside
    ``solve_poisson``.
    """
    dx = prob.mesh.cell_width
    grad = 2.0 * dx * apply_operator(_field(u), prob.weights)
    grad -= dx * prob.h.values
    grad[~prob.mesh.interior_mask] = 0.0
    return GridFunction(prob.mesh, grad)


def initial_guess(prob: PoissonProblem) -> GridFunction:
    """Exterior datum with the interior filled by its in-box exterior mean."""
    vals = prob.g.values.copy()
    vals[prob.mesh.interior_mask] = prob.g.values[prob.mesh.exterior_mask].mean()
    return GridFunction(prob.mesh, vals)


def _row_block(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """a[rows], as a view when the (sorted) rows are contiguous."""
    if rows[-1] - rows[0] + 1 == rows.size:
        return a[rows[0]:rows[-1] + 1]
    return a[rows]


def _lagged_weights(power: np.ndarray, diff: np.ndarray, floor: float, p) -> np.ndarray:
    """max(|d|, floor)^{p-2} from power = |d|^p, without a second power pass.

    power / d^2 where |d| >= floor, floor^{p-2} on the rest (p a float or an
    array shaped like diff).
    """
    out = diff * diff
    small = out < floor * floor
    np.maximum(out, floor * floor, out=out)
    np.divide(power, out, out=out)
    out[small] = floor ** (p - 2.0) if np.isscalar(p) else floor ** (p[small] - 2.0)
    return out


def _exterior_energy(W: KernelWeights, interior: np.ndarray, vals: np.ndarray,
                     dx: float, p) -> float:
    """Energy of the pairs and tails whose cells all sit at exterior data.

    p is the uniform pair exponent as a float, or None when it varies.
    """
    g = np.where(interior, 0.0, vals)
    if p == 2.0:
        # with g = 0 inside, sum_{i,j ext} w_ij (g_i-g_j)^2 / 2
        # = g^2 . (w 1_ext) - g . w g: one pass over w and no block gather
        wg = W.w @ np.column_stack([~interior, g])
        pair = float((g * g) @ wg[:, 0] - g @ wg[:, 1])
        return pair + dx * float(W.tail @ (g * g))
    ext = np.flatnonzero(~interior)
    block = np.ix_(ext, ext)
    p_ext = W.p_pair[block] if p is None else p
    diff = g[ext, None] - g[None, ext]
    pair = float(np.vdot(W.w[block] / p_ext, np.abs(diff) ** p_ext))
    return pair + 2.0 * dx * float(W.tail / W.p_bar @ np.abs(g) ** W.p_bar)


def _pcg(A: np.ndarray, rhs: np.ndarray, rtol: float) -> tuple[np.ndarray, int]:
    """Jacobi-preconditioned CG for A d = rhs from d = 0.

    Stops at |r|_2 <= rtol |rhs|_2, at a loss of positive curvature, or after
    8m steps; returns the iterate and the step count.
    """
    diag = np.diagonal(A)
    inv_diag = 1.0 / np.where(diag > 0.0, diag, 1.0)
    d = np.zeros_like(rhs)
    resid = rhs.copy()
    z = inv_diag * resid
    direction = z.copy()
    rz = float(resid @ z)
    rr = float(resid @ resid)
    stop = max(rr, 1e-300) * rtol * rtol
    it = 0
    while rr > stop and it < 8 * rhs.size:
        ad = A @ direction
        dad = float(direction @ ad)
        if dad <= 0.0:
            break
        step = rz / dad
        d += step * direction
        resid -= step * ad
        rr = float(resid @ resid)
        z = inv_diag * resid
        rz_new = float(resid @ z)
        direction = z + (rz_new / rz) * direction
        rz = rz_new
        it += 1
    return d, it


class _InteriorBlock:
    """The interior-row set-up of ``solve_poisson`` for one (mesh, weights).

    Holds what every solve on this pair shares: the interior rows, the m x n
    row blocks of the weights and exponents, the energy and model weights
    derived from them, and the tail terms.  The exterior-exterior energy
    depends on the datum only and is recomputed whenever a solve brings a
    different g object.  For uniform p = 2 the block also holds the model
    Hessian, the same matrix on every call; once the block is reused for a
    second solve it factors that Hessian once and takes every later
    direction by one application of the inverse instead of CG.  A one-off
    solve never pays for the factor.
    """

    def __init__(self, mesh: Mesh, weights: KernelWeights):
        self.mesh, self.weights = mesh, weights
        interior = mesh.interior_mask
        self.rows = rows = np.flatnonzero(interior)
        dx = mesh.cell_width
        self.tail = tail = weights.tail[rows]
        self.w_rows = w_rows = _row_block(weights.w, rows)
        self.p_const = p_const = _uniform(weights.p_pair)
        self.quadratic = quadratic = p_const == 2.0
        if p_const is None:
            p_rows, p_bar = _row_block(weights.p_pair, rows), weights.p_bar[rows]
        else:
            p_rows = p_bar = p_const
        self.p_rows, self.p_bar = p_rows, p_bar
        # a pair with one exterior cell appears twice in the full double sum
        self.w_energy = w_rows * np.where(interior, 1.0, 2.0) / p_rows
        self.w_model = w_rows if quadratic else np.maximum(p_rows - 1.0, 1.0) * w_rows
        self.tail_energy = 2.0 * dx * tail / p_bar
        self.tail_model = np.maximum(p_bar - 1.0, 1.0) * tail
        self._g = None          # the datum whose exterior energy is cached
        self._e_fixed = 0.0
        self._hessian = None    # quadratic model Hessian, built on first use
        self._inverse = None    # its inverse (p = 2), built on first reuse
        self._solves = 0

    def _exterior_energy(self, g: GridFunction) -> float:
        if g is not self._g:
            self._e_fixed = _exterior_energy(self.weights, self.mesh.interior_mask, g.values,
                                             self.mesh.cell_width, self.p_const)
            self._g = g
        return self._e_fixed

    def _quadratic_hessian(self) -> np.ndarray:
        """2 (diag(row sums + dx tail) - core): the p = 2 Hessian, and the
        model of any energy at a constant field."""
        if self._hessian is None:
            hess = self.w_rows[:, self.rows]
            hess *= -2.0
            hess[np.diag_indices_from(hess)] += 2.0 * (self.w_rows.sum(axis=1)
                                                       + self.mesh.cell_width * self.tail)
            self._hessian = hess
        return self._hessian

    def _factor_direction(self, grad: np.ndarray) -> np.ndarray:
        if self._inverse is None:
            # the Cholesky factor certifies positive definiteness
            l_inv = np.linalg.inv(np.linalg.cholesky(self._quadratic_hessian()))
            self._inverse = l_inv.T @ l_inv
        return -(self._inverse @ grad)

    def solve(self, prob: PoissonProblem, initial: GridFunction | None) -> PoissonSolution:
        if prob.mesh is not self.mesh or prob.weights is not self.weights:
            raise ValueError("interior block built for another mesh or kernel")
        mesh, tol = self.mesh, prob.tolerances
        interior, rows, quadratic = mesh.interior_mask, self.rows, self.quadratic
        factored = quadratic and self._solves > 0
        self._solves += 1
        vals = (initial_guess(prob) if initial is None else initial).values.copy()
        vals[~interior] = prob.g.values[~interior]
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite initial field")

        dx = mesh.cell_width
        h_int = prob.h.values[rows]
        tail, w_rows, p_rows, p_bar = self.tail, self.w_rows, self.p_rows, self.p_bar
        w_energy, w_model = self.w_energy, self.w_model
        tail_energy, tail_model = self.tail_energy, self.tail_model
        e_fixed = self._exterior_energy(prob.g)

        def evaluate(v):
            x = v[rows]
            diff = x[:, None] - v[None, :]
            if quadratic:
                power, tail_power = diff * diff, x * x
            else:
                power, tail_power = np.abs(diff) ** p_rows, np.abs(x) ** p_bar
            e = (float(np.vdot(w_energy, power)) + float(tail_energy @ tail_power)
                 - dx * float(h_int @ x) + e_fixed)
            return e, (x, diff, power, tail_power)

        def gradient_of(point):
            x, diff, power, tail_power = point
            if quadratic:
                flux, tail_flux = diff, x
            else:
                flux, tail_flux = _ratio(power, diff), _ratio(tail_power, x)
            return 2.0 * np.einsum("ij,ij->i", w_rows, flux) + 2.0 * dx * tail * tail_flux - dx * h_int

        def model_direction(v, point, grad, floor_rel, rtol):
            if factored:
                return self._factor_direction(grad), 0
            x, diff, power, tail_power = point
            dmax = float(v.max() - v.min())
            scale = max(float(np.abs(v).max()), dmax)
            if quadratic or scale == 0.0 or dmax == 0.0:
                # constant field: every pair weight degenerates, use the quadratic model
                return _pcg(self._quadratic_hessian(), -grad, rtol)
            floor_pair = max(1e-13 * scale, floor_rel * dmax)
            floor_tail = max(1e-13 * scale, floor_rel * scale)
            # the accepted point's |d|^p gives the lagged weights: no second power pass
            om = _lagged_weights(power, diff, floor_pair, p_rows)
            om *= w_model
            tau = tail_model * _lagged_weights(tail_power, x, floor_tail, p_bar)
            # model Hessian on the interior unknowns: 2 (diag(row sums + dx tau) - core)
            hess = om[:, rows]
            hess *= -2.0
            hess[np.diag_indices_from(hess)] += 2.0 * (om.sum(axis=1) + dx * tau)
            return _pcg(hess, -grad, rtol)

        e_now, point = evaluate(vals)
        if not np.isfinite(e_now):
            raise ValueError("non-finite energy at the initial field")
        grad = gradient_of(point)
        residual = first_residual = float(np.max(np.abs(grad)))
        history = [e_now]
        converged = False
        it = cg_total = backtracks = 0
        prev_residual = None
        floor_rel = 0.3
        guard = 4.0 * np.finfo(float).eps
        while True:
            if residual <= tol.el_residual:
                converged = True
                break
            if it >= tol.max_iter:
                break
            if quadratic:
                # exact Hessian: the new gradient is minus the CG residual
                rtol = 0.5 * tol.el_residual / float(np.linalg.norm(grad))
            elif prev_residual is None:
                rtol = 1e-2
            else:
                rtol = min(1e-2, 0.9 * (residual / prev_residual) ** 2)
            d, n_cg = model_direction(vals, point, grad, floor_rel, rtol)
            cg_total += n_cg
            cap = 10.0 * (1.0 + float(np.abs(vals).max()))
            dn = float(np.abs(d).max())
            if dn > cap:
                d *= cap / dn
            slope = float(grad @ d)
            if slope >= 0.0:
                d = -grad
                slope = float(grad @ d)
            alpha = 1.0
            accepted = False
            while alpha >= _MIN_STEP:
                trial = vals.copy()
                trial[rows] += alpha * d
                e_trial, trial_point = evaluate(trial)
                if np.isfinite(e_trial) and e_trial <= e_now + 1e-4 * alpha * slope + guard * (1.0 + abs(e_now)):
                    trial_grad = None
                    if e_trial >= e_now - guard * (1.0 + abs(e_now)):
                        # energy change below fp resolution: demand residual progress
                        trial_grad = gradient_of(trial_point)
                        accepted = float(np.max(np.abs(trial_grad))) < residual * (1.0 - 1e-3)
                    else:
                        accepted = True
                    if accepted:
                        vals, point = trial, trial_point
                        e_now = min(e_trial, e_now)
                        grad = gradient_of(point) if trial_grad is None else trial_grad
                        break
                alpha *= 0.5
                backtracks += 1
            it += 1
            history.append(e_now)
            if not accepted:
                # no certified progress left at machine precision
                break
            prev_residual, residual = residual, float(np.max(np.abs(grad)))
            # the floor shrinks with the residual (IRLS), at least by half per step
            floor_rel = max(min(0.5 * floor_rel, 0.3 * residual / first_residual), 1e-14)

        u = DirichletPair(u=GridFunction(mesh, vals), g=prob.g)
        return PoissonSolution(
            u=u,
            energy=e_now,
            el_residual=residual,
            iterations=it,
            converged=converged,
            energy_history=history,
            cg_iterations=cg_total,
            backtracks=backtracks,
        )


def solve_poisson(prob: PoissonProblem, initial: GridFunction | None = None, *,
                  _block: _InteriorBlock | None = None) -> PoissonSolution:
    """Minimize the energy over the interior unknowns.

    Pairs with both cells outside Omega never change, so every pass works on
    the m x n block of interior rows (m interior cells): the energy is the
    block sum with exterior columns counted twice, plus the exterior-exterior
    energy.  Each trial point costs one power pass |d|^p; the gradient at an
    accepted point follows from it as |d|^p / d and is carried into the next
    iteration.

    Each iteration builds the weighted-graph-Laplacian model of the energy
    with lagged pair weights max(p-1,1) w max(|u_i-u_j|, floor)^{p-2}, taken
    from the accepted point's power as |d|^p / d^2 (only pairs below the floor
    get a power of their own), and the tail terms likewise.  The floor is
    floor_rel times the field's spread (for the tails, the larger of its sup
    and its spread).  floor_rel starts at 0.3 and after each accepted step
    becomes max(min(floor_rel / 2, 0.3 r_k / r_0), 1e-14), with r_k the
    gradient sup-norm and r_0 the call's first one: it shrinks with the
    residual (Daubechies, DeVore, Fornasier & Gunturk 2010) and at least
    halves per iteration, so p >= 2 soon gets the true Newton weights.  The
    model is solved by Jacobi-preconditioned conjugate gradients, and the
    direction is taken under Armijo backtracking (sufficient decrease 1e-4,
    halving), so the energy decreases monotonically.  CG stops at the relative
    residual eta_k = min(1e-2, 0.9 (r_k / r_{k-1})^2) (Eisenstat-Walker
    forcing term); every CG iterate is a descent direction.  For constant
    p = 2 the model is the exact Hessian, so the new gradient is minus the CG
    residual; CG stops at the absolute 2-norm el_residual / 2 and one
    iteration solves the problem.  When the energy change falls below
    floating-point resolution, a step is accepted only if it still reduces the
    gradient sup-norm.  Stops when that sup-norm, of the returned field,
    reaches tolerances.el_residual; non-convergence is reported through
    ``converged=False``, never silently.  ``energy_history`` holds the
    energy at the start and after each outer iteration.

    Each call builds its own interior block, so no state survives it.
    ``_block`` is private to the package: the semilinear solvers pass one
    block through all their solves on the same (mesh, weights), which also
    lets a p = 2 block replace CG by its factored Hessian after the first
    solve (those directions count 0 CG iterations).
    """
    block = _InteriorBlock(prob.mesh, prob.weights) if _block is None else _block
    return block.solve(prob, initial)


def minimizer_equivalence_check(sol: PoissonSolution, prob: PoissonProblem,
                                trials: int, rng: np.random.Generator) -> CheckResult:
    """Convexity certificate for the minimizer/weak-solution equivalence.

    For random zero-exterior perturbations phi with full norm at most 1:
    energy(u+phi) >= energy(u) - _ENERGY_TOL, and the weak-form residual
    |<L(u),phi> - int h phi| stays below el_residual * sum|phi_i|.
    """
    mesh = prob.mesh
    interior = mesh.interior_mask
    base = sol.u.u
    e0 = energy(base, prob)
    qbar = trace_exponent(prob.p)
    worst_energy = np.inf
    worst_residual = -np.inf
    dx = mesh.cell_width
    for _ in range(trials):
        raw = np.zeros(mesh.n_cells)
        raw[interior] = rng.standard_normal(int(interior.sum()))
        phi = GridFunction(mesh, raw)
        nrm = full_norm(phi, prob.weights, qbar)
        if nrm == 0.0:
            continue
        scale = rng.uniform(0.05, 1.0) / nrm
        phi = phi.replace_values(raw * scale)
        shifted = base.replace_values(base.values + phi.values)
        worst_energy = min(worst_energy, energy(shifted, prob) - e0)
        res = abs(weak_form(base, phi, prob.weights)
                  - dx * float(np.sum(prob.h.values[interior] * phi.values[interior])))
        allowance = prob.tolerances.el_residual * float(np.sum(np.abs(phi.values))) + 1e-14
        worst_residual = max(worst_residual, res - allowance)
    passed = worst_energy >= -_ENERGY_TOL and worst_residual <= 0.0
    return CheckResult(
        name="minimizer_equivalence",
        passed=bool(passed),
        value=float(worst_energy),
        bound=-_ENERGY_TOL,
        slack=float(worst_energy + _ENERGY_TOL),
        detail=f"worst_residual_margin={worst_residual:.3e}",
    )


def _affine_envelope_fit(a: np.ndarray, b: np.ndarray) -> tuple[float, float, bool]:
    """Tightest affine majorant a_k <= K1 + K2 b_k with K1, K2 >= 0.

    Minimizes the total slack among feasible vertex candidates; the
    (K2=0, K1=max a) candidate keeps the problem always feasible.
    """
    scale = max(float(np.max(a)), 1.0)
    feas_tol = 1e-12 * scale
    candidates = [(float(np.max(a, initial=0.0)), 0.0)]
    pos = b > 0
    if pos.any():
        candidates.append((0.0, float(np.max(a[pos] / b[pos]))))
    m = len(a)
    for i in range(m):
        for j in range(i + 1, m):
            if b[i] == b[j]:
                continue
            k2 = (a[i] - a[j]) / (b[i] - b[j])
            if not np.isfinite(k2) or k2 < 0:
                continue
            k1 = a[i] - k2 * b[i]
            if k1 < 0:
                continue
            candidates.append((float(k1), float(k2)))
    best = None
    best_obj = np.inf
    for k1, k2 in candidates:
        bound = k1 + k2 * b
        if np.all(a <= bound + feas_tol):
            obj = float(np.sum(bound - a))
            if obj < best_obj:
                best_obj = obj
                best = (k1, k2)
    if best is None:
        return 0.0, 0.0, False
    return best[0], best[1], True


def lr_estimate_check(family, prob_template: PoissonProblem) -> EstimateReport:
    """Fit/holdout protocol for the r-norm a-priori estimate.

    Solves each right-hand side with the template's exterior datum, forms
    a_k = max(||u_k||_r^{p+-1}, ||u_k||_r^{p--1}) and
    b_k = ||h_k||_{r'}^{(p+-1)/(p--1)}, fits the least nonnegative affine
    majorant on a training half and verifies it on the held-out half, up to
    the ratio 1 + ``_HOLDOUT_SLACK``.  The halves interleave the family so
    both cover the same scale range (the a(b) relation is concave when p
    varies, so a majorant fitted on a gappy range would be unfair to the middle).
    """
    if len(family) < 8:
        raise ValueError("estimate protocol needs at least 8 right-hand sides")
    W, r = prob_template.weights, prob_template.r
    p_plus, p_minus = W.p_plus, W.p_minus
    rc = conjugate_exponent(r)
    mask = prob_template.mesh.interior_mask
    a_vals, b_vals = [], []
    for h in family:
        prob = prob_template.with_h(h)
        sol = solve_poisson(prob)
        if not sol.converged:
            return EstimateReport(0.0, 0.0, feasible=False,
                                  detail="solver non-convergence inside estimate family")
        un = luxemburg_norm(sol.u.u, r, mask)
        hn = luxemburg_norm(h, rc, mask)
        a_vals.append(max(un ** (p_plus - 1.0), un ** (p_minus - 1.0)) if un > 0 else 0.0)
        b_vals.append(hn ** ((p_plus - 1.0) / (p_minus - 1.0)) if hn > 0 else 0.0)
    a = np.asarray(a_vals)
    b = np.asarray(b_vals)
    order = np.argsort(b)
    train_idx, hold_idx = order[0::2], order[1::2]
    k1, k2, feasible = _affine_envelope_fit(a[train_idx], b[train_idx])
    report = EstimateReport(
        k1=k1, k2=k2, feasible=feasible,
        train_pairs=list(zip(a[train_idx].tolist(), b[train_idx].tolist())),
        holdout_pairs=list(zip(a[hold_idx].tolist(), b[hold_idx].tolist())),
    )
    if not feasible:
        report.detail = "training fit infeasible"
        return report
    ratios = []
    for ak, bk in zip(a[hold_idx], b[hold_idx]):
        bound = k1 + k2 * bk
        if bound <= 0.0:
            ratios.append(0.0 if ak <= 1e-12 else np.inf)
        else:
            ratios.append(ak / bound)
    report.worst_ratio = float(max(ratios)) if ratios else 0.0
    report.holdout_passed = report.worst_ratio <= 1.0 + _HOLDOUT_SLACK
    return report
