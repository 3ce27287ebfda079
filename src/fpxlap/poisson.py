"""Poisson solution map: convex energy minimization over the Dirichlet class.

The energy of a field u equal to g on exterior cells is

    E(u) = sum_{i<j, i or j in Omega} 2 w_ij |u_i-u_j|^{p_ij} / p_ij
           + 2 dx sum_{i in Omega} tail_i |u_i|^{pbar_i} / pbar_i
           - dx sum_{i in Omega} h_i u_i,

the pairs and tails that the weak form sees, since its test functions
vanish off Omega.  The pairs of two exterior cells and the exterior tails
depend on g alone: they would add a constant, which cannot move the
minimizer and is infinite for data without finite energy on the whole
complement, so they are left out.  E is strictly convex in the interior
unknowns and is minimized by damped lagged-weight linearization with Armijo
backtracking (see ``solve_poisson``).
The gradient component at an interior cell equals the weak-form residual
against that cell's indicator, so the stopping rule certifies the discrete
Euler-Lagrange equations directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .checks import CheckResult, EstimateReport
from .exponents import ExponentField, ScalarExponent, conjugate_exponent, trace_exponent, validate_growth_pair
from .lebesgue import GridFunction, luxemburg_norm
from .mesh_kernel import KernelWeights, Mesh, _gather, _is_count, _layout, _row_blocks
from .sobolev import DirichletPair, _pair_sum, apply_operator, full_norm, weak_form


_MIN_STEP = 1e-20      # smallest Armijo step tried before an iteration gives up
_ENERGY_TOL = 1e-8     # energy drop forgiven by minimizer_equivalence_check
_HOLDOUT_SLACK = 0.10  # holdout ratio above 1 forgiven by lr_estimate_check


@dataclass(frozen=True)
class Tolerances:
    el_residual: float = 1e-8
    max_iter: int = 50_000

    def __post_init__(self):
        # an inf (or True, read as 1.0) tolerance would certify an unsolved field, a nan none
        if isinstance(self.el_residual, bool) or not (0 < self.el_residual < np.inf):
            raise ValueError("tolerances must be positive and finite")
        if not _is_count(self.max_iter):
            raise ValueError("Tolerances.max_iter must be a positive integer")


@dataclass(frozen=True)
class PoissonProblem:
    """Source h and exterior datum g.  Only the semilinear solvers and
    ``lr_estimate_check`` read the growth exponent r; they check (r, p)."""

    mesh: Mesh
    weights: KernelWeights
    p: ExponentField
    h: GridFunction
    g: GridFunction
    r: ScalarExponent | None = None
    tolerances: Tolerances = Tolerances()

    def with_h(self, h: GridFunction) -> "PoissonProblem":
        return replace(self, h=h)

    def with_g(self, g: GridFunction) -> "PoissonProblem":
        return replace(self, g=g)


def _require_growth_pair(prob: PoissonProblem) -> None:
    """Raise unless the problem has an r with pbar+ < r- and r < the critical exponent."""
    if prob.r is None or not validate_growth_pair(prob.r, prob.p, prob.mesh):
        raise ValueError("growth pair (r, p) fails pbar+ < r- or r < critical exponent")


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
    """Energy of a field: the reference that tests and checks recompute with,
    apart from the solver's own pass (``_InteriorBlock._pass``).  Its pairs
    are those of the 'omega' modular, over p, each formed once."""
    vals, W, mask = _field(u).values, prob.weights, prob.mesh.interior_mask
    pbar = W.p_bar[mask]
    tail = 2.0 * float(np.sum(W.tail[mask] * np.abs(vals[mask]) ** pbar / pbar))
    source = float(np.sum(prob.h.values[mask] * vals[mask]))
    return _pair_sum(vals, W, "omega", over_p=True) + prob.mesh.cell_width * (tail - source)


def energy_gradient(u, prob: PoissonProblem) -> GridFunction:
    """First variation with respect to the interior unknowns.

    2 dx (operator u) - dx h on the interior, that is component i:
    2 sum_j w_ij |u_i-u_j|^{p_ij-2}(u_i-u_j) + 2 dx tail_i |u_i|^{pbar_i-2} u_i
    - dx h_i.  Exterior components are constrained and reported as zero.
    The reference on ``apply_operator`` (its 'rn' pairs), apart from the
    solver's own pass in ``_InteriorBlock``: tests, checks and benchmarks
    recompute residuals with it; no solver calls it.
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


# |d| is raised to at least this, so an exact tie d = 0 gives a finite weight
# w |d|^{p-2} and flux 0, not inf and 0 * inf; every model floor is larger
_SQRT_TINY = np.sqrt(np.finfo(float).tiny)
# consecutive interior unknowns per diagonal block of the CG preconditioner
_PCG_BLOCK = 32
# first model floor, relative to the field's spread; a warm start scales it
# by its first residual over the load, min(1, r_0 / |dx h|_inf)
_FLOOR_START = 0.3
# the least factor by which floor_rel shrinks per accepted step
_FLOOR_DECAY = 0.1


def _floor_weights(k: np.ndarray, a: np.ndarray, w: np.ndarray, p, floor: float,
                   t: np.ndarray) -> None:
    """k = w |d|^{p-2} (a = |d|) becomes w max(|d|, floor)^{p-2} in place.

    Only the entries below the floor get a power of their own; p is a float
    or an array shaped like k, and t is scratch of that shape.
    """
    small = np.less(a, floor)
    if np.isscalar(p):
        np.multiply(w, floor ** (p - 2.0), out=k, where=small)
    else:
        np.power(floor, np.subtract(p, 2.0, out=t, where=small), out=t, where=small)
        np.multiply(w, t, out=k, where=small)


def _block_inverses(A: np.ndarray) -> np.ndarray:
    """Inverses of the diagonal blocks of ``_PCG_BLOCK`` consecutive unknowns
    of A (one block when A is no larger), stacked; the last block is padded
    with the identity."""
    m = A.shape[0]
    size = min(_PCG_BLOCK, m)
    blocks = np.zeros((-(-m // size), size, size))
    blocks[-1] = np.eye(size)
    for b, i0 in enumerate(range(0, m, size)):
        i1 = min(i0 + size, m)
        blocks[b, :i1 - i0, :i1 - i0] = A[i0:i1, i0:i1]
    return np.linalg.inv(blocks)


def _pcg(A: np.ndarray, rhs: np.ndarray, rtol: float) -> tuple[np.ndarray, int]:
    """Block-Jacobi-preconditioned CG for A d = rhs from d = 0.

    The preconditioner applies the inverses of A's diagonal blocks of
    ``_PCG_BLOCK`` unknowns (size 1 is Jacobi); a block that covers all of A
    is its inverse, and CG then takes one step.  Stops at
    |r|_2 <= rtol |rhs|_2, at a loss of positive curvature, or after 8m
    steps; returns the iterate and the step count.
    """
    m = rhs.size
    inverses = _block_inverses(A)
    padded = np.zeros(inverses.shape[0] * inverses.shape[1])
    stacked = padded.reshape(inverses.shape[0], -1, 1)

    def precondition(r):
        padded[:m] = r
        return np.matmul(inverses, stacked).reshape(-1)[:m]

    d = np.zeros_like(rhs)
    resid = rhs.copy()
    z = precondition(resid)
    direction = z.copy()
    rz = float(resid @ z)
    rr = float(resid @ resid)
    stop = max(rr, 1e-300) * rtol * rtol
    it = 0
    while rr > stop and it < 8 * m:
        ad = A @ direction
        dad = float(direction @ ad)
        if dad <= 0.0:
            break
        step = rz / dad
        d += step * direction
        resid -= step * ad
        rr = float(resid @ resid)
        z = precondition(resid)
        rz_new = float(resid @ z)
        direction = z + (rz_new / rz) * direction
        rz = rz_new
        it += 1
    return d, it


class _InteriorBlock:
    """The row-block set-up of ``solve_poisson`` for one (mesh, weights).

    Columns are ordered [interior | exterior | tail] (``mesh_kernel._layout``
    and one more): the tail of row i is a column of weight dx tail_i,
    exponent pbar_i and value 0, and the pass, the gradient and the model
    treat it as any other column, so the far field beyond the box reaches
    the solver only through it.  In this order row i holds the columns
    from column i on, and ``_row_blocks`` cuts the interior rows into
    blocks: the block of rows [i0, i1) holds the
    columns from i0 on, with weight 0 below the diagonal of its own square,
    so each pair with a cell in Omega and each interior tail lies in one
    block, once.  The blocks hold the whole energy.

    Each block keeps its weights, gathered and doubled (each pair enters
    the energy and the gradient twice), its exponents when p varies and,
    away from uniform p = 2, the max(|d|, sqrt(tiny)) and 2 w |d|^{p-2} of
    the last evaluated point, which the model pass floors, every column by
    one floor, into the model Hessian's upper blocks.  The last evaluated
    point is always the accepted one when a model is built, since a trial
    is either accepted or followed by another.

    A p = 2 block also holds the model Hessian; once reused for a second
    solve it factors that Hessian once and takes every later direction by
    one application of the inverse instead of CG.  A one-off solve never
    pays for the factor.

    ``residual`` gives the gradient's sup over the rows by the same pass,
    the certificate of the semilinear solvers: each row holds all its pairs
    and its tail, so the rows of a shell's block carry the global gradient's
    components there, and the shells' blocks together cover the interior.
    """

    def __init__(self, mesh: Mesh, weights: KernelWeights):
        self.mesh, self.weights = mesh, weights
        self.cols, self._runs = _layout(mesh.interior_mask)
        self.m = m = int(np.count_nonzero(mesh.interior_mask))
        self.rows = self.cols[:m]
        self.p_const = weights.p_const
        self.quadratic = self.p_const == 2.0
        self._values = np.zeros(mesh.n_cells + 1)  # the field in column order; the tail's 0 stays
        self.blocks = list(self._gather_blocks())
        self._model = None if self.quadratic else np.empty((m, m))
        self._hessian = None    # quadratic model Hessian, built on first use
        self._inverse = None    # its inverse (p = 2), built on first reuse
        self._solves = 0

    def _gather_blocks(self):
        """The row blocks of the interior rows, with the views ``_pass`` reads."""
        weights, cols, m, n = self.weights, self.cols, self.m, self.mesh.n_cells
        spans = list(_row_blocks(m, n + 1))
        shapes = [(i1 - i0, n + 1 - i0) for i0, i1 in spans]
        sizes = [r * c for r, c in shapes]
        scratch = np.empty((2, max(sizes)))  # d and one temporary, shared by the blocks
        # |d| and |d|^p, kept by each block away from p = 2, for the model
        held = None if self.quadratic else np.empty((2, sum(sizes)))
        offset = 0
        ones = np.ones(n + 1)
        vc = self._values
        for (i0, i1), shape, size in zip(spans, shapes, sizes):
            w = _gather(weights.w, self._runs, i0, i1, np.empty(shape))
            w[:, -1] = self.mesh.cell_width * weights.tail[cols[i0:i1]]
            w *= 2.0
            # the square's pairs below its diagonal are the ones above it
            w[:, :i1 - i0][np.tri(i1 - i0, k=-1, dtype=bool)] = 0.0
            p = self.p_const
            if p is None:
                p = _gather(weights.p_pair, self._runs, i0, i1, np.empty(shape))
                p[:, -1] = weights.p_bar[cols[i0:i1]]
            d, t = (buf[:size].reshape(shape) for buf in scratch)
            a = k = None
            if held is not None:
                a, k = (buf[offset:offset + size].reshape(shape) for buf in held)
                offset += size
            # with the views the pass reads: row and column values, the
            # interior columns of t, and ones for the sums
            yield (i0, i1, w, p, a, k, d, t, vc[i0:i1, None], vc[None, i0:],
                   t[:, :m - i0], ones[:shape[1]], ones[:shape[0]])

    def _pass(self, v: np.ndarray, flux: np.ndarray) -> float:
        """Energy of the blocks' pairs and tails at the field v; their gradient
        is added into flux.

        One pass over each block forms d and, away from uniform p = 2, one
        power per pair: the lagged weight k = w a^{p-2} of a = max(|d|,
        sqrt(tiny)), the flux k d and the energy terms k d^2 / p.  It sums the
        energy and the gradient's row sums minus its antisymmetric column
        sums, and leaves a and k in the block's buffers.  a is clamped only
        where |d| < sqrt(tiny) (about 1.5e-154), in practice at exact ties:
        there the flux and the energy term are 0 or far below rounding, and
        every model floor lies above the clamp.
        """
        quadratic, variable = self.quadratic, self.p_const is None
        self._values[:-1] = v[self.cols]
        total = 0.0
        for i0, i1, w, p, a, k, d, t, x, y, core, ones_c, ones_r in self.blocks:
            np.subtract(x, y, out=d)
            if quadratic:
                np.multiply(d, w, out=t)
                total += np.vdot(t, d)
            else:
                np.abs(d, out=a)
                np.maximum(a, _SQRT_TINY, out=a)
                np.power(a, np.subtract(p, 2.0, out=k) if variable else p - 2.0, out=k)
                k *= w
                np.multiply(k, d, out=t)  # the flux
                if variable:
                    np.divide(d, p, out=d)  # d is not read again
                total += np.vdot(t, d)
            flux[i0:i1] += t @ ones_c
            flux[i0:] -= ones_r @ core
        return float(total) if variable else float(total) / self.p_const

    def _evaluate(self, v: np.ndarray, source: np.ndarray) -> tuple[float, np.ndarray]:
        """Energy and gradient over the rows at the field v, with the rows'
        source dx h: the block's one gradient formula."""
        grad = np.zeros(self.m)
        e = self._pass(v, grad) - float(source @ self._values[:self.m])
        grad -= source
        return e, grad

    def residual(self, v: np.ndarray, h: np.ndarray) -> float:
        """Sup over the rows of the energy gradient at the field v with the
        source h (both on all cells), by the pass ``solve`` evaluates with.

        It leaves the next solve unchanged: a solve evaluates its start
        before it reads anything a pass keeps."""
        return float(np.max(np.abs(self._evaluate(v, self.mesh.cell_width * h[self.rows])[1])))

    def _hessian_of(self, weights, scale: float, out: np.ndarray) -> np.ndarray:
        """scale (diag(row sums) - core) into out, for pair weights laid out
        as the blocks: the upper blocks are written and mirrored."""
        m = self.m
        degree = np.zeros(m)
        for (i0, i1, *_), k in zip(self.blocks, weights):
            core = k[:, :m - i0]
            np.multiply(core, -scale, out=out[i0:i1, i0:])
            out[i1:, i0:i1] = out[i0:i1, i1:].T
            square = out[i0:i1, i0:i1]
            square += square.T
            degree[i0:i1] += k.sum(axis=1)
            degree[i0:] += core.sum(axis=0)
        np.fill_diagonal(out, scale * degree)
        return out

    def _quadratic_hessian(self) -> np.ndarray:
        """2 (diag(row sums + dx tail) - core): the p = 2 Hessian, and the
        model of any energy at a constant field."""
        if self._hessian is None:
            self._hessian = self._hessian_of([w for _, _, w, *_ in self.blocks], 1.0,
                                             np.empty((self.m, self.m)))
        return self._hessian

    def _model_hessian(self, floor: float) -> np.ndarray:
        """The lagged model's Hessian at the last evaluated point: its kept
        w |d|^{p-2}, of the pairs and the far-field column alike, floored to
        w max(|d|, floor)^{p-2} and scaled by max(p-1, 1)."""
        variable = self.p_const is None
        kept = []
        for _, _, w, p, a, k, _, t, *_ in self.blocks:
            _floor_weights(k, a, w, p, floor, t)
            if variable:
                np.subtract(p, 1.0, out=t)
                k *= np.maximum(t, 1.0, out=t)
            kept.append(k)
        scale = 1.0 if variable else max(self.p_const - 1.0, 1.0)
        return self._hessian_of(kept, scale, self._model)

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

        source = mesh.cell_width * prob.h.values[rows]

        def model_direction(v, grad, floor_rel, rtol):
            if factored:
                return self._factor_direction(grad), 0
            dmax = float(v.max() - v.min())
            if quadratic or dmax == 0.0:
                # constant field: every pair weight degenerates, use the quadratic model
                return _pcg(self._quadratic_hessian(), -grad, rtol)
            floor = max(1e-13 * max(float(np.abs(v).max()), dmax), floor_rel * dmax)
            # the last evaluated point is the accepted one: its kept blocks give the weights
            return _pcg(self._model_hessian(floor), -grad, rtol)

        e_now, grad = self._evaluate(vals, source)
        if not np.isfinite(e_now):
            raise ValueError("non-finite energy at the initial field")
        residual = first_residual = float(np.max(np.abs(grad)))
        history = [e_now]
        converged = False
        it = cg_total = backtracks = 0
        prev_residual = None
        load = float(np.abs(source).max(initial=0.0))
        if initial is None or load == 0.0:
            floor_rel = _FLOOR_START
        else:
            # a start near the answer keeps a floor near the answer's scale
            floor_rel = _FLOOR_START * min(1.0, first_residual / load)
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
            d, n_cg = model_direction(vals, grad, floor_rel, rtol)
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
                e_trial, trial_grad = self._evaluate(trial, source)
                if np.isfinite(e_trial) and e_trial <= e_now + 1e-4 * alpha * slope + guard * (1.0 + abs(e_now)):
                    if e_trial >= e_now - guard * (1.0 + abs(e_now)):
                        # energy change below fp resolution: demand residual progress
                        accepted = float(np.max(np.abs(trial_grad))) < residual * (1.0 - 1e-3)
                    else:
                        accepted = True
                    if accepted:
                        vals, grad = trial, trial_grad
                        e_now = min(e_trial, e_now)
                        break
                alpha *= 0.5
                backtracks += 1
            it += 1
            history.append(e_now)
            if not accepted:
                # no certified progress left at machine precision
                break
            prev_residual, residual = residual, float(np.max(np.abs(grad)))
            # the floor shrinks with the residual (IRLS), at least tenfold per step
            floor_rel = max(min(_FLOOR_DECAY * floor_rel, _FLOOR_START * residual / first_residual), 1e-14)

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

    Each trial point costs one pass over the interior-row blocks of
    ``_InteriorBlock``: it takes one power per pair, the lagged weight
    w |d|^{p-2} (|d| raised to at least sqrt(tiny), so that a tie gets a
    finite weight), and from it the flux w |d|^{p-2} d and the energy term
    w |d|^{p-2} d^2 / p, with no division by d.  It adds up the energy and
    the gradient (row sums minus the antisymmetric column sums of the
    fluxes), and the block keeps the weights with |d| for the model.

    Each iteration builds the weighted-graph-Laplacian model of the energy
    with lagged pair weights max(p-1,1) w max(|u_i-u_j|, floor)^{p-2}: a
    second, short pass over the kept blocks floors them (only the entries
    below the floor get a power of their own; the far-field tail column is
    floored like every pair), then writes the model Hessian's upper blocks
    and mirrors them.  The floor is floor_rel times the field's spread, and
    at least 1e-13 times the larger of its sup and its spread.  floor_rel
    starts at 0.3 for a cold start; a start
    given as ``initial`` begins at min(0.3, 0.3 r_0 / |dx h|_inf) (0.3 when
    h = 0), so a start near the answer is not re-floored as a cold one.  After
    each accepted step floor_rel becomes
    max(min(floor_rel / 10, 0.3 r_k / r_0), 1e-14), with r_k the gradient
    sup-norm and r_0 the call's first one: it shrinks with the residual
    (Daubechies, DeVore, Fornasier & Gunturk 2010) and at least tenfold per
    iteration (``_FLOOR_DECAY``), so p >= 2 soon gets the true Newton
    weights, and for p < 2, whose count the floor sets, it reaches the
    answer's scale in fewer iterations.  The model is
    solved by conjugate gradients preconditioned with the inverses of its
    diagonal blocks of ``_PCG_BLOCK`` consecutive interior unknowns (block
    Jacobi; an interior that fits one block takes one CG step), and the
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


def _affine_envelope_fit(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Tightest affine majorant a_k <= K1 + K2 b_k with K1, K2 >= 0.

    For a fixed K2 the least K1 is max(0, max_k(a_k - K2 b_k)), and the total
    slack m K1 + K2 sum b - sum a is then convex and piecewise linear in K2.
    Its minimum over K2 >= 0 lies at 0 or at a kink, where two of the lines
    a_k - K2 b_k cross or one of them crosses 0, so it is the least of those.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        kinks = np.concatenate([[0.0], a / b, ((a[:, None] - a) / (b[:, None] - b)).ravel()])
    k2 = kinks[np.isfinite(kinks) & (kinks >= 0.0)]
    k1 = np.maximum(np.max(a - k2[:, None] * b, axis=1), 0.0)
    best = int(np.argmin(a.size * k1 + k2 * b.sum()))
    return float(k1[best]), float(k2[best])


def lr_estimate_check(family, prob_template: PoissonProblem) -> EstimateReport:
    """Fit/holdout protocol for the r-norm a-priori estimate.

    Solves each right-hand side with the template's exterior datum, forms
    a_k = max(||u_k||_r^{p+-1}, ||u_k||_r^{p--1}) and
    b_k = ||h_k||_{r'}^{(p+-1)/(p--1)}, fits the least nonnegative affine
    majorant on a training half and verifies it on the held-out half, up to
    the ratio 1 + ``_HOLDOUT_SLACK``.  The halves interleave the family so
    both cover the same scale range (the a(b) relation is concave when p
    varies, so a majorant fitted on a gappy range would be unfair to the middle).
    The template's (r, p) must be a growth pair (``validate_growth_pair``).
    """
    if len(family) < 8:
        raise ValueError("estimate protocol needs at least 8 right-hand sides")
    _require_growth_pair(prob_template)
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
    k1, k2 = _affine_envelope_fit(a[train_idx], b[train_idx])
    report = EstimateReport(
        k1=k1, k2=k2, feasible=True,
        train_pairs=list(zip(a[train_idx].tolist(), b[train_idx].tolist())),
        holdout_pairs=list(zip(a[hold_idx].tolist(), b[hold_idx].tolist())),
    )
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
