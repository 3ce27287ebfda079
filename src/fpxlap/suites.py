"""Seeded random inequality suites shared by the verify mode and acceptance tests.

A suite draws its cases from the rng one after another, exactly as calls of
``random_affine_exponent`` and ``random_grid_function`` would, but keeps the
raw numbers and evaluates a chunk of cases at a time, one case per row,
through the check cores of ``lebesgue``; each case's (slack, passed,
defect) equals that of the public single-case check on the same draws.  A
chunk holds about ``_CHUNK_VALUES`` values per stacked array, so a suite's
memory does not grow with its case count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exponents import ScalarExponent, _conjugate_values
from .lebesgue import (GridFunction, _holder_rows, _modular_rows, _norm_modular_rows,
                       _norm_of_one_rows, _power_norm_rows)
from .mesh_kernel import _BLOCK_PAIRS, Mesh


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: int
    worst_slack: float
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def lines(self):
        yield f"check.{self.name}.cases: {self.cases}"
        yield f"check.{self.name}.failures: {self.failures}"
        yield f"check.{self.name}.worst_slack: {self.worst_slack:.6e}"
        for k, v in self.extras.items():
            yield f"check.{self.name}.{k}: {v}"
        yield f"check.{self.name}.passed: {self.passed}"


def _draw_affine(rng: np.random.Generator, R: float, lo: float, hi: float) -> tuple[float, float]:
    """(base, slope) of an affine exponent whose range over [-R, R] stays inside [lo, hi]."""
    mid_lo, mid_hi = lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)
    base = rng.uniform(mid_lo, mid_hi)
    room = min(base - lo, hi - base)
    return base, rng.uniform(-room, room) / R


def random_affine_exponent(rng: np.random.Generator, mesh: Mesh,
                           lo: float = 1.5, hi: float = 3.5) -> ScalarExponent:
    """Affine exponent whose range over the box stays inside [lo, hi]."""
    base, slope = _draw_affine(rng, mesh.R, lo, hi)
    return ScalarExponent(
        evaluator=lambda x, b=base, m=slope: b + m * np.asarray(x),
        lower=base - abs(slope) * mesh.R,
        upper=base + abs(slope) * mesh.R,
    )


_LOG_SCALES = (np.log(1e-2), np.log(1e2))  # the range of the log of a field's scale


def _draw_scale(rng: np.random.Generator) -> float:
    return np.exp(rng.uniform(*_LOG_SCALES))


def random_grid_function(rng: np.random.Generator, mesh: Mesh) -> GridFunction:
    scale = _draw_scale(rng)
    return GridFunction(mesh, scale * rng.standard_normal(mesh.n_cells))


# the norm/modular suite's slack; each other suite uses its check's fixed one
_NORM_MODULAR_TOL = 1e-8
# interior values per stacked array of a chunk of cases
_CHUNK_VALUES = _BLOCK_PAIRS


def _draw_chunk(mesh: Mesh, rng: np.random.Generator, count: int, kinds) -> list[np.ndarray]:
    """``count`` cases, each drawing what ``kinds`` lists in its order: an
    (lo, hi) range the affine exponent of ``random_affine_exponent``, None
    the field of ``random_grid_function``.  Returns the values of each kind
    at the interior cells, one case per row, without building the objects."""
    mask = mesh.interior_mask
    x = mesh.cell_centers[mask]
    normal = np.empty(mesh.n_cells)
    # a case's draws of each kind: (base, slope), or the scale then the normals
    draws = [np.empty((count, 1 + x.size if kind is None else 2)) for kind in kinds]
    for j in range(count):
        for kind, d in zip(kinds, draws):
            if kind is None:
                d[j, 0] = _draw_scale(rng)
                rng.standard_normal(out=normal)
                d[j, 1:] = normal[mask]
            else:
                d[j] = _draw_affine(rng, mesh.R, *kind)
    return [d[:, 1:] * d[:, :1] if kind is None else d[:, :1] + d[:, 1:] * x
            for kind, d in zip(kinds, draws)]


def _norm_modular_chunk(mesh: Mesh, rng: np.random.Generator, count: int):
    q, u = _draw_chunk(mesh, rng, count, ((1.5, 3.5), None))
    cw = mesh.cell_width
    _, nrm, slack, passed = _norm_modular_rows(u, q, cw, _NORM_MODULAR_TOL)
    # the unit-ball certificate at the Luxemburg norm the check computed
    defect = np.abs(_modular_rows(u / nrm[:, None], q, cw) - 1.0)
    return slack, passed & ~(defect > _NORM_MODULAR_TOL), defect


def _holder_chunk(mesh: Mesh, rng: np.random.Generator, count: int):
    q, u, v = _draw_chunk(mesh, rng, count, ((1.5, 3.5), None, None))
    _, _, slack, passed = _holder_rows(u, v, q, _conjugate_values(q), mesh.cell_width)
    return slack, passed, np.zeros(count)


def _cara_chunk(mesh: Mesh, rng: np.random.Generator, count: int):
    gamma, = _draw_chunk(mesh, rng, count, ((1.5, 3.5),))
    _, _, _, slack, passed = _norm_of_one_rows(gamma, mesh.cell_width)
    return slack, passed, np.zeros(count)


def _edm_chunk(mesh: Mesh, rng: np.random.Generator, count: int):
    alpha, beta, u = _draw_chunk(mesh, rng, count, ((1.5, 3.0), (1.05, 2.0), None))
    _, _, _, slack, passed = _power_norm_rows(u, alpha, beta, mesh.cell_width)
    return slack, passed, np.zeros(count)


def _chunks(chunk, mesh: Mesh, rng: np.random.Generator, n_cases: int):
    """``n_cases`` cases of ``chunk`` as its (slack, passed, defect) arrays,
    about ``_CHUNK_VALUES`` interior values per stacked array at a time."""
    size = max(1, _CHUNK_VALUES // int(mesh.interior_mask.sum()))
    for start in range(0, n_cases, size):
        yield chunk(mesh, rng, min(size, n_cases - start))


def _run_cases(name: str, chunk, mesh: Mesh, rng: np.random.Generator, n_cases: int,
               defect_name: str | None = None) -> SuiteResult:
    """The failures, the worst slack and, under ``defect_name``, the worst
    defect of ``n_cases`` cases of ``chunk``."""
    failures, worst, worst_defect = 0, np.inf, 0.0
    for slack, passed, defect in _chunks(chunk, mesh, rng, n_cases):
        # folded in case order, as Python's min and max of one case at a time
        worst = min([worst, *slack.tolist()])
        worst_defect = max([worst_defect, *defect.tolist()])
        failures += int(np.count_nonzero(~passed))
    extras = {defect_name: f"{worst_defect:.6e}"} if defect_name else {}
    return SuiteResult(name=name, cases=n_cases, failures=failures,
                       worst_slack=float(worst), extras=extras)


def run_norm_modular_suite(mesh: Mesh, rng: np.random.Generator, n_cases: int) -> SuiteResult:
    """Norm/modular comparison items plus the unit-ball certificate."""
    return _run_cases("norm_modular", _norm_modular_chunk, mesh, rng, n_cases,
                      "worst_unit_ball_defect")


def run_holder_suite(mesh: Mesh, rng: np.random.Generator, n_cases: int) -> SuiteResult:
    return _run_cases("holder", _holder_chunk, mesh, rng, n_cases)


def run_cara_suite(mesh: Mesh, rng: np.random.Generator, n_cases: int) -> SuiteResult:
    return _run_cases("cara", _cara_chunk, mesh, rng, n_cases)


def run_edm_suite(mesh: Mesh, rng: np.random.Generator, n_cases: int) -> SuiteResult:
    return _run_cases("edm", _edm_chunk, mesh, rng, n_cases)


SUITE_RUNNERS = {
    "norm_modular": run_norm_modular_suite,
    "holder": run_holder_suite,
    "cara": run_cara_suite,
    "edm": run_edm_suite,
}


def run_suites(mesh: Mesh, rng: np.random.Generator, counts: dict) -> list[SuiteResult]:
    results = []
    for name, count in counts.items():
        if name not in SUITE_RUNNERS:
            raise ValueError(f"unknown check suite {name!r}")
        results.append(SUITE_RUNNERS[name](mesh, rng, int(count)))
    return results
