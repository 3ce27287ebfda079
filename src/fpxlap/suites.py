"""Seeded random inequality suites shared by the verify mode and acceptance tests.

A case of a suite is a few affine exponents, each with its base uniform on
the middle 80% of its (lo, hi) and its slope uniform within the room left
over R, and a few fields, each of normal values times a scale log-uniform on
[1e-2, 1e2].  A suite draws all its cases' scalars first, one
``Generator.uniform`` call per kind, and then its fields' normals a chunk of
cases at a time, case after case, so its report does not depend on the
chunk size.  A chunk holds about ``_CHUNK_VALUES`` interior values per
stacked array, so a suite's memory does not grow with its case count.  Its
cases are evaluated one per row through the check cores of ``lebesgue``;
each case's (slack, passed, defect) equals that of the public single-case
check on the same values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exponents import _conjugate_values
from .lebesgue import (_holder_rows, _modular_rows, _norm_modular_rows, _norm_of_one_rows,
                       _power_norm_rows)
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


# the norm/modular suite's slack; each other suite uses its check's fixed one
_NORM_MODULAR_TOL = 1e-8
# interior values per stacked array of a chunk of cases
_CHUNK_VALUES = _BLOCK_PAIRS


def _draws(mesh: Mesh, rng: np.random.Generator, n_cases: int, ranges, n_fields: int):
    """``n_cases`` cases, a chunk at a time, each an affine exponent for each
    (lo, hi) of ``ranges`` and then ``n_fields`` fields: per chunk, their
    values at the interior cells, one (cases, interior cells) array each."""
    x = mesh.cell_centers[mesh.interior_mask]
    lo, hi = np.array(ranges).T
    base = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), (n_cases, lo.size))
    room = np.minimum(base - lo, hi - base)
    slope = rng.uniform(-room, room) / mesh.R
    scale = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), (n_cases, n_fields, 1)))
    size = max(1, _CHUNK_VALUES // x.size)
    for i in range(0, n_cases, size):
        j = min(i + size, n_cases)
        exponents = base[i:j, :, None] + slope[i:j, :, None] * x
        fields = scale[i:j] * rng.standard_normal((j - i, n_fields, x.size))
        yield (*exponents.swapaxes(0, 1), *fields.swapaxes(0, 1))


def _norm_modular_cases(mesh: Mesh, rng: np.random.Generator, n_cases: int):
    cw = mesh.cell_width
    for q, u in _draws(mesh, rng, n_cases, ((1.5, 3.5),), 1):
        _, nrm, slack, passed = _norm_modular_rows(u, q, cw, _NORM_MODULAR_TOL)
        # the unit-ball certificate at the Luxemburg norm the check computed
        defect = np.abs(_modular_rows(u / nrm[:, None], q, cw) - 1.0)
        yield slack, passed & ~(defect > _NORM_MODULAR_TOL), defect


def _holder_cases(mesh: Mesh, rng: np.random.Generator, n_cases: int):
    for q, u, v in _draws(mesh, rng, n_cases, ((1.5, 3.5),), 2):
        _, _, slack, passed = _holder_rows(u, v, q, _conjugate_values(q), mesh.cell_width)
        yield slack, passed, np.zeros(slack.size)


def _cara_cases(mesh: Mesh, rng: np.random.Generator, n_cases: int):
    for gamma, in _draws(mesh, rng, n_cases, ((1.5, 3.5),), 0):
        _, _, _, slack, passed = _norm_of_one_rows(gamma, mesh.cell_width)
        yield slack, passed, np.zeros(slack.size)


def _edm_cases(mesh: Mesh, rng: np.random.Generator, n_cases: int):
    for alpha, beta, u in _draws(mesh, rng, n_cases, ((1.5, 3.0), (1.05, 2.0)), 1):
        _, _, _, slack, passed = _power_norm_rows(u, alpha, beta, mesh.cell_width)
        yield slack, passed, np.zeros(slack.size)


def _run_cases(name: str, cases, mesh: Mesh, rng: np.random.Generator, n_cases: int,
               defect_name: str | None = None) -> SuiteResult:
    """The failures, the worst slack and, under ``defect_name``, the worst
    defect of the ``n_cases`` cases of ``cases``."""
    failures, worst, worst_defect = 0, np.inf, 0.0
    for slack, passed, defect in cases(mesh, rng, n_cases):
        worst = min(worst, slack.min())
        worst_defect = max(worst_defect, defect.max())
        failures += int(np.count_nonzero(~passed))
    extras = {defect_name: f"{worst_defect:.6e}"} if defect_name else {}
    return SuiteResult(name=name, cases=n_cases, failures=failures,
                       worst_slack=float(worst), extras=extras)


def run_norm_modular_suite(mesh: Mesh, rng: np.random.Generator, n_cases: int) -> SuiteResult:
    """Norm/modular comparison items plus the unit-ball certificate."""
    return _run_cases("norm_modular", _norm_modular_cases, mesh, rng, n_cases,
                      "worst_unit_ball_defect")


def run_holder_suite(mesh: Mesh, rng: np.random.Generator, n_cases: int) -> SuiteResult:
    return _run_cases("holder", _holder_cases, mesh, rng, n_cases)


def run_cara_suite(mesh: Mesh, rng: np.random.Generator, n_cases: int) -> SuiteResult:
    return _run_cases("cara", _cara_cases, mesh, rng, n_cases)


def run_edm_suite(mesh: Mesh, rng: np.random.Generator, n_cases: int) -> SuiteResult:
    return _run_cases("edm", _edm_cases, mesh, rng, n_cases)


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
