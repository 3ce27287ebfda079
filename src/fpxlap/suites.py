"""Seeded random inequality suites shared by the verify mode and acceptance tests."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exponents import ScalarExponent
from .lebesgue import (GridFunction, holder_pairing_check, modular,
                       norm_modular_relation_check, norm_of_one_bounds,
                       power_norm_bounds_check)
from .mesh_kernel import Mesh


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


def random_affine_exponent(rng: np.random.Generator, mesh: Mesh,
                           lo: float = 1.5, hi: float = 3.5) -> ScalarExponent:
    """Affine exponent whose range over the box stays inside [lo, hi]."""
    mid_lo, mid_hi = lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)
    base = rng.uniform(mid_lo, mid_hi)
    room = min(base - lo, hi - base)
    slope = rng.uniform(-room, room) / mesh.R
    return ScalarExponent(
        evaluator=lambda x, b=base, m=slope: b + m * np.asarray(x),
        lower=base - abs(slope) * mesh.R,
        upper=base + abs(slope) * mesh.R,
    )


# the norm/modular suite's slack; each other suite uses its check's fixed one
_NORM_MODULAR_TOL = 1e-8


def random_grid_function(rng: np.random.Generator, mesh: Mesh) -> GridFunction:
    scale = np.exp(rng.uniform(np.log(1e-2), np.log(1e2)))
    return GridFunction(mesh, scale * rng.standard_normal(mesh.n_cells))


def _norm_modular_case(mesh: Mesh, rng: np.random.Generator):
    q = random_affine_exponent(rng, mesh)
    u = random_grid_function(rng, mesh)
    check = norm_modular_relation_check(u, q, tol=_NORM_MODULAR_TOL)
    # the unit-ball certificate; check.bound is the Luxemburg norm the check computed
    defect = abs(modular(u.replace_values(u.values / check.bound), q) - 1.0)
    return check.slack, check.passed and not defect > _NORM_MODULAR_TOL, defect


def _holder_case(mesh: Mesh, rng: np.random.Generator):
    q = random_affine_exponent(rng, mesh)
    u = random_grid_function(rng, mesh)
    v = random_grid_function(rng, mesh)
    check = holder_pairing_check(u, v, q)
    return check.slack, check.passed, 0.0


def _cara_case(mesh: Mesh, rng: np.random.Generator):
    check = norm_of_one_bounds(random_affine_exponent(rng, mesh), mesh)
    return check.slack, check.passed, 0.0


def _edm_case(mesh: Mesh, rng: np.random.Generator):
    alpha = random_affine_exponent(rng, mesh, 1.5, 3.0)
    beta = random_affine_exponent(rng, mesh, 1.05, 2.0)
    check = power_norm_bounds_check(random_grid_function(rng, mesh), alpha, beta)
    return check.slack, check.passed, 0.0


def _run_cases(name: str, case, mesh: Mesh, rng: np.random.Generator, n_cases: int,
               defect_name: str | None = None) -> SuiteResult:
    """``n_cases`` draws of ``case(mesh, rng)`` -> (slack, passed, defect):
    the failures, the worst slack and, under ``defect_name``, the worst
    defect."""
    failures, worst, worst_defect = 0, np.inf, 0.0
    for _ in range(n_cases):
        slack, passed, defect = case(mesh, rng)
        worst, worst_defect = min(worst, slack), max(worst_defect, defect)
        failures += 0 if passed else 1
    extras = {defect_name: f"{worst_defect:.6e}"} if defect_name else {}
    return SuiteResult(name=name, cases=n_cases, failures=failures,
                       worst_slack=float(worst), extras=extras)


def run_norm_modular_suite(mesh: Mesh, rng: np.random.Generator, n_cases: int) -> SuiteResult:
    """Norm/modular comparison items plus the unit-ball certificate."""
    return _run_cases("norm_modular", _norm_modular_case, mesh, rng, n_cases,
                      "worst_unit_ball_defect")


def run_holder_suite(mesh: Mesh, rng: np.random.Generator, n_cases: int) -> SuiteResult:
    return _run_cases("holder", _holder_case, mesh, rng, n_cases)


def run_cara_suite(mesh: Mesh, rng: np.random.Generator, n_cases: int) -> SuiteResult:
    return _run_cases("cara", _cara_case, mesh, rng, n_cases)


def run_edm_suite(mesh: Mesh, rng: np.random.Generator, n_cases: int) -> SuiteResult:
    return _run_cases("edm", _edm_case, mesh, rng, n_cases)


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
