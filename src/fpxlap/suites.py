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
    detail: str = ""
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


# the norm/modular suite's slack; the other suites use their checks' defaults
_NORM_MODULAR_TOL = 1e-8


def random_grid_function(rng: np.random.Generator, mesh: Mesh) -> GridFunction:
    scale = np.exp(rng.uniform(np.log(1e-2), np.log(1e2)))
    return GridFunction(mesh, scale * rng.standard_normal(mesh.n_cells))


def run_norm_modular_suite(mesh: Mesh, rng: np.random.Generator, n_cases: int) -> SuiteResult:
    """Norm/modular comparison items plus the unit-ball certificate."""
    failures = 0
    worst = np.inf
    worst_cert = 0.0
    region = mesh.interior_mask
    for _ in range(n_cases):
        q = random_affine_exponent(rng, mesh)
        u = random_grid_function(rng, mesh)
        check = norm_modular_relation_check(u, q, region, tol=_NORM_MODULAR_TOL)
        worst = min(worst, check.slack)
        nrm = check.bound  # the Luxemburg norm the relation check computed
        cert = abs(modular(u.replace_values(u.values / nrm), q, region) - 1.0)
        worst_cert = max(worst_cert, cert)
        if not check.passed or cert > _NORM_MODULAR_TOL:
            failures += 1
    return SuiteResult(
        name="norm_modular", cases=n_cases, failures=failures,
        worst_slack=float(worst),
        extras={"worst_unit_ball_defect": f"{worst_cert:.6e}"},
    )


def run_holder_suite(mesh: Mesh, rng: np.random.Generator, n_cases: int) -> SuiteResult:
    failures = 0
    worst = np.inf
    region = mesh.interior_mask
    for _ in range(n_cases):
        q = random_affine_exponent(rng, mesh)
        u = random_grid_function(rng, mesh)
        v = random_grid_function(rng, mesh)
        check = holder_pairing_check(u, v, q, region)
        worst = min(worst, check.slack)
        failures += 0 if check.passed else 1
    return SuiteResult(name="holder", cases=n_cases, failures=failures, worst_slack=float(worst))


def run_cara_suite(mesh: Mesh, rng: np.random.Generator, n_cases: int) -> SuiteResult:
    failures = 0
    worst = np.inf
    region = mesh.interior_mask
    for _ in range(n_cases):
        gamma = random_affine_exponent(rng, mesh)
        check = norm_of_one_bounds(gamma, mesh, region)
        worst = min(worst, check.slack)
        failures += 0 if check.passed else 1
    return SuiteResult(name="cara", cases=n_cases, failures=failures, worst_slack=float(worst))


def run_edm_suite(mesh: Mesh, rng: np.random.Generator, n_cases: int) -> SuiteResult:
    failures = 0
    worst = np.inf
    region = mesh.interior_mask
    for _ in range(n_cases):
        alpha = random_affine_exponent(rng, mesh, 1.5, 3.0)
        beta = random_affine_exponent(rng, mesh, 1.05, 2.0)
        u = random_grid_function(rng, mesh)
        check = power_norm_bounds_check(u, alpha, beta, region)
        worst = min(worst, check.slack)
        failures += 0 if check.passed else 1
    return SuiteResult(name="edm", cases=n_cases, failures=failures, worst_slack=float(worst))


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
