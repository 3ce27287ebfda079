"""Configuration-driven entry point: validate / poisson / semilinear / decompose / verify.

Configs are strict JSON documents; unknown keys are rejected so typos fail
loudly.  Every run is deterministic for a fixed config and seed.  Exit codes:
0 converged and all checks passed, 1 check failure, 2 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import catalog
from .catalog import _finite
from .exponents import validate_exponent_field, validate_growth_pair
from .lebesgue import GridFunction
from .mesh_kernel import Mesh, _is_count, assemble_weights, build_mesh
from .poisson import PoissonProblem, Tolerances, solve_poisson
from .semilinear import (DecompositionError, fixed_point_solve, growth_screen,
                         solve_by_decomposition)
from .suites import run_suites

MODES = ("validate", "poisson", "semilinear", "decompose", "verify")


def _intervals(v) -> bool:
    return isinstance(v, list) and all(
        isinstance(pair, list) and len(pair) == 2 and all(map(_finite, pair)) for pair in v)


_FINITE = (_finite, "a finite number")
_POSITIVE = (lambda v: _finite(v) and v > 0, "a finite positive number")
_COUNT = (_is_count, "a positive integer")
# a catalog entry, passed to the catalog as its keyword arguments; the
# catalog checks the names and values of its params
_ENTRY = {"kind": (lambda v: isinstance(v, str), "a string"),
          "params": (lambda v: isinstance(v, dict), "an object")}

# a dict is an object and its keys; a leaf is (test, what the value must be)
_SCHEMA = {
    "mode": None,  # checked against the requested mode in parse_config
    "seed": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "output": {"dir": (lambda v: isinstance(v, str), "a string")},
    "mesh": {"R": _FINITE, "n_cells": _COUNT,
             "dump_weights": (lambda v: isinstance(v, bool), "a boolean")},
    "omega": {"intervals": (_intervals, "a list of [a, b] pairs of finite numbers")},
    "order": {"s": _FINITE},
    "exponent": _ENTRY,
    "growth": {"r": _ENTRY},
    "data": {"h": _ENTRY, "g": _ENTRY},
    "nonlinearity": _ENTRY,
    "fixedpoint": {"theta": _FINITE, "max_iter": _COUNT},
    "decompose": {"shells": _COUNT},
    "tolerances": {"el_residual": _POSITIVE, "max_iter": _COUNT},
    "checks": {"norm_modular": _COUNT, "holder": _COUNT, "cara": _COUNT, "edm": _COUNT},
}

# the keys each object must set, by its path
_REQUIRED = {
    "mesh": ("R", "n_cells"),
    "omega": ("intervals",),
    "order": ("s",),
    "growth": ("r",),
    "decompose": ("shells",),
    **{path: ("kind", "params")
       for path in ("exponent", "growth.r", "data.h", "data.g", "nonlinearity")},
}

_MODE_REQUIRES = {
    "validate": ("mesh", "omega", "order", "exponent"),
    "poisson": ("mesh", "omega", "order", "exponent", "data"),
    "semilinear": ("mesh", "omega", "order", "exponent", "growth", "data", "nonlinearity"),
    "decompose": ("mesh", "omega", "order", "exponent", "growth", "data", "nonlinearity",
                  "decompose"),
    "verify": ("mesh", "omega", "checks"),
}


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in self.errors))


@dataclass
class RunConfig:
    mode: str
    seed: int
    raw: dict
    out_dir: Path = field(default=Path("."))


def _check_keys(doc, schema, path, errors):
    """Name each unknown key, non-object section, wrongly typed value and
    missing required key of doc."""
    for key in _REQUIRED.get(path, ()):
        if key not in doc:
            errors.append(f"{path}.{key} missing")
    for key, val in doc.items():
        name = f"{path}.{key}" if path else key
        if key not in schema:
            errors.append(f"unknown key {name!r}")
            continue
        rule = schema[key]
        if isinstance(rule, dict):
            if isinstance(val, dict):
                _check_keys(val, rule, name, errors)
            else:
                errors.append(f"{name}: expected an object")
        elif rule is not None and not rule[0](val):
            errors.append(f"{name} must be {rule[1]}")


def parse_config(text: str, mode: str | None = None) -> RunConfig:
    """Validate a JSON config document; collects all field errors at once."""
    errors = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["config: expected an object"])
    _check_keys(doc, _SCHEMA, "", errors)

    cfg_mode = doc.get("mode", mode)
    if cfg_mode is None:
        errors.append("mode missing (set it in the config or on the command line)")
    elif cfg_mode not in MODES:
        errors.append(f"mode {cfg_mode!r} not one of {MODES}")
    elif mode is not None and cfg_mode != mode:
        errors.append(f"config mode {cfg_mode!r} conflicts with requested mode {mode!r}")

    if cfg_mode in MODES:
        for sec in _MODE_REQUIRES[cfg_mode]:
            if sec not in doc:
                errors.append(f"mode {cfg_mode!r} requires section {sec!r}")
    if doc.get("checks") == {}:
        errors.append("checks must name at least one suite")

    if errors:
        raise ConfigError(errors)
    out_dir = Path(doc.get("output", {}).get("dir", "."))
    return RunConfig(mode=cfg_mode, seed=doc.get("seed", 0), raw=doc, out_dir=out_dir)


def _build_mesh(cfg: RunConfig) -> Mesh:
    mesh_sec = cfg.raw["mesh"]
    return build_mesh(float(mesh_sec["R"]), mesh_sec["n_cells"], cfg.raw["omega"]["intervals"])


def _build_data(cfg: RunConfig, mesh: Mesh, name: str) -> GridFunction:
    sec = cfg.raw.get("data", {}).get(name)
    if sec is None:
        return GridFunction(mesh, np.zeros(mesh.n_cells))
    return catalog.data_function(**sec, mesh=mesh)


def format_float(v: float) -> str:
    return f"{v:.17g}"


def write_solution_csv(path: Path, mesh: Mesh, values: np.ndarray) -> None:
    lines = ["x,u,interior_flag"]
    for x, u, m in zip(mesh.cell_centers, values, mesh.interior_mask):
        lines.append(f"{format_float(x)},{format_float(u)},{int(m)}")
    path.write_text("\n".join(lines) + "\n")


def write_trace_csv(path: Path, shell_traces) -> None:
    """One row per Picard iteration or shell solve; shell_traces holds one list
    of shell traces per sweep (sweeps count from 1, shells and k from 0)."""
    lines = ["sweep,shell,k,increment,residual"]
    for sweep, traces in enumerate(shell_traces, start=1):
        for shell, trace in enumerate(traces):
            for k, (inc, res) in enumerate(trace.iterates):
                lines.append(f"{sweep},{shell},{k},{format_float(inc)},{format_float(res)}")
    path.write_text("\n".join(lines) + "\n")


def write_weights_csv(path: Path, w: np.ndarray) -> None:
    lines = [",".join(format_float(v) for v in row) for row in w]
    path.write_text("\n".join(lines) + "\n")


class Report:
    """Ordered key: value lines, one per reported quantity."""

    def __init__(self):
        self.lines: list[str] = []

    def add(self, key: str, value) -> None:
        if isinstance(value, float):
            value = format_float(value)
        self.lines.append(f"{key}: {value}")

    def extend(self, lines) -> None:
        self.lines.extend(lines)

    def write(self, path: Path) -> None:
        path.write_text("\n".join(self.lines) + "\n")


def _echo_config(report: Report, cfg: RunConfig) -> None:
    report.add("config.mode", cfg.mode)
    report.add("config.seed", cfg.seed)
    report.add("config.json", json.dumps(cfg.raw, sort_keys=True))


def _report_poisson_work(report: Report, traces) -> None:
    report.add("solver.poisson_solves", sum(t.poisson_solves for t in traces))
    report.add("solver.cg_iterations_total", sum(t.cg_iterations for t in traces))
    report.add("solver.backtracks_total", sum(t.backtracks for t in traces))


def run(cfg: RunConfig) -> int:
    """Execute the configured mode; returns the process exit status.

    The report is written once, after the mode returns its status; a mode
    that raises writes none.
    """
    t_start = time.perf_counter()
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    report = Report()
    _echo_config(report, cfg)
    status = _run_mode(cfg, report)
    report.add("wallclock_seconds", time.perf_counter() - t_start)
    report.write(out / "report")
    return status


def _run_mode(cfg: RunConfig, report: Report) -> int:
    out = cfg.out_dir
    rng = np.random.default_rng(cfg.seed)

    mesh = _build_mesh(cfg)
    report.add("mesh.n_cells", mesh.n_cells)
    report.add("mesh.cell_width", mesh.cell_width)
    report.add("mesh.omega_measure", mesh.omega_measure)

    if cfg.mode == "verify":
        results = run_suites(mesh, rng, cfg.raw["checks"])
        for res in results:
            report.extend(res.lines())
        return 0 if all(res.passed for res in results) else 1

    p = catalog.pair_exponent(**cfg.raw["exponent"], s=float(cfg.raw["order"]["s"]), R=mesh.R)
    validation = validate_exponent_field(p, mesh)
    report.extend(validation.lines())
    if not validation.passed:
        return 1

    weights = assemble_weights(mesh, p)
    if cfg.raw["mesh"].get("dump_weights"):
        write_weights_csv(out / "weights.csv", weights.w)

    if cfg.mode == "validate":
        return 0

    g = _build_data(cfg, mesh, "g")
    # the semilinear modes take their source from N_f, so only poisson builds h
    h = _build_data(cfg, mesh, "h") if cfg.mode == "poisson" else GridFunction.zeros(mesh)
    tol = Tolerances(**cfg.raw.get("tolerances", {}))
    prob = PoissonProblem(mesh=mesh, weights=weights, p=p, h=h, g=g, tolerances=tol)

    if cfg.mode == "poisson":  # no Poisson computation reads the growth exponent r
        sol = solve_poisson(prob)
        write_solution_csv(out / "solution.csv", mesh, sol.u.u.values)
        report.add("solver.converged", sol.converged)
        report.add("solver.iterations", sol.iterations)
        report.add("solver.energy", sol.energy)
        report.add("solver.el_residual", sol.el_residual)
        report.add("solver.cg_iterations_total", sol.cg_iterations)
        report.add("solver.backtracks_total", sol.backtracks)
        return 0 if sol.converged else 2

    r = catalog.scalar_exponent(**cfg.raw["growth"]["r"], R=mesh.R)
    growth_ok = validate_growth_pair(r, p, mesh)
    report.add("growth_pair_ok", growth_ok)
    if not growth_ok:
        return 1
    prob = replace(prob, r=r)
    f = catalog.nonlinearity(**cfg.raw["nonlinearity"], mesh=mesh, p=p)
    screen = growth_screen(f, mesh, p)
    report.add("check.growth_screen.passed", screen.passed)
    report.add("check.growth_screen.defect", screen.value)
    if not screen.passed:
        return 1
    if cfg.mode == "semilinear":  # the decomposition has no Picard options
        sol, trace = fixed_point_solve(f, prob, **cfg.raw.get("fixedpoint", {}))
        write_solution_csv(out / "solution.csv", mesh, sol.u.u.values)
        write_trace_csv(out / "trace.csv", [[trace]])
        report.add("solver.converged", trace.converged)
        report.add("solver.fixed_point_iterations", len(trace.iterates))
        report.add("solver.final_increment", trace.final_increment)
        report.add("solver.semilinear_residual", trace.residual)
        report.add("solver.theta_final", trace.theta)
        _report_poisson_work(report, [trace])
        return 0 if trace.converged else 2

    try:
        sol, rep = solve_by_decomposition(f, g, cfg.raw["decompose"]["shells"], prob)
    except DecompositionError as exc:
        # a shell solve failed mid-sweep: no field is certified, so only the report is written
        report.add("solver.converged", False)
        report.add("solver.failed_shell", exc.shell)
        report.add("solver.failed_sweep", exc.sweep)
        report.add("solver.failure", exc.message)
        return 2
    write_solution_csv(out / "solution.csv", mesh, sol.u.u.values)
    write_trace_csv(out / "trace.csv", rep.shell_traces)
    report.add("solver.converged", rep.converged)
    report.add("solver.sweeps", rep.sweeps)
    report.add("solver.mixed_sweeps", rep.mixed_sweeps)
    report.add("solver.residual", rep.residual)
    for j, measure in enumerate(rep.shell_measures):
        report.add(f"solver.shell_{j}_measure", measure)
    _report_poisson_work(report, [t for traces in rep.shell_traces for t in traces])
    return 0 if rep.converged else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fpxlap",
        description="Nonlocal variable-exponent Dirichlet solver and inequality checker",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text, mode=args.mode)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = Path(args.out)
    try:
        return run(cfg)
    except OSError as exc:
        print(f"error: i/o failure at {getattr(exc, 'filename', '?')}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
