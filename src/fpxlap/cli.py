"""Configuration-driven entry point: validate / poisson / semilinear / decompose / verify.

Configs are strict JSON documents; unknown keys are rejected so typos fail
loudly.  Every run is deterministic for a fixed config and seed.  Exit codes:
0 converged and all checks passed, 1 check failure, 2 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import catalog
from .exponents import ExponentField, ScalarExponent, validate_exponent_field, validate_growth_pair
from .lebesgue import GridFunction
from .mesh_kernel import Mesh, assemble_weights, build_mesh
from .poisson import PoissonProblem, Tolerances, solve_poisson
from .semilinear import fixed_point_solve, growth_screen, solve_by_decomposition
from .suites import run_suites

MODES = ("validate", "poisson", "semilinear", "decompose", "verify")

_SCHEMA = {
    "mode": None,
    "seed": None,
    "output": {"dir": None},
    "mesh": {"R": None, "n_cells": None, "dump_weights": None},
    "omega": {"intervals": None},
    "order": {"s": None},
    "exponent": {"kind": None, "params": None},
    "growth": {"r": {"kind": None, "params": None}},
    "data": {"h": {"kind": None, "params": None}, "g": {"kind": None, "params": None}},
    "nonlinearity": {"kind": None, "params": None},
    "fixedpoint": {"theta": None, "max_iter": None},
    "decompose": {"shells": None},
    "tolerances": {"el_residual": None, "max_iter": None},
    "checks": {"norm_modular": None, "holder": None, "cara": None, "edm": None},
}

_MODE_REQUIRES = {
    "validate": ("mesh", "omega", "order", "exponent"),
    "poisson": ("mesh", "omega", "order", "exponent", "growth", "data"),
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

    def section(self, name, default=None):
        return self.raw.get(name, default)


def _check_keys(doc, schema, prefix, errors):
    for key, val in doc.items():
        if key not in schema:
            errors.append(f"unknown key {prefix + key!r}")
            continue
        sub = schema[key]
        if not isinstance(sub, dict):
            continue
        if isinstance(val, dict):
            _check_keys(val, sub, prefix + key + ".", errors)
        else:
            errors.append(f"{prefix + key}: expected an object")


def _finite(v) -> bool:
    """A finite JSON number: json reads Infinity and NaN, and a bool is an int."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _intervals(v) -> bool:
    return isinstance(v, list) and all(
        isinstance(pair, list) and len(pair) == 2 and all(map(_finite, pair)) for pair in v)


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
    # the checks below read only the sections that are objects; _check_keys named the rest
    sections = {key: val for key, val in doc.items() if isinstance(val, dict)}

    cfg_mode = doc.get("mode", mode)
    if cfg_mode is None:
        errors.append("mode missing (set it in the config or on the command line)")
    elif cfg_mode not in MODES:
        errors.append(f"mode {cfg_mode!r} not one of {MODES}")
    elif mode is not None and cfg_mode != mode:
        errors.append(f"config mode {cfg_mode!r} conflicts with requested mode {mode!r}")

    if cfg_mode in _MODE_REQUIRES:
        for sec in _MODE_REQUIRES[cfg_mode]:
            if sec not in doc:
                errors.append(f"mode {cfg_mode!r} requires section {sec!r}")

    if "mesh" in sections:
        for k in ("R", "n_cells"):
            if k not in sections["mesh"]:
                errors.append(f"mesh.{k} missing")
    if "omega" in sections and "intervals" not in sections["omega"]:
        errors.append("omega.intervals missing")
    if cfg_mode not in ("validate", "verify", None):
        if "order" in sections and "s" not in sections["order"]:
            errors.append("order.s missing")
    counts = [("mesh", "n_cells"), ("fixedpoint", "max_iter"), ("tolerances", "max_iter"),
              ("decompose", "shells")] + [("checks", k) for k in _SCHEMA["checks"]]
    for sec, k in counts:
        v = sections.get(sec, {}).get(k, 1)
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            errors.append(f"{sec}.{k} must be a positive integer")
    for k, v in sections.get("tolerances", {}).items():
        if k != "max_iter" and not (_finite(v) and v > 0):
            errors.append(f"tolerances.{k} must be a finite positive number")
    for sec, k in (("mesh", "R"), ("order", "s"), ("fixedpoint", "theta")):
        if k in sections.get(sec, {}) and not _finite(sections[sec][k]):
            errors.append(f"{sec}.{k} must be a finite number")
    if not _intervals(sections.get("omega", {}).get("intervals", [])):
        errors.append("omega.intervals must be a list of [a, b] pairs of finite numbers")
    if not isinstance(sections.get("output", {}).get("dir", ""), str):
        errors.append("output.dir must be a string")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        errors.append("seed must be an integer")

    if errors:
        raise ConfigError(errors)
    out_dir = Path(doc.get("output", {}).get("dir", "."))
    return RunConfig(mode=cfg_mode, seed=seed, raw=doc, out_dir=out_dir)


def _build_mesh(cfg: RunConfig) -> Mesh:
    mesh_sec = cfg.section("mesh")
    omega = cfg.section("omega")["intervals"]
    return build_mesh(float(mesh_sec["R"]), int(mesh_sec["n_cells"]), omega)


def _build_exponent(cfg: RunConfig, mesh: Mesh) -> ExponentField:
    sec = cfg.section("exponent")
    s = float(cfg.section("order")["s"])
    return catalog.pair_exponent(sec["kind"], sec.get("params", {}), s=s, R=mesh.R)


def _build_r(cfg: RunConfig, mesh: Mesh) -> ScalarExponent:
    sec = cfg.section("growth")["r"]
    return catalog.scalar_exponent(sec["kind"], sec.get("params", {}), R=mesh.R)


def _build_data(cfg: RunConfig, mesh: Mesh, name: str) -> GridFunction:
    sec = cfg.section("data", {}).get(name)
    if sec is None:
        return GridFunction(mesh, np.zeros(mesh.n_cells))
    return catalog.data_function(sec["kind"], sec.get("params", {}), mesh)


def _given(cfg: RunConfig, name: str, casts) -> dict:
    """The keys of a config section that the config sets, cast; a key left
    out takes the default of the solver it goes to."""
    sec = cfg.section(name, {})
    return {key: cast(sec[key]) for key, cast in casts if key in sec}


def format_float(v: float) -> str:
    return f"{v:.17g}"


def write_solution_csv(path: Path, mesh: Mesh, values: np.ndarray) -> None:
    lines = ["x,u,interior_flag"]
    for x, u, m in zip(mesh.cell_centers, values, mesh.interior_mask):
        lines.append(f"{format_float(x)},{format_float(u)},{int(m)}")
    path.write_text("\n".join(lines) + "\n")


def write_trace_csv(path: Path, shell_traces) -> None:
    """One row per Picard iteration; shell_traces holds one list of shell
    traces per sweep (sweeps count from 1, shells and k from 0)."""
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
        self.entries: list[tuple[str, str]] = []

    def add(self, key: str, value) -> None:
        if isinstance(value, float):
            value = format_float(value)
        self.entries.append((key, str(value)))

    def extend(self, lines) -> None:
        for line in lines:
            key, _, value = line.partition(": ")
            self.entries.append((key, value))

    def write(self, path: Path) -> None:
        path.write_text("\n".join(f"{k}: {v}" for k, v in self.entries) + "\n")


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
        counts = cfg.section("checks")
        results = run_suites(mesh, rng, counts)
        for res in results:
            report.extend(res.lines())
        return 0 if all(res.passed for res in results) else 1

    p = _build_exponent(cfg, mesh)
    validation = validate_exponent_field(p, mesh)
    report.extend(validation.lines())
    if not validation.passed:
        return 1

    weights = assemble_weights(mesh, p)
    if cfg.section("mesh").get("dump_weights"):
        write_weights_csv(out / "weights.csv", weights.w)

    if cfg.mode == "validate":
        return 0

    r = _build_r(cfg, mesh)
    g = _build_data(cfg, mesh, "g")
    h = _build_data(cfg, mesh, "h")
    growth_ok = validate_growth_pair(r, p, mesh)
    report.add("growth_pair_ok", growth_ok)
    if not growth_ok:
        return 1
    tol = Tolerances(**_given(cfg, "tolerances", (("el_residual", float), ("max_iter", int))))
    prob = PoissonProblem(mesh=mesh, weights=weights, p=p, r=r, h=h, g=g, tolerances=tol)

    if cfg.mode == "poisson":
        sol = solve_poisson(prob)
        write_solution_csv(out / "solution.csv", mesh, sol.u.u.values)
        report.add("solver.converged", sol.converged)
        report.add("solver.iterations", sol.iterations)
        report.add("solver.energy", sol.energy)
        report.add("solver.el_residual", sol.el_residual)
        report.add("solver.cg_iterations_total", sol.cg_iterations)
        report.add("solver.backtracks_total", sol.backtracks)
        return 0 if sol.converged else 2

    nl_sec = cfg.section("nonlinearity")
    f = catalog.nonlinearity(nl_sec["kind"], nl_sec.get("params", {}), mesh, p)
    screen = growth_screen(f, mesh, p)
    report.add("check.growth_screen.passed", screen.passed)
    report.add("check.growth_screen.defect", screen.value)
    if not screen.passed:
        return 1
    fp_opts = _given(cfg, "fixedpoint", (("theta", float), ("max_iter", int)))
    if cfg.mode == "semilinear":
        sol, trace = fixed_point_solve(f, prob, **fp_opts)
        write_solution_csv(out / "solution.csv", mesh, sol.u.u.values)
        write_trace_csv(out / "trace.csv", [[trace]])
        report.add("solver.converged", trace.converged)
        report.add("solver.fixed_point_iterations", len(trace.iterates))
        report.add("solver.final_increment", trace.final_increment)
        report.add("solver.semilinear_residual", trace.residual)
        report.add("solver.theta_final", trace.theta)
        _report_poisson_work(report, [trace])
        return 0 if trace.converged else 2

    shells = int(cfg.section("decompose")["shells"])
    sol, rep = solve_by_decomposition(f, g, shells, prob, **fp_opts)
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
