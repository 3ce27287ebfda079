"""The benchmark's workloads: seeded inputs, items, fingerprints and probes.

A workload's ``setup(seed)`` builds meshes, exponents, kernel weights, data
and problems (timed as ``setup_s``) and returns its fixed item list.  Each
item calls the library through module attributes looked up at call time
(``poisson.solve_poisson``), so the tracer in ``bench_spans`` sees exactly
the calls a caller of the library makes.  ``fingerprint`` is cheap and runs
after every timed execution; ``gate`` is the full correctness check and runs
once per run, outside the timed rounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from fpxlap import catalog, cli, lebesgue, mesh_kernel, poisson, semilinear, sobolev
from fpxlap.lebesgue import GridFunction

import bench_gates as gates

R = 2.0
OMEGA = [(-1.0, 1.0)]


@dataclass
class Item:
    name: str
    part: str  # the workload metric whose time this item adds to
    run: Callable[[], Any]
    fingerprint: Callable[[Any], tuple]
    gate: Callable[[Any], gates.Verdict]


def _problem(mesh, exponent, s, r_value, h, g):
    p = catalog.pair_exponent(*exponent, s=s, R=R)
    W = mesh_kernel.assemble_weights(mesh, p)
    r = catalog.scalar_exponent("constant", {"value": r_value}, R)
    return poisson.PoissonProblem(mesh=mesh, weights=W, p=p, r=r, h=h, g=g)


def _gaussian(mesh, amplitude, center, width):
    return GridFunction(mesh, amplitude * np.exp(-(((mesh.cell_centers - center) / width) ** 2)))


# ---------------------------------------------------------------- poisson_dense

POISSON_N = 1024
POISSON_S = 0.3
# part, pair exponent, growth exponent r, items per round
POISSON_CLASSES = (
    ("p2", ("constant", {"value": 2.0}), 3.0, 4),
    ("p1_5", ("constant", {"value": 1.5}), 2.0, 1),
    ("p3", ("constant", {"value": 3.0}), 3.5, 2),
    ("bump", ("gauss_bump", {"base": 2.0, "amplitude": 0.5, "width": 1.0}), 3.0, 2),
    ("affine", ("affine", {"base": 2.0, "slope": 0.2}), 2.8, 1),
)


def poisson_item(name: str, part: str, prob) -> Item:
    def run():
        return poisson.solve_poisson(prob)

    def fingerprint(sol):
        return (gates.sup_interior(sol.u.u.values, prob.mesh), float(sol.energy),
                int(sol.iterations))

    return Item(name, part, run, fingerprint, lambda sol: gates.check_poisson(sol, prob))


def poisson_dense(seed: int) -> list[Item]:
    rng = np.random.default_rng(seed)
    mesh = mesh_kernel.build_mesh(R, POISSON_N, OMEGA)
    x = mesh.cell_centers
    items = []
    for part, exponent, r_value, count in POISSON_CLASSES:
        base = None
        for k in range(count):
            h = GridFunction(mesh, rng.uniform(0.9, 1.1) * np.sin(2.0 * x + rng.uniform(-0.2, 0.2)))
            g = _gaussian(mesh, rng.uniform(0.25, 0.35), 1.5, 0.4)
            if base is None:
                base = _problem(mesh, exponent, POISSON_S, r_value, h, g)
                prob = base
            else:
                prob = poisson.PoissonProblem(mesh=mesh, weights=base.weights, p=base.p,
                                              r=base.r, h=h, g=g)
            items.append(poisson_item(f"{part}/{k}", f"tts_s.{part}", prob))
    return items


# ------------------------------------------------------------ semilinear_shells

SEMILINEAR_S = 0.4
P2 = ("constant", {"value": 2.0})
AFFINE_LOW = ("affine", {"base": 1.9, "slope": 0.05})               # pbar in [1.8, 2.0]
BUMP_LOW = ("gauss_bump", {"base": 2.0, "amplitude": -0.2, "width": 1.0})  # pbar = 1.8
# solver, n, pair exponent, r, nonlinearity, shells (0 for the fixed point)
SEMILINEAR_ITEMS = (
    ("decompose", 192, P2, 3.0, "arctan", 3),
    ("decompose", 128, P2, 3.0, "linear", 2),
    ("decompose", 96, P2, 3.0, "arctan", 5),
    ("decompose", 96, AFFINE_LOW, 2.6, "arctan", 1),
    ("fixed_point", 256, P2, 3.0, "arctan", 0),
    ("fixed_point", 256, P2, 3.0, "linear", 0),
    ("fixed_point", 192, AFFINE_LOW, 2.6, "arctan", 0),
    ("fixed_point", 128, BUMP_LOW, 2.6, "arctan", 0),
)


def _nonlinearity(kind: str, rng, mesh, p):
    """Catalog nonlinearity with seeded data, plus its t-derivative and sup."""
    a = {"kind": "gaussian", "params": {"amplitude": 0.5 * rng.uniform(0.9, 1.1),
                                        "center": rng.uniform(-0.1, 0.1), "width": 0.7}}
    if kind == "arctan":
        eps = 0.05 * rng.uniform(0.9, 1.1)
        f = catalog.nonlinearity("arctan", {"eps": eps, "a": a}, mesh, p)
        return f, (lambda x, t: eps / (1.0 + t * t)), eps
    coef = 0.2 * rng.uniform(0.9, 1.1)
    f = catalog.nonlinearity("linear", {"coef": coef, "a": a}, mesh, p)
    return f, (lambda x, t: np.full_like(t, coef)), coef


def semilinear_item(name: str, solver: str, prob, f, shells: int, dfdt, c_max) -> Item:
    if solver == "fixed_point":
        def run():
            return semilinear.fixed_point_solve(f, prob)

        def counts(out):
            return (len(out[1].iterates),)
    else:
        def run():
            return semilinear.solve_by_decomposition(f, prob.g, shells, prob)

        def counts(out):
            rep = out[1]
            return (rep.sweeps, sum(len(t.iterates) for sweep in rep.shell_traces for t in sweep))

    def fingerprint(out):
        sol = out[0]
        return (gates.sup_interior(sol.u.u.values, prob.mesh), float(sol.energy),
                int(sol.iterations)) + counts(out)

    def gate(out):
        ref = gates.newton_reference(prob, f, dfdt, c_max) if gates.is_p2(prob) else None
        return gates.check_semilinear(out[0].u, prob, f, out[1].converged, ref)

    return Item(name, f"{solver}_s", run, fingerprint, gate)


def semilinear_shells(seed: int) -> list[Item]:
    rng = np.random.default_rng(seed)
    meshes, bases, items = {}, {}, []
    for k, (solver, n, exponent, r_value, fkind, shells) in enumerate(SEMILINEAR_ITEMS):
        mesh = meshes.setdefault(n, mesh_kernel.build_mesh(R, n, OMEGA))
        g = _gaussian(mesh, rng.uniform(0.05, 0.15), 1.5, 0.4)
        zero = GridFunction.zeros(mesh)
        key = (n, json.dumps(exponent))
        if key not in bases:
            bases[key] = _problem(mesh, exponent, SEMILINEAR_S, r_value, zero, g)
        base = bases[key]
        prob = poisson.PoissonProblem(mesh=mesh, weights=base.weights, p=base.p,
                                      r=base.r, h=zero, g=g)
        f, dfdt, c_max = _nonlinearity(fkind, rng, mesh, base.p)
        label = f"{solver}/{n}/{exponent[0]}/{fkind}" + (f"/{shells}sh" if shells else "")
        items.append(semilinear_item(f"{k}:{label}", solver, prob, f, shells, dfdt, c_max))
    return items


# ----------------------------------------------------------------- norms_verify

NORMS_S = 0.3
NORMS_EXPONENT = ("gauss_bump", {"base": 2.0, "amplitude": 0.5, "width": 1.0})
SUITE_COUNTS = {"norm_modular": 100, "holder": 200, "cara": 100, "edm": 100}
SEMINORM_FIELDS = ((256, 3), (512, 3))   # (n, fields per round)
IDENTITY_MESHES = (256, 512)


def _read_report(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def verify_item(workdir: Path, seed: int) -> Item:
    cfg_path = workdir / "verify.json"
    out_dir = workdir / "verify_out"
    cfg_path.write_text(json.dumps({
        "mode": "verify", "seed": seed,
        "mesh": {"R": R, "n_cells": 256}, "omega": {"intervals": OMEGA},
        "checks": SUITE_COUNTS,
    }))
    argv = ["verify", "--config", str(cfg_path), "--out", str(out_dir)]

    def run():
        status = cli.main(argv)
        return status, _read_report(out_dir / "report")

    def fingerprint(out):
        status, report = out
        return (status,) + tuple(v for k, v in report.items() if k != "wallclock_seconds")

    return Item("suites", "suites_s", run, fingerprint,
                lambda out: gates.check_verify_report(out[0], out[1], SUITE_COUNTS))


def seminorm_item(name: str, u, W, q) -> Item:
    inner = u.mesh.interior_mask

    def run():
        return sobolev.gagliardo_seminorm(u, W), sobolev.full_norm(u, W, q)

    def gate(out):
        semi, full = out
        lux = lebesgue.luxemburg_norm(u, q, inner)
        return gates.check_norms(gates.unit_ball_defects(u, W, q, semi, full, lux))

    return Item(name, "seminorm_s", run, lambda out: tuple(map(float, out)), gate)


def identity_item(name: str, u, phi, W) -> Item:
    def run():
        return sobolev.weak_form(u, phi, W), sobolev.apply_operator(u, W)

    def fingerprint(out):
        return (float(out[0]), float(out[1].sum()), float(np.abs(out[1]).max()))

    return Item(name, "seminorm_s", run, fingerprint,
                lambda out: gates.check_identity(out[0], out[1], phi.values, W.mesh.cell_width))


def norms_verify(seed: int, workdir: Path) -> list[Item]:
    rng = np.random.default_rng(seed)
    items = [verify_item(workdir, seed)]
    kernels = {}
    for n in sorted({n for n, _ in SEMINORM_FIELDS} | set(IDENTITY_MESHES)):
        mesh = mesh_kernel.build_mesh(R, n, OMEGA)
        p = catalog.pair_exponent(*NORMS_EXPONENT, s=NORMS_S, R=R)
        kernels[n] = mesh_kernel.assemble_weights(mesh, p)
    for n, count in SEMINORM_FIELDS:
        W = kernels[n]
        for k in range(count):
            q = catalog.scalar_exponent("affine", {"base": rng.uniform(2.2, 2.8),
                                                   "slope": rng.uniform(-0.2, 0.2)}, R)
            u = GridFunction(W.mesh, 10.0 ** rng.uniform(-1, 1) * rng.standard_normal(n))
            items.append(seminorm_item(f"seminorm/{n}/{k}", u, W, q))
    for n in IDENTITY_MESHES:
        W = kernels[n]
        u = GridFunction(W.mesh, rng.standard_normal(n))
        phi = GridFunction(W.mesh, rng.standard_normal(n))
        items.append(identity_item(f"identity/{n}", u, phi, W))
    return items


# ----------------------------------------------------------------------- probes


def probe_constant_datum() -> gates.Verdict:
    """g = 1, h = 0 has the exact solution u = 1 (the operator of a constant
    vanishes); at R = 2, p = 2, s = 0.4 the solver's interior minimum is 0.57
    because the datum is taken as 0 beyond the box."""
    mesh = mesh_kernel.build_mesh(R, 128, OMEGA)
    prob = _problem(mesh, P2, 0.4, 3.0, GridFunction.zeros(mesh),
                    GridFunction(mesh, np.ones(mesh.n_cells)))
    sol = poisson.solve_poisson(prob)
    inner = sol.u.u.values[mesh.interior_mask]
    gap = float(np.max(np.abs(inner - 1.0)))
    return gates.Verdict(bool(sol.converged and gap <= gates.EL_TOL),
                         f"interior min {inner.min():.6f}, sup|u - 1| = {gap:.3e} (exact u = 1)")


def probe_variable_shells() -> gates.Verdict:
    """Three-shell decomposition with a variable exponent (gauss_bump base 2,
    amplitude -0.4, s = 0.4, r = 2.6, arctan f, n = 96)."""
    mesh = mesh_kernel.build_mesh(R, 96, OMEGA)
    exponent = ("gauss_bump", {"base": 2.0, "amplitude": -0.4, "width": 1.0})
    zero = GridFunction.zeros(mesh)
    prob = _problem(mesh, exponent, 0.4, 2.6, zero, zero)
    f = catalog.nonlinearity("arctan", {"eps": 0.05, "a": {
        "kind": "gaussian", "params": {"amplitude": 0.5, "center": 0.0, "width": 0.7}}},
        mesh, prob.p)
    try:
        sol, rep = semilinear.solve_by_decomposition(f, zero, 3, prob)
    except semilinear.DecompositionError as exc:
        return gates.Verdict(False, f"DecompositionError: {exc}")
    return gates.check_semilinear(sol.u, prob, f, rep.converged)


PROBES = {"constant_datum": probe_constant_datum, "variable_shells": probe_variable_shells}

# workload name -> (setup(seed, workdir), metric parts in report order)
WORKLOADS = {
    "poisson_dense": (
        lambda seed, workdir: poisson_dense(seed),
        tuple(f"tts_s.{c[0]}" for c in POISSON_CLASSES),
    ),
    "semilinear_shells": (
        lambda seed, workdir: semilinear_shells(seed),
        ("fixed_point_s", "decompose_s"),
    ),
    "norms_verify": (norms_verify, ("suites_s", "seminorm_s")),
}
