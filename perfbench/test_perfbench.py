"""Self-tests of the benchmark: the gate flags perturbed answers, the tracer
accounts for its time and restores the library, and the command emits the
metric names BENCHMARK.json declares.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import fpxlap  # noqa: E402
from fpxlap import poisson, semilinear  # noqa: E402
from fpxlap.lebesgue import GridFunction  # noqa: E402
from fpxlap.sobolev import DirichletPair  # noqa: E402

import bench_gates as gates  # noqa: E402
import bench_spans  # noqa: E402
import bench_workloads as wl  # noqa: E402


def _poisson_prob(n, exponent, r_value):
    mesh = wl.mesh_kernel.build_mesh(wl.R, n, wl.OMEGA)
    x = mesh.cell_centers
    return wl._problem(mesh, exponent, 0.3, r_value, GridFunction(mesh, np.sin(2.0 * x)),
                       wl._gaussian(mesh, 0.3, 1.5, 0.4))


def _perturbed(sol, delta):
    vals = sol.u.u.values.copy()
    vals[np.flatnonzero(sol.u.u.mesh.interior_mask)[3]] += delta
    u = DirichletPair(u=GridFunction(sol.u.u.mesh, vals), g=sol.u.g)
    return dataclasses.replace(sol, u=u)


@pytest.mark.parametrize("exponent,r_value", [(wl.P2, 3.0), (("constant", {"value": 1.5}), 2.0)])
def test_gate_flags_perturbed_poisson_answer(exponent, r_value):
    prob = _poisson_prob(128, exponent, r_value)
    item = wl.poisson_item("probe", "tts_s.test", prob)
    sol = item.run()
    assert item.gate(sol).ok
    assert not item.gate(_perturbed(sol, 1e-6)).ok


def test_linear_system_matches_energy_gradient():
    prob = _poisson_prob(64, wl.P2, 3.0)
    A, b = gates.linear_system(prob)
    rng = np.random.default_rng(0)
    vals = prob.g.values.copy()
    inner = prob.mesh.interior_mask
    vals[inner] = rng.standard_normal(int(inner.sum()))
    grad = poisson.energy_gradient(GridFunction(prob.mesh, vals), prob).values[inner]
    expected = A @ vals[inner] - b - prob.mesh.cell_width * prob.h.values[inner]
    assert np.allclose(grad, expected, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("fkind", ["arctan", "linear"])
def test_gate_flags_perturbed_semilinear_answer(fkind):
    mesh = wl.mesh_kernel.build_mesh(wl.R, 64, wl.OMEGA)
    zero = GridFunction.zeros(mesh)
    prob = wl._problem(mesh, wl.P2, 0.4, 3.0, zero, wl._gaussian(mesh, 0.1, 1.5, 0.4))
    f, dfdt, c_max = wl._nonlinearity(fkind, np.random.default_rng(0), mesh, prob.p)
    item = wl.semilinear_item("probe", "fixed_point", prob, f, 0, dfdt, c_max)
    sol, trace = item.run()
    assert item.gate((sol, trace)).ok
    assert not item.gate((_perturbed(sol, 1e-4), trace)).ok
    assert not item.gate((sol, dataclasses.replace(trace, converged=False))).ok


def test_gate_flags_perturbed_norms():
    mesh = wl.mesh_kernel.build_mesh(wl.R, 64, wl.OMEGA)
    W = wl.mesh_kernel.assemble_weights(
        mesh, wl.catalog.pair_exponent(*wl.NORMS_EXPONENT, s=wl.NORMS_S, R=wl.R))
    q = wl.catalog.scalar_exponent("affine", {"base": 2.5, "slope": 0.1}, wl.R)
    u = GridFunction(mesh, np.random.default_rng(1).standard_normal(64))
    item = wl.seminorm_item("probe", u, W, q)
    semi, full = item.run()
    assert item.gate((semi, full)).ok
    assert not item.gate((semi * (1 + 1e-6), full)).ok
    assert not item.gate((semi, full * (1 + 1e-6))).ok

    phi = GridFunction(mesh, np.random.default_rng(2).standard_normal(64))
    ident = wl.identity_item("probe", u, phi, W)
    lhs, op = ident.run()
    assert ident.gate((lhs, op)).ok
    assert not ident.gate((lhs * (1 + 1e-6), op)).ok


def test_verify_gate_flags_suite_failures():
    counts = {"norm_modular": 2}
    report = {"check.norm_modular.cases": "2", "check.norm_modular.failures": "0",
              "check.norm_modular.worst_unit_ball_defect": "1e-10"}
    assert gates.check_verify_report(0, report, counts).ok
    assert not gates.check_verify_report(0, {**report, "check.norm_modular.failures": "1"},
                                         counts).ok
    assert not gates.check_verify_report(
        0, {**report, "check.norm_modular.worst_unit_ball_defect": "1e-8"}, counts).ok
    assert not gates.check_verify_report(1, report, counts).ok


def test_tracer_self_times_account_for_round_and_uninstall_restores():
    original = fpxlap.semilinear.solve_poisson
    mesh = wl.mesh_kernel.build_mesh(wl.R, 48, wl.OMEGA)
    zero = GridFunction.zeros(mesh)
    tracer = bench_spans.Tracer(fpxlap)
    with tracer:
        assert fpxlap.semilinear.solve_poisson is not original
        with tracer.span("bench.setup"):
            prob = wl._problem(mesh, wl.P2, 0.4, 3.0, zero, zero)
            f, _, _ = wl._nonlinearity("arctan", np.random.default_rng(0), mesh, prob.p)
        with tracer.span("bench.batch"):
            _, trace = semilinear.fixed_point_solve(f, prob)
    assert fpxlap.semilinear.solve_poisson is original
    assert fpxlap.suites.SUITE_RUNNERS["holder"] is fpxlap.suites.run_holder_suite
    spans = tracer.spans
    roots = tuple(i for i, s in enumerate(spans) if s[bench_spans.PARENT] < 0)
    assert len(roots) == 2
    covered = sum(spans[r][bench_spans.END] - spans[r][bench_spans.START] for r in roots)
    assert sum(bench_spans.self_times(spans)) == pytest.approx(covered, rel=1e-9)
    m = bench_spans.layer_metrics(spans)
    assert m["mesh_kernel.assemble_weights.calls"] == 1
    assert m["semilinear.fixed_point_solve.picard_iters"] == len(trace.iterates)
    # the Picard loop plus the final certified solve
    assert m["poisson.solve_poisson.calls"] == len(trace.iterates) + 1
    assert m["semilinear.inner_converged_ratio"] == 1.0


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "norms_verify", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_names_the_workloads():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert [w["name"] for w in declared] == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
