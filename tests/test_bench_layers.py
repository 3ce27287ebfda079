"""The entry builder of scripts/bench_layers.py at one tiny size."""

import importlib.util
import json
import sys
import time
from pathlib import Path

import numpy as np

from fpxlap import (GridFunction, PoissonProblem, assemble_weights, build_mesh, energy_gradient,
                    solve_poisson)
from fpxlap.catalog import pair_exponent

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "scripts" / "bench_layers.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

PER_CLASS = ("assemble_weights", "gagliardo_modular.rn", "gagliardo_modular.omega",
             "gagliardo_seminorm.rn", "gagliardo_seminorm.omega", "apply_operator",
             "weak_form", "luxemburg_norm", "poisson.energy", "solve_poisson")


def test_builder_writes_every_entry_and_the_direct_solve(monkeypatch):
    n = 64
    monkeypatch.setattr(bench, "SIZES", (n,))
    monkeypatch.setattr(bench, "SEMILINEAR_N", n)
    monkeypatch.setattr(bench, "REPEATS", 1)
    monkeypatch.setattr(bench, "CONFIGS", ("semilinear_arctan",))
    entries = bench.build_entries(ROOT)

    keys = [(e["layer"], e["n"], e["class"]) for e in entries]
    expected = {(layer, n, name) for name in bench.CLASSES for layer in PER_CLASS}
    expected |= {("fixed_point_solve", n, name) for name in ("arctan",) + bench.SEMILINEAR_CLASSES}
    expected |= {(f"solve_by_decomposition.{m}_shells", n, "arctan") for m in bench.SHELLS}
    expected |= {(f"suite.{name}", 256, "verify_inequalities")
                 for name in ("norm_modular", "holder", "cara", "edm")}
    expected |= {("cli.semilinear", 96, "semilinear_arctan")}
    assert sorted(keys) == sorted(expected)
    for e in entries:
        assert 0.0 < e["best_s"] <= e["median_s"] and e["peak_bytes"] > 0 and e["fingerprint"]
        assert e["rounds"] == 1
    assert next(e for e in entries if e["layer"].startswith("cli."))["fingerprint"][0] == 0
    # each suite entry ran the config's case count with no failure
    counts = json.loads((ROOT / "scripts" / "configs" / "verify_inequalities.json").read_text())
    assert {e["layer"]: e["fingerprint"][:2] for e in entries if e["layer"].startswith("suite.")} \
        == {f"suite.{name}": [count, 0] for name, count in counts["checks"].items()}

    # the semilinear scaling entries: converged, one Poisson solve per
    # Picard iteration, and at least one outer iteration and CG step a solve
    for name in bench.SEMILINEAR_CLASSES:
        counts = next(e for e in entries if e["layer"] == "fixed_point_solve"
                      and e["class"] == name)["counts"]
        assert counts["converged"] and counts["poisson_solves"] == counts["picard"]
        assert counts["cg"] >= counts["outer"] >= counts["poisson_solves"]

    # the scaling problem, built here without the script's helpers
    mesh = build_mesh(2.0, n, [(-1.0, 1.0)])
    x = mesh.cell_centers
    h = GridFunction(mesh, np.where(mesh.interior_mask, 1.0 + np.sin(3.0 * x), 0.0))
    g = GridFunction(mesh, 0.2 * np.cos(x))
    solves = {e["class"]: e for e in entries if e["layer"] == "solve_poisson"}
    for name, (kind, params) in bench.CLASSES.items():
        p = pair_exponent(kind, params, s=0.3, R=2.0)
        prob = PoissonProblem(mesh=mesh, weights=assemble_weights(mesh, p), p=p, h=h, g=g)
        sol = solve_poisson(prob)
        assert solves[name]["counts"] == {"outer": sol.iterations, "cg": sol.cg_iterations,
                                          "backtracks": sol.backtracks,
                                          "converged": sol.converged}
        assert solves[name]["fingerprint"] == [
            float(np.max(np.abs(sol.u.u.values[mesh.interior_mask]))),
            float(np.max(np.abs(energy_gradient(sol.u, prob).values)))]


def test_a_slow_first_call_gets_one_round():
    calls = []

    def call():  # a first call of 1 s, then calls over the 5 ms of a round
        time.sleep(6e-3 if calls else 1.0)
        calls.append(None)
        return len(calls)

    entry, out = bench.measure(call)
    # the first call, one timed round and one traced call
    assert entry["rounds"] == 1 < bench.REPEATS
    assert out == 1 and len(calls) == 3


def test_a_missing_out_directory_is_made_before_the_run(tmp_path, monkeypatch):
    out = tmp_path / "a" / "b"
    made = []
    monkeypatch.setattr(bench, "build_entries", lambda repo: made.append(out.is_dir()) or [])
    # main pins the BLAS threads and imports the checkout's src/: undo both afterwards
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert bench.main(["--out", str(out)]) == 0
    sha = bench.git(ROOT, "rev-parse", "--short", "HEAD")
    assert made == [True]
    record = json.loads((out / f"BENCH_{sha}.json").read_text())
    assert record["commit"] == sha and record["entries"] == []
