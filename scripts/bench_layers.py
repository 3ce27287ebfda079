#!/usr/bin/env python3
"""Layer and solver benchmark: writes BENCH_<short sha>.json.

Every entry is one (layer, n, class) with the best and the median per-call
time of its ``rounds`` timed rounds (a round repeats a fast call to about
5 ms) after one untimed call: ``REPEATS``, or one for an entry whose first
call takes at least 1 s; then the tracemalloc peak of one more, traced
call, and a fingerprint of the answer, so a speed-up that changes the
answer shows at once.  The solver entries also record their iteration
``counts``.  BLAS threads are pinned to one before numpy loads.

For each n in ``SIZES`` (box [-2, 2], Omega = (-1, 1), s = 0.3) and each
exponent class in ``CLASSES``:

- ``assemble_weights`` (fingerprint: the sums of w and of the tails);
- the pair passes on one seeded field per n: ``gagliardo_modular`` and
  ``gagliardo_seminorm`` ('rn' and 'omega'), ``apply_operator``,
  ``weak_form``, ``luxemburg_norm`` (over Omega, exponent 2.5 + 0.2 x, so
  Newton's method runs) and ``poisson.energy`` (fingerprint: the value, or
  the sum and sup of the operator);
- ``solve_poisson`` on the scaling problem, h = 1 + sin 3x on Omega and
  exterior datum g = 0.2 cos x, from the default cold start (counts: outer
  iterations, CG steps, backtracks, converged; fingerprint: sup u over
  Omega and the residual recomputed with ``energy_gradient``).

At n = ``SEMILINEAR_N``, for each class of ``SEMILINEAR_CLASSES``, the
semilinear scaling problem: the scaling problem's mesh, exponent and datum,
r = p+ + 0.5, and f(x, t) = a(x) + 2 arctan t with a as below, declared with
the offset a + pi and growth constant 0 (|2 arctan t| < pi, so every
exponent admits it; the catalog's arctan declares the growth constant 2,
which fails the growth screen for p = 3 and the bump):
``fixed_point_solve`` (counts: Poisson solves, Picard iterations, outer
and CG iterations of the solves, converged; fingerprint: sup u over Omega
and the semilinear residual).

For each n, the semilinear shell problem (p = 2, s = 0.4, r = 3, g = 0,
f(x, t) = a(x) + 0.05 arctan t with a = 0.5 exp(-2 x^2) + 0.1), class
``arctan``: ``fixed_point_solve`` (counts: Picard iterations, converged;
fingerprint: sup u over Omega and the semilinear residual) and
``solve_by_decomposition`` with each shell count in ``SHELLS`` (counts:
sweeps, mixed sweeps, converged; fingerprint: the sup gap to the fixed
point's field and the global residual).

Each inequality suite of ``verify_inequalities.json`` (``suite.<name>``,
n = its mesh size, class ``verify_inequalities``): the suite's runner with
the config's mesh, seed and case count (fingerprint: cases, failures, worst
slack and extras).

Then each CLI config of ``CONFIGS`` in ``scripts/configs``, run through
``fpxlap.cli.main`` into a temporary directory; its n is the config's mesh
size and its fingerprint the exit status and a digest of the report without
its wall-clock line.

The checkout to measure is ``--repo`` (default: the one holding this
script): its ``src/`` is imported, its configs are run, and the file is
named after its ``git rev-parse --short HEAD``, with ``"dirty": true`` when
its working tree differs from that commit.  The file goes to ``--out``
(default: that checkout's root), which is created before the run if
missing.  Everything is called through the public API only; its Poisson
problems carry no growth exponent r, so it measures the commits whose
``PoissonProblem`` takes r as optional.  An older commit is measured by
that commit's own copy of this script.

Usage: python scripts/bench_layers.py [--repo DIR] [--out DIR]
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

R, OMEGA, S = 2.0, [(-1.0, 1.0)], 0.3
REPEATS = 5  # timed rounds per entry
SIZES = (256, 512, 1024, 2048)
# class -> (pair exponent kind, params)
CLASSES = {
    "p1_2": ("constant", {"value": 1.2}),
    "p1_5": ("constant", {"value": 1.5}),
    "p2": ("constant", {"value": 2.0}),
    "bump": ("gauss_bump", {"base": 2.0, "amplitude": 0.5, "width": 1.0}),
    "p3": ("constant", {"value": 3.0}),
    "affine": ("affine", {"base": 2.0, "slope": 0.2}),
}
SHELLS = (1, 2, 3, 5)
SEMILINEAR_N = 1024
SEMILINEAR_CLASSES = ("p1_5", "bump", "p3")
CONFIGS = ("decompose_three_shells", "poisson_linear", "semilinear_arctan",
           "variable_exponent_poisson", "verify_inequalities")


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def value(x):
    return {"fingerprint": [float(x)]}


def pair_layers(fp, W, prob, u, phi, q):
    """name -> (call, summary of its value)."""
    mask = W.mesh.interior_mask
    return {
        "gagliardo_modular.rn": (lambda: fp.gagliardo_modular(u, W, "rn"), value),
        "gagliardo_modular.omega": (lambda: fp.gagliardo_modular(u, W, "omega"), value),
        "gagliardo_seminorm.rn": (lambda: fp.gagliardo_seminorm(u, W, "rn"), value),
        "gagliardo_seminorm.omega": (lambda: fp.gagliardo_seminorm(u, W, "omega"), value),
        "apply_operator": (lambda: fp.apply_operator(u, W),
                           lambda out: {"fingerprint": [float(out.sum()), float(abs(out).max())]}),
        "weak_form": (lambda: fp.weak_form(u, phi, W), value),
        "luxemburg_norm": (lambda: fp.luxemburg_norm(u, q, mask), value),
        "poisson.energy": (lambda: fp.energy(u, prob), value),
    }


def sup_interior(u):
    return float(abs(u.values[u.mesh.interior_mask]).max())


def report_digest(path: Path) -> str:
    """sha256 prefix of a CLI report without its wall-clock line."""
    kept = [line for line in path.read_text().splitlines()
            if not line.startswith("wallclock_seconds:")]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()[:16]


def measure(call):
    """Per-call time over ``REPEATS`` rounds of about 5 ms or one call, the
    tracemalloc peak of one more call, and the value; one round after a
    first call of at least 1 s.  The first call is not timed: it can be
    slower than the rest (about 20% for a 1 s solve)."""
    t0 = time.perf_counter()
    out = call()
    first = time.perf_counter() - t0
    number = max(1, int(5e-3 / first))
    rounds = 1 if first >= 1.0 else REPEATS
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(number):
            call()
        times.append((time.perf_counter() - t0) / number)
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"best_s": min(times), "median_s": statistics.median(times), "rounds": rounds,
            "peak_bytes": peak}, out


def build_entries(repo: Path) -> list:
    """Every entry of the file, measured with the ``fpxlap`` on ``sys.path``
    and the configs of ``repo``."""
    import numpy as np

    import fpxlap as fp
    from fpxlap.catalog import pair_exponent, scalar_exponent
    from fpxlap.cli import main as cli_main
    from fpxlap.suites import SUITE_RUNNERS

    entries = []

    def add(layer, n, name, call, summary):
        entry, out = measure(call)
        entries.append({"layer": layer, "n": n, "class": name, **entry, **summary(out)})
        print(f"n={n:5d} {name:26s} {layer:32s} best {entry['best_s'] * 1e3:10.3f} ms"
              f"  peak {entry['peak_bytes'] / 2**20:8.2f} MB", flush=True)
        return out

    def a(y):
        return 0.5 * np.exp(-2.0 * np.asarray(y) ** 2) + 0.1

    q = scalar_exponent("affine", {"base": 2.5, "slope": 0.2}, R)
    for n in SIZES:
        mesh = fp.build_mesh(R, n, OMEGA)
        x, mask = mesh.cell_centers, mesh.interior_mask
        rng = np.random.default_rng(n)
        u = fp.GridFunction(mesh, rng.standard_normal(n))
        phi = fp.GridFunction(mesh, np.where(mask, rng.standard_normal(n), 0.0))
        h = fp.GridFunction(mesh, rng.standard_normal(n))
        study_h = fp.GridFunction(mesh, np.where(mask, 1.0 + np.sin(3.0 * x), 0.0))
        study_g = fp.GridFunction(mesh, 0.2 * np.cos(x))
        zero = fp.GridFunction.zeros(mesh)
        for name, (kind, params) in CLASSES.items():
            p = pair_exponent(kind, params, s=S, R=R)
            W = add("assemble_weights", n, name, lambda: fp.assemble_weights(mesh, p),
                    lambda W: {"fingerprint": [float(W.w.sum()), float(W.tail.sum())]})
            prob = fp.PoissonProblem(mesh=mesh, weights=W, p=p, h=h, g=u)
            for layer, (call, summary) in pair_layers(fp, W, prob, u, phi, q).items():
                add(layer, n, name, call, summary)
            study = fp.PoissonProblem(mesh=mesh, weights=W, p=p, h=study_h, g=study_g)
            add("solve_poisson", n, name, lambda: fp.solve_poisson(study), lambda sol: {
                "counts": {"outer": sol.iterations, "cg": sol.cg_iterations,
                           "backtracks": sol.backtracks, "converged": sol.converged},
                "fingerprint": [sup_interior(sol.u.u),
                                float(abs(fp.energy_gradient(sol.u, study).values).max())]})
            if n == SEMILINEAR_N and name in SEMILINEAR_CLASSES:
                bounded_f = fp.Nonlinearity(
                    evaluator=lambda y, t: a(y) + 2.0 * np.arctan(np.asarray(t)),
                    a=fp.GridFunction(mesh, a(x) + np.pi), c_growth=0.0)
                r = scalar_exponent("constant", {"value": W.p_plus + 0.5}, R)
                semi = fp.PoissonProblem(mesh=mesh, weights=W, p=p, r=r, h=zero, g=study_g)
                add("fixed_point_solve", n, name, lambda: fp.fixed_point_solve(bounded_f, semi),
                    lambda out: {
                        "counts": {"poisson_solves": out[1].poisson_solves,
                                   "picard": len(out[1].iterates),
                                   "outer": out[1].outer_iterations, "cg": out[1].cg_iterations,
                                   "converged": out[1].converged},
                        "fingerprint": [sup_interior(out[0].u.u), out[1].residual]})

        p = pair_exponent("constant", {"value": 2.0}, s=0.4, R=R)
        template = fp.PoissonProblem(mesh=mesh, weights=fp.assemble_weights(mesh, p), p=p,
                                     r=scalar_exponent("constant", {"value": 3.0}, R),
                                     h=zero, g=zero)
        f = fp.Nonlinearity(evaluator=lambda y, t: a(y) + 0.05 * np.arctan(np.asarray(t)),
                            a=fp.GridFunction(mesh, a(x)), c_growth=0.05)
        ref, _ = add("fixed_point_solve", n, "arctan", lambda: fp.fixed_point_solve(f, template),
                     lambda out: {
                         "counts": {"picard": len(out[1].iterates), "converged": out[1].converged},
                         "fingerprint": [sup_interior(out[0].u.u), out[1].residual]})
        for m in SHELLS:
            add(f"solve_by_decomposition.{m}_shells", n, "arctan",
                lambda: fp.solve_by_decomposition(f, zero, m, template), lambda out: {
                    "counts": {"sweeps": out[1].sweeps, "mixed_sweeps": out[1].mixed_sweeps,
                               "converged": out[1].converged},
                    "fingerprint": [float(abs(out[0].u.u.values - ref.u.u.values).max()),
                                    out[1].residual]})

    cfg = json.loads((repo / "scripts" / "configs" / "verify_inequalities.json").read_text())
    mesh = fp.build_mesh(cfg["mesh"]["R"], cfg["mesh"]["n_cells"], cfg["omega"]["intervals"])
    for name, count in cfg["checks"].items():
        run = SUITE_RUNNERS[name]
        add(f"suite.{name}", mesh.n_cells, "verify_inequalities",
            lambda: run(mesh, np.random.default_rng(cfg["seed"]), count),
            lambda res: {"fingerprint": [res.cases, res.failures, res.worst_slack, res.extras]})

    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report"
        for stem in CONFIGS:
            path = repo / "scripts" / "configs" / f"{stem}.json"
            cfg = json.loads(path.read_text())
            argv = [cfg["mode"], "--config", str(path), "--out", tmp]
            add(f"cli.{cfg['mode']}", cfg["mesh"]["n_cells"], stem, lambda: cli_main(argv),
                lambda status: {"fingerprint": [status, report_digest(report)]})
    return entries


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=Path, default=here)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    repo = args.repo.resolve()
    # made before the run, so a missing directory cannot lose it at the end
    out_dir = repo if args.out is None else args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(repo / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy as np

    sha = git(repo, "rev-parse", "--short", "HEAD")
    record = {
        "commit": sha,
        "dirty": bool(git(repo, "status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "cpus": os.cpu_count(),
        "setup": {"R": R, "omega": OMEGA, "s": S, "repeats": REPEATS, "shells": SHELLS},
    }
    start = time.perf_counter()
    record["entries"] = build_entries(repo)
    record["wall_s"] = time.perf_counter() - start
    path = out_dir / f"BENCH_{sha}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path} ({record['wall_s']:.0f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
