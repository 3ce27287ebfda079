#!/usr/bin/env python3
"""Layer benchmark of the pair passes: writes BENCH_<short sha>.json.

Times each layer on its own at n in ``SIZES`` (256 to 2048) and p in {1.5, 2,
gauss_bump 2 to 2.5, 3} (box [-2, 2], Omega = (-1, 1), s = 0.3, one seeded
field per n): ``gagliardo_modular`` ('rn' and 'omega'), ``gagliardo_seminorm``
('rn' and 'omega'), ``apply_operator``, ``weak_form``, ``luxemburg_norm``
(over Omega, exponent 2.5 + 0.2 x, so Newton's method runs) and
``poisson.energy``.  Each entry records the best and the median per-call
time of ``REPEATS`` rounds (a round repeats a fast call to about 5 ms), the
tracemalloc peak of one more, traced call, and a fingerprint of the value
(the float, or the sum and sup of the operator), so a speed-up that changes
the answer shows at once.  BLAS threads are pinned to one before numpy
loads.

The checkout to measure is ``--repo`` (default: the one holding this
script): its ``src/`` is imported and the file is named after its
``git rev-parse --short HEAD``, with ``"dirty": true`` when its working tree
differs from that commit.  The file goes to ``--out`` (default: that
checkout's root).  The layers are called through the public API only, so
the script measures any commit that has it.

Usage: python scripts/bench_layers.py [--repo DIR] [--out DIR]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

R, OMEGA, S = 2.0, [(-1.0, 1.0)], 0.3
REPEATS = 5  # timed rounds per entry
SIZES = (256, 512, 1024, 2048)
# class -> (pair exponent kind, params, growth exponent r)
CLASSES = {
    "p1_5": ("constant", {"value": 1.5}, 2.0),
    "p2": ("constant", {"value": 2.0}, 3.0),
    "bump": ("gauss_bump", {"base": 2.0, "amplitude": 0.5, "width": 1.0}, 3.0),
    "p3": ("constant", {"value": 3.0}, 3.5),
}


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def layers(fp, W, prob, u, phi, q):
    """name -> (call, fingerprint of its value)."""
    value = (lambda x: [float(x)])
    mask = W.mesh.interior_mask
    return {
        "gagliardo_modular.rn": (lambda: fp.gagliardo_modular(u, W, "rn"), value),
        "gagliardo_modular.omega": (lambda: fp.gagliardo_modular(u, W, "omega"), value),
        "gagliardo_seminorm.rn": (lambda: fp.gagliardo_seminorm(u, W, "rn"), value),
        "gagliardo_seminorm.omega": (lambda: fp.gagliardo_seminorm(u, W, "omega"), value),
        "apply_operator": (lambda: fp.apply_operator(u, W),
                           lambda out: [float(out.sum()), float(abs(out).max())]),
        "weak_form": (lambda: fp.weak_form(u, phi, W), value),
        "luxemburg_norm": (lambda: fp.luxemburg_norm(u, q, mask), value),
        "poisson.energy": (lambda: fp.energy(u, prob), value),
    }


def measure(call):
    """Per-call time over ``REPEATS`` rounds of about 5 ms or one call, the
    tracemalloc peak of one more call, and the value."""
    t0 = time.perf_counter()
    out = call()
    number = max(1, int(5e-3 / (time.perf_counter() - t0)))
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(number):
            call()
        times.append((time.perf_counter() - t0) / number)
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"best_s": min(times), "median_s": statistics.median(times), "peak_bytes": peak}, out


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=Path, default=here)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    repo = args.repo.resolve()
    sys.path.insert(0, str(repo / "src"))
    import numpy as np

    import fpxlap as fp
    from fpxlap.catalog import pair_exponent, scalar_exponent

    sha = git(repo, "rev-parse", "--short", "HEAD")
    q = scalar_exponent("affine", {"base": 2.5, "slope": 0.2}, R)
    record = {
        "commit": sha,
        "dirty": bool(git(repo, "status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "cpus": os.cpu_count(),
        "setup": {"R": R, "omega": OMEGA, "s": S, "repeats": REPEATS},
        "entries": [],
    }
    for n in SIZES:
        mesh = fp.build_mesh(R, n, OMEGA)
        rng = np.random.default_rng(n)
        u = fp.GridFunction(mesh, rng.standard_normal(n))
        phi = fp.GridFunction(mesh, np.where(mesh.interior_mask, rng.standard_normal(n), 0.0))
        h = fp.GridFunction(mesh, rng.standard_normal(n))
        for name, (kind, params, r) in CLASSES.items():
            p = pair_exponent(kind, params, s=S, R=R)
            W = fp.assemble_weights(mesh, p)
            prob = fp.PoissonProblem(mesh=mesh, weights=W, p=p,
                                     r=scalar_exponent("constant", {"value": r}, R), h=h, g=u)
            for layer, (call, fingerprint) in layers(fp, W, prob, u, phi, q).items():
                entry, out = measure(call)
                record["entries"].append({"layer": layer, "n": n, "class": name, **entry,
                                          "fingerprint": fingerprint(out)})
                print(f"n={n:5d} {name:5s} {layer:26s} best {entry['best_s'] * 1e3:9.3f} ms"
                      f"  peak {entry['peak_bytes'] / 2**20:8.2f} MB", flush=True)
    out_dir = repo if args.out is None else args.out
    path = out_dir / f"BENCH_{sha}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
