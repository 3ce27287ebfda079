#!/usr/bin/env python3
"""fpxlap benchmark: one workload, one seed, one measurement window.

    python3 perfbench/run.py --workload poisson_dense --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports the library from its ``src``
directory.  A run times ``setup_s`` as the median of several set-ups, makes
one untimed reference pass over the last set-up (correctness gate, answer
fingerprints; the process's peak resident memory is read right after it),
runs the two defect probes, then repeats the item list in a closed loop (one
caller, one BLAS/OpenMP thread) for ``--seconds``.
Every timed execution must reproduce its reference fingerprint bit for bit.
With ``--trace 1`` untraced and traced rounds alternate and the per-layer
metrics come from spans around the library's public functions.  The last
line of stdout is the JSON result; a copy with the fingerprints, the per-item
times and the environment goes to ``perfbench/results/``.
"""

import os

THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS  # before numpy loads its BLAS

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 100
SETUP_MIN_SECONDS = 2.0

# metrics of the final JSON line: name -> unit (see BENCHMARK.json)
END_TO_END = {"batch_s": "s", "setup_s": "s", "peak_mem_mb": "MB", "pass_frac": "ratio"}

CG_NOTE = ("solve_poisson is traced from outside: its CG iterations and Armijo backtracks "
           "are not visible here and need tracing inside the program")


def import_library():
    """Import fpxlap from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import fpxlap
    if not Path(fpxlap.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"fpxlap resolved to {fpxlap.__file__}, outside {SRC}")
    return fpxlap


def layer_unit(name: str) -> str:
    if name.endswith(".bytes_computed"):
        return "B"
    if name.endswith(".s_per_outer_iter"):
        return "s/iter"
    if name.endswith(("_frac", "_ratio", "_per_seminorm", "_per_sweep")):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fpxlap").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


class Tally:
    """Executions attempted/failed and the distinct items that ever failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_items: dict[str, str] = {}

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failed_items.setdefault(name, detail)


def reference_pass(items, tally):
    """Untimed pass: the correctness gate of every item and its reference
    fingerprint."""
    refs, verdicts = {}, {}
    for it in items:
        try:
            out = it.run()
        except Exception as exc:  # an item that raises fails; the run goes on
            verdicts[it.name] = f"FAIL raised {type(exc).__name__}: {exc}"
            tally.record(it.name, False, verdicts[it.name])
            continue
        refs[it.name] = it.fingerprint(out)
        try:
            verdict = it.gate(out)
            ok, detail = verdict.ok, verdict.detail
        except Exception as exc:
            ok, detail = False, f"gate raised {type(exc).__name__}: {exc}"
        verdicts[it.name] = ("ok " if ok else "FAIL ") + detail
        tally.record(it.name, ok, verdicts[it.name])
    return refs, verdicts


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed_round(items, refs, tally, tracer=None):
    """One pass over the item list; returns per-item seconds.  The fingerprint
    comparison runs after each item's clock stops."""
    times = {}
    for it in items:
        with tracer.span(f"bench.item:{it.name}") if tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                out = it.run()
                err = None
            except Exception as exc:
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            times[it.name] = time.perf_counter() - t0
            if err is None and it.fingerprint(out) != refs.get(it.name):
                err = "fingerprint differs from the reference pass"
        tally.record(it.name, err is None, err or "")
    return times


def measure(fpxlap, workload: str, seed: int, seconds: int, trace: bool, workdir: Path):
    import bench_spans
    import bench_workloads

    setup, parts = bench_workloads.WORKLOADS[workload]
    tally = Tally()

    setup_times = []
    while len(setup_times) < SETUP_MIN_REPS or (
            sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPS):
        items = None  # let the previous set-up go before timing the next
        t0 = time.perf_counter()
        items = setup(seed, workdir)
        setup_times.append(time.perf_counter() - t0)

    refs, verdicts = reference_pass(items, tally)
    peak_mb = peak_rss_mb()
    probes = {name: probe() for name, probe in bench_workloads.PROBES.items()}

    rounds, traced = [], []
    t_start = time.perf_counter()
    while True:
        rounds.append(timed_round(items, refs, tally))
        if trace:
            tracer = bench_spans.Tracer(fpxlap)
            with tracer:
                with tracer.span("bench.setup"):
                    traced_items = setup(seed, workdir)
                with tracer.span("bench.batch"):
                    times = timed_round(traced_items, refs, tally, tracer)
            traced.append((times, bench_spans.layer_metrics(tracer.spans), tracer))
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break

    names = [it.name for it in items]
    fingerprints = {n: [repr(v) for v in refs.get(n, ())] for n in names}
    item_median = {n: statistics.median([r[n] for r in rounds]) for n in names}
    bad = len(tally.failed_items) + sum(not p.ok for p in probes.values())
    fail_frac = bad / (len(names) + len(probes))
    summary = {
        "setup_s": statistics.median(setup_times),
        "batch_s": sum(item_median.values()),
        "peak_mem_mb": peak_mb,
        "fail_frac": fail_frac,
        "pass_frac": 1.0 - fail_frac,
    }
    for part in parts:
        summary[part] = sum(item_median[it.name] for it in items if it.part == part)

    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(rounds),
        "setup_reps": len(setup_times),
        "setup_times_s": setup_times,
        "round_item_s": rounds,
        "item_median_s": item_median,
        "summary": summary,
        "gate": verdicts,
        "fingerprints": fingerprints,
        "fingerprint_sha256": hashlib.sha256(
            json.dumps(fingerprints, sort_keys=True).encode()).hexdigest(),
        "probes": {name: {"ok": p.ok, "detail": p.detail} for name, p in probes.items()},
        "failed_items": tally.failed_items,
    }

    if trace:
        layer = {}
        keys = traced[0][1].keys()
        for key in keys:
            pick = statistics.median_low if layer_unit(key) == "count" else statistics.median
            layer[key] = pick([m[key] for _, m, _ in traced])
        counts = [{k: v for k, v in m.items() if layer_unit(k) == "count"} for _, m, _ in traced]
        traced_batch = sum(statistics.median([t[n] for t, _, _ in traced]) for n in names)
        layer["trace.batch_s"] = traced_batch
        layer["trace.untraced_batch_s"] = summary["batch_s"]
        layer["trace.overhead_s"] = traced_batch - summary["batch_s"]
        record["per_layer"] = layer
        record["counts_repeat"] = all(c == counts[0] for c in counts)
        record["traced_rounds"] = len(traced)
        record["note"] = CG_NOTE
        spans_path = RESULTS / f"{workload}-seed{seed}-spans.json"
        spans_path.write_text(json.dumps(traced[-1][2].as_records()))
        record["spans_file"] = spans_path.name
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    else:
        metrics = {k: {"value": summary[k], "unit": u} for k, u in END_TO_END.items()}
    return tally, record, metrics


def print_human(record, env) -> None:
    s = record["summary"]
    print(f"# fpxlap benchmark  workload={record['workload']}  seed={env['seed']}  "
          f"trace={record['trace']}  rounds={record['rounds']}")
    print(f"# python {env['python']}  numpy {env['numpy']}  blas {env['blas']}  "
          f"nproc {env['nproc']}  threads {THREADS}  commit {env['commit']}  "
          f"src {env['src_sha256'][:12]}")
    units = {**END_TO_END, "fail_frac": "ratio"}
    for key, value in s.items():
        print(f"metric {key} = {value!r} {units.get(key, 's')}")
    for name, verdict in record["gate"].items():
        if not verdict.startswith("ok"):
            print(f"gate {name}: {verdict}")
    for name, probe in record["probes"].items():
        print(f"probe {name}: {'pass' if probe['ok'] else 'FAIL (known defect)'}  "
              f"{probe['detail']}")
    print(f"fingerprint sha256 {record['fingerprint_sha256']}")
    if "per_layer" in record:
        layer = record["per_layer"]
        print(f"trace overhead {layer['trace.overhead_s']!r} s  "
              f"attributed {layer['trace.attributed_frac']!r}  "
              f"counts repeat across traced rounds: {record['counts_repeat']}")
        print(f"note: {record['note']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        fpxlap = import_library()
    except ImportError as exc:
        print(f"error: cannot import fpxlap from {SRC}: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    RESULTS.mkdir(parents=True, exist_ok=True)
    env = environment(np, args.seed)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        tally, record, metrics = measure(fpxlap, args.workload, args.seed, args.seconds,
                                         bool(args.trace), Path(tmp))
    record["environment"] = env
    record["attempted"] = tally.attempted
    record["failed"] = tally.failed
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print_human(record, env)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
