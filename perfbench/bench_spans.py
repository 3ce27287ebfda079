"""Span tracer that wraps fpxlap's public functions from outside the library.

``Tracer.install`` replaces every public function defined in a layer module
with a timing wrapper, in every namespace (and module-level dict) of the
package that refers to it, so a call is recorded under the name the caller
looked it up by: ``fpxlap.semilinear.solve_poisson`` is the span
``poisson.solve_poisson``.  Spans stay in memory, each with its parent, and
are written out when the benchmark ends.  Nothing inside a function is
visible: the CG iterations and Armijo backtracks of ``solve_poisson`` need
tracing inside the program.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager

LAYERS = ("mesh_kernel", "exponents", "lebesgue", "sobolev", "poisson", "semilinear",
          "suites", "cli")

SUITES = ("norm_modular", "holder", "cara", "edm")


def _suite_info(out):
    return (out.cases, out.failures)


# return-value summaries kept on a span, by span name
INFO = {
    "poisson.solve_poisson": lambda out: (out.iterations, bool(out.converged)),
    "semilinear.fixed_point_solve": lambda out: len(out[1].iterates),
    "semilinear.solve_by_decomposition": lambda out: out[1].sweeps,
    "mesh_kernel.assemble_weights":
        lambda out: out.w.nbytes + out.p_pair.nbytes + out.tail.nbytes,
    **{f"suites.run_{s}_suite": _suite_info for s in SUITES},
}

NAME, PARENT, START, END, INFO_AT, ERROR = range(6)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []   # [name, parent index or -1, start, end, info, error]
        self._stack: list[int] = []
        self._undo: list = []

    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span for the benchmark's own code (set-up, batch, item)."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        info = INFO.get(name)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                self._close(rec)
            if info is not None:
                rec[INFO_AT] = info(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        prefix = self.package.__name__
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{prefix}.{layer}"]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))

        def swap(container, key, value, setter):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setter(container, key, hit[1])
                self._undo.append((setter, container, key, value))

        def set_item(d, k, v):
            d[k] = v

        modules = [m for name, m in list(sys.modules.items())
                   if name == prefix or name.startswith(prefix + ".")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                swap(mod, attr, value, setattr)
                if isinstance(value, dict) and not attr.startswith("__"):
                    for key, entry in list(value.items()):
                        swap(value, key, entry, set_item)

    def uninstall(self) -> None:
        while self._undo:
            setter, container, key, value = self._undo.pop()
            setter(container, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def as_records(self) -> list[dict]:
        return [{"name": s[NAME], "parent": s[PARENT], "start": s[START], "end": s[END],
                 "info": s[INFO_AT], "error": s[ERROR]} for s in self.spans]


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part covered by its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _has_ancestor(spans, i: int, name: str) -> bool:
    i = spans[i][PARENT]
    while i >= 0:
        if spans[i][NAME] == name:
            return True
        i = spans[i][PARENT]
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer metrics of one traced round: the benchmark's own root spans
    (set-up and batch) and everything below them."""
    selfs = self_times(spans)
    calls, total = {}, {}
    layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for i, s in enumerate(spans):
        name = s[NAME]
        layer = name.split(".", 1)[0]
        layer_self[layer if layer in layer_self else "bench"] += selfs[i]
        calls[name] = calls.get(name, 0) + 1
        if not _has_ancestor(spans, i, name):
            total[name] = total.get(name, 0.0) + (s[END] - s[START])

    def idx(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    def infos(name):
        return [spans[i][INFO_AT] for i in idx(name) if spans[i][INFO_AT] is not None]

    m = {}

    def fn_metrics(name):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = total.get(name, 0.0)

    fn_metrics("mesh_kernel.assemble_weights")
    m["mesh_kernel.assemble_weights.bytes_computed"] = sum(infos("mesh_kernel.assemble_weights"))

    sp = "poisson.solve_poisson"
    fn_metrics(sp)
    solves = infos(sp)
    outer = sum(it for it, _ in solves)
    m[f"{sp}.self_s"] = float(sum(selfs[i] for i in idx(sp)))
    m[f"{sp}.outer_iters"] = outer
    m[f"{sp}.s_per_outer_iter"] = _ratio(m[f"{sp}.s"], outer)
    m[f"{sp}.nonconverged"] = sum(1 for _, ok in solves if not ok)
    fn_metrics("poisson.energy_gradient")

    fn_metrics("exponents.validate_growth_pair")
    fn_metrics("lebesgue.luxemburg_norm")
    fn_metrics("lebesgue.modular")

    for name in ("gagliardo_seminorm", "gagliardo_modular", "weak_form", "apply_operator"):
        fn_metrics(f"sobolev.{name}")
    inside = sum(1 for i in idx("sobolev.gagliardo_modular")
                 if _has_ancestor(spans, i, "sobolev.gagliardo_seminorm"))
    m["sobolev.modular_passes_per_seminorm"] = _ratio(inside, calls.get("sobolev.gagliardo_seminorm", 0))

    fn_metrics("semilinear.fixed_point_solve")
    m["semilinear.fixed_point_solve.picard_iters"] = sum(infos("semilinear.fixed_point_solve"))
    fn_metrics("semilinear.solve_by_decomposition")
    sweeps = sum(infos("semilinear.solve_by_decomposition"))
    m["semilinear.solve_by_decomposition.sweeps"] = sweeps
    in_shells = sum(1 for i in idx(sp)
                    if _has_ancestor(spans, i, "semilinear.solve_by_decomposition"))
    m["semilinear.poisson_solves_per_sweep"] = _ratio(in_shells, sweeps)
    fn_metrics("semilinear.growth_screen")
    fn_metrics("semilinear.nemytsky")
    inner = [i for i in idx(sp) if _has_ancestor(spans, i, "semilinear.fixed_point_solve")]
    inner_ok = sum(1 for i in inner if spans[i][INFO_AT] is not None and spans[i][INFO_AT][1])
    m["semilinear.inner_converged_ratio"] = _ratio(inner_ok, len(inner))

    for suite in SUITES:
        name = f"suites.run_{suite}_suite"
        results = infos(name)
        m[f"suites.{suite}.s"] = total.get(name, 0.0)
        m[f"suites.{suite}.cases"] = sum(c for c, _ in results)
        m[f"suites.{suite}.failures"] = sum(f for _, f in results)
    m["cli.run.self_s"] = float(sum(selfs[i] for i in idx("cli.run")))

    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = value
    covered = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    m["trace.spans"] = len(spans)
    m["trace.attributed_frac"] = _ratio(covered - layer_self["bench"], covered)
    return m
