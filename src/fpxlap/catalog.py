"""Named closed-form catalogs for exponents, data functions, nonlinearities.

Configs reference these by kind + params so runs stay declarative and
reproducible.  Every evaluator broadcasts over numpy arrays.  Bounds for
exponent kinds are analytic over the working box [-R, R], which is what the
validation report cross-checks against sampled values.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .exponents import ExponentError, ExponentField, ScalarExponent
from .lebesgue import GridFunction
from .mesh_kernel import Mesh
from .semilinear import Nonlinearity


class CatalogError(ValueError):
    """Unknown kind or inadmissible parameters for a catalog entry."""


MIN_PAIR_EXPONENT = 1.1  # conditioning guard for |t|^{p-2} t near p -> 1


def _finite(v) -> bool:
    """A real number that is a finite float: json reads Infinity, NaN and
    integers of any size, and a bool is an int."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _require(params: dict, keys: tuple[str, ...], kind: str) -> list[float]:
    """The values of exactly the params ``keys``, each a finite number."""
    if not isinstance(params, dict):
        raise CatalogError(f"{kind}: params must be an object")
    missing = [k for k in keys if k not in params]
    if missing:
        raise CatalogError(f"{kind}: missing params {missing}")
    extra = [k for k in params if k not in keys]
    if extra:
        raise CatalogError(f"{kind}: unknown params {extra}")
    bad = [k for k in keys if not _finite(params[k])]
    if bad:
        raise CatalogError(f"{kind}: params {bad} must be finite numbers")
    return [float(params[k]) for k in keys]


def _with_data(params: dict, name: str, keys: tuple[str, ...], kind: str, mesh: Mesh):
    """A nonlinearity's {kind, params} data function ``name`` and its other params ``keys``."""
    if not isinstance(params, dict):
        raise CatalogError(f"{kind}: params must be an object")
    sub = params.get(name)
    if not (isinstance(sub, dict) and set(sub) == {"kind", "params"}):
        raise CatalogError(f"{kind}: param {name!r} must be a {{kind, params}} object")
    values = _require({k: v for k, v in params.items() if k != name}, keys, kind)
    return data_function(**sub, mesh=mesh), values


def pair_exponent(kind: str, params: dict, s: float, R: float) -> ExponentField:
    """Symmetric pair exponents: constant, affine, gauss_bump, radial."""
    if kind == "constant":
        (value,) = _require(params, ("value",), "exponent.constant")
        lo = hi = value
        ev = lambda x, y: value + 0.0 * (np.asarray(x) + np.asarray(y))
    elif kind == "affine":
        base, slope = _require(params, ("base", "slope"), "exponent.affine")
        ev = lambda x, y: base + slope * (np.asarray(x) + np.asarray(y)) / 2.0
        lo, hi = base - abs(slope) * R, base + abs(slope) * R
    elif kind == "gauss_bump":
        base, amp, width = _require(params, ("base", "amplitude", "width"), "exponent.gauss_bump")
        if width <= 0:
            raise CatalogError("gauss_bump width must be positive")
        ev = lambda x, y: base + amp * np.exp(-((np.asarray(x) - np.asarray(y)) / width) ** 2)
        lo, hi = (base, base + amp) if amp >= 0 else (base + amp, base)
    elif kind == "radial":
        base, slope = _require(params, ("base", "slope"), "exponent.radial")
        ev = lambda x, y: base + slope * np.abs(np.asarray(x) - np.asarray(y))
        lo, hi = (base, base + slope * 2.0 * R) if slope >= 0 else (base + slope * 2.0 * R, base)
    else:
        raise CatalogError(f"unknown pair exponent kind {kind!r}")
    if lo < MIN_PAIR_EXPONENT:
        raise ExponentError(
            f"pair exponent lower bound {lo} below the conditioning floor {MIN_PAIR_EXPONENT}"
        )
    return ExponentField(evaluator=ev, p_minus=lo, p_plus=hi, s=s)


def scalar_exponent(kind: str, params: dict, R: float) -> ScalarExponent:
    """Scalar exponents for q, r, gamma roles: constant, affine, bump."""
    if kind == "constant":
        (value,) = _require(params, ("value",), "scalar_exponent.constant")
        ev = lambda x: value + 0.0 * np.asarray(x)
        lo = hi = value
    elif kind == "affine":
        base, slope = _require(params, ("base", "slope"), "scalar_exponent.affine")
        ev = lambda x: base + slope * np.asarray(x)
        lo, hi = base - abs(slope) * R, base + abs(slope) * R
    elif kind == "bump":
        base, amp, width = _require(params, ("base", "amplitude", "width"), "scalar_exponent.bump")
        if width <= 0:
            raise CatalogError("bump width must be positive")
        ev = lambda x: base + amp * np.exp(-(np.asarray(x) / width) ** 2)
        lo, hi = (base, base + amp) if amp >= 0 else (base + amp, base)
    else:
        raise CatalogError(f"unknown scalar exponent kind {kind!r}")
    if lo <= 1.0:
        raise ExponentError(f"scalar exponent lower bound {lo} must exceed 1")
    return ScalarExponent(evaluator=ev, lower=lo, upper=hi)


def data_function(kind: str, params: dict, mesh: Mesh) -> GridFunction:
    """Sampled data functions for h, g, a: closed forms at cell centers."""
    x = mesh.cell_centers
    if kind == "constant":
        (value,) = _require(params, ("value",), "data.constant")
        vals = np.full(mesh.n_cells, value)
    elif kind == "affine":
        intercept, slope = _require(params, ("intercept", "slope"), "data.affine")
        vals = intercept + slope * x
    elif kind == "gaussian":
        amp, center, width = _require(params, ("amplitude", "center", "width"), "data.gaussian")
        if width <= 0:
            raise CatalogError("gaussian width must be positive")
        vals = amp * np.exp(-(((x - center) / width) ** 2))
    elif kind == "sine":
        amp, freq, phase = _require(params, ("amplitude", "frequency", "phase"), "data.sine")
        vals = amp * np.sin(freq * x + phase)
    elif kind == "indicator":
        amp, left, right = _require(params, ("amplitude", "left", "right"), "data.indicator")
        vals = np.where((x > left) & (x < right), amp, 0.0)
    else:
        raise CatalogError(f"unknown data kind {kind!r}")
    return GridFunction(mesh, vals)


def nonlinearity(kind: str, params: dict, mesh: Mesh, p: ExponentField) -> Nonlinearity:
    """Right-hand sides f(x,t) with declared growth data.

    source:   f = h(x)                        (t-independent)
    linear:   f = a(x) + coef * t
    arctan:   f = a(x) + eps * arctan(t)
    power:    f = coef * |t|^{pbar(x)-2} t    (natural-growth power)
    """
    if kind == "source":
        h, _ = _with_data(params, "h", (), "nonlinearity.source", mesh)
        ev = lambda x, t: np.interp(np.asarray(x), mesh.cell_centers, h.values) + 0.0 * np.asarray(t)
        return Nonlinearity(evaluator=ev, a=GridFunction(mesh, np.abs(h.values)), c_growth=0.0)
    if kind in ("linear", "arctan"):
        key = "coef" if kind == "linear" else "eps"
        a, (c,) = _with_data(params, "a", (key,), f"nonlinearity.{kind}", mesh)
        a_interp = lambda x: np.interp(np.asarray(x), mesh.cell_centers, a.values)
        if kind == "linear":
            ev = lambda x, t: a_interp(x) + c * np.asarray(t)
        else:
            ev = lambda x, t: a_interp(x) + c * np.arctan(np.asarray(t))
        return Nonlinearity(evaluator=ev, a=a, c_growth=abs(c))
    if kind == "power":
        (coef,) = _require(params, ("coef",), "nonlinearity.power")

        def ev(x, t):
            pbar = np.asarray(p.evaluator(x, x))
            t = np.asarray(t)
            return coef * np.sign(t) * np.abs(t) ** (pbar - 1.0)

        zero = GridFunction(mesh, np.zeros(mesh.n_cells))
        return Nonlinearity(evaluator=ev, a=zero, c_growth=abs(coef))
    raise CatalogError(f"unknown nonlinearity kind {kind!r}")
