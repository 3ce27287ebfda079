import math

import numpy as np
import pytest

from fpxlap.catalog import (CatalogError, data_function, nonlinearity, pair_exponent,
                            scalar_exponent)
from fpxlap.exponents import ExponentError
from fpxlap.semilinear import GrowthError, Nonlinearity, growth_screen, nemytsky

from util import bump_pair, const_pair, grid

A = {"kind": "constant", "params": {"value": 0.3}}


class TestParams:
    @pytest.mark.parametrize("params", (5, [2.0], "value", None))
    def test_params_must_be_an_object(self, mesh16, params):
        with pytest.raises(CatalogError, match=r"^data.constant: params must be an object$"):
            data_function("constant", params, mesh16)

    # a bool is an int to Python and "3" would pass through float()
    @pytest.mark.parametrize("value", ("3", True, [2.0], None, math.inf, math.nan, 10**400))
    def test_values_must_be_finite_numbers(self, value):
        message = r"^exponent.constant: params \['value'\] must be finite numbers$"
        with pytest.raises(CatalogError, match=message):
            pair_exponent("constant", {"value": value}, s=0.3, R=2.0)

    def test_every_bad_value_is_named(self):
        with pytest.raises(CatalogError, match=r"params \['base', 'width'\] must be"):
            scalar_exponent("bump", {"base": "2", "amplitude": 0.5, "width": False}, R=2.0)

    def test_names_are_checked_before_values(self, mesh16):
        with pytest.raises(CatalogError, match=r"missing params \['width'\]"):
            data_function("gaussian", {"amplitude": "1", "center": 0.0}, mesh16)
        with pytest.raises(CatalogError, match=r"unknown params \['freq'\]"):
            data_function("sine", {"amplitude": 1, "frequency": 2, "phase": 0, "freq": 2},
                          mesh16)

    @pytest.mark.parametrize("one", (1, np.int64(1), np.float32(1.0)))
    def test_integers_and_numpy_scalars_are_numbers(self, mesh16, one):
        vals = data_function("affine", {"intercept": one, "slope": 0}, mesh16).values
        assert vals.dtype == np.float64 and np.all(vals == 1.0)


class TestNonlinearityData:
    @pytest.mark.parametrize("kind,name,extra", (("linear", "a", {"coef": 1.0}),
                                                 ("arctan", "a", {"eps": 0.05}),
                                                 ("source", "h", {})))
    @pytest.mark.parametrize("entry", (5, None, {}, {"params": {"value": 0.3}},
                                       {"kind": "constant"},
                                       {"kind": "constant", "params": {"value": 0.3}, "x": 1}))
    def test_data_param_must_be_a_catalog_entry(self, mesh16, kind, name, extra, entry):
        params = dict(extra) if entry is None else {**extra, name: entry}
        with pytest.raises(CatalogError, match=rf"^nonlinearity.{kind}: param '{name}' must be "
                                               r"a \{kind, params\} object$"):
            nonlinearity(kind, params, mesh16, const_pair(2.0, 0.3))

    def test_data_param_values_are_checked(self, mesh16):
        bad_a = {"kind": "constant", "params": {"value": "0.3"}}
        with pytest.raises(CatalogError, match=r"^data.constant: params \['value'\]"):
            nonlinearity("arctan", {"eps": 0.05, "a": bad_a}, mesh16, const_pair(2.0, 0.3))

    @pytest.mark.parametrize("kind", ("linear", "arctan", "source", "power"))
    def test_params_must_be_an_object(self, mesh16, kind):
        message = rf"^nonlinearity.{kind}: params must be an object$"
        with pytest.raises(CatalogError, match=message):
            nonlinearity(kind, [A], mesh16, const_pair(2.0, 0.3))

    def test_other_params_are_numbers(self, mesh16):
        with pytest.raises(CatalogError, match=r"^nonlinearity.linear: params \['coef'\]"):
            nonlinearity("linear", {"coef": True, "a": A}, mesh16, const_pair(2.0, 0.3))
        with pytest.raises(CatalogError, match=r"^nonlinearity.source: unknown params \['eps'\]"):
            nonlinearity("source", {"h": A, "eps": 0.1}, mesh16, const_pair(2.0, 0.3))


SINE = {"kind": "sine", "params": {"amplitude": 0.8, "frequency": 3.0, "phase": 0.2}}
# the kinds no other test builds, each from a mesh and a pair exponent
KINDS = {
    "scalar_exponent.bump": lambda mesh, p: scalar_exponent(
        "bump", {"base": 2.5, "amplitude": 0.5, "width": 1.0}, mesh.R).values(mesh.cell_centers),
    "data.sine": lambda mesh, p: data_function(**SINE, mesh=mesh).values,
    "data.indicator": lambda mesh, p: data_function(
        "indicator", {"amplitude": 2.0, "left": -0.5, "right": 0.5}, mesh).values,
    "nonlinearity.source": lambda mesh, p: nonlinearity("source", {"h": SINE}, mesh, p),
    "nonlinearity.power": lambda mesh, p: nonlinearity("power", {"coef": 0.5}, mesh, p),
}


@pytest.mark.parametrize("p", (const_pair(2.0, 0.3), bump_pair(2.0, 0.5, s=0.3)),
                         ids=("constant_p", "bump_p"))
@pytest.mark.parametrize("kind", KINDS)
def test_kind_builds_finite_values(mesh16, kind, p):
    built = KINDS[kind](mesh16, p)
    if isinstance(built, Nonlinearity):
        assert growth_screen(built, mesh16, p).passed
        built = nemytsky(built, grid(mesh16, np.linspace(-3.0, 3.0, 16))).values
    assert built.shape == (16,) and np.all(np.isfinite(built))


NEGATIVE_A = {"kind": "constant", "params": {"value": -0.3}}
# each inadmissible width, unknown kind, exponent bound and growth offset a
# catalog call rejects: (call on a mesh, exception type, fragment of its message)
REJECTIONS = {
    "pair.gauss_bump_width": (lambda mesh: pair_exponent(
        "gauss_bump", {"base": 2.0, "amplitude": 0.5, "width": 0.0}, s=0.3, R=mesh.R),
        CatalogError, "gauss_bump width must be positive"),
    "pair.unknown_kind": (lambda mesh: pair_exponent("cubic", {}, s=0.3, R=mesh.R),
                          CatalogError, "unknown pair exponent kind 'cubic'"),
    "pair.below_floor": (lambda mesh: pair_exponent("constant", {"value": 1.05}, s=0.3, R=mesh.R),
                         ExponentError, "below the conditioning floor 1.1"),
    "scalar.bump_width": (lambda mesh: scalar_exponent(
        "bump", {"base": 2.0, "amplitude": 0.5, "width": -1.0}, R=mesh.R),
        CatalogError, "bump width must be positive"),
    "scalar.unknown_kind": (lambda mesh: scalar_exponent("cubic", {}, R=mesh.R),
                            CatalogError, "unknown scalar exponent kind 'cubic'"),
    "scalar.not_above_one": (lambda mesh: scalar_exponent(
        "affine", {"base": 1.5, "slope": 0.5}, R=mesh.R),
        ExponentError, "scalar exponent lower bound 0.5 must exceed 1"),
    "data.gaussian_width": (lambda mesh: data_function(
        "gaussian", {"amplitude": 1.0, "center": 0.0, "width": 0.0}, mesh),
        CatalogError, "gaussian width must be positive"),
    "data.unknown_kind": (lambda mesh: data_function("cubic", {}, mesh),
                          CatalogError, "unknown data kind 'cubic'"),
    "nonlinearity.unknown_kind": (lambda mesh: nonlinearity("cubic", {}, mesh,
                                                            const_pair(2.0, 0.3)),
                                  CatalogError, "unknown nonlinearity kind 'cubic'"),
    # Nonlinearity itself checks the offset a(x) that linear and arctan pass on
    "nonlinearity.linear_negative_a": (lambda mesh: nonlinearity(
        "linear", {"coef": 1.0, "a": NEGATIVE_A}, mesh, const_pair(2.0, 0.3)),
        GrowthError, "growth offset a(x) must be nonnegative"),
    "nonlinearity.arctan_negative_a": (lambda mesh: nonlinearity(
        "arctan", {"eps": 0.05, "a": NEGATIVE_A}, mesh, const_pair(2.0, 0.3)),
        GrowthError, "growth offset a(x) must be nonnegative"),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_rejections(mesh16, case):
    call, error, fragment = REJECTIONS[case]
    with pytest.raises(error) as excinfo:
        call(mesh16)
    assert excinfo.type is error and fragment in str(excinfo.value)
