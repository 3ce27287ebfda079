import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpxlap import (ExponentError, ExponentField, ScalarExponent, build_mesh,
                    conjugate_exponent, critical_exponent, trace_exponent,
                    validate_exponent_field, validate_growth_pair)

from util import affine_scalar, const_pair, const_scalar


class TestValidation:
    def test_constant_exponent_subcritical_boundary(self, mesh16):
        # s*p+ = 1 is not subcritical in dimension 1
        rep = validate_exponent_field(const_pair(2.0, 0.5), mesh16)
        assert not rep.subcritical_ok
        assert rep.symmetric_ok and rep.lower_bound_ok

        rep = validate_exponent_field(const_pair(2.0, 0.4), mesh16)
        assert rep.passed
        assert rep.sampled_p_minus == 2.0 and rep.sampled_p_plus == 2.0

    def test_radial_exponent_bounds(self):
        mesh = build_mesh(1.0, 16, [(-0.5, 0.5)])
        p = ExponentField(
            evaluator=lambda x, y: 2.0 + np.abs(np.asarray(x) - np.asarray(y)),
            p_minus=2.0, p_plus=4.0, s=0.2,
        )
        rep = validate_exponent_field(p, mesh)
        # declared supremum 4 is attained at the box corners, never at center pairs
        assert rep.sampled_p_minus == pytest.approx(2.0)
        assert rep.sampled_p_plus < 4.0
        assert rep.bounds_ok and rep.symmetric_ok
        assert p.p_plus == 4.0

    def test_asymmetric_exponent_fails(self, mesh16):
        p = ExponentField(
            evaluator=lambda x, y: 2.0 + 0.3 * np.asarray(x) + 0.0 * np.asarray(y),
            p_minus=1.4, p_plus=2.6, s=0.2,
        )
        rep = validate_exponent_field(p, mesh16)
        assert rep.symmetry_defect > 0.1
        assert not rep.symmetric_ok and not rep.passed

    def test_nonfinite_evaluator_rejected(self, mesh16):
        p = ExponentField(
            evaluator=lambda x, y: np.where(np.asarray(x) > 0, np.nan, 2.0),
            p_minus=2.0, p_plus=2.0, s=0.3,
        )
        with pytest.raises(ExponentError):
            validate_exponent_field(p, mesh16)


class TestTrace:
    def test_constant(self, mesh16):
        pbar = trace_exponent(const_pair(2.0, 0.3))
        assert np.allclose(pbar.values(mesh16.cell_centers), 2.0)

    def test_radial_has_unit_diagonal(self, mesh16):
        p = ExponentField(
            evaluator=lambda x, y: 2.0 + np.abs(np.asarray(x) - np.asarray(y)),
            p_minus=2.0, p_plus=2.0 + 4.0, s=0.1,
        )
        pbar = trace_exponent(p)
        assert np.allclose(pbar.values(mesh16.cell_centers), 2.0)

    def test_symmetric_quadratic(self):
        mesh = build_mesh(1.0, 16, [(-0.5, 0.5)])
        p = ExponentField(
            evaluator=lambda x, y: 2.0 + (np.asarray(x) + np.asarray(y)) ** 2 / 8.0,
            p_minus=2.0, p_plus=2.5, s=0.1,
        )
        pbar = trace_exponent(p)
        xs = mesh.cell_centers
        assert np.allclose(pbar.values(xs), 2.0 + xs ** 2 / 2.0)
        assert pbar.values(xs).max() < 2.5  # sup 2.5 attained only at the corner


class TestCriticalExponent:
    def test_values(self):
        assert critical_exponent(const_pair(2.0, 0.25), 0.0) == pytest.approx(4.0)
        assert critical_exponent(const_pair(2.0, 0.4), 0.3) == pytest.approx(10.0)

    def test_degenerate_denominator(self):
        with pytest.raises(ExponentError):
            critical_exponent(const_pair(2.0, 0.5), 0.0)

    def test_critical_gap(self, mesh64):
        p = const_pair(2.5, 0.3)
        xs = mesh64.cell_centers
        crit = critical_exponent(p, xs)
        pbar = trace_exponent(p).values(xs)
        assert np.all(crit > pbar)


class TestConjugate:
    def test_examples(self):
        two = conjugate_exponent(const_scalar(2.0))
        assert two(0.3) == pytest.approx(2.0)
        three = conjugate_exponent(const_scalar(3.0))
        assert three(0.0) == pytest.approx(1.5)
        # q(x) = 2 + x on (0,1) has range (2,3) there
        from fpxlap import ScalarExponent
        q = ScalarExponent(evaluator=lambda x: 2.0 + np.asarray(x), lower=2.0, upper=3.0)
        assert conjugate_exponent(q)(0.5) == pytest.approx(5.0 / 3.0)

    @given(base=st.floats(1.2, 6.0), slope=st.floats(-0.1, 0.1), x=st.floats(-1.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_involution(self, base, slope, x):
        q = affine_scalar(base, slope, R=1.0)
        qcc = conjugate_exponent(conjugate_exponent(q))
        assert qcc(x) == pytest.approx(q(x), abs=1e-12)

    @given(base=st.floats(1.2, 6.0), x=st.floats(-1.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_reciprocal_sum(self, base, x):
        q = const_scalar(base)
        qc = conjugate_exponent(q)
        assert 1.0 / q(x) + 1.0 / qc(x) == pytest.approx(1.0, abs=1e-14)


class TestGrowthPair:
    def test_examples(self, mesh16):
        p = const_pair(2.0, 0.25)
        assert validate_growth_pair(const_scalar(3.0), p, mesh16) is True
        assert validate_growth_pair(const_scalar(4.0), p, mesh16) is False
        assert validate_growth_pair(const_scalar(2.0), p, mesh16) is False

    def test_conjugate_range_when_valid(self, mesh16):
        p = const_pair(2.0, 0.25)
        r = affine_scalar(3.0, 0.2, R=2.0)
        assert validate_growth_pair(r, p, mesh16)
        rc = conjugate_exponent(r)
        xs = mesh16.cell_centers[mesh16.interior_mask]
        r_lo = r.values(xs).min()
        vals = rc.values(xs)
        assert np.all(vals > 1.0)
        assert np.all(vals <= r_lo / (r_lo - 1.0) + 1e-12)


def _nan_pair(x, y):
    return np.where(np.asarray(x) > 0.5, np.nan, 2.0 + 0.0 * np.asarray(y))


# each inadmissible exponent the constructors and samplers reject:
# (call on a mesh, fragment of the ExponentError message)
REJECTIONS = {
    "order_not_below_one": (lambda mesh: ExponentField(
        lambda x, y: 2.0, p_minus=2.0, p_plus=2.0, s=1.0), "fractional order s=1.0 outside (0,1)"),
    "pair_bounds": (lambda mesh: ExponentField(lambda x, y: 2.0, p_minus=1.0, p_plus=2.0, s=0.3),
                    "exponent bounds (1.0, 2.0) violate 1 < p- <= p+ < inf"),
    "pair_trace_not_finite": (lambda mesh: ExponentField(
        _nan_pair, p_minus=2.0, p_plus=2.0, s=0.3).trace_values(mesh.cell_centers),
        "exponent evaluator produced non-finite values"),
    "scalar_bounds": (lambda mesh: ScalarExponent(lambda x: 2.0, lower=3.0, upper=2.0),
                      "scalar exponent bounds (3.0, 2.0) invalid"),
    "scalar_not_finite": (lambda mesh: ScalarExponent(
        lambda x: np.where(np.asarray(x) > 0.5, np.inf, 2.0), lower=2.0, upper=2.0
    ).values(mesh.cell_centers), "scalar exponent produced non-finite values"),
    "conjugate_of_one": (lambda mesh: conjugate_exponent(affine_scalar(1.5, 0.25, mesh.R)),
                         "conjugate exponent requires q > 1"),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_rejections(mesh16, case):
    call, fragment = REJECTIONS[case]
    with pytest.raises(ExponentError) as excinfo:
        call(mesh16)
    assert excinfo.type is ExponentError and fragment in str(excinfo.value)
