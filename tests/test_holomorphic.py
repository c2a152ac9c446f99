import math

import numpy as np
import pytest

from slicereg import (ContinuedLog, PowerSeries, Quaternion, SliceCoord,
                      StemRestriction, UnitImaginary, ball_spec, dbar_residual,
                      regular_ext)
from slicereg.errors import OutOfDomainError, StencilError
from slicereg.holomorphic import (HoloSliceFunction, integrate_reciprocal,
                                  polyline_integral, segment_crossings,
                                  winding_number)
from slicereg.quaternions import UNIT_I, UNIT_J

from conftest import random_polynomial, random_unit
from helpers import poly_eval_direct, winding_angle_sum

Q = Quaternion


def test_power_series_square():
    ps = PowerSeries((Q(0), Q(0), Q(1)))
    assert ps.eval(SliceCoord(1, 1, UNIT_I)).isclose(Q(0, 2, 0, 0))


def test_power_series_matches_direct_sum():
    rng = np.random.default_rng(23)
    for _ in range(40):
        ps = random_polynomial(rng)
        q = Q(*rng.uniform(-0.9, 0.9, size=4))
        direct = poly_eval_direct(ps.coeffs, q)
        horner = ps.eval(SliceCoord.make(*_coords(q)))
        assert (direct - horner).norm() <= 1e-12 * (1.0 + direct.norm())


def _coords(q):
    from slicereg import slice_decompose
    c = slice_decompose(q)
    return c.x, c.y, c.unit


def test_power_series_radius():
    ps = PowerSeries((Q(1), Q(1)), radius=0.5)
    with pytest.raises(OutOfDomainError):
        ps.eval(SliceCoord(1.0, 0.0, None))


def test_dbar_residual_cube():
    # central differences on q^3: truncation is (h^2/6)|f'''| = h^2, so the
    # residual at h = 1e-4 sits near 1e-8, well under the 1e-7 bound
    ps = PowerSeries((Q(0), Q(0), Q(0), Q(1)))
    res = dbar_residual(ps, SliceCoord(0.5, 0.5, UNIT_I), 1e-4)
    assert res <= 1e-7


def test_dbar_residual_constant():
    ps = PowerSeries((Q(0.3, -0.2, 0.1, 0.9),))
    res = dbar_residual(ps, SliceCoord(0.4, 1.2, UNIT_J), 1e-4)
    assert res <= 1e-12


class _Conjugate(HoloSliceFunction):
    """Anti-holomorphic test injection f(x + yJ) = x - yJ."""

    slice_unit = None

    def eval(self, coord):
        return SliceCoord.make(coord.x, coord.y, coord.unit).to_quaternion().conjugate() \
            if not coord.is_real else Q(coord.x)


def test_dbar_detects_antiholomorphic():
    res = dbar_residual(_Conjugate(), SliceCoord(1.0, 1.0, UNIT_I), 1e-4)
    assert 0.9 <= res <= 1.1


def test_dbar_second_order_rate():
    rng = np.random.default_rng(31)
    ratios = []
    for _ in range(20):
        ps = random_polynomial(rng, max_degree=6)
        J = random_unit(rng)
        x, y = rng.uniform(0.1, 0.5, size=2)
        r1 = dbar_residual(ps, SliceCoord(x, y, J), 1e-3)
        r2 = dbar_residual(ps, SliceCoord(x, y, J), 5e-4)
        if r1 < 1e-12:  # degree too low for a third derivative signal
            continue
        ratios.append(r1 / r2)
    assert ratios, "no informative samples"
    ratios = np.array(ratios)
    assert ((ratios > 3.2) & (ratios < 4.8)).mean() >= 0.8


def test_dbar_stencil_error():
    ps = PowerSeries((Q(1), Q(1)), radius=0.3)
    with pytest.raises(StencilError):
        dbar_residual(ps, SliceCoord(0.29, 0.0, UNIT_I), 1e-2)


# ---------------------------------------------------------------------------
# continued logarithm
# ---------------------------------------------------------------------------

def _plain_log(cuts=()):
    return ContinuedLog(pole=(0.0, 0.0), base=(1.0, 0.0),
                        base_value=Q(0.0), cuts=tuple(cuts), carrier=UNIT_I,
                        bbox=(-4.0, 4.0, -4.0, 4.0), step=0.05)


def test_continued_log_principal_values():
    fn = _plain_log(cuts=[np.array([[0.0, 0.0], [0.0, -4.5]])])
    v = fn.eval(SliceCoord(math.e, 0.0, None))
    assert (v - Q(1.0)).norm() <= 1e-9
    v = fn.eval(SliceCoord(0.0, 2.0, UNIT_I))  # log(2i) = ln 2 + i pi/2
    assert (v - Q(math.log(2.0), math.pi / 2.0, 0, 0)).norm() <= 1e-9


def test_continued_log_jump_across_cut():
    # cut from the pole straight down to the boundary: points on the two
    # sides are continued along paths on opposite sides, and their value
    # difference closed up by the short segment across the cut is a full
    # loop around the pole
    fn = _plain_log(cuts=[np.array([[0.0, 0.0], [0.0, -4.5]])])
    left = fn.eval_plane(-1e-3, -1.0)
    right = fn.eval_plane(1e-3, -1.0)
    closing = integrate_reciprocal(complex(-1e-3, -1.0), complex(1e-3, -1.0),
                                   complex(0.0, 0.0))
    total = (left - right) + Q(closing.real, closing.imag, 0, 0)
    # winding oracle: an explicit closed loop around the pole gives 2 pi i
    loop = np.array([[1.5, -1.0], [1.5, 1.0], [-1.5, 1.0],
                     [-1.5, -1.0], [1.5, -1.0]])
    oracle = polyline_integral(loop, complex(0.0, 0.0))
    assert abs(oracle - complex(0.0, 2.0 * math.pi)) <= 1e-10
    assert (total - Q(0.0, 2.0 * math.pi, 0, 0)).norm() <= 1e-8


def test_continued_log_two_anchor_agreement():
    fn = _plain_log()
    vals = fn._table.anchored_integrals(0.7, 1.3, count=3)
    assert len(vals) >= 2
    for v in vals[1:]:
        assert abs(vals[0] - v) <= 1e-9


def test_loop_consistency_far_from_pole():
    fn = _plain_log()
    sq = np.array([[2.0, 0.5], [2.5, 0.5], [2.5, 1.0], [2.0, 1.0], [2.0, 0.5]])
    assert fn.loop_consistency(sq) <= 1e-12


def test_loop_consistency_encircling_in_uncut_plane():
    fn = _plain_log()
    t = np.linspace(0.0, 2.0 * math.pi, 200)
    loop = np.column_stack([1.5 * np.cos(t), 1.5 * np.sin(t)])
    assert abs(fn.loop_consistency(loop) - 2.0 * math.pi) <= 1e-9
    assert abs(winding_angle_sum(loop, 0.0, 0.0) - 1.0) <= 1e-9


def test_loop_consistency_in_cut_domain(logs):
    direct, _ = logs
    loops = [
        np.array([[2.0, 0.3], [3.0, 0.3], [3.0, 1.5], [2.0, 1.5], [2.0, 0.3]]),
        np.array([[-1.3, 1.9], [-0.7, 1.9], [-0.7, 2.1], [-1.3, 2.1], [-1.3, 1.9]]),
    ]
    for loop in loops:
        assert direct.loop_consistency(loop) <= 1e-9
        assert abs(winding_angle_sum(loop, 0.0, 2.0)) <= 1e-9


def test_winding_number_helper():
    t = np.linspace(0.0, 2.0 * math.pi, 100)
    loop = np.column_stack([np.cos(t), np.sin(t)])
    assert abs(winding_number(loop, complex(0, 0)) - 1.0) <= 1e-9
    assert abs(winding_number(loop, complex(2, 0))) <= 1e-9


def test_segment_crossings():
    poly = np.array([[0.0, -1.0], [0.0, 1.0]])
    assert segment_crossings((-1.0, 0.0), (1.0, 0.0), poly) == 1
    assert segment_crossings((-1.0, 2.0), (1.0, 2.0), poly) == 0


def test_integrate_reciprocal_matches_closed_form():
    val = integrate_reciprocal(complex(1, 0), complex(0, 1), complex(0, 0))
    exact = complex(0.0, math.pi / 2.0)  # log(i) - log(1)
    assert abs(val - exact) <= 1e-12


def test_slice_mismatch_raises(logs):
    direct, _ = logs
    with pytest.raises(OutOfDomainError):
        direct.eval(SliceCoord(1.0, 2.0, UNIT_J))


def test_stem_restriction_roundtrip(ball):
    stem = regular_ext(PowerSeries((Q(0), Q(0), Q(1))).on_slice(UNIT_I), ball)
    restr = StemRestriction(stem=stem, slice_unit=UNIT_J)
    c = SliceCoord(0.3, 0.4, UNIT_J)
    bq, cq = stem.parts(0.3, 0.4)
    expect = bq + UNIT_J.as_quaternion() * cq
    assert restr.eval(c).isclose(expect, atol=0.0)
