import gc
import math
import weakref

import numpy as np
import pytest

from slicereg import (DomainFunction, PowerSeries, Quaternion, SliceCoord,
                      SphereSample, UnitImaginary, ball_spec, build_tube,
                      connected_components, extension_formula,
                      is_slice_domain, local_extend, rasterize, regular_ext,
                      rep_coeffs, rep_eval)
from slicereg.errors import (ConsistencyError, DegeneratePairError,
                             GeometryError, IncompatiblePairError,
                             PreconditionError)
from slicereg.extension import TubeDomain, extend_to_completion
from slicereg.quaternions import UNIT_I, UNIT_J, UNIT_K

from conftest import random_polynomial, random_unit

Q = Quaternion


def test_rep_coeffs_hand_examples():
    # f = q^2 at x=0, y=1: both slice values are -1
    b, c = rep_coeffs(Q(-1), Q(-1), UNIT_I, UNIT_J)
    assert b.isclose(Q(-1), atol=1e-15) and c.isclose(Q(0), atol=1e-15)
    # f = q at x=0, y=1
    b, c = rep_coeffs(UNIT_I.as_quaternion(), UNIT_J.as_quaternion(),
                      UNIT_I, UNIT_J)
    assert b.isclose(Q(0), atol=1e-15) and c.isclose(Q(1), atol=1e-15)
    # constants have stem (a, 0) for any pair
    a = Q(0.3, -0.7, 0.2, 0.5)
    b, c = rep_coeffs(a, a, UNIT_I, UNIT_K)
    assert b.isclose(a, atol=1e-15) and c.isclose(Q(0), atol=1e-15)


def test_rep_coeffs_degenerate_pair():
    with pytest.raises(DegeneratePairError):
        rep_coeffs(Q(1), Q(1), UNIT_I, UNIT_I)


def test_rep_eval_examples():
    assert rep_eval(Q(-1), Q(0), UNIT_J).isclose(Q(-1))
    assert rep_eval(Q(0), Q(1), UNIT_K).isclose(UNIT_K.as_quaternion())
    assert rep_eval(Q(2), Q(3), None).isclose(Q(2))


def test_representation_roundtrip_random():
    rng = np.random.default_rng(29)
    for _ in range(60):
        f = random_polynomial(rng)
        x = float(rng.uniform(-0.8, 0.8))
        y = float(rng.uniform(0.05, 0.8))
        I, J, K = (random_unit(rng) for _ in range(3))
        if J.chord(K) < 1e-2:
            continue
        b, c = rep_coeffs(f.eval(SliceCoord(x, y, J)),
                          f.eval(SliceCoord(x, y, K)), J, K)
        got = rep_eval(b, c, I)
        want = f.eval(SliceCoord(x, y, I))
        assert (got - want).norm() <= 1e-10 * (1.0 + want.norm())


def test_pair_independence_random():
    rng = np.random.default_rng(31)
    for _ in range(60):
        f = random_polynomial(rng)
        x = float(rng.uniform(-0.8, 0.8))
        y = float(rng.uniform(0.05, 0.8))
        J, K, J2, K2 = (random_unit(rng) for _ in range(4))
        if J.chord(K) < 1e-2 or J2.chord(K2) < 1e-2:
            continue
        b1, c1 = rep_coeffs(f.eval(SliceCoord(x, y, J)),
                            f.eval(SliceCoord(x, y, K)), J, K)
        b2, c2 = rep_coeffs(f.eval(SliceCoord(x, y, J2)),
                            f.eval(SliceCoord(x, y, K2)), J2, K2)
        assert (b1 - b2).norm() + (c1 - c2).norm() <= 1e-10


def test_extension_formula_identity_function():
    r = PowerSeries((Q(0), Q(1))).on_slice(UNIT_I)
    s = PowerSeries((Q(0), Q(1))).on_slice(UNIT_J)
    got = extension_formula(r, s, SliceCoord(1.0, 2.0, UNIT_K))
    assert got.isclose(Q(1, 0, 0, 2), atol=1e-14)


def test_extension_formula_square_matches_series():
    series = PowerSeries((Q(0), Q(0), Q(1)))
    r = series.on_slice(UNIT_I)
    s = series.on_slice(UNIT_J)
    rng = np.random.default_rng(37)
    for _ in range(50):
        x = float(rng.uniform(-1, 1))
        y = float(rng.uniform(0, 1))
        W = random_unit(rng)
        t = SliceCoord.make(x, y, W)
        assert (extension_formula(r, s, t) - series.eval(t)).norm() <= 1e-12


def test_extension_formula_restriction_identities():
    rng = np.random.default_rng(41)
    series = random_polynomial(rng, max_degree=5)
    r = series.on_slice(UNIT_I)
    s = series.on_slice(UNIT_J)
    for _ in range(40):
        x = float(rng.uniform(-0.9, 0.9))
        y = float(rng.uniform(0.0, 0.9))
        onJ = extension_formula(r, s, SliceCoord.make(x, y, UNIT_I))
        assert (onJ - series.eval(SliceCoord.make(x, y, UNIT_I))).norm() <= 1e-12
        onK = extension_formula(r, s, SliceCoord.make(x, y, UNIT_J))
        assert (onK - series.eval(SliceCoord.make(x, y, UNIT_J))).norm() <= 1e-12


def test_extension_formula_incompatible_pair():
    r = PowerSeries((Q(0), Q(1))).on_slice(UNIT_I)
    s = PowerSeries((Q(0.1), Q(1))).on_slice(UNIT_J)
    with pytest.raises(IncompatiblePairError):
        extension_formula(r, s, SliceCoord(0.5, 0.5, UNIT_K))


def test_extension_formula_keeps_no_reference_to_its_inputs():
    r = PowerSeries((Q(0), Q(1))).on_slice(UNIT_I)
    s = PowerSeries((Q(0), Q(1))).on_slice(UNIT_J)
    extension_formula(r, s, SliceCoord(0.5, 0.5, UNIT_K))
    refs = (weakref.ref(r), weakref.ref(s))
    del r, s
    gc.collect()
    assert refs[0]() is None and refs[1]() is None


def test_regular_ext_identity(ball):
    stem = regular_ext(PowerSeries((Q(0), Q(1))).on_slice(UNIT_I), ball)
    b, c = stem.parts(0.3, 0.4)
    assert b.isclose(Q(0.3), atol=1e-14)
    assert c.isclose(Q(0.4), atol=1e-14)


def test_regular_ext_rejects_antiholomorphic(ball):
    # the conjugate map x - yI fails the slice holomorphy gate, but its raw
    # stem coefficients are still (x, -y) and reproduce the conjugate on
    # every slice
    class Conj:
        slice_unit = UNIT_I

        def eval(self, coord):
            q = coord.to_quaternion()
            return Q(q.w, -q.x, -q.y, -q.z)

    with pytest.raises(PreconditionError):
        regular_ext(Conj(), ball)
    fI = Conj()
    b, c = rep_coeffs(fI.eval(SliceCoord(0.3, 0.4, UNIT_I)),
                      fI.eval(SliceCoord.make(0.3, -0.4, UNIT_I)),
                      UNIT_I, -UNIT_I)
    assert b.isclose(Q(0.3), atol=1e-14) and c.isclose(Q(-0.4), atol=1e-14)
    induced = rep_eval(b, c, UNIT_J)
    assert induced.isclose(Q(0.3, 0, -0.4, 0), atol=1e-14)


def test_regular_ext_matches_series_on_slices(ball):
    rng = np.random.default_rng(43)
    series = random_polynomial(rng, max_degree=6, scale=0.5)
    stem = regular_ext(series.on_slice(UNIT_I), ball)
    for _ in range(100):
        x = float(rng.uniform(-0.6, 0.6))
        y = float(rng.uniform(0.0, 0.6))
        W = random_unit(rng)
        t = SliceCoord.make(x, y, W)
        assert (stem.eval(t) - series.eval(t)).norm() <= 1e-10


def test_regular_ext_requires_symmetric_domain(star, ball):
    from slicereg.domains import intersect_specs, halfspace_spec
    wedge = intersect_specs(ball, TubeDomain(
        unit=UNIT_I, polyline=np.array([[0.0, 0.5], [0.0, 0.0]]),
        epsilon=0.3, y_ref=0.5).as_domain_spec())
    with pytest.raises(PreconditionError):
        regular_ext(PowerSeries((Q(0), Q(1))).on_slice(UNIT_I), wedge)


def test_identity_principle_oracle(ball):
    # stems built from two different slices of the same polynomial agree
    rng = np.random.default_rng(47)
    series = random_polynomial(rng, max_degree=6, scale=0.5)
    stem_i = regular_ext(series.on_slice(UNIT_I), ball)
    stem_j = regular_ext(series.on_slice(UNIT_J), ball)
    # agreement on one slice segment
    for x in np.linspace(-0.5, 0.5, 100):
        a = stem_i.eval(SliceCoord(float(x), 0.2, UNIT_I))
        b = stem_j.eval(SliceCoord(float(x), 0.2, UNIT_I))
        assert (a - b).norm() <= 1e-10
    # hence agreement everywhere sampled
    for _ in range(200):
        t = SliceCoord.make(float(rng.uniform(-0.6, 0.6)),
                            float(rng.uniform(0.0, 0.6)), random_unit(rng))
        assert (stem_i.eval(t) - stem_j.eval(t)).norm() <= 1e-8


# ---------------------------------------------------------------------------
# tubes
# ---------------------------------------------------------------------------

def test_build_tube_vertical_segment(ball):
    C = np.array([[0.0, 0.6], [0.0, 0.0]])
    tube = build_tube(C, ball, 0.5, carrier=UNIT_I)
    assert 0.0 < tube.epsilon < 0.6
    # radii shrink linearly toward the real axis
    assert tube.contains(0.0, 0.55, UNIT_I)
    near_axis_reach = tube.epsilon * (0.1 / 0.6)
    assert tube.contains(near_axis_reach * 0.8, 0.1, UNIT_I)
    # orthogonal slice only sees the disks around the real interval
    assert tube.contains(0.05, 0.05, UNIT_J)
    assert not tube.contains(0.0, 0.55, UNIT_J)


def test_build_tube_small_angle_slice_connected(ball):
    C = np.array([[0.0, 0.6], [0.0, 0.0]])
    tube = build_tube(C, ball, 0.5, carrier=UNIT_I)
    theta0 = math.asin(tube.epsilon / tube.y_ref)
    from slicereg.quaternions import rotate_toward
    K = rotate_toward(UNIT_I, 2.0 * math.sin(theta0 / 4.0))
    grid = rasterize(tube.as_domain_spec(), K)
    n, _ = connected_components(grid)
    assert n == 1
    assert tube.contains(0.0, 0.5 * math.cos(theta0 / 2.0), K)


def test_build_tube_all_real(ball):
    C = np.array([[-0.3, 0.0], [0.4, 0.0]])
    tube = build_tube(C, ball, 0.5, carrier=UNIT_I)
    rng = np.random.default_rng(53)
    for _ in range(50):
        x = rng.uniform(-0.5, 0.6)
        y = rng.uniform(0.0, 0.5)
        inside = tube.contains(x, y, random_unit(rng))
        assert inside == tube.contains(x, y, random_unit(rng))


def test_build_tube_precondition_failures(ball):
    with pytest.raises(PreconditionError):
        build_tube(np.array([[0.0, 0.5], [0.0, 0.2]]), ball, 0.5)  # no real part
    with pytest.raises(PreconditionError):
        build_tube(np.array([[-0.2, 0.0], [0.0, 0.5], [0.2, 0.0]]), ball, 0.5)
    with pytest.raises((GeometryError, PreconditionError)):
        # path touching the boundary of the ball
        build_tube(np.array([[1.0 - 1e-12, 0.02], [1.0 - 1e-12, 0.0]]), ball, 0.5)


def test_tube_slices_connected_with_real_trace(ball):
    rng = np.random.default_rng(59)
    for _ in range(3):
        x0 = rng.uniform(-0.2, 0.2)
        C = np.array([[x0, 0.5], [x0 + 0.1, 0.25], [x0, 0.0]])
        tube = build_tube(C, ball, 0.5, carrier=UNIT_I)
        spec = tube.as_domain_spec()
        for W in SphereSample(8).units:
            grid = rasterize(spec, W, full_slice=True)
            n, _ = connected_components(grid)
            assert n == 1
            axis_row = np.where(grid.ys == 0.0)[0][0]
            assert grid.occupied[axis_row].any()


# ---------------------------------------------------------------------------
# local extension
# ---------------------------------------------------------------------------

def test_local_extend_ball_square(ball):
    f = DomainFunction(PowerSeries((Q(0), Q(0), Q(1))), ball)
    result = local_extend(f, SliceCoord(0.3, 0.4, UNIT_I))
    assert result.checks["tube_max_err"] <= 1e-8
    rng = np.random.default_rng(61)
    for _ in range(50):
        x, y = rng.uniform(-0.3, 0.3), rng.uniform(0.0, 0.3)
        b, c = result.stem.parts(x, y)
        assert (b - Q(x * x - y * y)).norm() <= 1e-10
        assert (c - Q(2 * x * y)).norm() <= 1e-10
    # the path is trimmed at its first real hit
    assert (result.path[:-1, 1] > 0).all()
    assert result.path[-1, 1] == 0.0


def test_local_extend_real_point(ball):
    f = DomainFunction(PowerSeries((Q(0), Q(0), Q(1))), ball)
    result = local_extend(f, SliceCoord(0.2, 0.0, None))
    assert result.checks["tube_max_err"] <= 1e-8
    assert result.epsilon_m > 0.0


def test_local_extend_tubes_are_slice_domains(ball):
    f = DomainFunction(PowerSeries((Q(0), Q(0), Q(1))), ball)
    result = local_extend(f, SliceCoord(0.3, 0.4, UNIT_I))
    assert is_slice_domain(result.tube.as_domain_spec(), SphereSample(16)).is_yes
    assert is_slice_domain(result.N, SphereSample(16)).is_yes


def test_local_extend_k0_within_angular_bound(ball):
    f = DomainFunction(PowerSeries((Q(0), Q(0), Q(1))), ball)
    result = local_extend(f, SliceCoord(0.3, 0.4, UNIT_I))
    chord = result.j0.chord(result.k0)
    y_ref = float(result.path[:, 1].max())
    assert 0.0 < chord < result.epsilon_m / y_ref


# ---------------------------------------------------------------------------
# global extension on simple domains
# ---------------------------------------------------------------------------

def test_extend_to_completion_polynomial(star):
    rng = np.random.default_rng(67)
    poly = PowerSeries((Q(0.3, 0.1, 0, 0), Q(0, 1, 0.5, 0), Q(1, 0, 0, 0.2)))
    f = DomainFunction(poly, star)
    sample = SphereSample(32)
    xs = np.arange(star.bbox[0], star.bbox[1], 0.15)
    ys = np.arange(0.0, star.bbox[2], 0.15)
    grid = np.array([[x, y] for x in xs for y in ys])
    stem, report = extend_to_completion(f, sample, grid)
    assert report.max_defect <= 1e-10
    for _ in range(50):
        t = SliceCoord.make(float(rng.uniform(-0.4, 0.8)),
                            float(rng.uniform(0.0, 0.6)), random_unit(rng))
        if not star.contains(t.x, t.y, t.unit):
            continue
        assert (stem.eval(t) - poly.eval(t)).norm() <= 1e-10


def test_extend_to_completion_constant(ball):
    a = Q(0.2, -0.4, 0.6, 0.1)
    f = DomainFunction(PowerSeries((a,)), ball)
    sample = SphereSample(16)
    grid = np.array([[x, y] for x in np.linspace(-0.9, 0.9, 12)
                     for y in np.linspace(0.0, 0.9, 8)])
    stem, report = extend_to_completion(f, sample, grid)
    assert report.max_defect <= 1e-14
    t = SliceCoord(0.1, 0.5, UNIT_K)
    assert stem.eval(t).isclose(a, atol=1e-14)


def test_extend_to_completion_requires_simple(omega, cfg, log_family):
    sample = SphereSample(16, extra=[cfg.axis])
    grid = np.array([[3.0, 1.0]])
    with pytest.raises(PreconditionError):
        extend_to_completion(log_family, sample, grid, force=False)
