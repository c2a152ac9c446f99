import functools
import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicereg import (PowerSeries, Quaternion, SliceCoord, SphereSample,
                      UnitImaginary, ball_spec, build_tube, extension_formula,
                      is_slice_domain, local_extend, rasterize, regular_ext,
                      rep_coeffs)
from slicereg.counterexample import (BranchedLogFamily, CounterexampleConfig,
                                     arc_coords)
from slicereg.specs import intersect_specs
from slicereg.errors import (ConsistencyError, DegeneratePairError,
                             GeometryError, IncompatiblePairError,
                             OutOfDomainError, PreconditionError,
                             SliceRegError)
from slicereg import consistency
from slicereg.consistency import _block_stems
from slicereg.extension import _two_slice_stem, extend_to_completion
from slicereg.holomorphic import HoloSliceFunction
from slicereg import extension, local
from slicereg.domains import DomainSpec
from slicereg.extension import _validate_holomorphic
from slicereg.local import TubeDomain, _clearance_radii, _validate_local, _validate_tube
from slicereg.quaternions import UNIT_I, UNIT_J, UNIT_K, norm_rows
from slicereg.raster import resample_polyline

from conftest import random_polynomial, random_unit
from helpers import (rep_eval, stem_at, tube_contains, two_slice_parts,
                     validate_holomorphic_loop, validate_local_loop,
                     validate_tube_loop)

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
    b, c = stem_at(stem, 0.3, 0.4)
    assert b.isclose(Q(0.3), atol=1e-14)
    assert c.isclose(Q(0.4), atol=1e-14)


def test_regular_ext_rejects_antiholomorphic(ball):
    # the conjugate map x - yI fails the slice holomorphy gate, but its raw
    # stem coefficients are still (x, -y) and reproduce the conjugate on
    # every slice
    class Conj(HoloSliceFunction):
        slice_unit = UNIT_I

        def eval_rows(self, x, y, vectors):
            v = np.asarray(vectors, dtype=float).reshape(-1, 3)
            values = np.empty((len(v), 4))
            values[:, 0] = x
            values[:, 1:] = -np.asarray(y, dtype=float).reshape(-1, 1) * v
            return values, np.ones(len(v), dtype=bool)

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
    assert tube_contains(tube, 0.0, 0.55, UNIT_I)
    near_axis_reach = tube.epsilon * (0.1 / 0.6)
    assert tube_contains(tube, near_axis_reach * 0.8, 0.1, UNIT_I)
    # orthogonal slice only sees the disks around the real interval
    assert tube_contains(tube, 0.05, 0.05, UNIT_J)
    assert not tube_contains(tube, 0.0, 0.55, UNIT_J)


def test_build_tube_small_angle_slice_connected(ball):
    C = np.array([[0.0, 0.6], [0.0, 0.0]])
    tube = build_tube(C, ball, 0.5, carrier=UNIT_I)
    theta0 = math.asin(tube.epsilon / tube.y_ref)
    from slicereg.quaternions import rotate_toward
    K = rotate_toward(UNIT_I, 2.0 * math.sin(theta0 / 4.0))
    grid = rasterize(tube.as_domain_spec(), K)
    n, _ = grid.label()
    assert n == 1
    assert tube_contains(tube, 0.0, 0.5 * math.cos(theta0 / 2.0), K)


def test_build_tube_all_real(ball):
    C = np.array([[-0.3, 0.0], [0.4, 0.0]])
    tube = build_tube(C, ball, 0.5, carrier=UNIT_I)
    rng = np.random.default_rng(53)
    for _ in range(50):
        x = rng.uniform(-0.5, 0.6)
        y = rng.uniform(0.0, 0.5)
        inside = tube_contains(tube, x, y, random_unit(rng))
        assert inside == tube_contains(tube, x, y, random_unit(rng))


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
            n, _ = grid.label()
            assert n == 1
            axis_row = np.where(grid.ys == 0.0)[0][0]
            assert grid.occupied[axis_row].any()


def _ball_union_margin(tube, x, y, J, step=2e-3):
    """Oracle of TubeDomain.membership: (margin, slack) for the point
    x + yJ, where margin is the least of |q - p| - r(p) over points p of the
    path C spaced at most step apart, r(p) the scaled radius
    (|im p| / y_ref) epsilon of a non-real point and epsilon of a real one.
    margin < 0 puts q in a ball of the union; as |q - p| - r(p) changes by at
    most (1 + epsilon / y_ref) per unit of arc length, margin > slack puts q
    outside every ball."""
    pts = tube.polyline
    c = tube.epsilon / tube.y_ref if tube.y_ref > 0.0 else 0.0
    samples = [pts[:1]]
    for p0, p1 in zip(pts[:-1], pts[1:]):
        n = int(math.ceil(np.hypot(*(p1 - p0)) / step)) + 1
        samples.append(p0 + np.linspace(0.0, 1.0, n)[:, None] * (p1 - p0))
    px, py = np.vstack(samples).T
    d = J.dot(tube.unit)
    dist = np.sqrt(np.maximum((x - px) ** 2 + y * y + py * py - 2.0 * y * py * d, 0.0))
    radius = np.where(py > 0.0, c * py, tube.epsilon)
    return float((dist - radius).min()), (1.0 + c) * step / 2.0


@st.composite
def _tube_queries(draw):
    """(tube, x, y, J): a path with heights >= 0 whose real vertices form
    one run, as build_tube takes, epsilon up to 1.5 (often above y_ref) and
    y_ref from 0.3 to 1.5 times the greatest height; points anywhere near."""
    xs = st.floats(-1.0, 1.0)
    above = draw(st.lists(st.tuples(xs, st.floats(0.05, 1.0)), max_size=3))
    real = draw(st.lists(st.tuples(xs, st.just(0.0)), min_size=1, max_size=2))
    after = draw(st.lists(st.tuples(xs, st.floats(0.05, 1.0)), max_size=2))
    pts = np.array(above + real + after, dtype=float)
    top = float(pts[:, 1].max())
    unit = UnitImaginary(*draw(st.sampled_from([(1.0, 0.0, 0.0), (0.0, 0.6, 0.8)])))
    tube = TubeDomain(unit=unit, polyline=pts, epsilon=draw(st.floats(0.05, 1.5)),
                      y_ref=top * draw(st.floats(0.3, 1.5)))
    J = draw(st.one_of(st.sampled_from([unit, -unit]),
                       st.tuples(*[st.floats(-1.0, 1.0)] * 3)
                       .filter(lambda v: np.linalg.norm(v) > 0.1)
                       .map(lambda v: UnitImaginary(*v))))
    return tube, draw(st.floats(-2.5, 2.5)), draw(st.floats(0.0, 2.5)), J


@settings(max_examples=300, deadline=None)
@given(_tube_queries())
@example((TubeDomain(unit=UNIT_I, polyline=np.array([[0.3, 0.0], [0.3, 0.6]]),
                     epsilon=1.0, y_ref=0.6), 0.3, 1.2, UNIT_I))
def test_tube_membership_is_the_ball_union_either_way_along_the_path(case):
    """Membership does not depend on the direction of the path and matches
    a sampled union of the tube's balls wherever the sampling decides,
    epsilon > y_ref included: there a segment's quadratic is concave and the
    ball of its last vertex must still count."""
    tube, x, y, J = case
    reverse = TubeDomain(unit=tube.unit, polyline=tube.polyline[::-1],
                         epsilon=tube.epsilon, y_ref=tube.y_ref)
    margin, slack = _ball_union_margin(tube, x, y, J)
    got = (tube_contains(tube, x, y, J), tube_contains(reverse, x, y, J))
    if margin < -1e-9:
        assert got == (True, True)
    elif margin > slack + 1e-9:
        assert got == (False, False)


# ---------------------------------------------------------------------------
# local extension
# ---------------------------------------------------------------------------

def test_local_extend_ball_square(ball):
    f = PowerSeries((Q(0), Q(0), Q(1)))
    result = local_extend(f, ball, SliceCoord(0.3, 0.4, UNIT_I))
    assert result.checks["tube_max_err"] <= 1e-8
    rng = np.random.default_rng(61)
    for _ in range(50):
        x, y = rng.uniform(-0.3, 0.3), rng.uniform(0.0, 0.3)
        b, c = stem_at(result.stem, x, y)
        assert (b - Q(x * x - y * y)).norm() <= 1e-10
        assert (c - Q(2 * x * y)).norm() <= 1e-10
    # the path is trimmed at its first real hit
    assert (result.path[:-1, 1] > 0).all()
    assert result.path[-1, 1] == 0.0


def test_local_extend_real_point(ball):
    f = PowerSeries((Q(0), Q(0), Q(1)))
    result = local_extend(f, ball, SliceCoord(0.2, 0.0, None))
    assert result.checks["tube_max_err"] <= 1e-8
    assert result.epsilon_m > 0.0


@pytest.mark.parametrize("p0", [SliceCoord(0.3, 0.4, UNIT_I), SliceCoord(0.2, 0.0, None)])
def test_real_trace_check_catches_a_stem_off_f_next_to_the_axis(ball, p0):
    """A stem whose second slice carries f + 1 has b = f on the real axis,
    where it is f's own value, but not next to it: the real-trace check
    reads b in the limit y -> 0+ and refuses the stem before the tube
    sampling runs."""
    f = PowerSeries((Q(0), Q(0), Q(1)))
    shifted = PowerSeries((Q(1), Q(0), Q(1)))
    result = local_extend(f, ball, p0)
    assert 0.0 < result.checks["real_trace_max_err"] <= 1e-9
    wrong = _two_slice_stem(f, result.j0, shifted, result.k0)
    with pytest.raises(ConsistencyError, match="on the real trace"):
        _validate_local(f, wrong, result.N, result.tube, result.j0, result.k0, 0.0, 0)


def test_local_extend_tubes_are_slice_domains(ball):
    f = PowerSeries((Q(0), Q(0), Q(1)))
    result = local_extend(f, ball, SliceCoord(0.3, 0.4, UNIT_I))
    assert is_slice_domain(result.tube.as_domain_spec(), SphereSample(16)).is_yes
    assert is_slice_domain(result.N, SphereSample(16)).is_yes


def test_local_extend_k0_within_angular_bound(ball):
    f = PowerSeries((Q(0), Q(0), Q(1)))
    result = local_extend(f, ball, SliceCoord(0.3, 0.4, UNIT_I))
    chord = result.j0.chord(result.k0)
    y_ref = float(result.path[:, 1].max())
    assert 0.0 < chord < result.epsilon_m / y_ref


# ---------------------------------------------------------------------------
# global extension on simple domains
# ---------------------------------------------------------------------------

def test_extend_to_completion_polynomial(star):
    rng = np.random.default_rng(67)
    poly = PowerSeries((Q(0.3, 0.1, 0, 0), Q(0, 1, 0.5, 0), Q(1, 0, 0, 0.2)))
    sample = SphereSample(32)
    xs = np.arange(star.bbox[0], star.bbox[1], 0.15)
    ys = np.arange(0.0, star.bbox[2], 0.15)
    grid = np.array([[x, y] for x in xs for y in ys])
    stem, report = extend_to_completion(poly, star, sample, grid)
    assert report.max_defect <= 1e-10
    for _ in range(50):
        t = SliceCoord.make(float(rng.uniform(-0.4, 0.8)),
                            float(rng.uniform(0.0, 0.6)), random_unit(rng))
        if not star.contains(t.x, t.y, t.unit):
            continue
        assert (stem.eval(t) - poly.eval(t)).norm() <= 1e-10


def test_extend_to_completion_constant(ball):
    a = Q(0.2, -0.4, 0.6, 0.1)
    sample = SphereSample(16)
    grid = np.array([[x, y] for x in np.linspace(-0.9, 0.9, 12)
                     for y in np.linspace(0.0, 0.9, 8)])
    stem, report = extend_to_completion(PowerSeries((a,)), ball, sample, grid)
    assert report.max_defect <= 1e-14
    t = SliceCoord(0.1, 0.5, UNIT_K)
    assert stem.eval(t).isclose(a, atol=1e-14)


def test_extend_to_completion_requires_simple(omega, cfg, log_family):
    sample = SphereSample(16, extra=[cfg.axis])
    grid = np.array([[3.0, 1.0]])
    with pytest.raises(PreconditionError):
        extend_to_completion(log_family, omega, sample, grid, force=False)


# ---------------------------------------------------------------------------
# batched probes and sphere stems against their per-unit oracles
# ---------------------------------------------------------------------------

def _clearance_radii_per_probe(samples, J0, Y, hi0, iters=16):
    """Oracle: _clearance_radii with one membership call per (unit, angle)."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False) + 0.11
    units = [J0, -J0] + SphereSample(8).units
    n = samples.shape[0]
    lo, hi = np.zeros(n), np.full(n, hi0)

    def feasible(r):
        ok = np.ones(n, dtype=bool)
        for W in units:
            for th in thetas:
                px = samples[:, 0] + r * math.cos(th)
                ivx = samples[:, 1] * J0.vx + r * math.sin(th) * W.vx
                ivy = samples[:, 1] * J0.vy + r * math.sin(th) * W.vy
                ivz = samples[:, 1] * J0.vz + r * math.sin(th) * W.vz
                yn = np.sqrt(ivx * ivx + ivy * ivy + ivz * ivz)
                tiny = yn < 1e-12
                jxn = np.where(tiny, 1.0, ivx / np.where(tiny, 1.0, yn))
                jyn = np.where(tiny, 0.0, ivy / np.where(tiny, 1.0, yn))
                jzn = np.where(tiny, 0.0, ivz / np.where(tiny, 1.0, yn))
                mem = np.asarray(Y.membership(px, yn, jxn, jyn, jzn), dtype=bool)
                mem = np.broadcast_to(mem, px.shape).copy()
                if tiny.any():
                    mem[tiny] = np.asarray(Y.real_trace(px[tiny]), dtype=bool)
                ok &= mem
        return ok

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        good = feasible(mid)
        lo = np.where(good, mid, lo)
        hi = np.where(good, hi, mid)
    return lo


def test_clearance_radii_match_per_probe_loop(ball, star, omega):
    """One membership call per bisection step gives the radii of one call
    per (probe unit, angle), bit for bit."""
    from slicereg.domains import completion_of_slice
    tube = TubeDomain(unit=UNIT_I, polyline=np.array([[0.0, 0.6], [0.1, 0.3], [0.0, 0.0]]),
                      epsilon=0.2, y_ref=0.6).as_domain_spec()
    path = resample_polyline(np.array([[0.0, 0.6], [0.1, 0.3], [0.0, 0.0]]), 0.02)
    K = UnitImaginary(0.6, 0.8, 0.0)
    cases = [(ball, path, UNIT_I), (star, path, K), (tube, path, UNIT_I),
             (intersect_specs(completion_of_slice(tube, K), ball), path, K),
             (omega, np.array([[3.0, 1.0], [-1.0, 2.5], [1.0, 0.0], [-3.0, 1.5],
                               [-0.5, 1.2]]), UNIT_J)]
    for spec, samples, J0 in cases:
        got = _clearance_radii(samples, J0, spec, 2.0)
        want = _clearance_radii_per_probe(samples, J0, spec, 2.0)
        assert got.tobytes() == want.tobytes()
        assert (got > 0.0).any()


def _sphere_stems(f, omega, sample, x, y):
    """_block_stems on the one sphere x + yS: (pairs (k, 2) unit indices of
    the usable stems, b (k, 4), c (k, 4), skipped pairs, present mask)."""
    pairs, b, c, use, tried, present = (a[0] for a in _block_stems(
        f, omega, sample, np.array([float(x)]), np.array([float(y)])))
    return pairs[use], b[use], c[use], pairs[tried & ~use], present


def _scalar_sphere_stems(f, omega, sample, x, y):
    """Oracle: the sphere's stems from per-unit f.eval and scalar rep_coeffs,
    antipodal pairs first, else a fan from the first present unit."""
    vec, units = sample.vectors, sample.units
    present = np.broadcast_to(np.asarray(
        omega.membership(x, y, vec[:, 0], vec[:, 1], vec[:, 2]), dtype=bool), (len(vec),))
    values, stems, skipped = {}, [], []

    def stem(a, b):
        try:
            for m in (a, b):
                if m not in values:
                    values[m] = f.eval(SliceCoord.make(x, y, units[m]))
            stems.append((a, b) + rep_coeffs(values[a], values[b], units[a], units[b]))
        except SliceRegError:
            skipped.append((a, b))

    for a, b in sample.antipodal_pairs():
        if present[a] and present[b]:
            stem(a, b)
    if not stems:
        idx = [m for m in range(len(units)) if present[m]]
        for k in range(1, min(len(idx), 9)):
            stem(idx[0], idx[k])
    return stems, skipped, present


_CFG = CounterexampleConfig()
_FAMILY = BranchedLogFamily(_CFG)
_FAMILY_SAMPLE = SphereSample(8, extra=[_CFG.axis])
_TUBE = TubeDomain(unit=UNIT_I, polyline=np.array([[0.0, 0.6], [0.0, 0.0]]),
                   epsilon=0.3, y_ref=0.6).as_domain_spec()
# at N = 8 no sphere over the tube has a usable fan; at N = 16 some do, and
# the sphere (0, 0.35) has two fan stems and no antipodal one
_TUBE_SAMPLE = SphereSample(16)
_TUBE_SERIES = PowerSeries((Q(0.5, 0.1, -0.2, 0.3), Q(0.0, 1.0, 0.0, 0.0)))


def _fan_stems(pairs, sample) -> int:
    """How many of the usable stem pairs are fan pairs, not antipodal."""
    return sum(1 for a, b in np.asarray(pairs).tolist() if b - a != sample.base_count)


@st.composite
def _sphere_cases(draw):
    """(f, omega, sample, x, y): family spheres anywhere in the box and within
    1e-4 of an arc, the half line at height 2 and its chord [-2, 0] + 2i;
    random power series on the ball, on a tube whose slices depend on the
    unit (so antipodes are missing and the fan is used) and, with a finite
    radius of convergence, on spheres where the series fails."""
    kind = draw(st.sampled_from(["box", "arc", "arc", "line", "chord",
                                 "ball", "tube", "radius"]))
    near = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-8.0, -4.0))
    if kind in ("ball", "tube", "radius"):
        coeffs = draw(st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 4),
                               min_size=1, max_size=7))
        radius = draw(st.floats(0.3, 1.0)) if kind == "radius" else math.inf
        f = PowerSeries(tuple(Quaternion(*c) for c in coeffs), radius=radius)
        if kind == "tube":
            return (f, _TUBE, _TUBE_SAMPLE, draw(st.floats(-0.35, 0.35)),
                    draw(st.floats(1e-6, 0.9)))
        return (f, ball_spec(0.0, 1.0), SphereSample(8),
                draw(st.floats(-0.9, 0.9)), draw(st.floats(1e-6, 0.9)))
    if kind == "box":
        x, y = draw(st.floats(-5.0, 5.0)), draw(st.floats(1e-6, 5.0))
    elif kind == "line":
        x, y = draw(st.floats(-5.0, -2.0)), 2.0 + near
    elif kind == "chord":
        x, y = draw(st.floats(-2.0, 0.0)), 2.0 + near
    else:
        arc = arc_coords(draw(st.sampled_from(_FAMILY_SAMPLE.units)), _CFG)
        px, py = arc[draw(st.integers(0, len(arc) - 1))]
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        x, y = float(px + near * math.cos(angle)), abs(float(py + near * math.sin(angle)))
    return _FAMILY, _FAMILY.domain, _FAMILY_SAMPLE, x, y


def test_sphere_stems_match_per_unit_oracle():
    """The batched sphere scan (_block_stems on one sphere: one eval_rows
    call, array rep_coeffs) gives the oracle's values, pairs, stem
    coefficients within 1e-12 and skipped pairs.  Over its examples it
    compares at least one fan stem of a power series."""
    fans = []

    @settings(max_examples=300, deadline=None)
    @given(_sphere_cases())
    @example((_TUBE_SERIES, _TUBE, _TUBE_SAMPLE, 0.0, 0.35))
    def check(case):
        f, omega, sample, x, y = case
        stems, skipped, present = _scalar_sphere_stems(f, omega, sample, x, y)
        pairs, bq, cq, got_skipped, got_present = _sphere_stems(f, omega, sample, x, y)
        assert np.array_equal(got_present, present)
        assert [tuple(p) for p in pairs] == [s[:2] for s in stems]
        assert [tuple(p) for p in got_skipped] == skipped
        for row_b, row_c, (_, _, b, c) in zip(bq, cq, stems):
            assert (Quaternion.from_list(row_b) - b).norm() <= 1e-12
            assert (Quaternion.from_list(row_c) - c).norm() <= 1e-12
        values, ok = f.eval_rows(x, y, sample.vectors)
        for row, good, J in zip(values, ok, sample.units):
            try:
                want = f.eval(SliceCoord.make(x, y, J))
            except SliceRegError:
                assert not good and np.isnan(row).all()
                continue
            assert good and (Quaternion.from_list(row) - want).norm() <= 1e-12
        if isinstance(f, PowerSeries):
            fans.append(_fan_stems(pairs, sample))

    check()
    assert sum(fans) > 0


def test_consistency_report_matches_scalar_scan(omega):
    """extend_to_completion's entries (defect as row norms, witness as the
    first largest positive defect) equal a scalar scan over the oracle's
    stems, on family spheres across the box, the disk and the cuts."""
    xy = np.array([[x, y] for x in np.arange(-4.875, 5.0, 0.75)
                   for y in np.arange(0.125, 5.0, 0.75)]
                  + [[-1.0, 3.0 + 1e-6], [-1.0, 2.0 + 1e-6], [-3.0, 2.0 + 1e-6], [0.0, 2.0]])
    _, report = extend_to_completion(_FAMILY, omega, _FAMILY_SAMPLE, xy, force=True)
    want = []
    for x, y in xy:
        stems, skipped, present = _scalar_sphere_stems(_FAMILY, omega, _FAMILY_SAMPLE, x, y)
        if not present.any():
            continue
        entry = {"sphere": [x, y], "defect": 0.0, "witnesses": None}
        if len(stems) < 2:
            entry["note"] = "fewer than two usable unit pairs"
        else:
            _, _, b0, c0 = stems[0]
            for a, b, bq, cq in stems[1:]:
                d = (bq - b0).norm() + (cq - c0).norm()
                if d > entry["defect"]:
                    entry["defect"] = d
                    entry["witnesses"] = [_FAMILY_SAMPLE.units[a].to_list(),
                                          _FAMILY_SAMPLE.units[b].to_list()]
            if skipped:
                entry["skipped_pairs"] = len(skipped)
        want.append(entry)
    assert report.entries == want
    assert any(e["defect"] > 6.0 for e in want) and any(e.get("skipped_pairs") for e in want)


def _per_sphere_scan(f, omega, sample, xy, fans=None):
    """Oracle: the consistency entries sphere by sphere, one _block_stems
    call per sphere (the scan before it ran on blocks of spheres).  A fans
    list gets the number of fan stems of each sphere."""
    entries = []
    for row in np.asarray(xy, dtype=float):
        x, y = float(row[0]), float(row[1])
        if y == 0.0:
            if bool(np.asarray(omega.real_trace(np.asarray(x))).reshape(-1)[0]):
                entries.append({"sphere": [x, y], "defect": 0.0, "witnesses": None})
            continue
        pairs, bq, cq, skipped, present = _sphere_stems(f, omega, sample, x, y)
        if fans is not None:
            fans.append(_fan_stems(pairs, sample))
        if not present.any():
            continue
        if len(pairs) < 2:
            entries.append({"sphere": [x, y], "defect": 0.0, "witnesses": None,
                            "note": "fewer than two usable unit pairs"})
            continue
        d = norm_rows(bq[1:] - bq[0]) + norm_rows(cq[1:] - cq[0])
        d = np.where(d > 0.0, d, 0.0)
        k = int(np.argmax(d))
        entry = {"sphere": [x, y], "defect": float(d[k]), "witnesses": None}
        if d[k] > 0.0:
            a, b = pairs[k + 1]
            entry["witnesses"] = [sample.units[a].to_list(), sample.units[b].to_list()]
        if len(skipped):
            entry["skipped_pairs"] = len(skipped)
        entries.append(entry)
    return entries


@st.composite
def _scan_grids(draw):
    """(f, omega, sample, xy): a grid of spheres for one function, in any order and
    with repeats: family spheres in and out of the box, near the arcs, the
    half line at height 2, its chord [-2, 0] + 2i and the pole; power series
    on the ball, on the tube (missing antipodes, so fans) and with a finite
    radius (skipped pairs, note entries), with spheres that miss the domain;
    and real rows y == 0."""
    kind = draw(st.sampled_from(["family", "family", "ball", "tube", "radius"]))
    near = st.builds(lambda s, e: s * 10.0 ** e, st.sampled_from([1.0, -1.0]),
                     st.floats(-8.0, -4.0))
    if kind == "family":
        f, omega, sample = _FAMILY, _FAMILY.domain, _FAMILY_SAMPLE

        @st.composite
        def sphere(draw):
            where = draw(st.sampled_from(["box", "arc", "line", "chord", "pole"]))
            d = draw(near)
            if where == "box":
                return draw(st.floats(-6.0, 6.0)), draw(st.floats(1e-6, 6.0))
            if where == "line":
                return draw(st.floats(-5.0, -2.0)), 2.0 + d
            if where == "chord":
                return draw(st.floats(-2.0, 0.0)), 2.0 + d
            if where == "pole":
                return draw(st.sampled_from([(0.0, 2.0), (d, 2.0), (0.0, 2.0 + d)]))
            arc = arc_coords(draw(st.sampled_from(sample.units)), _CFG)
            px, py = arc[draw(st.integers(0, len(arc) - 1))]
            angle = draw(st.floats(0.0, 2.0 * math.pi))
            return float(px + d * math.cos(angle)), abs(float(py + d * math.sin(angle)))

        spheres = sphere()
    else:
        coeffs = draw(st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 4),
                               min_size=1, max_size=7))
        radius = draw(st.floats(0.3, 1.0)) if kind == "radius" else math.inf
        f = PowerSeries(tuple(Quaternion(*c) for c in coeffs), radius=radius)
        omega = _TUBE if kind == "tube" else ball_spec(0.0, 1.0)
        sample = _TUBE_SAMPLE if kind == "tube" else SphereSample(8)
        spheres = st.tuples(st.floats(-1.2, 1.2), st.floats(1e-6, 1.2))
    real = st.tuples(st.floats(-6.0, 6.0), st.just(0.0))
    xy = draw(st.lists(st.one_of(spheres, spheres, real), min_size=1, max_size=14))
    return f, omega, sample, np.array(xy, dtype=float)


def test_blocked_scan_matches_per_sphere_oracle():
    """The blocked consistency scan gives the per-sphere scan's report
    exactly (entries, skipped and max_defect ==), at blocks of one sphere,
    of three spheres and at the default row bound, so grids cross block
    boundaries.  Over its examples it compares at least one fan stem of a
    power series."""
    fans = []

    @settings(max_examples=200, deadline=None)
    @given(_scan_grids())
    @example((_TUBE_SERIES, _TUBE, _TUBE_SAMPLE,
              np.array([[0.0, 0.35], [0.3, 0.0], [0.1, 0.5]])))
    def check(case):
        f, omega, sample, xy = case
        want = _per_sphere_scan(f, omega, sample, xy,
                                fans if isinstance(f, PowerSeries) else None)
        for rows in (len(sample), 3 * len(sample), consistency.SCAN_BLOCK_ROWS):
            with mock.patch.object(consistency, "SCAN_BLOCK_ROWS", rows):
                _, report = extend_to_completion(f, omega, sample, xy, force=True)
            assert report.entries == want
            assert report.skipped == []
            assert report.max_defect == max([e["defect"] for e in want], default=0.0)
            assert report.n_spheres == len(want)

    check()
    assert sum(fans) > 0


def test_scan_blocks_bound_the_rows_of_each_evaluation(monkeypatch):
    """A scan over several blocks never hands f.eval_rows more (sphere,
    unit) rows than SCAN_BLOCK_ROWS."""
    rows = []
    eval_rows = BranchedLogFamily.eval_rows

    def spy(self, x, y, vectors):
        rows.append(len(vectors))
        return eval_rows(self, x, y, vectors)

    monkeypatch.setattr(BranchedLogFamily, "eval_rows", spy)
    xs, ys = np.arange(-4.9, 5.0, 0.25), np.arange(0.05, 5.0, 0.25)
    xy = np.column_stack([np.repeat(xs, ys.size), np.tile(ys, xs.size)])
    _, report = extend_to_completion(_FAMILY, _FAMILY.domain, _FAMILY_SAMPLE, xy, force=True)
    per_block = consistency.SCAN_BLOCK_ROWS // len(_FAMILY_SAMPLE)
    assert len(xy) > 2 * per_block and len(rows) >= 3
    assert max(rows) <= consistency.SCAN_BLOCK_ROWS
    assert sum(rows) == len(xy) * len(_FAMILY_SAMPLE)
    assert report.n_spheres == len(xy)


_STEM_SERIES = PowerSeries((Q(0.2, 0.1, 0, 0), Q(0, 1, 0.3, 0), Q(0.5, 0, 0, -0.4),
                            Q(-0.1, 0.2, 0, 0.3)), radius=1.6)
_STEM_UNITS = [UNIT_I, -UNIT_I, UNIT_K, _CFG.axis, UnitImaginary(0.36, -0.48, 0.8),
               UnitImaginary(-0.6, 0.0, -0.8)]


@functools.lru_cache(maxsize=None)
def _stem_case(kind):
    """(stem, oracle): oracle(x, y) is the stem's (b, c) by scalar
    evaluation, raising where the stem is undefined.  Two-slice stems have
    two_slice_parts as their oracle; the completion's stem the first usable
    stem of the scalar sphere oracle, and (f(x), 0) on the real axis."""
    ball = ball_spec(0.0, 1.0, h=0.02)
    if kind == "regular":
        J = _STEM_UNITS[4]
        fJ = _STEM_SERIES.on_slice(J)
        return regular_ext(fJ, ball), two_slice_parts(fJ, J, -J)
    if kind.startswith("local"):
        f, omega, p0 = {"local-series": (_STEM_SERIES, ball,
                                         SliceCoord(0.3, 0.4, _STEM_UNITS[5])),
                        "local-family": (_FAMILY, _FAMILY.domain,
                                         SliceCoord(-1.0, 1.5, _CFG.axis))}[kind]
        result = local_extend(f, omega, p0)
        return result.stem, two_slice_parts(f, result.j0, result.k0)
    f, omega, sample = {"completion-family": (_FAMILY, _FAMILY.domain, _FAMILY_SAMPLE),
                        "completion-series": (_STEM_SERIES, _TUBE, SphereSample(16))}[kind]
    stem, _ = extend_to_completion(f, omega, sample, [[0.5, 0.5]], force=True)

    def oracle(x, y):
        if y == 0.0:
            return f.eval(SliceCoord(x, 0.0, None)), Q(0.0)
        stems, _, _ = _scalar_sphere_stems(f, omega, sample, x, y)
        if not stems:
            raise OutOfDomainError(f"no usable stem on the sphere ({x}, {y})")
        return stems[0][2:]

    return stem, oracle


@st.composite
def _stem_rows(draw):
    """(kind, rows (x, y, J)): real rows and rows across the domain and past
    it (the series' radius of convergence, the tube, whose slices depend on
    the unit, the family's box), and family rows within 1e-4 of an arc and
    of the half line at height 2."""
    kind = draw(st.sampled_from(["regular", "local-series", "local-family",
                                 "completion-family", "completion-series"]))
    near = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-8.0, -4.0))
    if kind.endswith("family"):
        arc = arc_coords(draw(st.sampled_from(_FAMILY_SAMPLE.units)), _CFG)
        px, py = arc[draw(st.integers(0, len(arc) - 1))]
        span = 6.0
        points = [st.tuples(st.floats(-5.0, -2.0), st.just(2.0 + near)),
                  st.just((float(px + near), float(py + near)))]
    else:
        span = 0.5 if kind == "completion-series" else 2.0
        points = []
    point = st.one_of(st.tuples(st.floats(-span, span), st.just(0.0)),
                      st.tuples(st.floats(-span, span), st.floats(1e-6, span)), *points)
    rows = draw(st.lists(st.tuples(point, st.sampled_from(_STEM_UNITS)),
                         min_size=1, max_size=10))
    return kind, [(x, y, J) for (x, y), J in rows]


@settings(max_examples=150, deadline=None)
@given(_stem_rows())
def test_stem_rows_match_scalar_oracle(case):
    """One stems call and one eval_rows call give the scalar oracle's b, c
    and values b + J c (b on the real axis) exactly (==), and ok is False
    exactly where the oracle raises."""
    kind, rows = case
    stem, oracle = _stem_case(kind)
    x, y, vectors = (np.array(a) for a in zip(*((x, y, J.to_list()) for x, y, J in rows)))
    b, c, ok = stem.stems(x, y)
    values, values_ok = stem.eval_rows(x, y, vectors)
    assert np.array_equal(ok, values_ok)
    for i, (px, py, J) in enumerate(rows):
        try:
            want_b, want_c = oracle(px, py)
        except SliceRegError:
            assert not ok[i]
            continue
        assert ok[i]
        assert b[i].tolist() == want_b.to_list() and c[i].tolist() == want_c.to_list()
        want = want_b if py == 0.0 else rep_eval(want_b, want_c, J)
        assert values[i].tolist() == want.to_list()


# ---------------------------------------------------------------------------
# the validators draw in blocks: each equals its per-point oracle
# ---------------------------------------------------------------------------

class _Conjugate(HoloSliceFunction):
    """x - yJ: defined everywhere, and not holomorphic."""

    slice_unit = UNIT_I

    def eval_rows(self, x, y, vectors):
        v = np.asarray(vectors, dtype=float).reshape(-1, 3)
        values = np.empty((len(v), 4))
        values[:, 0] = x
        values[:, 1:] = -np.asarray(y, dtype=float).reshape(-1, 1) * v
        return values, np.ones(len(v), dtype=bool)


class _PlusHeight(HoloSliceFunction):
    """f + y: f on the real axis, off it by the height."""

    def __init__(self, f):
        self.f, self.slice_unit = f, f.slice_unit

    def eval_rows(self, x, y, vectors):
        values, ok = self.f.eval_rows(x, y, vectors)
        values = values.copy()
        values[:, 0] += np.broadcast_to(np.asarray(y, dtype=float), ok.shape)
        return values, ok


def _outcome(call, *args):
    """What call(*args) returns, or the type and message of the
    SliceRegError it raises."""
    try:
        return "returned", call(*args)
    except SliceRegError as exc:
        return type(exc).__name__, str(exc)


def _cut_ball():
    from dataclasses import replace
    return replace(ball_spec(0.0, 1.0), cuts=lambda J: [np.array([[-0.2, 0.1], [0.4, 0.6]])])


_CUBE = PowerSeries((Q(0), Q(0), Q(0), Q(1)))


def _holomorphic_cases():
    cfg = CounterexampleConfig()
    family = BranchedLogFamily(cfg)
    from slicereg.counterexample import plane_log
    from dataclasses import replace
    huge_table = replace(plane_log(UNIT_I, cfg), step=1e-5, _table=None)
    return {
        "ball": (_CUBE.on_slice(UNIT_I), ball_spec(0.0, 1.0), UNIT_I),
        "cut-ball": (_CUBE.on_slice(UNIT_J), _cut_ball(), UNIT_J),
        "conjugate": (_Conjugate(), ball_spec(0.0, 1.0), UNIT_I),
        "family": (family, family.domain, cfg.axis),
        "family-off-axis": (family, family.domain, UnitImaginary(0.3, -0.5, 0.8)),
        "table-over-budget": (huge_table, family.domain, UNIT_I),
        # no cross fits the tiny ball, so fI is never evaluated
        "no-points": (huge_table, ball_spec(0.0, 1e-4), UNIT_I),
    }


@pytest.mark.parametrize("name", sorted(_holomorphic_cases()))
def test_validate_holomorphic_equals_its_per_point_oracle(name):
    fI, domain, unit = _holomorphic_cases()[name]
    want = _outcome(validate_holomorphic_loop, fI, domain, unit)
    assert _outcome(_validate_holomorphic, fI, domain, unit) == want
    if name == "conjugate":
        assert want[1].startswith("slice restriction is not holomorphic")
    if name == "table-over-budget":
        assert want[0] == "PreconditionError"


def _tube_cases(ball):
    cfg = CounterexampleConfig()
    omega = BranchedLogFamily(cfg).domain
    return {
        "ball": (build_tube([[0.0, 0.6], [0.0, 0.0]], ball, 0.5), ball),
        "ball-bent": (build_tube([[0.2, 0.5], [-0.1, 0.3], [0.0, 0.0]], ball, 0.5,
                                 carrier=UNIT_J), ball),
        "counterexample": (build_tube([[-1.0, 1.5], [0.5, 1.0], [0.5, 0.0]], omega, 0.5,
                                      carrier=cfg.axis), omega),
        "too-wide": (TubeDomain(UNIT_I, np.array([[0.0, 0.6], [0.0, 0.0]]), 0.5, 0.6), ball),
        "few-points": (TubeDomain(UNIT_I, np.array([[0.0, 0.6], [0.0, 0.0]]), 1e-3, 0.6), ball),
    }


@pytest.mark.parametrize("name", ["ball", "ball-bent", "counterexample", "too-wide",
                                  "few-points"])
def test_validate_tube_equals_its_per_point_oracle(name, ball):
    tube, Y = _tube_cases(ball)[name]
    want = _outcome(validate_tube_loop, tube, Y)
    assert _outcome(_validate_tube, tube, Y) == want
    if name == "too-wide":
        assert want[1].startswith("tube leaves the carrier domain at")


def _local_cases(ball):
    cfg = CounterexampleConfig()
    family = BranchedLogFamily(cfg)
    square = PowerSeries((Q(0), Q(0), Q(1)))
    return {
        "ball": (square, local_extend(square, ball, SliceCoord(0.3, 0.4, UNIT_I), seed=1)),
        "ball-real": (square, local_extend(square, ball, SliceCoord(0.2, 0.0, None))),
        "family": (family, local_extend(family, family.domain,
                                        SliceCoord(-1.0, 1.5, cfg.axis))),
    }


@pytest.mark.parametrize("name", ["ball", "ball-real", "family"])
@pytest.mark.parametrize("shifted", [False, True])
def test_validate_local_equals_its_per_point_oracle(name, shifted, ball):
    """The tube sampling of _validate_local returns the oracle's maximum and
    count, and a function that leaves f off the axis fails both with the
    same message."""
    f, le = _local_cases(ball)[name]
    g = _PlusHeight(f) if shifted else f
    chi = le.epsilon_m / le.tube.y_ref if le.tube.y_ref > 0.0 else 1.0
    seed = 1 if name == "ball" else 0
    args = (le.stem, le.N, le.tube, le.j0, le.k0, chi, seed)
    want = _outcome(validate_local_loop, g, *args)
    got = _outcome(_validate_local, g, *args)
    if want[0] == "returned":
        assert got[0] == "returned"
        assert (got[1]["tube_max_err"], got[1]["tube_points"]) == want[1]
    else:
        assert got == want and "on the tube" in want[1]
    assert want[0] == ("ConsistencyError" if shifted else "returned")


def _spy_blocks(monkeypatch):
    """Counts of the blocks the validators draw and of the contains_rows
    and TubeDomain.membership calls made while they run."""
    counts = {"blocks": 0, "contains_rows": 0, "membership": 0}
    draws, contains_rows, membership = (extension._draws, DomainSpec.contains_rows,
                                        TubeDomain.membership)

    def spy_draws(draw, attempts):
        for block in draws(draw, attempts):
            counts["blocks"] += 1
            yield block

    def spy_contains(self, x, y, vectors):
        counts["contains_rows"] += 1
        return contains_rows(self, x, y, vectors)

    def spy_membership(self, *args):
        counts["membership"] += 1
        return membership(self, *args)

    monkeypatch.setattr(extension, "_draws", spy_draws)
    monkeypatch.setattr(local, "_draws", spy_draws)
    monkeypatch.setattr(DomainSpec, "contains_rows", spy_contains)
    monkeypatch.setattr(TubeDomain, "membership", spy_membership)
    return counts


def test_validators_make_one_membership_call_per_block(ball, monkeypatch):
    """Each block of draws makes one contains_rows call (the holomorphy and
    tube checks) or one tube membership call (the local tube sampling),
    not one per point."""
    tube = build_tube([[0.0, 0.6], [0.0, 0.0]], ball, 0.5)
    square = PowerSeries((Q(0), Q(0), Q(1)))
    le = local_extend(square, ball, SliceCoord(0.3, 0.4, UNIT_I))
    counts = _spy_blocks(monkeypatch)
    _validate_holomorphic(_CUBE.on_slice(UNIT_I), ball, UNIT_I)
    assert counts["contains_rows"] == counts["blocks"] == 1
    counts.update(blocks=0, contains_rows=0)
    _validate_tube(tube, ball)
    assert counts["contains_rows"] == counts["blocks"] < 200
    counts.update(blocks=0, contains_rows=0, membership=0)
    checks = _validate_local(square, le.stem, le.N, le.tube, le.j0, le.k0,
                             le.epsilon_m / le.tube.y_ref, 0)
    assert counts["membership"] == counts["blocks"] < checks["tube_points"]
    assert counts["contains_rows"] == 0
