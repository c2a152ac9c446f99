import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from slicereg import (ContinuedLog, PowerSeries, Quaternion, SliceCoord,
                      SphereSample, UnitImaginary, ball_spec, dbar_residual,
                      extend_to_completion, holomorphic, regular_ext)
from slicereg.counterexample import (BranchedLogFamily, CounterexampleConfig,
                                     arc_coords, plane_log)
from slicereg.raster import resample_polyline
from slicereg.errors import (DisconnectedDomainError, OutOfDomainError,
                             PreconditionError, SliceRegError, StencilError)
from slicereg.holomorphic import (HoloSliceFunction, _PlaneContinuation,
                                  dbar_residual_rows, integrate_reciprocal,
                                  segment_crossings)
from slicereg.quaternions import UNIT_I, UNIT_J
from slicereg.serialize import load_holo_function, walk

from conftest import random_polynomial, random_unit
from helpers import (anchored_integrals, continued_log_rows, dbar_four_evals, level_loop_table,
                     loop_consistency, poly_eval_direct, polyline_integral, scalar_anchors,
                     scalar_crossings, scalar_integral, stem_at, whole_array_table, winding_angle_sum,
                     winding_number)

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

    def eval_rows(self, x, y, vectors):
        v = np.asarray(vectors, dtype=float).reshape(-1, 3)
        values = np.empty((len(v), 4))
        values[:, 0] = x
        values[:, 1:] = -np.asarray(y, dtype=float).reshape(-1, 1) * v
        return values, np.ones(len(v), dtype=bool)


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


@pytest.mark.parametrize("step, message", [(1e-3, "continuation table"),
                                           (0.0, "must be positive"),
                                           (-0.05, "must be positive")])
def test_continued_log_table_step_is_checked_before_building(step, message):
    """A table step that is not positive, or whose grid would exceed
    MAX_GRID_CELLS (8/1e-3 squared is 6.4e7 cells), fails with
    PreconditionError before the table is built."""
    fn = _plain_log()
    bad = replace(fn, step=step, _table=None)
    with pytest.raises(PreconditionError, match=message):
        bad.eval_plane(1.0, 1.0)
    assert replace(bad, step=0.05, _table=None).eval_plane(1.0, 0.0).isclose(Q(0.0))


@pytest.mark.parametrize("base", [(1.0, 1e300), (4.5, 0.0), (-4.0 - 1e-9, 0.0)])
def test_a_base_outside_the_box_fails_once_naming_base_and_box(base, ball, monkeypatch):
    """A base outside the table's box is an error naming both, not a base
    clipped to the nearest cell; eval_rows raises it once instead of
    failing every row, and regular_ext's holomorphy check stops at it."""
    bad = replace(_plain_log(), base=base, _table=None)
    builds = []
    real = _PlaneContinuation._build
    monkeypatch.setattr(_PlaneContinuation, "_build",
                        lambda table: builds.append(1) or real(table))
    with pytest.raises(PreconditionError, match=r"continuation base \(.*\) lies outside "
                       r"the table box \[-4, 4\] x \[-4, 4\]"):
        bad.eval_rows([1.0, 2.0, 3.0], 1.0, [UNIT_I.to_list()] * 3)
    assert builds == [1]
    with pytest.raises(PreconditionError, match="lies outside the table box"):
        regular_ext(bad, ball)
    assert builds == [1, 1]
    with pytest.raises(PreconditionError, match="lies outside the table box"):
        bad.eval(SliceCoord(1.0, 1.0, UNIT_I))


def test_a_cut_between_the_base_and_its_cell_is_an_error():
    """The box's right edge lies 0.0499 past the last column of centres
    (4.025); a cut at x = 4.07 is 0.045 from that column, more than the 3h/4
    within which _block_cut_cells keeps a sample, so the base's cell stays
    free and only the test of the leg from the base sees the cut."""
    fn = ContinuedLog(pole=(0.0, 0.0), base=(4.0749, 0.5), base_value=Q(0.0),
                      cuts=(np.array([[4.07, -1.0], [4.07, 1.0]]),), carrier=UNIT_I,
                      bbox=(-4.0, 4.0749, -4.0, 4.0), step=0.05)
    with pytest.raises(DisconnectedDomainError, match="separates the base point"):
        fn.eval_plane(1.0, 1.0)
    at_centre = replace(fn, base=(4.025, 0.5), _table=None)
    at_centre.eval_plane(4.025, 0.5)
    table = at_centre._table
    assert table._xs[-1] == pytest.approx(4.025)
    assert table._free[np.argmin(np.abs(table._ys - 0.5)), -1]


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
    vals = anchored_integrals(fn._table, 0.7, 1.3, count=3)
    assert len(vals) >= 2
    for v in vals[1:]:
        assert abs(vals[0] - v) <= 1e-9


# tables of the nearest-cell fast path: the counterexample's planes of
# axis, -axis and a unit at chord >= 1, and a plain log whose box is no
# multiple of the step: its top and right edge centres lie 0.045 inside
# the box, so the cut along y = 4.065 runs 0.04 > 3h/4 past the top row,
# blocks none of it, and is met only by queries off the table
_FAST_PATH_LOGS = {
    "axis": plane_log(UNIT_I, CounterexampleConfig()),
    "-axis": plane_log(-UNIT_I, CounterexampleConfig()),
    "chord-sqrt2": plane_log(UNIT_J, CounterexampleConfig()),
    "plain": ContinuedLog(pole=(0.0, 0.0), base=(1.0, 0.0), base_value=Q(0.0),
                          cuts=(np.array([[0.0, 0.0], [0.0, 4.065], [4.07, 4.065]]),
                                np.array([[-1.0, -1.0], [-3.0, -2.5], [-4.0, -2.0]])),
                          carrier=UNIT_I, bbox=(-4.0, 4.07, -4.0, 4.07), step=0.05),
}


@st.composite
def _fast_path_queries(draw):
    """A table and a point of its box within a few h of a cut vertex or
    segment, the pole, a box edge, or anywhere."""
    name = draw(st.sampled_from(sorted(_FAST_PATH_LOGS)))
    table = _FAST_PATH_LOGS[name]._table
    xlo, xhi, ylo, yhi = table.bbox
    near = draw(st.sampled_from(["cut", "pole", "edge", "anywhere"]))
    x, y = draw(st.floats(xlo, xhi)), draw(st.floats(ylo, yhi))
    if near == "cut":
        poly = draw(st.sampled_from(table.cuts))
        k = draw(st.integers(0, len(poly) - 2))
        x, y = poly[k] + draw(st.floats(0.0, 1.0)) * (poly[k + 1] - poly[k])
    elif near == "pole":
        x, y = table.pole.real, table.pole.imag
    elif near == "edge":
        side = draw(st.integers(0, 3))
        x, y = ((table.bbox[side], y) if side < 2 else (x, table.bbox[side]))
    shift = st.one_of(st.just(0.0), st.floats(-3.0 * table.step, 3.0 * table.step))
    x, y = x + draw(shift), y + draw(shift)
    return name, min(max(float(x), xlo), xhi), min(max(float(y), ylo), yhi)


@settings(max_examples=150, deadline=None)
@given(st.lists(_fast_path_queries(), min_size=1, max_size=30))
def test_integral_rows_take_the_first_anchor_of_the_full_search(queries):
    """integral_rows, on each table's batch of points, gives every point
    exactly the first value of the scalar full anchor search (tobytes), and
    ok False where that search finds no anchor."""
    for name in sorted({q[0] for q in queries}):
        table = _FAST_PATH_LOGS[name]._table
        px, py = (np.array([q[k] for q in queries if q[0] == name]) for k in (1, 2))
        w, ok = table.integral_rows(px, py)
        want = np.full(len(px), np.nan + 0j)
        want_ok = np.zeros(len(px), dtype=bool)
        for m, (x, y) in enumerate(zip(px.tolist(), py.tolist())):
            first = next(scalar_anchors(table, x, y), None)
            if first is not None:
                want[m], want_ok[m] = first, True
            iy, ix = (int(np.rint((v - c[0]) / table.step)) for v, c in ((y, table._ys),
                                                                         (x, table._xs)))
            nearest = (0 <= iy < table._ys.size and 0 <= ix < table._xs.size
                       and np.isfinite(table._value[iy, ix]))
            event("no anchor" if first is None else "nearest cell" if nearest else "anchor walk")
        assert ok.tolist() == want_ok.tolist()
        assert w.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(_FAST_PATH_LOGS))
def test_no_cut_point_lies_within_half_a_step_of_a_free_centre(name):
    """The lemma of the fast path, on the cuts resampled at h/100: a cut
    point within h/2 (per coordinate) of a cell centre blocks that cell."""
    table = _FAST_PATH_LOGS[name]._table
    table.ensure_built()
    h, xs, ys = table.step, table._xs, table._ys
    for poly in table.cuts:
        pts = resample_polyline(poly, h / 100.0)
        ix = np.clip(np.rint((pts[:, 0] - xs[0]) / h).astype(int), 0, xs.size - 1)
        iy = np.clip(np.rint((pts[:, 1] - ys[0]) / h).astype(int), 0, ys.size - 1)
        reach = h / 2.0 * (1.0 + 1e-9)  # the closed box, whatever the rounding
        near = (np.abs(pts[:, 0] - xs[ix]) <= reach) & (np.abs(pts[:, 1] - ys[iy]) <= reach)
        assert near.any()
        assert not table._free[iy[near], ix[near]].any()


def test_loop_consistency_far_from_pole():
    fn = _plain_log()
    sq = np.array([[2.0, 0.5], [2.5, 0.5], [2.5, 1.0], [2.0, 1.0], [2.0, 0.5]])
    assert loop_consistency(fn, sq) <= 1e-12


def test_loop_consistency_encircling_in_uncut_plane():
    fn = _plain_log()
    t = np.linspace(0.0, 2.0 * math.pi, 200)
    loop = np.column_stack([1.5 * np.cos(t), 1.5 * np.sin(t)])
    assert abs(loop_consistency(fn, loop) - 2.0 * math.pi) <= 1e-9
    assert abs(winding_angle_sum(loop, 0.0, 0.0) - 1.0) <= 1e-9


def test_loop_consistency_in_cut_domain(logs):
    direct, _ = logs
    loops = [
        np.array([[2.0, 0.3], [3.0, 0.3], [3.0, 1.5], [2.0, 1.5], [2.0, 0.3]]),
        np.array([[-1.3, 1.9], [-0.7, 1.9], [-0.7, 2.1], [-1.3, 2.1], [-1.3, 1.9]]),
    ]
    for loop in loops:
        assert loop_consistency(direct, loop) <= 1e-9
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


def test_segment_crossings_broadcast_as_the_scalar_oracle():
    """Segments given as point arrays count, row by row, what the scalar
    oracle counts, in the leading shape of the broadcast points; one pair
    of points gives an int, and a polyline of one vertex crosses nothing."""
    rng = np.random.default_rng(5)
    poly = np.cumsum(rng.normal(0.0, 0.3, (300, 2)), axis=0)
    p = rng.uniform(-3.0, 3.0, (40, 25, 2))
    p[0, :5] = poly[3]  # legs that start on a vertex
    q = p + rng.normal(0.0, 0.5, p.shape)
    got = segment_crossings(p, q, poly)
    want = [[scalar_crossings(a, b, poly) for a, b in zip(pa, qa)] for pa, qa in zip(p, q)]
    assert got.shape == (40, 25) and got.tolist() == want and got.any()
    assert segment_crossings(p[0], q[0, 0], poly).tolist() == [
        scalar_crossings(a, q[0, 0], poly) for a in p[0]]
    one = segment_crossings(p[1, 1], q[1, 1], poly)
    assert type(one) is int and one == want[1][1]
    assert segment_crossings(p, q, poly[:1]).tolist() == np.zeros((40, 25)).tolist()


def test_eval_plane_is_the_one_row_case_of_plane_rows(logs):
    """eval_plane gives plane_rows' row bit for bit, and raises
    OutOfDomainError outside the box and DisconnectedDomainError where no
    anchor reaches (the pole)."""
    direct, _ = logs
    px, py = np.array([0.5, -1.3, 2.9]), np.array([1.0, 2.2, -0.4])
    values, ok = direct.plane_rows(px, py)
    assert ok.all()
    for m in range(3):
        assert direct.eval_plane(px[m], py[m]).to_list() == values[m].tolist()
    with pytest.raises(OutOfDomainError, match="outside the cut plane box"):
        direct.eval_plane(100.0, 0.0)
    with pytest.raises(DisconnectedDomainError, match="no continuation anchor reaches"):
        direct.eval_plane(*direct.pole)


def test_the_anchor_walk_runs_one_crossing_test_per_pass_and_cut(cfg, monkeypatch):
    """On jump_heatmap's points, more than 1000 of which walk the anchor
    cells, one integral_rows call runs at most one segment_crossings call
    per anchor offset and cut polyline, each on all the points left: fewer
    calls than walking points, although the points on a cut, which no
    anchor reaches, walk all 81 offsets."""
    xs, ys = np.arange(-2.2, 0.2, 0.02), np.arange(0.8, 3.2, 0.02)
    px, py = np.repeat(xs, ys.size), np.tile(ys, xs.size)
    table = plane_log(cfg.axis, cfg)._table
    table.ensure_built()
    crossings, passes = [], []
    real_crossings, real_anchor = holomorphic.segment_crossings, _PlaneContinuation._anchor

    def spy_crossings(p, q, poly):
        crossings.append(len(p))
        return real_crossings(p, q, poly)

    def spy_anchor(self, w, rows, *args):
        passes.append(len(rows))
        return real_anchor(self, w, rows, *args)

    monkeypatch.setattr(holomorphic, "segment_crossings", spy_crossings)
    monkeypatch.setattr(_PlaneContinuation, "_anchor", spy_anchor)
    w, ok = table.integral_rows(px, py)
    walked = passes[1]  # the points the nearest cell left
    assert walked > 1000 and ok.sum() > 0.9 * len(px)
    assert len(crossings) <= (len(passes) - 1) * len(table.cuts) < walked


def test_the_anchor_walk_blocks_its_crossing_temporaries():
    """3000 points next to a cut of 4000 vertices all walk the anchor
    cells; their crossing tests run in blocks of at most _CUT_BLOCK rows
    times segments, so the traced peak stays near the table's own size
    (one unblocked test would hold 3000 x 3999 floats, 96 MB, per
    temporary)."""
    cut = np.column_stack([np.linspace(-3.0, 3.0, 4000), np.full(4000, 1.0)])
    table = _plain_log(cuts=[cut])._table
    table.ensure_built()
    rng = np.random.default_rng(11)
    px = rng.uniform(-2.9, 2.9, 3000)
    py = 1.0 + rng.choice([-1.0, 1.0], 3000) * rng.uniform(0.0, 0.06, 3000)
    tracemalloc.start()
    try:
        w, ok = table.integral_rows(px, py)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok.all()
    assert peak <= 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MB"
    for m in range(0, 3000, 300):
        assert w[m] == scalar_integral(table, px[m], py[m])


def test_integrate_reciprocal_matches_closed_form():
    val = integrate_reciprocal(complex(1, 0), complex(0, 1), complex(0, 0))
    exact = complex(0.0, math.pi / 2.0)  # log(i) - log(1)
    assert abs(val - exact) <= 1e-12


_point = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(lambda t: complex(*t))


@settings(max_examples=150, deadline=None)
@given(_point, _point, _point)
def test_integrate_reciprocal_matches_quadrature(z0, z1, pole):
    """The closed-form leg against adaptive quadrature of the parametrized
    integrand, for legs at least 5% of their length away from the pole."""
    d = z1 - z0
    t = min(1.0, max(0.0, ((pole - z0) / d).real)) if d else 0.0
    assume(abs(z0 + t * d - pole) >= max(0.05 * abs(d), 1e-6))

    def part(fn):
        return quad(lambda s: fn(d / (z0 + s * d - pole)), 0.0, 1.0,
                    epsabs=1e-13, epsrel=1e-13, limit=200)[0]

    val = integrate_reciprocal(z0, z1, pole)
    assert abs(val.real - part(lambda w: w.real)) <= 1e-10
    assert abs(val.imag - part(lambda w: w.imag)) <= 1e-10


@pytest.mark.parametrize("which", ["plain", "direct", "conj"])
def test_table_cells_exponentiate_to_the_ratio(which, logs):
    """Each finite table entry is a logarithm of (z - pole)/(base - pole)."""
    fn = (_plain_log(cuts=[np.array([[0.0, 0.0], [0.0, -4.5]])]) if which == "plain"
          else logs[which == "conj"])
    table = fn._table
    table.ensure_built()
    iy, ix = np.nonzero(np.isfinite(table._value))
    assert iy.size > 1000
    z = table._xs[ix] + 1j * table._ys[iy]
    ratio = (z - table.pole) / (complex(*table.base) - table.pole)
    err = np.abs(np.exp(table._value[iy, ix]) - ratio) / np.abs(ratio)
    assert err.max() <= 1e-12


@pytest.mark.parametrize("which", ["plain", "direct", "conj"])
def test_table_build_matches_the_level_loop_bit_for_bit(which, logs, monkeypatch):
    """_accumulate on flat cells sorted by level, with each level's edge
    logs computed in the level loop, gives the 2-D level loop's table bit
    for bit, on both counterexample tables and on a cut-free one."""
    fn = _plain_log() if which == "plain" else logs[which == "conj"]
    seen = {}
    real = _PlaneContinuation._accumulate

    def spy(self, *args):
        value = real(self, *args)
        seen["args"], seen["value"] = args, value.copy()
        return value

    monkeypatch.setattr(_PlaneContinuation, "_accumulate", spy)
    table = _PlaneContinuation(fn.pole, fn.base, fn.cuts, fn.bbox, fn.step)
    table.ensure_built()
    want = level_loop_table(table.pole, *seen["args"])
    got = seen["value"]
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.isfinite(got).sum() > 1000
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


@pytest.mark.parametrize("which", ["direct", "conj"])
def test_table_values_match_the_whole_array_build_bit_for_bit(which, logs):
    """A built table's values, from edge logs computed one level at a time,
    equal bit for bit those of the build that computed every edge log in
    one array, on both counterexample tables."""
    table = logs[which == "conj"]._table
    table.ensure_built()
    want = whole_array_table(table)
    assert np.isfinite(want).sum() > 1000
    assert table._value.tobytes() == want.tobytes()


def test_a_counterexample_table_build_peaks_below_its_bound(cfg):
    """Building plane_log(axis)'s 200 x 200 table at step 0.05 holds the
    table (0.64 MB of values) and the BFS arrays, but only one level's
    parents and edge logs at a time: the traced peak stays at or below
    2.25 MB (3.5 MB when every edge was held at once)."""
    table = plane_log(cfg.axis, cfg)._table
    tracemalloc.start()
    try:
        table.ensure_built()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table._value.shape == (200, 200)
    assert peak <= 2.25 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MB"


def test_slice_mismatch_raises(logs):
    direct, _ = logs
    with pytest.raises(OutOfDomainError):
        direct.eval(SliceCoord(1.0, 2.0, UNIT_J))


def test_stem_restriction_roundtrip(ball):
    stem = regular_ext(PowerSeries((Q(0), Q(0), Q(1))).on_slice(UNIT_I), ball)
    c = SliceCoord(0.3, 0.4, UNIT_J)
    bq, cq = stem_at(stem, 0.3, 0.4)
    expect = bq + UNIT_J.as_quaternion() * cq
    assert stem.eval(c).isclose(expect, atol=0.0)


_ROWS_CFG = CounterexampleConfig()
_ROWS_FUNCTIONS = {
    "series": PowerSeries((Q(0.2, 0.1, 0, 0), Q(0, 1, 0.3, 0), Q(0.5, 0, 0, -0.4)),
                          radius=2.5),
    "family": BranchedLogFamily(_ROWS_CFG),
    "continued": plane_log(UNIT_I, _ROWS_CFG),
}


@st.composite
def _row_points(draw):
    """(x, y) of mixed kinds: anywhere, outside the box, at the pole, within
    1e-6 of an arc, of the half line or of its chord, inside the lens."""
    where = draw(st.sampled_from(["any", "outside", "pole", "arc", "line", "lens"]))
    d = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-9.0, -6.0))
    if where == "any":
        return draw(st.floats(-5.0, 5.0)), draw(st.floats(1e-6, 5.0))
    if where == "outside":
        return draw(st.sampled_from([(-6.0, 1.0), (5.5, 2.0), (1.0, 5.5)]))
    if where == "pole":
        return draw(st.sampled_from([(0.0, 2.0), (d, 2.0)]))
    if where == "line":
        return draw(st.floats(-5.0, 0.0)), 2.0 + d
    if where == "lens":
        return draw(st.floats(-1.9, -0.1)), draw(st.floats(1.1, 2.9))
    J = UnitImaginary(*draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)
                            .filter(lambda v: np.linalg.norm(v) > 0.1)))
    arc = arc_coords(J, _ROWS_CFG)
    px, py = arc[draw(st.integers(0, len(arc) - 1))]
    return float(px + d), abs(float(py + d))


@st.composite
def _row_cases(draw):
    """(f, x (n,), y (n,), vectors (n, 3)): runs of rows at one point with
    different units, among them the reference axis and its antipode."""
    f = _ROWS_FUNCTIONS[draw(st.sampled_from(sorted(_ROWS_FUNCTIONS)))]
    unit = st.one_of(st.sampled_from([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)]),
                     st.tuples(*[st.floats(-1.0, 1.0)] * 3)
                     .filter(lambda v: np.linalg.norm(v) > 0.1))
    xs, ys, vecs = [], [], []
    for x, y in draw(st.lists(_row_points(), min_size=1, max_size=6)):
        for v in draw(st.lists(unit, min_size=1, max_size=3)):
            xs.append(x)
            ys.append(y)
            vecs.append(UnitImaginary(*v).to_list())
    return f, np.array(xs), np.array(ys), np.array(vecs)


@settings(max_examples=200, deadline=None)
@given(_row_cases())
def test_eval_rows_matches_eval_units_per_point(case):
    """eval_rows on rows of mixed (x, y) equals eval_rows at one point per
    call, NaN positions and ok included: PowerSeries (Horner on rows),
    BranchedLogFamily (per-point terms once per run of rows) and a
    ContinuedLog (one table query per row)."""
    f, x, y, vectors = case
    values, ok = f.eval_rows(x, y, vectors)
    want = [f.eval_rows(float(px), float(py), v[None]) for px, py, v in zip(x, y, vectors)]
    assert np.array_equal(values, np.concatenate([w[0] for w in want]), equal_nan=True)
    assert np.array_equal(ok, np.concatenate([w[1] for w in want]))


# stems of regular_ext and extend_to_completion; the completion's stem is
# undefined below the axis, so a stencil that crosses it must be written
# canonically
_DBAR_FUNCTIONS = {
    **_ROWS_FUNCTIONS,
    "regular": regular_ext(_ROWS_FUNCTIONS["series"].on_slice(UNIT_I), ball_spec(0.0, 1.0)),
    "completion": extend_to_completion(
        _ROWS_FUNCTIONS["family"], _ROWS_FUNCTIONS["family"].domain, SphereSample(4),
        [[0.5, 0.5]], force=True)[0],
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_DBAR_FUNCTIONS)),
       st.one_of(_row_points(), st.tuples(st.floats(-2.0, 2.0),
                                          st.sampled_from([0.0, 5e-4, 1e-3, 2e-3]))),
       st.one_of(st.sampled_from([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)]),
                 st.tuples(*[st.floats(-1.0, 1.0)] * 3)
                 .filter(lambda v: np.linalg.norm(v) > 0.1)),
       st.sampled_from([1e-3, 1e-4]))
def test_dbar_residual_matches_four_evals(name, point, v, h):
    """dbar_residual's one eval_rows call on the stencil equals the oracle's
    four eval calls exactly (==), stencils that cross or touch the real
    axis included, and raises StencilError where the oracle raises."""
    f = _DBAR_FUNCTIONS[name]
    coord = SliceCoord(point[0], point[1], UnitImaginary(*v))
    try:
        want = dbar_four_evals(f, coord, h)
    except SliceRegError:
        with pytest.raises(StencilError):
            dbar_residual(f, coord, h)
        return
    assert dbar_residual(f, coord, h) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_DBAR_FUNCTIONS)),
       st.lists(st.tuples(st.one_of(_row_points(), st.tuples(
           st.floats(-2.0, 2.0), st.sampled_from([0.0, 5e-4, 1e-3, 2e-3]))),
           st.sampled_from([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.3, -0.5, 0.8)])),
           min_size=1, max_size=8),
       st.sampled_from([1e-3, 1e-4]))
def test_dbar_residual_rows_are_the_one_row_cases(name, rows, h):
    """dbar_residual_rows over many points, in one eval_rows call, equals
    dbar_residual at each point bit for bit; a point whose stencil leaves
    the domain has a NaN residual and the stencil point dbar_residual
    names is its first one that is not ok."""
    f = _DBAR_FUNCTIONS[name]
    points, units = zip(*rows)
    x, y = np.array(points).T
    v = np.array([UnitImaginary(*u).to_list() for u in units])
    res, ok = dbar_residual_rows(f, x, y, v, h)
    assert ok.shape == (len(x), 4)
    for k in range(len(x)):
        if y[k] == 0.0:
            continue  # dbar_residual takes a real point without its unit
        coord = SliceCoord(x[k], y[k], UnitImaginary(*v[k]))
        if ok[k].all():
            assert res[k] == dbar_residual(f, coord, h)
        else:
            assert math.isnan(res[k])
            m = int(np.argmin(ok[k]))
            sx, sy = (x[k] + h, x[k] - h, x[k], x[k])[m], (y[k], y[k], y[k] + h, y[k] - h)[m]
            with pytest.raises(StencilError, match=f"at \\({sx:g}, {sy:g}\\)"):
                dbar_residual(f, coord, h)


_JSON_LOG = load_holo_function(walk(
    {"variant": "continued-log", "pole": [0.5, -1.0], "base": [2.0, 1.0],
     "carrier": [0.0, 1.0, 1.0], "base_value": [0.5, -1.0, 0.25, 2.0],
     "cuts": [[[0.5, -1.0], [-1.0, -2.0], [-3.0, -2.5]], [[1.0, 3.0], [1.0, 0.5]]],
     "bbox": [-3.0, 3.0, -3.0, 3.0], "step": 0.1}, "function", "function"))
_QUERY_LOGS = {
    "axis": plane_log(UNIT_I, _ROWS_CFG),
    "axis-view": plane_log(UNIT_I, _ROWS_CFG).on_slice(-UNIT_I),
    "antipode": plane_log(-UNIT_I, _ROWS_CFG).on_slice(-UNIT_I),
    "json": _JSON_LOG,
}


@st.composite
def _query_rows(draw, fn):
    """One row (x, y, vector) for fn: a plane point within 1.25 h of a cut
    vertex or segment, near the pole, outside the box, on the real axis or
    anywhere, written with the carrier or its antipode (the point mirrored,
    as SliceCoord.make reads it), a unit within a 1e-9 chord of them, a
    multiple of the carrier or a unit off the plane."""
    h, pole = fn.step, fn._table.pole
    xlo, xhi, ylo, yhi = fn.bbox
    near = st.floats(-1.25 * h, 1.25 * h)
    where = draw(st.sampled_from(["cut", "pole", "outside", "real", "any"]))
    if where == "cut":
        cut = draw(st.sampled_from(fn.cuts))
        k = draw(st.integers(0, len(cut) - 2))
        a, b = cut[k], cut[k + 1]
        px, py = a + draw(st.floats(0.0, 1.0)) * (b - a) + (draw(near), draw(near))
    elif where == "pole":
        px, py = pole.real + draw(near) * 1e-3, pole.imag + draw(near) * 1e-3
    elif where == "outside":
        px, py = draw(st.sampled_from([(xlo - 0.5, 0.0), (xhi + 1e-9, 1.0), (0.0, yhi + h)]))
    elif where == "real":
        px, py = draw(st.floats(xlo, xhi)), draw(st.sampled_from([0.0, -0.0]))
    else:
        px, py = draw(st.floats(xlo, xhi)), draw(st.floats(ylo, yhi))
    c = np.array(fn.carrier.to_list())
    kind = draw(st.sampled_from(["carrier", "antipode", "close", "scaled", "off"]))
    if kind == "off":
        v = UnitImaginary(*draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)
                                .filter(lambda v: np.linalg.norm(v) > 0.1))).to_list()
    elif kind == "close":
        v = (c + draw(st.tuples(*[st.floats(-1e-10, 1e-10)] * 3))).tolist()
    else:
        v = (c * {"carrier": 1.0, "antipode": -1.0, "scaled": 3.0}[kind]).tolist()
    flip = -1.0 if kind == "antipode" else 1.0
    return float(px), flip * float(py), v


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_continued_log_rows_equal_the_per_row_scalar_queries(data):
    """ContinuedLog.eval_rows, whose rows are answered as arrays (nearest
    cells at once, then one pass per anchor offset over the rows left),
    equals the per-row scalar search it replaced bit for bit, values and
    ok."""
    name = data.draw(st.sampled_from(sorted(_QUERY_LOGS)))
    fn = _QUERY_LOGS[name]
    rows = data.draw(st.lists(_query_rows(fn), min_size=1, max_size=12))
    x, y, vectors = (np.array(a) for a in zip(*rows))
    values, ok = fn.eval_rows(x, y, vectors)
    want, want_ok = continued_log_rows(fn, x, y, vectors)
    assert ok.tolist() == want_ok.tolist()
    assert values.tobytes() == want.tobytes()
    event(f"{name}: {'no' if not ok.any() else 'all' if ok.all() else 'some'} rows ok")
