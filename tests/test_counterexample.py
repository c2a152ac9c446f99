import cmath
import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from slicereg import Quaternion, SliceCoord, SphereSample, UnitImaginary
from slicereg.counterexample import (ARC_CLEARANCE, BranchedLogFamily,
                                     CounterexampleConfig, arc_coords,
                                     demonstrate, intersection_grid,
                                     log_pair, omega_spec, pair_set_grid,
                                     plane_log, slice_cuts, t_of)
from slicereg.domains import PlanarRegionGrid, rasterize
from slicereg.raster import _block_cut_cells, _mirror, _points_to_polyline_dist
from slicereg.errors import OutOfDomainError, SliceRegError
from slicereg.extension import extension_formula, formula_stem, rep_coeffs
from slicereg.holomorphic import ContinuedLog, _PlaneContinuation, dbar_residual
from slicereg.quaternions import UNIT_I, UNIT_J, norm_rows, rotate_toward, slice_decompose

from conftest import random_unit
from helpers import arc_point, paint_labels, rep_eval

Q = Quaternion
TWO_PI = 2.0 * math.pi


def test_t_of_values(cfg):
    assert t_of(cfg.axis, cfg) == 0.0
    assert t_of(-cfg.axis, cfg) == 1.0  # |(-I) - I| = 2 >= 1
    ortho = UnitImaginary(0, 1, 0)
    assert t_of(ortho, cfg) == 1.0  # |J - I|^2 = 2 >= 1


def test_arc_endpoints_random_units(cfg):
    rng = np.random.default_rng(71)
    for _ in range(50):
        J = random_unit(rng)
        ends = {0.0: arc_point(J, 0.0, cfg), 0.5: arc_point(J, 0.5, cfg)}
        two_j = SliceCoord(0.0, 2.0, J).to_quaternion()
        other = SliceCoord(-2.0, 2.0, J).to_quaternion()
        # the endpoint set is {2J, -2+2J}; orientation puts t=0 at 2J
        assert ends[0.0].isclose(two_j, atol=1e-12)
        assert ends[0.5].isclose(other, atol=1e-12)


def test_arc_inside_closed_disk(cfg):
    rng = np.random.default_rng(73)
    for _ in range(50):
        J = random_unit(rng)
        for t in rng.uniform(0.0, 0.5, size=20):
            p = arc_point(J, float(t), cfg)
            c = slice_decompose(p)
            center = SliceCoord(-1.0, 2.0, c.unit if c.unit else J).to_quaternion()
            assert (p - center).norm() <= 1.0 + 1e-12


def test_arc_shapes_at_extremes(cfg):
    # reference unit: upper half circle; far units: lower half circle
    up = arc_coords(cfg.axis, cfg)
    assert (up[:, 1] >= 2.0 - 1e-12).all()
    down = arc_coords(-cfg.axis, cfg)
    assert (down[:, 1] <= 2.0 + 1e-12).all()
    assert down[:, 1].min() >= 1.0 - 1e-12  # stays in the upper half plane


def test_membership_examples(omega, cfg):
    rng = np.random.default_rng(79)
    for _ in range(20):
        assert omega.contains(3.0, 1.0, random_unit(rng))
    # on the half line
    assert not omega.contains(-5.0, 2.0, cfg.axis)
    assert omega.contains(-1.0, 2.9, cfg.axis)
    # the top of the circle lies on the arc of the reference slice
    assert not omega.contains(-1.0, 3.0, cfg.axis)
    # but other slices are open there
    assert omega.contains(-1.0, 3.0, UnitImaginary(0, 0, 1))


def test_membership_open_along_non_cut_points(omega, cfg):
    rng = np.random.default_rng(83)
    for _ in range(50):
        x = rng.uniform(-4, 4)
        y = rng.uniform(0.05, 4)
        J = random_unit(rng)
        if not omega.contains(x, y, J):
            continue
        for dx, dy in ((1e-6, 0), (0, 1e-6), (-1e-6, 0), (0, -1e-6)):
            assert omega.contains(x + dx, y + dy, J)


def test_log_values(logs):
    # both logarithms restrict to ln on the ray x + 2*axis, x > 0
    direct, conj = logs
    assert (direct.eval(SliceCoord(math.e, 2.0, UNIT_I)) - Q(1.0)).norm() <= 1e-9
    assert (conj.eval_plane(math.e, 2.0) - Q(1.0)).norm() <= 1e-9
    assert (direct.eval(SliceCoord(1.0, 2.0, UNIT_I))).norm() <= 1e-9


def test_logs_coincide_outside_disks(logs):
    direct, conj = logs
    rng = np.random.default_rng(89)
    checked = 0
    while checked < 40:
        x = rng.uniform(-4.5, 4.5)
        y = rng.uniform(-4.5, 4.5)
        if math.hypot(x + 1, abs(y) - 2.0) < 1.1:
            continue
        if abs(abs(y) - 2.0) < 0.1 and x < -1.8:
            continue
        d = (direct.eval_plane(x, y) - conj.eval_plane(x, y)).norm()
        assert d <= 1e-9
        checked += 1


def test_logs_coincide_in_lower_disk(logs):
    direct, conj = logs
    rng = np.random.default_rng(97)
    for _ in range(30):
        rr = math.sqrt(rng.uniform(0, 0.85 ** 2))
        th = rng.uniform(0, TWO_PI)
        x, y = -1.0 + rr * math.cos(th), -2.0 + rr * math.sin(th)
        assert (direct.eval_plane(x, y) - conj.eval_plane(x, y)).norm() <= 1e-9


def test_log_jump_in_upper_disk(logs, cfg):
    direct, conj = logs
    d = direct.eval_plane(-1.0, 2.5) - conj.eval_plane(-1.0, 2.5)
    assert abs(d.norm() - TWO_PI) <= 1e-8
    # the jump is purely along the reference unit
    axis_part = d.x * cfg.axis.vx + d.y * cfg.axis.vy + d.z * cfg.axis.vz
    assert abs(abs(axis_part) - TWO_PI) <= 1e-8


def test_ordering_jump_on_disk_slice(logs, cfg):
    direct, conj = logs
    swapped_d = direct.on_slice(-cfg.axis)
    swapped_c = conj.on_slice(cfg.axis)
    t = SliceCoord(-1.0, 1.5, cfg.axis)
    f1 = extension_formula(direct, conj, t)
    f2 = extension_formula(swapped_d, swapped_c, t)
    diff = f1 - f2
    assert abs(diff.norm() - TWO_PI) <= 1e-8
    # 2 pi times the target's unit, up to sign
    assert min((diff - cfg.axis.as_quaternion() * TWO_PI).norm(),
               (diff + cfg.axis.as_quaternion() * TWO_PI).norm()) <= 1e-8


def test_orderings_agree_outside(logs, cfg):
    direct, conj = logs
    swapped_d = direct.on_slice(-cfg.axis)
    swapped_c = conj.on_slice(cfg.axis)
    rng = np.random.default_rng(101)
    points, units = [], []
    while len(points) < 30:
        x = rng.uniform(-4.5, 4.5)
        y = rng.uniform(0.05, 4.5)
        if math.hypot(x + 1, y - 2.0) < 1.1:
            continue
        if abs(y - 2.0) < 0.1 and x < -1.8:
            continue
        points.append((x, y))
        units.append(random_unit(rng).to_list())
    x, y = np.array(points).T
    f1, ok1 = formula_stem(direct, conj).eval_rows(x, y, units)
    f2, ok2 = formula_stem(swapped_d, swapped_c).eval_rows(x, y, units)
    assert (ok1 & ok2).all()
    assert norm_rows(f1 - f2).max() <= 1e-8


def test_family_restricts_to_direct_log(log_family, logs, cfg):
    direct, _ = logs
    rng = np.random.default_rng(103)
    checked = 0
    while checked < 25:
        x = rng.uniform(-4, 4)
        y = rng.uniform(0.05, 4)
        if abs(y - 2.0) < 0.08 and x < -1.8:
            continue
        t = SliceCoord(x, y, cfg.axis)
        try:
            a = log_family.eval(t)
            b = direct.eval(t)
        except Exception:
            continue
        assert (a - b).norm() <= 1e-9
        checked += 1


def test_family_slices_are_holomorphic(log_family, cfg):
    class Restriction:
        def __init__(self, fam, unit):
            self.fam = fam
            self.slice_unit = unit

        def eval_rows(self, x, y, vectors):
            return self.fam.eval_rows(x, y, vectors)

    rng = np.random.default_rng(107)
    for _ in range(6):
        W = random_unit(rng)
        x = rng.uniform(-2.0, 3.0)
        y = rng.uniform(0.3, 1.5)
        res = dbar_residual(Restriction(log_family, W),
                            SliceCoord(x, y, W), 1e-3)
        val = log_family.eval(SliceCoord(x, y, W)).norm()
        assert res <= 1e-6 * (1.0 + val)


def test_family_real_values_are_the_principal_log_everywhere():
    """On the real axis the family is Log(x - 2i) for every x, inside its
    box and past it: eval and eval_rows equal the scalar sum
    Log(x - 2i).real + axis * Log(x - 2i).imag bit for bit, zeros included."""
    for axis in (UNIT_I, UnitImaginary(0.0, -0.6, 0.8), UnitImaginary(-0.48, 0.6, -0.64)):
        family = BranchedLogFamily(CounterexampleConfig(axis=axis))
        xs = np.array([-7.0, -5.0, -1.0, 0.0, 0.5, 4.9, 6.0])
        values, ok = family.eval_rows(xs, 0.0, [[0.0, 0.0, -1.0]] * len(xs))
        assert ok.all()
        for x, row in zip(xs, values):
            w = cmath.log(complex(x, -2.0))
            want = np.array((Q(w.real) + axis.as_quaternion() * w.imag).to_list())
            got = np.array(family.eval(SliceCoord(float(x), 0.0, None)).to_list())
            assert got.tobytes() == want.tobytes() == row.tobytes()


def test_component_grids(cfg):
    tg = intersection_grid(cfg)
    n, _ = tg.label()
    assert n == 3
    pg = pair_set_grid(cfg)
    n2, _ = pg.label()
    assert n2 == 2


def test_cuts_describe_the_upper_half_slice(omega, cfg):
    """omega.cuts(J) lies in y >= 0, and the full raster blocks exactly the
    curves of slice_cuts(J): those of J and the mirrored ones of -J."""
    rng = np.random.default_rng(5)
    units = [cfg.axis, -cfg.axis, UNIT_J] + [random_unit(rng) for _ in range(3)]
    for J in units:
        assert all((np.asarray(p)[:, 1] >= 0.0).all() for p in omega.cuts(J))
        full = rasterize(omega, J, full_slice=True, h=0.05)
        plane = np.ones_like(full.occupied)
        _block_cut_cells(plane, full.xs, full.ys, slice_cuts(J, cfg), 0.05)
        assert np.array_equal(full.occupied, plane)


def _old_log(cfg, cuts, unit):
    """Oracle: the continued logarithm with explicitly given cuts and
    slice unit, built without plane_log."""
    return ContinuedLog(pole=(0.0, 2.0), base=(1.0, 2.0),
                        base_value=Q(0.0), cuts=tuple(cuts), carrier=cfg.axis,
                        slice_unit=unit, bbox=(-5.0, 5.0, -5.0, 5.0), step=0.05)


def _plane_points(rng, count):
    return [(float(rng.uniform(-4.8, 4.8)), float(rng.uniform(-4.8, 4.8)))
            for _ in range(count)]


def _same_values(new, old, points):
    checked = 0
    for x, y in points:
        try:
            want = old.eval_plane(x, y)
        except SliceRegError:
            with pytest.raises(SliceRegError):
                new.eval_plane(x, y)
            continue
        assert new.eval_plane(x, y).to_list() == want.to_list()
        checked += 1
    return checked


def test_log_pair_matches_per_side_construction(logs, cfg):
    """The conjugate log is the log of -axis viewed on -axis; as a cut set,
    slice_cuts(-axis) is the mirror image of slice_cuts(axis)."""
    direct, conj = logs
    axis = cfg.axis
    assert conj.slice_unit.approx(-axis) and conj.carrier.approx(axis)
    cuts = slice_cuts(axis, cfg)
    points = _plane_points(np.random.default_rng(113), 150)
    assert _same_values(direct, _old_log(cfg, cuts, axis), points) > 100
    assert _same_values(conj, _old_log(cfg, _mirror(cuts), -axis), points) > 100


# path-continued oracle tables, one per cut geometry (t_of(J), t_of(-J))
_ORACLE_TABLES: dict = {}


def _oracle_value(cfg, coord):
    """The family's value at coord from plane_log's continuation table."""
    J = coord.unit
    key = (t_of(J, cfg), t_of(-J, cfg))
    if key not in _ORACLE_TABLES:
        _ORACLE_TABLES[key] = plane_log(J, cfg)
    fn = _ORACLE_TABLES[key]
    b, c = rep_coeffs(fn.eval_plane(coord.x, coord.y),
                      fn.eval_plane(coord.x, -coord.y), cfg.axis, -cfg.axis)
    return rep_eval(b, c, J)


def _near_cut(cfg, coord) -> bool:
    """Whether (x, y) or (x, -y) lies within ARC_CLEARANCE of slice_cuts(J)."""
    return any(_points_to_polyline_dist([coord.x], [y], poly)[0] <= ARC_CLEARANCE
               for poly in slice_cuts(coord.unit, cfg) for y in (coord.y, -coord.y))


# units of eight cut geometries: both extremes, the degenerate arc
# (1 - 2T = 0 at chord 1/2) and weights on either side of it
_FAMILY_UNITS = [UNIT_I, -UNIT_I, UNIT_J] + [
    rotate_toward(UNIT_I, chord) for chord in (0.1, 0.4, 0.5, 0.6, 0.9)]
_CFG = CounterexampleConfig()


@st.composite
def _family_points(draw):
    """(x, y, J): uniform points around the bbox, points near the arc of J
    or of -J (the latter is the mirrored arc seen at (x, -y)), near the half
    line and the chord at height 2, exactly on that chord, and near the
    axis."""
    J = draw(st.sampled_from(_FAMILY_UNITS))
    kind = draw(st.sampled_from(["box", "arc", "arc", "line", "chord", "axis"]))
    if kind == "box":  # the bbox with a margin
        return draw(st.floats(-5.5, 5.5)), draw(st.floats(1e-9, 5.5)), J
    if kind == "axis":
        return draw(st.floats(-5.0, 5.0)), 10.0 ** draw(st.floats(-12.0, -1.0)), J
    if kind == "chord":
        return draw(st.floats(-2.0, 0.0)), 2.0, J
    d = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-7.0, -1.0))
    if kind == "line":
        return draw(st.floats(-5.0, 0.0)), 2.0 + d, J
    arc = arc_coords(draw(st.sampled_from([J, -J])), _CFG)
    x, y = arc[draw(st.integers(0, len(arc) - 1))]
    angle = draw(st.floats(0.0, TWO_PI))
    return float(x + d * math.cos(angle)), abs(float(y + d * math.sin(angle))), J


@settings(max_examples=300, deadline=None)
@given(_family_points())
def test_family_matches_continuation_tables(point):
    """The closed-form family raises exactly where the point lies within
    ARC_CLEARANCE of a cut (as omega_spec.contains treats it) or where the
    family built on plane_log's path continuation raises ("both raise");
    elsewhere the two agree within 1e-12."""
    x, y, J = point
    family = BranchedLogFamily(_CFG)
    coord = SliceCoord.make(x, y, J)
    if _near_cut(_CFG, coord):
        with pytest.raises(OutOfDomainError):
            family.eval(coord)
        event("family raises within ARC_CLEARANCE of a cut")
        return
    try:
        want = _oracle_value(_CFG, coord)
    except SliceRegError:
        with pytest.raises(SliceRegError):
            family.eval(coord)
        event("both raise")
        return
    assert (family.eval(coord) - want).norm() <= 1e-12
    event("compared")


@pytest.mark.parametrize("n, tables", [(8, 11), (32, 33)])
def test_family_builds_one_table_per_cut_geometry(cfg, n, tables):
    """The units of a sample fall into `tables` cut geometries; on every unit
    the family matches the one path-continued table of its geometry, and
    builds none itself."""
    family = BranchedLogFamily(cfg)
    before = dict(vars(family))
    oracles = {}
    for J in SphereSample(n, extra=[cfg.axis]).units:
        key = (t_of(J, cfg), t_of(-J, cfg))
        if key not in oracles:
            oracles[key] = plane_log(J, cfg)
        fn = oracles[key]
        b, c = rep_coeffs(fn.eval_plane(3.0, 1.0), fn.eval_plane(3.0, -1.0),
                          cfg.axis, -cfg.axis)
        got = family.eval(SliceCoord(3.0, 1.0, J))
        assert (got - rep_eval(b, c, J)).norm() <= 1e-12
    assert len(oracles) == tables
    assert vars(family) == before


def test_family_keeps_no_per_unit_state(cfg):
    """Evaluating on every unit of a sample leaves the family as it was: no
    per-unit or per-geometry container grows."""
    family = BranchedLogFamily(cfg)
    before = dict(vars(family))
    for J in SphereSample(64).units:
        family.eval(SliceCoord(3.0, 1.0, J))
        family.eval(SliceCoord(-1.0, 2.5, J))
    assert vars(family) == before
    assert not any(isinstance(v, (dict, list, set, tuple))
                   for v in vars(family).values())


_unit = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: math.hypot(*v) > 1e-3).map(lambda v: UnitImaginary(*v))


@settings(max_examples=200, deadline=None)
@given(_unit, _unit, st.floats(-5.0, 5.0), st.floats(1e-9, 5.0))
@example(axis=UnitImaginary(0.0, 1.0, 1e-6), J=UnitImaginary(0.0, 0.0, 1.0), x=0.0, y=1.0)
def test_family_stem_coefficients_match_rep_coeffs(axis, J, x, y):
    """eval's closed-form stem coefficients of the pair (axis, -axis) agree
    with the generic rep_coeffs within 1e-14, also for an axis that
    UnitImaginary leaves 1e-12 off unit norm."""
    family = BranchedLogFamily(CounterexampleConfig(axis=axis))
    coord = SliceCoord.make(x, y, J)
    try:
        got = family.eval(coord)
    except OutOfDomainError:
        return
    up, dn, _ = family._plane_logs(x, y, [J.to_list()])
    b, c = rep_coeffs(Q.from_list(up[0]), Q.from_list(dn), axis, -axis)
    assert (got - rep_eval(b, c, J)).norm() <= 1e-14


def test_demonstrate_bundle(cfg):
    sample = SphereSample(24, extra=[cfg.axis])
    report = demonstrate(cfg, sample=sample, seed=0)
    assert report["checks"]["slice_domain_yes"]
    assert report["intersection_components"] == 3
    assert report["pair_set_components"] == 2
    assert report["checks"]["jump_is_2pi"]
    assert report["checks"]["orderings_disagree_2pi"]
    assert report["checks"]["orderings_agree_outside"]
    assert report["checks"]["not_simple_with_antipodal_witness"]
    assert report["all_checks_pass"]
    # deterministic given the configuration
    again = demonstrate(cfg, sample=sample, seed=0)
    assert again == report


def test_demonstrate_passes_all_checks_for_ten_seeds():
    """The checks hold whichever points random.Random draws: at h = 0.02
    every check passes for seeds 0 to 9."""
    cfg = CounterexampleConfig(h=0.02)
    for seed in range(10):
        report = demonstrate(cfg, seed=seed)
        failed = [name for name, ok in report["checks"].items() if not ok]
        assert not failed, (seed, failed)


def test_demonstrate_queries_take_the_nearest_cell(cfg, monkeypatch):
    """Every continuation query of the evidence bundle at seed 1 is
    answered by its nearest cell, as arrays: the rows calls take more than
    1500 points, and neither a per-point eval_plane, the scalar
    integral_to nor the anchor search runs.  The query points depend on
    the seed only, so a small sample keeps the run short."""
    calls = {"integral_rows": 0, "integral_to": 0, "_anchored": 0, "eval_plane": 0}

    def counting(cls, name):
        real = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += len(args[1]) if name == "integral_rows" else 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        cls = ContinuedLog if name == "eval_plane" else _PlaneContinuation
        monkeypatch.setattr(cls, name, counting(cls, name))
    demonstrate(cfg, sample=SphereSample(4, extra=[cfg.axis]), seed=1)
    assert calls["integral_rows"] > 1500
    assert calls["integral_to"] == calls["_anchored"] == calls["eval_plane"] == 0


def test_demonstrate_paints_no_label_image(monkeypatch):
    """The evidence bundle reads its component counts and ids from the
    runs: PlanarRegionGrid.label is never called, and each id is the
    oracle-painted label of the nearest cell."""
    cfg = CounterexampleConfig(h=0.05)
    calls = []
    real = PlanarRegionGrid.label
    monkeypatch.setattr(PlanarRegionGrid, "label", lambda grid: calls.append(1) or real(grid))
    report = demonstrate(cfg, sample=SphereSample(8, extra=[cfg.axis]), seed=0)
    assert calls == []
    assert report["intersection_components"] == 3 and report["pair_set_components"] == 2

    def painted(grid, x, y):
        labels = paint_labels(grid.occupied)
        return int(labels[np.argmin(np.abs(grid.ys - y)), np.argmin(np.abs(grid.xs - x))])

    tgrid, pgrid = intersection_grid(cfg), pair_set_grid(cfg)
    assert report["intersection_component_ids"] == {
        "upper_disk": painted(tgrid, -1.0, 2.0), "lower_disk": painted(tgrid, -1.0, -2.0),
        "outside": painted(tgrid, 3.0, 0.0)}
    assert report["pair_set_component_ids"] == {
        "disk": painted(pgrid, -1.0, 2.0), "outer": painted(pgrid, 3.0, 1.0)}
    assert len(set(report["intersection_component_ids"].values())) == 3
