import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter, deque
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from slicereg import (Quaternion, SphereSample, UnitImaginary, ball_spec,
                      halfspace_spec, is_simple,
                      is_slice_convex, is_slice_domain, is_symmetric,
                      omega_jk_plus, rasterize, starlike_spec,
                      symmetric_completion)
from slicereg import counterexample, domains, raster
from slicereg.cli import main
from slicereg.domains import DomainSpec, PlanarRegionGrid, fibonacci_points
from slicereg.raster import (MAX_GRID_CELLS, _arange_len, _block_cut_cells,
                             _core, _core_hull, _first_cell_in_hull,
                             _grid_bfs, _grid_path, _half_step_rows,
                             _nearest_index, _points_to_polyline_dist,
                             resample_polyline)
from slicereg.specs import (TubeDomain, completion_of_slice, intersect_specs,
                            union_spec)
from slicereg.errors import PreconditionError
from slicereg.holomorphic import segment_crossings
from slicereg.quaternions import UNIT_I, UNIT_J
from slicereg.counterexample import (CounterexampleConfig, intersection_grid,
                                     omega_spec, pair_set_grid)

from conftest import random_unit
from helpers import (blocked_contains_rows, cut_probe_loop, paint_labels,
                     per_unit_is_simple, per_unit_is_slice_convex,
                     per_unit_is_slice_domain, scalar_contains)

Q = Quaternion


def test_fibonacci_sample_invariants():
    for n in (16, 32, 64, 128):
        sample = SphereSample(n)
        assert len(sample) == 2 * n
        norms = np.linalg.norm(sample.vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        # antipodes are exact
        for a, b in sample.antipodal_pairs():
            assert np.allclose(sample.vectors[a], -sample.vectors[b])
        assert sample.min_angle >= sample.MIN_ANGLE_COEFF / math.sqrt(2 * n)


@pytest.mark.parametrize("n", [2, 5, 27, 40])
def test_min_angle_blocks_match_one_dense_block(n, monkeypatch):
    """The row-blocked nearest-neighbour search gives the dense result bit
    for bit, wherever the block boundaries fall."""
    monkeypatch.setattr(SphereSample, "_MIN_ANGLE_ROWS", 4 * n)
    dense = SphereSample(n).min_angle
    for rows in (1, 2, 3, 7, 2 * n - 1):
        monkeypatch.setattr(SphereSample, "_MIN_ANGLE_ROWS", rows)
        assert SphereSample(n).min_angle == dense
    vecs = SphereSample(n).vectors
    angles = np.arccos(np.clip(vecs @ vecs.T, -1.0, 1.0))
    np.fill_diagonal(angles, np.inf)
    assert abs(dense - angles.min()) <= 1e-12


def test_sphere_sample_extra_units():
    axis = UnitImaginary(1, 0, 0)
    sample = SphereSample(16, extra=[axis])
    assert sample.base_count == 17
    assert any(u.approx(axis, 1e-15) for u in sample.units)
    assert any(u.approx(-axis, 1e-15) for u in sample.units)


def test_rasterize_half_disk_one_component(ball):
    grid = rasterize(ball, UNIT_I)
    n, _ = grid.label()
    assert n == 1


def test_rasterize_two_disks_two_components():
    spec = union_spec([ball_spec(-1.5, 0.4), ball_spec(1.5, 0.4)])
    grid = rasterize(spec, UNIT_I)
    n, _ = grid.label()
    assert n == 2


def test_empty_grid_zero_components():
    spec = ball_spec(10.0, 0.1, bbox=(-1.0, 1.0, 1.0))
    n, _ = rasterize(spec, UNIT_I).label()
    assert n == 0


def test_annulus_slit_once_still_one_component():
    def membership(x, y, jx, jy, jz):
        r = np.hypot(np.asarray(x), np.asarray(y))
        return (r > 0.5) & (r < 1.0)

    def real_trace(x):
        return (np.abs(np.asarray(x)) > 0.5) & (np.abs(np.asarray(x)) < 1.0)

    slit = [np.array([[0.0, 0.5], [0.0, 1.0]])]
    spec = DomainSpec(membership, real_trace, (-1.2, 1.2, 1.2), 0.01,
                      cuts=lambda J: slit if J.vx > 0 else [])
    n, _ = rasterize(spec, UNIT_I, full_slice=True).label()
    assert n == 1


def test_counterexample_slice_one_component_two_resolutions(omega, cfg):
    # flood-fill oracle at the finer step must agree
    for h in (0.01, 0.005):
        grid = rasterize(omega, cfg.axis, full_slice=True, h=h)
        n, _ = grid.label()
        assert n == 1


def test_intersection_three_components(cfg):
    grid = intersection_grid(cfg)
    n, _ = grid.label()
    assert n == 3


def test_slice_domain_ball(ball, sample16):
    assert is_slice_domain(ball, sample16).is_yes


def test_slice_domain_disconnected_witness():
    # the witness direction is seeded so the off-axis ball is actually seen
    witness_unit = UnitImaginary(1, 0, 0)
    sample = SphereSample(16, extra=[witness_unit])
    spec = union_spec([ball_spec(Q(0, 2, 0, 0), 0.5), ball_spec(0.0, 0.1)])
    verdict = is_slice_domain(spec, sample)
    assert verdict.value == "no"
    assert verdict.witness["reason"] == "disconnected slice"
    assert UnitImaginary.from_vector(verdict.witness["unit"]).approx(witness_unit)


def test_slice_domain_empty_trace(sample16):
    spec = ball_spec(Q(0, 2, 0, 0), 0.5)
    verdict = is_slice_domain(spec, sample16)
    assert verdict.value == "no"
    assert verdict.witness["reason"] == "empty real trace"


def test_counterexample_is_slice_domain(omega, sample64):
    assert is_slice_domain(omega, sample64).is_yes


def test_symmetric_ball_and_star(ball, star, sample16):
    assert is_symmetric(ball, sample16).is_yes
    assert is_symmetric(star, sample16).is_yes


def test_counterexample_not_symmetric(omega, sample16):
    verdict = is_symmetric(omega, sample16)
    assert verdict.value == "no"
    assert "units" in verdict.witness


def test_completion_of_symmetric_is_identity(ball, sample16):
    comp = symmetric_completion(ball, sample16)
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.uniform(-1.2, 1.2)
        y = rng.uniform(0.0, 1.2)
        J = random_unit(rng)
        assert comp.contains(x, y, J) == ball.contains(x, y, J)


def test_completion_is_symmetric_and_idempotent(omega, sample16):
    comp = symmetric_completion(omega, sample16)
    assert is_symmetric(comp, sample16).is_yes
    comp2 = symmetric_completion(comp, sample16)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.uniform(-4.5, 4.5)
        y = rng.uniform(0.0, 4.5)
        J = random_unit(rng)
        assert comp.contains(x, y, J) == comp2.contains(x, y, J)


def test_completion_covers_disk_spheres(omega, cfg, sample64):
    # a sphere through the disk component joins the completion entirely:
    # some sampled slice is unobstructed there
    comp = symmetric_completion(omega, sample64)
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = -1.0 + rng.uniform(-0.5, 0.5)
        y = 2.0 + rng.uniform(-0.5, 0.5)
        J = random_unit(rng)
        assert comp.contains(x, y, J)


def test_completion_excludes_half_line_spheres(omega, sample64):
    comp = symmetric_completion(omega, sample64)
    rng = np.random.default_rng(9)
    for _ in range(20):
        assert not comp.contains(rng.uniform(-4.5, -2.5), 2.0, random_unit(rng))


def test_omega_jk_ball_any_pair(ball, sample16):
    rng = np.random.default_rng(11)
    J, K = random_unit(rng), random_unit(rng)
    grid = omega_jk_plus(ball, J, K)
    n, _ = grid.label()
    assert n == 1


def test_omega_jk_counterexample_antipodal_pair(omega, cfg):
    for h in (0.01, 0.005):
        grid = omega_jk_plus(omega, cfg.axis, -cfg.axis, h=h)
        n, _ = grid.label()
        assert n == 2
        # one component is the open disk, the other the rest of the half plane
        assert grid.component_at(-1.0, 2.0) != grid.component_at(3.0, 1.0)


def test_omega_jk_same_unit_equals_slice(omega, cfg):
    grid_pair = omega_jk_plus(omega, cfg.axis, cfg.axis, h=0.02)
    grid_slice = rasterize(omega, cfg.axis, h=0.02)
    assert np.array_equal(grid_pair.occupied, grid_slice.occupied)


def test_omega_jk_subset_of_slice(omega, cfg, sample16):
    rng = np.random.default_rng(13)
    J, K = sample16.units[3], sample16.units[11]
    pair = omega_jk_plus(omega, J, K, h=0.02)
    slc = rasterize(omega, J, h=0.02)
    assert not (pair.occupied & ~slc.occupied).any()


def test_is_simple_ball(ball, sample16):
    assert is_simple(ball, sample16).is_yes


def test_is_simple_starlike(star, sample16):
    assert is_simple(star, sample16).is_yes


def test_counterexample_not_simple_antipodal_witness(omega, sample64):
    verdict = is_simple(omega, sample64, h=0.02)
    assert verdict.value == "no"
    assert verdict.witness["antipodal"]
    assert verdict.witness["components"] >= 2


def test_slice_convex_ball(ball, sample16):
    assert is_slice_convex(ball, sample16).is_yes


def _l_shape():
    lower = halfspace_spec((0.0, 1.0), 0.5, bbox=(-1.5, 1.5, 1.5))
    left = halfspace_spec((1.0, 0.0), -0.5, bbox=(-1.5, 1.5, 1.5))
    box = ball_spec(0.0, 1.4, bbox=(-1.5, 1.5, 1.5))
    return union_spec([intersect_specs(box, lower), intersect_specs(box, left)],
                      name="l-shape")


def test_slice_convex_l_shape(sample16):
    assert is_slice_convex(_l_shape(), sample16).value == "no"


def test_slice_convex_counterexample(omega, sample16):
    assert is_slice_convex(omega, sample16, h=0.02).value == "no"


def test_slice_convex_implies_simple(sample16):
    # convex test corpus: balls and half-space intersections
    specs = [ball_spec(0.0, 1.0), ball_spec(0.5, 0.8),
             intersect_specs(ball_spec(0.0, 1.0),
                             halfspace_spec((1.0, 0.0), 0.6,
                                            bbox=(-1.2, 1.2, 1.2)))]
    for spec in specs:
        assert is_slice_convex(spec, sample16).is_yes
        assert is_simple(spec, sample16).is_yes


_SAMPLE4 = SphereSample(4)
_halfspace = st.tuples(st.floats(0.0, math.pi), st.floats(-0.5, 1.0))


@settings(max_examples=25, deadline=None)
@given(st.tuples(*[st.floats(-0.5, 0.5)] * 4), st.floats(0.3, 1.0),
       st.lists(_halfspace, max_size=3))
def test_slice_convex_accepts_balls_cut_by_halfspaces(center, radius, halfspaces):
    """The full slice of {a x + b y < c} is {a x + b|y| < c}, convex for
    b >= 0, so these intersections are convex and must pass."""
    spec = ball_spec(Q(*center), radius, h=0.05)
    for angle, offset in halfspaces:
        spec = intersect_specs(spec, halfspace_spec(
            (math.cos(angle), math.sin(angle)), offset, h=0.05))
    assert is_slice_convex(spec, _SAMPLE4, h=0.05).is_yes


def test_slice_convex_collinear_core_is_tested():
    # two three-row slabs on the real axis: each core is one row, so both
    # cores lie on one line and have no 2D hull
    def slab(side):
        return intersect_specs(halfspace_spec((0.0, 1.0), 0.02, bbox=(-1, 1, 0.5)),
                               halfspace_spec((side, 0.0), -0.2, bbox=(-1, 1, 0.5)))

    verdict = is_slice_convex(union_spec([slab(1.0), slab(-1.0)]), _SAMPLE4, h=0.02)
    assert verdict.value == "no"
    assert -0.2 < verdict.witness["cell"][0] < 0.2
    assert len(verdict.witness["segment"]) == 2


@pytest.mark.parametrize("spec", [
    _l_shape(), union_spec([ball_spec(-0.5, 0.5), ball_spec(0.5, 0.5)])],
    ids=["l-shape", "touching-balls"])
def test_slice_convex_witness_is_an_empty_cell_in_a_core_triangle(spec, sample16):
    witness = is_slice_convex(spec, sample16).witness
    J = next(u for u in sample16.units
             if u.approx(UnitImaginary.from_vector(witness["unit"]), 1e-12))
    grid = rasterize(spec, J, full_slice=True)

    def cell(point):
        ix = int(np.argmin(np.abs(grid.xs - point[0])))
        iy = int(np.argmin(np.abs(grid.ys - point[1])))
        assert abs(grid.xs[ix] - point[0]) < 1e-9 and abs(grid.ys[iy] - point[1]) < 1e-9
        return iy, ix

    assert not grid.occupied[cell(witness["cell"])]
    for corner in witness["triangle"]:
        iy, ix = cell(corner)
        assert grid.occupied[iy - 1:iy + 2, ix - 1:ix + 2].all()
    a, b, c = np.asarray(witness["triangle"])
    weights = np.linalg.solve(np.column_stack([b - a, c - a]),
                              np.asarray(witness["cell"]) - a)
    assert weights.min() >= -1e-12 and weights.sum() <= 1.0 + 1e-12


def test_cli_import_leaves_scipy_spatial_unloaded():
    import slicereg
    env = dict(os.environ, PYTHONPATH=str(Path(slicereg.__file__).parents[1]))
    code = "import sys, slicereg.cli; print('scipy.spatial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_pair_set_is_the_and_of_the_two_slice_rasters(omega, sample16):
    # is_simple ANDs cached per-unit rasters; each raster blocks its own
    # unit's cuts, so the AND carries both cut sets
    units = sample16.units
    for a, b in ((0, 1), (0, 16), (3, 20), (7, 30), (12, 17)):
        J, K = units[a], units[b]
        both = rasterize(omega, J, h=0.02).occupied & rasterize(omega, K, h=0.02).occupied
        assert np.array_equal(both, omega_jk_plus(omega, J, K, h=0.02).occupied)


def test_open_set_spot_check(ball, omega, cfg):
    rng = np.random.default_rng(17)
    for spec, box in ((ball, (-0.9, 0.9, 0.9)), (omega, (-4, 4, 4))):
        hits = 0
        for _ in range(200):
            x = rng.uniform(box[0], box[1])
            y = rng.uniform(0.01, box[2])
            J = random_unit(rng)
            if not spec.contains(x, y, J):
                continue
            hits += 1
            for dx, dy in ((1e-7, 0), (-1e-7, 0), (0, 1e-7), (0, -1e-7)):
                if y + dy <= 0:
                    continue
                assert spec.contains(x + dx, y + dy, J)
            if hits > 40:
                break


def test_resolution_stability_of_verdicts(ball, omega, cfg, sample16):
    for h in (0.02, 0.01):
        assert is_simple(ball, sample16, h=h).is_yes
        v = is_simple(omega, sample16, h=h)
        assert v.value == "no" and v.witness["antipodal"]


def _resample_by_point(points, max_step):
    """Per-point oracle of resample_polyline."""
    pts = np.asarray(points, dtype=float)
    out = [pts[0]]
    for a, b in zip(pts[:-1], pts[1:]):
        seg = b - a
        n = max(1, int(math.ceil(np.hypot(*seg) / max_step)))
        for k in range(1, n + 1):
            out.append(a + seg * (k / n))
    return np.asarray(out)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
                min_size=1, max_size=12),
       st.floats(0.005, 3.0))
def test_resample_polyline_matches_per_point_oracle(points, max_step):
    assert np.array_equal(resample_polyline(points, max_step),
                          _resample_by_point(points, max_step))


_H = 0.1
_XS = np.arange(-1.0 + _H / 2.0, 1.0, _H)
_YS_UP = np.arange(_H / 2.0, 1.0, _H)
# the full-slice rows put the axis row h/2 from its neighbours
_ROWS = {"uniform": _XS,
         "full-slice": np.concatenate([-_YS_UP[::-1], [0.0], _YS_UP])}
_coord = st.floats(-1.3, 1.3, allow_nan=False)
_polyline = st.lists(st.tuples(_coord, _coord), min_size=2, max_size=6)


@pytest.mark.parametrize("points", [[[0, 0], [1e300, 1e300]], [[0, 0], [math.inf, 0]],
                                    [[0, 0], [1, 1], [math.nan, 0]],
                                    [[-1.7e308, 0], [1.7e308, 0]], [[0, 0], [1e7, 0]]])
def test_resample_polyline_refuses_far_or_non_finite_vertices(points):
    """A segment whose h/2 samples would number more than MAX_GRID_CELLS,
    or whose length is not finite, raises before anything is allocated
    and without numpy warnings; such a segment used to keep one sample."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="needs .* points, more than the budget"):
            resample_polyline(points, 0.1)


@settings(max_examples=80, deadline=None)
@given(st.lists(_polyline, min_size=1, max_size=2), st.sampled_from(sorted(_ROWS)))
def test_cut_barrier_never_leaks(polylines, rows):
    """No 4-connected step between two free cells meets a cut curve."""
    ys = _ROWS[rows]
    polys = [np.asarray(p, dtype=float) for p in polylines]
    free = np.ones((ys.size, _XS.size), dtype=bool)
    _block_cut_cells(free, _XS, ys, polys, _H)
    steps = [(r, c, r, c + 1) for r, c in np.argwhere(free[:, :-1] & free[:, 1:])]
    steps += [(r, c, r + 1, c) for r, c in np.argwhere(free[:-1, :] & free[1:, :])]
    for poly in polys:
        lo, hi = poly.min(axis=0) - _H, poly.max(axis=0) + _H
        for r0, c0, r1, c1 in steps:
            p, q = (_XS[c0], ys[r0]), (_XS[c1], ys[r1])
            if not (lo[0] <= p[0] <= hi[0] and lo[1] <= p[1] <= hi[1]):
                continue
            assert segment_crossings(p, q, poly) == 0, (p, q)


def _block_by_polyline(occupied, xs, ys, polylines, h):
    """Oracle: the cut rule one polyline and one 3x3 offset at a time."""
    ny, nx = occupied.shape
    for poly in polylines:
        pts = resample_polyline(poly, h / 2.0)
        ix = _nearest_index(xs, pts[:, 0])
        iy = _nearest_index(ys, pts[:, 1])
        near = (np.abs(xs[ix] - pts[:, 0]) <= 0.75 * h) & (np.abs(ys[iy] - pts[:, 1]) <= 0.75 * h)
        ix, iy = ix[near], iy[near]
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                occupied[np.clip(iy + dy, 0, ny - 1), np.clip(ix + dx, 0, nx - 1)] = False


# centres, midpoints between centres (exact ties) and points past the edge
_MIDPOINTS = sorted({float(v) for c in _ROWS.values() for v in (c[:-1] + c[1:]) / 2.0})
_cut_coord = st.one_of(_coord, st.sampled_from(_MIDPOINTS + list(_XS)),
                       st.sampled_from([-1.2, -1.05, -1.0, 1.0, 1.05, 1.2]))
_cut_polyline = st.lists(st.tuples(_cut_coord, _cut_coord), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(_cut_polyline, min_size=0, max_size=4), st.sampled_from(sorted(_ROWS)),
       st.booleans(), st.booleans())
def test_block_cut_cells_matches_per_polyline_oracle(polylines, rows, mirrored, occupied):
    """One indexed write blocks exactly the cells of the per-polyline loop,
    with samples past the grid's edge, on midpoint ties and on mirrored cuts."""
    ys = _ROWS[rows]
    polys = [np.asarray(p, dtype=float) for p in polylines]
    if mirrored:
        polys += raster._mirror(polys)
    start = np.ones((ys.size, _XS.size), dtype=bool)
    if not occupied:
        start[::3, ::2] = False
    got, want = start.copy(), start.copy()
    _block_cut_cells(got, _XS, ys, polys, _H)
    _block_by_polyline(want, _XS, ys, polys, _H)
    assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(st.floats(-10.0, 10.0), st.floats(0.0, 20.0), st.floats(1e-3, 2.0))
def test_arange_len_is_the_numpy_length(lo, span, h):
    """The cell counts the budget checks are the lengths np.arange gives."""
    assert _arange_len(lo, lo + span, h) == len(np.arange(lo, lo + span, h))


def test_cell_budget_refuses_oversized_rasters(ball, omega):
    """rasterize and is_slice_domain refuse a grid over MAX_GRID_CELLS before
    allocating it; the 4.0e6-cell full slice of the counterexample at
    h = 0.005 is within the budget."""
    for call in (lambda: rasterize(ball, UNIT_I, h=1e-4),
                 lambda: rasterize(omega, UNIT_I, full_slice=True, h=1e-3),
                 lambda: is_slice_domain(ball, SphereSample(4), h=1e-4)):
        with pytest.raises(PreconditionError, match="budget"):
            call()
    x_min, x_max, y_max = omega.bbox
    rows = 2 * _arange_len(0.0025, y_max, 0.005) + 1
    assert 4.0e6 <= rows * _arange_len(x_min + 0.0025, x_max, 0.005) <= MAX_GRID_CELLS


def _queue_bfs(free, start):
    dist = np.full(free.shape, -1)
    dist[start] = 0
    queue = deque([start])
    while queue:
        r, c = queue.popleft()
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= rr < free.shape[0] and 0 <= cc < free.shape[1] \
                    and free[rr, cc] and dist[rr, cc] < 0:
                dist[rr, cc] = dist[r, c] + 1
                queue.append((rr, cc))
    return dist


def test_grid_bfs_matches_queue_oracle():
    rng = np.random.default_rng(23)
    for _ in range(80):
        shape = tuple(int(n) for n in rng.integers(1, 12, size=2))
        free = rng.random(shape) < rng.uniform(0.4, 0.9)
        cells = np.argwhere(free)
        if cells.size == 0:
            continue
        start = tuple(int(v) for v in cells[rng.integers(len(cells))])
        dist, _ = _grid_bfs(free, start)
        want = _queue_bfs(free, start)
        assert np.array_equal(dist, want)

        targets = rng.random(shape) < 0.1
        path = _grid_path(free, start, targets)
        reachable = targets & (want >= 0)
        if not reachable.any():
            assert path is None
            continue
        assert path[0] == start and targets[path[-1]]
        assert len(path) == want[reachable].min() + 1
        assert all(free[cell] for cell in path)
        for (r0, c0), (r1, c1) in zip(path, path[1:]):
            assert abs(r0 - r1) + abs(c0 - c1) == 1


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (7, 11)])
def test_grid_bfs_from_the_border_matches_queue_oracle(shape):
    """Starts and targets on the first and last row and column, where every
    step of the padded search meets the blocked ring."""
    ny, nx = shape
    rng = np.random.default_rng(41)
    border = dict.fromkeys([(0, 0), (0, nx - 1), (ny - 1, 0), (ny - 1, nx - 1),
                            (0, nx // 2), (ny - 1, nx // 2), (ny // 2, 0), (ny // 2, nx - 1)])
    edges = [np.zeros(shape, bool) for _ in range(4)]
    for mask, index in zip(edges, [(0, slice(None)), (-1, slice(None)),
                                   (slice(None), 0), (slice(None), -1)]):
        mask[index] = True
    for start in border:
        for free in (np.ones(shape, bool), rng.random(shape) < 0.7):
            free[start] = True
            want = _queue_bfs(free, start)
            dist, step = _grid_bfs(free, start)
            assert np.array_equal(dist, want)
            assert np.array_equal(step, _level_scan_bfs(free, start)[1])
            for targets in edges:
                targets = targets & (want != 0)
                path = _grid_path(free, start, targets)
                reachable = targets & (want >= 0)
                if not reachable.any():
                    assert path is None
                    continue
                first = tuple(int(v) for v in np.argwhere(
                    reachable & (want == want[reachable].min()))[0])
                assert path[0] == start and path[-1] == first
                assert len(path) == want[first] + 1
                assert all(free[cell] for cell in path)
                for (r0, c0), (r1, c1) in zip(path, path[1:]):
                    assert abs(r0 - r1) + abs(c0 - c1) == 1


def _level_scan_bfs(free, start, targets=None):
    """Oracle: the BFS as full-grid mask scans, one per level and step."""
    dist = np.full(free.shape, -1, dtype=np.int32)
    step = np.full(free.shape, -1, dtype=np.int8)
    dist[start] = 0
    frontier = np.zeros_like(free)
    frontier[start] = True
    level = 0
    while frontier.any():
        if targets is not None and (frontier & targets).any():
            break
        newly = np.zeros_like(free)
        for code, (dy, dx) in enumerate(raster._GRID_STEPS):
            cand = np.zeros_like(free)
            if dy == -1:
                cand[:-1, :] = frontier[1:, :]
            elif dy == 1:
                cand[1:, :] = frontier[:-1, :]
            elif dx == -1:
                cand[:, :-1] = frontier[:, 1:]
            else:
                cand[:, 1:] = frontier[:, :-1]
            cand &= free & (dist < 0) & ~newly
            step[cand] = code
            newly |= cand
        level += 1
        dist[newly] = level
        frontier = newly
    return dist, step


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 24), st.integers(1, 24), st.floats(0.3, 1.0),
       st.booleans(), st.data())
def test_grid_bfs_matches_level_scan(rows, cols, density, with_targets, data):
    """The frontier BFS gives the dist and step arrays of the level scan,
    the first step in _GRID_STEPS order claiming each cell, with and
    without a targets mask."""
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    free = rng.random((rows, cols)) < density
    start = (data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1)))
    targets = rng.random((rows, cols)) < 0.05 if with_targets else None
    dist, step = _grid_bfs(free, start, targets)
    want_dist, want_step = _level_scan_bfs(free, start, targets)
    assert dist.dtype == want_dist.dtype and step.dtype == want_step.dtype
    assert np.array_equal(dist, want_dist)
    assert np.array_equal(step, want_step)


# ---------------------------------------------------------------------------
# one raster per slice plane
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=12, unique=True),
       st.sampled_from([0.25, 0.1, 0.01]), st.booleans(), st.data())
def test_nearest_index_mirrors_on_symmetric_centres(steps, h, with_zero, data):
    """Centres k h - h/2 or k h put cut points midway between two rows; a
    tie must go to the centre farther from 0 for -v to mirror v."""
    pos = np.sort([(k - 0.5) * h for k in steps])
    c = np.concatenate([-pos[::-1], [0.0] if with_zero else [], pos])
    v = data.draw(st.one_of(
        st.floats(-2.0 * c[-1], 2.0 * c[-1]),
        st.sampled_from(list((c[:-1] + c[1:]) / 2.0)) if c.size > 1 else st.nothing(),
        st.sampled_from(list(c))))
    if v == 0.0 and not with_zero:
        return  # a tie between -a and a: no centre is farther from 0
    i = int(_nearest_index(c, v))
    assert int(_nearest_index(c, -v)) == c.size - 1 - i
    gaps = np.abs(c - v)
    assert gaps[i] == gaps.min()
    if np.count_nonzero(gaps == gaps.min()) > 1:
        assert abs(c[i]) == np.abs(c[gaps == gaps.min()]).max()


# (spec, h) of the one-raster-per-plane tests, on _SAMPLE16_I
_PLANE_CORPUS = {
    "ball": (ball_spec(0.0, 1.0), 0.05),
    "starlike": (starlike_spec(0.5), 0.05),
    "l-shape": (_l_shape(), 0.02),
    "touching-balls": (union_spec([ball_spec(-0.5, 0.5), ball_spec(0.5, 0.5)]), 0.02),
    "off-axis-ball": (union_spec([ball_spec(Q(0, 2, 0, 0), 0.5), ball_spec(0.0, 0.1)]), 0.02),
    "counterexample-h0.05": (omega_spec(CounterexampleConfig()), 0.05),
    "counterexample-h0.25": (omega_spec(CounterexampleConfig()), 0.25),
}
_SAMPLE16_I = SphereSample(16, extra=[UNIT_I])


@pytest.mark.parametrize("name", sorted(_PLANE_CORPUS))
def test_full_slice_of_antipode_is_the_row_flip(name):
    spec, h = _PLANE_CORPUS[name]
    units = _SAMPLE16_I.units
    for m, mm in _SAMPLE16_I.antipodal_pairs():
        grid = rasterize(spec, units[m], full_slice=True, h=h)
        flip = rasterize(spec, units[mm], full_slice=True, h=h)
        assert np.array_equal(flip.ys, -grid.ys[::-1])
        assert np.array_equal(flip.occupied, grid.occupied[::-1]), m


@pytest.mark.parametrize("name", sorted(_PLANE_CORPUS))
def test_plane_loops_match_all_units_loops(name):
    """The verdicts equal those of loops over every unit: the oracle is the
    sample with every unit counted as a base unit."""
    spec, h = _PLANE_CORPUS[name]
    all_units = SimpleNamespace(units=_SAMPLE16_I.units,
                                base_count=len(_SAMPLE16_I.units),
                                n_requested=_SAMPLE16_I.n_requested)
    for verdict in (is_slice_domain, is_slice_convex):
        assert verdict(spec, _SAMPLE16_I, h=h) == verdict(spec, all_units, h=h)


def test_verdicts_rasterize_each_plane_once(ball, sample16, cfg, monkeypatch):
    """Each plane is rasterized once; a slicewise spec without cuts, the
    ball, has one raster key, so its first plane stands for all."""
    calls = []
    real = domains.rasterize

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(domains, "rasterize", counting)
    monkeypatch.setattr(counterexample, "rasterize", counting)
    base = sample16.units[:sample16.base_count]
    for verdict in (is_slice_domain, is_slice_convex):
        for spec, planes in ((replace(ball, slicewise=False), base), (ball, base[:1])):
            calls.clear()
            assert verdict(spec, sample16, h=0.05).is_yes
            assert calls == planes
    calls.clear()
    intersection_grid(cfg, h=0.05)
    assert calls == [cfg.axis]


def _count_component_counts(monkeypatch) -> list:
    calls = []
    real = PlanarRegionGrid.component_count

    def counting(grid):
        calls.append(grid.occupancy_digest())
        return real(grid)

    monkeypatch.setattr(PlanarRegionGrid, "component_count", counting)
    return calls


@pytest.mark.parametrize("which", ["counterexample", "ball"])
def test_slice_domain_labels_each_distinct_slice_once(which, cfg, ball, monkeypatch):
    """is_slice_domain counts components once per distinct full-slice
    raster; every slice of the ball is the same disk."""
    spec, sample = ((omega_spec(cfg), SphereSample(64, extra=[cfg.axis]))
                    if which == "counterexample" else (ball, SphereSample(16)))
    base = sample.units[:sample.base_count]
    distinct = {rasterize(spec, J, full_slice=True, h=0.05).occupancy_digest() for J in base}
    calls = _count_component_counts(monkeypatch)
    assert is_slice_domain(spec, sample, h=0.05).is_yes
    assert sorted(calls) == sorted(distinct)
    if which == "ball":
        assert len(calls) == 1
    else:
        assert len(calls) < len(base)


@pytest.mark.parametrize("name", sorted(_PLANE_CORPUS))
def test_verdicts_do_not_depend_on_the_digest_cache(name, monkeypatch):
    """With a digest unique to each grid every raster is labelled, and
    is_slice_domain and is_simple return the same verdicts as with the
    digest-keyed count."""
    spec, h = _PLANE_CORPUS[name]
    cached = [verdict(spec, _SAMPLE16_I, h=h) for verdict in (is_slice_domain, is_simple)]
    fresh = iter(range(10 ** 9))
    monkeypatch.setattr(PlanarRegionGrid, "occupancy_digest", lambda grid: str(next(fresh)))
    assert [verdict(spec, _SAMPLE16_I, h=h)
            for verdict in (is_slice_domain, is_simple)] == cached


@pytest.mark.parametrize("name", sorted(_PLANE_CORPUS))
def test_is_simple_matches_the_three_scan_oracle(name):
    spec, h = _PLANE_CORPUS[name]
    for step in (h, h / 2.0):
        assert is_simple(spec, _SAMPLE16_I, h=step) == \
            per_unit_is_simple(spec, _SAMPLE16_I, h=step), step


def test_is_simple_matches_the_three_scan_oracle_on_the_counterexample(omega, sample64):
    got = is_simple(omega, sample64, h=0.05)
    assert got.value == "no" and got == per_unit_is_simple(omega, sample64, h=0.05)


def test_is_simple_rasterizes_each_unit_once(ball, sample16, monkeypatch):
    """Each unit is rasterized once, and the ball, a slicewise spec
    without cuts, once in all."""
    calls = []
    real = domains.rasterize

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(domains, "rasterize", counting)
    assert is_simple(replace(ball, slicewise=False), sample16, h=0.05).is_yes
    assert len(calls) <= len(sample16)
    assert sorted(map(sample16.units.index, calls)) == list(range(len(sample16)))
    calls.clear()
    assert is_simple(ball, sample16, h=0.05).is_yes
    assert calls == sample16.units[:1]


def test_is_simple_counts_each_digest_pair_once(ball, sample16, monkeypatch):
    """Every upper raster of the ball is the same disk: is_simple keeps one
    raster, ANDs no pair and counts components once."""
    ands = []
    real = domains._and_grids
    monkeypatch.setattr(domains, "_and_grids", lambda a, b: ands.append(1) or real(a, b))
    calls = _count_component_counts(monkeypatch)
    assert is_simple(ball, sample16, h=0.05).is_yes
    assert ands == [] and len(calls) == 1


def test_is_simple_memory_does_not_grow_with_the_sample(ball):
    """is_simple holds one raster per distinct digest, so on the ball its
    traced peak at N = 64 (128 units) stays within 1.5x of that at N = 8."""
    peaks = []
    for sample in (SphereSample(8), SphereSample(64)):
        tracemalloc.start()
        try:
            assert is_simple(ball, sample, h=0.01).is_yes
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


# ---------------------------------------------------------------------------
# slicewise specs: one raster per raster key
# ---------------------------------------------------------------------------

_OFF_AXIS_BALL = ball_spec(Q(0, 0.4, 0, 0), 0.8)
_TUBE = TubeDomain(UNIT_J, np.array([[0.0, 0.6], [0.4, 0.2], [0.4, 0.0]]), 0.3, 0.6, 0.05)
_UNITS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: math.hypot(*v) > 0.1).map(lambda v: UnitImaginary(*v))
# every constructor that declares its spec slicewise, with drawn parameters
_SLICEWISE = {
    "ball": lambda d: ball_spec(d.draw(st.floats(-2.0, 2.0)), d.draw(st.floats(0.1, 2.0))),
    "halfspace": lambda d: halfspace_spec(
        (d.draw(st.floats(-1.0, 1.0)), d.draw(st.floats(-1.0, 1.0))), d.draw(st.floats(-1.0, 1.0))),
    "starlike": lambda d: starlike_spec(d.draw(st.floats(0.0, 0.9))),
    "counterexample": lambda d: omega_spec(CounterexampleConfig(axis=d.draw(_UNITS))),
    "union": lambda d: union_spec([ball_spec(d.draw(st.floats(-1.0, 1.0)), 0.5),
                                   starlike_spec(d.draw(st.floats(0.0, 0.9)))]),
    "intersection": lambda d: intersect_specs(
        omega_spec(CounterexampleConfig(axis=d.draw(_UNITS))),
        halfspace_spec((1.0, d.draw(st.floats(-1.0, 1.0))), d.draw(st.floats(-1.0, 1.0)))),
    "completion": lambda d: symmetric_completion(
        d.draw(st.sampled_from([_OFF_AXIS_BALL, _TUBE.as_domain_spec()])), SphereSample(4)),
    "slice completion": lambda d: completion_of_slice(
        d.draw(st.sampled_from([_OFF_AXIS_BALL, _TUBE.as_domain_spec()])), d.draw(_UNITS)),
}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(_SLICEWISE)), data=st.data(),
       points=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(0.0, 6.0)),
                       min_size=1, max_size=30),
       J=_UNITS, K=_UNITS)
def test_slicewise_membership_ignores_the_unit(name, data, points, J, K):
    """Every constructor that declares a spec slicewise builds one whose
    membership is bit-identical at any two units."""
    spec = _SLICEWISE[name](data)
    assert spec.slicewise
    x, y = np.array(points).T
    at = [np.asarray(spec.membership(x, y, U.vx, U.vy, U.vz)) for U in (J, K)]
    assert at[0].dtype == at[1].dtype == bool and np.array_equal(*at)


def test_off_axis_ball_and_tube_are_not_slicewise():
    """Their membership depends on the unit, so they must not declare
    otherwise; a union or intersection with one of them is not slicewise."""
    tube = _TUBE.as_domain_spec()
    for spec, J, (x, y) in ((_OFF_AXIS_BALL, UNIT_I, (0.0, 1.1)), (tube, UNIT_J, (0.2, 0.4))):
        assert not spec.slicewise
        assert spec.contains(x, y, J) and not spec.contains(x, y, -J)
    assert not union_spec([ball_spec(0.0, 1.0), _OFF_AXIS_BALL]).slicewise
    assert not intersect_specs(ball_spec(0.0, 1.0), tube).slicewise


@pytest.mark.parametrize("name", sorted(_PLANE_CORPUS))
def test_slicewise_raster_is_the_per_unit_raster(name):
    """A slicewise spec's full slice reads its upper half membership once;
    it equals the raster that evaluates both halves."""
    spec, h = _PLANE_CORPUS[name]
    for J in _SAMPLE16_I.units[::5]:
        for full in (False, True):
            assert np.array_equal(
                rasterize(spec, J, full_slice=full, h=h).occupied,
                rasterize(replace(spec, slicewise=False), J, full_slice=full, h=h).occupied)


_VERDICT_ORACLES = ((is_slice_domain, per_unit_is_slice_domain),
                    (is_slice_convex, per_unit_is_slice_convex),
                    (is_simple, per_unit_is_simple))


@pytest.mark.parametrize("name", sorted(_PLANE_CORPUS))
def test_verdicts_equal_the_per_unit_oracle(name):
    """is_simple's oracle on the corpus is test_is_simple_matches_the_three_scan_oracle."""
    spec, h = _PLANE_CORPUS[name]
    for step in (h, h / 2.0):
        for verdict, oracle in _VERDICT_ORACLES[:2]:
            assert verdict(spec, _SAMPLE16_I, h=step) == oracle(spec, _SAMPLE16_I, step), \
                (verdict.__name__, step)


@pytest.mark.parametrize("h", [0.05, 0.02])
def test_verdicts_equal_the_per_unit_oracle_on_the_counterexample(omega, sample64, h):
    for verdict, oracle in _VERDICT_ORACLES:
        assert verdict(omega, sample64, h=h) == oracle(omega, sample64, h), verdict.__name__


class _WorkSpy:
    """Counts, per verdict, its rasterize calls and the membership calls
    of a spied spec made inside and outside them."""

    def __init__(self, monkeypatch, module, verdicts):
        self.verdict, self.inside = None, False
        self.counts = {}
        for name in verdicts:
            monkeypatch.setattr(module, name, self._scoped(name, getattr(module, name)))
        real = domains.rasterize

        def rasterize(*args, **kwargs):
            self._count("rasterize")
            self.inside = True
            try:
                return real(*args, **kwargs)
            finally:
                self.inside = False

        monkeypatch.setattr(domains, "rasterize", rasterize)
        monkeypatch.setattr(counterexample, "rasterize", rasterize)

    def _count(self, what):
        self.counts.setdefault(self.verdict, Counter())[what] += 1

    def _scoped(self, name, fn):
        def scoped(*args, **kwargs):
            self.verdict = name
            try:
                return fn(*args, **kwargs)
            finally:
                self.verdict = None
        return scoped

    def spied(self, spec):
        """spec with its membership calls counted."""
        def membership(*args):
            self._count("inside" if self.inside else "outside")
            return spec.membership(*args)
        return replace(spec, membership=membership)


_CHECKED = ("is_slice_domain", "is_symmetric", "is_slice_convex", "is_simple")


@pytest.mark.parametrize("data, slicewise", [
    ({"type": "ball", "radius": 1}, True),
    ({"type": "starlike"}, True),
    ({"type": "counterexample"}, True),
    ({"type": "ball", "radius": 0.8, "center": [0, 0, 0.4, 0]}, False),
    ({"type": "tube", "polyline": [[0, 0.6], [0.4, 0.2], [0.4, 0]], "unit": [0, 1, 0],
      "epsilon": 0.3}, False),
])
def test_check_domain_work_per_verdict(data, slicewise, tmp_path, monkeypatch):
    """In one check-domain, a slicewise spec's membership is evaluated
    once per rasterize call; any other spec's at most once per unit and
    verdict."""
    from slicereg import cli
    spy = _WorkSpy(monkeypatch, domains, _CHECKED)
    load = cli.load_domain_spec
    monkeypatch.setattr(cli, "load_domain_spec", lambda values: spy.spied(load(values)))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert main(["check-domain", str(path), "--h", "0.05", "--samples", "8",
                 "--out", str(tmp_path / "out")]) == 0
    units = 2 * (8 + (data["type"] == "counterexample"))
    for name in ("is_slice_domain", "is_slice_convex", "is_simple"):
        work = spy.counts[name]
        assert work["outside"] == 0 and work["rasterize"] >= 1, name
        if slicewise:
            assert work["inside"] == work["rasterize"], name
        else:
            assert work["inside"] <= units, name
    if not slicewise:
        assert sum(spy.counts["is_symmetric"].values()) <= units


def test_demonstrate_cuts_one_raster_per_cut_geometry(monkeypatch):
    """The default sample's 65 base units have 32 distinct pairs of arcs
    (t_of(J), t_of(-J)), so is_slice_domain blocks the cuts of 32 full
    slices; the counterexample is slicewise, so every raster of
    demonstrate evaluates its membership once."""
    spy = _WorkSpy(monkeypatch, counterexample, ("is_slice_domain", "is_simple"))
    real_spec = counterexample.omega_spec
    monkeypatch.setattr(counterexample, "omega_spec", lambda cfg: spy.spied(real_spec(cfg)))
    blocked = Counter()
    block = raster._block_cut_cells
    monkeypatch.setattr(domains, "_block_cut_cells",
                        lambda *args: blocked.update([spy.verdict]) or block(*args))
    cfg = CounterexampleConfig(h=0.05)
    sample = SphereSample(64, extra=[cfg.axis])
    base = sample.units[:sample.base_count]
    assert len(base) == 65
    assert len({(counterexample.t_of(J, cfg), counterexample.t_of(-J, cfg)) for J in base}) == 32
    assert counterexample.demonstrate(cfg, sample)["all_checks_pass"]
    assert blocked["is_slice_domain"] == spy.counts["is_slice_domain"]["rasterize"] == 32
    work = sum(spy.counts.values(), Counter())
    assert work["inside"] == work["rasterize"] and work["outside"] == 0


def test_is_simple_refuses_to_keep_rasters_past_the_budget(sample16, monkeypatch):
    """is_simple keeps one raster per distinct digest; past MAX_KEPT_BYTES
    it raises.  The off-axis ball's units have distinct rasters, the ball's
    one."""
    one = rasterize(_OFF_AXIS_BALL, UNIT_I, h=0.05).occupied.nbytes
    monkeypatch.setattr(domains, "MAX_KEPT_BYTES", 3 * one)
    with pytest.raises(PreconditionError, match="is_simple would keep 4 distinct rasters "
                                                f"of {4 * one} bytes in all, more than"):
        is_simple(_OFF_AXIS_BALL, sample16, h=0.05)
    assert is_simple(ball_spec(0.0, 1.0, bbox=_OFF_AXIS_BALL.bbox), sample16, h=0.05).is_yes


# ---------------------------------------------------------------------------
# component ids from the stored runs
# ---------------------------------------------------------------------------

def _assert_component_at_matches_painted(occ, probes=()):
    """component_at at every cell centre, and at each probe point, is the
    oracle-painted label of the nearest cell; no label image is painted."""
    ny, nx = occ.shape
    grid = PlanarRegionGrid(xs=0.5 * np.arange(nx) - 1.0,
                            ys=0.25 + 0.5 * np.arange(ny), occupied=occ)
    want = paint_labels(occ)
    got = [[grid.component_at(x, y) for x in grid.xs.tolist()] for y in grid.ys.tolist()]
    assert np.array_equal(np.array(got).reshape(ny, nx), want)
    for x, y in probes:
        iy, ix = np.argmin(np.abs(grid.ys - y)), np.argmin(np.abs(grid.xs - x))
        assert grid.component_at(x, y) == want[iy, ix], (x, y)
    assert grid.labels is None


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 20), st.integers(1, 20), st.data())
def test_component_at_matches_the_painted_label(rows, cols, data):
    probes = data.draw(st.lists(st.tuples(st.floats(-3.0, 12.0), st.floats(-2.0, 12.0)),
                                max_size=8))
    _assert_component_at_matches_painted(_random_mask(data, rows, cols), probes)


@pytest.mark.parametrize("occ", [
    np.zeros((6, 9), bool), np.ones((6, 9), bool),
    np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], bool),
    np.array([[1], [0], [1], [1], [0], [1]], bool)]
    + [rasterize(spec, UNIT_I, h=h).occupied for spec, h in _PLANE_CORPUS.values()],
    ids=["empty", "full", "one-row", "one-column", *_PLANE_CORPUS])
def test_component_at_matches_the_painted_label_on_fixed_masks(occ):
    _assert_component_at_matches_painted(occ, [(-5.0, -5.0), (50.0, 0.0), (0.0, 80.0)])


def test_label_after_component_count_paints_from_the_stored_runs(cfg, monkeypatch):
    """label() after component_count() and component_at() equals a fresh
    grid's label() and the oracle painter, from one _run_components call."""
    grid = intersection_grid(cfg, h=0.05)
    calls = []
    real = domains._run_components
    monkeypatch.setattr(domains, "_run_components", lambda occ: calls.append(1) or real(occ))
    n = grid.component_count()
    assert grid.component_at(-1.0, 2.0) != grid.component_at(3.0, 0.0)
    got_n, got = grid.label()
    assert len(calls) == 1
    fresh_n, fresh = PlanarRegionGrid(xs=grid.xs, ys=grid.ys, occupied=grid.occupied).label()
    assert got_n == n == fresh_n == 3
    assert got.dtype == fresh.dtype == np.int32
    assert np.array_equal(got, fresh) and np.array_equal(got, paint_labels(grid.occupied))


# ---------------------------------------------------------------------------
# grid kernels against their scipy oracles
# ---------------------------------------------------------------------------

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def _assert_labels_match_scipy(occ):
    want, count = ndimage.label(occ, structure=_CROSS)
    ny, nx = occ.shape
    grid = PlanarRegionGrid(xs=np.arange(nx, dtype=float),
                            ys=np.arange(ny, dtype=float), occupied=occ)
    assert grid.component_count() == count
    n, labels = grid.label()
    assert n == count and labels.dtype == want.dtype
    assert np.array_equal(labels, want)


def _random_mask(data, rows, cols):
    density = data.draw(st.floats(0.0, 1.0))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed).random((rows, cols)) < density


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.data())
def test_run_labels_match_scipy_label(rows, cols, data):
    """Run-length labelling gives ndimage.label's count and labels, whose
    numbering follows the first cell of each component in raster order."""
    _assert_labels_match_scipy(_random_mask(data, rows, cols))


@pytest.mark.parametrize("occ", [
    np.zeros((6, 9), bool), np.ones((6, 9), bool),
    np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], bool),
    np.array([[1], [0], [1], [1], [0], [1]], bool),
    np.indices((7, 8)).sum(axis=0) % 2 == 0,
    np.indices((8, 7)).sum(axis=0) % 2 == 1,
    np.zeros((1, 1), bool), np.ones((1, 1), bool)],
    ids=["empty", "full", "one-row", "one-column", "checkerboard-even",
         "checkerboard-odd", "empty-cell", "one-cell"])
def test_run_labels_match_scipy_label_on_edge_masks(occ):
    _assert_labels_match_scipy(occ)


def _serpentine(rows, teeth):
    """A 1-cell path up and down columns 0, 2, 4, ...: one run per tooth in
    every inner row."""
    occ = np.zeros((rows, 2 * teeth - 1), bool)
    occ[:, ::2] = True
    occ[0, 1::4] = True
    occ[-1, 3::4] = True
    return occ


def _comb(rows, teeth):
    """Teeth in columns 0, 2, 4, ..., joined only by the last row."""
    occ = np.zeros((rows, 2 * teeth - 1), bool)
    occ[:, ::2] = True
    occ[-1, :] = True
    return occ


def _spiral(n):
    """A 1-cell square spiral walked inwards from the top-left corner."""
    occ = np.zeros((n, n), bool)
    r, c, dr, dc = 0, 0, 0, 1
    occ[r, c] = True
    turns = 0
    while turns < 2:
        ahead = (r + 2 * dr, c + 2 * dc)
        if (0 <= r + dr < n and 0 <= c + dc < n
                and not (0 <= ahead[0] < n and 0 <= ahead[1] < n and occ[ahead])):
            r, c = r + dr, c + dc
            occ[r, c] = True
            turns = 0
        else:
            dr, dc = dc, -dr
            turns += 1
    return occ


@pytest.mark.parametrize("occ, components", [
    (_serpentine(24, 26), 1), (_comb(24, 26), 1), (_comb(24, 26)[::-1], 1),
    (_comb(24, 26)[:-1], 26), (_spiral(61), 1)],
    ids=["serpentine", "comb", "comb-flipped", "comb-cut", "spiral"])
def test_run_labels_match_scipy_label_on_long_chains(occ, components):
    """Masks whose runs join only through long chains: the hooking rounds
    must carry each component down to its smallest run."""
    starts = raster._run_components(occ)[0]
    assert starts.size >= 500
    _assert_labels_match_scipy(occ)
    assert ndimage.label(occ, structure=_CROSS)[1] == components


def test_run_labels_match_scipy_label_on_counterexample_slices():
    cfg = CounterexampleConfig(h=0.05)
    spec = omega_spec(cfg)
    grids = [rasterize(spec, J, full_slice=True)
             for J in SphereSample(8, extra=[cfg.axis]).units]
    grids += [intersection_grid(cfg), pair_set_grid(cfg)]
    for grid in grids:
        _assert_labels_match_scipy(grid.occupied)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.data())
def test_core_matches_scipy_binary_erosion(rows, cols, data):
    occ = _random_mask(data, rows, cols)
    want = ndimage.binary_erosion(occ, structure=np.ones((3, 3), bool))
    assert np.array_equal(_core(occ), want)


def _delaunay_first_hit(occ, xs, ys):
    """The first unoccupied cell, in row-major order, that Delaunay's
    find_simplex places in the hull of the core; "line" when qhull finds no
    2D hull."""
    from scipy.spatial import ConvexHull, Delaunay, QhullError
    core = ndimage.binary_erosion(occ, structure=np.ones((3, 3), bool))
    iy, ix = np.nonzero(core)
    pts = np.column_stack([xs[ix], ys[iy]])
    try:
        tri = Delaunay(pts[ConvexHull(pts).vertices])
    except (QhullError, ValueError):  # too few points, or all on one line
        return "line"
    cy, cx = np.nonzero(~occ)
    hits = np.nonzero(tri.find_simplex(np.column_stack([xs[cx], ys[cy]])) >= 0)[0]
    return (int(cy[hits[0]]), int(cx[hits[0]])) if hits.size else None


def _exact_first_hit(occ, ys, h):
    Y = _half_step_rows(ys, h)
    hull = _core_hull(_core(occ), Y)
    return "line" if len(hull) < 3 else _first_cell_in_hull(occ, hull, Y)


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 20), st.integers(8, 40), st.booleans(), st.integers(1, 3),
       st.sampled_from([0.0, 0.01, 0.05]), st.integers(0, 2 ** 32 - 1))
@example(half_rows=4, cols=12, full_slice=True, blobs=2, holes=0.0, seed=59)
def test_exact_hull_first_hit_matches_delaunay(half_rows, cols, full_slice, blobs,
                                               holes, seed):
    """On unions of ellipses with random holes, rasterized on upper-half and
    full-slice rows (whose axis row sits h/2 from its neighbours), the
    integer hull's first hit is the cell Delaunay.find_simplex finds.  In
    the explicit example the hit is missed when rows count whole cells."""
    rng = np.random.default_rng(seed)
    h = 2.0 / cols
    xs = -1.0 + h / 2.0 + h * np.arange(cols)
    ys = h / 2.0 + h * np.arange(half_rows)
    if full_slice:
        ys = np.concatenate([-ys[::-1], [0.0], ys])
    X, Yn = np.meshgrid(xs, 2.0 * (ys - ys[0]) / (ys[-1] - ys[0]) - 1.0)
    occ = np.zeros(X.shape, bool)
    for _ in range(blobs):
        cx, cy = rng.uniform(-0.6, 0.6, 2)
        a, b = rng.uniform(0.3, 1.0, 2)
        occ |= ((X - cx) / a) ** 2 + ((Yn - cy) / b) ** 2 < 1.0
    occ &= rng.random(occ.shape) >= holes
    assert _exact_first_hit(occ, ys, h) == _delaunay_first_hit(occ, xs, ys)


@pytest.mark.parametrize("name", sorted(_PLANE_CORPUS))
def test_exact_hull_first_hit_matches_delaunay_on_full_slices(name):
    spec, h = _PLANE_CORPUS[name]
    for J in _SAMPLE16_I.units[:_SAMPLE16_I.base_count]:
        grid = rasterize(spec, J, full_slice=True, h=h)
        assert (_exact_first_hit(grid.occupied, grid.ys, h)
                == _delaunay_first_hit(grid.occupied, grid.xs, grid.ys))


def test_sphere_sample_over_the_budget_raises_before_allocating():
    """(2N)^2, the entries of the min-angle dot matrix, is bounded by the
    cell budget; the check is integer maths, so a huge N allocates nothing."""
    side = math.isqrt(MAX_GRID_CELLS) // 2
    assert len(SphereSample(side)) == 2 * side
    for n, extra in ((side + 1, ()), (side - 1, [UNIT_I, UNIT_J]), (10 ** 12, ())):
        with pytest.raises(PreconditionError, match="exceed the budget"):
            SphereSample(n, extra=extra)


# ---------------------------------------------------------------------------
# the one membership test: contains_rows against the per-point oracle
# ---------------------------------------------------------------------------

def _cut_ball():
    """The unit ball with a user cut that moves with the unit."""
    return replace(ball_spec(0.0, 1.0), cuts=lambda J: [
        np.array([[0.5 * J.vx, 0.1], [0.2, 0.4 + 0.2 * J.vy], [-0.3, 0.6]])])


_MEMBERSHIP_SPECS = {
    **{name: spec for name, (spec, _) in _PLANE_CORPUS.items()},
    "cut-ball": _cut_ball(),
    "tube": TubeDomain(UNIT_J, np.array([[0.3, 0.6], [0.1, 0.2], [0.1, 0.0]]),
                       0.1, 0.6).as_domain_spec(),
    "ball-and-counterexample": intersect_specs(ball_spec(-1.0, 2.5),
                                               omega_spec(CounterexampleConfig())),
}
_ROW_UNITS = [UNIT_I, -UNIT_I, UNIT_J, -UNIT_J, UnitImaginary(0.3, -0.5, 0.8),
              UnitImaginary(-0.3, 0.5, -0.8), UnitImaginary(1.0, 1e-3, 0.0)]


@pytest.mark.parametrize("name", sorted(_MEMBERSHIP_SPECS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_contains_rows_equals_the_scalar_oracle(name, data):
    """contains_rows equals scalar_contains row by row: rows below the axis
    (the unit flipped), on it (the real trace, then the cuts), with units
    J and -J in one call, and points within twice the cut clearance (the
    counterexample's ARC_CLEARANCE) of a cut of their unit."""
    spec = _MEMBERSHIP_SPECS[name]
    x_min, x_max, y_max = spec.bbox
    rows = []
    for _ in range(data.draw(st.integers(1, 12))):
        J = data.draw(st.sampled_from(_ROW_UNITS))
        if spec.cuts is not None and data.draw(st.booleans()):
            poly = np.asarray(data.draw(st.sampled_from(list(spec.cuts(J)))), dtype=float)
            k = data.draw(st.integers(0, len(poly) - 2))
            x, y = poly[k] + data.draw(st.floats(0.0, 1.0)) * (poly[k + 1] - poly[k])
            d = 2.0 * max(spec.cut_clearance, 1e-12)
            x, y = x + data.draw(st.floats(-d, d)), y + data.draw(st.floats(-d, d))
        else:
            x = data.draw(st.floats(x_min, x_max))
            y = data.draw(st.one_of(st.just(0.0), st.floats(-y_max, y_max)))
        rows.append((float(x), float(y), J))
    x, y, units = zip(*rows)
    got = spec.contains_rows(x, y, [J.to_list() for J in units])
    assert got.tolist() == [scalar_contains(spec, *row) for row in rows]
    # the one-row case, and the unit i without cuts when no unit is given
    assert spec.contains(*rows[0]) == got[0]
    assert spec.contains(x[0], abs(y[0]), None) == scalar_contains(spec, x[0], abs(y[0]), None)


def test_a_cut_of_one_vertex_is_a_point(tmp_path):
    """The schema lets a cut have one vertex: contains_rows takes it as a
    segment of length 0, so the point itself is outside on every unit (a
    row below the axis too) and a point 1e-9 from it inside; the
    per-polyline distance raised on an empty reduction, and so did
    check-domain and ext-slice on such a spec."""
    spec = replace(ball_spec(0.0, 1.0), cuts=lambda J: [np.array([[0.2, 0.3]])])
    got = spec.contains_rows([0.2, 0.2, 0.2], [0.3, 0.3 + 1e-9, -0.3],
                             [UNIT_I.to_list(), UNIT_I.to_list(), UNIT_J.to_list()])
    assert got.tolist() == [False, True, False]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"type": "ball", "radius": 1.0, "cuts": [[[0.2, 0.3]]]}))
    assert main(["check-domain", str(path), "--h", "0.05", "--samples", "4",
                 "--out", str(tmp_path / "out")]) == 0


def test_contains_without_a_unit_refuses_a_negative_height(ball):
    with pytest.raises(ValueError, match="requires a unit"):
        ball.contains(0.1, -0.2, None)


def test_contains_rows_blocks_its_distance_temporaries(omega, cfg, monkeypatch):
    """Rows near the counterexample's arcs, a polyline of 255 segments, are
    measured in blocks of at most _CUT_BLOCK rows times segments, with the
    result of one unblocked call.  The near-cut kernel, raster._clear_rows,
    looks the distance up in raster and passes it one segment (2, 2) per
    row."""
    J = UnitImaginary(0.3, -0.5, 0.8)
    arc = counterexample.arc_coords(J, cfg)
    k = np.arange(2000)
    pts = arc[k % len(arc)] + np.column_stack([np.zeros(len(k)), (k % 7) * 1e-5])
    want = omega.contains_rows(pts[:, 0], pts[:, 1], np.tile(J.to_list(), (len(pts), 1)))
    sizes = []
    real = raster._points_to_polyline_dist

    def spy(px, py, poly):
        sizes.append(len(px) * (np.shape(poly)[-2] - 1))
        return real(px, py, poly)

    monkeypatch.setattr(raster, "_points_to_polyline_dist", spy)
    got = omega.contains_rows(pts[:, 0], pts[:, 1], np.tile(J.to_list(), (len(pts), 1)))
    assert np.array_equal(got, want) and not got.all() and got.any()
    assert len(sizes) > 2 and max(sizes) <= raster._CUT_BLOCK


@pytest.mark.parametrize("name", ["counterexample-h0.25", "ball-and-counterexample"])
def test_contains_rows_equals_the_blocked_oracle_on_the_completion_grid(name):
    """On the grid of the completion command (81 x 41 points of the box)
    and the 18 units of its counterexample sample at N = 8, contains_rows
    equals the per-polyline blocked loop it replaced, bit for bit, in one
    call over every (unit, point) row and in one call per unit."""
    spec = _MEMBERSHIP_SPECS[name]
    sample = SphereSample(8, extra=[CounterexampleConfig().axis])
    x_min, x_max, y_max = spec.bbox
    x, y = (a.ravel() for a in np.meshgrid(np.linspace(x_min, x_max, 81),
                                           np.linspace(0.0, y_max, 41)))
    n = len(sample.vectors)
    X, Y, V = np.tile(x, n), np.tile(y, n), np.repeat(sample.vectors, x.size, axis=0)
    want = blocked_contains_rows(spec, X, Y, V)
    assert len(want) == 3321 * 18 and want.any() and not want.all()
    assert np.array_equal(spec.contains_rows(X, Y, V), want)
    per_unit = [spec.contains_rows(x, y, np.broadcast_to(v, (x.size, 3)))
                for v in sample.vectors]
    assert np.array_equal(np.concatenate(per_unit), want)


@pytest.mark.parametrize("name", ["cut-ball", "counterexample-h0.25", "ball-and-counterexample"])
def test_is_symmetric_probes_each_cut_in_one_call(name, monkeypatch):
    """is_symmetric's cut probe makes at most one contains_rows call per
    (unit, polyline), and its witness is the per-point oracle's: the first
    mismatch in (point, probe unit) order."""
    spec = _MEMBERSHIP_SPECS[name]
    sample = SphereSample(16, extra=[UNIT_I])
    want = cut_probe_loop(spec, sample)
    calls = []
    real = DomainSpec.contains_rows

    def spy(self, x, y, vectors):
        calls.append(len(vectors))
        return real(self, x, y, vectors)

    monkeypatch.setattr(DomainSpec, "contains_rows", spy)
    verdict = is_symmetric(spec, sample)
    probe_units = sample.units[:: max(1, len(sample.units) // 16)]
    assert len(calls) <= len(probe_units) * max(len(spec.cuts(J)) for J in probe_units)
    if want is None:
        assert verdict.is_yes
    else:
        x, y, J, K = want
        assert verdict.witness == {"x": x, "y": y, "units": [J.to_list(), K.to_list()]}


def test_polyline_distance_keeps_the_place_along_a_huge_segment():
    """A segment whose far vertex is 1e150 away is parametrized from the
    vertex nearer the point, so the point keeps its place along it."""
    dist = _points_to_polyline_dist([-3.0, -2.0], [2.5, 2.0], [[-1e150, 2.0], [-2.0, 2.0]])
    assert dist.tolist() == [0.5, 0.0]


def _first_vertex_dist(px, py, poly):
    """The distance parametrized from each segment's first vertex."""
    pts = np.asarray(poly, dtype=float)
    a, d = pts[:-1], pts[1:] - pts[:-1]
    L2 = np.einsum("ij,ij->i", d, d)
    L2[L2 == 0.0] = 1.0
    px, py = np.asarray(px, dtype=float)[:, None], np.asarray(py, dtype=float)[:, None]
    t = np.clip(((px - a[:, 0]) * d[:, 0] + (py - a[:, 1]) * d[:, 1]) / L2, 0.0, 1.0)
    return np.sqrt(np.min((a[:, 0] + t * d[:, 0] - px) ** 2
                          + (a[:, 1] + t * d[:, 1] - py) ** 2, axis=1))


_COORD = st.floats(-1e6, 1e6)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_COORD, _COORD), min_size=2, max_size=6),
       st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=6))
def test_polyline_distance_agrees_with_the_first_vertex_formula(poly, points):
    """On coordinates within 1e6 the nearer-vertex distance agrees with the
    first-vertex one to 4 ulp of the coordinate differences, whose bound
    is twice the largest magnitude among the point and the polyline."""
    px, py = np.array(points).T
    got = _points_to_polyline_dist(px, py, poly)
    want = _first_vertex_dist(px, py, poly)
    scale = 2.0 * np.maximum(np.abs(np.array(points)).max(axis=1), np.abs(poly).max())
    assert (np.abs(got - want) <= 4.0 * np.spacing(scale)).all()


def test_polyline_distance_takes_one_polyline_per_point():
    """Polylines stacked one per point (n, m, 2) give each point its
    distance to its own polyline, bit for bit, each at its own scale,
    huge ones too."""
    rng = np.random.default_rng(3)
    polys = rng.uniform(-5.0, 5.0, (30, 4, 2))
    polys[:3] *= 1e200
    px, py = rng.uniform(-5.0, 5.0, (2, 30))
    got = _points_to_polyline_dist(px, py, polys)
    want = [_points_to_polyline_dist(px[k:k + 1], py[k:k + 1], polys[k])[0] for k in range(30)]
    assert got.tolist() == want
