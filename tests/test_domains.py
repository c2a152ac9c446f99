import math
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicereg import (Quaternion, SphereSample, UnitImaginary, ball_spec,
                      connected_components, halfspace_spec, is_simple,
                      is_slice_convex, is_slice_domain, is_symmetric,
                      omega_jk_plus, rasterize, starlike_spec,
                      symmetric_completion)
from slicereg.domains import (DomainSpec, _block_cut_cells, _grid_bfs,
                              _grid_path, fibonacci_points, intersect_specs,
                              resample_polyline, union_spec)
from slicereg.holomorphic import segment_crossings
from slicereg.quaternions import UNIT_I, UNIT_J
from slicereg.counterexample import intersection_grid

from conftest import random_unit

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
    n, _ = connected_components(grid)
    assert n == 1


def test_rasterize_two_disks_two_components():
    spec = union_spec([ball_spec(-1.5, 0.4), ball_spec(1.5, 0.4)])
    grid = rasterize(spec, UNIT_I)
    n, _ = connected_components(grid)
    assert n == 2


def test_empty_grid_zero_components():
    spec = ball_spec(10.0, 0.1, bbox=(-1.0, 1.0, 1.0))
    n, _ = connected_components(rasterize(spec, UNIT_I))
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
    n, _ = connected_components(rasterize(spec, UNIT_I, full_slice=True))
    assert n == 1


def test_counterexample_slice_one_component_two_resolutions(omega, cfg):
    # flood-fill oracle at the finer step must agree
    for h in (0.01, 0.005):
        grid = rasterize(omega, cfg.axis, full_slice=True, h=h)
        n, _ = connected_components(grid)
        assert n == 1


def test_intersection_three_components(cfg):
    grid = intersection_grid(cfg)
    n, _ = connected_components(grid)
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
    n, _ = connected_components(grid)
    assert n == 1


def test_omega_jk_counterexample_antipodal_pair(omega, cfg):
    for h in (0.01, 0.005):
        grid = omega_jk_plus(omega, cfg.axis, -cfg.axis, h=h)
        n, _ = connected_components(grid)
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
