"""Independent oracles used to freeze expected values, the grid kernels
and scalar evaluators that faster paths replaced, and the few path
integral and arc helpers that only tests use.

The oracles deliberately avoid the code paths they check: polynomial
evaluation sums explicit powers instead of Horner, and the winding oracle
tracks argument increments instead of integrating.
"""
import math
from dataclasses import replace
from itertools import islice

import numpy as np

from slicereg import Quaternion, SliceCoord, rep_coeffs
from slicereg.errors import OutOfDomainError
from slicereg.counterexample import t_of
from slicereg.domains import (Verdict, _and_grids, _hull_witness, omega_jk_plus,
                              rasterize)
from slicereg.raster import _GRID_STEPS, _grid_bfs, _run_components
from slicereg.holomorphic import integrate_reciprocal


def poly_eval_direct(coeffs, q, center=0.0):
    """sum_n (q - center)^n a_n via explicit repeated multiplication."""
    shifted = q - center
    total = Quaternion(0.0)
    power = Quaternion(1.0)
    for a in coeffs:
        total = total + power * a
        power = shifted * power
    return total


def horner_eval(series, coord):
    """Scalar oracle of PowerSeries.eval_rows: Horner's scheme on one
    quaternion q = coord - center, raising OutOfDomainError where |q| >=
    radius."""
    q = coord.to_quaternion() - series.center
    if q.norm() >= series.radius:
        raise OutOfDomainError("point outside the series' ball of convergence")
    acc = series.coeffs[-1]
    for a in reversed(series.coeffs[:-1]):
        acc = q * acc + a
    return acc


def rep_eval(b, c, I):
    """Value b + I c of the function the stem pair (b, c) represents; b
    where I is None (a real point)."""
    if I is None:
        return b
    return b + I.as_quaternion() * c


def winding_angle_sum(points, px, py):
    """Winding number of a closed polyline around (px, py), by summing the
    signed turn of consecutive direction vectors."""
    pts = np.asarray(points, dtype=float)
    if np.hypot(*(pts[0] - pts[-1])) > 1e-12:
        pts = np.vstack([pts, pts[0]])
    rel = pts - np.array([px, py])
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    dturn = np.diff(ang)
    dturn = (dturn + math.pi) % (2.0 * math.pi) - math.pi
    return dturn.sum() / (2.0 * math.pi)


def polyline_integral(points, pole: complex) -> complex:
    """Integral of dz/(z - pole) along a polyline of (x, y) vertices, one
    closed-form segment integral per leg."""
    pts = np.asarray(points, dtype=float)
    zs = pts[:, 0] + 1j * pts[:, 1]
    total = 0.0 + 0.0j
    for a, b in zip(zs[:-1], zs[1:]):
        total += integrate_reciprocal(complex(a), complex(b), pole)
    return total


def winding_number(points, point) -> float:
    """Winding of a polyline, closed if it is not, around a point."""
    pts = np.asarray(points, dtype=float)
    if np.hypot(*(pts[0] - pts[-1])) > 1e-12:
        pts = np.vstack([pts, pts[:1]])
    pole = point if isinstance(point, complex) else complex(point[0], point[1])
    return polyline_integral(pts, pole).imag / (2.0 * math.pi)


def loop_consistency(fn, loop) -> float:
    """|integral of dz/(z - pole)| around a closed polyline, at the pole of
    the continued logarithm fn."""
    return abs(polyline_integral(loop, fn._table.pole))


def anchored_integrals(table, px: float, py: float, count: int = 2) -> list:
    """Path integrals to (px, py) of a continuation table via its first
    count usable anchors, nearest first."""
    return list(islice(table._anchored(px, py), count))


def arc_point(J, t: float, cfg) -> Quaternion:
    """Point -1 + 2J + (1-T) e^{2 pi J t} + T e^{-2 pi J t} of L_J, t in
    [0, 1/2], T = t_of(J, cfg): the arc of the counterexample's slice J in
    closed form.  The parameter endpoints land on {2J, -2+2J}; t = 0 sits
    at 2J."""
    if not 0.0 <= t <= 0.5:
        raise ValueError("arc parameter must lie in [0, 1/2]")
    T = t_of(J, cfg)
    phi = 2.0 * math.pi * t
    x = -1.0 + math.cos(phi)
    y = 2.0 + (1.0 - 2.0 * T) * math.sin(phi)
    return Quaternion(x, y * J.vx, y * J.vy, y * J.vz)


def two_slice_parts(f, J, K):
    """Scalar oracle of the two-slice stems of f: parts(x, y) is (f(x), 0)
    on the real axis and rep_coeffs of the values of f at x + yJ and x + yK
    elsewhere; f's errors propagate."""

    def parts(x: float, y: float):
        if y == 0.0:
            return f.eval(SliceCoord(x, 0.0, None)), Quaternion(0.0)
        vj = f.eval(SliceCoord.make(x, y, J))
        vk = f.eval(SliceCoord.make(x, y, K))
        return rep_coeffs(vj, vk, J, K)

    return parts


def stem_at(stem, x: float, y: float):
    """(b, c) of a StemPair at the point (x, y), as quaternions."""
    b, c, ok = stem.stems(np.array([float(x)]), np.array([float(y)]))
    assert ok[0], f"no stem at ({x}, {y})"
    return Quaternion.from_list(b[0]), Quaternion.from_list(c[0])


def dbar_four_evals(f, coord, h: float) -> float:
    """Oracle of dbar_residual: |0.5 (d/dx + J d/dy) f| by central
    differences from four f.eval calls, one per stencil point; f's errors
    propagate."""
    unit, x, y = coord.unit, coord.x, coord.y
    fxp = f.eval(SliceCoord.make(x + h, y, unit))
    fxm = f.eval(SliceCoord.make(x - h, y, unit))
    fyp = f.eval(SliceCoord.make(x, y + h, unit))
    fym = f.eval(SliceCoord.make(x, y - h, unit))
    dx = (fxp - fxm) / (2.0 * h)
    dy = (fyp - fym) / (2.0 * h)
    return ((dx + unit.as_quaternion() * dy) * 0.5).norm()


def paint_labels(occupied):
    """Oracle painter of PlanarRegionGrid.label: the int32 label image of
    run-length labelling, painted by a delta image and a separate cumsum,
    from a fresh _run_components call."""
    ny, nx = occupied.shape
    starts, ends, comp, _ = _run_components(occupied)
    delta = np.zeros(ny * (nx + 1), dtype=np.int32)
    delta[starts] = comp
    delta[ends] = -comp
    return np.cumsum(delta, dtype=np.int32).reshape(ny, nx + 1)[:, :nx]


def level_loop_table(pole: complex, free, xs, ys, dist, pdir, start):
    """Oracle of _PlaneContinuation._accumulate: the table of path
    integrals filled on the 2-D grid, one level at a time, from row and
    column arrays of every reached cell and its BFS parent."""
    steps = np.array(_GRID_STEPS)
    ny, nx = free.shape
    value = np.full((ny, nx), np.nan + 0j, dtype=complex)
    value[start] = 0.0 + 0.0j
    iy, ix = np.nonzero(dist > 0)
    codes = pdir[iy, ix]
    py = iy - steps[codes, 0]
    px = ix - steps[codes, 1]
    z1 = xs[ix] + 1j * ys[iy]
    z0 = xs[px] + 1j * ys[py]
    edge = np.log((z1 - pole) / (z0 - pole))
    order = np.argsort(dist[iy, ix], kind="stable")
    levels = dist[iy, ix][order]
    bounds = np.searchsorted(levels, np.arange(1, levels[-1] + 2)) if levels.size else []
    lo = 0
    for hi in bounds:
        sl = order[lo:hi]
        if sl.size:
            value[iy[sl], ix[sl]] = value[py[sl], px[sl]] + edge[sl]
        lo = hi
    return value


def whole_array_table(table):
    """Oracle of a built continuation table's values: the BFS tree from the
    base's cell again, with the parents and edge logs of every reached cell
    computed in one array each before the level loop (the build that kept
    them all until the loop ended), then shifted to the exact base point."""
    free, xs, ys, pole, h = table._free, table._xs, table._ys, table.pole, table.step
    ny, nx = free.shape
    bx, by = table.base
    start = (min(max(round((by - ys[0]) / h), 0), ny - 1),
             min(max(round((bx - xs[0]) / h), 0), nx - 1))
    dist, pdir = _grid_bfs(free, start)
    value = np.full(ny * nx, np.nan + 0j, dtype=complex)
    value[start[0] * nx + start[1]] = 0.0 + 0.0j
    level = dist.ravel()
    cells = np.flatnonzero(level > 0)
    cells = cells[np.argsort(level[cells], kind="stable")]
    level = level[cells]
    offsets = np.array([dy * nx + dx for dy, dx in _GRID_STEPS])
    parents = cells - offsets[pdir.ravel()[cells]]
    edge = xs[cells % nx] + 1j * ys[cells // nx]
    edge -= pole
    z0 = xs[parents % nx] + 1j * ys[parents // nx]
    z0 -= pole
    edge /= z0
    np.log(edge, out=edge)
    lo = 0
    for hi in np.searchsorted(level, np.arange(2, level[-1] + 2)) if level.size else ():
        value[cells[lo:hi]] = value[parents[lo:hi]] + edge[lo:hi]
        lo = hi
    value = value.reshape(ny, nx)
    z_start = complex(xs[start[1]], ys[start[0]])
    if abs(z_start - complex(bx, by)) > 1e-15:
        value[np.isfinite(value)] += integrate_reciprocal(complex(bx, by), z_start, pole)
    return value


# ---------------------------------------------------------------------------
# per-unit verdict oracles
# ---------------------------------------------------------------------------
# The verdicts as they were before units shared rasters by raster key: every
# unit's raster is built from a copy of the spec that is not slicewise, so
# it evaluates the membership of both half slices and shares nothing.

def per_unit_is_slice_domain(spec, sample, h):
    """Oracle of is_slice_domain: each base unit's full slice rasterized
    and its components counted."""
    spec = replace(spec, slicewise=False)
    res = {"N": sample.n_requested, "h": h}
    x_min, x_max, _ = spec.bbox
    if not np.asarray(spec.real_trace(np.arange(x_min + h / 2.0, x_max, h))).any():
        return Verdict("no", {"reason": "empty real trace"}, res)
    indeterminate = False
    for J in sample.units[:sample.base_count]:
        grid = rasterize(spec, J, full_slice=True, h=h)
        if not grid.occupied.any():
            return Verdict("no", {"reason": "empty slice", "unit": J.to_list()}, res)
        n = grid.component_count()
        if n > 1:
            return Verdict("no", {"reason": "disconnected slice",
                                  "unit": J.to_list(), "components": int(n)}, res)
        indeterminate |= not grid.occupied[grid.ys == 0.0].any()
    if indeterminate:
        return Verdict("indeterminate",
                       {"reason": "connected slices do not reach the real axis"}, res)
    return Verdict("yes", None, res)


def per_unit_is_slice_convex(spec, sample, h):
    """Oracle of is_slice_convex: the hull test on each base unit's full
    slice."""
    spec = replace(spec, slicewise=False)
    for J in sample.units[:sample.base_count]:
        witness = _hull_witness(rasterize(spec, J, full_slice=True, h=h), h)
        if witness is not None:
            return Verdict("no", {"unit": J.to_list(), **witness},
                           {"N": sample.n_requested, "h": h})
    return Verdict("yes", None, {"N": sample.n_requested, "h": h})


def per_unit_is_simple(spec, sample, h=None):
    """Oracle of is_simple as three scans, the antipodal pairs and the
    pairs (m, m) through one omega_jk_plus call each (two fresh rasters),
    and the other pairs through a cache of per-unit rasters."""
    h = float(h if h is not None else spec.h)
    spec = replace(spec, slicewise=False)
    res = {"N": sample.n_requested, "h": h}
    units = sample.units
    counts = {}
    grid_cache = {}

    def components_for(mi, mk, cache):
        if cache:
            for m in (mi, mk):
                if m not in grid_cache:
                    grid_cache[m] = rasterize(spec, units[m], h=h)
            grid = _and_grids(grid_cache[mi], grid_cache[mk])
        else:
            grid = omega_jk_plus(spec, units[mi], units[mk], h=h)
        if not grid.occupied.any():
            return 0
        digest = grid.occupancy_digest()
        if digest not in counts:
            counts[digest] = grid.component_count()
        return counts[digest]

    def scan(pairs, cache):
        for mi, mk in pairs:
            n = components_for(mi, mk, cache)
            if n > 1:
                return Verdict("no", {
                    "pair": [units[mi].to_list(), units[mk].to_list()],
                    "antipodal": bool(units[mk].approx(-units[mi], 1e-6)),
                    "components": n,
                }, res)
        return None

    anti = set(sample.antipodal_pairs())
    rest = [(a, b) for a in range(len(units)) for b in range(a + 1, len(units))
            if (a, b) not in anti]
    return (scan(sample.antipodal_pairs(), cache=False)
            or scan([(m, m) for m in range(len(units))], cache=False)
            or scan(rest, cache=True) or Verdict("yes", None, res))
