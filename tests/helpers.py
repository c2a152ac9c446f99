"""Independent oracles used to freeze expected values, the grid kernels
and scalar evaluators that faster paths replaced, and the few path
integral and arc helpers that only tests use.

The oracles deliberately avoid the code paths they check: polynomial
evaluation sums explicit powers instead of Horner, and the winding oracle
tracks argument increments instead of integrating.
"""
import math
import random
from dataclasses import replace
from itertools import islice

import numpy as np

from slicereg import Quaternion, SliceCoord, UnitImaginary, rep_coeffs
from slicereg.errors import (ConsistencyError, GeometryError, OutOfDomainError,
                             PreconditionError, SliceRegError)
from slicereg.counterexample import t_of
from slicereg.domains import (SphereSample, Verdict, _and_grids, _hull_witness,
                              is_slice_domain, omega_jk_plus, rasterize)
from slicereg.raster import (_GRID_STEPS, _grid_bfs, _points_to_polyline_dist,
                             _run_components)
from slicereg.holomorphic import integrate_reciprocal
from slicereg.local import _probe_units
from slicereg.quaternions import rotate_toward


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


def continued_log_rows(fn, x, y, vectors):
    """Scalar oracle of ContinuedLog.eval_rows: one eval_plane query per
    row at the point's plane coordinates, mapped from SliceCoord.make(x, y,
    UnitImaginary(*v)); rows that raise SliceRegError are not ok."""
    vectors = np.asarray(vectors, dtype=float).reshape(-1, 3)
    n = len(vectors)
    values = np.full((n, 4), np.nan)
    ok = np.zeros(n, dtype=bool)
    xs = np.broadcast_to(np.asarray(x, dtype=float), (n,)).tolist()
    ys = np.broadcast_to(np.asarray(y, dtype=float), (n,)).tolist()
    for m, (px, py, v) in enumerate(zip(xs, ys, vectors.tolist())):
        coord = SliceCoord.make(px, py, UnitImaginary(*v))
        if coord.is_real:
            point = (coord.x, 0.0)
        elif coord.unit.approx(fn.carrier):
            point = (coord.x, coord.y)
        elif coord.unit.approx(-fn.carrier):
            point = (coord.x, -coord.y)
        else:
            continue
        try:
            values[m] = fn.eval_plane(*point).to_list()
        except SliceRegError:
            continue
        ok[m] = True
    return values, ok


# ---------------------------------------------------------------------------
# per-point membership oracles
# ---------------------------------------------------------------------------
# The loops that tested one point at a time before DomainSpec.contains_rows
# and the validators' blocks of draws.

def scalar_contains(spec, x, y, J):
    """Oracle of DomainSpec.contains_rows at one point: a negative height
    flips the unit, the real axis reads real_trace and other points the
    membership, and then each cut of J is tested one polyline at a time."""
    if y < 0.0:
        if J is None:
            raise ValueError("negative height requires a unit")
        return scalar_contains(spec, x, -y, -J)
    jx, jy, jz = (J.vx, J.vy, J.vz) if J is not None else (1.0, 0.0, 0.0)
    if y == 0.0:
        ok = bool(np.asarray(spec.real_trace(np.asarray(x))).reshape(-1)[0])
    else:
        ok = bool(np.asarray(spec.membership(x, y, jx, jy, jz)).reshape(-1)[0])
    if not ok or spec.cuts is None or J is None:
        return ok
    tol = max(spec.cut_clearance, 0.0)
    for poly in spec.cuts(J):
        if _points_to_polyline_dist([x], [y], poly)[0] <= tol:
            return False
    return True


def tube_contains(tube, x, y, J):
    """Membership of one point x + yJ, y >= 0, in a TubeDomain."""
    return bool(np.asarray(tube.membership(x, y, J.vx, J.vy, J.vz)).reshape(-1)[0])


def cut_probe_loop(spec, sample):
    """Oracle of is_symmetric's cut probe: (x, y, J, K) of the first cut
    point whose membership on a probe unit K differs from that on the unit
    J whose cut it is, or None; one scalar_contains call per point and
    unit."""
    probe_units = sample.units[:: max(1, len(sample.units) // 16)]
    for J in probe_units:
        for poly in spec.cuts(J):
            pts = np.asarray(poly, float)
            sub = pts[:: max(1, len(pts) // 16)]
            for px, py in sub[sub[:, 1] > 0]:
                on_J = scalar_contains(spec, px, py, J)
                for K in probe_units:
                    if not K.approx(J) and scalar_contains(spec, px, py, K) != on_J:
                        return float(px), float(py), J, K
    return None


def validate_holomorphic_loop(fI, domain, unit, h=1e-3):
    """Oracle of extension._validate_holomorphic: one draw, one cross of
    four scalar_contains calls and one dbar_four_evals per attempt."""
    x_min, x_max, y_max = domain.bbox
    rng = random.Random(7)
    checked = 0
    for _ in range(200):
        if checked >= 6:
            break
        x = rng.uniform(x_min, x_max)
        y = rng.uniform(2 * h, max(y_max, 2 * h))
        if not all(scalar_contains(domain, xx, yy, unit)
                   for xx, yy in ((x - 2 * h, y), (x + 2 * h, y),
                                  (x, y - 2 * h), (x, y + 2 * h))):
            continue
        try:
            res = dbar_four_evals(fI, SliceCoord.make(x, y, unit), h)
            scale = 1.0 + fI.eval(SliceCoord.make(x, y, unit)).norm()
        except PreconditionError:
            raise
        except SliceRegError:
            continue
        if res > 1e-4 * scale:
            raise PreconditionError(
                f"slice restriction is not holomorphic (dbar {res:.2e} at "
                f"({x:.3f}, {y:.3f}))")
        checked += 1


def validate_tube_loop(tube, Y, n_points=200):
    """Oracle of local._validate_tube: one draw and one membership test of
    the tube and of Y per attempt, then the same raster check."""
    rng = random.Random(2)
    pts = tube.polyline
    pad = tube.epsilon * 1.05
    lo_x, hi_x = float(pts[:, 0].min() - pad), float(pts[:, 0].max() + pad)
    hi_y = float(pts[:, 1].max() + pad)
    units = _probe_units(tube.unit)
    checked = attempts = 0
    while checked < n_points and attempts < 400 * n_points:
        attempts += 1
        x = rng.uniform(lo_x, hi_x)
        y = rng.uniform(0.0, hi_y)
        W = rng.choice(units)
        if not tube_contains(tube, x, y, W):
            continue
        checked += 1
        if y == 0.0:
            ok = bool(np.asarray(Y.real_trace(np.asarray(x))).reshape(-1)[0])
        else:
            ok = scalar_contains(Y, x, y, W)
        if not ok:
            raise GeometryError(f"tube leaves the carrier domain at ({x:g}, {y:g})")
    h = tube.raster_budget_step()
    if h <= tube.waist / 5.0:
        verdict = is_slice_domain(tube.as_domain_spec(h=h), SphereSample(4), h=h)
        if not verdict.is_yes:
            raise GeometryError(f"tube failed the slice-domain raster check: {verdict}")


def validate_local_loop(f, stem, n_spec, tube, j0, k0, chi, seed, n_points=100):
    """Oracle of local._validate_local's tube sampling: one draw, one tube
    test and one stem and one f evaluation per attempt.  Returns the
    (tube_max_err, tube_points) of its checks, or raises its error."""
    rng = random.Random(seed)
    palette = [j0, k0]
    if 0.0 < chi < 2.0:
        for frac in (0.25, 0.375):
            try:
                palette.append(rotate_toward(j0, chi * frac))
            except ValueError:
                pass
    pts = tube.polyline
    pad = tube.epsilon
    lo_x, hi_x = float(pts[:, 0].min() - pad), float(pts[:, 0].max() + pad)
    hi_y = float(pts[:, 1].max() + pad)
    max_err = 0.0
    collected = attempts = 0
    while collected < n_points and attempts < 200 * n_points:
        attempts += 1
        x = rng.uniform(lo_x, hi_x)
        y = rng.uniform(0.0, hi_y)
        W = rng.choice(palette)
        if y <= 1e-9 or not tube_contains(tube, x, y, W):
            continue
        coord = SliceCoord.make(x, y, W)
        try:
            err = (stem.eval(coord) - f.eval(coord)).norm()
        except SliceRegError:
            continue
        max_err = max(max_err, err)
        collected += 1
    if collected < n_points:
        raise ConsistencyError("could not collect enough tube sample points")
    if max_err > 1e-8:
        raise ConsistencyError(f"extension differs from f on the tube by {max_err:.3e}")
    return max_err, collected
