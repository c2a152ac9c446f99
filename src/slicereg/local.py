"""Tubes along a path and the constructive local extension.

A tube (slicereg.specs.TubeDomain) is a union of balls along a compact
path in one slice plane; build_tube fits one inside a domain.
local_extend finds a grid path from a point down to the real axis,
thickens it to a tube, completes a nearby slice of the tube to a symmetric
slice domain, and extends the function there by the two-slice formula of
slicereg.extension, checking the result on the real trace and the tube.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .domains import (DomainSpec, SphereSample, completion_of_slice,
                      is_slice_domain, rasterize)
from .errors import (ConsistencyError, GeometryError, PathError,
                     PreconditionError, SliceRegError)
from .extension import StemPair, _draws, _two_slice_stem
from .quaternions import (SliceCoord, UNIT_I, UnitImaginary, norm_rows,
                          rotate_toward)
from .raster import _grid_path, _points_to_polyline_dist, resample_polyline
from .specs import TubeDomain, ball_spec, intersect_specs


def _probe_units(J0: UnitImaginary):
    return [J0, -J0] + SphereSample(8).units


def _clearance_radii(samples: np.ndarray, J0: UnitImaginary, Y: DomainSpec,
                     hi0: float, iters: int = 16) -> np.ndarray:
    """Per-sample estimate of the distance to the boundary of Y, by bisecting
    probe rings of points of H around each sample."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False) + 0.11
    # probes on the axes (unit, angle, sample); math's cos and sin, so each
    # probe point is the float a scalar evaluation of it gives
    cos_t = np.array([math.cos(th) for th in thetas])[:, None]
    sin_t = np.array([math.sin(th) for th in thetas])[:, None]
    wx, wy, wz = np.array([[W.vx, W.vy, W.vz]
                           for W in _probe_units(J0)]).T[:, :, None, None]
    n = samples.shape[0]
    lo = np.zeros(n)
    hi = np.full(n, hi0)

    def feasible(r):
        """Whether every probe at radius r lies in Y, in one membership call."""
        rs = r * sin_t
        ivx = samples[:, 1] * J0.vx + rs * wx
        ivy = samples[:, 1] * J0.vy + rs * wy
        ivz = samples[:, 1] * J0.vz + rs * wz
        px = np.broadcast_to(samples[:, 0] + r * cos_t, ivx.shape)
        yn = np.sqrt(ivx * ivx + ivy * ivy + ivz * ivz)
        tiny = yn < 1e-12
        jxn = np.where(tiny, 1.0, ivx / np.where(tiny, 1.0, yn))
        jyn = np.where(tiny, 0.0, ivy / np.where(tiny, 1.0, yn))
        jzn = np.where(tiny, 0.0, ivz / np.where(tiny, 1.0, yn))
        mem = np.asarray(Y.membership(px, yn, jxn, jyn, jzn), dtype=bool)
        mem = np.broadcast_to(mem, px.shape).copy()
        if tiny.any():
            mem[tiny] = np.asarray(Y.real_trace(px[tiny]), dtype=bool)
        return mem.all(axis=(0, 1))

    # expand the certified radius from below
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        good = feasible(mid)
        lo = np.where(good, mid, lo)
        hi = np.where(good, hi, mid)
    return lo


def _cut_clearance(samples: np.ndarray, J0: UnitImaginary, Y: DomainSpec) -> np.ndarray:
    """Per-sample distance to the union of the cut curves over probe slices."""
    best = np.full(samples.shape[0], math.inf)
    if Y.cuts is None:
        return best
    for W in _probe_units(J0):
        dotw = J0.vx * W.vx + J0.vy * W.vy + J0.vz * W.vz
        for poly in Y.cuts(W):
            pts = resample_polyline(np.asarray(poly, dtype=float), 0.05)
            cx, cy = pts[:, 0], pts[:, 1]
            d2 = (samples[:, 0][:, None] - cx[None, :]) ** 2 \
                + samples[:, 1][:, None] ** 2 + cy[None, :] ** 2 \
                - 2.0 * samples[:, 1][:, None] * cy[None, :] * dotw
            best = np.minimum(best, np.sqrt(np.maximum(d2.min(axis=1), 0.0)))
    return best


def build_tube(C, Y: DomainSpec, shrink: float,
               carrier: UnitImaginary | None = None,
               where: str | None = None) -> TubeDomain:
    """Tube around the compact path C inside Y.

    The radius scale is epsilon = shrink * min over C of the boundary
    clearance, where the clearance of a non-real point p is measured
    against the ball the tube actually places there, i.e. scaled by
    y_ref / |im p| (the unscaled minimum would collapse for paths whose
    clearance thins linearly toward the real axis, such as a tube built
    inside another tube, although the construction stays valid there).

    C is a polyline in the carrier's slice plane with heights >= 0 whose
    zero-height vertices form one contiguous run (a closed real interval,
    possibly a single point); its non-real part must lie in the open upper
    half slice of Y, which one contains_rows call checks on a resampling
    of C; where, when given, names C in that check's message.  The tube
    is validated against Y (_validate_tube).
    """
    if not 0.0 < shrink < 1.0:
        raise PreconditionError("shrink must lie in (0, 1)")
    pts = np.asarray(C, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise PreconditionError("C must be a polyline of (x, y) vertices")
    pts = pts.copy()
    pts[np.abs(pts[:, 1]) < 1e-12, 1] = 0.0
    if (pts[:, 1] < 0.0).any():
        raise PreconditionError("C must not descend below the real axis")
    real_mask = pts[:, 1] == 0.0
    if not real_mask.any():
        raise PreconditionError("C must meet the real axis in a closed interval")
    runs = np.nonzero(real_mask)[0]
    if runs.size > 1 and not (np.diff(runs) == 1).all():
        raise PreconditionError("the real part of C must be one closed interval")
    if carrier is None:
        carrier = UNIT_I
    y_ref = float(pts[:, 1].max())

    dense = np.asarray(pts, dtype=float)
    if dense.shape[0] > 1:
        span = max(np.ptp(dense[:, 0]), np.ptp(dense[:, 1]), 1e-6)
        dense = resample_polyline(dense, max(span / 64.0, 1e-4))

    up = dense[dense[:, 1] > 0.0]
    out = ~Y.contains_rows(up[:, 0], up[:, 1], np.broadcast_to(carrier.to_list(), (len(up), 3)))
    if out.any():
        px, py = up[out][0]
        raise PreconditionError(f"{where + ': ' if where else ''}C leaves the upper half "
                                f"slice of Y at ({px:g}, {py:g})")
    rt = np.asarray(Y.real_trace(dense[dense[:, 1] == 0.0][:, 0]), dtype=bool)
    if rt.size and not rt.all():
        raise PreconditionError("the real part of C leaves Y")

    hi0 = max(y_ref, 0.5) * 2.0 + 0.5
    radii = _clearance_radii(dense, carrier, Y, hi0)
    radii = np.minimum(radii, _cut_clearance(dense, carrier, Y))
    ys = dense[:, 1]
    if y_ref > 0.0:
        scale = np.where(ys == 0.0, 1.0, y_ref / np.maximum(ys, y_ref / 256.0))
        bounds = radii * scale
        epsilon = shrink * min(float(bounds.min()), y_ref)
    else:
        epsilon = shrink * float(radii.min())
    if not math.isfinite(epsilon) or epsilon <= 1e-9:
        raise GeometryError("tube radius underflow: C touches the boundary of Y")

    tube = TubeDomain(unit=carrier, polyline=pts, epsilon=epsilon,
                      y_ref=y_ref, h=min(Y.h, max(epsilon / 6.0, 1e-4)))
    _validate_tube(tube, Y)
    return tube


def _tube_points(tube: TubeDomain, units, pad: float, seed: int, attempts: int):
    """The points of the tube among attempts random draws from
    random.Random(seed), each a point of the box of the tube's path padded
    by pad * epsilon and one of the units, as blocks of (x, y, unit
    vectors) in draw order (extension._draws)."""
    rng = random.Random(seed)
    pts = tube.polyline
    pad *= tube.epsilon
    lo_x, hi_x = float(pts[:, 0].min() - pad), float(pts[:, 0].max() + pad)
    hi_y = float(pts[:, 1].max() + pad)
    vectors = np.array([W.to_list() for W in units])
    for block in _draws(lambda: (rng.uniform(lo_x, hi_x), rng.uniform(0.0, hi_y),
                                 rng.choice(range(len(vectors)))), attempts):
        x, y, v = block[:, 0], block[:, 1], vectors[block[:, 2].astype(int)]
        inside = tube.membership(x, y, *v.T)
        yield x[inside], y[inside], v[inside]


def _validate_tube(tube: TubeDomain, Y: DomainSpec, n_points: int = 200):
    """Checks the tube stays inside Y (the falsifiable part of the
    construction) on the first n_points random points of the tube, drawn a
    block at a time, and, when the waist is resolvable within the raster
    budget, that the slice-domain verdict holds on a grid.  Slice
    connectivity itself is structural: the balls shrink continuously along
    a connected path meeting the real axis."""
    checked = 0
    for x, y, v in _tube_points(tube, _probe_units(tube.unit), 1.05, 2, 400 * n_points):
        x, y, v = (a[:n_points - checked] for a in (x, y, v))
        ok = Y.contains_rows(x, y, v)
        if not ok.all():
            k = np.argmin(ok)
            raise GeometryError(
                f"tube leaves the carrier domain at ({x[k]:g}, {y[k]:g})")
        checked += x.size
        if checked >= n_points:
            break
    h = tube.raster_budget_step()
    if h <= tube.waist / 5.0:
        verdict = is_slice_domain(tube.as_domain_spec(h=h), SphereSample(4),
                                  h=h)
        if not verdict.is_yes:
            raise GeometryError(
                f"tube failed the slice-domain raster check: {verdict}")


@dataclass
class LocalExtension:
    """Output of the constructive local extension: a symmetric slice domain N,
    a tube neighborhood of the connecting path inside N and the original
    domain, and the extended stem pair."""

    N: DomainSpec
    tube: TubeDomain
    stem: StemPair
    j0: UnitImaginary
    k0: UnitImaginary
    path: np.ndarray
    epsilon_m: float
    epsilon_tube: float
    checks: dict = field(default_factory=dict)


def _segment_clear(spec: DomainSpec, J: UnitImaginary, p, q, h: float,
                   allow_real_end: bool) -> bool:
    seg = np.asarray([p, q], dtype=float)
    n = max(2, int(math.ceil(np.hypot(*(seg[1] - seg[0])) / (h / 2.0))) + 1)
    t = np.linspace(0.0, 1.0, n)
    px = seg[0, 0] + t * (seg[1, 0] - seg[0, 0])
    py = seg[0, 1] + t * (seg[1, 1] - seg[0, 1])
    interior = py > 0.0
    if not allow_real_end and not interior.all():
        return False
    mem = np.asarray(spec.membership(px[interior], py[interior],
                                     J.vx, J.vy, J.vz), dtype=bool)
    if not np.broadcast_to(mem, px[interior].shape).all():
        return False
    if spec.cuts is not None:
        for poly in spec.cuts(J):
            if (_points_to_polyline_dist(px, py, poly) < 0.75 * h).any():
                return False
    return True


def _shortcut(spec: DomainSpec, J: UnitImaginary, pts: np.ndarray,
              h: float) -> np.ndarray:
    out = [pts[0]]
    i = 0
    last = len(pts) - 1
    while i < last:
        j = last
        while j > i + 1:
            if _segment_clear(spec, J, pts[i], pts[j], h,
                              allow_real_end=(j == last)):
                break
            j -= 1
        out.append(pts[j])
        i = j
    return np.asarray(out)


def local_extend(f, omega: DomainSpec, p0: SliceCoord, shrink: float = 0.5,
                 seed: int = 0) -> LocalExtension:
    """Constructive local extension of f around p0 in the slice domain omega.

    Finds a grid path from p0 down to the real axis in its slice, thickens
    it to a tube M, picks a nearby unit K0 within the tube's angular reach,
    completes the K0-slice of M to a symmetric slice domain N, and extends
    f to N by the two-slice formula.  The returned tube sits inside both N
    and the original domain, and the extension agrees with f there: the
    checks sample the real trace and the tube (_validate_local).
    """
    if p0.is_real:
        return _local_extend_real(f, omega, p0, shrink)

    j0 = p0.unit
    grid = rasterize(omega, j0)
    h = grid.h
    ix = int(np.clip(round((p0.x - grid.xs[0]) / h), 0, grid.xs.size - 1))
    iy = int(np.clip(round((p0.y - grid.ys[0]) / h), 0, grid.ys.size - 1))
    if not grid.occupied[iy, ix]:
        # first free cell, row-major, of the smallest block around it
        for r in (1, 2, 3):
            y0, x0 = max(iy - r, 0), max(ix - r, 0)
            free = np.argwhere(grid.occupied[y0:iy + r + 1, x0:ix + r + 1])
            if free.size:
                iy, ix = y0 + int(free[0][0]), x0 + int(free[0][1])
                break
        else:
            raise PathError("start point has no free cell nearby")

    targets = np.zeros_like(grid.occupied)
    trace_ok = np.asarray(omega.real_trace(grid.xs), dtype=bool)
    targets[0, :] = grid.occupied[0, :] & trace_ok
    if not targets.any():
        raise PathError("no real-axis cells reachable in this slice")
    cells = _grid_path(grid.occupied, (iy, ix), targets)
    if cells is None:
        raise PathError("no grid path from the point to the real axis")

    pts = [(p0.x, p0.y)]
    pts.extend((float(grid.xs[c[1]]), float(grid.ys[c[0]])) for c in cells)
    pts.append((float(grid.xs[cells[-1][1]]), 0.0))
    gamma = _shortcut(omega, j0, np.asarray(pts), h)

    m_tube = build_tube(gamma, omega, shrink, carrier=j0)
    y_ref = m_tube.y_ref
    chi = m_tube.epsilon / y_ref
    k0 = rotate_toward(j0, chi / 2.0)
    n_spec = completion_of_slice(m_tube.as_domain_spec(), k0)
    stem = _two_slice_stem(f, j0, f, k0)

    lam = build_tube(gamma, intersect_specs(n_spec, omega), shrink, carrier=j0)
    checks = _validate_local(f, stem, n_spec, lam, j0, k0, chi, seed)
    return LocalExtension(N=n_spec, tube=lam, stem=stem, j0=j0, k0=k0,
                          path=gamma, epsilon_m=m_tube.epsilon,
                          epsilon_tube=lam.epsilon, checks=checks)


def _local_extend_real(f, omega: DomainSpec, p0: SliceCoord, shrink: float):
    sample = np.array([[p0.x, 0.0]])
    radius = float(_clearance_radii(sample, UNIT_I, omega, 2.0)[0])
    radius = min(radius, _cut_clearance(sample, UNIT_I, omega))
    radius *= shrink
    if radius <= 1e-9:
        raise GeometryError("no interior ball around the real point")
    ball = ball_spec(p0.x, radius, h=omega.h)
    unit = UNIT_I
    stem = _two_slice_stem(f, unit, f, -unit)
    tube = TubeDomain(unit=unit, polyline=np.array([[p0.x, 0.0]]),
                      epsilon=radius, y_ref=0.0, h=omega.h)
    checks = _validate_local(f, stem, ball, tube, unit, -unit, 1.0, 0)
    return LocalExtension(N=ball, tube=tube, stem=stem, j0=unit, k0=-unit,
                          path=np.array([[p0.x, 0.0]]), epsilon_m=radius,
                          epsilon_tube=radius, checks=checks)


def _validate_local(f, stem: StemPair, n_spec: DomainSpec, tube: TubeDomain,
                    j0, k0, chi, seed, n_points: int = 100):
    x_min, x_max, _ = n_spec.bbox
    xs = np.linspace(x_min, x_max, 61)
    xs = xs[np.asarray(n_spec.real_trace(xs), dtype=bool)]
    # on the axis the stem's b is f itself, so the trace is checked on b's
    # limit y -> 0+, which the two-slice formula computes
    b, _, ok = stem.stems(xs, np.full_like(xs, 1e-7))
    fx, f_ok = f.eval_rows(xs, 0.0, np.broadcast_to(j0.to_list(), (len(xs), 3)))
    max_real = float(norm_rows(b - fx)[ok & f_ok].max(initial=0.0))
    if max_real > 1e-9:
        raise ConsistencyError(f"extension differs from f on the real trace "
                               f"by {max_real:.3e}")

    palette = [j0, k0]
    if 0.0 < chi < 2.0:
        for frac in (0.25, 0.375):
            try:
                palette.append(rotate_toward(j0, chi * frac))
            except ValueError:
                pass
    max_err = 0.0
    collected = 0
    # the first n_points tube points off the axis where both stem and f are
    # defined
    for x, y, v in _tube_points(tube, palette, 1.0, seed, 200 * n_points):
        off = y > 1e-9
        x, y, v = x[off], y[off], v[off]
        try:
            (sv, s_ok), (fv, f_ok) = (g.eval_rows(x, y, v) for g in (stem, f))
        except SliceRegError:
            continue
        err = norm_rows(sv - fv)[s_ok & f_ok][:n_points - collected]
        max_err = max(max_err, float(err.max(initial=0.0)))
        collected += err.size
        if collected >= n_points:
            break
    if collected < n_points:
        raise ConsistencyError("could not collect enough tube sample points")
    if max_err > 1e-8:
        raise ConsistencyError(f"extension differs from f on the tube "
                               f"by {max_err:.3e}")
    return {"real_trace_max_err": max_real, "tube_max_err": max_err,
            "tube_points": collected}
