"""Quaternion-valued holomorphic functions on a planar slice.

Three families are provided: power series with real center (slice regular on
their ball, powers act on the left of the coefficients), path-continued
logarithms on a cut plane, and restrictions of stem pairs to one slice.
The continued logarithm carries its own raster table of path integrals so
that repeated evaluations share one breadth-first continuation tree.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .domains import _GRID_STEPS, _block_cut_cells, _grid_bfs
from .errors import (DisconnectedDomainError, OutOfDomainError, StencilError)
from .quaternions import Quaternion, SliceCoord, UnitImaginary


# ---------------------------------------------------------------------------
# plane geometry helpers (complex coordinates)
# ---------------------------------------------------------------------------

def _segment_point_distance(z0: complex, z1: complex, p: complex) -> float:
    d = z1 - z0
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return abs(z0 - p)
    t = ((p - z0).real * d.real + (p - z0).imag * d.imag) / L2
    t = min(1.0, max(0.0, t))
    return abs(z0 + t * d - p)


def integrate_reciprocal(z0: complex, z1: complex, pole: complex) -> complex:
    """Integral of dz/(z - pole) over the segment z0-z1.

    A segment that misses the pole turns by less than pi around it, so the
    integral is exactly the principal log((z1 - pole) / (z0 - pole)).
    """
    if _segment_point_distance(z0, z1, pole) < 1e-12:
        raise OutOfDomainError("integration segment passes through the pole")
    return cmath.log((z1 - pole) / (z0 - pole))


def polyline_integral(points, pole: complex) -> complex:
    """Integral of dz/(z - pole) along a polyline of (x, y) vertices."""
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


def segment_crossings(p, q, polyline) -> int:
    """Count intersections of segment p-q with a polyline.

    Touching and collinear overlaps count as crossings; callers use the
    count conservatively (nonzero means "do not integrate along p-q").
    """
    pts = np.asarray(polyline, dtype=float)
    if pts.shape[0] < 2:
        return 0
    a = pts[:-1]
    b = pts[1:]
    px, py = float(p[0]), float(p[1])
    qx, qy = float(q[0]), float(q[1])

    def orient(ox, oy, ax, ay, bx, by):
        return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)

    d1 = orient(px, py, qx, qy, a[:, 0], a[:, 1])
    d2 = orient(px, py, qx, qy, b[:, 0], b[:, 1])
    d3 = orient(a[:, 0], a[:, 1], b[:, 0], b[:, 1], px, py)
    d4 = orient(a[:, 0], a[:, 1], b[:, 0], b[:, 1], qx, qy)
    hits = (d1 * d2 <= 0.0) & (d3 * d4 <= 0.0)
    # reject far-apart degenerate cases where all four orientations vanish
    # but bounding boxes do not overlap
    if not hits.any():
        return 0
    amin = np.minimum(a, b)
    amax = np.maximum(a, b)
    lo_x, hi_x = min(px, qx), max(px, qx)
    lo_y, hi_y = min(py, qy), max(py, qy)
    boxes = (amin[:, 0] <= hi_x) & (amax[:, 0] >= lo_x) & \
            (amin[:, 1] <= hi_y) & (amax[:, 1] >= lo_y)
    return int(np.count_nonzero(hits & boxes))


# ---------------------------------------------------------------------------
# function variants
# ---------------------------------------------------------------------------

class HoloSliceFunction:
    """Base type: an H-valued holomorphic function attached to one slice.

    slice_unit is the unit J such that the function is considered a map on
    a domain of L_J.  PowerSeries leaves it None (defined on every slice)
    until restricted with on_slice().
    """

    slice_unit: UnitImaginary | None = None

    def eval(self, coord: SliceCoord) -> Quaternion:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class PowerSeries(HoloSliceFunction):
    """f(q) = sum_n (q - x0)^n a_n with real center x0 and right coefficients."""

    coeffs: tuple
    center: float = 0.0
    radius: float = math.inf
    slice_unit: UnitImaginary | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            object.__setattr__(self, "coeffs", (Quaternion(0.0),))

    def on_slice(self, unit: UnitImaginary) -> "PowerSeries":
        return replace(self, slice_unit=unit)

    def eval(self, coord: SliceCoord) -> Quaternion:
        q = coord.to_quaternion() - self.center
        if q.norm() >= self.radius:
            raise OutOfDomainError("point outside the series' ball of convergence")
        acc = self.coeffs[-1]
        for a in reversed(self.coeffs[:-1]):
            acc = q * acc + a
        return acc


class _PlaneContinuation:
    """Shared raster table of path integrals of 1/(z - pole) on a cut plane.

    The table is a breadth-first continuation tree over free grid cells;
    evaluations add one closed-form straight leg from the nearest usable cell
    center.  Built on first use, read-only afterwards.
    """

    ANCHOR_RADIUS = 4

    def __init__(self, pole, base, cuts, bbox, step):
        self.pole = complex(pole[0], pole[1])
        self.base = (float(base[0]), float(base[1]))
        self.cuts = tuple(np.asarray(c, dtype=float) for c in cuts)
        self.bbox = tuple(float(v) for v in bbox)  # (xlo, xhi, ylo, yhi)
        self.step = float(step)
        self._xs = self._ys = self._free = self._value = None
        r = range(-self.ANCHOR_RADIUS, self.ANCHOR_RADIUS + 1)
        self._anchor_offsets = [(dy, dx) for _, dy, dx in sorted(
            (dy * dy + dx * dx, dy, dx) for dy in r for dx in r)]

    # -- construction ------------------------------------------------------

    def _build(self):
        xlo, xhi, ylo, yhi = self.bbox
        h = self.step
        xs = np.arange(xlo + h / 2.0, xhi, h)
        ys = np.arange(ylo + h / 2.0, yhi, h)
        free = np.ones((ys.size, xs.size), dtype=bool)
        _block_cut_cells(free, xs, ys, self.cuts, h)
        zz = xs[None, :] + 1j * ys[:, None]
        free &= np.abs(zz - self.pole) > 1.5 * h

        bx, by = self.base
        ib = int(np.clip(round((by - ys[0]) / h), 0, ys.size - 1))
        jb = int(np.clip(round((bx - xs[0]) / h), 0, xs.size - 1))
        if not free[ib, jb]:
            raise DisconnectedDomainError("base point cell is blocked by a cut")

        dist, pdir = _grid_bfs(free, (ib, jb))
        value = self._accumulate(free, xs, ys, dist, pdir, (ib, jb))
        # the table is anchored at cell centers; shift so entries measure the
        # integral from the exact base point
        z_start = complex(xs[jb], ys[ib])
        z_base = complex(bx, by)
        if abs(z_start - z_base) > 1e-15:
            value[np.isfinite(value)] += integrate_reciprocal(z_base, z_start, self.pole)
        self._xs, self._ys, self._free, self._value = xs, ys, free, value

    def _accumulate(self, free, xs, ys, dist, pdir, start):
        steps = np.array(_GRID_STEPS)
        ny, nx = free.shape
        value = np.full((ny, nx), np.nan + 0j, dtype=complex)
        value[start] = 0.0 + 0.0j

        reached = dist > 0
        iy, ix = np.nonzero(reached)
        codes = pdir[iy, ix]
        py = iy - steps[codes, 0]
        px = ix - steps[codes, 1]
        z1 = xs[ix] + 1j * ys[iy]
        z0 = xs[px] + 1j * ys[py]
        edge = np.log((z1 - self.pole) / (z0 - self.pole))

        # accumulate level by level
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

    # -- evaluation --------------------------------------------------------

    def _anchored(self, px: float, py: float):
        """Path integrals to (px, py), one per usable anchor cell, nearest
        anchors first; each value is computed when it is drawn."""
        if self._xs is None:
            self._build()
        h = self.step
        jx = int(np.clip(round((px - self._xs[0]) / h), 0, self._xs.size - 1))
        jy = int(np.clip(round((py - self._ys[0]) / h), 0, self._ys.size - 1))
        target = complex(px, py)
        for dy, dx in self._anchor_offsets:
            iy, ix = jy + dy, jx + dx
            if not (0 <= iy < self._ys.size and 0 <= ix < self._xs.size):
                continue
            if not self._free[iy, ix] or not np.isfinite(self._value[iy, ix]):
                continue
            z0 = complex(self._xs[ix], self._ys[iy])
            if _segment_point_distance(z0, target, self.pole) < 1e-9:
                continue
            if any(segment_crossings((z0.real, z0.imag), (px, py), poly)
                   for poly in self.cuts):
                continue
            yield complex(self._value[iy, ix]) + integrate_reciprocal(z0, target, self.pole)

    def integral_to(self, px: float, py: float) -> complex:
        """Path integral of dz/(z - pole) from the base point to (px, py)."""
        xlo, xhi, ylo, yhi = self.bbox
        if not (xlo <= px <= xhi and ylo <= py <= yhi):
            raise OutOfDomainError(f"point ({px:g}, {py:g}) outside the cut plane box")
        for value in self._anchored(px, py):
            return value
        raise DisconnectedDomainError(
            f"no continuation anchor reaches ({px:g}, {py:g})")

    def anchored_integrals(self, px: float, py: float, count: int = 2):
        """Values via several distinct anchors; used by path-independence tests."""
        return list(islice(self._anchored(px, py), count))


@dataclass(frozen=True)
class ContinuedLog(HoloSliceFunction):
    """Logarithm-type function continued over a cut plane.

    Value at a plane point z is base_value + dress(integral of 1/(z - pole)
    along a path from the base point), where dress maps u + iv to the
    quaternion u + carrier*v.  The plane carries the coordinates of the
    carrier unit's slice; evaluation accepts points of L_carrier written
    with either the carrier or its antipode.
    """

    pole: tuple
    base: tuple
    base_value: Quaternion
    cuts: tuple
    carrier: UnitImaginary
    slice_unit: UnitImaginary = None
    bbox: tuple = (-5.0, 5.0, -5.0, 5.0)
    step: float = 0.05
    _table: _PlaneContinuation = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "cuts", tuple(np.asarray(c, float) for c in self.cuts))
        if self.slice_unit is None:
            object.__setattr__(self, "slice_unit", self.carrier)
        if self._table is None:
            object.__setattr__(self, "_table", _PlaneContinuation(
                self.pole, self.base, self.cuts, self.bbox, self.step))

    def on_slice(self, unit: UnitImaginary) -> "ContinuedLog":
        """View of the same function attached to the given slice unit
        (must be the carrier or its antipode); shares the table."""
        if not (unit.approx(self.carrier) or unit.approx(-self.carrier)):
            raise OutOfDomainError("function lives on the carrier's plane only")
        return replace(self, slice_unit=unit, _table=self._table)

    def _plane_point(self, coord: SliceCoord):
        if coord.is_real:
            return coord.x, 0.0
        u = coord.unit
        if u.approx(self.carrier):
            return coord.x, coord.y
        if u.approx(-self.carrier):
            return coord.x, -coord.y
        raise OutOfDomainError("point lies outside the function's slice plane")

    def eval_plane(self, px: float, py: float) -> Quaternion:
        w = self._table.integral_to(px, py)
        c = self.carrier.as_quaternion()
        return self.base_value + Quaternion(w.real) + c * w.imag

    def eval(self, coord: SliceCoord) -> Quaternion:
        px, py = self._plane_point(coord)
        return self.eval_plane(px, py)

    def loop_consistency(self, loop) -> float:
        """|integral of dz/(z - pole)| around a closed polyline."""
        return abs(polyline_integral(loop, self._table.pole))


@dataclass(frozen=True)
class StemRestriction(HoloSliceFunction):
    """Restriction of a stem pair to one slice: f(x + yJ) = b(x,y) + J c(x,y)."""

    stem: object
    slice_unit: UnitImaginary = None

    def eval(self, coord: SliceCoord) -> Quaternion:
        unit = coord.unit if coord.unit is not None else self.slice_unit
        return self.stem.eval(SliceCoord.make(coord.x, coord.y, unit))


def dbar_residual(f: HoloSliceFunction, coord: SliceCoord, h: float) -> float:
    """|0.5 (d/dx + J d/dy) f| by central differences of step h.

    For holomorphic f the value decays like h^2 times the local third
    derivative scale; an O(1) value flags non-holomorphy.
    """
    if h <= 0.0:
        raise ValueError("step must be positive")
    unit = coord.unit
    if unit is None:
        raise ValueError("dbar residual at a real point needs an explicit unit")
    x, y = coord.x, coord.y
    try:
        fxp = f.eval(SliceCoord.make(x + h, y, unit))
        fxm = f.eval(SliceCoord.make(x - h, y, unit))
        fyp = f.eval(SliceCoord.make(x, y + h, unit))
        fym = f.eval(SliceCoord.make(x, y - h, unit))
    except OutOfDomainError as exc:
        raise StencilError(f"stencil exits the domain: {exc}") from exc
    dx = (fxp - fxm) / (2.0 * h)
    dy = (fyp - fym) / (2.0 * h)
    res = (dx + unit.as_quaternion() * dy) * 0.5
    return res.norm()
