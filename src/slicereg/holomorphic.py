"""Quaternion-valued holomorphic functions on a planar slice.

HoloSliceFunction is the one slice-function interface: a type implements
eval_rows, batched over arrays, and eval is its one-row case.  Two families
are provided: power series with real center (slice regular on their ball,
powers act on the left of the coefficients) and path-continued logarithms
on a cut plane.
The continued logarithm carries its own raster table of path integrals so
that repeated evaluations share one breadth-first continuation tree.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .raster import (_GRID_STEPS, _arange_len, _block_cut_cells, _check_cells,
                     _grid_bfs)
from .errors import (DisconnectedDomainError, OutOfDomainError,
                     PreconditionError, SliceRegError, StencilError)
from .quaternions import (Quaternion, SliceCoord, UNIT_I, UnitImaginary,
                          mul_rows, norm_rows)


# ---------------------------------------------------------------------------
# plane geometry helpers (complex coordinates)
# ---------------------------------------------------------------------------

def _segment_point_distance(z0: complex, z1: complex, p: complex) -> float:
    d = z1 - z0
    L2 = d.real * d.real + d.imag * d.imag  # inf, not OverflowError, when huge
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

    A function type implements eval_rows, its one evaluator: values at the
    points x + yJ, one per row, where x and y broadcast to (n,) and the
    units J are the rows of vectors (n, 3).  It returns (values (n, 4) as
    quaternion rows, ok (n,)); rows where the function is undefined have ok
    False and NaN values.  eval is its one-row case.
    """

    slice_unit: UnitImaginary | None = None

    def eval_rows(self, x, y, vectors):  # pragma: no cover
        raise NotImplementedError

    def eval(self, coord: SliceCoord) -> Quaternion:
        """The value at one point, from one eval_rows row; a real point is
        taken with unit i.  Raises OutOfDomainError where the row is not
        ok."""
        real = coord.is_real
        values, ok = self.eval_rows(coord.x, 0.0 if real else coord.y,
                                    [(UNIT_I if real else coord.unit).to_list()])
        if not ok[0]:
            raise OutOfDomainError(
                f"point ({coord.x:g}, {coord.y:g}) lies outside the function's domain")
        return Quaternion.from_list(values[0])


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

    def eval_rows(self, x, y, vectors):
        """Horner's scheme on quaternion rows q = [x - center, y v], one row
        per point; rows with |q| >= radius are not ok."""
        v = np.asarray(vectors, dtype=float).reshape(-1, 3)
        q = np.empty((len(v), 4))
        q[:, 0] = np.asarray(x, dtype=float) - self.center
        q[:, 1:] = np.asarray(y, dtype=float).reshape(-1, 1) * v
        ok = norm_rows(q) < self.radius
        acc = np.asarray(self.coeffs[-1].to_list())
        for a in reversed(self.coeffs[:-1]):
            acc = mul_rows(q, acc) + a.to_list()
        values = np.broadcast_to(acc, q.shape).copy()
        values[~ok] = np.nan
        return values, ok


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
        self._xs = self._ys = self._x0 = self._y0 = self._free = self._value = None
        r = range(-self.ANCHOR_RADIUS, self.ANCHOR_RADIUS + 1)
        self._anchor_offsets = [(dy, dx) for _, dy, dx in sorted(
            (dy * dy + dx * dx, dy, dx) for dy in r for dx in r)]

    # -- construction ------------------------------------------------------

    def _build(self):
        xlo, xhi, ylo, yhi = self.bbox
        h = self.step
        if not h > 0.0:
            raise PreconditionError("continuation step must be positive")
        _check_cells(_arange_len(ylo + h / 2.0, yhi, h), _arange_len(xlo + h / 2.0, xhi, h),
                     f"a continuation table at step {h:g}")
        bx, by = self.base
        if not (xlo <= bx <= xhi and ylo <= by <= yhi):
            raise PreconditionError(
                f"continuation base ({bx:g}, {by:g}) lies outside the table box "
                f"[{xlo:g}, {xhi:g}] x [{ylo:g}, {yhi:g}]")
        xs = np.arange(xlo + h / 2.0, xhi, h)
        ys = np.arange(ylo + h / 2.0, yhi, h)
        free = np.ones((ys.size, xs.size), dtype=bool)
        _block_cut_cells(free, xs, ys, self.cuts, h)
        free &= np.abs(xs[None, :] + 1j * ys[:, None] - self.pole) > 1.5 * h

        # the base's nearest cell centre, clipped for a base within h of the
        # box's top or right edge, where _block_cut_cells may drop the
        # samples of a cut between the base and the centre: the leg is tested
        ib = int(np.clip(round((by - ys[0]) / h), 0, ys.size - 1))
        jb = int(np.clip(round((bx - xs[0]) / h), 0, xs.size - 1))
        if not free[ib, jb]:
            raise DisconnectedDomainError("base point cell is blocked by a cut")
        if any(segment_crossings((bx, by), (xs[jb], ys[ib]), poly) for poly in self.cuts):
            raise DisconnectedDomainError("a cut separates the base point from its cell")

        dist, pdir = _grid_bfs(free, (ib, jb))
        value = self._accumulate(free, xs, ys, dist, pdir, (ib, jb))
        # the table is anchored at cell centers; shift so entries measure the
        # integral from the exact base point
        z_start = complex(xs[jb], ys[ib])
        z_base = complex(bx, by)
        if abs(z_start - z_base) > 1e-15:
            value[np.isfinite(value)] += integrate_reciprocal(z_base, z_start, self.pole)
        self._xs, self._ys, self._free, self._value = xs, ys, free, value
        self._x0, self._y0 = float(xs[0]), float(ys[0])

    def _accumulate(self, free, xs, ys, dist, pdir, start):
        """Path integrals along the BFS tree: each reached cell gets its
        parent's value plus the closed-form log of its edge.  Cells are flat
        indices sorted by level, so a level is one slice whose parents are
        already set.  Each level's parents and edge logs are computed inside
        the level loop, so the temporaries are bounded by the widest level;
        the edge log is computed in place in the buffer of z1."""
        ny, nx = free.shape
        value = np.full(ny * nx, np.nan + 0j, dtype=complex)
        value[start[0] * nx + start[1]] = 0.0 + 0.0j
        level = dist.ravel()
        cells = np.flatnonzero(level > 0)
        cells = cells[np.argsort(level[cells], kind="stable")]
        level = level[cells]
        offsets = np.array([dy * nx + dx for dy, dx in _GRID_STEPS])
        codes = pdir.ravel()
        lo = 0
        # level k ends where level k + 1 starts; no level is empty
        for hi in np.searchsorted(level, np.arange(2, level[-1] + 2)) if level.size else ():
            cell = cells[lo:hi]
            parent = cell - offsets[codes[cell]]
            edge = xs[cell % nx] + 1j * ys[cell // nx]  # z1
            edge -= self.pole
            z0 = xs[parent % nx] + 1j * ys[parent // nx]
            z0 -= self.pole
            edge /= z0
            np.log(edge, out=edge)
            value[cell] = value[parent] + edge
            lo = hi
        return value.reshape(ny, nx)

    def ensure_built(self):
        """Build the table unless it is built; a table that cannot be built
        raises its own error on every call."""
        if self._xs is None:
            self._build()

    # -- evaluation --------------------------------------------------------

    def _nearest_cell(self, px: float, py: float):
        """(row, column) of the cell centre nearest (px, py), building the
        table on first use.  Both anchor searches start here.  The indices
        are not clamped: a point more than h/2 past the table's edge
        centres gets one off the table.  The origin is kept as Python
        floats, so round() takes no numpy path."""
        self.ensure_built()
        h = self.step
        return round((py - self._y0) / h), round((px - self._x0) / h)

    def _usable(self, iy: int, ix: int, z0: complex, target: complex) -> bool:
        """Cell (iy, ix) is free and reached, and its straight leg to target
        keeps 1e-9 away from the pole."""
        return (bool(self._free[iy, ix]) and cmath.isfinite(self._value[iy, ix])
                and _segment_point_distance(z0, target, self.pole) >= 1e-9)

    def _anchored(self, px: float, py: float):
        """Path integrals to (px, py), one per usable anchor cell whose leg
        crosses no cut, nearest anchors first; each value is computed when
        it is drawn."""
        jy, jx = self._nearest_cell(px, py)
        ny, nx = self._free.shape
        jy, jx = min(max(jy, 0), ny - 1), min(max(jx, 0), nx - 1)
        target = complex(px, py)
        for dy, dx in self._anchor_offsets:
            iy, ix = jy + dy, jx + dx
            if not (0 <= iy < ny and 0 <= ix < nx):
                continue
            z0 = complex(self._xs[ix], self._ys[iy])
            if not self._usable(iy, ix, z0, target):
                continue
            if any(segment_crossings((z0.real, z0.imag), (px, py), poly)
                   for poly in self.cuts):
                continue
            yield complex(self._value[iy, ix]) + integrate_reciprocal(z0, target, self.pole)

    def integral_to(self, px: float, py: float) -> complex:
        """Path integral of dz/(z - pole) from the base point to (px, py).

        The value is the first one _anchored draws.  A nearest cell on the
        table has its centre within h/2 of the point per coordinate; when
        that cell is usable it is the first anchor, and its straight leg,
        which stays in the box of half-width h/2 around the centre, needs no
        crossing test.  A cut point in that box has a cut sample within h/4
        of it, so within 3h/4 of the centre, and that sample's nearest cell
        is the cell or one of its eight neighbours: _block_cut_cells would
        have blocked the cell.  Free centres are more than 1.5h from the
        pole, so the leg keeps more than 0.79h from it; the pole test of
        _usable stays, as 0.79h exceeds its 1e-9 only for h > 1.3e-9.
        Queries whose nearest cell is blocked, unreached or off the table
        run the full search.
        """
        xlo, xhi, ylo, yhi = self.bbox
        if not (xlo <= px <= xhi and ylo <= py <= yhi):
            raise OutOfDomainError(f"point ({px:g}, {py:g}) outside the cut plane box")
        iy, ix = self._nearest_cell(px, py)
        ny, nx = self._free.shape
        if 0 <= iy < ny and 0 <= ix < nx:
            z0, target = complex(self._xs[ix], self._ys[iy]), complex(px, py)
            if self._usable(iy, ix, z0, target):
                return complex(self._value[iy, ix]) + integrate_reciprocal(z0, target, self.pole)
        for value in self._anchored(px, py):
            return value
        raise DisconnectedDomainError(
            f"no continuation anchor reaches ({px:g}, {py:g})")


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

    def eval_rows(self, x, y, vectors):
        """Values at the points x + yJ, as HoloSliceFunction.eval_rows, one
        table query per row once the table is built: a table that cannot be
        built raises its own error here, once, rather than leaving every row
        not ok.  Rows that no query answers (off the carrier's plane, out of
        the box, or beyond every anchor) are not ok."""
        self._table.ensure_built()
        vectors = np.asarray(vectors, dtype=float).reshape(-1, 3)
        n = len(vectors)
        values = np.full((n, 4), np.nan)
        ok = np.zeros(n, dtype=bool)
        xs = np.broadcast_to(np.asarray(x, dtype=float), (n,)).tolist()
        ys = np.broadcast_to(np.asarray(y, dtype=float), (n,)).tolist()
        for m, (px, py, v) in enumerate(zip(xs, ys, vectors.tolist())):
            coord = SliceCoord.make(px, py, UnitImaginary(*v))
            try:
                values[m] = self.eval_plane(*self._plane_point(coord)).to_list()
            except SliceRegError:
                continue
            ok[m] = True
        return values, ok


def dbar_residual(f, coord: SliceCoord, h: float) -> float:
    """|0.5 (d/dx + J d/dy) f| by central differences of step h, from one
    f.eval_rows call on the four stencil points; f is any HoloSliceFunction,
    the StemPair of an extension among them.

    For holomorphic f the value decays like h^2 times the local third
    derivative scale; an O(1) value flags non-holomorphy.
    """
    if h <= 0.0:
        raise ValueError("step must be positive")
    unit = coord.unit
    if unit is None:
        raise ValueError("dbar residual at a real point needs an explicit unit")
    x, y = coord.x, coord.y
    # stencil points x + h, x - h, y + h, y - h, canonical as SliceCoord.make
    # writes them: a point below the axis is x + |y|(-J)
    xs = np.array([x + h, x - h, x, x])
    ys = np.array([y, y, y + h, y - h])
    below = ys < 0.0
    vectors = np.where(below[:, None], -np.array(unit.to_list()), unit.to_list())
    values, ok = f.eval_rows(xs, np.abs(ys), vectors)
    if not ok.all():
        m = int(np.argmin(ok))
        raise StencilError(f"stencil exits the domain at ({xs[m]:g}, {ys[m]:g})")
    fxp, fxm, fyp, fym = (Quaternion.from_list(v) for v in values)
    dx = (fxp - fxm) / (2.0 * h)
    dy = (fyp - fym) / (2.0 * h)
    res = (dx + unit.as_quaternion() * dy) * 0.5
    return res.norm()
