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
                          imaginary_rows, mul_rows, norm_rows)


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


def _segment_point_distances(x0, y0, x1, y1, p: complex) -> np.ndarray:
    """_segment_point_distance per row, from the segments' end coordinates
    (float arrays): the same sums and products, so each row's value is the
    scalar's (a zero may differ in sign inside, which hypot drops).  A
    point segment's t is 0/0 and an overflowing one's inf/inf, each NaN
    clamped to 0 as max(0.0, nan) is."""
    dx, dy = x1 - x0, y1 - y0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t = ((p.real - x0) * dx + (p.imag - y0) * dy) / (dx * dx + dy * dy)
    t = np.where(t > 0.0, t, 0.0)
    t = np.where(t < 1.0, t, 1.0)
    return np.hypot(x0 + t * dx - p.real, y0 + t * dy - p.imag)


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
        # values past the float range are inf or NaN, and callers test them
        with np.errstate(over="ignore", invalid="ignore"):
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

    def integral_rows(self, px, py):
        """integral_to at the points (px, py), float arrays (n,), as (w (n,)
        complex, ok (n,)); ok is False where integral_to raises.

        Each point's nearest cell is found at once, with round()'s
        half-to-even index (np.rint) and _usable's test; a usable cell gives
        its value plus the straight leg, whose log is taken by cmath over a
        list, as integral_to takes it (np.log need not match it in the last
        bit).  Only the other points in the box run integral_to itself."""
        self.ensure_built()
        xlo, xhi, ylo, yhi = self.bbox
        h, pole = self.step, self.pole
        ny, nx = self._free.shape
        w = np.full(len(px), np.nan + 0j)
        ok = (xlo <= px) & (px <= xhi) & (ylo <= py) & (py <= yhi)
        rows = np.flatnonzero(ok)
        qx, qy = px[rows], py[rows]
        iy = np.rint((qy - self._y0) / h).astype(np.intp)
        ix = np.rint((qx - self._x0) / h).astype(np.intp)
        near = (0 <= iy) & (iy < ny) & (0 <= ix) & (ix < nx)
        iy, ix = np.where(near, iy, 0), np.where(near, ix, 0)
        value = self._value[iy, ix]
        x0, y0 = self._xs[ix], self._ys[iy]
        near &= self._free[iy, ix] & np.isfinite(value) \
            & (_segment_point_distances(x0, y0, qx, qy, pole) >= 1e-9)
        fast = near.nonzero()[0]
        legs = [cmath.log(complex(a, b) / complex(c, d)) for a, b, c, d in zip(
            *(v[fast].tolist() for v in (qx - pole.real, qy - pole.imag,
                                          x0 - pole.real, y0 - pole.imag)))]
        w[rows[fast]] = value[fast] + np.array(legs, dtype=complex)
        for m in rows[~near].tolist():
            try:
                w[m] = self.integral_to(float(px[m]), float(py[m]))
            except SliceRegError:
                ok[m] = False
        return w, ok


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

    def eval_plane(self, px: float, py: float) -> Quaternion:
        w = self._table.integral_to(px, py)
        c = self.carrier.as_quaternion()
        return self.base_value + Quaternion(w.real) + c * w.imag

    def plane_rows(self, px, py):
        """eval_plane at the plane points (px, py), float arrays (n,), as
        eval_rows rows: (values (n, 4), ok (n,)), from one integral_rows
        call; each row sums as eval_plane's quaternions do, bit for bit."""
        w, ok = self._table.integral_rows(np.asarray(px, dtype=float),
                                          np.asarray(py, dtype=float))
        b, c, wr, wi = self.base_value, self.carrier, w.real, w.imag
        values = np.column_stack([(b.w + wr) + 0.0 * wi, (b.x + 0.0) + c.vx * wi,
                                  (b.y + 0.0) + c.vy * wi, (b.z + 0.0) + c.vz * wi])
        values[~ok] = np.nan
        return values, ok

    def eval_rows(self, x, y, vectors):
        """Values at the points x + yJ, as HoloSliceFunction.eval_rows, from
        one plane_rows call: a table that cannot be built raises its own
        error here, once, rather than leaving every row not ok.

        Each row is mapped to its plane point as SliceCoord.make(x, y,
        UnitImaginary(*v)) and the carrier's plane would map it: a real
        point to (x, 0), a unit within a 1e-9 chord of the carrier to (x,
        y) and of its antipode to (x, -y), where a point below the axis is
        x + |y|(-J).  Rows off the plane, out of the box or beyond every
        anchor are not ok."""
        v = np.asarray(vectors, dtype=float).reshape(-1, 3)
        x, y = (np.broadcast_to(np.asarray(a, dtype=float), (len(v),)) for a in (x, y))
        # UnitImaginary's normalization; a norm that overflows or is too
        # small to divide by takes the scalar constructor (hypot, or its error)
        with np.errstate(over="ignore"):
            norm = np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2])
        odd = (norm == math.inf) | (norm < 1e-14)
        scale = (np.abs(norm - 1.0) > 1e-12) & ~odd
        u = v.copy()
        u[scale] = v[scale] / norm[scale, None]
        for m in odd.nonzero()[0].tolist():
            u[m] = UnitImaginary(*v[m].tolist()).to_list()
        c = self.carrier
        dot = u[:, 0] * c.vx + u[:, 1] * c.vy + u[:, 2] * c.vz
        below = y < 0.0
        dot, y = np.where(below, -dot, dot), np.where(below, -y, y)
        near = np.sqrt(np.maximum(2.0 - 2.0 * dot, 0.0)) <= 1e-9
        far = np.sqrt(np.maximum(2.0 - 2.0 * -dot, 0.0)) <= 1e-9
        real = y == 0.0
        return self.plane_rows(np.where(real | near | far, x, np.nan),
                               np.where(real, 0.0, np.where(near, y, -y)))


def dbar_residual_rows(f, x, y, vectors, h: float):
    """|0.5 (d/dx + J d/dy) f| at the points x + yJ, one per row (x and y
    broadcast to the rows J of vectors (n, 3)), by central differences of
    step h, from one f.eval_rows call on the 4n stencil points x + h,
    x - h, y + h, y - h.  Returns (residuals (n,), ok (n, 4)): ok tells
    which stencil points f is defined at, and a row without all four has
    a NaN residual.  Each residual sums as Quaternion arithmetic does, so
    it equals the one-point computation bit for bit.

    For holomorphic f the value decays like h^2 times the local third
    derivative scale; an O(1) value flags non-holomorphy.
    """
    if h <= 0.0:
        raise ValueError("step must be positive")
    v = np.asarray(vectors, dtype=float).reshape(-1, 3)
    x, y = (np.broadcast_to(np.asarray(a, dtype=float), (len(v),)) for a in (x, y))
    # stencil rows (point, x + h / x - h / y + h / y - h), canonical as
    # SliceCoord.make writes them: a point below the axis is x + |y|(-J)
    xs = np.stack([x + h, x - h, x, x], axis=1)
    ys = np.stack([y, y, y + h, y - h], axis=1)
    below = ys < 0.0
    units = np.where(below[..., None], -v[:, None], v[:, None])
    values, ok = f.eval_rows(xs.ravel(), np.abs(ys).ravel(), units.reshape(-1, 3))
    fxp, fxm, fyp, fym = values.reshape(-1, 4, 4).transpose(1, 0, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        dx = (fxp - fxm) / (2.0 * h)
        dy = (fyp - fym) / (2.0 * h)
        res = (dx + mul_rows(imaginary_rows(v), dy)) * 0.5
        norms = np.sqrt(res[:, 0] * res[:, 0] + res[:, 1] * res[:, 1]
                        + res[:, 2] * res[:, 2] + res[:, 3] * res[:, 3])
    ok = ok.reshape(-1, 4)
    return np.where(ok.all(axis=1), norms, np.nan), ok


def dbar_residual(f, coord: SliceCoord, h: float) -> float:
    """The one-row case of dbar_residual_rows: f is any HoloSliceFunction,
    the StemPair of an extension among them.  Raises StencilError naming
    the first stencil point outside f's domain."""
    if coord.unit is None:
        raise ValueError("dbar residual at a real point needs an explicit unit")
    res, ok = dbar_residual_rows(f, coord.x, coord.y, [coord.unit.to_list()], h)
    if not ok.all():
        m = int(np.argmin(ok[0]))
        raise StencilError(f"stencil exits the domain at ({coord.x + (h, -h, 0.0, 0.0)[m]:g}, "
                           f"{coord.y + (0.0, 0.0, h, -h)[m]:g})")
    return float(res[0])
