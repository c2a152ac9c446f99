"""Quaternion-valued holomorphic functions on a planar slice.

HoloSliceFunction is the one slice-function interface: a type implements
eval_rows, batched over arrays, and eval is its one-row case.  Two families
are provided: power series with real center (slice regular on their ball,
powers act on the left of the coefficients) and path-continued logarithms
on a cut plane.
A continued logarithm is evaluated in closed form: the principal Log plus
2 pi i times a winding number about the point, counted over the chain of
cuts that runs from the pole out of the box.  Its one query,
integral_rows, is batched; its test of the pole and the cuts is raster's
one near-cut test, _clear_rows, which DomainSpec.contains_rows runs too.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .raster import (_CUT_BLOCK, _blocks, _clear_rows, _fit_scale,
                     _points_to_polyline_dist, _segments)
from .errors import (DisconnectedDomainError, OutOfDomainError,
                     PreconditionError, StencilError)
from .quaternions import (Quaternion, SliceCoord, UNIT_I, UnitImaginary,
                          imaginary_rows, mul_rows, norm_rows)


# ---------------------------------------------------------------------------
# plane geometry helpers (complex coordinates)
# ---------------------------------------------------------------------------

def integrate_reciprocal(z0: complex, z1: complex, pole: complex) -> complex:
    """Integral of dz/(z - pole) over the segment z0-z1.

    A segment that misses the pole turns by less than pi around it, so the
    integral is exactly the principal log((z1 - pole) / (z0 - pole)).
    """
    leg = [[z0.real, z0.imag], [z1.real, z1.imag]]
    if _points_to_polyline_dist([pole.real], [pole.imag], leg)[0] < 1e-12:
        raise OutOfDomainError("integration segment passes through the pole")
    return cmath.log((z1 - pole) / (z0 - pole))


def segment_crossings(p, q, polyline):
    """Count intersections of the segments p-q with a polyline: p and q
    are points (..., 2) that broadcast, and the counts take their leading
    shape; one point pair gives an int.  Rows are tested in blocks of at
    most _CUT_BLOCK rows times segments.

    Touching and collinear overlaps count as crossings; callers use the
    count conservatively (nonzero means "do not integrate along p-q").
    """
    pts = np.asarray(polyline, dtype=float)
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    shape = p.shape[:-1]
    p, q = p.reshape(-1, 2), q.reshape(-1, 2)
    count = np.zeros(len(p), dtype=np.intp)
    a, b = pts[:-1], pts[1:]
    lo, hi = np.minimum(a, b), np.maximum(a, b)

    def orient(ox, oy, ax, ay, bx, by):
        return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)

    block = max(1, _CUT_BLOCK // max(1, len(a)))
    for r in range(0, len(p), block):
        px, py, qx, qy = (c[r:r + block, None] for c in (*p.T, *q.T))
        d1 = orient(px, py, qx, qy, a[:, 0], a[:, 1])
        d2 = orient(px, py, qx, qy, b[:, 0], b[:, 1])
        d3 = orient(a[:, 0], a[:, 1], b[:, 0], b[:, 1], px, py)
        d4 = orient(a[:, 0], a[:, 1], b[:, 0], b[:, 1], qx, qy)
        # the box test rejects far-apart degenerate cases where all four
        # orientations vanish
        hits = (d1 * d2 <= 0.0) & (d3 * d4 <= 0.0) \
            & (lo[:, 0] <= np.maximum(px, qx)) & (hi[:, 0] >= np.minimum(px, qx)) \
            & (lo[:, 1] <= np.maximum(py, qy)) & (hi[:, 1] >= np.minimum(py, qy))
        count[r:r + block] = np.count_nonzero(hits, axis=1)
    return int(count[0]) if not shape else count.reshape(shape)


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


# a point this close to the pole or to a cut is not answered, and cut end
# points this close join
_ON_CUT = 1e-9


def _cut_chain(pole, cuts, inside):
    """The vertices (m, 2), from the pole, of the first chain of cut
    polylines joined end to end that runs from the pole to a vertex that
    inside (a test of vertex rows) rejects, up to that vertex; the pole
    alone when inside rejects it, and None when there is no chain.  A
    depth-first search over the end point graph takes polylines in input
    order and enters each end point once."""
    if not inside(pole[None])[0]:
        return pole[None]
    ends = np.array([[c[0], c[-1]] for c in cuts]).reshape(-1, 2)
    entered = np.zeros(len(ends), dtype=bool)

    def enter(point):
        near = np.flatnonzero(_points_to_polyline_dist(ends[:, 0], ends[:, 1],
                                                       [point, point]) <= _ON_CUT)
        entered[near] = True
        return iter(near.tolist())

    path, frames = [pole[None]], [enter(pole)]
    while frames:
        k = next(frames[-1], None)
        if k is None:
            path.pop()
            frames.pop()
            continue
        poly = cuts[k // 2] if k % 2 == 0 else cuts[k // 2][::-1]  # from end k
        out = np.flatnonzero(~inside(poly))
        if out.size:
            return np.vstack(path + [poly[:out[0] + 1]])
        if not entered[k ^ 1]:
            path.append(poly)
            frames.append(enter(poly[-1]))
    return None


def _winding_polygon(pole, chain, bbox) -> np.ndarray:
    """The closed polygon (m, 2) of the winding test: the pole, its branch
    ray {pole - t} out to a ring around the box, the ring to the chain's
    last vertex pushed straight out of the box, and the chain back to the
    pole.  Only the ray and the chain meet the closed box, so the way
    round the ring shifts the box's winding numbers by one constant."""
    xlo, xhi, ylo, yhi = bbox
    end = chain[-1]
    pts = np.vstack([chain, [[xlo, ylo], [xhi, yhi]]])
    pad = 1.0 + np.max(np.abs(pts))
    lo, hi = pts.min(axis=0) - pad, pts.max(axis=0) + pad
    past_lo, past_hi = end <= (xlo, ylo), end >= (xhi, yhi)
    out = np.where(past_hi, hi, np.where(past_lo, lo, end))
    # the ring's corners counterclockwise from the side out lies on to the
    # left side, where the ray meets the ring
    side = 3 if past_lo[0] else 2 if past_hi[1] else 1 if past_hi[0] else 0
    ring = [(hi[0], lo[1]), (hi[0], hi[1]), (lo[0], hi[1])][side:]
    return np.vstack([[pole, (lo[0], pole[1])], *ring[::-1], [out], chain[::-1]])


def _winding_rows(x, y, polygon) -> np.ndarray:
    """Winding numbers (n,), as floats, of a closed polygon about the
    points (x, y), float arrays (n,), by the signed crossings of the ray
    to +x.  An edge from a to c counts where a_y <= y < c_y or c_y <= y <
    a_y: horizontal edges are skipped, and a point on a horizontal line
    through a vertex takes the winding number just above it."""
    a, c = polygon[:-1], polygon[1:]
    a, c = a[a[:, 1] != c[:, 1]], c[a[:, 1] != c[:, 1]]
    lo, hi = np.minimum(a[:, 1], c[:, 1]), np.maximum(a[:, 1], c[:, 1])
    sign = np.where(a[:, 1] < c[:, 1], 1.0, -1.0)
    wind = np.zeros(len(x))
    for rows, edges in _blocks(y, lo, hi):
        ys = y[rows, None]
        row, k = np.nonzero((lo[edges] <= ys) & (ys < hi[edges]))
        e, at = edges[k], rows[row]
        t = (y[at] - a[e, 1]) / (c[e, 1] - a[e, 1])
        right = x[at] < a[e, 0] + t * (c[e, 0] - a[e, 0])
        wind[rows] += np.bincount(row, sign[e] * right, minlength=len(rows))
    return wind


def _principal_log(x, y, pole) -> np.ndarray:
    """Log(z - pole) at z = x + iy, float arrays (n,).  Adding 0.0 turns a
    height of -0.0 into +0.0, so a point on the branch ray {pole - t}
    takes the value from above, as the winding test does."""
    return np.log((x - pole[0]) + 1j * (y - pole[1] + 0.0))


@dataclass(frozen=True)
class ContinuedLog(HoloSliceFunction):
    """Logarithm-type function continued over a cut plane.

    Value at a plane point z is base_value + dress(integral of 1/(z - pole)
    along a path from the base point that crosses no cut), where dress
    maps u + iv to the quaternion u + carrier*v.  The plane carries the
    coordinates of the carrier unit's slice; evaluation accepts points of
    L_carrier written with either the carrier or its antipode.

    On the box less Gamma, the first chain of cuts joined end to end that
    runs from the pole to a vertex on or outside the box's edge (none when
    the pole is there), the integral is Log(z - pole) - Log(base - pole) +
    2 pi i (w(z) - w(base)), w the winding number of _winding_polygon.
    Points of the closed box more than 1e-9 from the pole and every cut
    are answered, in a pocket that cuts separate from the base too.
    """

    pole: tuple
    base: tuple
    base_value: Quaternion
    cuts: tuple
    carrier: UnitImaginary
    slice_unit: UnitImaginary = None
    bbox: tuple = (-5.0, 5.0, -5.0, 5.0)
    # the cut and pole segments (S, 2, 2), the winding polygon and the
    # power of two it is scaled by, Log(base - pole) and w(base)
    _branch: tuple = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        """Raises PreconditionError naming base or cuts, where the base lies
        outside the box or there is no chain, and DisconnectedDomainError
        where the base lies within 1e-9 of the pole or a cut."""
        cuts = tuple(np.asarray(c, dtype=float).reshape(-1, 2) for c in self.cuts)
        object.__setattr__(self, "cuts", cuts)
        if self.slice_unit is None:
            object.__setattr__(self, "slice_unit", self.carrier)
        pole = np.array(self.pole, dtype=float)
        xlo, xhi, ylo, yhi = self.bbox
        bx, by = (np.array([float(v)]) for v in self.base)
        base = f"base: ({bx[0]:g}, {by[0]:g}) lies"
        box = f"[{xlo:g}, {xhi:g}] x [{ylo:g}, {yhi:g}]"
        if not (xlo <= bx[0] <= xhi and ylo <= by[0] <= yhi):
            raise PreconditionError(f"{base} outside the box {box}")
        # every segment of the cuts, and the pole as one of length 0
        segments = _segments([*cuts, pole[None]])
        if not _clear_rows(bx, by, segments, _ON_CUT)[0]:
            raise DisconnectedDomainError(f"{base} within 1e-9 of the pole or a cut")
        chain = _cut_chain(pole, cuts, lambda v: (xlo < v[:, 0]) & (v[:, 0] < xhi)
                           & (ylo < v[:, 1]) & (v[:, 1] < yhi))
        if chain is None:
            raise PreconditionError(
                f"cuts: no chain of them joins the pole ({pole[0]:g}, {pole[1]:g}) to the "
                f"edge of the box {box}, so log(z - pole) has no single-valued branch on it")
        # the winding test runs at a power of two that keeps its products finite
        scale = float(_fit_scale(np.max(np.abs([*chain.ravel(), *self.bbox]))))
        polygon = _winding_polygon(pole * scale, chain * scale,
                                   tuple(v * scale for v in self.bbox))
        object.__setattr__(self, "_branch", (
            segments, polygon, scale, _principal_log(bx, by, pole)[0],
            _winding_rows(bx * scale, by * scale, polygon)[0]))

    def on_slice(self, unit: UnitImaginary) -> "ContinuedLog":
        """View of the same function attached to the given slice unit
        (must be the carrier or its antipode)."""
        if not (unit.approx(self.carrier) or unit.approx(-self.carrier)):
            raise OutOfDomainError("function lives on the carrier's plane only")
        return replace(self, slice_unit=unit)

    def integral_rows(self, px, py):
        """Path integrals of dz/(z - pole) from the base point to the plane
        points (px, py), float arrays (n,), as (w (n,) complex, ok (n,));
        rows outside the closed box or within 1e-9 of the pole or a cut
        are not ok and NaN."""
        segments, polygon, scale, log_base, wind_base = self._branch
        xlo, xhi, ylo, yhi = self.bbox
        w = np.full(len(px), np.nan + 0j)
        ok = (xlo <= px) & (px <= xhi) & (ylo <= py) & (py <= yhi)
        ok[ok] = _clear_rows(px[ok], py[ok], segments, _ON_CUT)
        x, y = px[ok], py[ok]
        turns = _winding_rows(x * scale, y * scale, polygon) - wind_base
        w[ok] = (_principal_log(x, y, self.pole) - log_base) + 2j * math.pi * turns
        return w, ok

    def plane_rows(self, px, py):
        """Values at the plane points (px, py), float arrays (n,), as
        eval_rows rows: (values (n, 4), ok (n,)), from one integral_rows call;
        each row sums as the quaternions base_value + w.real + carrier *
        w.imag do, bit for bit."""
        w, ok = self.integral_rows(np.asarray(px, dtype=float), np.asarray(py, dtype=float))
        b, c, wr, wi = self.base_value, self.carrier, w.real, w.imag
        values = np.column_stack([(b.w + wr) + 0.0 * wi, (b.x + 0.0) + c.vx * wi,
                                  (b.y + 0.0) + c.vy * wi, (b.z + 0.0) + c.vz * wi])
        values[~ok] = np.nan
        return values, ok

    def eval_plane(self, px: float, py: float) -> Quaternion:
        """The one-row case of plane_rows.  Raises OutOfDomainError outside
        the box and within 1e-9 of the pole or a cut."""
        values, ok = self.plane_rows([px], [py])
        if not ok[0]:
            xlo, xhi, ylo, yhi = self.bbox
            if not (xlo <= px <= xhi and ylo <= py <= yhi):
                raise OutOfDomainError(f"point ({px:g}, {py:g}) outside the cut plane box")
            raise OutOfDomainError(f"point ({px:g}, {py:g}) lies within 1e-9 of the pole "
                                   "or a cut")
        return Quaternion.from_list(values[0])

    def eval_rows(self, x, y, vectors):
        """Values at the points x + yJ, as HoloSliceFunction.eval_rows, from
        one plane_rows call.

        Each row is mapped to its plane point as SliceCoord.make(x, y,
        UnitImaginary(*v)) and the carrier's plane would map it: a real
        point to (x, 0), a unit within a 1e-9 chord of the carrier to (x,
        y) and of its antipode to (x, -y), where a point below the axis is
        x + |y|(-J).  Rows off the plane, out of the box, at the pole or
        on a cut are not ok."""
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
