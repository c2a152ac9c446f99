"""Representation and extension machinery for slice regular functions.

Covers the stem coefficient maps, the two-slice extension formula, regular
extension from one slice of a symmetric domain, tube domains around compact
paths, the constructive local extension pipeline, and global extension to
the symmetric completion with per-sphere consistency verification.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domains import (DomainSpec, SphereSample, _grid_path,
                      _points_to_polyline_dist, ball_spec,
                      completion_of_slice, intersect_specs, is_slice_domain,
                      rasterize, resample_polyline, symmetric_completion)
from .errors import (ConsistencyError, DegeneratePairError, GeometryError,
                     IncompatiblePairError, OutOfDomainError, PathError,
                     PreconditionError, SliceRegError)
from .holomorphic import HoloSliceFunction, dbar_residual
from .quaternions import (Quaternion, SliceCoord, UNIT_I, UnitImaginary,
                          rotate_toward)


# ---------------------------------------------------------------------------
# stem coefficients and the extension formula
# ---------------------------------------------------------------------------

def rep_coeffs(fJ: Quaternion, fK: Quaternion,
               J: UnitImaginary, K: UnitImaginary):
    """Stem coefficients from two slice values at the same (x, y):

    b = (J-K)^-1 [J fJ - K fK],  c = (J-K)^-1 [fJ - fK].

    Callers must use (f(x), 0) directly on the real axis.
    """
    jq = J.as_quaternion()
    kq = K.as_quaternion()
    d = jq - kq
    if d.norm() < 1e-12:
        raise DegeneratePairError("stem coefficients need J != K")
    dinv = d.inverse()
    b = dinv * (jq * fJ - kq * fK)
    c = dinv * (fJ - fK)
    return b, c


def rep_eval(b: Quaternion, c: Quaternion,
             I: UnitImaginary | None) -> Quaternion:
    """Value b + I c of the function the stem pair represents."""
    if I is None:
        return b
    return b + I.as_quaternion() * c


@dataclass
class StemPair:
    """Stem functions of a slice regular function on a symmetric domain:
    parts(x, y) returns the pair (b(x, y), c(x, y)); c vanishes on the real
    axis by convention."""

    parts: callable
    domain: DomainSpec | None = None

    def eval(self, coord: SliceCoord) -> Quaternion:
        if coord.is_real:
            return self.parts(coord.x, 0.0)[0]
        b, c = self.parts(coord.x, coord.y)
        return rep_eval(b, c, coord.unit)

    def export_rows(self, xy):
        """CSV rows (x, y, b components, c components) over sample points."""
        rows = []
        for x, y in xy:
            bq, cq = self.parts(float(x), float(y))
            rows.append([x, y, *bq.to_list(), *cq.to_list()])
        return rows


def _two_slice_parts(f, J: UnitImaginary, K: UnitImaginary):
    """Stem parts of f at (x, y) from its values on the slices J and K, and
    from its real value on the axis."""

    def parts(x: float, y: float):
        if y == 0.0:
            return f.eval(SliceCoord(x, 0.0, None)), Quaternion(0.0)
        vj = f.eval(SliceCoord.make(x, y, J))
        vk = f.eval(SliceCoord.make(x, y, K))
        return rep_coeffs(vj, vk, J, K)

    return parts


@dataclass(frozen=True)
class DomainFunction:
    """A slice function paired with the domain it is extended from; fn must
    evaluate wherever the extension queries it."""

    fn: HoloSliceFunction
    domain: DomainSpec

    def eval(self, coord: SliceCoord) -> Quaternion:
        return self.fn.eval(coord)


def _real_samples(fn: HoloSliceFunction, count: int = 9):
    """Real evaluation points where the function is defined."""
    from .holomorphic import ContinuedLog, PowerSeries
    if isinstance(fn, PowerSeries):
        half = 0.7 * min(fn.radius, 2.0)
        return np.linspace(fn.center - half, fn.center + half, count)
    if isinstance(fn, ContinuedLog):
        xlo, xhi = fn.bbox[0], fn.bbox[1]
        return np.linspace(xlo + 0.1 * (xhi - xlo), xhi - 0.1 * (xhi - xlo), count)
    return np.linspace(-1.0, 1.0, count)


def check_compatible(r: HoloSliceFunction, s: HoloSliceFunction,
                     tol: float = 1e-9):
    """Raise IncompatiblePairError unless r and s agree, within tol, on at
    least three shared real points (their common real trace)."""
    xs = set(np.round(_real_samples(r), 12)) & set(np.round(_real_samples(s), 12))
    if len(xs) < 3:
        xs = set(np.round(_real_samples(r), 12))
    good = 0
    for x in sorted(xs):
        try:
            rv = r.eval(SliceCoord(float(x), 0.0, None))
            sv = s.eval(SliceCoord(float(x), 0.0, None))
        except SliceRegError:
            continue
        if (rv - sv).norm() > tol:
            raise IncompatiblePairError(
                f"slice functions disagree at x={x:g} by {(rv - sv).norm():.3e}")
        good += 1
    if good < 3:
        raise IncompatiblePairError("no shared real trace to compare on")


def extension_formula(r: HoloSliceFunction, s: HoloSliceFunction,
                      target: SliceCoord, check_compat: bool = True) -> Quaternion:
    """Slice regular value at x + yI from holomorphic data on two slices:

    f(x+yI) = (J-K)^-1 [J r(x+yJ) - K s(x+yK)] + I (J-K)^-1 [r(x+yJ) - s(x+yK)]

    where J, K are the slice units the two functions are attached to.
    Targets always carry y >= 0 (SliceCoord is canonical), which is the
    corrected hypothesis making the formula single-valued.  Callers that
    evaluate one pair many times run check_compatible once and pass
    check_compat=False.
    """
    J = r.slice_unit
    K = s.slice_unit
    if J is None or K is None:
        raise PreconditionError("both inputs must be attached to a slice "
                                "(use on_slice)")
    if J.chord(K) < 1e-12:
        raise DegeneratePairError("extension formula needs J != K")
    if check_compat:
        check_compatible(r, s)
    rj = r.eval(SliceCoord.make(target.x, target.y, J))
    sk = s.eval(SliceCoord.make(target.x, target.y, K))
    b, c = rep_coeffs(rj, sk, J, K)
    return rep_eval(b, c, target.unit)


def regular_ext(fI: HoloSliceFunction, domain: DomainSpec,
                validate: bool = True) -> StemPair:
    """Regular extension of a holomorphic function on one slice of a
    symmetric slice domain; the result restricts back to the input."""
    unit = fI.slice_unit
    if unit is None:
        raise PreconditionError("regular extension needs a slice-attached input")
    if validate:
        _validate_symmetric(domain, unit)
        _validate_holomorphic(fI, domain, unit)
    return StemPair(parts=_two_slice_parts(fI, unit, -unit), domain=domain)


def _validate_symmetric(domain: DomainSpec, unit: UnitImaginary):
    from .quaternions import orthonormal_to
    x_min, x_max, y_max = domain.bbox
    gx = np.linspace(x_min + 1e-3, x_max - 1e-3, 12)
    gy = np.linspace(1e-3, y_max - 1e-3, 6)
    X, Y = np.meshgrid(gx, gy)
    probes = [unit, -unit, orthonormal_to(unit), -orthonormal_to(unit)]
    ref = None
    for J in probes:
        mem = np.asarray(domain.membership(X, Y, J.vx, J.vy, J.vz), dtype=bool)
        mem = np.broadcast_to(mem, X.shape)
        if ref is None:
            ref = mem
        elif (mem != ref).any():
            raise PreconditionError("domain is not symmetric")


def _validate_holomorphic(fI: HoloSliceFunction, domain: DomainSpec,
                          unit: UnitImaginary, h: float = 1e-3):
    x_min, x_max, y_max = domain.bbox
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        if checked >= 6:
            break
        x = rng.uniform(x_min, x_max)
        y = rng.uniform(2 * h, y_max)
        if not all(domain.contains(xx, yy, unit)
                   for xx, yy in ((x - 2 * h, y), (x + 2 * h, y),
                                  (x, y - 2 * h), (x, y + 2 * h))):
            continue
        try:
            res = dbar_residual(fI, SliceCoord.make(x, y, unit), h)
            scale = 1.0 + fI.eval(SliceCoord.make(x, y, unit)).norm()
        except SliceRegError:
            continue
        if res > 1e-4 * scale:
            raise PreconditionError(
                f"slice restriction is not holomorphic (dbar {res:.2e} at "
                f"({x:.3f}, {y:.3f}))")
        checked += 1


# ---------------------------------------------------------------------------
# tube domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TubeDomain:
    """Union of balls along a compact path C in one slice plane.

    Non-real points p of C carry the scaled radius (|im p| / y_ref) * epsilon
    and real points the full epsilon, so the tube thins out linearly toward
    the real axis and stays a slice domain.
    """

    unit: UnitImaginary
    polyline: np.ndarray
    epsilon: float
    y_ref: float
    h: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "polyline",
                           np.asarray(self.polyline, dtype=float))

    def _real_interval(self):
        ys = self.polyline[:, 1]
        real = self.polyline[ys == 0.0]
        if real.size == 0:
            return None
        return float(real[:, 0].min()), float(real[:, 0].max())

    def membership(self, x, y, jx, jy, jz):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = jx * self.unit.vx + jy * self.unit.vy + jz * self.unit.vz
        shape = np.broadcast(x, y, np.asarray(d)).shape
        member = np.zeros(shape, dtype=bool)
        interval = self._real_interval()
        if interval is not None:
            rlo, rhi = interval
            gap = np.maximum(np.maximum(rlo - x, x - rhi), 0.0)
            member |= gap * gap + y * y < self.epsilon ** 2
        if self.y_ref > 0.0:
            c2 = (self.epsilon / self.y_ref) ** 2
            pts = self.polyline
            for p0, p1 in zip(pts[:-1], pts[1:]):
                dx, dy = p1[0] - p0[0], p1[1] - p0[1]
                A = dx * dx + (1.0 - c2) * dy * dy
                B = -2.0 * dx * (x - p0[0]) + 2.0 * (1.0 - c2) * p0[1] * dy \
                    - 2.0 * y * d * dy
                C0 = (x - p0[0]) ** 2 + (1.0 - c2) * p0[1] ** 2 \
                    - 2.0 * y * d * p0[1] + y * y
                if A < 1e-30:
                    member |= np.minimum(C0, B + C0) < 0.0
                    continue
                t = np.clip(-B / (2.0 * A), 0.0, 1.0)
                member |= A * t * t + B * t + C0 < 0.0
        return member

    def as_domain_spec(self, h: float | None = None) -> DomainSpec:
        pts = self.polyline
        pad = self.epsilon * 1.25
        bbox = (float(pts[:, 0].min() - pad), float(pts[:, 0].max() + pad),
                float(pts[:, 1].max() + pad))
        interval = self._real_interval()

        def real_trace(x):
            if interval is None:
                return np.zeros_like(np.asarray(x, dtype=float), dtype=bool)
            rlo, rhi = interval
            gap = np.maximum(np.maximum(rlo - np.asarray(x, dtype=float),
                                        np.asarray(x, dtype=float) - rhi), 0.0)
            return gap < self.epsilon

        return DomainSpec(self.membership, real_trace, bbox,
                          h if h is not None else self.h, name="tube")

    def contains(self, x: float, y: float, J: UnitImaginary) -> bool:
        return bool(np.asarray(self.membership(x, y, J.vx, J.vy, J.vz)).reshape(-1)[0])

    @property
    def waist(self) -> float:
        """Narrowest section of the carrier slice, where the shrinking chain
        of balls meets the full-radius ball around the real endpoint."""
        if self.y_ref == 0.0:
            return 2.0 * self.epsilon
        c = self.epsilon / self.y_ref
        return 2.0 * c * self.epsilon / math.sqrt(1.0 + c * c)

    def raster_budget_step(self, cells: float = 1.5e6) -> float:
        """Grid step resolving the waist, or as fine as the cell budget
        allows; rasters coarser than waist/5 cannot certify connectivity."""
        pts = self.polyline
        span_x = float(pts[:, 0].max() - pts[:, 0].min()) + 2.5 * self.epsilon
        span_y = float(pts[:, 1].max()) + 1.25 * self.epsilon
        h_budget = math.sqrt(span_x * span_y / cells)
        return max(min(self.epsilon / 6.0, self.waist / 5.0), h_budget)


def _probe_units(J0: UnitImaginary):
    return [J0, -J0] + SphereSample(8).units


def _clearance_radii(samples: np.ndarray, J0: UnitImaginary, Y: DomainSpec,
                     hi0: float, iters: int = 16) -> np.ndarray:
    """Per-sample estimate of the distance to the boundary of Y, by bisecting
    probe rings of points of H around each sample."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False) + 0.11
    units = _probe_units(J0)
    n = samples.shape[0]
    lo = np.zeros(n)
    hi = np.full(n, hi0)

    def feasible(r):
        ok = np.ones(n, dtype=bool)
        for W in units:
            for th in thetas:
                px = samples[:, 0] + r * math.cos(th)
                ivx = samples[:, 1] * J0.vx + r * math.sin(th) * W.vx
                ivy = samples[:, 1] * J0.vy + r * math.sin(th) * W.vy
                ivz = samples[:, 1] * J0.vz + r * math.sin(th) * W.vz
                yn = np.sqrt(ivx * ivx + ivy * ivy + ivz * ivz)
                tiny = yn < 1e-12
                jxn = np.where(tiny, 1.0, ivx / np.where(tiny, 1.0, yn))
                jyn = np.where(tiny, 0.0, ivy / np.where(tiny, 1.0, yn))
                jzn = np.where(tiny, 0.0, ivz / np.where(tiny, 1.0, yn))
                mem = np.asarray(Y.membership(px, yn, jxn, jyn, jzn), dtype=bool)
                mem = np.broadcast_to(mem, px.shape).copy()
                if tiny.any():
                    mem[tiny] = np.asarray(Y.real_trace(px[tiny]), dtype=bool)
                ok &= mem
                if not ok.any():
                    return ok
        return ok

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
               validate: bool = True) -> TubeDomain:
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
    half slice of Y.
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

    for px, py in dense:
        if py > 0.0 and not Y.contains(float(px), float(py), carrier):
            raise PreconditionError(
                f"C leaves the upper half slice of Y at ({px:g}, {py:g})")
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
    if validate:
        _validate_tube(tube, Y)
    return tube


def _validate_tube(tube: TubeDomain, Y: DomainSpec, n_points: int = 200):
    """Checks the tube stays inside Y (the falsifiable part of the
    construction) and, when the waist is resolvable within the raster
    budget, that the slice-domain verdict holds on a grid.  Slice
    connectivity itself is structural: the balls shrink continuously along
    a connected path meeting the real axis."""
    rng = np.random.default_rng(2)
    pts = tube.polyline
    pad = tube.epsilon * 1.05
    lo_x, hi_x = pts[:, 0].min() - pad, pts[:, 0].max() + pad
    hi_y = pts[:, 1].max() + pad
    units = _probe_units(tube.unit)
    checked = 0
    attempts = 0
    while checked < n_points and attempts < 400 * n_points:
        attempts += 1
        x = float(rng.uniform(lo_x, hi_x))
        y = float(rng.uniform(0.0, hi_y))
        W = units[int(rng.integers(0, len(units)))]
        if not tube.contains(x, y, W):
            continue
        checked += 1
        if y == 0.0:
            ok = bool(np.asarray(Y.real_trace(np.asarray(x))).reshape(-1)[0])
        else:
            ok = Y.contains(x, y, W)
        if not ok:
            raise GeometryError(
                f"tube leaves the carrier domain at ({x:g}, {y:g})")
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


def local_extend(f, p0: SliceCoord, shrink: float = 0.5,
                 validate: bool = True, seed: int = 0) -> LocalExtension:
    """Constructive local extension around p0 in a slice domain.

    Finds a grid path from p0 down to the real axis in its slice, thickens
    it to a tube M, picks a nearby unit K0 within the tube's angular reach,
    completes the K0-slice of M to a symmetric slice domain N, and extends
    f to N by the two-slice formula.  The returned tube sits inside both N
    and the original domain, and the extension agrees with f there.
    """
    omega: DomainSpec = f.domain
    if p0.is_real:
        return _local_extend_real(f, p0, shrink, validate)

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

    m_tube = build_tube(gamma, omega, shrink, carrier=j0, validate=validate)
    y_ref = m_tube.y_ref
    chi = m_tube.epsilon / y_ref
    k0 = rotate_toward(j0, chi / 2.0)
    n_spec = completion_of_slice(m_tube.as_domain_spec(), k0)
    stem = StemPair(parts=_two_slice_parts(f, j0, k0), domain=n_spec)

    lam = build_tube(gamma, intersect_specs(n_spec, omega), shrink,
                     carrier=j0, validate=validate)
    checks = {}
    if validate:
        checks = _validate_local(f, stem, n_spec, lam, j0, k0, chi, seed)
    return LocalExtension(N=n_spec, tube=lam, stem=stem, j0=j0, k0=k0,
                          path=gamma, epsilon_m=m_tube.epsilon,
                          epsilon_tube=lam.epsilon, checks=checks)


def _local_extend_real(f, p0: SliceCoord, shrink: float, validate: bool):
    omega: DomainSpec = f.domain
    sample = np.array([[p0.x, 0.0]])
    radius = float(_clearance_radii(sample, UNIT_I, omega, 2.0)[0])
    radius = min(radius, _cut_clearance(sample, UNIT_I, omega))
    radius *= shrink
    if radius <= 1e-9:
        raise GeometryError("no interior ball around the real point")
    ball = ball_spec(p0.x, radius, h=omega.h)
    unit = UNIT_I
    stem = StemPair(parts=_two_slice_parts(f, unit, -unit), domain=ball)
    tube = TubeDomain(unit=unit, polyline=np.array([[p0.x, 0.0]]),
                      epsilon=radius, y_ref=0.0, h=omega.h)
    checks = {}
    if validate:
        checks = _validate_local(f, stem, ball, tube, unit, -unit, 1.0, 0)
    return LocalExtension(N=ball, tube=tube, stem=stem, j0=unit, k0=-unit,
                          path=np.array([[p0.x, 0.0]]), epsilon_m=radius,
                          epsilon_tube=radius, checks=checks)


def _validate_local(f, stem: StemPair, n_spec: DomainSpec, tube: TubeDomain,
                    j0, k0, chi, seed, n_points: int = 100):
    rng = np.random.default_rng(seed)
    x_min, x_max, _ = n_spec.bbox
    xs = np.linspace(x_min, x_max, 61)
    trace = np.asarray(n_spec.real_trace(xs), dtype=bool)
    max_real = 0.0
    for x in xs[trace]:
        try:
            d = (stem.parts(float(x), 0.0)[0] - f.eval(SliceCoord(float(x), 0.0, None))).norm()
        except SliceRegError:
            continue
        max_real = max(max_real, d)
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
    pts = tube.polyline
    pad = tube.epsilon
    lo_x, hi_x = pts[:, 0].min() - pad, pts[:, 0].max() + pad
    hi_y = pts[:, 1].max() + pad
    max_err = 0.0
    collected = 0
    attempts = 0
    while collected < n_points and attempts < 200 * n_points:
        attempts += 1
        x = rng.uniform(lo_x, hi_x)
        y = rng.uniform(0.0, hi_y)
        W = palette[int(rng.integers(0, len(palette)))]
        if y <= 1e-9 or not tube.contains(x, y, W):
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
        raise ConsistencyError(f"extension differs from f on the tube "
                               f"by {max_err:.3e}")
    return {"real_trace_max_err": max_real, "tube_max_err": max_err,
            "tube_points": collected}


# ---------------------------------------------------------------------------
# global extension with consistency verification
# ---------------------------------------------------------------------------

@dataclass
class ConsistencyReport:
    threshold: float
    entries: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    max_defect: float = 0.0
    n_spheres: int = 0

    def worst(self):
        return max(self.entries, key=lambda e: e["defect"], default=None)

    def to_json_dict(self):
        return {
            "threshold": self.threshold,
            "max_defect": self.max_defect,
            "n_spheres": self.n_spheres,
            "spheres": self.entries,
            "skipped": self.skipped,
        }


def _sphere_stems(f, omega: DomainSpec, sample: SphereSample,
                  x: float, y: float, first_only: bool = False):
    """Stem pairs on the sphere x + yS from antipodal unit pairs.

    Mirrors the per-slice functions of the extension construction: each unit
    J present together with its antipode contributes the stem of the slice
    through J.  When no antipodal pair is available the first present units
    are paired as a fallback fan.  first_only stops at the first usable stem
    (enough to evaluate the extension, not to measure its defect).
    """
    vec = sample.vectors
    mem = np.asarray(omega.membership(x, y, vec[:, 0], vec[:, 1], vec[:, 2]),
                     dtype=bool)
    present = np.broadcast_to(mem, (vec.shape[0],))
    stems = []
    skipped = []
    values = {}

    def value(m):
        if m not in values:
            values[m] = f.eval(SliceCoord.make(x, y, sample.units[m]))
        return values[m]

    for a, b in sample.antipodal_pairs():
        if not (present[a] and present[b]):
            continue
        try:
            stems.append((a, b) + rep_coeffs(value(a), value(b),
                                             sample.units[a], sample.units[b]))
        except SliceRegError:
            skipped.append((a, b))
        if first_only and stems:
            return stems, skipped, present
    if not stems:
        idx = [m for m in range(len(sample.units)) if present[m]]
        for k in range(1, min(len(idx), 9)):
            a, b = idx[0], idx[k]
            try:
                stems.append((a, b) + rep_coeffs(value(a), value(b),
                                                 sample.units[a], sample.units[b]))
            except SliceRegError:
                skipped.append((a, b))
            if first_only and stems:
                break
    return stems, skipped, present


def extend_to_completion(f, sample: SphereSample, xy_grid,
                         tol: float = 1e-8, force: bool = False):
    """Extend f to the symmetric completion of its domain, verifying that the
    stem coefficients computed from different unit pairs agree sphere by
    sphere.  The maximal disagreement per sphere is the consistency defect;
    it exceeds the threshold exactly where no single-valued extension exists.
    """
    omega: DomainSpec = f.domain
    if not force:
        from .domains import is_simple
        verdict = is_simple(omega, sample)
        if not verdict.is_yes:
            raise PreconditionError(
                f"domain is not simple at this resolution: {verdict.witness}")

    xy = np.asarray(xy_grid, dtype=float)
    report = ConsistencyReport(threshold=tol)

    def handle(row):
        x, y = float(row[0]), float(row[1])
        if y == 0.0:
            if bool(np.asarray(omega.real_trace(np.asarray(x))).reshape(-1)[0]):
                return {"sphere": [x, y], "defect": 0.0, "witnesses": None}
            return None
        stems, skipped, present = _sphere_stems(f, omega, sample, x, y)
        if not present.any():
            return None
        if len(stems) < 2:
            return {"sphere": [x, y], "defect": 0.0, "witnesses": None,
                    "note": "fewer than two usable unit pairs"}
        a0, b0, bq0, cq0 = stems[0]
        defect = 0.0
        witness = None
        for a, b, bq, cq in stems[1:]:
            d = (bq - bq0).norm() + (cq - cq0).norm()
            if d > defect:
                defect = d
                witness = [sample.units[a].to_list(), sample.units[b].to_list()]
        entry = {"sphere": [x, y], "defect": defect, "witnesses": witness}
        if skipped:
            entry["skipped_pairs"] = len(skipped)
        return entry

    for row in xy:
        res = handle(row)
        if res is None:
            continue
        report.entries.append(res)
        report.max_defect = max(report.max_defect, res["defect"])
    report.n_spheres = len(report.entries)

    if report.max_defect > tol and not force:
        raise ConsistencyError(
            f"consistency defect {report.max_defect:.6g} exceeds {tol:g}: "
            "no single-valued extension on this domain", report)

    completion = symmetric_completion(omega, sample)

    def parts(x: float, y: float):
        if y == 0.0:
            return f.eval(SliceCoord(x, 0.0, None)), Quaternion(0.0)
        stems, _, present = _sphere_stems(f, omega, sample, x, y,
                                          first_only=True)
        if not stems:
            raise OutOfDomainError(f"no usable slice data on the sphere "
                                   f"({x:g}, {y:g})")
        return stems[0][2], stems[0][3]

    stem = StemPair(parts=parts, domain=completion)
    return stem, report
