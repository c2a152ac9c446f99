"""Slice-parameterized subsets of H: membership, rasterization, verdicts.

A DomainSpec is a membership oracle over slice coordinates plus raster
metadata.  Membership callables take (x, y, jx, jy, jz) where every argument
broadcasts as a numpy array, so grid and probe evaluations stay vectorized
even when the probed imaginary unit varies per point.

Verdicts about connectivity are resolution-qualified: they are decided on
occupancy grids of cell-center samples, with cut curves rasterized as
8-connected dilated barriers so a one-cell-wide cut cannot leak diagonally.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import PreconditionError, UnsupportedError
from .quaternions import Quaternion, UnitImaginary

_LABEL_STRUCTURE = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


# ---------------------------------------------------------------------------
# sphere sampling
# ---------------------------------------------------------------------------

def fibonacci_points(n: int) -> np.ndarray:
    """Fibonacci lattice of n points on the unit 2-sphere."""
    i = np.arange(n, dtype=float)
    z = (2.0 * (i + 0.5) / n) - 1.0
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.column_stack([r * np.cos(phi), z, r * np.sin(phi)])


class SphereSample:
    """Fibonacci lattice of imaginary units with exact antipodes appended.

    units[m + base_count] is exactly -units[m], so antipodal pairs are always
    available.  Distinguished directions (such as the reference unit of the
    counterexample construction, whose (I, -I) pair must be present) can be
    seeded through ``extra``; they are appended to the base lattice together
    with their antipodes.
    """

    MIN_ANGLE_COEFF = 0.02  # pairwise min angle >= coeff / sqrt(N)
    _MIN_ANGLE_ROWS = 128  # rows of the dot matrix held at once

    def __init__(self, n: int = 64, extra=()):
        if n < 2:
            raise ValueError("need at least two sphere samples")
        base = fibonacci_points(n)
        for u in extra:
            base = np.vstack([base, [u.vx, u.vy, u.vz]])
        vecs = np.vstack([base, -base])
        self.n_requested = n
        self.base_count = base.shape[0]
        self.vectors = vecs
        self.units = [UnitImaginary(*v) for v in vecs]
        # largest dot product of distinct units, in blocks of rows whose
        # elementwise sums do not depend on the block size
        top, rows = -1.0, self._MIN_ANGLE_ROWS
        for lo in range(0, len(vecs), rows):
            dots = (vecs[lo:lo + rows, None] * vecs).sum(axis=2)
            dots[np.arange(len(dots)), np.arange(lo, lo + len(dots))] = -1.0
            top = max(top, float(dots.max()))
        self.min_angle = float(np.arccos(min(top, 1.0)))
        floor = self.MIN_ANGLE_COEFF / math.sqrt(len(self.units))
        if self.min_angle < floor:
            raise PreconditionError(
                f"sphere sample degenerate: min angle {self.min_angle:.3e} < {floor:.3e}")

    def __len__(self):
        return len(self.units)

    def antipodal_pairs(self):
        """Index pairs (m, m') with units[m'] == -units[m], each sphere once."""
        return [(m, m + self.base_count) for m in range(self.base_count)]


# ---------------------------------------------------------------------------
# domain specification and grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    """Membership oracle for an open subset of H, with raster metadata.

    membership(x, y, jx, jy, jz) -> bool array, defined for y >= 0;
    membership at y == 0 must be unit-independent and agree with real_trace.
    cuts(J) optionally returns the polylines that rasterize as barriers in
    the upper half slice of J, in its (x, y) coordinates with y >= 0; the
    lower half of the full slice through J is the upper half slice of -J,
    so its barriers are the mirror image of cuts(-J).
    bbox is (x_min, x_max, y_max); grids cover [x_min, x_max] x [0, y_max].
    """

    membership: callable
    real_trace: callable
    bbox: tuple
    h: float = 0.01
    cuts: callable = None
    cut_clearance: float = 0.0
    name: str = ""

    def contains(self, x: float, y: float, J: UnitImaginary | None) -> bool:
        """Scalar membership, excluding points within cut_clearance of a cut."""
        if y < 0.0:
            if J is None:
                raise ValueError("negative height requires a unit")
            return self.contains(x, -y, -J)
        jx, jy, jz = (J.vx, J.vy, J.vz) if J is not None else (1.0, 0.0, 0.0)
        if y == 0.0:
            ok = bool(np.asarray(self.real_trace(np.asarray(x))).reshape(-1)[0])
        else:
            ok = bool(np.asarray(self.membership(x, y, jx, jy, jz)).reshape(-1)[0])
        if not ok or self.cuts is None or J is None:
            return ok
        tol = max(self.cut_clearance, 0.0)
        for poly in self.cuts(J):
            if _points_to_polyline_dist([x], [y], poly)[0] <= tol:
                return False
        return True


def intersect_specs(a: DomainSpec, b: DomainSpec) -> DomainSpec:
    """Pointwise intersection; cut curves of both operands are kept."""

    def membership(x, y, jx, jy, jz):
        return np.asarray(a.membership(x, y, jx, jy, jz)) & \
            np.asarray(b.membership(x, y, jx, jy, jz))

    def real_trace(x):
        return np.asarray(a.real_trace(x)) & np.asarray(b.real_trace(x))

    def cuts(J):
        out = []
        for spec in (a, b):
            if spec.cuts is not None:
                out.extend(spec.cuts(J))
        return out

    bbox = (max(a.bbox[0], b.bbox[0]), min(a.bbox[1], b.bbox[1]),
            min(a.bbox[2], b.bbox[2]))
    has_cuts = a.cuts is not None or b.cuts is not None
    return DomainSpec(membership, real_trace, bbox, min(a.h, b.h),
                      cuts if has_cuts else None,
                      max(a.cut_clearance, b.cut_clearance),
                      name=f"({a.name} & {b.name})")


@dataclass
class PlanarRegionGrid:
    """Occupancy bitmap over cell centers of one slice; 4-connectivity."""

    xs: np.ndarray
    ys: np.ndarray
    occupied: np.ndarray
    labels: np.ndarray | None = None
    n_components: int | None = None

    @property
    def h(self) -> float:
        return float(self.xs[1] - self.xs[0]) if self.xs.size > 1 else 0.0

    def label(self):
        if self.labels is None:
            self.labels, self.n_components = ndimage.label(
                self.occupied, structure=_LABEL_STRUCTURE)
        return self.n_components, self.labels

    def component_at(self, x: float, y: float) -> int:
        self.label()
        ix = int(np.argmin(np.abs(self.xs - x)))
        iy = int(np.argmin(np.abs(self.ys - y)))
        return int(self.labels[iy, ix])

    def occupancy_digest(self) -> str:
        return hashlib.sha1(np.packbits(self.occupied).tobytes()).hexdigest()


def resample_polyline(points, max_step: float) -> np.ndarray:
    """Insert vertices so consecutive points are at most max_step apart."""
    pts = np.asarray(points, dtype=float)
    a = pts[:-1]
    seg = pts[1:] - a
    n = np.maximum(1, np.ceil(np.hypot(seg[:, 0], seg[:, 1]) / max_step).astype(int))
    first = np.repeat(np.cumsum(n) - n, n)  # output index of each segment's k = 1
    k = np.arange(1, first.size + 1) - first
    frac = k / np.repeat(n, n)
    return np.vstack([pts[:1], np.repeat(a, n, axis=0)
                      + np.repeat(seg, n, axis=0) * frac[:, None]])


def _mirror(polylines) -> list:
    """The polylines reflected in the real axis, (x, y) -> (x, -y)."""
    return [np.asarray(p, dtype=float) * (1.0, -1.0) for p in polylines]


def _points_to_polyline_dist(px, py, poly) -> np.ndarray:
    """Distance from each point (px[k], py[k]) to the polyline."""
    pts = np.asarray(poly, dtype=float)
    a = pts[:-1]
    d = pts[1:] - a
    L2 = np.einsum("ij,ij->i", d, d)
    L2[L2 == 0.0] = 1.0
    px = np.asarray(px, dtype=float)[:, None]
    py = np.asarray(py, dtype=float)[:, None]
    t = np.clip(((px - a[:, 0]) * d[:, 0] + (py - a[:, 1]) * d[:, 1]) / L2, 0.0, 1.0)
    cx = a[:, 0] + t * d[:, 0]
    cy = a[:, 1] + t * d[:, 1]
    return np.sqrt(np.min((cx - px) ** 2 + (cy - py) ** 2, axis=1))


def _nearest_index(centres: np.ndarray, values) -> np.ndarray:
    """Index of the ascending cell centre nearest each value (ties go up)."""
    i = np.clip(np.searchsorted(centres, values), 1, centres.size - 1)
    return np.where(np.abs(centres[i] - values) <= np.abs(centres[i - 1] - values),
                    i, i - 1)


def _block_cut_cells(occupied, xs, ys, polylines, h):
    """Mark cells crossed by cut curves, dilated to their 8-neighborhood.

    The one cut-barrier rule of every grid: each polyline is resampled at
    h/2, each sample blocks its nearest cell center and that cell's eight
    neighbors.  xs and ys are ascending cell centers at most h apart, so
    no 4-connected step between free cells crosses a cut.

    One blocked cell per sample would stop leaks; the dilation stays as it
    puts cut points more than 1.25h (Chebyshev) from free centers (2h to the
    sample's cell, less h/2 to the sample and h/4 to the cut), so a query's
    straight leg to its nearest free center (<= h/2) never meets a cut.
    """
    ny, nx = occupied.shape
    for poly in polylines:
        pts = resample_polyline(poly, h / 2.0)
        ix = _nearest_index(xs, pts[:, 0])
        iy = _nearest_index(ys, pts[:, 1])
        near = (np.abs(xs[ix] - pts[:, 0]) <= 0.75 * h) & (np.abs(ys[iy] - pts[:, 1]) <= 0.75 * h)
        ix, iy = ix[near], iy[near]
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                yy = np.clip(iy + dy, 0, ny - 1)
                xx = np.clip(ix + dx, 0, nx - 1)
                occupied[yy, xx] = False


# (dy, dx) of the four grid steps; a cell's BFS parent sits at cell - step
_GRID_STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1))


def _grid_bfs(free: np.ndarray, start, targets: np.ndarray | None = None):
    """Breadth-first search over 4-connected free cells from start.

    Returns (dist, step): dist counts the steps from start (-1 where not
    reached) and step is the index into _GRID_STEPS of the step that first
    reached each cell.  Steps are tried in _GRID_STEPS order, so ties go to
    the earlier step.  With a targets mask the search stops after the first
    level that holds a target cell.
    """
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
        for code, (dy, dx) in enumerate(_GRID_STEPS):
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


def _grid_path(free: np.ndarray, start, targets: np.ndarray):
    """Shortest 4-connected path of free cells from start to a target cell,
    as a list of (row, col) cells; the first nearest target in row-major
    order ends it.  None when no target is reachable."""
    dist, step = _grid_bfs(free, start, targets)
    hits = np.nonzero(targets & (dist >= 0))
    if hits[0].size == 0:
        return None
    cell = (int(hits[0][0]), int(hits[1][0]))
    path = [cell]
    while cell != start:
        dy, dx = _GRID_STEPS[step[cell]]
        cell = (cell[0] - dy, cell[1] - dx)
        path.append(cell)
    path.reverse()
    return path


def rasterize(spec: DomainSpec, J: UnitImaginary, *, full_slice: bool = False,
              h: float | None = None) -> PlanarRegionGrid:
    """Occupancy grid of the slice through J (upper half, or the full slice
    including the real trace row and the reflected antipodal half)."""
    h = float(h if h is not None else spec.h)
    if h <= 0.0:
        raise PreconditionError("grid step must be positive")
    x_min, x_max, y_max = spec.bbox
    xs = np.arange(x_min + h / 2.0, x_max, h)
    ys_up = np.arange(h / 2.0, y_max, h)
    if not full_slice:
        ys = ys_up
        X, Y = np.meshgrid(xs, ys)
        occ = np.asarray(spec.membership(X, Y, J.vx, J.vy, J.vz), dtype=bool)
    else:
        ys = np.concatenate([-ys_up[::-1], [0.0], ys_up])
        X, Yu = np.meshgrid(xs, ys_up)
        upper = np.asarray(spec.membership(X, Yu, J.vx, J.vy, J.vz), dtype=bool)
        lower = np.asarray(spec.membership(X, Yu, -J.vx, -J.vy, -J.vz), dtype=bool)
        axis = np.asarray(spec.real_trace(xs), dtype=bool)
        occ = np.vstack([lower[::-1, :], axis[None, :], upper])
    if spec.cuts is not None:
        polylines = list(spec.cuts(J))
        if full_slice:
            polylines += _mirror(spec.cuts(-J))
        _block_cut_cells(occ, xs, ys, polylines, h)
    return PlanarRegionGrid(xs=xs, ys=ys, occupied=occ)


def connected_components(grid: PlanarRegionGrid):
    """Flood-fill labeling; returns (count, labels)."""
    n, labels = grid.label()
    return n, labels


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    value: str  # "yes" | "no" | "indeterminate"
    witness: dict | None = None
    resolution: dict = field(default_factory=dict)

    def summary(self) -> str:
        if self.value != "yes" or not self.resolution:
            return self.value
        parts = ",".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in self.resolution.items())
        return f"yes@{parts}"

    @property
    def is_yes(self) -> bool:
        return self.value == "yes"


def is_slice_domain(spec: DomainSpec, sample: SphereSample,
                    h: float | None = None) -> Verdict:
    """Checks the real trace is nonempty and every sampled slice is a
    connected planar grid; connected slices that never reach the trace row
    leave 4-dimensional connectivity undecided."""
    h = float(h if h is not None else spec.h)
    x_min, x_max, _ = spec.bbox
    xs = np.arange(x_min + h / 2.0, x_max, h)
    trace = np.asarray(spec.real_trace(xs), dtype=bool)
    res = {"N": sample.n_requested, "h": h}
    if not trace.any():
        return Verdict("no", {"reason": "empty real trace"}, res)
    indeterminate = False
    for m, J in enumerate(sample.units):
        grid = rasterize(spec, J, full_slice=True, h=h)
        if not grid.occupied.any():
            return Verdict("no", {"reason": "empty slice", "unit": J.to_list()}, res)
        n, labels = grid.label()
        if n > 1:
            return Verdict("no", {"reason": "disconnected slice",
                                  "unit": J.to_list(), "components": int(n)}, res)
        axis_row = np.where(grid.ys == 0.0)[0]
        if axis_row.size and not grid.occupied[axis_row[0]].any():
            indeterminate = True
    if indeterminate:
        return Verdict("indeterminate",
                       {"reason": "connected slices do not reach the real axis"}, res)
    return Verdict("yes", None, res)


def is_symmetric(spec: DomainSpec, sample: SphereSample,
                 xy: np.ndarray | None = None) -> Verdict:
    """Membership must not depend on the unit; checked on a coarse grid and,
    when the spec carries cut curves, on points of the cuts themselves."""
    x_min, x_max, y_max = spec.bbox
    if xy is None:
        gx = np.linspace(x_min + 1e-3, x_max - 1e-3, 24)
        gy = np.linspace(1e-3, y_max - 1e-3, 12)
        X, Y = np.meshgrid(gx, gy)
        xy = np.column_stack([X.ravel(), Y.ravel()])
    res = {"N": sample.n_requested}
    xs, ys = xy[:, 0], xy[:, 1]
    ref = None
    ref_unit = None
    for J in sample.units:
        mem = np.asarray(spec.membership(xs, ys, J.vx, J.vy, J.vz), dtype=bool)
        if ref is None:
            ref, ref_unit = mem, J
            continue
        diff = np.nonzero(mem != ref)[0]
        if diff.size:
            k = int(diff[0])
            return Verdict("no", {"x": float(xs[k]), "y": float(ys[k]),
                                  "units": [ref_unit.to_list(), J.to_list()]}, res)
    if spec.cuts is not None:
        probe_units = sample.units[:: max(1, len(sample.units) // 16)]
        for J in probe_units:
            for poly in spec.cuts(J):
                pts = np.asarray(poly, float)
                sub = pts[:: max(1, len(pts) // 16)]
                for px, py in sub[sub[:, 1] > 0]:
                    on_J = spec.contains(px, py, J)
                    for K in probe_units:
                        if K.approx(J):
                            continue
                        if spec.contains(px, py, K) != on_J:
                            return Verdict("no", {"x": float(px), "y": float(py),
                                                  "units": [J.to_list(), K.to_list()]}, res)
    return Verdict("yes", None, res)


def symmetric_completion(spec: DomainSpec, sample: SphereSample) -> DomainSpec:
    """Sampled symmetric completion: a point joins when any sampled unit's
    slice contains it.  Monotone in the sample size; exact where slices vary
    monotonically with the distance to a reference unit."""
    units = sample.units

    def membership(x, y, jx, jy, jz):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape, dtype=bool)
        for K in units:
            out |= np.asarray(spec.membership(x, y, K.vx, K.vy, K.vz), dtype=bool)
            if out.all():
                break
        return out

    return DomainSpec(membership, spec.real_trace, spec.bbox, spec.h,
                      cuts=None, name=f"completion({spec.name})")


def completion_of_slice(spec: DomainSpec, K0: UnitImaginary) -> DomainSpec:
    """Exact symmetric completion of the single full slice through K0."""
    def membership(x, y, jx, jy, jz):
        up = np.asarray(spec.membership(x, y, K0.vx, K0.vy, K0.vz), dtype=bool)
        dn = np.asarray(spec.membership(x, y, -K0.vx, -K0.vy, -K0.vz), dtype=bool)
        return up | dn

    return DomainSpec(membership, spec.real_trace, spec.bbox, spec.h,
                      cuts=None, name=f"slice-completion({spec.name})")


def _and_grids(a: PlanarRegionGrid, b: PlanarRegionGrid) -> PlanarRegionGrid:
    """Cells occupied in both grids (same axes)."""
    return PlanarRegionGrid(xs=a.xs, ys=a.ys, occupied=a.occupied & b.occupied)


def omega_jk_plus(spec: DomainSpec, J: UnitImaginary, K: UnitImaginary,
                  h: float | None = None) -> PlanarRegionGrid:
    """Grid of the upper half-plane set where both the J- and K-slices of the
    domain contain the point: the AND of the two slice rasters, so cut
    curves of both slices block cells."""
    grid = rasterize(spec, J, h=h)
    return grid if K.approx(J) else _and_grids(grid, rasterize(spec, K, h=h))


def is_simple(spec: DomainSpec, sample: SphereSample,
              h: float | None = None) -> Verdict:
    """Connectivity of every sampled pair set; antipodal pairs are scanned
    first so witnesses of the counterexample kind surface as (J, -J).
    A yes is only "simple at resolution (N, h)"."""
    h = float(h if h is not None else spec.h)
    res = {"N": sample.n_requested, "h": h}
    units = sample.units
    digest_cache: dict[str, int] = {}
    grid_cache: dict[int, PlanarRegionGrid] = {}

    def components_for(mi, mk, cache: bool) -> int:
        J, K = units[mi], units[mk]
        if cache:
            for m in (mi, mk):
                if m not in grid_cache:
                    grid_cache[m] = rasterize(spec, units[m], h=h)
            grid = _and_grids(grid_cache[mi], grid_cache[mk])
        else:
            grid = omega_jk_plus(spec, J, K, h=h)
        if not grid.occupied.any():
            return 0
        digest = grid.occupancy_digest()
        if digest in digest_cache:
            return digest_cache[digest]
        n, _ = grid.label()
        digest_cache[digest] = int(n)
        return int(n)

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

    hit = scan(sample.antipodal_pairs(), cache=False)
    if hit:
        return hit
    hit = scan([(m, m) for m in range(len(units))], cache=False)
    if hit:
        return hit
    anti = set(sample.antipodal_pairs())
    rest = [(a, b) for a in range(len(units)) for b in range(a + 1, len(units))
            if (a, b) not in anti]
    hit = scan(rest, cache=True)
    if hit:
        return hit
    return Verdict("yes", None, res)


def is_slice_convex(spec: DomainSpec, sample: SphereSample,
                    h: float | None = None) -> Verdict:
    """Hull test on the rasterized full slices: a slice is convex at
    resolution h when no unoccupied cell centre lies in the convex hull of
    its core (the occupied cells whose eight neighbours are occupied).
    Occupancy is membership at the cell centre, so a convex slice always
    passes.  A core on one line has no 2D hull; it is probed along the
    segment between its extreme points, sampled at h/2 (nearest cell)."""
    from scipy.spatial import ConvexHull, Delaunay, QhullError

    h = float(h if h is not None else spec.h)
    res = {"N": sample.n_requested, "h": h}
    for J in sample.units:
        grid = rasterize(spec, J, full_slice=True, h=h)
        occ = grid.occupied
        core = occ & ndimage.binary_erosion(occ, structure=np.ones((3, 3), bool))
        iy, ix = np.nonzero(core)
        if not iy.size:
            continue
        pts = np.column_stack([grid.xs[ix], grid.ys[iy]])
        try:
            tri = Delaunay(pts[ConvexHull(pts).vertices])
        except QhullError:  # fewer than three core points, or all on one line
            tri = None
            ends = pts[np.lexsort((pts[:, 1], pts[:, 0]))[[0, -1]]]
            probe = resample_polyline(ends, h / 2.0)
            cx = _nearest_index(grid.xs, probe[:, 0])
            cy = _nearest_index(grid.ys, probe[:, 1])
            hits = np.nonzero(~occ[cy, cx])[0]
        else:
            cy, cx = np.nonzero(~occ)
            simplex = tri.find_simplex(np.column_stack([grid.xs[cx], grid.ys[cy]]))
            hits = np.nonzero(simplex >= 0)[0]
        if hits.size:
            k = hits[0]
            around = ({"segment": ends.tolist()} if tri is None else
                      {"triangle": tri.points[tri.simplices[simplex[k]]].tolist()})
            return Verdict("no", {"unit": J.to_list(), **around,
                                  "cell": [float(grid.xs[cx[k]]), float(grid.ys[cy[k]])]}, res)
    return Verdict("yes", None, res)


# ---------------------------------------------------------------------------
# spec constructors
# ---------------------------------------------------------------------------

def ball_spec(center: Quaternion | float, radius: float,
              bbox: tuple | None = None, h: float = 0.01) -> DomainSpec:
    """Euclidean ball B(center, radius)."""
    if isinstance(center, (int, float)):
        center = Quaternion(float(center))
    cw = center.w
    cim = np.array([center.x, center.y, center.z])
    cn2 = float(cim @ cim)
    r2 = radius * radius

    def membership(x, y, jx, jy, jz):
        dot = jx * cim[0] + jy * cim[1] + jz * cim[2]
        return (np.asarray(x) - cw) ** 2 + np.asarray(y) ** 2 + cn2 \
            - 2.0 * np.asarray(y) * dot < r2

    def real_trace(x):
        return (np.asarray(x) - cw) ** 2 + cn2 < r2

    if bbox is None:
        margin = max(0.15, 5 * h)
        reach = radius + math.sqrt(cn2)
        bbox = (cw - reach - margin, cw + reach + margin, reach + margin)
    return DomainSpec(membership, real_trace, bbox, h, name="ball")


def halfspace_spec(normal: tuple, offset: float,
                   bbox: tuple = (-3.0, 3.0, 3.0), h: float = 0.01) -> DomainSpec:
    """Slicewise half plane {a x + b y < c} (unit-independent)."""
    a, b = float(normal[0]), float(normal[1])

    def membership(x, y, jx, jy, jz):
        return a * np.asarray(x) + b * np.asarray(y) < offset

    def real_trace(x):
        return a * np.asarray(x) < offset

    return DomainSpec(membership, real_trace, bbox, h, name="halfspace")


def starlike_spec(pull: float = 0.5, h: float = 0.01) -> DomainSpec:
    """Starlike-about-0 slicewise domain {hypot(x, y) < 1 + pull * x}.

    Every slice is starlike with respect to the real point 0, so the domain
    is simple; used as the well-behaved partner of the counterexample.
    """
    if not 0.0 <= pull < 1.0:
        raise PreconditionError("pull must lie in [0, 1)")

    def membership(x, y, jx, jy, jz):
        return np.hypot(np.asarray(x), np.asarray(y)) < 1.0 + pull * np.asarray(x)

    def real_trace(x):
        return np.abs(np.asarray(x)) < 1.0 + pull * np.asarray(x)

    reach = 1.0 / (1.0 - pull)
    bbox = (-1.0 / (1.0 + pull) - 0.2, reach + 0.2, reach + 0.2)
    return DomainSpec(membership, real_trace, bbox, h, name="starlike")


def union_spec(specs, name="union") -> DomainSpec:
    """Pointwise union of cut-free specs."""
    if any(s.cuts is not None for s in specs):
        raise UnsupportedError("union of cut-bearing domains is not supported")

    def membership(x, y, jx, jy, jz):
        return np.logical_or.reduce(np.broadcast_arrays(
            *(np.asarray(s.membership(x, y, jx, jy, jz), dtype=bool) for s in specs)))

    def real_trace(x):
        return np.logical_or.reduce(np.broadcast_arrays(
            *(np.asarray(s.real_trace(x), dtype=bool) for s in specs)))

    bbox = (min(s.bbox[0] for s in specs), max(s.bbox[1] for s in specs),
            max(s.bbox[2] for s in specs))
    return DomainSpec(membership, real_trace, bbox,
                      min(s.h for s in specs), name=name)
