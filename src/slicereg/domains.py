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
from itertools import chain, combinations

import numpy as np

from .errors import PreconditionError, UnsupportedError
from .quaternions import Quaternion, UnitImaginary

# the most cells one raster or continuation table may hold, and the most
# entries of a sphere sample's pairwise dot matrix: 4x the 4.0e6 cells of
# the counterexample's full slice at h = 0.005
MAX_GRID_CELLS = 16_000_000


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
        extra = list(extra)
        units = 2 * (n + len(extra))
        # the min-angle check compares every pair of units, and the sphere
        # scans visit every unit: both are bounded by the cell budget
        if units * units > MAX_GRID_CELLS:
            raise PreconditionError(
                f"a sphere sample of N = {n} has {units} units, whose "
                f"{units}^2 pairwise dot products exceed the budget of "
                f"{MAX_GRID_CELLS:.4g}; use fewer samples")
        base = fibonacci_points(n)
        for u in extra:
            base = np.vstack([base, [u.vx, u.vy, u.vz]])
        vecs = np.vstack([base, -base])
        self.n_requested = n
        self.base_count = base.shape[0]
        self.vectors = vecs
        self.units = [UnitImaginary(*v) for v in vecs]
        # the antipodal index pairs (m, m + base_count), one row each
        self.antipodes = np.arange(len(vecs)).reshape(2, -1).T
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
        return [tuple(p) for p in self.antipodes.tolist()]


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
    """Occupancy bitmap over cell centers of one slice; 4-connectivity.
    Once counted, runs keeps what _run_components returns."""

    xs: np.ndarray
    ys: np.ndarray
    occupied: np.ndarray
    labels: np.ndarray | None = None
    runs: tuple | None = None

    @property
    def h(self) -> float:
        return float(self.xs[1] - self.xs[0]) if self.xs.size > 1 else 0.0

    def component_count(self) -> int:
        """Number of 4-connected components, without painting labels."""
        if self.runs is None:
            self.runs = _run_components(self.occupied)
        return self.runs[3]

    def label(self):
        """(count, labels): labels is an int32 array, 0 off the region and
        components numbered 1, 2, ... by their first cell in raster order,
        painted from the runs by one in-place cumsum."""
        if self.labels is None:
            ny, nx = self.occupied.shape
            self.component_count()
            paint = np.zeros(ny * (nx + 1), dtype=np.int32)
            paint[self.runs[0]] = self.runs[2]
            paint[self.runs[1]] = -self.runs[2]
            self.labels = np.cumsum(paint, out=paint).reshape(ny, nx + 1)[:, :nx]
        return self.runs[3], self.labels

    def component_at(self, x: float, y: float) -> int:
        """Component of the cell nearest (x, y), 0 off the region, read from
        the run that may hold its key (one searchsorted); paints nothing."""
        self.component_count()
        starts, ends, comp, _ = self.runs
        key = np.argmin(np.abs(self.ys - y)) * (self.xs.size + 1) + np.argmin(np.abs(self.xs - x))
        k = np.searchsorted(starts, key, "right") - 1
        return int(comp[k]) if k >= 0 and key < ends[k] else 0

    def occupancy_digest(self) -> str:
        return hashlib.sha1(np.packbits(self.occupied).tobytes()).hexdigest()


def _run_components(occupied: np.ndarray):
    """Run-length labelling of the 4-connected components of a bool mask.

    Returns (starts, ends, comp, count).  The k-th row run, in raster
    order, covers the flat keys starts[k] <= row*(nx+1) + col < ends[k]
    (the extra column is always empty, so a run never wraps), and comp[k]
    is its component, numbered 1, 2, ... by first run in raster order.

    Runs that share a column in consecutive rows are joined by rounds of
    min-hooking on arrays: each root takes the smallest root of the runs
    joined to it, then pointer jumping makes every parent a root.  A
    parent only decreases and never exceeds its index, so there are no
    cycles, and a component's smallest run index stays its root.  Each
    round hooks every root that is not a local minimum among its
    neighbours' roots; a local minimum that nothing hooks onto has only
    neighbours that hooked onto smaller roots, so it hooks in the next
    round.  Two rounds thus at least halve the roots of an unfinished
    component, and the rounds are O(log runs).
    """
    ny, nx = occupied.shape
    width = nx + 1
    # each row behind one empty cell, with one more after the last row, so
    # every row sits between two empty cells: transitions alternate start
    # and end, and the transition after flat index e is the key e
    flat = np.zeros(ny * width + 1, dtype=bool)
    flat[:-1].reshape(ny, width)[:, 1:] = occupied
    edge = np.flatnonzero(flat[1:] != flat[:-1])
    starts, ends = edge[0::2], edge[1::2]
    # the runs of the next row that share a column with run k are the
    # slice lo[k]:hi[k]: they end after its start and start before its end
    lo = np.searchsorted(ends, starts + width, side="right")
    hi = np.searchsorted(starts, ends + width, side="left")
    count = np.maximum(hi - lo, 0)
    k = np.repeat(np.arange(starts.size), count)
    j = np.arange(k.size) - np.repeat(np.cumsum(count) - count - lo, count)
    parent = np.arange(starts.size)
    while True:
        rk, rj = parent[k], parent[j]
        split = rk != rj
        if not split.any():
            break
        k, j, rk, rj = k[split], j[split], rk[split], rj[split]
        low = np.minimum(rk, rj)
        np.minimum.at(parent, rk, low)
        np.minimum.at(parent, rj, low)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    # each root is its component's first run, so sorted roots number the
    # components in raster order
    roots, comp = np.unique(parent, return_inverse=True)
    return starts, ends, comp.astype(np.int32) + 1, roots.size


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
    """Index of the ascending cell centre nearest each value.

    An exact tie goes to the centre farther from 0 (up for values >= 0,
    down below 0).  The rule is symmetric under v -> -v, so on centres
    symmetric about 0 the value -v gets the mirror index of v: a cut point
    midway between two rows (the half line y = 2 when 2/h is an integer)
    then blocks mirrored rows in the full slices of J and -J.
    """
    i = np.clip(np.searchsorted(centres, values), 1, centres.size - 1)
    up, lo = np.abs(centres[i] - values), np.abs(centres[i - 1] - values)
    return np.where((up < lo) | ((up == lo) & (values >= 0.0)), i, i - 1)


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
    At the grid's edge, where samples more than 3h/4 from every centre are
    dropped, a cut point within h/2 of a centre still has a kept sample
    within 3h/4 of it, which blocks that cell.

    A sample midway between two centres blocks the one farther from the
    real axis (see _nearest_index), so mirrored cuts block mirrored cells
    and the full slice of -J is exactly the row flip of that of J.

    The samples of all polylines are stacked and their 3x3 blocks, clamped
    to the grid, written in one indexed assignment; writes of False do not
    depend on order, so this blocks the cells a per-polyline loop would.
    """
    if not polylines:
        return
    ny, nx = occupied.shape
    pts = np.vstack([resample_polyline(poly, h / 2.0) for poly in polylines])
    ix = _nearest_index(xs, pts[:, 0])
    iy = _nearest_index(ys, pts[:, 1])
    near = (np.abs(xs[ix] - pts[:, 0]) <= 0.75 * h) & (np.abs(ys[iy] - pts[:, 1]) <= 0.75 * h)
    off = np.arange(-1, 2)
    yy = np.minimum(np.maximum(iy[near, None] + off, 0), ny - 1)
    xx = np.minimum(np.maximum(ix[near, None] + off, 0), nx - 1)
    occupied[yy[:, :, None], xx[:, None, :]] = False


# (dy, dx) of the four grid steps; a cell's BFS parent sits at cell - step
_GRID_STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1))


def _grid_bfs(free: np.ndarray, start, targets: np.ndarray | None = None):
    """Breadth-first search over 4-connected free cells from start.

    Returns (dist, step): dist counts the steps from start (-1 where not
    reached) and step is the index into _GRID_STEPS of the step that first
    reached each cell.  Steps are tried in _GRID_STEPS order, so ties go to
    the earlier step.  With a targets mask the search stops after the first
    level that holds a target cell.  The search runs on a copy of free
    padded with a ring of blocked cells, so no step needs a bounds check.
    """
    ny, nx = free.shape
    width = nx + 2

    def ringed(mask):  # flat copy of mask inside a ring of False cells
        out = np.zeros((ny + 2, width), dtype=bool)
        out[1:-1, 1:-1] = mask
        return out.ravel()

    walkable = ringed(free)
    goal = None if targets is None else ringed(targets)
    dist = np.full(walkable.size, -1, dtype=np.int32)
    step = np.full(walkable.size, -1, dtype=np.int8)
    offsets = [dy * width + dx for dy, dx in _GRID_STEPS]
    frontier = np.array([(start[0] + 1) * width + start[1] + 1])
    dist[frontier] = 0
    level = 0
    # the frontier is a flat index array: each level visits only the
    # neighbours of its cells, and each step claims the free unvisited ones
    while frontier.size:
        if goal is not None and goal[frontier].any():
            break
        level += 1
        reached = []
        for code, offset in enumerate(offsets):
            cells = frontier + offset
            cells = cells[walkable[cells] & (dist[cells] < 0)]
            dist[cells] = level
            step[cells] = code
            reached.append(cells)
        frontier = np.concatenate(reached)
    return (dist.reshape(ny + 2, width)[1:-1, 1:-1],
            step.reshape(ny + 2, width)[1:-1, 1:-1])


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


def _arange_len(lo: float, hi: float, h: float) -> float:
    """len(np.arange(lo, hi, h)) for h > 0, computed without allocating;
    inf when the count overflows."""
    n = (hi - lo) / h
    return float(max(math.ceil(n), 0)) if math.isfinite(n) else n


def _check_cells(rows: float, cols: float, what: str) -> None:
    """Raise PreconditionError, before anything is allocated, when a grid
    of rows x cols cells exceeds MAX_GRID_CELLS."""
    if not rows * cols <= MAX_GRID_CELLS:
        raise PreconditionError(
            f"{what} needs {rows:.4g} x {cols:.4g} cells, more than the "
            f"budget of {MAX_GRID_CELLS:.4g}; use a coarser grid step")


def _check_raster(spec: DomainSpec, h: float, full_slice: bool) -> None:
    """Raise PreconditionError unless h > 0 and the grid of
    rasterize(spec, ., full_slice=full_slice, h=h) fits MAX_GRID_CELLS."""
    if not h > 0.0:
        raise PreconditionError("grid step must be positive")
    x_min, x_max, y_max = spec.bbox
    rows = _arange_len(h / 2.0, y_max, h)
    _check_cells(2.0 * rows + 1.0 if full_slice else rows,
                 _arange_len(x_min + h / 2.0, x_max, h),
                 f"a raster at h = {h:g}")


def rasterize(spec: DomainSpec, J: UnitImaginary, *, full_slice: bool = False,
              h: float | None = None) -> PlanarRegionGrid:
    """Occupancy grid of the slice through J (upper half, or the full slice
    including the real trace row and the reflected antipodal half)."""
    h = float(h if h is not None else spec.h)
    _check_raster(spec, h, full_slice)
    x_min, x_max, y_max = spec.bbox
    xs = np.arange(x_min + h / 2.0, x_max, h)
    ys_up = np.arange(h / 2.0, y_max, h)

    def half(K):  # membership on the (row, column) axes of the upper half
        mem = spec.membership(xs[None, :], ys_up[:, None], K.vx, K.vy, K.vz)
        return np.broadcast_to(np.asarray(mem, dtype=bool), (ys_up.size, xs.size))

    if not full_slice:
        ys = ys_up
        occ = half(J).copy()
    else:
        ys = np.concatenate([-ys_up[::-1], [0.0], ys_up])
        axis = np.asarray(spec.real_trace(xs), dtype=bool)
        occ = np.vstack([half(-J)[::-1, :], axis[None, :], half(J)])
    if spec.cuts is not None:
        polylines = list(spec.cuts(J))
        if full_slice:
            polylines += _mirror(spec.cuts(-J))
        _block_cut_cells(occ, xs, ys, polylines, h)
    return PlanarRegionGrid(xs=xs, ys=ys, occupied=occ)


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
    _check_raster(spec, h, full_slice=True)
    x_min, x_max, _ = spec.bbox
    xs = np.arange(x_min + h / 2.0, x_max, h)
    trace = np.asarray(spec.real_trace(xs), dtype=bool)
    res = {"N": sample.n_requested, "h": h}
    if not trace.any():
        return Verdict("no", {"reason": "empty real trace"}, res)
    indeterminate = False
    counts = {}
    # one raster per plane: the full slice of units[m + base_count] = -J is
    # the row flip of that of J, so it fails exactly when J's does
    for J in sample.units[:sample.base_count]:
        grid = rasterize(spec, J, full_slice=True, h=h)
        if not grid.occupied.any():
            return Verdict("no", {"reason": "empty slice", "unit": J.to_list()}, res)
        digest = grid.occupancy_digest()  # equal rasters are counted once
        if digest not in counts:
            counts[digest] = grid.component_count()
        n = counts[digest]
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
    """Connectivity of every sampled pair set: the AND of the upper half
    slice rasters of its two units.  Each unit is rasterized once, on first
    use, and each distinct raster is kept once, by occupancy digest; each
    unordered digest pair is counted once, and a pair of equal rasters is
    that raster, with no AND.  Antipodal pairs are scanned first so
    witnesses of the counterexample kind surface as (J, -J), then each
    unit with itself, then the other pairs.
    A yes is only "simple at resolution (N, h)"."""
    h = float(h if h is not None else spec.h)
    res = {"N": sample.n_requested, "h": h}
    units, n = sample.units, len(sample.units)
    pairs = chain(sample.antipodal_pairs(), zip(range(n), range(n)),
                  ((a, b) for a, b in combinations(range(n), 2)
                   if b - a != sample.base_count))  # antipodal pairs are scanned
    grids, kept, counts = {}, {}, {}
    for mi, mk in pairs:
        for m in (mi, mk):
            if m not in grids:
                grid = rasterize(spec, units[m], h=h)
                grids[m] = kept.setdefault(grid.occupancy_digest(), grid)
        a, b = grids[mi], grids[mk]
        key = frozenset((id(a), id(b)))  # one kept raster per digest
        if key not in counts:
            grid = a if a is b else _and_grids(a, b)
            counts[key] = grid.component_count() if grid.occupied.any() else 0
        if counts[key] > 1:
            return Verdict("no", {
                "pair": [units[mi].to_list(), units[mk].to_list()],
                "antipodal": bool(units[mk].approx(-units[mi], 1e-6)),
                "components": counts[key],
            }, res)
    return Verdict("yes", None, res)


def _core(occupied: np.ndarray) -> np.ndarray:
    """Cells whose 3x3 neighbourhood is occupied; border cells never are."""
    ny, nx = occupied.shape
    core = np.zeros_like(occupied)
    inner = core[1:-1, 1:-1]
    inner[...] = True
    for dy in range(3):
        for dx in range(3):
            inner &= occupied[dy:dy + ny - 2, dx:dx + nx - 2]
    return core


def _turn(o, a, b) -> int:
    """Twice the signed area of (o, a, b); > 0 for a counter-clockwise turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _integer_hull(points) -> list:
    """Vertices of the convex hull of integer points, counter-clockwise and
    no three on one line (Andrew's monotone chain); fewer than three when
    the points lie on one line."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    chains = []
    for seq in (pts, pts[::-1]):
        chain = []
        for p in seq:
            while len(chain) >= 2 and _turn(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    return chains[0] + chains[1]


def _half_step_rows(ys: np.ndarray, h: float) -> np.ndarray:
    """Row coordinates in units of h/2: odd off the real axis and 0 on it,
    as the full slice's axis row sits h/2 from its neighbours."""
    return np.rint(ys / (h / 2.0)).astype(np.int64)


def _core_hull(core: np.ndarray, Y: np.ndarray) -> list:
    """_integer_hull of the core cell centres (2 ix, Y[iy]): the hull of
    each row's outermost core cells is the hull of the core."""
    rows = np.flatnonzero(core.any(axis=1))
    left = core[rows].argmax(axis=1)
    right = core.shape[1] - 1 - core[rows, ::-1].argmax(axis=1)
    return _integer_hull(zip((2 * np.concatenate([left, right])).tolist(),
                             np.tile(Y[rows], 2).tolist()))


def _first_cell_in_hull(occupied: np.ndarray, hull: list, Y: np.ndarray):
    """(iy, ix) of the first unoccupied cell, in row-major order, whose
    centre (2 ix, Y[iy]) lies in the closed hull; None when there is none.

    Each edge (A, B) of the counter-clockwise hull keeps the points with
    ey (X - Ax) <= ex (Y - Ay); on one row that bounds X above (ey > 0),
    below (ey < 0) or keeps the whole row or none of it (ey = 0), and
    floor division turns the bounds into columns lo <= ix <= hi.
    """
    nx = occupied.shape[1]
    A = np.asarray(hull, dtype=np.int64)
    ex, ey = (np.roll(A, -1, axis=0) - A).T
    bound = A[:, 0] * ey + ex * (Y[:, None] - A[:, 1])  # ey X <= bound
    up, dn = ey > 0, ey < 0
    hi = np.min(bound[:, up] // (2 * ey[up]), axis=1, initial=nx - 1)
    lo = np.max(-(bound[:, dn] // (-2 * ey[dn])), axis=1, initial=0)
    hi[~(bound[:, ey == 0] >= 0).all(axis=1)] = -1
    cols = np.arange(nx)
    hits = np.flatnonzero((cols >= lo[:, None]) & (cols <= hi[:, None]) & ~occupied)
    return divmod(int(hits[0]), nx) if hits.size else None


def is_slice_convex(spec: DomainSpec, sample: SphereSample,
                    h: float | None = None) -> Verdict:
    """Hull test on the rasterized full slices: a slice is convex at
    resolution h when no unoccupied cell centre lies in the convex hull of
    its core (the occupied cells whose eight neighbours are occupied).
    Occupancy is membership at the cell centre, so a convex slice always
    passes.  A core on one line has no 2D hull; it is probed along the
    segment between its extreme points, sampled at h/2 (nearest cell).

    The hull is exact: cell centres are integer points in units of h/2,
    column 2 ix and row _half_step_rows."""
    h = float(h if h is not None else spec.h)
    res = {"N": sample.n_requested, "h": h}
    for J in sample.units[:sample.base_count]:  # -J's slice is the row flip
        grid = rasterize(spec, J, full_slice=True, h=h)
        occ = grid.occupied
        core = _core(occ)
        Y = _half_step_rows(grid.ys, h)
        hull = _core_hull(core, Y)
        if not hull:
            continue
        if len(hull) < 3:  # fewer than three core points, or all on one line
            iy, ix = np.nonzero(core)
            pts = np.column_stack([grid.xs[ix], grid.ys[iy]])
            ends = pts[np.lexsort((pts[:, 1], pts[:, 0]))[[0, -1]]]
            probe = resample_polyline(ends, h / 2.0)
            cx = _nearest_index(grid.xs, probe[:, 0])
            cy = _nearest_index(grid.ys, probe[:, 1])
            hits = np.nonzero(~occ[cy, cx])[0]
            if not hits.size:
                continue
            cy, cx = int(cy[hits[0]]), int(cx[hits[0]])
            around = {"segment": ends.tolist()}
        else:
            hit = _first_cell_in_hull(occ, hull, Y)
            if hit is None:
                continue
            cy, cx = hit
            # the fan triangle (v0, vi, vi+1) of the hull that holds the cell
            v0, cell = hull[0], (2 * cx, int(Y[cy]))
            i = next(i for i in range(1, len(hull) - 1)
                     if _turn(v0, hull[i], cell) >= 0 >= _turn(v0, hull[i + 1], cell))
            around = {"triangle": [[float(grid.xs[X // 2]), float(grid.ys[np.searchsorted(Y, y)])]
                                   for X, y in (v0, hull[i], hull[i + 1])]}
        return Verdict("no", {"unit": J.to_list(), **around,
                              "cell": [float(grid.xs[cx]), float(grid.ys[cy])]}, res)
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
