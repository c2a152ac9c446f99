"""Slice-parameterized subsets of H: membership, rasterization, verdicts.

A DomainSpec is a membership oracle over slice coordinates plus raster
metadata.  Membership callables take (x, y, jx, jy, jz) where every argument
broadcasts as a numpy array, so grid and probe evaluations stay vectorized
even when the probed imaginary unit varies per point.

Verdicts about connectivity are resolution-qualified: they are decided on
occupancy grids of cell-center samples, with cut curves rasterized as
8-connected dilated barriers so a one-cell-wide cut cannot leak diagonally.
The array kernels behind the grids are in slicereg.raster, and the
concrete specs (ball, half plane, starlike, union, intersection, the
symmetric completions) in slicereg.specs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain, combinations

import numpy as np

from .errors import GridStepError, PreconditionError
from .quaternions import UnitImaginary
from .raster import (MAX_GRID_CELLS, _arange_len, _block_cut_cells, _check_cells,
                     _clear_rows, _core, _core_hull, _first_cell_in_hull,
                     _half_step_rows, _mirror, _nearest_index, _run_components,
                     _segments, _turn, resample_polyline)

# the interpreter's builtin blake2 (hashlib's blake2b is this one): importing
# hashlib would load OpenSSL (_hashlib), about 3.7 MB of resident memory
# that nothing else in slicereg needs
from _blake2 import blake2b

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
    slicewise declares that membership ignores the unit (cuts(J) may
    not); the constructor sets it, nothing probes for it.  A slicewise
    spec's raster is then determined by its cut geometry (_raster_key).
    """

    membership: callable
    real_trace: callable
    bbox: tuple
    h: float = 0.01
    cuts: callable = None
    cut_clearance: float = 0.0
    name: str = ""
    slicewise: bool = False

    def contains_rows(self, x, y, vectors) -> np.ndarray:
        """Membership of the points x + yJ, one per row, as bools (n,): x
        and y broadcast to the rows J of vectors (n, 3), unit vectors, as
        in HoloSliceFunction.eval_rows.  A row with y < 0 is the point
        x + |y|(-J), a row with y == 0 reads real_trace, and a point within
        cut_clearance of a cut of its unit is outside; the cuts are read
        once per distinct unit, and tested with one _clear_rows call, the
        near-cut test continued logs use too."""
        v = np.asarray(vectors, dtype=float).reshape(-1, 3)
        x, y = (np.broadcast_to(np.asarray(a, dtype=float), (len(v),)) for a in (x, y))
        below = y < 0.0
        v, y = np.where(below[:, None], -v, v), np.where(below, -y, y)
        ok = np.zeros(len(v), dtype=bool)
        real = y == 0.0
        if real.any():
            ok[real] = self.real_trace(x[real])
        if not real.all():
            ok[~real] = self.membership(x[~real], y[~real], *v[~real].T)
        if self.cuts is None or not ok.any():
            return ok
        tol = max(self.cut_clearance, 0.0)
        inside = np.flatnonzero(ok)
        units, unit_of = np.unique(v[inside], axis=0, return_inverse=True)
        for k, u in enumerate(units.tolist()):
            rows = inside[unit_of.reshape(-1) == k]
            ok[rows] = _clear_rows(x[rows], y[rows], _segments(self.cuts(UnitImaginary(*u))), tol)
        return ok

    def contains(self, x: float, y: float, J: UnitImaginary | None) -> bool:
        """The one-row case of contains_rows.  Without J the point is taken
        with the unit i and no cut test, and y < 0 raises ValueError."""
        if J is None:
            if y < 0.0:
                raise ValueError("negative height requires a unit")
            return bool(replace(self, cuts=None).contains_rows(x, y, [1.0, 0.0, 0.0])[0])
        return bool(self.contains_rows(x, y, J.to_list())[0])


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
        return blake2b(np.packbits(self.occupied).tobytes(), digest_size=20).hexdigest()



def _check_raster(spec: DomainSpec, h: float, full_slice: bool) -> None:
    """Raise GridStepError unless h > 0 and the grid of
    rasterize(spec, ., full_slice=full_slice, h=h) fits MAX_GRID_CELLS."""
    if not h > 0.0:
        raise GridStepError("grid step must be positive")
    x_min, x_max, y_max = spec.bbox
    rows = _arange_len(h / 2.0, y_max, h)
    _check_cells(2.0 * rows + 1.0 if full_slice else rows,
                 _arange_len(x_min + h / 2.0, x_max, h),
                 f"a raster at h = {h:g}", GridStepError)


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

    up = half(J)
    if not full_slice:
        ys = ys_up
        occ = up.copy()
    else:
        ys = np.concatenate([-ys_up[::-1], [0.0], ys_up])
        axis = np.asarray(spec.real_trace(xs), dtype=bool)
        # a slicewise spec's lower half, that of -J, is its upper half
        down = up if spec.slicewise else half(-J)
        occ = np.vstack([down[::-1, :], axis[None, :], up])
    if spec.cuts is not None:
        polylines = list(spec.cuts(J))
        if full_slice:
            polylines += _mirror(spec.cuts(-J))
        _block_cut_cells(occ, xs, ys, polylines, h)
    return PlanarRegionGrid(xs=xs, ys=ys, occupied=occ)


def _raster_key(spec: DomainSpec, J: UnitImaginary, full_slice: bool):
    """What rasterize(spec, J, full_slice=full_slice) depends on besides
    spec and h: the unit J itself, or, for a slicewise spec, its cut
    geometry, the bytes of each polyline of cuts(J) and, for a full
    slice, of cuts(-J).  Units with equal keys have equal rasters."""
    if not spec.slicewise:
        return J
    if spec.cuts is None:
        return ()

    def geometry(K):
        return tuple(np.asarray(p, dtype=float).tobytes() for p in spec.cuts(K))

    return (geometry(J), geometry(-J)) if full_slice else geometry(J)


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
    seen, counts = set(), {}
    # one raster per plane: the full slice of units[m + base_count] = -J is
    # the row flip of that of J, so it fails exactly when J's does; and one
    # per raster key: a unit whose key an earlier unit had shares its raster
    for J in sample.units[:sample.base_count]:
        key = _raster_key(spec, J, full_slice=True)
        if key in seen:
            continue
        seen.add(key)
        grid = rasterize(spec, J, full_slice=True, h=h)
        if not grid.occupied.any():
            return Verdict("no", {"reason": "empty slice", "unit": J.to_list()}, res)
        # a slicewise spec's key identifies its raster; the equal rasters
        # of other specs are counted once, by digest
        digest = key if spec.slicewise else grid.occupancy_digest()
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
            others = [K for K in probe_units if not K.approx(J)]
            # each cut point on J and then on every other probe unit, in one
            # call per polyline; the witness is the first mismatch
            units = np.array([J.to_list()] + [K.to_list() for K in others])
            for poly in spec.cuts(J):
                pts = np.asarray(poly, float)
                sub = pts[:: max(1, len(pts) // 16)]
                sub = sub[sub[:, 1] > 0]
                on = spec.contains_rows(*np.repeat(sub, len(units), axis=0).T,
                                        np.tile(units, (len(sub), 1))).reshape(-1, len(units))
                diff = np.argwhere(on[:, 1:] != on[:, :1])
                if diff.size:
                    (px, py), K = sub[diff[0, 0]], others[diff[0, 1]]
                    return Verdict("no", {"x": float(px), "y": float(py),
                                          "units": [J.to_list(), K.to_list()]}, res)
    return Verdict("yes", None, res)


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


# the most bytes of distinct upper half rasters is_simple keeps at once:
# four rasters of MAX_GRID_CELLS cells
MAX_KEPT_BYTES = 4 * MAX_GRID_CELLS


def is_simple(spec: DomainSpec, sample: SphereSample,
              h: float | None = None) -> Verdict:
    """Connectivity of every sampled pair set: the AND of the upper half
    slice rasters of its two units.  Each raster key (_raster_key) is
    rasterized once, on first use, and each distinct raster is kept once,
    by occupancy digest, up to MAX_KEPT_BYTES; each unordered digest pair
    is counted once, and a pair of equal rasters is that raster, with no
    AND.  Antipodal pairs are scanned first so witnesses of the
    counterexample kind surface as (J, -J), then each unit with itself,
    then the other pairs.
    A yes is only "simple at resolution (N, h)"."""
    h = float(h if h is not None else spec.h)
    res = {"N": sample.n_requested, "h": h}
    units, n = sample.units, len(sample.units)
    pairs = chain(sample.antipodal_pairs(), zip(range(n), range(n)),
                  ((a, b) for a, b in combinations(range(n), 2)
                   if b - a != sample.base_count))  # antipodal pairs are scanned
    # the occupancy digest of each unit's raster and of each raster key's,
    # and the one kept raster of each digest
    digests, by_key, kept, counts = {}, {}, {}, {}
    kept_bytes = 0
    for mi, mk in pairs:
        for m in (mi, mk):
            if m in digests:
                continue
            key = _raster_key(spec, units[m], full_slice=False)
            if key not in by_key:
                grid = rasterize(spec, units[m], h=h)
                digest = grid.occupancy_digest()
                if digest not in kept:
                    kept_bytes += grid.occupied.nbytes
                    if kept_bytes > MAX_KEPT_BYTES:
                        raise PreconditionError(
                            f"is_simple would keep {len(kept) + 1} distinct rasters of "
                            f"{kept_bytes:.4g} bytes in all, more than the budget of "
                            f"{MAX_KEPT_BYTES:.4g}; use fewer samples or a coarser grid step")
                    kept[digest] = grid
                by_key[key] = digest
            digests[m] = by_key[key]
        pair = frozenset((digests[mi], digests[mk]))
        if pair not in counts:
            a, b = kept[digests[mi]], kept[digests[mk]]
            grid = a if a is b else _and_grids(a, b)
            counts[pair] = grid.component_count() if grid.occupied.any() else 0
        if counts[pair] > 1:
            return Verdict("no", {
                "pair": [units[mi].to_list(), units[mk].to_list()],
                "antipodal": bool(units[mk].approx(-units[mi], 1e-6)),
                "components": counts[pair],
            }, res)
    return Verdict("yes", None, res)


def _hull_witness(grid: PlanarRegionGrid, h: float) -> dict | None:
    """None when the full slice grid passes the hull test of
    is_slice_convex, else the witness of its "no" without the unit."""
    occ = grid.occupied
    core = _core(occ)
    Y = _half_step_rows(grid.ys, h)
    hull = _core_hull(core, Y)
    if not hull:
        return None
    if len(hull) < 3:  # fewer than three core points, or all on one line
        iy, ix = np.nonzero(core)
        pts = np.column_stack([grid.xs[ix], grid.ys[iy]])
        ends = pts[np.lexsort((pts[:, 1], pts[:, 0]))[[0, -1]]]
        probe = resample_polyline(ends, h / 2.0)
        cx = _nearest_index(grid.xs, probe[:, 0])
        cy = _nearest_index(grid.ys, probe[:, 1])
        hits = np.nonzero(~occ[cy, cx])[0]
        if not hits.size:
            return None
        cy, cx = int(cy[hits[0]]), int(cx[hits[0]])
        around = {"segment": ends.tolist()}
    else:
        hit = _first_cell_in_hull(occ, hull, Y)
        if hit is None:
            return None
        cy, cx = hit
        # the fan triangle (v0, vi, vi+1) of the hull that holds the cell
        v0, cell = hull[0], (2 * cx, int(Y[cy]))
        i = next(i for i in range(1, len(hull) - 1)
                 if _turn(v0, hull[i], cell) >= 0 >= _turn(v0, hull[i + 1], cell))
        around = {"triangle": [[float(grid.xs[X // 2]), float(grid.ys[np.searchsorted(Y, y)])]
                               for X, y in (v0, hull[i], hull[i + 1])]}
    return {**around, "cell": [float(grid.xs[cx]), float(grid.ys[cy])]}


def is_slice_convex(spec: DomainSpec, sample: SphereSample,
                    h: float | None = None) -> Verdict:
    """Hull test on the rasterized full slices: a slice is convex at
    resolution h when no unoccupied cell centre lies in the convex hull of
    its core (the occupied cells whose eight neighbours are occupied).
    Occupancy is membership at the cell centre, so a convex slice always
    passes.  A core on one line has no 2D hull; it is probed along the
    segment between its extreme points, sampled at h/2 (nearest cell).
    Each plane is tested once, and each raster key (_raster_key) once.

    The hull is exact: cell centres are integer points in units of h/2,
    column 2 ix and row _half_step_rows."""
    h = float(h if h is not None else spec.h)
    res = {"N": sample.n_requested, "h": h}
    passed = set()
    for J in sample.units[:sample.base_count]:  # -J's slice is the row flip
        key = _raster_key(spec, J, full_slice=True)
        if key in passed:
            continue
        witness = _hull_witness(rasterize(spec, J, full_slice=True, h=h), h)
        if witness is not None:
            return Verdict("no", {"unit": J.to_list(), **witness}, res)
        passed.add(key)
    return Verdict("yes", None, res)
