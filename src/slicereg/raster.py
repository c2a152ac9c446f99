"""Raster kernels of the slice grids: the cell budget, run-length
component labelling, polylines and the one cut rasterizer, the one grid
breadth-first search, and the integer hull kernels of the convexity test.

Every kernel works on plain numpy arrays (bool masks and cell centres);
the domain specs and verdicts that call them live in slicereg.domains,
and the continuation tables in slicereg.holomorphic.
"""
from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .errors import PreconditionError

# the most cells one raster or continuation table may hold, and the most
# entries of a sphere sample's pairwise dot matrix: 4x the 4.0e6 cells of
# the counterexample's full slice at h = 0.005
MAX_GRID_CELLS = 16_000_000
# cells of the row blocks _run_components scans a mask in: small enough to
# be reused from the heap, so a large mask adds no page faults
_SCAN_CELLS = 1 << 16


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
    # and end, and the transition after flat index e is the key e.  Blocks
    # of rows are laid out this way in one reused buffer whose empty cells
    # are never written, so no temporary grows with the mask
    rows = max(1, min(ny, _SCAN_CELLS // width))
    buf = np.zeros(rows * width + 1, dtype=bool)
    edges = [np.empty(0, dtype=np.intp)]
    for r0 in range(0, ny, rows):
        block = occupied[r0:r0 + rows]
        flat = buf[:block.shape[0] * width + 1]
        flat[:-1].reshape(-1, width)[:, 1:] = block
        edges.append(np.flatnonzero(flat[1:] != flat[:-1]) + r0 * width)
    edge = np.concatenate(edges)
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
    # every parent is now a root, and each root is its component's first
    # run, so counting the roots up to each run's root numbers the
    # components in raster order, with no sort
    number = np.cumsum(parent == np.arange(parent.size), dtype=np.int32)
    return starts, ends, number[parent], int(number[-1]) if number.size else 0


def resample_polyline(points, max_step: float) -> np.ndarray:
    """Insert vertices so consecutive points are at most max_step apart.
    Raises PreconditionError when that needs more than MAX_GRID_CELLS
    points or a segment's length is not finite, before allocating them."""
    pts = np.asarray(points, dtype=float)
    a = pts[:-1]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are refused
        seg = pts[1:] - a
        n = np.ceil(np.hypot(seg[:, 0], seg[:, 1]) / max_step)
    total = float(np.sum(n))
    if not total <= MAX_GRID_CELLS:
        raise PreconditionError(
            f"a polyline resampled at step {max_step:g} needs {total:.4g} points, more than "
            f"the budget of {MAX_GRID_CELLS:.4g}; its vertices are too far apart or not finite")
    n = np.maximum(1, n.astype(int))
    first = np.repeat(np.cumsum(n) - n, n)  # output index of each segment's k = 1
    k = np.arange(1, first.size + 1) - first
    frac = k / np.repeat(n, n)
    return np.vstack([pts[:1], np.repeat(a, n, axis=0)
                      + np.repeat(seg, n, axis=0) * frac[:, None]])


def _mirror(polylines) -> list:
    """The polylines reflected in the real axis, (x, y) -> (x, -y)."""
    return [np.asarray(p, dtype=float) * (1.0, -1.0) for p in polylines]


def _fit_scale(*values) -> np.ndarray:
    """For each element of the broadcast of the values (arrays or
    numbers), a power of two that brings the largest magnitude among them
    to at most 2**500, so that sums of their squares and pairwise
    products, times factors up to 2**20, stay finite; 1.0 where it already
    is, or where one of them is not finite.  Scaling by a power of two is
    exact, so inputs of ordinary size are computed as written; the target
    keeps the squares of values 2**1000 below the largest (0.05 beside
    1e300) normal."""
    big = reduce(np.maximum, [np.abs(np.asarray(v, dtype=float)) for v in values])
    return np.ldexp(1.0, np.where((2.0 ** 500 < big) & (big < math.inf),
                                  500 - np.frexp(big)[1], 0))


def _points_to_polyline_dist(px, py, poly) -> np.ndarray:
    """Distance from each point (px[k], py[k]) to the polyline.  Each
    segment is parametrized from its vertex nearer the point, so the point
    keeps its place along a segment whose far vertex is many orders
    larger.  Each point is computed at the _fit_scale of its own
    coordinates and the polyline's, so huge ones do not overflow and no
    point's distance depends on the others."""
    pts = np.asarray(poly, dtype=float)
    px = np.asarray(px, dtype=float)[:, None]
    py = np.asarray(py, dtype=float)[:, None]
    s = _fit_scale(px, py, np.max(np.abs(pts), initial=0.0))
    x, y = px * s, py * s
    ax, ay, bx, by = (c * s for c in (pts[:-1, 0], pts[:-1, 1], pts[1:, 0], pts[1:, 1]))
    b_nearer = (x - bx) ** 2 + (y - by) ** 2 < (x - ax) ** 2 + (y - ay) ** 2
    ox, oy = np.where(b_nearer, bx, ax), np.where(b_nearer, by, ay)
    dx, dy = np.where(b_nearer, ax - bx, bx - ax), np.where(b_nearer, ay - by, by - ay)
    L2 = dx * dx + dy * dy
    L2[L2 == 0.0] = 1.0
    t = np.clip(((x - ox) * dx + (y - oy) * dy) / L2, 0.0, 1.0)
    dist = np.sqrt(np.min((ox + t * dx - x) ** 2 + (oy + t * dy - y) ** 2, axis=1))
    with np.errstate(over="ignore"):  # a distance past the float range is inf
        return dist / s[:, 0]


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


def _check_cells(rows: float, cols: float, what: str,
                 error: type = PreconditionError) -> None:
    """Raise error, a PreconditionError, before anything is allocated, when
    a grid of rows x cols cells has no cell, or when it or one of its axes
    exceeds MAX_GRID_CELLS."""
    if not min(rows, cols) >= 1:
        raise error(f"{what} has {rows:.4g} x {cols:.4g} cells; it needs at least one "
                    f"each way")
    if not max(rows, cols, rows * cols) <= MAX_GRID_CELLS:
        raise error(
            f"{what} needs {rows:.4g} x {cols:.4g} cells, more than the "
            f"budget of {MAX_GRID_CELLS:.4g}; use a coarser grid step")


# ---------------------------------------------------------------------------
# convex hulls of raster cells
# ---------------------------------------------------------------------------

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
