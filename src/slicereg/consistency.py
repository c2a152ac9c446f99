"""The consistency scan of extend_to_completion, on blocks of spheres.

Each block is one array pass over its (sphere, unit) rows: one membership
call, one f.eval_rows call and one rep_coeffs_rows call on the antipodal
pairs, whatever the number of spheres in it.  The stem of the extension
takes the first usable stem of each sphere on the same blocks.
"""
from __future__ import annotations

import numpy as np

from .domains import DomainSpec, SphereSample
from .extension import rep_coeffs_rows
from .quaternions import norm_rows

# (sphere, unit) rows that one step of the consistency scan evaluates: a
# bound on the scan's arrays, except that a block always holds at least one
# sphere (a sample has at most 4000 units).  260 rows hold two spheres of
# the paper-scale sample (N = 64 and the axis, 130 units); larger blocks
# gain little time and raise the scan's peak memory.
SCAN_BLOCK_ROWS = 260


def _block_stems(f, omega: DomainSpec, sample: SphereSample, x, y,
                 first_only: bool = False):
    """Stem pairs on the spheres x[s] + y[s] S, y > 0, as arrays over a
    block of spheres.

    Mirrors the per-slice functions of the extension construction: each unit
    J present together with its antipode contributes the stem of the slice
    through J.  A sphere where no antipodal pair gives a stem pairs its first
    present unit with the next (up to eight) present units as a fallback
    fan, from the values already evaluated.  One membership call on
    (sphere, unit) axes and one f.eval_rows call on the present rows cover
    the block.  first_only tries each sphere's first present antipodal pair
    on its own before evaluating every unit, and keeps just that stem when
    it is usable (enough to evaluate the extension, not to measure its
    defect).

    Returns (pairs, b, c, use, tried, present): per sphere the candidate
    unit pairs (S, K, 2), the antipodal pairs then the fan, their stem
    coefficients (S, K, 4), whether each gives a usable stem and whether it
    was tried (S, K), and the present units (S, U).  A tried pair is
    skipped when f fails at one of its units or its units coincide.
    """
    vec, anti = sample.vectors, sample.antipodes
    present = np.broadcast_to(np.asarray(omega.membership(
        x[:, None], y[:, None], *vec.T), dtype=bool), (len(x), len(vec)))
    both = present[:, anti].all(axis=2)
    shape = (len(x), len(anti) + 8)
    pairs = np.zeros(shape + (2,), dtype=int)
    pairs[:, :len(anti)] = anti
    values, b, c = (np.full(s + (4,), np.nan) for s in (present.shape, shape, shape))
    ok, use, tried = (np.zeros(s, dtype=bool) for s in (present.shape, shape, shape))

    def evaluate(s, u):
        if len(s):
            values[s, u], ok[s, u] = f.eval_rows(x[s], y[s], vec[u])

    def stems(s, k):
        i, j = pairs[s, k].T
        b[s, k], c[s, k], distinct = rep_coeffs_rows(values[s, i], values[s, j], vec[i], vec[j])
        use[s, k], tried[s, k] = distinct & ok[s, i] & ok[s, j], True

    todo = np.ones(len(x), dtype=bool)
    if first_only:
        s, k = (both & (both.cumsum(axis=1) == 1)).nonzero()
        evaluate(s.repeat(2), anti[k].ravel())
        stems(s, k)
        todo = ~use.any(axis=1)
    if todo.any():
        evaluate(*(present & todo[:, None]).nonzero())
        stems(*(both & todo[:, None]).nonzero())
        fan = todo & ~use.any(axis=1)
        if fan.any():
            rank = present.cumsum(axis=1)
            s, u = (present & (rank >= 2) & (rank <= 9) & fan[:, None]).nonzero()
            k = len(anti) + rank[s, u] - 2
            pairs[s, k] = np.column_stack([present.argmax(axis=1)[s], u])
            stems(s, k)
    return pairs, b, c, use, tried, present


def _scan_block(f, omega: DomainSpec, sample: SphereSample, xy) -> list:
    """Consistency entries of the spheres xy (rows (x, y)), in row order;
    spheres with no present unit give none.

    Each sphere's first usable stem is its reference: its defect is the
    largest positive |b - b0| + |c - c0| over its later stems, and the first
    pair attaining it is the witness (NaN never counts).  Real rows are
    checked against the real trace."""
    entries = [None] * len(xy)
    real = xy[:, 1] == 0.0
    real[real] = omega.real_trace(xy[real, 0])
    for i in real.nonzero()[0].tolist():
        entries[i] = {"sphere": xy[i].tolist(), "defect": 0.0, "witnesses": None}
    sph = (xy[:, 1] != 0.0).nonzero()[0]
    if sph.size:
        pairs, b, c, use, tried, present = _block_stems(f, omega, sample, *xy[sph].T)
        # the first usable stem of each sphere is its reference
        r, ref = np.arange(sph.size), np.where(use, 1.0, 0.0).argmax(axis=1)
        d = norm_rows(b - b[r, ref, None]) + norm_rows(c - c[r, ref, None])
        d = np.where(use & (d > 0.0), d, 0.0)
        k = d.argmax(axis=1)
        for i, row, seen, dmax, (p, q), usable, skipped in zip(
                sph.tolist(), xy[sph].tolist(), present.any(axis=1).tolist(),
                d[r, k].tolist(), pairs[r, k].tolist(), use.tolist(), (tried & ~use).tolist()):
            if not seen:
                continue
            entry = entries[i] = {"sphere": row, "defect": dmax, "witnesses": None}
            if sum(usable) < 2:
                entry["note"] = "fewer than two usable unit pairs"
                continue
            if dmax > 0.0:
                entry["witnesses"] = [sample.units[p].to_list(), sample.units[q].to_list()]
            if any(skipped):
                entry["skipped_pairs"] = sum(skipped)
    return [e for e in entries if e is not None]


def _sphere_blocks(n: int, sample: SphereSample):
    """Slices of n spheres in blocks of at most SCAN_BLOCK_ROWS (sphere,
    unit) rows and at least one sphere."""
    per_block = max(1, SCAN_BLOCK_ROWS // len(sample))
    return (slice(lo, lo + per_block) for lo in range(0, n, per_block))


def scan_entries(f, omega: DomainSpec, sample: SphereSample, xy_grid) -> list:
    """Consistency entries of the spheres xy_grid (rows (x, y)), in row
    order, scanned in _sphere_blocks."""
    xy = np.asarray(xy_grid, dtype=float)
    entries = []
    for blk in _sphere_blocks(len(xy), sample):
        entries.extend(_scan_block(f, omega, sample, xy[blk, :2]))
    return entries


def first_stems(f, omega: DomainSpec, sample: SphereSample, x, y):
    """The stems map of extend_to_completion at points (x, y), arrays (n,):
    (b, c, ok) of the first usable stem of each sphere x + yS, from
    _block_stems with its first-pair shortcut on the scan's blocks, and
    (f(x), 0) on the real axis."""
    b, c = np.full((len(x), 4), np.nan), np.zeros((len(x), 4))
    ok = np.zeros(len(x), dtype=bool)
    real = y == 0.0
    b[real], ok[real] = f.eval_rows(x[real], 0.0, np.tile((1.0, 0.0, 0.0), (real.sum(), 1)))
    sph = (~real).nonzero()[0]
    for blk in _sphere_blocks(len(sph), sample):
        s = sph[blk]
        _, bs, cs, use, _, _ = _block_stems(f, omega, sample, x[s], y[s], first_only=True)
        first = (np.arange(len(s)), use.argmax(axis=1))
        b[s], c[s], ok[s] = bs[first], cs[first], use.any(axis=1)
    return b, c, ok
