"""The non-simple slice domain on which global extension provably fails.

The domain removes, from every upper half slice, a horizontal half line at
height 2 and an arc inside the disk of radius 1 around -1 + 2J.  The arc
interpolates between the upper half circle (at the reference unit) and the
lower half circle (at units at chord distance >= 1), so membership genuinely
depends on the unit.  Two logarithm branches continued over this geometry
exhibit a 2*pi jump inside one disk component, which is what defeats any
single-valued extension to the symmetric completion.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import cache
from itertools import groupby

import numpy as np

from .domains import (DomainSpec, PlanarRegionGrid, SphereSample,
                      is_simple, is_slice_domain, omega_jk_plus, rasterize)
from .errors import OutOfDomainError
from .extension import formula_stem
from .holomorphic import ContinuedLog, HoloSliceFunction
from .quaternions import (Quaternion, SliceCoord, UNIT_I, UnitImaginary,
                          imaginary_rows, mul_rows, norm_rows)
from .raster import _mirror

# chord deviation bound for 256-point parametric sampling of the arcs;
# DomainSpec.contains_rows, and with it the closed-form log family, treats
# anything this close to the sampled polyline as lying on the cut
ARC_SAMPLES = 256
ARC_CLEARANCE = 3e-5


@cache
def _arc_basis():
    """The arc's x coordinates and sin(phi) on its parameter grid, the
    parts of arc_coords that T does not scale.  Computed on first use: the
    first linspace and cos calls of a process add about 0.25 MB of
    resident memory, which commands without an arc need not pay."""
    phi = np.linspace(0.0, math.pi, ARC_SAMPLES)
    x, s = -1.0 + np.cos(phi), np.sin(phi)
    x.flags.writeable = s.flags.writeable = False
    return x, s


@dataclass(frozen=True)
class CounterexampleConfig:
    """Reference unit and raster metadata for the construction."""

    axis: UnitImaginary = UNIT_I
    h: float = 0.01
    bbox: tuple = (-5.0, 5.0, 5.0)


def t_of(J: UnitImaginary, cfg: CounterexampleConfig) -> float:
    """Interpolation weight min(|J - axis|, 1) steering the arc of slice J."""
    return min(J.chord(cfg.axis), 1.0)


def arc_coords(J: UnitImaginary, cfg: CounterexampleConfig) -> np.ndarray:
    """The arc of slice J as (x, y) coordinates in the J plane."""
    T = t_of(J, cfg)
    x, s = _arc_basis()
    return np.column_stack([x, 2.0 + (1.0 - 2.0 * T) * s])


def upper_cuts(J: UnitImaginary, cfg: CounterexampleConfig) -> list:
    """Excluded curves of the upper half slice through J, in J coordinates:
    the half line at height 2 and the arc of J."""
    half_line = np.array([[cfg.bbox[0] - 1.0, 2.0], [-2.0, 2.0]])
    return [half_line, arc_coords(J, cfg)]


def slice_cuts(J: UnitImaginary, cfg: CounterexampleConfig) -> list:
    """Excluded curves of the full slice plane through J, in J coordinates:
    those of the upper half slices of J and of -J, the latter reflected
    into the lower half plane."""
    return upper_cuts(J, cfg) + _mirror(upper_cuts(-J, cfg))


def omega_spec(cfg: CounterexampleConfig) -> DomainSpec:
    """Membership oracle plus per-slice cut curves for the domain; the
    membership ignores the unit, which steers only the arc of cuts(J)."""

    def membership(x, y, jx, jy, jz):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        # on_h stays: symmetric_completion keeps this membership but no cuts
        on_h = (np.abs(y - 2.0) <= 1e-12) & (x < -2.0)
        return ~on_h & (y >= 0.0)

    def real_trace(x):
        return np.ones_like(np.asarray(x, dtype=float), dtype=bool)

    return DomainSpec(membership, real_trace, cfg.bbox, cfg.h,
                      cuts=lambda J: upper_cuts(J, cfg),
                      cut_clearance=ARC_CLEARANCE,
                      name="counterexample", slicewise=True)


def plane_log(J: UnitImaginary, cfg: CounterexampleConfig) -> ContinuedLog:
    """log(z - 2*axis), continued from the base point 1 + 2*axis with value
    0 over the plane of the slice through J, cut by slice_cuts(J)."""
    x_min, x_max, y_max = cfg.bbox
    return ContinuedLog(pole=(0.0, 2.0), base=(1.0, 2.0),
                        base_value=Quaternion(0.0),
                        cuts=tuple(slice_cuts(J, cfg)), carrier=cfg.axis,
                        bbox=(x_min, x_max, -y_max, y_max), step=0.05)


def log_pair(cfg: CounterexampleConfig):
    """The two holomorphic logarithms of the construction.

    The first lives on the original slice plane (cut by the slice's own
    excluded curves), the second on the conjugate domain, identified with
    the same plane by conjugation and attached to the antipodal unit: its
    cuts, slice_cuts(-axis), are the mirror image of slice_cuts(axis).
    """
    axis = cfg.axis
    return plane_log(axis, cfg), plane_log(-axis, cfg).on_slice(-axis)


class BranchedLogFamily(HoloSliceFunction):
    """Slice regular function whose restriction to each slice is the
    continued logarithm over that slice's cut plane.

    Values at x + yJ combine the slice's continuation at (x, y) and (x, -y)
    through the stem coefficient map, which makes every restriction
    holomorphic while the branch structure varies with the unit; its
    restriction to the reference slice is the first function of log_pair.

    The continuation has a closed form, tested against plane_log(J, cfg):
    the upper cuts run from the pole 2i to infinity (the arc of weight
    T = t_of(J), then the half line) and the mirrored lower ones do not
    wind around it, so the value is the principal Log(z - 2i), less
    2*pi*i*sign(1 - 2T) in the lens between the arc and the chord
    [-2, 0] + 2i, which paths from the base point 1 + 2i enter by the chord.
    """

    def __init__(self, cfg: CounterexampleConfig):
        self.cfg = cfg
        self.domain = omega_spec(cfg)
        self._axis_row = imaginary_rows(cfg.axis.to_list())

    def _point_terms(self, px: float, py: float):
        """What the point (px, py) contributes to the row of every unit: px,
        whether it lies in the box (a real point always does: Log(x - 2i)
        is defined on the whole axis), left of x = ARC_CLEARANCE (where a
        cut can pass) and in the disk of the lenses, v = py - 2, (px + 1)^2, and
        the principal Log(z - 2i) at z = px + i py and px - i py (NaN at the
        pole), in Python floats: cmath.log and the float power need not
        match np.log and x*x in the last bit."""
        x_min, x_max, y_max = self.cfg.bbox
        inside = py == 0.0 or (x_min <= px <= x_max and py <= y_max)
        v, x2 = py - 2.0, (px + 1.0) ** 2
        w_up = cmath.log(complex(px, v)) if px or v else complex(math.nan, math.nan)
        w_dn = cmath.log(complex(px, -py - 2.0))
        return (px, inside, inside and px <= ARC_CLEARANCE, x2 < 1.0 and abs(v) < 1.0,
                v, x2, w_up.real, w_up.imag, w_dn.real, w_dn.imag)

    def _plane_logs(self, x, y, vectors):
        """Continued log(z - 2i) on the plane of the unit J of each row
        (rows of vectors) at z = x + iy and z = x - iy, y >= 0, as
        quaternions u + axis*v: (up (n, 4), dn, ok (n,)), x and y broadcast
        to (n,); up is NaN where ok is False.

        Only the lens shift of up depends on J.  The lower half plane of
        slice J is the upper half slice of -J: dn is tested against the cuts
        of -J, and as no lens lies below the real axis its value does not
        depend on J.  So the terms of a point are computed once per run of
        rows with equal (x, y) (once per sphere in the consistency scan),
        and dn is one quaternion (4,) at one point (scalar x and y), else
        one row (n, 4) per row."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        v3 = np.asarray(vectors, dtype=float).reshape(-1, 3)
        n = len(v3)
        one_point = x.ndim == y.ndim == 0
        if one_point:
            points, run = [(float(x), float(y))], np.zeros(n, dtype=np.intp)
        else:
            runs = [(point, len(list(rows))) for point, rows in groupby(zip(
                *(np.broadcast_to(a, (n,)).tolist() for a in (x, y))))]
            points = [point for point, _ in runs]
            run = np.repeat(np.arange(len(runs)), [count for _, count in runs])
        terms = [self._point_terms(px, py) for px, py in points]
        table = np.array(terms).reshape(-1, 10)
        xr, inside, left, disk, v, x2, u_re, u_im = table[run, :8].T
        ok = inside > 0.0
        any_left, any_disk = any(t[2] for t in terms), any(t[3] for t in terms)
        if any_left or any_disk:
            ax = self.cfg.axis
            dot = v3[:, 0] * ax.vx + v3[:, 1] * ax.vy + v3[:, 2] * ax.vz
            # 1 - 2T with T = t_of(J) and t_of(-J): the arc weights of both sides
            chords = np.sqrt(np.maximum(2.0 + np.multiply.outer((-2.0, 2.0), dot), 0.0))
            arcs = 1.0 - 2.0 * np.minimum(chords, 1.0)
            a_up = arcs[0]
        if any_left:
            # the sampled arc lies within c (its sagitta bound) of its ellipse,
            # which is at least |hypot(a (x + 1), v) - |a|| away: only points
            # within c of the half line or 2c of the ellipse, the pole among
            # them, can be on a cut, and only those get contains_rows
            c = ARC_CLEARANCE
            near = (np.abs(v) <= c) \
                | (np.abs(np.hypot(arcs * (xr + 1.0), v) - np.abs(arcs)) <= 2.0 * c)
            near &= (left > 0.0) & ok
            # the rows near a cut of J, then those near a cut of -J, in one
            # membership call
            rows = np.concatenate([near[0].nonzero()[0], near[1].nonzero()[0]])
            side = np.repeat([1.0, -1.0], [near[0].sum(), near[1].sum()])
            px, py = np.asarray(points, dtype=float)[run[rows]].T
            ok[rows[~self.domain.contains_rows(px, py, side[:, None] * v3[rows])]] = False
        if any_disk:
            # the lens between the arc and the chord [-2, 0] + 2i, where
            # (x + 1)^2 + (v / a)^2 < 1 with v on the side of the arc; |a| <= 1
            with np.errstate(divide="ignore", invalid="ignore"):
                lens = (disk > 0.0) & np.where(v >= 0.0, a_up > 0.0, a_up < 0.0) \
                    & (x2 + (v / a_up) ** 2 < 1.0)
            u_im[lens] -= np.copysign(2.0 * math.pi, a_up[lens])
        up = np.empty((n, 4))
        up[:, 0], up[:, 1:] = u_re, u_im[:, None] * self._axis_row[1:]
        up[~ok] = np.nan
        dn = np.empty((len(table), 4))
        dn[:, 0], dn[:, 1:] = table[:, 8], table[:, 9, None] * self._axis_row[1:]
        return up, dn[0] if one_point else dn[run], ok

    def eval_rows(self, x, y, vectors):
        """Values at x + yJ, y >= 0, one point per row (x and y broadcast to
        the rows of vectors (n, 3)), from the stem coefficients of the pair
        (axis, -axis) in closed form: axis^-1 = -axis/|axis|^2, so
        rep_coeffs(up, dn, axis, -axis) is b = (up + dn)/2,
        c = axis (dn - up)/(2 |axis|^2).  The norm stays in, as
        UnitImaginary keeps vectors within 1e-12 of unit norm as given.  On
        a real row up = dn = Log(x - 2i) and c = +0.0, so the value is the
        scalar sum Log(x - 2i).real + axis Log(x - 2i).imag bit for bit."""
        up, dn, ok = self._plane_logs(x, y, vectors)
        axis = self.cfg.axis
        c = mul_rows(self._axis_row, dn - up) * (0.5 / axis.dot(axis))
        return (up + dn) * 0.5 + mul_rows(imaginary_rows(vectors), c), ok

    def eval(self, coord: SliceCoord) -> Quaternion:
        values, ok = self.eval_rows(coord.x, coord.y,
                                    [(coord.unit or self.cfg.axis).to_list()])
        if not ok[0]:
            raise OutOfDomainError(f"point ({coord.x:g}, {coord.y:g}) lies outside "
                                   "the cut plane box or on a cut of its slice")
        return Quaternion.from_list(values[0])


# ---------------------------------------------------------------------------
# evidence bundle
# ---------------------------------------------------------------------------

def intersection_grid(cfg: CounterexampleConfig, h: float | None = None) -> PlanarRegionGrid:
    """Grid of the intersection of the slice plane domain with its conjugate
    (six excluded curves: both half lines and all four semicircle arcs):
    the AND of the full slices through axis and -axis, the latter being
    the row flip of the former."""
    grid = rasterize(omega_spec(cfg), cfg.axis, full_slice=True, h=h or cfg.h)
    return PlanarRegionGrid(xs=grid.xs, ys=grid.ys,
                            occupied=grid.occupied & grid.occupied[::-1])


def pair_set_grid(cfg: CounterexampleConfig, h: float | None = None) -> PlanarRegionGrid:
    """Grid of the upper half-plane pair set for (axis, -axis)."""
    return omega_jk_plus(omega_spec(cfg), cfg.axis, -cfg.axis, h=h or cfg.h)


def demonstrate(cfg: CounterexampleConfig, sample: SphereSample | None = None,
                seed: int = 0, heatmap_step: float = 0.02) -> dict:
    """Full evidence bundle: slice-domain verdict, the three-component
    intersection, the two-component pair set, the 2*pi jump between the two
    logarithm branches and between the two orderings of the extension
    formula, and the non-simplicity witness."""
    axis = cfg.axis
    sample = sample or SphereSample(64, extra=[axis])
    spec = omega_spec(cfg)
    rng = random.Random(seed)
    report: dict = {"h": cfg.h, "samples": sample.n_requested, "seed": seed}

    verdict_slice = is_slice_domain(spec, sample)
    report["slice_domain"] = verdict_slice.summary()

    # component ids are read from the runs, so no label image is painted
    tgrid = intersection_grid(cfg)
    n_tu = tgrid.component_count()
    report["intersection_components"] = int(n_tu)
    report["intersection_component_ids"] = {
        "upper_disk": tgrid.component_at(-1.0, 2.0),
        "lower_disk": tgrid.component_at(-1.0, -2.0),
        "outside": tgrid.component_at(3.0, 0.0),
    }

    pgrid = pair_set_grid(cfg)
    n_pair = pgrid.component_count()
    report["pair_set_components"] = int(n_pair)
    report["pair_set_component_ids"] = {
        "disk": pgrid.component_at(-1.0, 2.0),
        "outer": pgrid.component_at(3.0, 1.0),
    }
    # free the grids before the continuation tables and the rasters of
    # is_simple are built
    del tgrid, pgrid

    direct, conj = log_pair(cfg)

    def disk_coord(margin=0.12):
        while True:
            rr = math.sqrt(rng.uniform(0.0, (1.0 - margin) ** 2))
            th = rng.uniform(0.0, 2.0 * math.pi)
            x, y = -1.0 + rr * math.cos(th), 2.0 + rr * math.sin(th)
            if y > 0.05:
                return x, y

    def outside_coord(margin=0.12):
        while True:
            x = rng.uniform(-4.5, 4.5)
            y = rng.uniform(0.05, 4.5)
            if math.hypot(x + 1.0, y - 2.0) < 1.0 + margin:
                continue
            if abs(y - 2.0) < 0.1 and x < -1.8:
                continue
            return x, y

    # branch difference of the two logarithms on the plane: 120 disk points,
    # then 80 pairs of an outside point and a disk point mirrored below the
    # axis, drawn in this order and answered by one plane_rows call per
    # logarithm
    points = [disk_coord() for _ in range(120)]
    for _ in range(80):
        points.append(outside_coord())
        x, y = disk_coord()
        points.append((x, -y))
    px, py = np.array(points).T
    (a, a_ok), (b, b_ok) = (f.plane_rows(px, py) for f in (direct, conj))
    if not (a_ok & b_ok).all():
        m = int(np.argmin(a_ok & b_ok))
        raise OutOfDomainError(f"point ({px[m]:g}, {py[m]:g}) lies outside a logarithm's domain")
    jump = a - b
    norms = norm_rows(jump)
    jump_norms = norms[:120]
    axis_comp = jump[:120, 1] * axis.vx + jump[:120, 2] * axis.vy + jump[:120, 3] * axis.vz
    report["log_jump"] = {
        "disk_abs_mean": float(jump_norms.mean()),
        "disk_abs_max_dev_from_2pi": float(np.max(np.abs(jump_norms - 2.0 * math.pi))),
        "sign": int(np.sign(axis_comp.mean())),
        "elsewhere_max": float(np.max(norms[120:])),
    }

    # the two orderings of the extension formula at 100 disk points on the
    # axis slice, 100 outside points and 40 disk points on random slices,
    # drawn in this order; the swapped views share the tables and the real
    # trace of the pair, so one check covers both
    points = [(*disk_coord(), axis.to_list()) for _ in range(100)]
    points += [(*where(), UnitImaginary(*(rng.gauss(0.0, 1.0) for _ in range(3))).to_list())
               for where, count in ((outside_coord, 100), (disk_coord, 40))
               for _ in range(count)]
    x, y, vectors = (np.array(a) for a in zip(*points))
    f1, _ = formula_stem(direct, conj).eval_rows(x, y, vectors)
    f2, _ = formula_stem(direct.on_slice(-axis), conj.on_slice(axis),
                         check_compat=False).eval_rows(x, y, vectors)
    in_disk, out_vals, general = np.split(norm_rows(f1 - f2), [100, 200])
    report["ordering_jump"] = {
        "disk_axis_max_dev_from_2pi": float(np.max(np.abs(in_disk - 2.0 * math.pi))),
        "outside_max": float(np.max(out_vals)),
        "disk_general_unit_min": float(np.min(general)),
        "disk_general_unit_max": float(np.max(general)),
    }
    # free the continuation tables before the rasters of is_simple are built
    del direct, conj

    verdict_simple = is_simple(spec, sample)
    report["simple"] = verdict_simple.summary()
    report["simple_witness"] = verdict_simple.witness

    report["checks"] = {
        "slice_domain_yes": verdict_slice.is_yes,
        "three_intersection_components": n_tu == 3,
        "two_pair_components": n_pair == 2,
        "jump_is_2pi": bool(report["log_jump"]["disk_abs_max_dev_from_2pi"] < 1e-6),
        "orderings_disagree_2pi": bool(
            report["ordering_jump"]["disk_axis_max_dev_from_2pi"] < 1e-6),
        "orderings_agree_outside": bool(report["ordering_jump"]["outside_max"] < 1e-8),
        "not_simple_with_antipodal_witness": bool(
            verdict_simple.value == "no"
            and verdict_simple.witness.get("antipodal", False)),
    }
    report["all_checks_pass"] = all(report["checks"].values())
    return report


def jump_heatmap(cfg: CounterexampleConfig, step: float = 0.02):
    """Rows (x, y, |difference of the two logarithms|) over the upper disk
    neighborhood, x-major, from one eval_rows call per logarithm on the
    plane of the axis; points on cuts are skipped."""
    xs, ys = np.arange(-2.2, 0.2, step), np.arange(0.8, 3.2, step)
    x, y = np.repeat(xs, ys.size), np.tile(ys, xs.size)
    axis = np.broadcast_to(cfg.axis.to_list(), (len(x), 3))
    (direct, d_ok), (conj, c_ok) = (f.eval_rows(x, y, axis) for f in log_pair(cfg))
    return np.column_stack([x, y, norm_rows(direct - conj)])[d_ok & c_ok].tolist()
