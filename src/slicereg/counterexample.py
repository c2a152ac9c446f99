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
from dataclasses import dataclass

import numpy as np

from .domains import (DomainSpec, PlanarRegionGrid, SphereSample, _and_grids,
                      _mirror, is_simple, is_slice_domain, omega_jk_plus,
                      rasterize)
from .errors import OutOfDomainError, SliceRegError
from .extension import check_compatible, extension_formula, rep_coeffs, rep_eval
from .holomorphic import ContinuedLog
from .quaternions import Quaternion, SliceCoord, UNIT_I, UnitImaginary

# chord deviation bound for 256-point parametric sampling of the arcs;
# scalar membership, and with it the closed-form log family, treats
# anything this close to the sampled polyline as lying on the cut
ARC_SAMPLES = 256
ARC_CLEARANCE = 3e-5


@dataclass(frozen=True)
class CounterexampleConfig:
    """Reference unit and raster metadata for the construction."""

    axis: UnitImaginary = UNIT_I
    h: float = 0.01
    bbox: tuple = (-5.0, 5.0, 5.0)


def t_of(J: UnitImaginary, cfg: CounterexampleConfig) -> float:
    """Interpolation weight min(|J - axis|, 1) steering the arc of slice J."""
    return min(J.chord(cfg.axis), 1.0)


def arc_point(J: UnitImaginary, t: float, cfg: CounterexampleConfig) -> Quaternion:
    """Point -1 + 2J + (1-T) e^{2 pi J t} + T e^{-2 pi J t} of L_J, t in [0, 1/2].

    The parameter endpoints land on {2J, -2+2J}; t = 0 sits at 2J.
    """
    if not 0.0 <= t <= 0.5:
        raise ValueError("arc parameter must lie in [0, 1/2]")
    T = t_of(J, cfg)
    phi = 2.0 * math.pi * t
    x = -1.0 + math.cos(phi)
    y = 2.0 + (1.0 - 2.0 * T) * math.sin(phi)
    return Quaternion(x, y * J.vx, y * J.vy, y * J.vz)


def arc_coords(J: UnitImaginary, cfg: CounterexampleConfig) -> np.ndarray:
    """The arc of slice J as (x, y) coordinates in the J plane."""
    T = t_of(J, cfg)
    phi = np.linspace(0.0, math.pi, ARC_SAMPLES)
    return np.column_stack([-1.0 + np.cos(phi),
                            2.0 + (1.0 - 2.0 * T) * np.sin(phi)])


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
    """Membership oracle plus per-slice cut curves for the domain."""

    def membership(x, y, jx, jy, jz):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        on_h = (np.abs(y - 2.0) <= 1e-12) & (x < -2.0)
        return ~on_h & (y >= 0.0)

    def real_trace(x):
        return np.ones_like(np.asarray(x, dtype=float), dtype=bool)

    return DomainSpec(membership, real_trace, cfg.bbox, cfg.h,
                      cuts=lambda J: upper_cuts(J, cfg),
                      cut_clearance=ARC_CLEARANCE,
                      name="counterexample")


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


class BranchedLogFamily:
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

    def _plane_value(self, J: UnitImaginary, x: float, y: float) -> Quaternion:
        """Continued log(z - 2i) at z = x + iy of the plane of slice J."""
        x_min, x_max, y_max = self.cfg.bbox
        if not (x_min <= x <= x_max and -y_max <= y <= y_max):
            raise OutOfDomainError(f"point ({x:g}, {y:g}) outside the cut plane box")
        # y < 0 carries the mirrored cuts of -J.  The sampled arc lies within
        # c (its sagitta bound) of its ellipse, which is at least
        # |hypot(a (x + 1), v) - |a|| away: only points within c of the half
        # line or 2c of the ellipse, the pole among them, can be on a cut
        side = J if y > 0.0 else -J
        a, v, c = 1.0 - 2.0 * t_of(side, self.cfg), abs(y) - 2.0, ARC_CLEARANCE
        if x <= c and (abs(v) <= c or abs(math.hypot(a * (x + 1.0), v) - abs(a)) <= 2.0 * c) \
                and not self.domain.contains(x, abs(y), side):
            raise OutOfDomainError(f"point ({x:g}, {y:g}) lies on a cut")
        w = cmath.log(complex(x, y - 2.0))
        if y > 0.0 and a != 0.0 and (v >= 0.0) == (a > 0.0) \
                and (x + 1.0) ** 2 + (v / a) ** 2 < 1.0:
            w -= math.copysign(2.0 * math.pi, a) * 1j
        return Quaternion(w.real) + self.cfg.axis.as_quaternion() * w.imag

    def eval(self, coord: SliceCoord) -> Quaternion:
        axis = self.cfg.axis
        if coord.is_real:
            w = cmath.log(complex(coord.x, -2.0))
            return Quaternion(w.real) + axis.as_quaternion() * w.imag
        up = self._plane_value(coord.unit, coord.x, coord.y)
        dn = self._plane_value(coord.unit, coord.x, -coord.y)
        b, c = rep_coeffs(up, dn, axis, -axis)
        return rep_eval(b, c, coord.unit)


# ---------------------------------------------------------------------------
# evidence bundle
# ---------------------------------------------------------------------------

def intersection_grid(cfg: CounterexampleConfig, h: float | None = None) -> PlanarRegionGrid:
    """Grid of the intersection of the slice plane domain with its conjugate
    (six excluded curves: both half lines and all four semicircle arcs):
    the AND of the full slices through axis and -axis."""
    spec = omega_spec(cfg)
    h = h or cfg.h
    return _and_grids(rasterize(spec, cfg.axis, full_slice=True, h=h),
                      rasterize(spec, -cfg.axis, full_slice=True, h=h))


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
    rng = np.random.default_rng(seed)
    report: dict = {"h": cfg.h, "samples": sample.n_requested, "seed": seed}

    verdict_slice = is_slice_domain(spec, sample)
    report["slice_domain"] = verdict_slice.summary()

    tgrid = intersection_grid(cfg)
    n_tu, _ = tgrid.label()
    report["intersection_components"] = int(n_tu)
    report["intersection_component_ids"] = {
        "upper_disk": tgrid.component_at(-1.0, 2.0),
        "lower_disk": tgrid.component_at(-1.0, -2.0),
        "outside": tgrid.component_at(3.0, 0.0),
    }

    pgrid = pair_set_grid(cfg)
    n_pair, _ = pgrid.label()
    report["pair_set_components"] = int(n_pair)
    report["pair_set_component_ids"] = {
        "disk": pgrid.component_at(-1.0, 2.0),
        "outer": pgrid.component_at(3.0, 1.0),
    }

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

    # branch difference of the two logarithms on the plane
    jump_vals = []
    for _ in range(120):
        x, y = disk_coord()
        d = direct.eval_plane(x, y) - conj.eval_plane(x, y)
        jump_vals.append(d)
    jump_norms = np.array([q.norm() for q in jump_vals])
    axis_comp = np.array([q.x * axis.vx + q.y * axis.vy + q.z * axis.vz
                          for q in jump_vals])
    report["log_jump"] = {
        "disk_abs_mean": float(jump_norms.mean()),
        "disk_abs_max_dev_from_2pi": float(np.max(np.abs(jump_norms - 2.0 * math.pi))),
        "sign": int(np.sign(axis_comp.mean())),
    }
    agree = []
    for _ in range(80):
        x, y = outside_coord()
        agree.append((direct.eval_plane(x, y) - conj.eval_plane(x, y)).norm())
        x, y = disk_coord()
        agree.append((direct.eval_plane(x, -y) - conj.eval_plane(x, -y)).norm())
    report["log_jump"]["elsewhere_max"] = float(np.max(agree))

    # the two orderings of the extension formula; the swapped views share
    # the tables and the real trace of the pair, so one check covers both
    check_compatible(direct, conj)
    swapped_direct = direct.on_slice(-axis)
    swapped_conj = conj.on_slice(axis)

    def ordering_gap(t):
        f1 = extension_formula(direct, conj, t, check_compat=False)
        f2 = extension_formula(swapped_direct, swapped_conj, t,
                               check_compat=False)
        return (f1 - f2).norm()

    in_disk = []
    for _ in range(100):
        x, y = disk_coord()
        in_disk.append(ordering_gap(SliceCoord.make(x, y, axis)))
    in_disk = np.array(in_disk)
    out_vals = []
    for _ in range(100):
        x, y = outside_coord()
        W = UnitImaginary(*rng.normal(size=3))
        out_vals.append(ordering_gap(SliceCoord.make(x, y, W)))
    general = []
    for _ in range(40):
        x, y = disk_coord()
        W = UnitImaginary(*rng.normal(size=3))
        general.append(ordering_gap(SliceCoord.make(x, y, W)))
    report["ordering_jump"] = {
        "disk_axis_max_dev_from_2pi": float(np.max(np.abs(in_disk - 2.0 * math.pi))),
        "outside_max": float(np.max(out_vals)),
        "disk_general_unit_min": float(np.min(general)),
        "disk_general_unit_max": float(np.max(general)),
    }

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
    neighborhood; points on cuts are skipped."""
    direct, conj = log_pair(cfg)
    rows = []
    for x in np.arange(-2.2, 0.2, step):
        for y in np.arange(0.8, 3.2, step):
            try:
                d = (direct.eval_plane(float(x), float(y))
                     - conj.eval_plane(float(x), float(y))).norm()
            except SliceRegError:
                continue
            rows.append([float(x), float(y), d])
    return rows
