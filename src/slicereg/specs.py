"""Concrete domain specs: the ball, the slicewise half plane, the
starlike domain, the pointwise union and intersection of specs, and the
tube around a path in one slice plane.  Each gives a
slicereg.domains.DomainSpec (a tube through TubeDomain.as_domain_spec);
the counterexample's spec is slicereg.counterexample.omega_spec.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domains import DomainSpec
from .errors import PreconditionError, UnsupportedError
from .quaternions import Quaternion, UnitImaginary
from .raster import _fit_scale


def intersect_specs(a: DomainSpec, b: DomainSpec) -> DomainSpec:
    """Pointwise intersection; cut curves of both operands are kept, and
    it is slicewise when both operands are."""

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
                      name=f"({a.name} & {b.name})",
                      slicewise=a.slicewise and b.slicewise)


def ball_spec(center: Quaternion | float, radius: float,
              bbox: tuple | None = None, h: float = 0.01) -> DomainSpec:
    """Euclidean ball B(center, radius); slicewise when the centre is
    real."""
    if isinstance(center, (int, float)):
        center = Quaternion(float(center))
    cw = center.w
    cim = np.array([center.x, center.y, center.z])
    slicewise = not cim.any()
    # a real centre needs no product (its first one loads BLAS kernels,
    # about 0.17 MB of resident memory)
    cn2 = 0.0 if slicewise else float(cim @ cim)
    r2 = radius * radius

    # with the centre and radius at most 1e150 in magnitude (serialize
    # refuses larger ones), a sum that overflows to inf, or to inf - inf,
    # belongs to a point beyond 1e153, outside the ball, and compares False
    def membership(x, y, jx, jy, jz):
        dot = jx * cim[0] + jy * cim[1] + jz * cim[2]
        with np.errstate(over="ignore", invalid="ignore"):
            return (np.asarray(x) - cw) ** 2 + np.asarray(y) ** 2 + cn2 \
                - 2.0 * np.asarray(y) * dot < r2

    def real_trace(x):
        with np.errstate(over="ignore"):
            return (np.asarray(x) - cw) ** 2 + cn2 < r2

    if bbox is None:
        margin = max(0.15, 5 * h)
        reach = radius + math.sqrt(cn2)
        bbox = (cw - reach - margin, cw + reach + margin, reach + margin)
    return DomainSpec(membership, real_trace, bbox, h, name="ball", slicewise=slicewise)


def halfspace_spec(normal: tuple, offset: float,
                   bbox: tuple = (-3.0, 3.0, 3.0), h: float = 0.01) -> DomainSpec:
    """Slicewise half plane {a x + b y < c} (unit-independent)."""
    a, b = float(normal[0]), float(normal[1])

    def membership(x, y, jx, jy, jz):
        return a * np.asarray(x) + b * np.asarray(y) < offset

    def real_trace(x):
        return a * np.asarray(x) < offset

    return DomainSpec(membership, real_trace, bbox, h, name="halfspace",
                      slicewise=True)


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
    return DomainSpec(membership, real_trace, bbox, h, name="starlike",
                      slicewise=True)


def union_spec(specs, name="union") -> DomainSpec:
    """Pointwise union of cut-free specs; slicewise when every operand
    is."""
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
                      min(s.h for s in specs), name=name,
                      slicewise=all(s.slicewise for s in specs))


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

    # (min, max) of the real points of C, or None when C has none
    real_interval: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.polyline, dtype=float)
        real = pts[pts[:, 1] == 0.0, 0]
        object.__setattr__(self, "polyline", pts)
        object.__setattr__(self, "real_interval", (float(real.min()), float(real.max()))
                           if real.size else None)

    def membership(self, x, y, jx, jy, jz):
        # lengths at one _fit_scale of the batch, so huge coordinates do not overflow
        s = float(_fit_scale(*(np.max(np.abs(v), initial=0.0)
                               for v in (x, y, self.polyline, self.epsilon))))
        x = np.asarray(x, dtype=float) * s
        y = np.asarray(y, dtype=float) * s
        eps = self.epsilon * s
        d = jx * self.unit.vx + jy * self.unit.vy + jz * self.unit.vz
        shape = np.broadcast(x, y, np.asarray(d)).shape
        member = np.zeros(shape, dtype=bool)
        if self.real_interval is not None:
            rlo, rhi = (v * s for v in self.real_interval)
            gap = np.maximum(np.maximum(rlo - x, x - rhi), 0.0)
            member |= gap * gap + y * y < eps * eps
        if self.y_ref > 0.0:
            c = self.epsilon / self.y_ref
            c2 = c * c  # inf, not OverflowError, when y_ref is tiny
            pts = self.polyline * s

            def level(p):
                """The segment's quadratic at its vertex p: negative inside
                the ball around p."""
                return (x - p[0]) ** 2 + (1.0 - c2) * p[1] ** 2 - 2.0 * y * d * p[1] + y * y

            for p0, p1 in zip(pts[:-1], pts[1:]):
                if p0[1] == p1[1] == 0.0:
                    continue  # radius 0 on the axis: the real interval's balls cover it
                if c2 == math.inf:  # a non-real point's ball is all of H
                    member[...] = True
                    break
                dx, dy = p1[0] - p0[0], p1[1] - p0[1]
                A = dx * dx + (1.0 - c2) * dy * dy
                C0 = level(p0)
                if A < 1e-30:  # concave or linear in t: least at an end
                    member |= np.minimum(C0, level(p1)) < 0.0
                    continue
                B = -2.0 * dx * (x - p0[0]) + 2.0 * (1.0 - c2) * p0[1] * dy \
                    - 2.0 * y * d * dy
                t = np.clip(-B / (2.0 * A), 0.0, 1.0)
                member |= A * t * t + B * t + C0 < 0.0
        return member

    def as_domain_spec(self, h: float | None = None) -> DomainSpec:
        pts = self.polyline
        pad = self.epsilon * 1.25
        bbox = (float(pts[:, 0].min() - pad), float(pts[:, 0].max() + pad),
                float(pts[:, 1].max() + pad))
        interval = self.real_interval

        def real_trace(x):
            if interval is None:
                return np.zeros_like(np.asarray(x, dtype=float), dtype=bool)
            rlo, rhi = interval
            gap = np.maximum(np.maximum(rlo - np.asarray(x, dtype=float),
                                        np.asarray(x, dtype=float) - rhi), 0.0)
            return gap < self.epsilon

        return DomainSpec(self.membership, real_trace, bbox,
                          h if h is not None else self.h, name="tube")

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
