"""Concrete domain specs: the ball, the slicewise half plane, the
starlike domain, and the pointwise union and intersection of specs.  Each
returns a slicereg.domains.DomainSpec; the counterexample's spec is
slicereg.counterexample.omega_spec, and a tube's is
slicereg.local.TubeDomain.as_domain_spec.
"""
from __future__ import annotations

import math

import numpy as np

from .domains import DomainSpec
from .errors import PreconditionError, UnsupportedError
from .quaternions import Quaternion


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
