"""Quaternion arithmetic, imaginary units and slice coordinates.

Basis convention: right-handed Hamilton product with i*j = k.  All other
modules build on the types defined here; every operation is a pure function
on immutable values.  The *_rows functions are their array counterparts
for batched evaluation: a quaternion is a row [w, x, y, z] of an (..., 4)
array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePairError, NonInvertibleError

_UNIT_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class Quaternion:
    """Element of the quaternion algebra, components w + x*i + y*j + z*k."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w + other.w, self.x + other.x,
                              self.y + other.y, self.z + other.z)
        if isinstance(other, (int, float)):
            return Quaternion(self.w + other, self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w - other.w, self.x - other.x,
                              self.y - other.y, self.z - other.z)
        if isinstance(other, (int, float)):
            return Quaternion(self.w - other, self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(other - self.w, -self.x, -self.y, -self.z)
        return NotImplemented

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a1, b1, c1, d1 = self.w, self.x, self.y, self.z
            a2, b2, c2, d2 = other.w, other.x, other.y, other.z
            return Quaternion(
                a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w / other, self.x / other,
                              self.y / other, self.z / other)
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm2(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def inverse(self) -> "Quaternion":
        n2 = self.norm2()
        if n2 == 0.0:
            raise NonInvertibleError("zero quaternion is non-invertible")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def im_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def isclose(self, other: "Quaternion", atol: float = 1e-12) -> bool:
        return (self - other).norm() <= atol

    def to_list(self):
        return [float(self.w), float(self.x), float(self.y), float(self.z)]

    @classmethod
    def from_list(cls, items) -> "Quaternion":
        w, x, y, z = (float(v) for v in items)
        return cls(w, x, y, z)


ONE = Quaternion(1.0)
QI = Quaternion(0.0, 1.0, 0.0, 0.0)
QJ = Quaternion(0.0, 0.0, 1.0, 0.0)
QK = Quaternion(0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True, slots=True)
class UnitImaginary:
    """Point of the 2-sphere of imaginary units, stored as a unit 3-vector.

    Interpreted as the quaternion vx*i + vy*j + vz*k; the constructor
    normalizes so the squared norm is 1 within 1e-12 structurally.
    """

    vx: float
    vy: float
    vz: float

    def __post_init__(self):
        n = math.sqrt(self.vx * self.vx + self.vy * self.vy + self.vz * self.vz)
        if n == math.inf:  # the squares overflow; hypot scales them
            n = math.hypot(self.vx, self.vy, self.vz)
        if n < 1e-14:
            raise ValueError("cannot normalize a (near-)zero vector to a unit")
        if abs(n - 1.0) > _UNIT_TOL:
            object.__setattr__(self, "vx", self.vx / n)
            object.__setattr__(self, "vy", self.vy / n)
            object.__setattr__(self, "vz", self.vz / n)

    def as_quaternion(self) -> Quaternion:
        return Quaternion(0.0, self.vx, self.vy, self.vz)

    def __neg__(self):
        return UnitImaginary(-self.vx, -self.vy, -self.vz)

    def dot(self, other: "UnitImaginary") -> float:
        return self.vx * other.vx + self.vy * other.vy + self.vz * other.vz

    def chord(self, other: "UnitImaginary") -> float:
        """Euclidean distance |J - K| between two units (chord length)."""
        d = 2.0 - 2.0 * self.dot(other)
        return math.sqrt(max(d, 0.0))

    def approx(self, other: "UnitImaginary", atol: float = 1e-9) -> bool:
        return self.chord(other) <= atol

    def to_list(self):
        return [float(self.vx), float(self.vy), float(self.vz)]

    @classmethod
    def from_vector(cls, items) -> "UnitImaginary":
        a, b, c = (float(v) for v in items)
        return cls(a, b, c)


UNIT_I = UnitImaginary(1.0, 0.0, 0.0)
UNIT_J = UnitImaginary(0.0, 1.0, 0.0)
UNIT_K = UnitImaginary(0.0, 0.0, 1.0)


@dataclass(frozen=True, slots=True)
class SliceCoord:
    """Slice coordinates of a quaternion: x + y*unit with y >= 0.

    Real points carry unit=None; the canonical form stores x + y*J with
    y < 0 as x + (-y)(-J).  Use :func:`SliceCoord.make` to canonicalize.
    """

    x: float
    y: float
    unit: UnitImaginary | None

    def __post_init__(self):
        if self.y < 0.0:
            raise ValueError("SliceCoord stores y >= 0; use SliceCoord.make")
        if self.y > 0.0 and self.unit is None:
            raise ValueError("non-real slice coordinate needs an imaginary unit")

    @classmethod
    def make(cls, x: float, y: float, unit: UnitImaginary | None) -> "SliceCoord":
        if y < 0.0:
            if unit is None:
                raise ValueError("negative height requires a unit to flip")
            return cls(float(x), -float(y), -unit)
        if y == 0.0:
            return cls(float(x), 0.0, None)
        return cls(float(x), float(y), unit)

    @property
    def is_real(self) -> bool:
        return self.y == 0.0 or self.unit is None

    def to_quaternion(self) -> Quaternion:
        if self.is_real:
            return Quaternion(self.x)
        u = self.unit
        return Quaternion(self.x, self.y * u.vx, self.y * u.vy, self.y * u.vz)


# the terms (sign, i, j) of sign * p_i * q_j that Quaternion.__mul__ sums,
# per output component [w, x, y, z] and in the order it sums them
_MUL_TERMS = (((1, 0, 0), (-1, 1, 1), (-1, 2, 2), (-1, 3, 3)),
              ((1, 0, 1), (1, 1, 0), (1, 2, 3), (-1, 3, 2)),
              ((1, 0, 2), (-1, 1, 3), (1, 2, 0), (1, 3, 1)),
              ((1, 0, 3), (1, 1, 2), (-1, 2, 1), (1, 3, 0)))
_MUL_SIGN, _MUL_P, _MUL_Q = np.moveaxis(np.array(_MUL_TERMS), -1, 0)


def mul_rows(p, q) -> np.ndarray:
    """Hamilton products of quaternion rows (..., 4) [w, x, y, z], broadcast
    like numpy.  Each component sums the terms of Quaternion.__mul__ in its
    order (a - b is a + (-b) exactly), so each row equals the scalar
    product bit for bit."""
    terms = (np.asarray(p, dtype=float).take(_MUL_P, axis=-1) * _MUL_SIGN
             * np.asarray(q, dtype=float).take(_MUL_Q, axis=-1))
    return terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3]


def norm_rows(q) -> np.ndarray:
    """Norms of quaternion rows (..., 4), summed as Quaternion.norm sums;
    a row whose sum of squares overflows takes hypot's norm instead."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    with np.errstate(over="ignore"):
        norms = np.sqrt(w * w + x * x + y * y + z * z)
    if norms.size and not np.isfinite(norms.max()):  # inf, or a NaN row
        big = np.isinf(norms)
        norms = np.where(big, np.hypot(np.hypot(w, x), np.hypot(y, z)), norms)
    return norms


def imaginary_rows(vectors) -> np.ndarray:
    """Quaternion rows [0, vx, vy, vz] of imaginary vectors (..., 3)."""
    v = np.asarray(vectors, dtype=float)
    rows = np.zeros(v.shape[:-1] + (4,))
    rows[..., 1:] = v
    return rows


def slice_decompose(q: Quaternion, tol: float = 1e-13) -> SliceCoord:
    """Split q into (x, y, J) with q = x + y*J, y >= 0.

    Real points (|im q| <= tol * scale) are flagged with unit=None.
    """
    yn = q.im_norm()
    scale = 1.0 + abs(q.w)
    if yn <= tol * scale:
        return SliceCoord(q.w, 0.0, None)
    return SliceCoord(q.w, yn, UnitImaginary(q.x / yn, q.y / yn, q.z / yn))


def coefficient_identities(J: UnitImaginary, K: UnitImaginary):
    """The two quaternion combinations behind the Extension Formula.

    Returns ((J-K)^-1 J + J (J-K)^-1,  (J-K)^-1 K + J (J-K)^-1), which for
    any distinct units equal (1, 0) exactly.
    """
    jq = J.as_quaternion()
    kq = K.as_quaternion()
    d = jq - kq
    if d.norm() < 1e-12:
        raise DegeneratePairError("coefficient identities need J != K")
    dinv = d.inverse()
    first = dinv * jq + jq * dinv
    second = dinv * kq + jq * dinv
    return first, second


def orthonormal_to(J: UnitImaginary) -> UnitImaginary:
    """A deterministic unit orthogonal to J.

    Uses the reference axis (1,0,0), falling back to (0,1,0) when J is
    nearly parallel to it.
    """
    ref = (1.0, 0.0, 0.0)
    if abs(J.vx) > 0.9:
        ref = (0.0, 1.0, 0.0)
    px = ref[0] - J.vx * (ref[0] * J.vx + ref[1] * J.vy + ref[2] * J.vz)
    py = ref[1] - J.vy * (ref[0] * J.vx + ref[1] * J.vy + ref[2] * J.vz)
    pz = ref[2] - J.vz * (ref[0] * J.vx + ref[1] * J.vy + ref[2] * J.vz)
    return UnitImaginary(px, py, pz)


def rotate_toward(J: UnitImaginary, chord: float) -> UnitImaginary:
    """Rotate J by the angle whose chord is the given value.

    The rotation moves J toward the fixed reference axis (via
    orthonormal_to), so repeated runs are reproducible.
    """
    if not 0.0 < chord < 2.0:
        raise ValueError("chord must lie in (0, 2)")
    theta = 2.0 * math.asin(chord / 2.0)
    u = orthonormal_to(J)
    c, s = math.cos(theta), math.sin(theta)
    return UnitImaginary(c * J.vx + s * u.vx,
                         c * J.vy + s * u.vy,
                         c * J.vz + s * u.vz)

