"""Representation and extension machinery for slice regular functions.

Covers the stem coefficient maps, the two-slice extension formula, regular
extension from one slice of a symmetric domain, and global extension to
the symmetric completion with per-sphere consistency verification.  An
extension is a StemPair, itself a slice function, and each construction
takes the domain it extends from as an argument.  Tube domains and the
constructive local extension are in slicereg.local.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .domains import DomainSpec, SphereSample
from .errors import (ConsistencyError, DegeneratePairError,
                     IncompatiblePairError, OutOfDomainError,
                     PreconditionError, SliceRegError)
from .holomorphic import HoloSliceFunction, dbar_residual_rows
from .quaternions import (Quaternion, SliceCoord, UNIT_I, UnitImaginary,
                          imaginary_rows, mul_rows, norm_rows)

# the random points a validator draws and tests at once
_DRAW_BLOCK = 256


# ---------------------------------------------------------------------------
# stem coefficients and the extension formula
# ---------------------------------------------------------------------------

def rep_coeffs(fJ: Quaternion, fK: Quaternion,
               J: UnitImaginary, K: UnitImaginary):
    """Stem coefficients from two slice values at the same (x, y):

    b = (J-K)^-1 [J fJ - K fK],  c = (J-K)^-1 [fJ - fK].

    Callers must use (f(x), 0) directly on the real axis.
    """
    jq = J.as_quaternion()
    kq = K.as_quaternion()
    d = jq - kq
    if d.norm() < 1e-12:
        raise DegeneratePairError("stem coefficients need J != K")
    dinv = d.inverse()
    b = dinv * (jq * fJ - kq * fK)
    c = dinv * (fJ - fK)
    return b, c


def rep_coeffs_rows(fJ, fK, J, K):
    """rep_coeffs over rows: slice values fJ, fK (n, 4) as quaternion rows at
    the units J, K (n, 3).  J - K is imaginary, so (J - K)^-1 is
    -(J - K)/|J - K|^2.  Returns (b, c, ok); a pair with |J - K| < 1e-12
    has ok False (where rep_coeffs raises) and NaN coefficients.  Each row
    repeats the arithmetic of rep_coeffs, so it equals its result bit for
    bit."""
    jk = imaginary_rows(np.array([J, K]))
    d = jk[0] - jk[1]
    n2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2] + d[:, 3] * d[:, 3]
    ok = np.sqrt(n2) >= 1e-12
    dinv = d * (1.0, -1.0, -1.0, -1.0) / np.where(ok, n2, np.nan)[:, None]
    # values past the float range give inf and NaN rows, which callers test
    with np.errstate(over="ignore", invalid="ignore"):
        jf, kf = mul_rows(jk, np.array([fJ, fK]))
        b, c = mul_rows(dinv, np.array([jf - kf, fJ - fK]))
    return b, c, ok


@dataclass(frozen=True)
class StemPair(HoloSliceFunction):
    """Stem functions of a slice regular function on a symmetric domain,
    f(x + yJ) = b(x, y) + J c(x, y).  stems(x, y) maps points, arrays (n,),
    to (b (n, 4), c (n, 4), ok (n,)) as quaternion rows; rows where the stem
    is undefined have ok False and NaN coefficients.  c vanishes on the real
    axis by convention."""

    stems: callable

    def eval_rows(self, x, y, vectors):
        """Values b + J c at the points x + yJ, as HoloSliceFunction.eval_rows:
        x and y broadcast to the rows J of vectors (n, 3).  Real rows
        (y == 0) give b."""
        v = np.asarray(vectors, dtype=float).reshape(-1, 3)
        x, y = (np.broadcast_to(np.asarray(a, dtype=float), (len(v),)) for a in (x, y))
        b, c, ok = self.stems(x, y)
        values = b + mul_rows(imaginary_rows(v), c)
        real = y == 0.0
        values[real] = b[real]
        return values, ok

    def export_rows(self, xy):
        """CSV rows (x, y, b components, c components) over sample points;
        the first point where the stem is undefined or not finite raises
        OutOfDomainError."""
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        b, c, ok = self.stems(xy[:, 0], xy[:, 1])
        ok &= np.isfinite(b).all(axis=1) & np.isfinite(c).all(axis=1)
        if not ok.all():
            raise OutOfDomainError("no finite stem at ({:g}, {:g})".format(*xy[~ok][0]))
        return np.hstack([xy, b, c]).tolist()


def _two_slice_stem(r, J: UnitImaginary, s, K: UnitImaginary,
                    axis: bool = True) -> StemPair:
    """Stems of r on the slice J and s on the slice K (the extension
    formula), from one r.eval_rows call at x + yJ, one s.eval_rows call at
    x + yK and one rep_coeffs_rows call.  On the real axis the stems of one
    function (axis) are (r(x), 0); extension_formula keeps rep_coeffs of
    r(x) and s(x) there."""
    jk = np.array([J.to_list(), K.to_list()])

    def stems(x, y):
        vj, vk = (np.broadcast_to(v, (len(x), 3)) for v in jk)
        rj, rok = r.eval_rows(x, y, vj)
        sk, sok = s.eval_rows(x, y, vk)
        b, c, ok = rep_coeffs_rows(rj, sk, vj, vk)
        ok &= rok & sok
        if axis:
            real = y == 0.0
            b[real], c[real], ok[real] = rj[real], 0.0, rok[real]
        return b, c, ok

    return StemPair(stems)


def _real_samples(fn: HoloSliceFunction, count: int = 9):
    """Real evaluation points where the function is defined."""
    from .holomorphic import ContinuedLog, PowerSeries
    if isinstance(fn, PowerSeries):
        half = 0.7 * min(fn.radius, 2.0)
        return np.linspace(fn.center - half, fn.center + half, count)
    if isinstance(fn, ContinuedLog):
        xlo, xhi = fn.bbox[0], fn.bbox[1]
        return np.linspace(xlo + 0.1 * (xhi - xlo), xhi - 0.1 * (xhi - xlo), count)
    return np.linspace(-1.0, 1.0, count)


def _real_keys(fn: HoloSliceFunction) -> set:
    """fn's real samples rounded to 12 decimals; past 1e15 in magnitude,
    where that rounding would overflow, as they are."""
    x = _real_samples(fn)
    small = np.abs(x) < 1e15
    x[small] = np.round(x[small], 12)
    return set(x)


def check_compatible(r: HoloSliceFunction, s: HoloSliceFunction,
                     tol: float = 1e-9, where: str | None = None):
    """Raise IncompatiblePairError unless r and s agree, within tol, on at
    least three shared real points (their common real trace), from one
    eval_rows call per function; an error of either call propagates.
    where, when given, names the pair in the disagreement's message."""
    xs = _real_keys(r) & _real_keys(s)
    if len(xs) < 3:
        xs = _real_keys(r)
    x = np.array(sorted(xs))
    units = np.tile(UNIT_I.to_list(), (len(x), 1))
    (rv, r_ok), (sv, s_ok) = (f.eval_rows(x, 0.0, units) for f in (r, s))
    good = r_ok & s_ok
    dist = norm_rows(rv - sv)
    bad = (good & (dist > tol)).nonzero()[0]
    if bad.size:
        raise IncompatiblePairError(
            f"{where + ': ' if where else ''}slice functions disagree at "
            f"x={x[bad[0]]:g} by {dist[bad[0]]:.3e}")
    if good.sum() < 3:
        raise IncompatiblePairError("no shared real trace to compare on")


def formula_stem(r: HoloSliceFunction, s: HoloSliceFunction,
                 check_compat: bool = True, where: str | None = None) -> StemPair:
    """Stems of the extension formula of r and s, attached to the slices J
    and K: its value at x + yI is

    f(x+yI) = (J-K)^-1 [J r(x+yJ) - K s(x+yK)] + I (J-K)^-1 [r(x+yJ) - s(x+yK)].

    Targets carry y >= 0, which is the corrected hypothesis making the
    formula single-valued; on the real axis the value is the first term.
    check_compat runs check_compatible on the pair first, where naming
    the pair in its message.
    """
    J = r.slice_unit
    K = s.slice_unit
    if J is None or K is None:
        raise PreconditionError("both inputs must be attached to a slice "
                                "(use on_slice)")
    if J.chord(K) < 1e-12:
        raise DegeneratePairError("extension formula needs J != K")
    if check_compat:
        check_compatible(r, s, where=where)
    return _two_slice_stem(r, J, s, K, axis=False)


def extension_formula(r: HoloSliceFunction, s: HoloSliceFunction,
                      target: SliceCoord, check_compat: bool = True) -> Quaternion:
    """Slice regular value at the target from holomorphic data on two
    slices (formula_stem).  Callers that evaluate one pair at many points
    evaluate its formula_stem once, as rows."""
    return formula_stem(r, s, check_compat).eval(target)


def regular_ext(fI: HoloSliceFunction, domain: DomainSpec,
                where: str | None = None) -> StemPair:
    """Regular extension of a holomorphic function on one slice of a
    symmetric slice domain; the result restricts back to the input.  The
    domain's symmetry and fI's holomorphy are checked first; where, when
    given, names the domain in the symmetry check's message."""
    unit = fI.slice_unit
    if unit is None:
        raise PreconditionError("regular extension needs a slice-attached input")
    _validate_symmetric(domain, unit, where)
    _validate_holomorphic(fI, domain, unit)
    return _two_slice_stem(fI, unit, fI, -unit)


def _validate_symmetric(domain: DomainSpec, unit: UnitImaginary, where=None):
    from .quaternions import orthonormal_to
    x_min, x_max, y_max = domain.bbox
    gx = np.linspace(x_min + 1e-3, x_max - 1e-3, 12)
    gy = np.linspace(1e-3, y_max - 1e-3, 6)
    X, Y = np.meshgrid(gx, gy)
    probes = [unit, -unit, orthonormal_to(unit), -orthonormal_to(unit)]
    ref = None
    for J in probes:
        mem = np.asarray(domain.membership(X, Y, J.vx, J.vy, J.vz), dtype=bool)
        mem = np.broadcast_to(mem, X.shape)
        if ref is None:
            ref = mem
        elif (mem != ref).any():
            raise PreconditionError(f"{where + ': ' if where else ''}domain is not symmetric")


def _draws(draw, attempts: int):
    """The values of draw() for attempts calls, in draw order, as arrays
    of at most _DRAW_BLOCK rows, a block drawn only when the one before it
    has been used."""
    for lo in range(0, attempts, _DRAW_BLOCK):
        yield np.array([draw() for _ in range(min(_DRAW_BLOCK, attempts - lo))])


def _validate_holomorphic(fI: HoloSliceFunction, domain: DomainSpec,
                          unit: UnitImaginary, h: float = 1e-3):
    """The dbar residual of fI at step h, at most 1e-4 (1 + |fI|), on the
    first 6 of 200 random points whose 2h cross lies in the domain."""
    x_min, x_max, y_max = domain.bbox
    rng = random.Random(7)
    checked = 0
    # a box lower than 2h checks nothing
    for x, y in (block.T for block in _draws(lambda: (
            rng.uniform(x_min, x_max), rng.uniform(2 * h, max(y_max, 2 * h))), 200)):
        cx = np.stack([x - 2 * h, x + 2 * h, x, x], axis=1).ravel()
        cy = np.stack([y, y, y - 2 * h, y + 2 * h], axis=1).ravel()
        inside = domain.contains_rows(cx, cy, np.broadcast_to(unit.to_list(), (cx.size, 3)))
        inside = inside.reshape(-1, 4).all(axis=1)
        x, y = x[inside], y[inside]
        if not x.size:  # no point passed: fI is not evaluated, nor its table built
            continue
        units = np.broadcast_to(unit.to_list(), (len(x), 3))
        try:
            res, stencil_ok = dbar_residual_rows(fI, x, y, units, h)
            values, ok = fI.eval_rows(x, y, units)
        except PreconditionError:
            raise  # fI cannot be evaluated anywhere, e.g. its table cannot be built
        except SliceRegError:
            continue
        keep = np.flatnonzero(stencil_ok.all(axis=1) & ok)[:6 - checked]
        bad = keep[res[keep] > 1e-4 * (1.0 + norm_rows(values[keep]))]
        if bad.size:
            k = bad[0]
            raise PreconditionError(
                f"slice restriction is not holomorphic (dbar {res[k]:.2e} at "
                f"({x[k]:.3f}, {y[k]:.3f}))")
        checked += keep.size
        if checked >= 6:
            break


# ---------------------------------------------------------------------------
# global extension with consistency verification
# ---------------------------------------------------------------------------

@dataclass
class ConsistencyReport:
    threshold: float
    entries: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    max_defect: float = 0.0
    n_spheres: int = 0

    def worst(self):
        return max(self.entries, key=lambda e: e["defect"], default=None)

    def to_json_dict(self):
        return {
            "threshold": self.threshold,
            "max_defect": self.max_defect,
            "n_spheres": self.n_spheres,
            "spheres": self.entries,
            "skipped": self.skipped,
        }


def extend_to_completion(f: HoloSliceFunction, omega: DomainSpec,
                         sample: SphereSample, xy_grid, tol: float = 1e-8,
                         force: bool = False):
    """Extend f from its domain omega to the symmetric completion of omega,
    verifying that the stem coefficients computed from different unit pairs
    agree sphere by sphere.  The maximal disagreement per sphere is the
    consistency defect; it exceeds the threshold exactly where no
    single-valued extension exists.  The spheres are scanned in blocks
    (slicereg.consistency).
    """
    if not force:
        from .domains import is_simple
        verdict = is_simple(omega, sample)
        if not verdict.is_yes:
            raise PreconditionError(
                f"domain is not simple at this resolution: {verdict.witness}")

    from .consistency import first_stems, scan_entries
    report = ConsistencyReport(threshold=tol,
                               entries=scan_entries(f, omega, sample, xy_grid))
    report.max_defect = max((e["defect"] for e in report.entries), default=0.0)
    report.n_spheres = len(report.entries)

    if report.max_defect > tol and not force:
        raise ConsistencyError(
            f"consistency defect {report.max_defect:.6g} exceeds {tol:g}: "
            "no single-valued extension on this domain", report)

    return StemPair(lambda x, y: first_stems(f, omega, sample, x, y)), report
