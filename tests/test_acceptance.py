"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time.  Tolerances are fixed here and nowhere else."""
import math
import time

import numpy as np
import pytest

from slicereg import (PowerSeries, Quaternion, SliceCoord,
                      SphereSample, UnitImaginary, ball_spec, coefficient_identities,
                      formula_stem,
                      is_simple, is_slice_domain, local_extend, omega_jk_plus,
                      regular_ext, rep_coeffs, starlike_spec)
from slicereg.extension import StemPair, extend_to_completion
from slicereg.holomorphic import dbar_residual_rows
from slicereg.counterexample import intersection_grid, log_pair, pair_set_grid
from slicereg.quaternions import ONE, UNIT_I, UNIT_J, norm_rows

from conftest import random_polynomial, random_unit
from helpers import rep_eval, tube_contains

Q = Quaternion
TWO_PI = 2.0 * math.pi


def _report(n, name, t0, detail=""):
    print(f"[criterion {n}] PASS {name} ({time.time() - t0:.1f}s) {detail}")


# ---------------------------------------------------------------------------

def test_criterion_1_coefficient_identities():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    count = 0
    while count < 1000:
        J, K = random_unit(rng), random_unit(rng)
        if J.chord(K) < 1e-6:
            continue
        first, second = coefficient_identities(J, K)
        worst = max(worst, (first - ONE).norm(), second.norm())
        count += 1
    assert worst <= 1e-12
    _report(1, "coefficient identities", t0, f"worst={worst:.2e}")


def test_criterion_2_representation_roundtrip():
    t0 = time.time()
    rng = np.random.default_rng(1002)
    worst_rt, worst_pair = 0.0, 0.0
    for _ in range(20):
        f = random_polynomial(rng, max_degree=8)
        done = 0
        while done < 200:
            x = float(rng.uniform(-0.8, 0.8))
            y = float(rng.uniform(0.0, 0.8))
            I, J, K = (random_unit(rng) for _ in range(3))
            J2, K2 = random_unit(rng), random_unit(rng)
            if min(J.chord(K), J2.chord(K2)) < 1e-4 or y == 0.0:
                continue
            fI = f.eval(SliceCoord(x, y, I))
            b, c = rep_coeffs(f.eval(SliceCoord(x, y, J)),
                              f.eval(SliceCoord(x, y, K)), J, K)
            b2, c2 = rep_coeffs(f.eval(SliceCoord(x, y, J2)),
                                f.eval(SliceCoord(x, y, K2)), J2, K2)
            worst_rt = max(worst_rt, (rep_eval(b, c, I) - fI).norm())
            worst_pair = max(worst_pair, (b - b2).norm() + (c - c2).norm())
            done += 1
    assert worst_rt <= 1e-10
    assert worst_pair <= 1e-10
    _report(2, "representation round-trip", t0,
            f"roundtrip={worst_rt:.2e} pair={worst_pair:.2e}")


def test_criterion_3_extension_formula_restrictions():
    t0 = time.time()
    rng = np.random.default_rng(1003)
    worst = 0.0
    for trial in range(10):
        poly = random_polynomial(rng, max_degree=6)
        if trial == 0:
            J, K = UNIT_I, UNIT_J
        else:
            J, K = random_unit(rng), random_unit(rng)
            if J.chord(K) < 0.3:
                continue
        r = poly.on_slice(J)
        s = poly.on_slice(K)
        stem = formula_stem(r, s)
        xy = [(float(rng.uniform(-0.9, 0.9)), float(rng.uniform(0.0, 0.9)))
              for _ in range(40)]
        x, y = np.array(xy).T
        # the formula's rows on each slice against that slice's own values
        for unit, g in ((J, r), (K, s)):
            got, ok = stem.eval_rows(x, y, np.broadcast_to(unit.to_list(), (len(xy), 3)))
            assert ok.all()
            want = np.array([g.eval(SliceCoord.make(*p, unit)).to_list() for p in xy])
            worst = max(worst, float(norm_rows(got - want).max()))
    assert worst <= 1e-12
    _report(3, "extension formula restrictions", t0, f"worst={worst:.2e}")


def _dbar_scan(stem: StemPair, units, points, label):
    """Residual bound at the default step 1e-4 plus the second-order decay
    ratio between the steps 1e-3 and 5e-4, on the points whose three
    stencils and value are all defined: one dbar_residual_rows call per
    step and one eval_rows call per unit."""
    x, y = np.array(points, dtype=float).T
    worst_rel = 0.0
    ratios = []
    for W in units:
        vectors = np.broadcast_to(W.to_list(), (len(x), 3))
        (r_acc, ok_acc), (r1, ok1), (r2, ok2) = (
            dbar_residual_rows(stem, x, y, vectors, h) for h in (1e-4, 1e-3, 5e-4))
        values, keep = stem.eval_rows(x, y, vectors)
        keep &= ok_acc.all(axis=1) & ok1.all(axis=1) & ok2.all(axis=1)
        rel = r_acc[keep] / (1.0 + norm_rows(values[keep]))
        worst_rel = max([worst_rel, *rel.tolist()])
        decays = keep & (r1 > 1e-9)
        ratios += (r1[decays] / r2[decays]).tolist()
    assert worst_rel <= 1e-6, f"{label}: dbar {worst_rel:.2e}"
    return worst_rel, ratios


def test_criterion_4_dbar_verification(ball, star, cfg, log_family, sample16):
    t0 = time.time()
    rng = np.random.default_rng(1004)
    units = [random_unit(rng) for _ in range(10)]

    # stem from regular extension of a polynomial slice
    poly = PowerSeries(tuple(Q(*rng.uniform(-0.5, 0.5, 4)) for _ in range(6)))
    stem_ball = regular_ext(poly.on_slice(UNIT_I), ball)
    pts = [(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 0.5)) for _ in range(100)]
    w1, rat1 = _dbar_scan(stem_ball, units, pts, "regular_ext")

    # stem from local extension in the ball
    f = PowerSeries((Q(0), Q(0), Q(0.4, 0.2, 0, 0), Q(1)))
    le_ball = local_extend(f, ball, SliceCoord(0.3, 0.4, UNIT_I))
    pts = [(rng.uniform(0.1, 0.4), rng.uniform(0.05, 0.3)) for _ in range(100)]
    w2, rat2 = _dbar_scan(le_ball.stem, units, pts, "local_extend(ball)")

    # stem from local extension of the branched log on the counterexample
    le_log = local_extend(log_family, log_family.domain,
                          SliceCoord(-1.0, 1.5, cfg.axis))
    pts = []
    while len(pts) < 100:
        x = rng.uniform(-1.4, -0.6)
        y = rng.uniform(0.05, 1.4)
        if tube_contains(le_log.tube, x, y, le_log.j0):
            pts.append((x, y))
    w3, rat3 = _dbar_scan(le_log.stem, units, pts, "local_extend(log)")

    # stem from global extension on the starlike domain
    fstar = PowerSeries((Q(0.1), Q(0, 1, 0, 0), Q(0), Q(0.7)))
    xy = np.array([[x, y] for x in np.arange(-0.5, 1.5, 0.2)
                   for y in np.arange(0.0, 1.0, 0.2)])
    stem_star, _ = extend_to_completion(fstar, star, sample16, xy)
    pts = [(rng.uniform(-0.3, 0.8), rng.uniform(0.05, 0.5)) for _ in range(100)]
    w4, rat4 = _dbar_scan(stem_star, units, pts, "extend_to_completion")

    ratios = np.array(rat2 + rat3 + rat4)
    assert ratios.size >= 30
    median = float(np.median(ratios))
    assert 3.2 <= median <= 4.8, f"median h^2 ratio {median:.2f}"
    _report(4, "dbar verification", t0,
            f"worst={max(w1, w2, w3, w4):.2e} ratio={median:.2f}")


def test_criterion_5_counterexample_discrete_facts(omega, cfg, ball, sample64):
    t0 = time.time()
    for h in (0.01, 0.005):
        tg = intersection_grid(cfg, h=h)
        n_tu, _ = tg.label()
        assert n_tu == 3, f"h={h}: intersection components {n_tu}"
        pg = pair_set_grid(cfg, h=h)
        n_pair, _ = pg.label()
        assert n_pair == 2, f"h={h}: pair set components {n_pair}"
        verdict = is_simple(omega, sample64, h=h)
        assert verdict.value == "no"
        assert verdict.witness["antipodal"], verdict.witness
        assert is_simple(ball, sample64, h=h).is_yes
    _report(5, "counterexample discrete facts", t0, "h=0.01 and h=0.005")


def test_criterion_6_jump_reproduction(cfg, logs):
    t0 = time.time()
    direct, conj = logs
    rng = np.random.default_rng(1006)
    grid = intersection_grid(cfg)
    n, labels = grid.label()
    lbl_disk = grid.component_at(-1.0, 2.0)
    lbl_low = grid.component_at(-1.0, -2.0)
    lbl_out = grid.component_at(3.0, 0.0)

    def sample_cells(lbl, count):
        iy, ix = np.nonzero(labels == lbl)
        keep = rng.choice(iy.size, size=min(count, iy.size), replace=False)
        return [(float(grid.xs[ix[k]]), float(grid.ys[iy[k]])) for k in keep]

    hits, total = 0, 0
    for x, y in sample_cells(lbl_disk, 300):
        try:
            d = (direct.eval_plane(x, y) - conj.eval_plane(x, y)).norm()
        except Exception:
            total += 1
            continue
        total += 1
        if abs(d - TWO_PI) <= 1e-6:
            hits += 1
    assert hits / total >= 0.95, f"jump only on {hits}/{total} disk cells"

    for lbl in (lbl_low, lbl_out):
        for x, y in sample_cells(lbl, 150):
            d = (direct.eval_plane(x, y) - conj.eval_plane(x, y)).norm()
            assert d <= 1e-8, f"jump {d:.2e} off the disk at ({x:.2f},{y:.2f})"

    # the two orderings of the extension formula, each evaluated as rows
    orderings = (formula_stem(direct, conj),
                 formula_stem(direct.on_slice(-cfg.axis), conj.on_slice(cfg.axis)))

    def ordering_gaps(points, units):
        x, y = np.array(points).T
        (a, ok_a), (b, ok_b) = (stem.eval_rows(x, y, units) for stem in orderings)
        assert (ok_a & ok_b).all()
        return norm_rows(a - b)

    disk = sample_cells(lbl_disk, 80)
    gaps = ordering_gaps(disk, np.broadcast_to(cfg.axis.to_list(), (len(disk), 3)))
    assert np.abs(gaps - TWO_PI).max() <= 1e-6
    outside, units = [], []
    while len(outside) < 80:
        x = float(rng.uniform(-4.5, 4.5))
        y = float(rng.uniform(0.05, 4.5))
        if math.hypot(x + 1.0, y - 2.0) < 1.1 or (abs(y - 2.0) < 0.1 and x < -1.8):
            continue
        outside.append((x, y))
        units.append(random_unit(rng).to_list())
    assert ordering_gaps(outside, np.array(units)).max() <= 1e-8
    _report(6, "jump reproduction", t0, f"{hits}/{total} disk cells at 2pi")


def test_criterion_7_local_extension_end_to_end(ball, omega, cfg, log_family):
    t0 = time.time()
    rng = np.random.default_rng(1007)
    fball = PowerSeries((Q(0), Q(0), Q(1)))

    def tube_passes_slice_domain(tube):
        # grid verdict at a step fine enough to resolve the tube's waist
        h = tube.raster_budget_step(cells=4e6)
        assert h <= tube.waist / 5.0, "tube too thin for a raster verdict"
        return is_slice_domain(tube.as_domain_spec(h=h), SphereSample(8),
                               h=h).is_yes

    def run(f, spec, count, margin):
        done = 0
        while done < count:
            x = float(rng.uniform(spec.bbox[0] + 0.2, spec.bbox[1] - 0.2))
            y = float(rng.uniform(0.0, spec.bbox[2] - 0.2))
            J = random_unit(rng)
            # random points of the open domain, at working clearance from
            # the boundary so tube rasters stay affordable
            offsets = ((0, 0), (margin, 0), (-margin, 0), (0, margin),
                       (0, -margin) if y > margin else (0, 0))
            if not all(spec.contains(x + dx, max(y + dy, 0.0), J)
                       for dx, dy in offsets):
                continue
            result = local_extend(f, spec, SliceCoord.make(x, y, J))
            # validation inside local_extend enforces the 1e-9 / 1e-8 bounds
            assert result.checks["real_trace_max_err"] <= 1e-9
            assert result.checks["tube_max_err"] <= 1e-8
            assert result.checks["tube_points"] >= 100
            assert tube_passes_slice_domain(result.tube)
            done += 1

    run(fball, ball, 10, margin=0.15)
    run(log_family, omega, 10, margin=0.3)
    _report(7, "local extension end-to-end", t0, "10 + 10 points")


def test_criterion_8_global_extension_dichotomy(star, cfg, log_family, sample64):
    t0 = time.time()
    poly = PowerSeries((Q(0.3, 0.1, 0, 0), Q(0, 1, 0.5, 0), Q(1, 0, 0, 0.2)))
    xs = np.arange(star.bbox[0] + 0.05, star.bbox[1], 0.1)
    ys = np.arange(0.05, star.bbox[2], 0.1)
    grid = np.array([[x, y] for x in xs for y in ys])
    stem, report = extend_to_completion(poly, star, sample64, grid)
    assert report.max_defect <= 1e-8, f"star defect {report.max_defect:.2e}"

    xs = np.arange(-4.875, 5.0, 0.25)
    ys = np.arange(0.125, 5.0, 0.25)
    grid = np.array([[x, y] for x in xs for y in ys])
    stem2, report2 = extend_to_completion(log_family, log_family.domain, sample64, grid,
                                          force=True)
    in_band = [e for e in report2.entries
               if math.hypot(e["sphere"][0] + 1.0, e["sphere"][1] - 2.0) < 0.9
               and abs(e["defect"] - TWO_PI) <= 1e-3]
    assert in_band, "no disk sphere with defect within 1e-3 of 2pi"
    _report(8, "global extension dichotomy", t0,
            f"star={report.max_defect:.1e} disk spheres at 2pi: {len(in_band)}")


def test_criterion_9_identity_principle(ball):
    t0 = time.time()
    rng = np.random.default_rng(1009)
    poly = random_polynomial(rng, max_degree=6, scale=0.5)
    stem_i = regular_ext(poly.on_slice(UNIT_I), ball)
    stem_j = regular_ext(poly.on_slice(UNIT_J), ball)
    worst = 0.0
    for _ in range(300):
        x = float(rng.uniform(-0.6, 0.6))
        y = float(rng.uniform(0.0, 0.6))
        W = random_unit(rng)
        t = SliceCoord.make(x, y, W)
        worst = max(worst, (stem_i.eval(t) - stem_j.eval(t)).norm())
    assert worst <= 1e-8
    _report(9, "identity principle oracle", t0, f"worst={worst:.2e}")
