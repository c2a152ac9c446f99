"""Batch command line front end.

Every subcommand reads JSON inputs, writes JSON/CSV/PGM reports under the
output directory and exits 0 on success, 2 when an asserted mathematical
check fails (for instance the consistency defect firing on a non-simple
domain), and 1 on usage or IO errors.  Reports are byte-identical across
runs with the same inputs and configuration.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .domains import (SphereSample, is_simple, is_slice_convex,
                      is_slice_domain, is_symmetric, rasterize,
                      symmetric_completion)
from .errors import ConsistencyError, PreconditionError, SliceRegError
from .extension import (DomainFunction, build_tube, check_compatible,
                        extend_to_completion, extension_formula,
                        local_extend, regular_ext, rep_coeffs, rep_eval)
from .holomorphic import PowerSeries
from .quaternions import Quaternion, SliceCoord, UNIT_I, UnitImaginary
from .serialize import (dump_json, grid_to_pgm, load_domain_spec,
                        load_holo_function, write_csv)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _sample(args, extra=()) -> SphereSample:
    return SphereSample(args.samples, extra=extra)


def _load_spec(args):
    data = json.loads(Path(args.spec).read_text())
    if args.h is not None:
        data["h"] = args.h
    spec = load_domain_spec(data)
    if args.h is not None:  # a boolean-op spec takes h from its leaves
        spec = replace(spec, h=args.h)
    extra = []
    if data.get("type") == "counterexample":
        extra = [UnitImaginary.from_vector(data.get("axis", [1.0, 0.0, 0.0]))]
    return spec, data, extra


_BUILTIN_FUNCTIONS = {
    "identity": [[0, 0, 0, 0], [1, 0, 0, 0]],
    "square": [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
    "cube": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
}


def _load_function(args, spec, spec_data):
    """--function is a builtin name, a JSON file, or 'log-family' (only on
    the counterexample domain)."""
    name = args.function
    if name == "log-family":
        if spec_data.get("type") != "counterexample":
            raise PreconditionError("log-family requires a counterexample domain")
        from .counterexample import BranchedLogFamily, CounterexampleConfig
        axis = UnitImaginary.from_vector(spec_data.get("axis", [1.0, 0.0, 0.0]))
        cfg = CounterexampleConfig(axis=axis, h=spec.h,
                                   bbox=tuple(spec_data.get("bbox", (-5.0, 5.0, 5.0))))
        return BranchedLogFamily(cfg)
    if name in _BUILTIN_FUNCTIONS:
        coeffs = tuple(Quaternion.from_list(c) for c in _BUILTIN_FUNCTIONS[name])
        return DomainFunction(PowerSeries(coeffs), spec)
    return DomainFunction(load_holo_function(name), spec)


def _parse_unit(text) -> UnitImaginary:
    return UnitImaginary.from_vector(json.loads(text))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check_domain(args) -> int:
    spec, data, extra = _load_spec(args)
    sample = _sample(args, extra)
    out = _out_dir(args)
    sd = is_slice_domain(spec, sample)
    sym = is_symmetric(spec, sample)
    cvx = is_slice_convex(spec, sample)
    smp = is_simple(spec, sample)
    report = {
        "spec": data,
        "slice_domain": sd.summary(),
        "symmetric": sym.summary(),
        "slice_convex": cvx.summary(),
        "simple": smp.summary(),
        "witnesses": {
            "slice_domain": sd.witness,
            "symmetric": sym.witness,
            "slice_convex": cvx.witness,
            "simple": smp.witness,
        },
    }
    dump_json(report, out / "verdicts.json")
    print(json.dumps({k: report[k] for k in
                      ("slice_domain", "symmetric", "slice_convex", "simple")}))
    if args.emit_plots:
        from .serialize import grid_components_csv
        grid = rasterize(spec, UNIT_I, full_slice=True)
        grid_to_pgm(grid, out / "slice_i.pgm")
        grid_components_csv(grid, out / "slice_i_components.csv")
    return EXIT_OK


def cmd_completion(args) -> int:
    spec, data, extra = _load_spec(args)
    sample = _sample(args, extra)
    out = _out_dir(args)
    comp = symmetric_completion(spec, sample)
    x_min, x_max, y_max = spec.bbox
    xs = np.linspace(x_min, x_max, 81)
    ys = np.linspace(0.0, y_max, 41)
    rows = []
    vec = sample.vectors
    for y in ys:
        for x in xs:
            if y == 0.0:
                frac = 1.0 if bool(np.asarray(spec.real_trace(np.asarray(x))).reshape(-1)[0]) else 0.0
            else:
                mem = np.asarray(spec.membership(x, y, vec[:, 0], vec[:, 1], vec[:, 2]))
                mem = np.broadcast_to(mem, (vec.shape[0],))
                frac = float(np.count_nonzero(mem)) / vec.shape[0]
            rows.append([x, y, frac])
    write_csv(out / "coverage.csv", ["x", "y", "covered_fraction"], rows)
    verdict = is_symmetric(comp, sample)
    report = {"base_spec": data, "samples": sample.n_requested,
              "completion_symmetric": verdict.summary()}
    dump_json(report, out / "completion.json")
    print(json.dumps(report["completion_symmetric"]))
    return EXIT_OK


def cmd_repr(args) -> int:
    out = _out_dir(args)
    rng = np.random.default_rng(args.seed)
    tol = args.tol if args.tol is not None else 1e-10
    max_rt = 0.0
    max_pair = 0.0
    n_funcs, n_pts = 12, 80
    for _ in range(n_funcs):
        deg = int(rng.integers(1, 9))
        coeffs = tuple(Quaternion(*rng.uniform(-1, 1, size=4)) for _ in range(deg + 1))
        f = PowerSeries(coeffs)
        for _ in range(n_pts):
            x = float(rng.uniform(-0.8, 0.8))
            y = float(rng.uniform(0.05, 0.8))
            units = [UnitImaginary(*rng.normal(size=3)) for _ in range(5)]
            I, J, K, J2, K2 = units
            if J.chord(K) < 1e-2 or J2.chord(K2) < 1e-2:
                continue
            fI = f.eval(SliceCoord(x, y, I))
            b, c = rep_coeffs(f.eval(SliceCoord(x, y, J)),
                              f.eval(SliceCoord(x, y, K)), J, K)
            b2, c2 = rep_coeffs(f.eval(SliceCoord(x, y, J2)),
                                f.eval(SliceCoord(x, y, K2)), J2, K2)
            max_rt = max(max_rt, (rep_eval(b, c, I) - fI).norm())
            max_pair = max(max_pair, (b - b2).norm() + (c - c2).norm())
    report = {"max_roundtrip_err": max_rt, "max_pair_dependence": max_pair,
              "tolerance": tol, "functions": n_funcs, "points": n_pts,
              "seed": args.seed}
    report["pass"] = bool(max_rt <= tol and max_pair <= tol)
    dump_json(report, out / "repr.json")
    print(json.dumps(report["pass"]))
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def cmd_extend(args) -> int:
    out = _out_dir(args)
    data = json.loads(Path(args.pair).read_text())
    r = load_holo_function(data["r"])
    s = load_holo_function(data["s"])
    if r.slice_unit is None or s.slice_unit is None:
        raise PreconditionError("function pair must carry slice_unit entries")
    g = data.get("grid", {})
    xs = np.arange(*g.get("x", (-1.0, 1.0, 0.1)))
    ys = np.arange(*g.get("y", (0.0, 1.0, 0.1)))
    unit = UnitImaginary.from_vector(g.get("unit", [0.0, 0.0, 1.0]))
    check_compatible(r, s)
    rows = []
    for x in xs:
        for y in ys:
            try:
                v = extension_formula(r, s, SliceCoord.make(float(x), float(y), unit),
                                      check_compat=False)
            except SliceRegError:
                continue
            rows.append([x, y, *v.to_list()])
    write_csv(out / "extension.csv",
              ["x", "y", "f_w", "f_x", "f_y", "f_z"], rows)
    print(json.dumps({"rows": len(rows)}))
    return EXIT_OK


def cmd_ext_slice(args) -> int:
    spec, data, _ = _load_spec(args)
    out = _out_dir(args)
    unit = _parse_unit(args.unit) if args.unit else UNIT_I
    fn = load_holo_function(args.function, default_unit=unit)
    if fn.slice_unit is None:
        fn = fn.on_slice(unit)
    stem = regular_ext(fn, spec)
    x_min, x_max, y_max = spec.bbox
    xy = [(x, y) for x in np.linspace(x_min, x_max, 41)
          for y in np.linspace(0.0, y_max, 21)
          if spec.contains(float(x), float(y), fn.slice_unit)]
    write_csv(out / "stem.csv",
              ["x", "y", "b_w", "b_x", "b_y", "b_z", "c_w", "c_x", "c_y", "c_z"],
              stem.export_rows(xy))
    print(json.dumps({"rows": len(xy)}))
    return EXIT_OK


def cmd_local_extend(args) -> int:
    spec, data, _ = _load_spec(args)
    out = _out_dir(args)
    f = _load_function(args, spec, data)
    q = Quaternion.from_list(json.loads(args.point))
    from .quaternions import slice_decompose
    p0 = slice_decompose(q)
    result = local_extend(f, p0, seed=args.seed)
    report = {
        "point": q.to_list(),
        "j0": result.j0.to_list(),
        "k0": result.k0.to_list(),
        "epsilon_m": result.epsilon_m,
        "epsilon_tube": result.epsilon_tube,
        "path": result.path.tolist(),
        "checks": result.checks,
    }
    dump_json(report, out / "local_extend.json")
    xy = [(x, y) for x, y in result.path]
    write_csv(out / "stem.csv",
              ["x", "y", "b_w", "b_x", "b_y", "b_z", "c_w", "c_x", "c_y", "c_z"],
              result.stem.export_rows(xy))
    print(json.dumps(report["checks"]))
    return EXIT_OK


def cmd_global_extend(args) -> int:
    spec, data, extra = _load_spec(args)
    sample = _sample(args, extra)
    out = _out_dir(args)
    f = _load_function(args, spec, data)
    tol = args.tol if args.tol is not None else 1e-8
    x_min, x_max, y_max = spec.bbox
    step = max(4 * spec.h, min(x_max - x_min, y_max) / 40.0)
    xy = np.array([[x, y]
                   for x in np.arange(x_min + step / 2.0, x_max, step)
                   for y in np.arange(step / 2.0, y_max, step)])
    exit_code = EXIT_OK
    try:
        stem, report = extend_to_completion(f, sample, xy, tol=tol,
                                            force=args.force)
        if report.max_defect > tol:
            exit_code = EXIT_CHECK_FAILED
    except (ConsistencyError, PreconditionError) as exc:
        payload = {"error": str(exc)}
        if isinstance(exc, ConsistencyError) and exc.report is not None:
            payload["report"] = exc.report.to_json_dict()
        dump_json(payload, out / "consistency.json")
        print(json.dumps({"error": str(exc)}))
        return EXIT_CHECK_FAILED
    dump_json(report.to_json_dict(), out / "consistency.json")
    worst = report.worst()
    print(json.dumps({"max_defect": report.max_defect,
                      "worst_sphere": None if worst is None else worst["sphere"]}))
    return exit_code


def cmd_counterexample(args) -> int:
    from .counterexample import (CounterexampleConfig, demonstrate,
                                 intersection_grid, jump_heatmap,
                                 omega_spec, pair_set_grid)
    out = _out_dir(args)
    axis = _parse_unit(args.axis) if args.axis else UNIT_I
    cfg = CounterexampleConfig(axis=axis, h=args.h if args.h else 0.01)
    sample = SphereSample(args.samples, extra=[axis])
    report = demonstrate(cfg, sample=sample, seed=args.seed)
    dump_json(report, out / "report.json")
    if args.emit_plots:
        grid_to_pgm(rasterize(omega_spec(cfg), axis, full_slice=True),
                    out / "omega_slice.pgm")
        grid_to_pgm(intersection_grid(cfg), out / "intersection_labels.pgm",
                    labels=True)
        grid_to_pgm(pair_set_grid(cfg), out / "pair_set_labels.pgm", labels=True)
        write_csv(out / "jump_heatmap.csv", ["x", "y", "abs_jump"],
                  jump_heatmap(cfg))
    print(json.dumps(report["checks"]))
    return EXIT_OK if report["all_checks_pass"] else EXIT_CHECK_FAILED


def cmd_tube(args) -> int:
    spec, data, _ = _load_spec(args)
    out = _out_dir(args)
    cdata = json.loads(Path(args.path).read_text())
    carrier = UnitImaginary.from_vector(cdata.get("unit", [1.0, 0.0, 0.0]))
    tube = build_tube(np.asarray(cdata["points"], float), spec,
                      args.shrink, carrier=carrier)
    report = {"type": "tube", "unit": tube.unit.to_list(),
              "polyline": tube.polyline.tolist(), "epsilon": tube.epsilon,
              "y_ref": tube.y_ref, "h": tube.h}
    dump_json(report, out / "tube.json")
    print(json.dumps({"epsilon": tube.epsilon}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _grid_step(text) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"grid step must be finite and > 0, got {text}")
    return value


def _sample_size(text) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"sphere sample size must be >= 2, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicereg",
        description="Numerics for quaternionic slice regular functions on "
                    "non-symmetric slice domains.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=True):
        if spec:
            p.add_argument("spec", help="domain spec JSON file")
        p.add_argument("--h", type=_grid_step, default=None, help="grid step")
        p.add_argument("--samples", type=_sample_size, default=64,
                       help="sphere sample size N")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance override")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--emit-plots", action="store_true")

    p = sub.add_parser("check-domain",
                       help="slice/symmetric/convex/simple verdicts")
    common(p)
    p.set_defaults(fn=cmd_check_domain)

    p = sub.add_parser("completion",
                       help="sampled symmetric completion and coverage map")
    common(p)
    p.set_defaults(fn=cmd_completion)

    p = sub.add_parser("repr",
                       help="representation round-trip test on random polynomials")
    common(p, spec=False)
    p.set_defaults(fn=cmd_repr)

    p = sub.add_parser("extend", help="two-slice extension formula over a grid")
    p.add_argument("pair", help="JSON file with r, s and grid entries")
    common(p, spec=False)
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("ext-slice", help="regular extension from one slice")
    common(p)
    p.add_argument("--function", required=True, help="holomorphic function JSON")
    p.add_argument("--unit", default=None, help="slice unit as JSON list")
    p.set_defaults(fn=cmd_ext_slice)

    p = sub.add_parser("local-extend",
                       help="constructive local extension from a point")
    common(p)
    p.add_argument("--function", required=True,
                   help="builtin name, JSON file, or log-family")
    p.add_argument("--point", required=True,
                   help="quaternion as JSON list [w,x,y,z]")
    p.set_defaults(fn=cmd_local_extend)

    p = sub.add_parser("global-extend",
                       help="extension to the symmetric completion with "
                            "consistency report")
    common(p)
    p.add_argument("--function", required=True)
    p.add_argument("--force", action="store_true",
                   help="run even when the domain is not simple")
    p.set_defaults(fn=cmd_global_extend)

    p = sub.add_parser("counterexample",
                       help="evidence bundle for the non-simple domain")
    common(p, spec=False)
    p.add_argument("--axis", default=None, help="reference unit as JSON list")
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("tube", help="build and validate a tube domain")
    common(p)
    p.add_argument("--path", required=True,
                   help="JSON file with unit and points entries")
    p.add_argument("--shrink", type=float, default=0.5)
    p.set_defaults(fn=cmd_tube)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConsistencyError,) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except SliceRegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry():  # console script hook
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
