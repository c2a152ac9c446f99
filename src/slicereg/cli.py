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
import os
import random
import sys
from dataclasses import replace
from pathlib import Path

# Set before numpy loads: slicereg's one BLAS product is a 3-vector dot
# (specs.ball_spec), so a second OpenBLAS thread never works for it and only
# spins.  A thread count the user set, in any of the three, is left alone.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in os.environ for name in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

import numpy as np  # noqa: E402  (after the thread default)

from . import __version__
from .errors import (ConsistencyError, GridStepError, PreconditionError,
                     SliceRegError)
from .quaternions import (Quaternion, UNIT_I, UnitImaginary, imaginary_rows,
                          mul_rows, norm_rows, slice_decompose)
from .serialize import (dump_json, load_domain_spec, load_holo_function, walk,
                        write_csv, write_pgm)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _sample(args, values):
    """The sphere sample; a counterexample spec adds its axis."""
    from .domains import SphereSample
    return SphereSample(args.samples, extra=[values["axis"]]
                        if values["type"] == "counterexample" else [])


def _read(path, kind: str):
    """The JSON file at path, walked as the given kind of the input schema;
    the kind names the file in messages."""
    return walk(json.loads(Path(path).read_text()), kind, kind)


def _step_key(values, where="spec") -> tuple:
    """(h, path) of the spec key that sets a loaded spec's grid step: a
    boolean-op takes the least h of its operands, the first on a tie."""
    if values["type"] != "boolean-op":
        return values["h"], f"{where}.h"
    return min((_step_key(v, f"{where}.operands[{i}]")
                for i, v in enumerate(values["operands"])), key=lambda hw: hw[0])


def _load_spec(args):
    """(spec, data, values): the domain spec, the spec file's JSON with the
    --h override, and its walked values.  args.step_from names what set
    the grid step, --h or a spec key.  --h replaces a leaf spec's own h
    before the walk; a boolean-op has no h key and takes --h after
    loading."""
    data = json.loads(Path(args.spec).read_text())
    if args.h is not None and isinstance(data, dict) and data.get("type") != "boolean-op":
        data["h"] = args.h
    values = walk(data, "spec", "spec")
    spec = load_domain_spec(values)
    args.step_from = "--h" if args.h is not None else _step_key(values)[1]
    if args.h is not None:  # the report's spec shows the step used
        spec = replace(spec, h=args.h)
        data["h"] = args.h
    return spec, data, values


def _message(args, exc) -> str:
    """The text of exc; a GridStepError's names what set the grid step."""
    where = getattr(args, "step_from", None)
    return f"{where}: {exc}" if where and isinstance(exc, GridStepError) else str(exc)


_BUILTIN_FUNCTIONS = {
    "identity": [[0, 0, 0, 0], [1, 0, 0, 0]],
    "square": [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
    "cube": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
}


def _load_function(args, spec, values):
    """--function is a builtin name, a JSON file, or 'log-family' (only on
    the counterexample domain, whose walked values configure it).  Callers
    extend it from spec, which for log-family is the family's own domain."""
    name = args.function
    if name == "log-family":
        if values["type"] != "counterexample":
            raise PreconditionError("log-family requires a counterexample domain")
        from .counterexample import BranchedLogFamily, CounterexampleConfig
        return BranchedLogFamily(CounterexampleConfig(axis=values["axis"], h=spec.h,
                                                      bbox=values["bbox"]))
    if name in _BUILTIN_FUNCTIONS:
        from .holomorphic import PowerSeries
        coeffs = tuple(Quaternion.from_list(c) for c in _BUILTIN_FUNCTIONS[name])
        return PowerSeries(coeffs)
    return load_holo_function(_read(name, "function"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check_domain(args) -> int:
    from .domains import is_simple, is_slice_convex, is_slice_domain, is_symmetric, rasterize
    spec, data, values = _load_spec(args)
    sample = _sample(args, values)
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
    if args.emit_plots:  # the slice through i, and its components per occupied cell
        grid = rasterize(spec, UNIT_I, full_slice=True)
        write_pgm(out / "slice_i.pgm", grid.occupied)
        iy, ix = np.nonzero(grid.occupied)
        write_csv(out / "slice_i_components.csv", ["x", "y", "component"],
                  zip(grid.xs[ix], grid.ys[iy], grid.label()[1][iy, ix]))
    return EXIT_OK


def cmd_completion(args) -> int:
    from .domains import is_symmetric
    from .specs import symmetric_completion
    spec, data, values = _load_spec(args)
    sample = _sample(args, values)
    out = _out_dir(args)
    x_min, x_max, y_max = spec.bbox
    # rows y-major over the points (x, y), as fractions of the sample's
    # units J with x + yJ in the spec: one membership call on (y, x, unit)
    # axes, and the real trace on the row y == 0
    x, y = np.meshgrid(np.linspace(x_min, x_max, 81), np.linspace(0.0, y_max, 41))
    vec = sample.vectors
    mem = np.broadcast_to(np.asarray(spec.membership(x[..., None], y[..., None], *vec.T),
                                     dtype=bool), x.shape + (len(vec),))
    frac = np.count_nonzero(mem, axis=2) / len(vec)
    real = y == 0.0
    frac[real] = np.asarray(spec.real_trace(x[real]), dtype=bool)
    write_csv(out / "coverage.csv", ["x", "y", "covered_fraction"],
              np.stack([x, y, frac], axis=2).reshape(-1, 3).tolist())
    verdict = is_symmetric(symmetric_completion(spec, sample), sample)
    report = {"base_spec": data, "samples": sample.n_requested,
              "completion_symmetric": verdict.summary()}
    dump_json(report, out / "completion.json")
    print(json.dumps(report["completion_symmetric"]))
    return EXIT_OK


def cmd_repr(args) -> int:
    from .extension import rep_coeffs_rows
    from .holomorphic import PowerSeries
    out = _out_dir(args)
    rng = random.Random(args.seed)
    tol = args.tol if args.tol is not None else 1e-10
    max_rt = 0.0
    max_pair = 0.0
    n_funcs, n_pts = 12, 80
    for _ in range(n_funcs):
        deg = rng.randrange(1, 9)
        coeffs = tuple(Quaternion(*(rng.uniform(-1, 1) for _ in range(4)))
                       for _ in range(deg + 1))
        rows = []  # (x, y, units I, J, K, J2, K2) of the kept points
        for _ in range(n_pts):
            x = rng.uniform(-0.8, 0.8)
            y = rng.uniform(0.05, 0.8)
            units = [UnitImaginary(*(rng.gauss(0.0, 1.0) for _ in range(3)))
                     for _ in range(5)]
            if units[1].chord(units[2]) >= 1e-2 and units[3].chord(units[4]) >= 1e-2:
                rows.append((x, y, [u.to_list() for u in units]))
        # one eval_rows call on the five units of every point, as (unit, point) rows
        x, y, vec = (np.array(a) for a in zip(*rows))
        vec = vec.transpose(1, 0, 2)
        values, _ = PowerSeries(coeffs).eval_rows(np.tile(x, 5), np.tile(y, 5),
                                                  vec.reshape(-1, 3))
        fI, fJ, fK, fJ2, fK2 = values.reshape(5, len(rows), 4)
        b, c, _ = rep_coeffs_rows(fJ, fK, vec[1], vec[2])
        b2, c2, _ = rep_coeffs_rows(fJ2, fK2, vec[3], vec[4])
        max_rt = max(max_rt, float(norm_rows(b + mul_rows(imaginary_rows(vec[0]), c)
                                             - fI).max()))
        max_pair = max(max_pair, float((norm_rows(b - b2) + norm_rows(c - c2)).max()))
    report = {"max_roundtrip_err": max_rt, "max_pair_dependence": max_pair,
              "tolerance": tol, "functions": n_funcs, "points": n_pts,
              "seed": args.seed}
    report["pass"] = bool(max_rt <= tol and max_pair <= tol)
    dump_json(report, out / "repr.json")
    print(json.dumps(report["pass"]))
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def cmd_extend(args) -> int:
    from .extension import formula_stem
    from .raster import _arange_len, _check_cells
    out = _out_dir(args)
    pair = _read(args.pair, "pair")
    r, s = (load_holo_function(pair[key]) for key in ("r", "s"))
    if r.slice_unit is None or s.slice_unit is None:
        raise PreconditionError("function pair must carry slice_unit entries")
    grid = pair["grid"]  # x and y are spans [start, stop, step], counted before np.arange
    if min(grid["x"][2], grid["y"][2]) <= 0:
        raise PreconditionError("grid steps must be positive")
    _check_cells(_arange_len(*grid["y"]), _arange_len(*grid["x"]), "the extend grid")
    xs, ys, unit = np.arange(*grid["x"]), np.arange(*grid["y"]), grid["unit"]
    # the grid x-major; a point below the axis is x + |y|(-unit)
    x, y = np.repeat(xs, ys.size), np.tile(ys, xs.size)
    vectors = np.where((y < 0.0)[:, None], -np.array(unit.to_list()), unit.to_list())
    values, ok = formula_stem(r, s, where="pair").eval_rows(x, np.abs(y), vectors)
    write_csv(out / "extension.csv", ["x", "y", "f_w", "f_x", "f_y", "f_z"],
              np.column_stack([x, y, values])[ok].tolist())
    print(json.dumps({"rows": int(ok.sum())}))
    return EXIT_OK


def cmd_ext_slice(args) -> int:
    from .extension import regular_ext
    spec = _load_spec(args)[0]
    out = _out_dir(args)
    fn = load_holo_function(_read(args.function, "function"),
                            default_unit=args.unit or UNIT_I)
    stem = regular_ext(fn, spec, where="spec")
    x_min, x_max, y_max = spec.bbox
    # the points of the grid x-major in the slice of fn, in one call
    xs, ys = np.linspace(x_min, x_max, 41), np.linspace(0.0, y_max, 21)
    x, y = np.repeat(xs, ys.size), np.tile(ys, xs.size)
    inside = spec.contains_rows(x, y, np.broadcast_to(fn.slice_unit.to_list(), (x.size, 3)))
    xy = np.column_stack([x, y])[inside]
    write_csv(out / "stem.csv",
              ["x", "y", "b_w", "b_x", "b_y", "b_z", "c_w", "c_x", "c_y", "c_z"],
              stem.export_rows(xy))
    print(json.dumps({"rows": len(xy)}))
    return EXIT_OK


def cmd_local_extend(args) -> int:
    from .local import local_extend
    spec, _, values = _load_spec(args)
    out = _out_dir(args)
    f = _load_function(args, spec, values)
    q = Quaternion(*args.point)
    result = local_extend(f, spec, slice_decompose(q), seed=args.seed)
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


def _scan_grid(spec) -> np.ndarray:
    """Sphere centres (x, y) of the global-extend scan: cell centres of a
    grid over the spec's box, x-major, with at least 4 h between them."""
    from .raster import _arange_len, _check_cells
    x_min, x_max, y_max = spec.bbox
    step = max(4 * spec.h, min(x_max - x_min, y_max) / 40.0)
    x0, y0 = x_min + step / 2.0, step / 2.0
    _check_cells(_arange_len(y0, y_max, step), _arange_len(x0, x_max, step), "the scan grid")
    xs, ys = np.arange(x0, x_max, step), np.arange(y0, y_max, step)
    return np.column_stack([np.repeat(xs, ys.size), np.tile(ys, xs.size)])


def cmd_global_extend(args) -> int:
    from .extension import extend_to_completion
    spec, _, values = _load_spec(args)
    sample = _sample(args, values)
    out = _out_dir(args)
    f = _load_function(args, spec, values)
    tol = args.tol if args.tol is not None else 1e-8
    exit_code = EXIT_OK
    try:
        stem, report = extend_to_completion(f, spec, sample, _scan_grid(spec), tol=tol,
                                            force=args.force)
        if report.max_defect > tol:
            exit_code = EXIT_CHECK_FAILED
    except (ConsistencyError, PreconditionError) as exc:
        payload = {"error": _message(args, exc)}
        if isinstance(exc, ConsistencyError) and exc.report is not None:
            payload["report"] = exc.report.to_json_dict()
        dump_json(payload, out / "consistency.json")
        print(json.dumps({"error": payload["error"]}))
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
    from .domains import SphereSample, rasterize
    out = _out_dir(args)
    axis = args.axis or UNIT_I
    args.step_from = "--h" if args.h else None
    cfg = CounterexampleConfig(axis=axis, h=args.h if args.h else 0.01)
    sample = SphereSample(args.samples, extra=[axis])
    report = demonstrate(cfg, sample=sample, seed=args.seed)
    dump_json(report, out / "report.json")
    if args.emit_plots:
        write_pgm(out / "omega_slice.pgm",
                  rasterize(omega_spec(cfg), axis, full_slice=True).occupied)
        write_pgm(out / "intersection_labels.pgm", intersection_grid(cfg).label()[1])
        write_pgm(out / "pair_set_labels.pgm", pair_set_grid(cfg).label()[1])
        write_csv(out / "jump_heatmap.csv", ["x", "y", "abs_jump"],
                  jump_heatmap(cfg))
    print(json.dumps(report["checks"]))
    return EXIT_OK if report["all_checks_pass"] else EXIT_CHECK_FAILED


def cmd_tube(args) -> int:
    from .local import build_tube
    spec = _load_spec(args)[0]
    out = _out_dir(args)
    path = _read(args.path, "path")
    if not 0.0 < args.shrink < 1.0:
        raise PreconditionError("--shrink: shrink must lie in (0, 1)")
    tube = build_tube(path["points"], spec, args.shrink, carrier=path["unit"],
                      where="path.points")
    report = {"type": "tube", "unit": tube.unit.to_list(),
              "polyline": tube.polyline.tolist(), "epsilon": tube.epsilon,
              "y_ref": tube.y_ref, "h": tube.h}
    dump_json(report, out / "tube.json")
    print(json.dumps({"epsilon": tube.epsilon}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _kind(kind):
    """argparse type: the option's text read as JSON and walked as the
    given kind of the input schema (serialize.SCHEMA)."""
    def convert(text):
        try:
            return walk(json.loads(text), kind, "value")
        except json.JSONDecodeError as exc:
            raise argparse.ArgumentTypeError(f"{exc.msg} in {text!r}") from None
        except PreconditionError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


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
        p.add_argument("--h", type=_kind("positive"), default=None, help="grid step")
        p.add_argument("--samples", type=_kind("an integer >= 2"), default=64,
                       help="sphere sample size N")
        p.add_argument("--tol", type=_kind("non-negative"), default=None,
                       help="tolerance override")
        p.add_argument("--seed", type=_kind("an integer >= 0"), default=0)
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
    p.add_argument("--unit", type=_kind("unit"),
                   default=None, help="slice unit as JSON list")
    p.set_defaults(fn=cmd_ext_slice)

    p = sub.add_parser("local-extend",
                       help="constructive local extension from a point")
    common(p)
    p.add_argument("--function", required=True,
                   help="builtin name, JSON file, or log-family")
    p.add_argument("--point", required=True,
                   type=_kind(4),
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
    p.add_argument("--axis", type=_kind("unit"),
                   default=None, help="reference unit as JSON list")
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("tube", help="build and validate a tube domain")
    common(p)
    p.add_argument("--path", required=True,
                   help="JSON file with unit and points entries")
    p.add_argument("--shrink", type=_kind("positive"), default=0.5)
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConsistencyError,) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except SliceRegError as exc:
        print(f"error: {_message(args, exc)}", file=sys.stderr)
        return EXIT_USAGE


def main_entry():  # console script hook
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
