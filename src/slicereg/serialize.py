"""JSON/CSV/PGM input and output with deterministic formatting.

Floats are written with 17 significant digits so reports are byte-identical
across runs with the same inputs.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .domains import (DomainSpec, PlanarRegionGrid, ball_spec, halfspace_spec,
                      starlike_spec, union_spec, intersect_specs)
from .errors import PreconditionError, UnsupportedError
from .holomorphic import ContinuedLog, PowerSeries
from .quaternions import Quaternion, UnitImaginary


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return '"nan"'
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return format(v, ".17g")
    raise TypeError(f"cannot format {type(value)!r}")


def dumps_json(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""

    def render(o):
        if o is None:
            return "null"
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, (bool, int, float, np.integer, np.floating)):
            return _fmt(o)
        if isinstance(o, np.ndarray):
            return render(o.tolist())
        if isinstance(o, Quaternion):
            return render(o.to_list())
        if isinstance(o, UnitImaginary):
            return render(o.to_list())
        if isinstance(o, (list, tuple)):
            return "[" + ",".join(render(v) for v in o) + "]"
        if isinstance(o, dict):
            items = sorted(o.items(), key=lambda kv: str(kv[0]))
            return "{" + ",".join(json.dumps(str(k)) + ":" + render(v)
                                  for k, v in items) + "}"
        raise TypeError(f"cannot serialize {type(o)!r}")

    return render(obj) + "\n"


def dump_json(obj, path) -> None:
    Path(path).write_text(dumps_json(obj), encoding="ascii")


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_pgm(path, array) -> None:
    """ASCII PGM of a 2D integer array scaled into 0..255 (row 0 at top)."""
    arr = np.asarray(array)
    if arr.dtype == bool:
        img = np.where(arr, 255, 0)
    else:
        top = max(int(arr.max()), 1)
        img = (arr.astype(float) / top * 255.0).round().astype(int)
    img = img[::-1]  # put larger y at the top of the image
    lines = [f"P2", f"{img.shape[1]} {img.shape[0]}", "255"]
    for row in img:
        lines.append(" ".join(str(int(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def grid_to_pgm(grid: PlanarRegionGrid, path, labels=False) -> None:
    if labels:
        grid.label()
        write_pgm(path, grid.labels)
    else:
        write_pgm(path, grid.occupied)


def grid_components_csv(grid: PlanarRegionGrid, path) -> None:
    """Rows (x, y, label) for every occupied cell."""
    grid.label()
    iy, ix = np.nonzero(grid.occupied)
    rows = [[grid.xs[j], grid.ys[i], int(grid.labels[i, j])]
            for i, j in zip(iy, ix)]
    write_csv(path, ["x", "y", "component"], rows)


# ---------------------------------------------------------------------------
# loaders
# ---------------------------------------------------------------------------

def _check_numbers(data, where: str) -> None:
    """Every value but the type, op and variant names must be finite numbers
    (no strings, bools or nulls); h, radius and epsilon must be positive."""
    if isinstance(data, dict):
        for key, value in data.items():
            at = f"{where}.{key}"
            if key in ("type", "op", "variant"):
                continue
            _check_numbers(value, at)
            if key in ("h", "radius", "epsilon") and isinstance(value, (int, float)) \
                    and not value > 0:
                raise PreconditionError(f"{at} must be positive, got {value!r}")
    elif isinstance(data, list):
        for i, value in enumerate(data):
            _check_numbers(value, f"{where}[{i}]")
    elif isinstance(data, bool) or not isinstance(data, (int, float)):
        raise PreconditionError(f"{where} must be a number, got {data!r}")
    elif not math.isfinite(data):
        raise PreconditionError(f"{where} must be a finite number, got {data!r}")


def load_domain_spec(data) -> DomainSpec:
    """Domain spec from its JSON description (dict or path)."""
    if isinstance(data, (str, Path)):
        data = json.loads(Path(data).read_text())
    _check_numbers(data, "spec")
    kind = data.get("type")
    h = float(data.get("h", 0.01))
    if kind == "ball":
        center = Quaternion.from_list(data.get("center", [0, 0, 0, 0]))
        spec = ball_spec(center, float(data["radius"]),
                         bbox=tuple(data["bbox"]) if "bbox" in data else None, h=h)
    elif kind == "halfspace-slicewise":
        spec = halfspace_spec(tuple(data.get("normal", [1.0, 0.0])),
                              float(data.get("offset", 1.0)),
                              bbox=tuple(data.get("bbox", (-3.0, 3.0, 3.0))), h=h)
    elif kind == "starlike":
        spec = starlike_spec(float(data.get("pull", 0.5)), h=h)
    elif kind == "counterexample":
        from .counterexample import CounterexampleConfig, omega_spec
        axis = UnitImaginary.from_vector(data.get("axis", [1.0, 0.0, 0.0]))
        bbox = tuple(data.get("bbox", (-5.0, 5.0, 5.0)))
        spec = omega_spec(CounterexampleConfig(axis=axis, h=h, bbox=bbox))
    elif kind == "boolean-op":
        ops = [load_domain_spec(d) for d in data["operands"]]
        if data.get("op") == "union":
            spec = union_spec(ops)
        elif data.get("op") == "intersection":
            out = ops[0]
            for other in ops[1:]:
                out = intersect_specs(out, other)
            spec = out
        else:
            raise UnsupportedError(f"unknown boolean op {data.get('op')!r}")
    elif kind == "tube":
        from .extension import TubeDomain
        tube = TubeDomain(unit=UnitImaginary.from_vector(data["unit"]),
                          polyline=np.asarray(data["polyline"], float),
                          epsilon=float(data["epsilon"]),
                          y_ref=float(data.get(
                              "y_ref", np.asarray(data["polyline"])[:, 1].max())),
                          h=h)
        spec = tube.as_domain_spec()
    else:
        raise UnsupportedError(f"unknown domain spec type {kind!r}")
    if "cuts" in data and data["cuts"]:
        polylines = [np.asarray(c, float) for c in data["cuts"]]
        if any((p[:, 1] < 0.0).any() for p in polylines):
            raise UnsupportedError("cut vertices must have y >= 0: cuts lie in "
                                   "the upper half slice")
        if spec.cuts is not None:
            raise UnsupportedError("cannot add cuts to a cut-bearing spec")
        from dataclasses import replace
        spec = replace(spec, cuts=lambda J: polylines)
    return spec


def load_holo_function(data, default_unit=None):
    """Holomorphic slice function from its JSON description."""
    if isinstance(data, (str, Path)):
        data = json.loads(Path(data).read_text())
    _check_numbers(data, "function")
    variant = data.get("variant")
    unit = data.get("slice_unit", None)
    unit = UnitImaginary.from_vector(unit) if unit is not None else default_unit
    if variant == "power-series":
        coeffs = tuple(Quaternion.from_list(c) for c in data["coeffs"])
        return PowerSeries(coeffs=coeffs, center=float(data.get("center", 0.0)),
                           radius=float(data.get("radius", math.inf)),
                           slice_unit=unit)
    if variant == "continued-log":
        return ContinuedLog(
            pole=tuple(data["pole"]), base=tuple(data["base"]),
            base_value=Quaternion.from_list(data.get("base_value", [0, 0, 0, 0])),
            cuts=tuple(np.asarray(c, float) for c in data.get("cuts", [])),
            carrier=UnitImaginary.from_vector(data["carrier"]),
            slice_unit=unit,
            bbox=tuple(data.get("bbox", (-5.0, 5.0, -5.0, 5.0))),
            step=float(data.get("step", 0.05)))
    raise UnsupportedError(f"unknown function variant {variant!r}")
