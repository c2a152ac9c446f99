"""JSON/CSV/PGM input and output with deterministic formatting.

Floats are written with 17 significant digits so reports are byte-identical
across runs with the same inputs.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .domains import DomainSpec, PlanarRegionGrid
from .errors import PreconditionError, UnsupportedError
from .holomorphic import ContinuedLog, PowerSeries
from .quaternions import Quaternion, UnitImaginary
from .specs import (ball_spec, halfspace_spec, intersect_specs, starlike_spec,
                    union_spec)


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


def _render(o) -> str:
    """Deterministic JSON text of o: sorted keys, 17-significant-digit
    floats."""
    if o is None:
        return "null"
    if isinstance(o, str):
        return json.dumps(o)
    if isinstance(o, (bool, int, float, np.integer, np.floating)):
        return _fmt(o)
    if isinstance(o, np.ndarray):
        return _render(o.tolist())
    if isinstance(o, Quaternion):
        return _render(o.to_list())
    if isinstance(o, UnitImaginary):
        return _render(o.to_list())
    if isinstance(o, (list, tuple)):
        return "[" + ",".join(_render(v) for v in o) + "]"
    if isinstance(o, dict):
        items = sorted(o.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(json.dumps(str(k)) + ":" + _render(v)
                              for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(o)!r}")


def _pieces(o, depth: int):
    """The text of _render(o) in pieces, containers split into their items
    down to the given depth."""
    if depth and isinstance(o, dict):
        yield "{"
        for n, (k, v) in enumerate(sorted(o.items(), key=lambda kv: str(kv[0]))):
            yield ("," if n else "") + json.dumps(str(k)) + ":"
            yield from _pieces(v, depth - 1)
        yield "}"
    elif depth and isinstance(o, (list, tuple)):
        yield "["
        for n, v in enumerate(o):
            yield "," if n else ""
            yield from _pieces(v, depth - 1)
        yield "]"
    else:
        yield _render(o)


def dump_json(obj, path) -> None:
    """Write the deterministic JSON text of obj (sorted keys,
    17-significant-digit floats) and a newline to path, item by item down
    to the entries of a report's lists, so a large report's text is never
    held whole."""
    with open(path, "w", encoding="ascii") as out:
        out.writelines(_pieces(obj, 2))
        out.write("\n")


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


def _object(data, where: str) -> dict:
    """data, which must be a JSON object; where is its path in the input."""
    if not isinstance(data, dict):
        raise PreconditionError(f"{where} must be an object, got {type(data).__name__}")
    return data


def _required(data, key: str, where: str):
    """data[key] of the JSON object data at the path where; a missing key
    is a PreconditionError naming its path."""
    if key not in _object(data, where):
        raise PreconditionError(f"{where}.{key} is required")
    return data[key]


def _vector(value, size: int, what: str) -> list:
    """value as a list of size finite numbers; PreconditionError otherwise."""
    _check_numbers(value, what)
    if not isinstance(value, list) or len(value) != size:
        raise PreconditionError(f"{what} must be a list of {size} numbers, got {value!r}")
    return value


def _unit(value, what: str) -> UnitImaginary:
    try:
        return UnitImaginary.from_vector(_vector(value, 3, what))
    except ValueError as exc:  # a vector too short to normalize
        raise PreconditionError(f"{what}: {exc}") from None


def _bbox(data, where: str, default):
    """The spec's bbox [x_min, x_max, y_max] as a tuple; default when absent."""
    return tuple(_vector(data["bbox"], 3, f"{where}.bbox")) if "bbox" in data else default


def load_domain_spec(data, where: str = "spec") -> DomainSpec:
    """Domain spec from its JSON description (dict or path); where is its
    path in the input, for messages."""
    if isinstance(data, (str, Path)):
        data = json.loads(Path(data).read_text())
    _check_numbers(_object(data, where), where)
    kind = data.get("type")
    h = float(data.get("h", 0.01))
    if kind == "ball":
        center = Quaternion.from_list(data.get("center", [0, 0, 0, 0]))
        spec = ball_spec(center, float(_required(data, "radius", where)),
                         bbox=_bbox(data, where, None), h=h)
    elif kind == "halfspace-slicewise":
        spec = halfspace_spec(_vector(data.get("normal", [1.0, 0.0]), 2, f"{where}.normal"),
                              float(data.get("offset", 1.0)),
                              bbox=_bbox(data, where, (-3.0, 3.0, 3.0)), h=h)
    elif kind == "starlike":
        spec = starlike_spec(float(data.get("pull", 0.5)), h=h)
    elif kind == "counterexample":
        from .counterexample import CounterexampleConfig, omega_spec
        axis = _unit(data.get("axis", [1.0, 0.0, 0.0]), f"{where}.axis")
        bbox = _bbox(data, where, (-5.0, 5.0, 5.0))
        spec = omega_spec(CounterexampleConfig(axis=axis, h=h, bbox=bbox))
    elif kind == "boolean-op":
        operands = _required(data, "operands", where)
        if not isinstance(operands, list) or not operands:
            raise PreconditionError(f"{where}.operands must be a non-empty list, "
                                    f"got {operands!r}")
        ops = [load_domain_spec(d, f"{where}.operands[{i}]")
               for i, d in enumerate(operands)]
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
        from .local import TubeDomain
        polyline = np.asarray(_required(data, "polyline", where), float)
        tube = TubeDomain(unit=_unit(_required(data, "unit", where), f"{where}.unit"),
                          polyline=polyline,
                          epsilon=float(_required(data, "epsilon", where)),
                          y_ref=float(data.get("y_ref", polyline[:, 1].max())),
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


def load_holo_function(data, default_unit=None, where: str = "function"):
    """Holomorphic slice function from its JSON description; where is its
    path in the input, for messages."""
    if isinstance(data, (str, Path)):
        data = json.loads(Path(data).read_text())
    _check_numbers(_object(data, where), where)
    variant = data.get("variant")
    unit = data.get("slice_unit", None)
    unit = UnitImaginary.from_vector(unit) if unit is not None else default_unit
    if variant == "power-series":
        coeffs = tuple(Quaternion.from_list(c) for c in _required(data, "coeffs", where))
        return PowerSeries(coeffs=coeffs, center=float(data.get("center", 0.0)),
                           radius=float(data.get("radius", math.inf)),
                           slice_unit=unit)
    if variant == "continued-log":
        return ContinuedLog(
            pole=tuple(_required(data, "pole", where)),
            base=tuple(_required(data, "base", where)),
            base_value=Quaternion.from_list(data.get("base_value", [0, 0, 0, 0])),
            cuts=tuple(np.asarray(c, float) for c in data.get("cuts", [])),
            carrier=UnitImaginary.from_vector(_required(data, "carrier", where)),
            slice_unit=unit,
            bbox=tuple(data.get("bbox", (-5.0, 5.0, -5.0, 5.0))),
            step=float(data.get("step", 0.05)))
    raise UnsupportedError(f"unknown function variant {variant!r}")
