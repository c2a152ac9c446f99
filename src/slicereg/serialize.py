"""JSON/CSV/PGM input and output with deterministic formatting.

Floats are written with 17 significant digits so reports are byte-identical
across runs with the same inputs.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np

from .domains import DomainSpec
from .errors import PreconditionError, SliceRegError, UnsupportedError
from .quaternions import Quaternion, UnitImaginary
from .specs import (TubeDomain, ball_spec, halfspace_spec, intersect_specs,
                    starlike_spec, union_spec)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):  # nan and inf as "nan", "inf", "-inf"
        v = float(value)
        return format(v, ".17g") if math.isfinite(v) else json.dumps(str(v))
    raise TypeError(f"cannot format {type(value)!r}")


def _render(o) -> str:
    """Deterministic JSON text of o: sorted keys, 17-significant-digit
    floats."""
    if o is None or isinstance(o, str):
        return json.dumps(o)
    if isinstance(o, (bool, int, float, np.integer, np.floating)):
        return _fmt(o)
    if isinstance(o, np.ndarray):
        return _render(o.tolist())
    if isinstance(o, (Quaternion, UnitImaginary)):
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
    lines = [",".join(header)] + [",".join(map(_fmt, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_pgm(path, array) -> None:
    """ASCII PGM of a 2D integer array scaled into 0..255 (row 0 at top)."""
    arr = np.asarray(array)  # a bool array scales to 0 and 255
    img = (arr.astype(float) / max(int(arr.max()), 1) * 255.0).round().astype(int)
    img = img[::-1]  # put larger y at the top of the image
    lines = [f"P2", f"{img.shape[1]} {img.shape[0]}", "255"]
    for row in img:
        lines.append(" ".join(str(int(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


# ---------------------------------------------------------------------------
# input schema and loaders
# ---------------------------------------------------------------------------

# The key table of every input: one entry per spec type, function variant
# and input file, mapping each key to its kind, or to (kind, default) when
# the key is optional; a default of None is left for the loader to fill in.
# Kinds:
#   an int n       n numbers, read as a tuple
#   "box"          [x_min, x_max, y_max] with x_min < x_max and y_max > 0
#   "plane box"    [x_min, x_max, y_min, y_max] of positive width and height
#   "unit"         3 numbers not near zero, read as a UnitImaginary
#   [kind, m]      a list of at least m values of that kind
#   a set          the names allowed
#   an entry name  an object of that entry; a spec's type and a function's
#                  variant add the keys of the entry they name
#   other names    a number kind of _NUMBERS
# A key outside its entry is an error, so a misspelt optional key cannot
# silently take its default.
POLYLINE = [2, 1]  # at least one [x, y]
SCHEMA = {
    "spec": {"type": {"ball", "halfspace-slicewise", "starlike", "counterexample", "boolean-op",
                      "tube"},
             "h": ("positive", 0.01), "cuts": ([POLYLINE, 0], [])},
    "ball": {"radius": "positive", "center": (4, [0, 0, 0, 0]), "bbox": ("box", None)},
    "halfspace-slicewise": {"normal": (2, [1, 0]), "offset": ("number", 1),
                            "bbox": ("box", [-3, 3, 3])},
    "starlike": {"pull": ("number", 0.5)},
    "counterexample": {"axis": ("unit", [1, 0, 0]), "bbox": ("box", [-5, 5, 5])},
    "boolean-op": {"op": {"union", "intersection"}, "operands": ["spec", 1]},
    "tube": {"polyline": POLYLINE, "unit": "unit", "epsilon": "positive",
             "y_ref": ("number", None)},
    "function": {"variant": {"power-series", "continued-log"}, "slice_unit": ("unit", None)},
    "power-series": {"coeffs": [4, 0], "center": ("number", 0), "radius": ("positive", None)},
    "continued-log": {"pole": 2, "base": 2, "carrier": "unit", "base_value": (4, [0, 0, 0, 0]),
                      "cuts": ([POLYLINE, 0], []), "bbox": ("plane box", [-5, 5, -5, 5])},
    "pair": {"r": "function", "s": "function", "grid": ("grid", {})},
    "grid": {"x": (3, [-1, 1, 0.1]), "y": (3, [0, 1, 0.1]), "unit": ("unit", [0, 0, 1])},
    "path": {"points": POLYLINE, "unit": ("unit", [1, 0, 0])},
}
_VECTORS = {"unit": 3, "box": 3, "plane box": 4}  # sizes of the named vector kinds
# number kinds: the least finite number each allows ("positive" excludes
# it); integer kinds read as int, the others as float
_NUMBERS = {"number": -math.inf, "positive": 0, "non-negative": 0, "an integer >= 0": 0,
            "an integer >= 2": 2}


def _must(ok, where: str, what: str, value) -> None:
    if not ok:
        raise PreconditionError(f"{where} must be {what}, got {value!r:.80}")


def walk(value, kind, where: str):
    """The parsed JSON value checked against kind (see SCHEMA) and read:
    entries as dicts with their defaults filled in.  where is the value's
    path in the input; the first bad path raises PreconditionError."""
    if isinstance(kind, set):
        _must(isinstance(value, str) and value in kind, where, f"one of {sorted(kind)}", value)
        return value
    if isinstance(kind, list):
        _must(isinstance(value, list) and len(value) >= kind[1], where,
              "a non-empty list" if kind[1] else "a list", value)
        return [walk(v, kind[0], f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(kind, int) or kind in _VECTORS:
        size = _VECTORS.get(kind, kind)
        items = tuple(walk(v, "number", f"{where}[{i}]") for i, v in enumerate(value)) \
            if isinstance(value, list) else walk(value, "number", where)
        _must(isinstance(value, list) and len(value) == size, where,
              f"a list of {size} numbers", value)
        if kind == "unit":
            try:
                return UnitImaginary.from_vector(items)
            except ValueError as exc:  # a vector too short to normalize
                raise PreconditionError(f"{where}: {exc}") from None
        _must(size == kind or items[0] < items[1] and (items[2] if size == 4 else 0) < items[-1],
              where, "a box of positive width and height", value)
        return items
    if kind in SCHEMA:
        _must(isinstance(value, dict), where, "an object", value)
        keys = dict(SCHEMA[kind])
        for key, field in SCHEMA[kind].items():
            if isinstance(field, set) and field <= SCHEMA.keys():
                keys.update(SCHEMA[_field(value, key, field, where)])
        for key in value:
            if key not in keys:
                raise PreconditionError(f"{where}.{key} is not a key here; the keys are "
                                        f"{', '.join(keys)}")
        if kind == "spec" and value["type"] == "boolean-op" and "h" in value:
            raise PreconditionError(f"{where}.h is not a key of a boolean-op spec: its grid "
                                    "step comes from its operands or --h")
        return {key: _field(value, key, field, where) for key, field in keys.items()}
    _must(type(value) in (int, float), where, "a number", value)  # not a bool
    # nan, inf and ints past the float range fail
    _must(abs(value) <= sys.float_info.max, where, "a finite number", value)
    low = _NUMBERS[kind]
    _must((value > low if kind == "positive" else value >= low)
          and (type(value) is int or "integer" not in kind), where, kind, value)
    return value if "integer" in kind else float(value)


def _field(data: dict, key: str, field, where: str):
    """data[key] walked as field's kind, or its walked default."""
    kind, default = field if isinstance(field, tuple) else (field, ...)
    if key not in data and default is ...:
        raise PreconditionError(f"{where}.{key} is required")
    value = data.get(key, default)
    return None if key not in data and value is None else walk(value, kind, f"{where}.{key}")


def _moderate(value, where: str) -> None:
    """Refuse a value past 1e150 in magnitude: a ball's membership squares
    its centre and radius, and a counterexample's half line runs from its
    box's left edge, where a point's distance to it would lose the point's
    place along the line."""
    _must(np.max(np.abs(value)) <= 1e150, where, "at most 1e+150 in magnitude", value)


def load_domain_spec(v: dict, where: str = "spec") -> DomainSpec:
    """Domain spec from a spec's walked values, walk(data, "spec", where);
    where names the spec in messages."""
    kind, h, box = v["type"], v["h"], v.get("bbox")
    if kind == "ball":
        _moderate(v["center"], f"{where}.center")
        _moderate(v["radius"], f"{where}.radius")
        spec = ball_spec(Quaternion(*v["center"]), v["radius"], box, h)
    elif kind == "halfspace-slicewise":
        spec = halfspace_spec(v["normal"], v["offset"], box, h)
    elif kind == "starlike":
        try:
            spec = starlike_spec(v["pull"], h)
        except PreconditionError as exc:
            raise PreconditionError(f"{where}.pull: {exc}") from None
    elif kind == "counterexample":
        from .counterexample import CounterexampleConfig, omega_spec
        _moderate(box, f"{where}.bbox")
        spec = omega_spec(CounterexampleConfig(v["axis"], h, box))
    elif kind == "boolean-op":
        ops = [load_domain_spec(d, f"{where}.operands[{i}]") for i, d in enumerate(v["operands"])]
        spec = union_spec(ops) if v["op"] == "union" else reduce(intersect_specs, ops)
    else:  # a tube; y_ref defaults to the polyline's greatest height
        line = np.asarray(v["polyline"])
        y_ref = float(line[:, 1].max() if v["y_ref"] is None else v["y_ref"])
        spec = TubeDomain(v["unit"], line, v["epsilon"], y_ref, h).as_domain_spec()
    if v["cuts"]:
        polylines = [np.asarray(c) for c in v["cuts"]]
        if any((p[:, 1] < 0.0).any() for p in polylines):
            raise UnsupportedError("cut vertices must have y >= 0: cuts lie in "
                                   "the upper half slice")
        if spec.cuts is not None:
            raise UnsupportedError("cannot add cuts to a cut-bearing spec")
        spec = replace(spec, cuts=lambda J: polylines)
    return spec


def load_holo_function(v: dict, default_unit=None, where: str = "function"):
    """Holomorphic slice function from a function's walked values; its
    slice unit is default_unit when the values give none.  where names the
    function before the key that a continued log's error names."""
    from .holomorphic import ContinuedLog, PowerSeries
    unit = v["slice_unit"] or default_unit
    if v["variant"] == "power-series":
        return PowerSeries(coeffs=tuple(Quaternion(*c) for c in v["coeffs"]),
                           center=v["center"], radius=v["radius"] or math.inf,
                           slice_unit=unit)
    try:
        return ContinuedLog(pole=v["pole"], base=v["base"],
                            base_value=Quaternion(*v["base_value"]), cuts=v["cuts"],
                            carrier=v["carrier"], slice_unit=unit, bbox=v["bbox"])
    except SliceRegError as exc:
        raise type(exc)(f"{where}.{exc}") from None
