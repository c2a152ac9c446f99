"""The input schema at the CLI: hostile spec, function, pair and path files
and option values exit 1 naming their path, never with a traceback."""
import contextlib
import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicereg import PowerSeries, Quaternion as Q, TubeDomain
from slicereg.cli import build_parser, main
from slicereg.quaternions import UNIT_I, norm_rows
from slicereg.raster import _points_to_polyline_dist
from slicereg.errors import PreconditionError
from slicereg.serialize import walk

from helpers import tube_contains

BALL = {"type": "ball", "center": [0, 0, 0, 0], "radius": 1.0, "bbox": [-1.5, 1.5, 1.5]}
SERIES = {"variant": "power-series", "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]],
          "center": 0, "radius": 10, "slice_unit": [1, 0, 0]}
# one valid file per spec type, function variant and input file
VALID = {
    "spec": [
        BALL,
        {"type": "halfspace-slicewise", "normal": [1, 0], "offset": 0.5,
         "bbox": [-1, 1, 1], "h": 0.25},
        {"type": "starlike", "pull": 0.5},
        {"type": "counterexample", "axis": [1, 0, 0], "bbox": [-5, 5, 5]},
        {"type": "boolean-op", "op": "intersection", "operands": [
            BALL, {"type": "halfspace-slicewise", "normal": [0, 1], "offset": 0.5}]},
        {"type": "tube", "polyline": [[0.3, 0.6], [0.3, 0]], "unit": [1, 0, 0],
         "epsilon": 0.2, "y_ref": 0.6},
        {"type": "ball", "radius": 1, "cuts": [[[0.0, 0.5], [0.0, 0.9]]]},
    ],
    "function": [
        SERIES,
        {"variant": "continued-log", "pole": [0, 2], "base": [1, 2], "carrier": [1, 0, 0],
         "base_value": [0, 0, 0, 0], "cuts": [[[-3, 2], [0, 2]]],
         "bbox": [-3, 3, -3, 3]},
    ],
    "pair": [{"r": SERIES, "s": {**SERIES, "slice_unit": [0, 1, 0]},
              "grid": {"x": [-0.5, 0.5, 0.25], "y": [0, 0.5, 0.25], "unit": [0, 0, 1]}}],
    "path": [{"unit": [1, 0, 0], "points": [[0.3, 0.3], [0.3, 0]]}],
}
# the commands that read each file, as argv with {spec}, {function}, {pair}
# and {path} standing for the files
COMMANDS = {
    "spec": [["check-domain", "{spec}"], ["completion", "{spec}"],
             ["ext-slice", "{spec}", "--function", "{function}"],
             ["tube", "{spec}", "--path", "{path}"],
             ["global-extend", "{spec}", "--function", "{function}"]],
    "function": [["ext-slice", "{spec}", "--function", "{function}"],
                 ["global-extend", "{spec}", "--function", "{function}"]],
    "pair": [["extend", "{pair}"]],
    "path": [["tube", "{spec}", "--path", "{path}"]],
}


def _run(tmp_path, argv, files):
    """main(argv) on the given files (name: JSON value), with the valid ball,
    power series, pair and path standing in for the others, at h = 0.25 and
    N = 4; (exit code, stderr)."""
    names = {}
    for name, default in (("spec", BALL), ("function", SERIES), ("pair", VALID["pair"][0]),
                          ("path", VALID["path"][0])):
        names[name] = tmp_path / f"{name}.json"
        names[name].write_text(json.dumps(files.get(name, default)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([a.format(**names) for a in argv]
                    + ["--h", "0.25", "--samples", "4", "--out", str(tmp_path / "out")])
    return code, err.getvalue()


@pytest.mark.parametrize("name, data, where", [
    ("spec", {"type": "tube", "polyline": [1, 2], "unit": [1, 0, 0], "epsilon": 0.1},
     "spec.polyline[0]"),
    ("spec", {"type": "ball", "radius": 1, "center": [0, 0, 0]}, "spec.center"),
    ("spec", {"type": "ball", "radius": 1, "cuts": [[1, 2]]}, "spec.cuts[0][0]"),
    ("function", {"variant": "continued-log", "pole": [0, 2], "base": [1, 2],
                  "carrier": [0, 0, 0]}, "function.carrier"),
    ("function", {"variant": "continued-log", "pole": [0], "base": [1, 2],
                  "carrier": [1, 0, 0]}, "function.pole"),
    ("function", {"variant": "power-series", "coeffs": [[1, 0]]}, "function.coeffs[0]"),
    ("function", {"variant": "power-series", "coeffs": 3}, "function.coeffs"),
    ("function", {"variant": "power-series", "coeffs": [[1, 0, 0, 0]],
                  "slice_unit": [0, 0, 0]}, "function.slice_unit"),
    ("function", {"variant": "power-series", "coeffs": [[1, 0, 0, 0]],
                  "slice_unit": [1]}, "function.slice_unit"),
    ("path", {"unit": [0, 0, 0], "points": [[0, 0.6], [0, 0]]}, "path.unit"),
    ("path", {"unit": [1], "points": [[0, 0.6], [0, 0]]}, "path.unit"),
])
def test_hostile_files_exit_one_naming_their_path(name, data, where, tmp_path):
    """Each of these ended in a traceback before the schema walker."""
    commands = {"spec": [["check-domain", "{spec}"]], "function": COMMANDS["function"],
                "path": COMMANDS["path"]}[name]
    for argv in commands:
        code, err = _run(tmp_path, argv, {name: data})
        assert code == 1 and f"error: {where}" in err and "Traceback" not in err


@pytest.mark.parametrize("name, data, where", [
    ("spec", {"type": "ball", "radius": 1, "centre": [0, 0, 0, 0]}, "spec.centre"),
    ("spec", {"type": "boolean-op", "op": "union", "operands": [
        {"type": "ball", "radius": 1, "bbbox": [-2, 2, 2]}]}, "spec.operands[0].bbbox"),
    ("function", {**SERIES, "cuts": []}, "function.cuts"),
    ("pair", {**VALID["pair"][0], "grid": {"x": [-1, 1, 0.5], "step": 0.1}},
     "pair.grid.step"),
    ("path", {**VALID["path"][0], "carrier": [1, 0, 0]}, "path.carrier"),
    # a continued log has no grid step since it is computed in closed form
    ("function", {**VALID["function"][1], "step": 0.05}, "function.step"),
])
def test_unknown_keys_exit_one_naming_their_path(name, data, where, tmp_path):
    """A key outside its entry, such as a misspelt optional key, is an
    error: taking the default instead would give a verdict about another
    input than the one written."""
    code, err = _run(tmp_path, COMMANDS[name][0], {name: data})
    assert code == 1 and f"error: {where} is not a key" in err


EXT_SLICE = ["ext-slice", "{spec}", "--function", "{function}"]
GLOBAL = ["global-extend", "{spec}", "--function", "{function}"]


@pytest.mark.parametrize("name, data, argv, code, message", [
    # a unit whose squared norm overflows is still normalized
    ("spec", {"type": "counterexample", "axis": [1, 0, 1e300]}, ["check-domain", "{spec}"],
     0, ""),
    ("spec", {"type": "ball", "radius": 1, "bbox": [-1.5, -1e300, 1.5]}, GLOBAL,
     1, "error: spec.bbox must be a box of positive width and height"),
    # a box lower than the step: the counterexample's membership ignores
    # the box, and its cuts make it not symmetric whatever the box
    ("spec", {"type": "counterexample", "bbox": [-5, 5, 1e-300]}, EXT_SLICE,
     1, "error: spec: domain is not symmetric"),
    ("spec", {"type": "counterexample", "bbox": [-5, 5, 1e-300]}, ["check-domain", "{spec}"],
     1, "has 0 x 40 cells; it needs at least one each way"),
    ("spec", {"type": "tube", "polyline": [[0.3, 0.6], [0.3, 0]], "unit": [1, 0, 0],
              "epsilon": 0.2, "y_ref": 1e-300}, ["check-domain", "{spec}"], 0, ""),
    ("spec", {"type": "tube", "polyline": [[1e300, 0.6], [0.3, 0]], "unit": [1, 0, 0],
              "epsilon": 0.2}, GLOBAL, 2, ""),
    # a base outside the box, and no cut from the pole to the box's edge:
    # the log's own error, once, naming the key
    ("function", {"variant": "continued-log", "pole": [0, 2], "base": [1, 1e300],
                  "carrier": [1, 0, 0]}, EXT_SLICE,
     1, "error: function.base: (1, 1e+300) lies outside the box [-5, 5] x [-5, 5]"),
    ("function", {"variant": "continued-log", "pole": [0, 2], "base": [1, 2],
                  "carrier": [1, 0, 0]}, EXT_SLICE,
     1, "error: function.cuts: no chain of them joins the pole (0, 2) to the edge of the box"),
    ("pair", {**VALID["pair"][0], "grid": {"x": [0, -1, 0.25], "y": [0, 1e300, 0.25]}},
     ["extend", "{pair}"], 1, "the extend grid has 4e+300 x 0 cells"),
    # a ball squares its centre and radius; the counterexample's half line
    # starts at its box's left edge
    ("spec", {"type": "ball", "radius": 1, "center": [0, 1e300, 0, 0]},
     ["check-domain", "{spec}"], 1, "error: spec.center must be at most 1e+150 in magnitude"),
    ("spec", {"type": "boolean-op", "op": "union", "operands": [
        BALL, {"type": "ball", "radius": 1e300}]}, ["completion", "{spec}"],
     1, "error: spec.operands[1].radius must be at most 1e+150 in magnitude"),
    ("spec", {"type": "counterexample", "bbox": [-1e300, 5, 5]}, EXT_SLICE,
     1, "error: spec.bbox must be at most 1e+150 in magnitude"),
    # a symmetric spec in a box lower than the step: no raster row
    ("spec", {"type": "ball", "radius": 1, "bbox": [-5, 5, 1e-300]}, EXT_SLICE, 0, ""),
])
def test_huge_and_degenerate_values_exit_cleanly(name, data, argv, code, message, tmp_path):
    """Values that walk cleanly but overflow or leave a grid empty: each
    raised an OverflowError, ValueError or IndexError before."""
    got, err = _run(tmp_path, argv, {name: data})
    assert got == code and message in err and (got == 1) == bool(err), err


def test_huge_coordinates_are_computed_at_a_scale_that_does_not_overflow(recwarn):
    """A tube vertex, a point or a quaternion near 1e300 is computed at a
    power-of-two scale: no overflow warning, and no verdict turned by an
    inf or NaN (these gave both before)."""
    tube = TubeDomain(UNIT_I, np.array([[0.3, 0.0], [1e300, 0.6]]), 0.2, 0.6)
    assert tube_contains(tube, 0.3, 0.05, UNIT_I) and not tube_contains(tube, 0.9, 0.05, UNIT_I)
    assert tube.membership(np.array([0.3, 1e300]), 0.05, 1.0, 0.0, 0.0).tolist() == [True, False]
    dist = _points_to_polyline_dist([-1e300, 1e300, -3.0], [2.0, 1e300, 2.5],
                                    [[-5.0, 2.0], [-2.0, 2.0]])
    assert dist.tolist() == [1e300, math.hypot(1e300, 1e300), 0.5]
    assert norm_rows([[1e300, 1e300, 0, 0], [3, 4, 0, 0]]).tolist() == [math.hypot(1e300, 1e300), 5.0]
    assert PowerSeries((Q(0.0), Q(1.0))).eval_rows(-1e300, 0.0, [[1, 0, 0]])[1].tolist() == [True]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _nodes(value, path=()):
    """Paths (tuples of keys and indices) of every node of a JSON value."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _nodes(item, path + (key,))


def _swap(value, path, new):
    """A copy of the JSON value with the node at path replaced by new(node)."""
    if not path:
        return new(value)
    out = copy.copy(value)
    out[path[0]] = _swap(value[path[0]], path[1:], new)
    return out


def _drop(node, key_pick):
    if isinstance(node, dict) and node:
        keys = sorted(node)
        return {k: v for k, v in node.items() if k != keys[key_pick % len(keys)]}
    return node


OTHER_TYPES = ["x", None, True, {}, [], 1.5, [[0.5]]]
MUTATIONS = {
    "drop a key": lambda node, pick: _drop(node, pick),
    "change a type": lambda node, pick: next(
        v for v in OTHER_TYPES[pick % len(OTHER_TYPES):] + OTHER_TYPES
        if type(v) is not type(node)),
    "number as string": lambda node, pick: str(node) if isinstance(node, (int, float)) else node,
    "nest a list": lambda node, pick: [node],
    "huge value": lambda node, pick: [1e300, -1e300, 10 ** 400, 1e-300][pick % 4],
    "unknown key": lambda node, pick: {**node, "extra": pick} if isinstance(node, dict) else node,
}
# every valid file under every command that reads it, save a tube under
# ext-slice, which needs a symmetric domain
CASES = [(name, i, j) for name, docs in VALID.items() for i in range(len(docs))
         for j in range(len(COMMANDS[name]))
         if docs[i].get("type") != "tube" or COMMANDS[name][j][0] != "ext-slice"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, database=None)
@given(case=st.sampled_from(CASES), mutation=st.sampled_from(sorted(MUTATIONS)),
       node=st.integers(0, 10 ** 6), pick=st.integers(0, 10 ** 6))
def test_mutated_inputs_exit_cleanly(case, mutation, node, pick, tmp_path_factory):
    """A valid file with one mutation (a key dropped, a type changed, a
    number written as a string, a value nested in a list, a huge value, an
    unknown key added) runs to an exit code in {0, 1, 2} without raising
    or warning: a huge value is refused at load or computed at a scale
    that does not overflow.  A file the schema rejects exits 1 with the
    walker's message, which names the bad path; any other exit 1 is one
    error line."""
    name, i, j = case
    doc = VALID[name][i]
    paths = list(_nodes(doc))
    mutated = _swap(doc, paths[node % len(paths)], lambda n: MUTATIONS[mutation](n, pick))
    try:  # as the CLI reads it: --h replaces a leaf spec's own h
        walk({**mutated, "h": 0.25} if name == "spec" and isinstance(mutated, dict)
             and mutated.get("type") != "boolean-op" else mutated, name, name)
        rejection = None
    except PreconditionError as exc:
        rejection = str(exc)
    code, err = _run(tmp_path_factory.mktemp("fuzz"), COMMANDS[name][j], {name: mutated})
    assert code in (0, 1, 2)
    if rejection is not None:
        assert code == 1 and err == f"error: {rejection}\n"
        assert rejection.startswith(name) and rejection != name
    elif code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_every_numeric_option_rejects_nan_inf_and_negatives(tmp_path, capsys):
    """Every option that takes a value has a schema kind as its argparse
    type, save the file and name options; each rejects nan, inf, NaN,
    Infinity and -1 with usage before any output directory exists."""
    files = {"spec": tmp_path / "spec.json", "pair": tmp_path / "pair.json",
             "function": "square", "point": "[0, 0.3, 0.4, 0]",
             "path": tmp_path / "path.json"}
    files["spec"].write_text(json.dumps(BALL))
    files["pair"].write_text(json.dumps(VALID["pair"][0]))
    files["path"].write_text(json.dumps(VALID["path"][0]))
    out = tmp_path / "out"
    commands = next(a for a in build_parser()._actions if a.choices)
    checked = set()
    for command, parser in commands.choices.items():
        required = [str(files[a.dest]) for a in parser._actions if not a.option_strings]
        for action in parser._actions:
            if action.option_strings and action.required:
                required += [action.option_strings[0], str(files[action.dest])]
        for action in parser._actions:
            if not action.option_strings or action.nargs == 0 or action.type is None:
                continue
            flag = action.option_strings[0]
            checked.add(flag)
            for value in ("nan", "inf", "NaN", "Infinity", "-1"):
                code = main([command, *required, flag, value, "--out", str(out)])
                err = capsys.readouterr().err
                assert code == 1 and "usage" in err, (command, flag, value)
                assert not out.exists(), (command, flag, value)
    untyped = {a.option_strings[0] for p in commands.choices.values() for a in p._actions
               if a.option_strings and a.nargs != 0 and a.type is None}
    assert untyped == {"--out", "--function", "--path"}
    assert {"--h", "--samples", "--tol", "--seed", "--shrink", "--point", "--unit",
            "--axis"} <= checked


@pytest.mark.parametrize("command", [
    ["global-extend", "{counterexample}", "--function", "log-family", "--force"],
    ["repr"]])
def test_nan_tolerance_exits_one(command, tmp_path, capsys):
    """--tol nan used to pass every comparison against it: a forced scan on
    the counterexample exited 0 with a 2 pi defect."""
    spec = tmp_path / "counterexample.json"
    spec.write_text(json.dumps({"type": "counterexample"}))
    argv = [a.format(counterexample=spec) for a in command]
    assert main(argv + ["--tol", "NaN", "--out", str(tmp_path / "out")]) == 1
    assert "value must be a finite number" in capsys.readouterr().err
