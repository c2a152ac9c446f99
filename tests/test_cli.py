import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from slicereg.cli import _scan_grid, main
from slicereg.counterexample import (CounterexampleConfig, intersection_grid,
                                     pair_set_grid)
from slicereg.serialize import write_pgm

from helpers import paint_labels


@pytest.fixture()
def ball_json(tmp_path):
    path = tmp_path / "ball.json"
    path.write_text(json.dumps({"type": "ball", "center": [0, 0, 0, 0],
                                "radius": 1.0, "h": 0.02}))
    return path


@pytest.fixture()
def counterexample_json(tmp_path):
    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps({"type": "counterexample",
                                "axis": [1.0, 0.0, 0.0], "h": 0.02}))
    return path


def test_check_domain_ball(ball_json, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["check-domain", str(ball_json), "--samples", "16",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "verdicts.json").read_text())
    assert report["slice_domain"].startswith("yes")
    assert report["symmetric"].startswith("yes")
    assert report["simple"].startswith("yes@N=16")


def test_check_domain_reports_are_deterministic(ball_json, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["check-domain", str(ball_json), "--samples", "8",
                 "--out", str(out1)]) == 0
    assert main(["check-domain", str(ball_json), "--samples", "8",
                 "--out", str(out2)]) == 0
    assert (out1 / "verdicts.json").read_bytes() == \
        (out2 / "verdicts.json").read_bytes()


@pytest.fixture()
def l_shape_json(tmp_path):
    """An L-shaped union of two box-and-halfspace intersections, h = 0.02."""
    def leaf(kind, **fields):
        return {"type": kind, "h": 0.02, "bbox": [-1.5, 1.5, 1.5], **fields}

    box = leaf("ball", center=[0, 0, 0, 0], radius=1.4)
    arms = [leaf("halfspace-slicewise", normal=[0, 1], offset=0.5),
            leaf("halfspace-slicewise", normal=[1, 0], offset=-0.5)]
    l_shape = {"type": "boolean-op", "op": "union", "operands": [
        {"type": "boolean-op", "op": "intersection", "operands": [box, arm]}
        for arm in arms]}
    path = tmp_path / "l_shape.json"
    path.write_text(json.dumps(l_shape))
    return path


def test_check_domain_verdicts_do_not_depend_on_seed(l_shape_json, tmp_path):
    reports = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert main(["check-domain", str(l_shape_json), "--samples", "4", "--seed", seed,
                     "--out", str(out)]) == 0
        reports.append((out / "verdicts.json").read_bytes())
    assert json.loads(reports[0])["slice_convex"] == "no"
    assert reports[0] == reports[1]


def test_grid_step_flag_reaches_boolean_op_specs(l_shape_json, tmp_path):
    out = tmp_path / "out"
    assert main(["check-domain", str(l_shape_json), "--h", "0.1", "--samples", "2",
                 "--out", str(out)]) == 0
    report = json.loads((out / "verdicts.json").read_text())
    assert report["slice_domain"] == "yes@N=2,h=0.1"


def test_cut_below_the_real_axis_exits_one(tmp_path, capsys):
    path = tmp_path / "slit.json"
    path.write_text(json.dumps({"type": "ball", "center": [0, 0, 0, 0],
                                "radius": 1.0, "h": 0.05,
                                "cuts": [[[0.0, 0.5], [0.0, -0.5]]]}))
    assert main(["check-domain", str(path), "--samples", "2",
                 "--out", str(tmp_path / "out")]) == 1
    assert "y >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--h", "0"), ("--h", "-0.5"), ("--h", "nan"), ("--h", "inf"),
    ("--samples", "1"), ("--samples", "0")])
def test_bad_grid_step_or_sample_size_exits_one(flag, value, ball_json, tmp_path,
                                                capsys):
    out = tmp_path / "out"
    for argv in (["check-domain", str(ball_json)], ["counterexample"]):
        assert main(argv + [flag, value, "--out", str(out)]) == 1
        assert "usage" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["counterexample", "--h", "1e-5"],
                                  ["check-domain", "{ball}", "--h", "1e-6"]])
def test_grid_over_the_cell_budget_exits_one_before_allocating(argv, ball_json,
                                                               tmp_path, capsys):
    """A grid step whose raster would exceed MAX_GRID_CELLS exits 1 with a
    clear message; the cell count comes from math, so not even the 8 MB
    column axis of the first raster is allocated."""
    argv = [str(ball_json) if a == "{ball}" else a for a in argv]
    tracemalloc.start()
    try:
        code = main(argv + ["--samples", "4", "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert "cells, more than the budget" in err and "Traceback" not in err
    assert peak < 4e6


@pytest.mark.parametrize("argv, data, where", [
    (["check-domain", "{spec}", "--h", "1e-5"], {"type": "ball", "radius": 1}, "--h"),
    (["check-domain", "{spec}"], {"type": "ball", "radius": 1, "h": 1e-5}, "spec.h"),
    (["check-domain", "{spec}"],
     {"type": "boolean-op", "op": "union", "operands": [
         {"type": "ball", "radius": 1}, {"type": "starlike", "h": 1e-5}]},
     "spec.operands[1].h"),
    (["global-extend", "{spec}", "--function", "square"],
     {"type": "ball", "radius": 1, "h": 1e-5}, "spec.h"),
    (["counterexample", "--h", "1e-5"], None, "--h"),
])
def test_grid_over_the_cell_budget_names_what_set_the_step(argv, data, where, tmp_path,
                                                           capsys):
    """The cell-budget error starts with the option or spec key that set
    the grid step; global-extend writes it to consistency.json too."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    code = main([str(path) if a == "{spec}" else a for a in argv]
                + ["--samples", "4", "--out", str(out)])
    message = f"{where}: a raster at h = 1e-05 needs"
    if argv[0] == "global-extend":
        assert code == 2
        assert json.loads((out / "consistency.json").read_text())["error"].startswith(message)
    else:
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")


def test_cut_with_a_far_vertex_exits_one_without_warnings(tmp_path, capsys):
    """A spec cut whose h/2 samples would exceed the budget exits 1 naming
    the polyline; it used to keep one sample per segment, with a numpy
    cast warning."""
    path = tmp_path / "far_cut.json"
    path.write_text(json.dumps({"type": "ball", "radius": 1.0, "h": 0.05,
                                "cuts": [[[0.0, 0.0], [1e300, 1e300]]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check-domain", str(path), "--samples", "2",
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a polyline resampled at step 0.025 needs 5.657e+301 points")
    assert err.count("\n") == 1


def test_is_simple_past_its_kept_raster_budget_exits_one(tmp_path, capsys, monkeypatch):
    """check-domain on a spec that is not slicewise, whose units have
    distinct rasters, exits 1 once is_simple would keep more raster bytes
    than MAX_KEPT_BYTES."""
    from slicereg import domains
    monkeypatch.setattr(domains, "MAX_KEPT_BYTES", 20_000)
    path = tmp_path / "off_axis.json"
    path.write_text(json.dumps({"type": "ball", "radius": 0.8, "center": [0, 0.4, 0, 0],
                                "h": 0.02}))
    assert main(["check-domain", str(path), "--samples", "8",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: is_simple would keep ") and "more than the budget of 2e+04" in err


def test_sample_size_over_the_budget_exits_one_before_allocating(ball_json, tmp_path,
                                                                capsys):
    """A --samples whose (2N)^2 min-angle dot matrix would exceed
    MAX_GRID_CELLS exits 1 with a clear message before any lattice exists."""
    tracemalloc.start()
    try:
        code = main(["check-domain", str(ball_json), "--samples", "1000000000000",
                     "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert "exceed the budget" in err and "Traceback" not in err
    assert peak < 4e6


@pytest.mark.parametrize("text, message", [
    ('{"type": "ball", "radius": 1, "h": NaN}', "spec.h must be a finite number"),
    ('{"type": "ball", "radius": NaN}', "spec.radius must be a finite number"),
    ('{"type": "ball", "radius": 1, "h": Infinity}', "spec.h must be a finite number"),
    ('{"type": "starlike", "pull": NaN}', "spec.pull must be a finite number"),
    ('{"type": "starlike", "pull": 2}', "pull must lie in [0, 1)"),
    ('{"type": "ball", "radius": -1}', "spec.radius must be positive"),
    ('{"type": "ball", "radius": 1, "h": 0}', "spec.h must be positive"),
    ('{"type": "ball", "radius": 1, "center": [0, -Infinity, 0, 0]}',
     "spec.center[1] must be a finite number"),
    ('{"type": "boolean-op", "op": "union", "operands": '
     '[{"type": "ball", "radius": 1}, {"type": "ball", "radius": 0}]}',
     "spec.operands[1].radius must be positive"),
])
def test_hostile_numbers_in_spec_exit_one(text, message, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert main(["check-domain", str(path), "--samples", "2",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ('{"type": "halfspace-slicewise", "normal": [1]}',
     "spec.normal must be a list of 2 numbers"),
    ('{"type": "counterexample", "axis": [0, 0, 0]}', "spec.axis: cannot normalize"),
    ('{"type": "boolean-op", "op": "union", "operands": []}',
     "spec.operands must be a non-empty list"),
    ('{"type": "boolean-op", "op": "intersection", "operands": []}',
     "spec.operands must be a non-empty list"),
    ('{"type": "ball", "radius": 1, "bbox": [1]}', "spec.bbox must be a list of 3 numbers"),
    ('{"type": "tube", "polyline": [[0, 0.5], [0, 0]], "unit": [0, 0, 0], "epsilon": 0.1}',
     "spec.unit: cannot normalize"),
])
def test_hostile_spec_shapes_exit_one(text, message, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert main(["check-domain", str(path), "--samples", "2",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


_UNION = {"type": "boolean-op", "op": "union", "operands": [
    {"type": "ball", "radius": 1, "h": 0.25}, {"type": "starlike", "h": 0.5}]}


@pytest.mark.parametrize("data, where", [
    ({**_UNION, "h": 0.1}, "spec.h"),
    ({"type": "boolean-op", "op": "intersection", "operands": [{**_UNION, "h": 0.1}]},
     "spec.operands[0].h"),
])
@pytest.mark.parametrize("step", [[], ["--h", "0.25"]])
def test_a_boolean_op_spec_refuses_its_own_h(data, where, step, tmp_path, capsys):
    """A boolean-op's grid step is its operands' least h, or --h; an h key
    of its own used to walk cleanly and then be ignored."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    assert main(["check-domain", str(path), *step, "--samples", "2",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {where} is not a key of a boolean-op spec: its grid step "
                   "comes from its operands or --h\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("step, h", [([], 0.25), (["--h", "0.5"], 0.5)])
def test_a_boolean_op_spec_without_h_loads_as_before(step, h, tmp_path):
    """Without the key a boolean-op takes its operands' least h, or --h,
    which the report's spec shows as before."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_UNION))
    out = tmp_path / "out"
    assert main(["check-domain", str(path), *step, "--samples", "2", "--out", str(out)]) == 0
    report = json.loads((out / "verdicts.json").read_text())
    assert report["spec"] == ({**_UNION, "h": h} if step else _UNION)
    assert report["slice_domain"].startswith("yes") and f"h={h:g}" in report["slice_domain"]


def test_hostile_numbers_in_function_exit_one(ball_json, tmp_path, capsys):
    fn = tmp_path / "fn.json"
    fn.write_text('{"variant": "power-series", "coeffs": [[0, 0, 0, 0], [NaN, 0, 0, 0]]}')
    assert main(["local-extend", str(ball_json), "--function", str(fn),
                 "--point", "[0.1, 0.2, 0, 0]", "--out", str(tmp_path / "out")]) == 1
    assert "function.coeffs[1][0] must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("value", ['"nan"', '"1"', "true"])
def test_non_numeric_values_exit_one(value, ball_json, tmp_path, capsys):
    """A string or bool where a number belongs is rejected, not converted."""
    spec = tmp_path / "spec.json"
    spec.write_text('{"type": "halfspace-slicewise", "offset": %s, "h": 0.1}' % value)
    assert main(["check-domain", str(spec), "--samples", "2",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "spec.offset must be a number" in err and "Traceback" not in err
    fn = tmp_path / "fn.json"
    fn.write_text('{"variant": "power-series", "coeffs": [[0, 0, 0, 0]], '
                  '"center": %s}' % value)
    assert main(["local-extend", str(ball_json), "--function", str(fn),
                 "--point", "[0.1, 0.2, 0, 0]", "--out", str(tmp_path / "out")]) == 1
    assert "function.center must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("grid, message", [
    ({"x": [-1, 1, 0]}, "grid steps must be positive"),
    ({"y": [0, 1, -0.1]}, "grid steps must be positive"),
    ({"x": [-1, 1, "0.1"]}, "grid.x[2] must be a number"),
    ({"x": [-1e12, 1e12, 1e-3]}, "cells, more than the budget"),
    ({"x": [-1, 1]}, "grid.x must be a list of 3 numbers"),
    ({"unit": [0, 0, 0]}, "grid.unit: cannot normalize"),
    ([0, 1], "grid must be an object"),
])
def test_hostile_extend_grid_exits_one(grid, message, tmp_path, capsys):
    """A bad grid in the extend pair file exits 1 with a message, before
    np.arange allocates anything."""
    series = {"variant": "power-series", "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]]}
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"r": {**series, "slice_unit": [1, 0, 0]},
                                "s": {**series, "slice_unit": [0, 1, 0]},
                                "grid": grid}))
    tracemalloc.start()
    try:
        code = main(["extend", str(pair), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert peak < 4e6


@pytest.mark.parametrize("flag, value, message", [
    ("--point", '"x"', "value must be a number"),
    ("--point", "[0, 0.3]", "value must be a list of 4 numbers"),
    ("--point", "[0, 0.3, NaN, 0]", "value[2] must be a finite number"),
    ("--point", "[0, 0.3", "Expecting"),
    ("--unit", "[0, 0, 0]", "cannot normalize"),
    ("--unit", "[1, 0]", "value must be a list of 3 numbers"),
    ("--axis", "[0, 0, 0]", "cannot normalize"),
    ("--axis", "[true, 0, 0]", "value[0] must be a number"),
])
def test_hostile_point_unit_and_axis_exit_one(flag, value, message, ball_json, tmp_path,
                                              capsys):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"variant": "power-series", "coeffs": [[1, 0, 0, 0]]}))
    argv = {"--point": ["local-extend", str(ball_json), "--function", "square"],
            "--unit": ["ext-slice", str(ball_json), "--function", str(fn)],
            "--axis": ["counterexample"]}[flag]
    assert main(argv + [flag, value, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_tube_with_a_tiny_y_ref_checks_without_warnings(tmp_path):
    """A tube whose y_ref is so small that (epsilon / y_ref)^2 overflows
    has balls that cover H around every non-real point of its path; its
    membership computes no inf - inf, so check-domain runs with warnings
    turned into errors."""
    spec = tmp_path / "tube.json"
    spec.write_text(json.dumps({"type": "tube", "polyline": [[0.3, 0.6], [0.3, 0]],
                                "unit": [1, 0, 0], "epsilon": 0.2, "y_ref": 1e-300}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check-domain", str(spec), "--h", "0.25", "--samples", "4",
                     "--out", str(tmp_path / "out")]) == 0
    verdicts = json.loads((tmp_path / "out" / "verdicts.json").read_text())
    assert verdicts["slice_domain"].startswith("yes")


def test_completion_command(ball_json, tmp_path):
    out = tmp_path / "out"
    assert main(["completion", str(ball_json), "--samples", "8",
                 "--out", str(out)]) == 0
    assert (out / "coverage.csv").exists()
    report = json.loads((out / "completion.json").read_text())
    assert report["completion_symmetric"].startswith("yes")


def test_repr_command(tmp_path):
    out = tmp_path / "out"
    assert main(["repr", "--out", str(out)]) == 0
    report = json.loads((out / "repr.json").read_text())
    assert report["pass"] is True
    assert report["max_roundtrip_err"] <= 1e-10


def test_extend_command(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({
        "r": {"variant": "power-series", "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]],
              "slice_unit": [1, 0, 0]},
        "s": {"variant": "power-series", "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]],
              "slice_unit": [0, 1, 0]},
        "grid": {"x": [-0.5, 0.5, 0.25], "y": [0.0, 0.5, 0.25],
                 "unit": [0, 0, 1]},
    }))
    out = tmp_path / "out"
    assert main(["extend", str(pair), "--out", str(out)]) == 0
    rows = (out / "extension.csv").read_text().strip().splitlines()
    assert rows[0] == "x,y,f_w,f_x,f_y,f_z"
    assert len(rows) > 4


def test_extend_reports_the_table_error_of_a_continued_log(tmp_path, capsys):
    """check_compatible evaluates each function once on the shared real
    points, so a continued log whose table cannot be built exits 1 with the
    table's own error, not as a pair with no shared real trace."""
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({
        "r": {"variant": "continued-log", "pole": [0, 2], "base": [1, 2],
              "carrier": [1, 0, 0], "step": 1e300, "slice_unit": [1, 0, 0]},
        "s": {"variant": "power-series", "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]],
              "slice_unit": [0, 1, 0]}}))
    assert main(["extend", str(pair), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "a continuation table at step 1e+300 has 0 x 0 cells" in err
    assert "no shared real trace" not in err and "Traceback" not in err


def test_ext_slice_command(ball_json, tmp_path):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"variant": "power-series",
                              "coeffs": [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]}))
    out = tmp_path / "out"
    assert main(["ext-slice", str(ball_json), "--function", str(fn),
                 "--unit", "[1, 0, 0]", "--out", str(out)]) == 0
    header = (out / "stem.csv").read_text().splitlines()[0]
    assert header == "x,y,b_w,b_x,b_y,b_z,c_w,c_x,c_y,c_z"


def test_local_extend_command(ball_json, tmp_path):
    out = tmp_path / "out"
    assert main(["local-extend", str(ball_json), "--function", "square",
                 "--point", "[0, 0.3, 0.4, 0]", "--out", str(out)]) == 0
    report = json.loads((out / "local_extend.json").read_text())
    assert report["checks"]["tube_max_err"] <= 1e-8


def test_global_extend_ball(ball_json, tmp_path):
    out = tmp_path / "out"
    code = main(["global-extend", str(ball_json), "--function", "square",
                 "--samples", "16", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "consistency.json").read_text())
    assert report["max_defect"] <= 1e-8


def test_global_extend_reports_are_deterministic(ball_json, tmp_path):
    spec = tmp_path / "counterexample.json"
    spec.write_text(json.dumps({"type": "counterexample", "axis": [1.0, 0.0, 0.0]}))
    runs = [["global-extend", str(spec), "--function", "log-family", "--h", "0.25",
             "--samples", "8", "--force"],
            ["global-extend", str(ball_json), "--function", "square"]]
    for k, argv in enumerate(runs):
        out1, out2 = tmp_path / f"{k}a", tmp_path / f"{k}b"
        assert main(argv + ["--out", str(out1)]) == main(argv + ["--out", str(out2)])
        assert (out1 / "consistency.json").read_bytes() == \
            (out2 / "consistency.json").read_bytes()


_SQUARE = {"variant": "power-series", "coeffs": [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]}


@pytest.mark.parametrize("command, argv, reports", [
    ("extend", ["{pair}"], ["extension.csv"]),
    ("ext-slice", ["{ball}", "--function", "{square}", "--unit", "[0, -0.6, 0.8]"],
     ["stem.csv"]),
    ("local-extend", ["{ball}", "--function", "square", "--point", "[0.1, 0.3, -0.2, 0.1]"],
     ["stem.csv", "local_extend.json"]),
    ("completion", ["{ball}", "--samples", "8"], ["coverage.csv", "completion.json"]),
])
def test_stem_and_coverage_reports_are_deterministic(command, argv, reports, ball_json,
                                                     tmp_path):
    """Two runs of each command write the same bytes (the extend grid has
    a y = 0 row and rows below the axis)."""
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"r": {**_SQUARE, "slice_unit": [1, 0, 0]},
                                "s": {**_SQUARE, "slice_unit": [0, 1, 0]},
                                "grid": {"x": [-0.5, 0.5, 0.1], "y": [-0.2, 0.5, 0.1],
                                         "unit": [0, -0.6, 0.8]}}))
    square = tmp_path / "square.json"
    square.write_text(json.dumps(_SQUARE))
    names = {"pair": pair, "ball": ball_json, "square": square}
    argv = [command] + [a.format(**names) for a in argv]
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(argv + ["--out", str(out)]) == 0
    for name in reports:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("command, name, text, message", [
    ("check-domain", "spec", '{"type": "ball"}', "spec.radius is required"),
    ("check-domain", "spec", "[1]", "spec must be an object"),
    ("extend", "pair", '{"r": {"variant": "power-series"}}', "pair.r.coeffs is required"),
    ("tube", "path", '{"unit": [1, 0, 0]}', "path.points is required"),
    ("ext-slice", "function", '{"variant": "continued-log"}', "function.pole is required"),
])
def test_missing_keys_and_non_objects_exit_one(command, name, text, message, ball_json,
                                               tmp_path, capsys):
    """A missing required key or a JSON value that is not an object exits 1
    with a message naming its path, not a traceback."""
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    argv = {"check-domain": [str(path)],
            "extend": [str(path)],
            "tube": [str(ball_json), "--path", str(path)],
            "ext-slice": [str(ball_json), "--function", str(path)]}[command]
    assert main([command] + argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_scan_grid_matches_the_double_comprehension():
    """The global-extend sphere grid, built with repeat and tile, is the
    x-major double loop over the same two arange vectors, float for float."""
    from slicereg import ball_spec, starlike_spec
    from slicereg.counterexample import CounterexampleConfig, omega_spec
    specs = [ball_spec(0.0, 1.0, h=0.02), starlike_spec(0.5), ball_spec(0.3, 0.7, h=0.3)]
    specs += [omega_spec(CounterexampleConfig(h=h)) for h in (0.01, 0.075, 0.25)]
    for spec in specs:
        x_min, x_max, y_max = spec.bbox
        step = max(4 * spec.h, min(x_max - x_min, y_max) / 40.0)
        want = np.array([[x, y]
                         for x in np.arange(x_min + step / 2.0, x_max, step)
                         for y in np.arange(step / 2.0, y_max, step)])
        assert np.array_equal(_scan_grid(spec), want)


def test_global_extend_counterexample_not_simple_without_force(
        counterexample_json, tmp_path):
    out = tmp_path / "out"
    code = main(["global-extend", str(counterexample_json), "--function",
                 "log-family", "--samples", "16", "--out", str(out)])
    assert code == 2
    report = json.loads((out / "consistency.json").read_text())
    assert "error" in report


def test_global_extend_counterexample_forced(counterexample_json, tmp_path):
    out = tmp_path / "out"
    code = main(["global-extend", str(counterexample_json), "--function",
                 "log-family", "--samples", "16", "--force",
                 "--out", str(out)])
    assert code == 2  # the defect fires: mathematically meaningful failure
    report = json.loads((out / "consistency.json").read_text())
    assert abs(report["max_defect"] - 2.0 * math.pi) <= 1e-3
    flagged = [e for e in report["spheres"]
               if e["defect"] > 1.0 and e["witnesses"] is not None]
    assert flagged


def test_forced_scan_loads_no_scipy(tmp_path):
    """The forced global-extend scan of the log family labels and hulls no
    grid, so a fresh interpreter that runs it never imports scipy."""
    import slicereg
    spec = tmp_path / "counterexample.json"
    spec.write_text(json.dumps({"type": "counterexample", "axis": [1.0, 0.0, 0.0]}))
    argv = ["global-extend", str(spec), "--function", "log-family", "--force",
            "--h", "0.25", "--samples", "4", "--out", str(tmp_path / "out")]
    code = ("import sys, slicereg.cli, slicereg.counterexample\n"
            f"code = slicereg.cli.main({argv!r})\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=str(Path(slicereg.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "2 []"
    report = json.loads((tmp_path / "out" / "consistency.json").read_text())
    assert abs(report["max_defect"] - 2.0 * math.pi) <= 1e-3


def test_grid_verdicts_load_no_scipy(ball_json, tmp_path):
    """Labelling, the core erosion and the hull are numpy kernels, so a
    fresh interpreter that runs check-domain and counterexample never
    imports scipy."""
    import slicereg
    runs = [["check-domain", str(ball_json), "--samples", "4",
             "--out", str(tmp_path / "domain")],
            ["counterexample", "--h", "0.05", "--samples", "4",
             "--out", str(tmp_path / "evidence")]]
    code = ("import sys, slicereg.cli\n"
            f"codes = [slicereg.cli.main(argv) for argv in {runs!r}]\n"
            "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=str(Path(slicereg.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[0, 0] []"
    report = json.loads((tmp_path / "evidence" / "report.json").read_text())
    assert report["intersection_components"] == 3
    assert report["pair_set_components"] == 2


def test_counterexample_command(tmp_path):
    out = tmp_path / "out"
    code = main(["counterexample", "--h", "0.02", "--samples", "24",
                 "--out", str(out), "--emit-plots"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["intersection_components"] == 3
    assert report["pair_set_components"] == 2
    assert report["all_checks_pass"] is True
    for name in ("omega_slice.pgm", "intersection_labels.pgm",
                 "pair_set_labels.pgm", "jump_heatmap.csv"):
        assert (out / name).exists()
    # the label images equal those of the oracle painter, byte for byte
    cfg = CounterexampleConfig(h=0.02)
    for name, grid in (("intersection_labels.pgm", intersection_grid(cfg)),
                       ("pair_set_labels.pgm", pair_set_grid(cfg))):
        write_pgm(tmp_path / name, paint_labels(grid.occupied))
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_tube_command(ball_json, tmp_path):
    cpath = tmp_path / "path.json"
    cpath.write_text(json.dumps({"unit": [1, 0, 0],
                                 "points": [[0.0, 0.6], [0.0, 0.0]]}))
    out = tmp_path / "out"
    assert main(["tube", str(ball_json), "--path", str(cpath),
                 "--out", str(out)]) == 0
    tube = json.loads((out / "tube.json").read_text())
    assert tube["epsilon"] > 0.0
    assert tube["type"] == "tube"


def test_malformed_json_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    code = main(["check-domain", str(bad), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "line" in err


def test_unknown_spec_type_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "dodecahedron"}))
    assert main(["check-domain", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_missing_file_exits_one(tmp_path):
    assert main(["check-domain", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o")]) == 1


# errors raised after the schema walk name the input they came from
_CUBE_SERIES = {"variant": "power-series",
                "coeffs": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]}
_NAMED_ERRORS = {
    "starlike-pull": ({"spec": {"type": "starlike", "pull": 1.5}},
                      ["check-domain", "{spec}"],
                      "error: spec.pull: pull must lie in [0, 1)\n"),
    "asymmetric-spec": ({"spec": {"type": "ball", "radius": 0.8, "center": [0, 0.4, 0, 0]},
                         "function": _CUBE_SERIES},
                        ["ext-slice", "{spec}", "--function", "{function}"],
                        "error: spec: domain is not symmetric\n"),
    "path-leaves-spec": ({"spec": {"type": "ball", "center": [0, 0, 0, 0], "radius": 1.0},
                          "path": {"unit": [1, 0, 0], "points": [[0.9, 0.5], [0.0, 0.0]]}},
                         ["tube", "{spec}", "--path", "{path}"],
                         "error: path.points: C leaves the upper half slice of Y at "
                         "(0.9, 0.5)\n"),
    "shrink-too-large": ({"spec": {"type": "ball", "center": [0, 0, 0, 0], "radius": 1.0},
                          "path": {"unit": [1, 0, 0], "points": [[0.0, 0.5], [0.0, 0.0]]}},
                         ["tube", "{spec}", "--path", "{path}", "--shrink", "2"],
                         "error: --shrink: shrink must lie in (0, 1)\n"),
    "path-below-axis": ({"spec": {"type": "ball", "center": [0, 0, 0, 0], "radius": 1.0},
                         "path": {"unit": [1, 0, 0], "points": [[0.0, 0.5], [0.0, -0.2]]}},
                        ["tube", "{spec}", "--path", "{path}"],
                        "error: path.points: C must not descend below the real axis\n"),
    "pair-disagrees": ({"pair": {
        "r": {"variant": "power-series", "coeffs": [[0, 0, 0, 0], [1, 0, 0, 0]],
              "slice_unit": [1, 0, 0]},
        "s": {"variant": "power-series", "coeffs": [[1, 0, 0, 0], [1, 0, 0, 0]],
              "slice_unit": [0, 1, 0]},
        "grid": {"x": [-0.5, 0.5, 0.25], "y": [0.0, 0.5, 0.25], "unit": [0, 0, 1]}}},
        ["extend", "{pair}"],
        "error: pair: slice functions disagree at x=-1.4 by 1.000e+00\n"),
}


@pytest.mark.parametrize("name", sorted(_NAMED_ERRORS))
def test_errors_after_the_walk_name_their_input(name, tmp_path, capsys):
    files, argv, message = _NAMED_ERRORS[name]
    paths = {}
    for key, data in files.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(data))
    argv = [a.format(**paths) for a in argv] + ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == message


def test_ext_slice_refuses_a_stem_that_is_not_finite(tmp_path, capsys):
    """On a ball of radius 1e110 the cube's values pass the float range, so
    its dbar residuals are NaN: ext-slice's holomorphy check refuses them,
    exits 1 naming the first such point, writes no stem.csv and lets no
    RuntimeWarning out."""
    spec, function = tmp_path / "spec.json", tmp_path / "cube.json"
    spec.write_text(json.dumps({"type": "ball", "radius": 1e110}))
    function.write_text(json.dumps(_CUBE_SERIES))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["ext-slice", str(spec), "--function", str(function),
                     "--h", "1e108", "--samples", "4", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == ("error: slice restriction is not holomorphic "
                                       "(dbar nan at (-3.7e+109, 1.584e+109))\n")
    assert not (out / "stem.csv").exists()


def test_ext_slice_filters_its_grid_in_one_membership_call(ball_json, tmp_path,
                                                          monkeypatch):
    """ext-slice tests the 41 x 21 points of its grid in one contains_rows
    call, and exports the stem at those inside."""
    from slicereg.domains import DomainSpec
    sizes = []
    real = DomainSpec.contains_rows

    def spy(self, x, y, vectors):
        sizes.append(len(vectors))
        return real(self, x, y, vectors)

    monkeypatch.setattr(DomainSpec, "contains_rows", spy)
    function = tmp_path / "cube.json"
    function.write_text(json.dumps(_CUBE_SERIES))
    out = tmp_path / "out"
    assert main(["ext-slice", str(ball_json), "--function", str(function),
                 "--out", str(out)]) == 0
    assert sizes.count(41 * 21) == 1
    rows = (out / "stem.csv").read_text().splitlines()[1:]
    assert 0 < len(rows) < 41 * 21
