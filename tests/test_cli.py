import json
import math
from pathlib import Path

import numpy as np
import pytest

from slicereg.cli import main


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
