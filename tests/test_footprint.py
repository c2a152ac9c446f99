"""What every slicereg process loads: no OpenSSL, no numpy.random, no
numpy at package import, one BLAS thread under the CLI, and no module
whose compile sets the import-time memory peak."""
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import slicereg

SRC = Path(slicereg.__file__).resolve().parent

# parser tokens: tokenizer tokens less comments and blank lines (COMMENT,
# NL), which the compiler never sees; 4800 is about 1.9 MB of compile peak
# under tracemalloc, which a process that compiles the sources (no cached
# bytecode) holds while importing
MAX_MODULE_TOKENS = 4800
SKIPPED = {tokenize.COMMENT, tokenize.NL}


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh_run(code: str, threads: dict | None = None) -> str:
    """Standard output of a fresh interpreter running code with slicereg on
    its path; given threads, the BLAS thread variables set are exactly
    those."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    if threads is not None:
        env = {k: v for k, v in env.items() if k not in BLAS_THREADS} | threads
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


needs_tasks = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                 reason="no /proc/self/task to count threads in")
SHOW_THREADS = ("import os, json\n"
                "print(json.dumps([len(os.listdir('/proc/self/task'))]\n"
                f"                 + [os.environ.get(k) for k in {BLAS_THREADS!r}]))")


@needs_tasks
def test_the_cli_runs_blas_on_one_thread_by_default():
    """With no thread variable set, importing the CLI sets all three to 1
    before numpy loads, so no idle OpenBLAS thread spins beside the main
    one (a 2-vCPU machine had 2 threads)."""
    out = _fresh_run("import slicereg.cli\n" + SHOW_THREADS, threads={})
    assert json.loads(out) == [1, "1", "1", "1"]


@needs_tasks
def test_a_thread_count_the_user_set_is_kept():
    """A user's OPENBLAS_NUM_THREADS is kept, and the other two stay
    unset: the CLI adds no thread setting of its own."""
    out = _fresh_run("import slicereg.cli\n" + SHOW_THREADS,
                     threads={"OPENBLAS_NUM_THREADS": "2"})
    assert json.loads(out)[1:] == ["2", None, None]


def test_importing_the_package_loads_no_numpy_and_sets_nothing():
    """import slicereg is lazy (PEP 562): it loads no numpy and leaves the
    environment as it was, and every name of __all__, slicereg.errors
    among them, resolves on first use."""
    code = ("import os, sys\n"
            "env = dict(os.environ)\n"
            "import slicereg\n"
            "print('numpy' in sys.modules, dict(os.environ) == env)\n"
            "missing = [n for n in slicereg.__all__ if getattr(slicereg, n, None) is None]\n"
            "print(missing, slicereg.errors.SliceRegError.__name__, 'numpy' in sys.modules)")
    assert _fresh_run(code, threads={}).splitlines() == [
        "False True", "[] SliceRegError True"]
    assert {"Quaternion", "ContinuedLog", "is_simple", "ball_spec", "formula_stem",
            "TubeDomain", "errors", "raster"} <= set(slicereg.__all__)
    with pytest.raises(AttributeError):
        slicereg.no_such_name


def test_a_check_domain_run_loads_no_openssl(tmp_path):
    """occupancy_digest hashes with the builtin blake2, so a fresh
    interpreter that imports the CLI and the counterexample and runs
    check-domain never loads _hashlib (OpenSSL) or ssl."""
    spec = tmp_path / "ball.json"
    spec.write_text(json.dumps({"type": "ball", "center": [0, 0, 0, 0], "radius": 1.0}))
    argv = ["check-domain", str(spec), "--h", "0.05", "--samples", "4",
            "--out", str(tmp_path / "out")]
    code = ("import sys, slicereg.cli, slicereg.counterexample\n"
            f"code = slicereg.cli.main({argv!r})\n"
            "print(code, sorted(m for m in ('_hashlib', 'ssl') if m in sys.modules))")
    assert _fresh_run(code).splitlines()[-1] == "0 []"
    verdicts = json.loads((tmp_path / "out" / "verdicts.json").read_text())
    assert verdicts["simple"].startswith("yes")


def test_commands_that_draw_random_numbers_load_no_numpy_random(tmp_path):
    """The draws come from the standard library's random.Random, so the
    commands that sample points load neither numpy.random nor, through its
    secrets import, OpenSSL."""
    ball = tmp_path / "ball.json"
    ball.write_text(json.dumps({"type": "ball", "center": [0, 0, 0, 0], "radius": 1.0,
                                "h": 0.1}))
    square = tmp_path / "square.json"
    square.write_text(json.dumps({"variant": "power-series",
                                  "coeffs": [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]}))
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"unit": [1, 0, 0], "points": [[0.0, 0.6], [0.0, 0.0]]}))
    runs = [["counterexample", "--h", "0.05", "--samples", "8"],
            ["repr"],
            ["ext-slice", str(ball), "--function", str(square), "--unit", "[1, 0, 0]"],
            ["local-extend", str(ball), "--function", "square",
             "--point", "[0, 0.3, 0.4, 0]"],
            ["tube", str(ball), "--path", str(path)]]
    runs = [argv + ["--out", str(tmp_path / argv[0])] for argv in runs]
    code = ("import sys, slicereg.cli\n"
            f"codes = [slicereg.cli.main(argv) for argv in {runs!r}]\n"
            "print(codes, sorted(m for m in ('numpy.random', '_hashlib', 'ssl')\n"
            "                    if m in sys.modules))")
    assert _fresh_run(code).splitlines()[-1] == "[0, 0, 0, 0, 0] []"
    report = json.loads((tmp_path / "counterexample" / "report.json").read_text())
    assert report["all_checks_pass"]


def test_the_cli_and_the_counterexample_load_no_local_extension():
    """A fresh import of slicereg.cli and slicereg.counterexample (what the
    benchmark's launcher loads before main) leaves slicereg.local out: only
    the tube and local-extend commands import it, when they run.  The tube
    spec type lives in slicereg.specs, and every public path to it names
    the one class."""
    code = ("import sys, slicereg.cli, slicereg.counterexample\n"
            "print('slicereg.local' in sys.modules)")
    assert _fresh_run(code) == "False"
    import slicereg.local
    import slicereg.specs
    assert slicereg.TubeDomain is slicereg.local.TubeDomain is slicereg.specs.TubeDomain


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_exceeds_the_token_bound(path):
    with open(path, encoding="utf-8") as source:
        count = sum(1 for token in tokenize.generate_tokens(source.readline)
                    if token.type not in SKIPPED)
    assert count <= MAX_MODULE_TOKENS, f"{path.name} has {count} tokens"
