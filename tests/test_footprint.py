"""What every slicereg process loads: no OpenSSL, no numpy.random, and no
module whose compile sets the import-time memory peak."""
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


def _fresh_run(code: str) -> str:
    """Standard output of a fresh interpreter running code with slicereg on
    its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_exceeds_the_token_bound(path):
    with open(path, encoding="utf-8") as source:
        count = sum(1 for token in tokenize.generate_tokens(source.readline)
                    if token.type not in SKIPPED)
    assert count <= MAX_MODULE_TOKENS, f"{path.name} has {count} tokens"
