"""slicereg benchmark: one workload, closed loop, end-to-end or per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the checkout is the parent of this file's
directory, and slicereg is imported from its ``src/``.  Each invocation of
the CLI runs in a fresh child process (perfbench/launch.py); the next one
starts when the previous has exited, so at most one child is busy.  The
loop runs rounds of invocations while the next round, judged by the last,
still ends within S seconds; it always makes at least one.  The seed is
passed to slicereg as ``--seed``.

--trace 0 reports the end-to-end metrics: wall_s (spawn to exit), cpu_s
(user + system of the child), peak_rss_mb (the child's maximum RSS) and
setup_s (spawn until ``slicereg.cli.main`` is entered).  The loop's rounds
are a set-up probe and an invocation; setup_s is the median over three
probes before the loop, the probes in it and every invocation.  --trace 1
runs rounds of one untraced and one traced invocation, all with
SLICEREG_THREADS=1, and reports the per-layer metrics of spans.py.

Every invocation is checked: its exit code, its reports (see the check_*
functions), and that its reports, and when traced its exact counts, equal
those of every other invocation of the same code at the same seed, in this
run and in earlier runs in this checkout.  A failed invocation counts in
``failed``; it is never retried.  The last line of standard output is the
JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
REFERENCE = HERE / "reference"
LAUNCH = HERE / "launch.py"

HARD_LIMIT_S = 170.0     # the whole run, set-up probes included
SETUP_PROBES = 4         # before the loop; the first warms the caches
DEFECT_ATOL = 1e-6       # per-sphere defect against the stored reference
TWO_PI = 2.0 * math.pi
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_PROC_BIND",
               "OMP_WAIT_POLICY", "SLICEREG_THREADS")

INPUTS = {
    "ball.json": {"type": "ball", "center": [0, 0, 0, 0], "radius": 1.0},
    "counterexample.json": {"type": "counterexample", "axis": [1.0, 0.0, 0.0]},
}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _load(outdir: Path, name: str):
    return json.loads((outdir / name).read_text())


def check_counterexample(outdir: Path, workload: str) -> list:
    report = _load(outdir, "report.json")
    fails = []
    if report.get("all_checks_pass") is not True:
        failed = [k for k, v in report.get("checks", {}).items() if not v]
        fails.append(f"all_checks_pass is not true (failed: {failed})")
    if report.get("intersection_components") != 3:
        fails.append(f"intersection_components "
                     f"{report.get('intersection_components')} != 3")
    if report.get("pair_set_components") != 2:
        fails.append(f"pair_set_components "
                     f"{report.get('pair_set_components')} != 2")
    return fails


def check_ball(outdir: Path, workload: str) -> list:
    """Four yes verdicts at N=16; those that state h state h=0.02 (the
    symmetry verdict has no grid and states only N)."""
    report = _load(outdir, "verdicts.json")
    fails = []
    for key in ("slice_domain", "symmetric", "slice_convex", "simple"):
        text = str(report.get(key))
        value, _, res = text.partition("@")
        res = dict(p.partition("=")[::2] for p in res.split(",") if p)
        if value != "yes" or res.get("N") != "16" or res.get("h", "0.02") != "0.02":
            fails.append(f"{key} verdict {text!r} is not yes@N=16,h=0.02")
    return fails


def check_scan(outdir: Path, workload: str) -> list:
    report = _load(outdir, "consistency.json")
    ref = json.loads((REFERENCE / f"{workload}.json").read_text())
    fails = []
    if abs(report["max_defect"] - TWO_PI) > 1e-3:
        fails.append(f"max_defect {report['max_defect']!r} is not 2 pi")
    entries = report["spheres"]
    flagged = [e for e in entries if e["defect"] > 1.0]
    if not flagged:
        fails.append("no sphere is flagged")
    if any(e["witnesses"] is None for e in flagged):
        fails.append("a flagged sphere has no witness")
    expected = ref["spheres"]
    if report["n_spheres"] != len(expected) or len(entries) != len(expected):
        fails.append(f"{report['n_spheres']} spheres, reference has "
                     f"{len(expected)}")
        return fails
    bad = [i for i, (e, (x, y, d)) in enumerate(zip(entries, expected))
           if abs(e["sphere"][0] - x) > 1e-9 or abs(e["sphere"][1] - y) > 1e-9
           or abs(e["defect"] - d) > DEFECT_ATOL]
    if bad:
        i = bad[0]
        fails.append(f"{len(bad)} spheres differ from the reference by more "
                     f"than {DEFECT_ATOL:g}; first {entries[i]['sphere']}: "
                     f"{entries[i]['defect']!r} vs {expected[i][2]!r}")
    return fails


@dataclass(frozen=True)
class Workload:
    argv: tuple          # slicereg arguments; {name} is an input file
    exit_code: int       # what a correct run exits with
    outputs: tuple       # reports that must be byte-identical per seed
    check: object

    def command(self, inputs: Path, seed: int, out: Path) -> list:
        names = {Path(k).stem: str(inputs / k) for k in INPUTS}
        return [a.format(**names) for a in self.argv] + [
            "--seed", str(seed), "--out", str(out)]


SCAN = ("global-extend", "{counterexample}", "--function", "log-family",
        "--force")
WORKLOADS = {
    # evidence bundle: rasterize + label of 130 cut slices, 2 tables
    "ce-evidence": Workload(("counterexample",), 0, ("report.json",),
                            check_counterexample),
    # verdicts on a convex domain: the segment test runs without early exit
    "ball-verdicts": Workload(("check-domain", "{ball}", "--h", "0.02",
                               "--samples", "16"), 0, ("verdicts.json",),
                              check_ball),
    # 561 spheres over 18 units: continuation queries dominate
    "scan-dense": Workload(SCAN + ("--h", "0.075", "--samples", "8"), 2,
                           ("consistency.json",), check_scan),
    # 50 spheres over 66 units: table builds dominate
    "scan-wide": Workload(SCAN + ("--h", "0.25", "--samples", "32"), 2,
                          ("consistency.json",), check_scan),
}


# ---------------------------------------------------------------------------
# invocations
# ---------------------------------------------------------------------------

@dataclass
class Invocation:
    mode: str
    wall: float | None = None
    cpu: float | None = None
    rss_mb: float | None = None
    setup: float | None = None
    exit_code: int | None = None
    digests: dict = field(default_factory=dict)
    trace: dict | None = None
    spheres: int | None = None
    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def spawn(mode: str, argv: list, rundir: Path, deadline: float,
          env: dict | None = None) -> Invocation:
    """Run launch.py once and wait for it; rusage comes from wait4."""
    rundir.mkdir(parents=True)
    info_path = rundir / "info.json"
    cmd = [sys.executable, str(LAUNCH), mode, str(info_path), "--", *argv]
    inv = Invocation(mode)
    killed = threading.Event()
    with open(rundir / "stdout.txt", "wb") as out, \
            open(rundir / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err,
                                env=env)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(deadline - t0, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = inv.exit_code = os.waitstatus_to_exitcode(status)
    inv.wall = t1 - t0
    inv.cpu = usage.ru_utime + usage.ru_stime
    inv.rss_mb = usage.ru_maxrss / 1024.0
    if killed.is_set():
        inv.failures.append("killed at the run's time limit")
        return inv
    try:
        info = json.loads(info_path.read_text())
    except (OSError, ValueError):
        inv.failures.append(f"no launcher record (exit {inv.exit_code})")
        return inv
    inv.setup = info["main_enter"] - t0
    inv.trace = info.get("trace")
    return inv


def invoke(wl: Workload, name: str, mode: str, seed: int, workdir: Path,
           index: int, deadline: float, env: dict | None) -> Invocation:
    rundir = workdir / f"{index:02d}-{mode}"
    out = rundir / "out"
    if mode == "probe":
        inv = spawn(mode, [], rundir, deadline, env)
        if not inv.failures and inv.exit_code != 0:
            inv.failures.append(f"exit {inv.exit_code}, expected 0")
        return inv
    argv = wl.command(workdir / "inputs", seed, out.relative_to(ROOT))
    inv = spawn(mode, argv, rundir, deadline, env)
    if inv.failures:
        return inv
    if inv.exit_code != wl.exit_code:
        inv.failures.append(f"exit {inv.exit_code}, expected {wl.exit_code}")
    try:
        for f in wl.outputs:
            inv.digests[f] = hashlib.sha256((out / f).read_bytes()).hexdigest()
        inv.failures += wl.check(out, name)
        if "consistency.json" in wl.outputs:
            inv.spheres = _load(out, "consistency.json")["n_spheres"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        inv.failures.append(f"report unreadable: {exc!r}")
    if inv.trace is not None:
        check_trace(inv, rundir / "spans.jsonl")
    return inv


# ---------------------------------------------------------------------------
# determinism and trace checks
# ---------------------------------------------------------------------------

def code_digest() -> str:
    """Digest of the program and benchmark sources: same digest, same code."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def check_trace(inv: Invocation, spans_path: Path) -> None:
    """Checks that the spans nest as calls do, so that time is attributed
    to the right layer; keeps the exact counts.  (The self times add up to
    cli.main_s by construction, so that sum is not checked.)"""
    trace = inv.trace
    if trace["foreign_thread_calls"]:
        inv.failures.append(f"{trace['foreign_thread_calls']} wrapped calls "
                            f"came from another thread and were not traced")
    orphans = sorted(n for n, p, _ in trace["edges"]
                     if p is None and n != spans.ROOT)
    if orphans:
        inv.failures.append(f"spans opened outside {spans.ROOT}: {orphans}")
    negative = sorted(n for n, s in trace["names"].items()
                      if s["self_s"] < -1e-9)
    if negative:
        inv.failures.append(f"negative self time: {negative}")
    try:
        with open(spans_path, encoding="ascii") as f:
            kept = {s["id"]: s for s in map(json.loads, f)}
    except (OSError, ValueError) as exc:
        inv.failures.append(f"spans unreadable: {exc!r}")
        kept = {}
    outside = [s["name"] for s in kept.values() if s["parent"] in kept and not
               (kept[s["parent"]]["start"] <= s["start"] <= s["end"]
                <= kept[s["parent"]]["end"])]
    if outside:
        inv.failures.append(f"{len(outside)} spans lie outside their parent's "
                            f"interval; first {outside[0]}")
    values, _ = spans.layer_metrics(trace, inv.spheres)
    inv.counts = {k: values[k] for k in spans.COUNT_METRICS}


def check_repeats(invs: list, key: str) -> None:
    """At one seed, reports must be byte-identical and traced counts equal:
    within this run, and against the first run of the same code and seed
    in this checkout (.work/repeats.json)."""
    state_path = WORK / "repeats.json"
    try:
        state = json.loads(state_path.read_text())
    except (OSError, ValueError):
        state = {}
    first = dict(state.get(key, {}))
    for inv in invs:
        for kind, value in (("reports", inv.digests), ("counts", inv.counts)):
            if not value:
                continue
            if kind not in first:
                if not inv.failures:
                    first[kind] = value
                continue
            diff = sorted(k for k in value if value[k] != first[kind].get(k))
            if diff:
                inv.failures.append(f"{kind} differ from an earlier "
                                    f"invocation at this seed: {diff}")
    if first != state.get(key, {}):
        state[key] = first
        tmp = state_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
        os.replace(tmp, state_path)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def environment(argv: list, digest: str) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": commit,
        "code_sha256": digest,
        "argv": ["slicereg", *argv],
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def prepare(workdir: Path) -> Path:
    """Empty work directory holding the input files."""
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "inputs").mkdir(parents=True)
    for fname, data in INPUTS.items():
        (workdir / "inputs" / fname).write_text(json.dumps(data))
    return workdir


def closed_loop(wl, name, modes, seed, workdir, seconds, deadline,
                first_index, env) -> list:
    """Rounds of invocations, one per mode in order, while the next round,
    judged by the last, still ends within `seconds`; at least one round."""
    rounds = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        rounds.append([invoke(wl, name, mode, seed, workdir,
                              first_index + len(rounds) * len(modes) + k,
                              deadline, env)
                       for k, mode in enumerate(modes)])
        now = time.monotonic()
        if now + (now - t0) > deadline or now - start + (now - t0) > seconds:
            break
    return rounds


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.monotonic()
    deadline = t_start + HARD_LIMIT_S
    digest = code_digest()

    if not (ROOT / "src" / "slicereg" / "cli.py").is_file():
        print(f"error: no slicereg sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    workdir = prepare(WORK / args.workload)
    argv_shown = wl.command(Path("INPUTS"), args.seed, Path("OUT"))

    env = None
    notes = {}
    if args.trace:
        # the recorder keeps one call stack, so the traced children run
        # single-threaded, and the untraced ones too for a fair overhead
        env = {**os.environ, "SLICEREG_THREADS": "1"}
        if os.environ.get("SLICEREG_THREADS", "1") != "1":
            notes["SLICEREG_THREADS"] = (
                f"set to {os.environ['SLICEREG_THREADS']}; traced and paired "
                f"untraced invocations ran with 1")
        modes = ("run", "trace")
    else:
        modes = ("probe", "run")
    probes = [] if args.trace else [
        invoke(wl, args.workload, "probe", args.seed, workdir, i, deadline,
               env) for i in range(SETUP_PROBES)]
    rounds = closed_loop(wl, args.workload, modes, args.seed, workdir,
                         args.seconds, deadline, len(probes), env)
    probes += [inv for rnd in rounds for inv in rnd if inv.mode == "probe"]
    bad = [inv for inv in probes if inv.failures]
    if bad:
        print(f"error: set-up probe failed: {bad[0].failures}; see "
              f"{workdir}", file=sys.stderr)
        return 2
    every = [inv for rnd in rounds for inv in rnd if inv.mode != "probe"]
    check_repeats(every, f"{digest}:{args.workload}:{args.seed}")

    failed = sum(1 for inv in every if inv.failures)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for k, inv in enumerate(every):
        status = "ok" if not inv.failures else "FAILED: " + "; ".join(inv.failures)
        print(f"  invocation {k} ({inv.mode}): exit {inv.exit_code} "
              f"wall {inv.wall:.3f} s cpu {inv.cpu:.3f} s "
              f"rss {inv.rss_mb:.1f} MB {status}")
    if not args.trace:
        good = [inv for inv in every if not inv.failures] or every
        setups = [inv.setup for inv in probes[1:] + every]
        metrics = {
            "wall_s": (median(i.wall for i in good), "s"),
            "cpu_s": (median(i.cpu for i in good), "s"),
            "peak_rss_mb": (median(i.rss_mb for i in good), "MB"),
            "setup_s": (median(setups), "s"),
        }
        print(f"  samples {len(good)} invocations, {len(setups)} set-up times: "
              + " ".join(f"{v:.3f}" for v in setups))
    else:
        metrics, layer_notes = layer_result(rounds)
        notes.update(layer_notes)
    print(f"  fail_frac {failed / len(every)!r} ({failed}/{len(every)})")
    for name, (value, unit) in metrics.items():
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"metric {name} {value!r} {unit}{note}")
    for name in notes.keys() - metrics.keys():
        print(f"note {name}: {notes[name]}")
    env_rec = environment(argv_shown, digest)
    print("env " + json.dumps(env_rec, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} if v is not None else
                    {"value": v, "unit": u, "note": notes.get(k, "")}
                    for k, (v, u) in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps(
        {**result, "env": env_rec, "fail_frac": failed / len(every),
         "notes": notes, "seconds_used": time.monotonic() - t_start},
        indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


def layer_result(rounds: list):
    """Per-layer metrics of the traced invocation with the median cli.main_s,
    so that its self times add up to its cli.main_s; the exact counts of
    all traced invocations are equal (check_repeats).  trace_overhead_s is
    the median over rounds of traced minus untraced wall_s."""
    traced = [inv for rnd in rounds for inv in rnd if inv.mode == "trace"]
    ok = sorted((inv for inv in traced if inv.trace is not None),
                key=lambda inv: inv.trace["names"].get(spans.ROOT, {})
                .get("total_s", 0.0))
    if not ok:
        return {k: (None, u) for k, (u, _) in spans.LAYER_METRICS.items()}, {
            k: "no traced invocation finished" for k in spans.LAYER_METRICS}
    rep = ok[(len(ok) - 1) // 2]
    values, notes = spans.layer_metrics(rep.trace, rep.spheres)
    pairs = [t.wall - r.wall for r, t in rounds
             if not r.failures and not t.failures]
    values["trace_overhead_s"] = median(pairs)
    if not pairs:
        notes["trace_overhead_s"] = "no round with both invocations correct"
    return {k: (values[k], u) for k, (u, _) in spans.LAYER_METRICS.items()}, notes


if __name__ == "__main__":
    sys.exit(main())
