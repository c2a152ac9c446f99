"""Store the per-sphere consistency defects of the scan workloads as the
reference that run.py checks every later invocation against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run it only on a commit whose reports are trusted; each stored file names
the commit and the command that produced it.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import run

SCANS = [n for n, wl in run.WORKLOADS.items() if wl.check is run.check_scan]


def main(names) -> int:
    for name in names or SCANS:
        wl = run.WORKLOADS[name]
        workdir = run.prepare(run.WORK / "reference" / name)
        out = workdir / "run" / "out"
        inv = run.spawn("run", wl.command(workdir / "inputs", 0,
                                          out.relative_to(run.ROOT)),
                        workdir / "run", time.monotonic() + 600.0)
        if inv.failures or inv.exit_code != wl.exit_code:
            print(f"{name}: exit {inv.exit_code} {inv.failures}",
                  file=sys.stderr)
            return 1
        report = json.loads((out / "consistency.json").read_text())
        env = run.environment(wl.command(Path("INPUTS"), 0, Path("OUT")),
                              run.code_digest())
        reference = {
            "workload": name,
            "argv": env["argv"],
            "commit": env["commit"],
            "defect_atol": run.DEFECT_ATOL,
            "spheres": [[e["sphere"][0], e["sphere"][1], e["defect"]]
                        for e in report["spheres"]],
        }
        path = run.REFERENCE / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(reference) + "\n")
        print(f"{name}: {len(reference['spheres'])} spheres -> "
              f"{path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
