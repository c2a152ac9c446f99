"""One slicereg invocation in a fresh process, as the benchmark spawns it.

    python3 perfbench/launch.py MODE INFO_JSON -- SLICEREG_ARGS...

MODE is ``run`` (untraced), ``trace`` (public names wrapped by spans.py) or
``probe`` (stop where ``slicereg.cli.main`` would be entered; measures
set-up only).  INFO_JSON receives the monotonic time at which main was
entered, the exit code and, when traced, the span summary; the spans
themselves go next to it as ``spans.jsonl``.  The process exits with
main's exit code.
"""
from __future__ import annotations

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def main() -> int:
    mode, info_path, sep, *argv = sys.argv[1:]
    if mode not in ("run", "trace", "probe") or sep != "--":
        print("usage: launch.py run|trace|probe INFO_JSON -- ARGS...",
              file=sys.stderr)
        return 64
    sys.path.insert(0, SRC)
    import slicereg.cli as cli
    # imported lazily by the CLI; loaded here so set-up covers every layer
    import slicereg.counterexample  # noqa: F401
    if os.path.commonpath([os.path.abspath(cli.__file__), SRC]) != SRC:
        print(f"slicereg imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 65
    recorder = None
    if mode == "trace":
        import spans
        recorder = spans.install()
    info = {"main_enter": time.monotonic()}
    if mode != "probe":
        code = cli.main(argv)
        info["exit_code"] = code
        if recorder is not None:
            info["trace"] = recorder.summary()
            recorder.write_spans(os.path.join(os.path.dirname(info_path),
                                              "spans.jsonl"))
    else:
        code = 0
    with open(info_path, "w", encoding="ascii") as out:
        json.dump(info, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
