"""Run one fusenet command in this process and report how it went.

Usage: python3 perfbench/launch.py OUT_JSON TRACE -- <fusenet arguments>

The package is imported from the checkout's ``src/``. The command runs
through ``fusenet.cli.main`` exactly as the ``fusenet`` script would. When
it ends, OUT_JSON receives the time its model computation started (the
end of set-up), its peak resident memory and, with TRACE=1, the spans and
counters of ``tracing.install``. The exit code is the command's own.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import tracing

SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> int:
    out_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: launch.py OUT_JSON TRACE -- <fusenet arguments>")
    argv = sys.argv[4:]
    sys.path.insert(0, str(SRC))

    marks: dict = {}
    rec = tracing.Recorder() if trace else None
    code = 1
    try:
        start = tracing.now()
        import fusenet.cli
        marks["import_s"] = tracing.now() - start
        if not Path(fusenet.cli.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"fusenet imported from {fusenet.cli.__file__}, not {SRC}")
        if rec is not None:
            tracing.install(rec)
        tracing.mark_first_compute(marks)
        code = fusenet.cli.main(argv)
    finally:
        marks["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if rec is not None:
            marks["trace"] = rec.dump()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
