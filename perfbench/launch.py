"""Run one binlab CLI command the way the ``binlab`` entry point does, for
``perfbench/run.py``.

Usage: python3 perfbench/launch.py <binlab arguments...>

It calls ``binlab.cli.main`` and exits with its code.  Two environment
variables add measurement around the call:

PERFBENCH_MARKS  file that receives {"setup_end": t}, the CLOCK_MONOTONIC
                 time at which set-up ended: the command's config or graph
                 file was parsed.
PERFBENCH_SPANS  when set, trace the command (see tracing.py) and write the
                 spans to this file.
"""
from __future__ import annotations

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    spans_path = os.environ.get("PERFBENCH_SPANS")
    marks_path = os.environ.get("PERFBENCH_MARKS")
    rec = None
    if spans_path:
        import tracing
        rec = tracing.SpanRecorder()
    t0 = time.perf_counter()
    import binlab.cli as cli
    if rec is not None:
        rec.add("cli.import", t0, time.perf_counter())
        tracing.install(rec)

    marks: dict[str, float] = {}

    def mark_after(fn):
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            marks["setup_end"] = time.monotonic()
            return res
        return wrapper

    cli.load_config = mark_after(cli.load_config)
    cli.read_graph_file = mark_after(cli.read_graph_file)

    try:
        return cli.main(argv)
    finally:
        if marks_path:
            with open(marks_path, "w") as fh:
                json.dump(marks, fh)
        if rec is not None:
            rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
