"""Run `pdml.cli` in this process with the benchmark's spans installed.

Usage: python bench/cli_launcher.py SPAN_FILE -- <pdml cli arguments>

Behaves like `python -m pdml.cli` (same report, same exit code, and a
traceback with exit 1 on an uncaught exception), and writes the import
time of pdml.cli and the span summary of the command to SPAN_FILE.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback


def main() -> int:
    span_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: cli_launcher.py SPAN_FILE -- ARGS", file=sys.stderr)
        return 2
    t0 = time.perf_counter_ns()
    import pdml.cli

    import_ns = time.perf_counter_ns() - t0
    import tracing

    tracer = tracing.Tracer(f"cli/{os.getpid()}")
    tracing.install(tracer)
    bucket = tracer.begin("pass1")
    try:
        rc = pdml.cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = 1
    finally:
        tracer.end()
        spans = [{"id": s[0], "parent": s[1], "name": s[2],
                  "start_ns": s[3], "end_ns": s[4]}
                 for s in tracer.spans if s is not None]
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump({"import_ns": import_ns, "bucket": bucket.to_json(),
                       "spans": spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
