"""The machine's speed at a moment, from fixed reference work.

On a shared machine the same work takes 10-20% more or less wall time from
one minute to the next. Timing fixed reference work next to a measurement
gives the speed at that moment, and scaling by nominal / reference time
reports the measurement at a fixed nominal speed. The reference work does
not touch pdml, so a change to pdml moves a scaled time by the same share
as the wall time. Each workload names the reference that tracks its work:
a pure-Python loop for computation in one process, a fresh interpreter
that imports numpy for workloads that start processes.
"""

from __future__ import annotations

import subprocess
import sys
import time

_PROCESS_CODE = """\
import argparse, fractions, json
try:
    import numpy
except ImportError:
    pass
"""


def loop_seconds() -> float:
    """Time a fixed pure-Python loop: small and big ints, dicts, tuples."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(20000):
        k = (i * 7919) % 1009
        table[(k, i & 7)] = table.get((k, i & 7), 0) + i
        acc = (acc * 31 + k * k) % 1000003
        acc ^= (5 ** (i % 60) + i).bit_length()
    sorted(table.items())
    return time.perf_counter() - t0


def process_seconds() -> float:
    """Time a fresh interpreter that imports what a CLI process imports
    besides pdml, and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _PROCESS_CODE], check=True)
    return time.perf_counter() - t0


# (reference, its seconds at the nominal speed: about its median on the
# 2-core machine the reference figures in README.md come from)
LOOP = (loop_seconds, 0.030)
PROCESS = (process_seconds, 0.170)

# The reference each workload's set-up and passes are scaled by.
BY_WORKLOAD = {"pexp-digits": LOOP, "orbit-factored": LOOP,
               "orbit-dense": LOOP, "cli-cold": PROCESS}


def scale(nominal: float, before: float, after: float) -> float:
    """Factor from wall time to nominal-speed time, from the reference
    timed right before and right after the measurement."""
    return nominal / ((before + after) / 2)
