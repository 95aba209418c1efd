"""pdml benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; pdml is imported from ./src, nothing needs
installing. The run samples set-up in fresh processes, then one worker
process does set-up, one untimed warm-up pass and timed passes until S
seconds of passes have run. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones, and
the spans are written to bench/out/trace-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Set-up is timed in this many fresh processes: probes plus the worker.
SETUP_SAMPLES = 5
# A run must end within 180 s; the worker is stopped before that.
WORKER_TIMEOUT = 170


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _start(args, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and its set-up time from spawn to READY,
    at nominal speed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    reference, nominal = speed.BY_WORKLOAD[args.workload]
    before = reference()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_env(), cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    if "--setup-only" in extra:
        proc.wait()
    return proc, ready * speed.scale(nominal, before, reference())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(speed.BY_WORKLOAD))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "pdml", "__init__.py")):
        print("error: src/pdml not found; run from a pdml checkout",
              file=sys.stderr)
        return 2

    try:
        return _run(args)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _run(args) -> int:
    started = time.perf_counter()
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            probe, ready = _start(args, ["--setup-only"])
            probe.communicate(timeout=60)
            if probe.returncode != 0:
                raise RuntimeError(f"set-up probe exited {probe.returncode}")
            setup.append(ready)
    worker, ready = _start(args, [])
    setup.append(ready)
    try:
        out, _ = worker.communicate(
            timeout=max(1.0, WORKER_TIMEOUT - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.communicate()
        print("error: worker timed out", file=sys.stderr)
        return 1
    if worker.returncode != 0:
        print(f"error: worker exited {worker.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(out.strip().splitlines()[-1])

    pass_s = statistics.median(raw["pass_times"])
    if args.trace:
        from tracing import LAYER_METRICS

        metrics = {name: {"value": raw["layers"][name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
        metrics["traced_pass_s"] = {"value": pass_s, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "job_p50_ms": {"value": statistics.median(raw["job_times"]) * 1e3,
                           "unit": "ms"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
    for err in raw["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(raw['pass_times'])} passes,"
          f" {raw['attempted']} operations, {raw['failed']} failed; median"
          f" pass {statistics.median(raw['wall_times']):.4f} s wall,"
          f" {pass_s:.4f} s at nominal speed", file=sys.stderr)
    correct = not raw["errors"]
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
