"""One run of one workload, in a fresh process started by run.py.

Prints READY once pdml is imported and the run's first inputs are built,
then one JSON line with the raw timings, counts and check results. With
--setup-only it stops after READY, so run.py can sample set-up time in
several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# At least this many timed passes, however long each takes.
MIN_PASSES = 3

def run_pass(jobs, failures: set):
    """Run every job's operations, timing each job; report each kind of
    failure once."""
    for job in jobs:
        t0 = time.perf_counter()
        for name, thunk in job.ops:
            try:
                job.results[name] = thunk()
            except Exception as e:  # counted as a failed operation
                msg = f"{job.key[0]} {name}: {type(e).__name__}: {e}"
                job.failed.append(msg)
                if (job.key[0], name) not in failures:
                    failures.add((job.key[0], name))
                    print(f"operation failed: {msg}", file=sys.stderr)
        job.seconds = time.perf_counter() - t0


def check_pass(jobs) -> list[str]:
    errors = []
    for job in jobs:
        try:
            errors += job.check(job.results)
        except Exception as e:
            errors.append(f"{job.key}: check raised {type(e).__name__}: {e}")
    return errors


def merge_children(wl, bucket, keep: bool, extra: list):
    """Fold the span summaries that traced CLI children wrote."""
    import workloads

    for path, wall, stdout in wl.child_spans:
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        os.remove(path)
        bucket.merge(child["bucket"])
        meta = workloads.report_section(stdout, "meta")
        handler_ms = int(meta[0].split("=")[1]) if meta else 0
        ns = bucket.ns
        ns["cli.import"] = ns.get("cli.import", 0) + child["import_ns"]
        ns["cli.handler"] = ns.get("cli.handler", 0) + handler_ms * 10**6
        ns["cli.startup"] = ns.get("cli.startup", 0) + int(
            wall * 1e9) - handler_ms * 10**6
        if keep:
            extra.extend(dict(s, child=os.path.basename(path))
                         for s in child["spans"])
    wl.child_spans.clear()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import pdml  # noqa: F401  (imports every pdml module)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(f"{args.workload}/{args.seed}")
        tracing.install(tracer)
        tracer.begin("setup")
    # Imported after the wrappers are in place, so that its from-imports of
    # pdml functions bind the wrapped ones.
    import workloads

    outdir = os.path.join(HERE, "out", f"{args.workload}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliCold:
        launcher = None
        if args.trace:
            launcher = [sys.executable, os.path.join(HERE, "cli_launcher.py")]
        wl = cls(args.seed, outdir, launcher)
    else:
        wl = cls(args.seed, outdir)
    try:
        wl.setup()
        jobs = wl.make_pass(0)
        if tracer:
            tracer.end()
        print("READY", flush=True)
        if args.setup_only:
            return 0

        failures: set = set()
        run_pass(jobs, failures)            # warm-up: untimed, not counted
        errors = check_pass(jobs)
        wl.child_spans.clear()

        reference, nominal = speed.BY_WORKLOAD[args.workload]
        pass_times, job_times, buckets = [], [], []
        wall_times = []
        attempted = failed = 0
        extra: list = []
        timed = 0.0
        i = 1
        while timed < args.seconds or len(pass_times) < MIN_PASSES:
            try:
                jobs = wl.make_pass(i)
            except workloads.Exhausted:
                if len(pass_times) < MIN_PASSES:
                    raise
                break
            ref = reference()
            bucket = tracer.begin(f"pass{i}") if tracer else None
            t0 = time.perf_counter()
            run_pass(jobs, failures)
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end()
                merge_children(wl, bucket, i == 1, extra)
                buckets.append(bucket.to_json())
            factor = speed.scale(nominal, ref, reference())
            wall_times.append(dt)
            pass_times.append(dt * factor)
            timed += dt
            for job in jobs:
                job_times.append(job.seconds * factor)
                attempted += len(job.ops)
                failed += len(job.failed)
            errors += check_pass(jobs)
            i += 1
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    who = (resource.RUSAGE_CHILDREN if cls is workloads.CliCold
           else resource.RUSAGE_SELF)
    result = {
        "wall_times": wall_times,
        "pass_times": pass_times,
        "job_times": job_times,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = tracing.layer_values(
            tracer.buckets[0].to_json(), buckets)
        trace_path = os.path.join(
            HERE, "out", f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write(trace_path, extra)
        print(f"trace written to {os.path.relpath(trace_path, ROOT)}",
              file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
