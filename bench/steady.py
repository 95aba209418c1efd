"""Steadiness check: the same code in two alternating sets of runs.

    python3 bench/steady.py [--runs N] [--workloads a,b] [--seconds S]

For each workload, runs bench/run.py 2N times, alternating between set A
(seeds 1..N) and set B (seeds N+1..2N), one run at a time. For every
end-to-end metric it prints each set's median and quartiles, each set's
spread (quartile distance over median), the shift of B's median from A's,
and the metric's bound from BENCHMARK.json. It also checks that the share
of failed operations is identical in every run. Results are also written
to bench/out/steady.json. Exit status is 1 if any spread (set-up time
excepted) or shift exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                seed = 1 + i + (args.runs if name == "B" else 0)
                res = run_once(workload, seed, args.seconds)
                sets[name].append(res)
                print(f"{workload} set {name} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                    file=sys.stderr, flush=True)
        shares = {Fraction(r["failed"], r["attempted"])
                  for s in sets.values() for r in s}
        rows = {"failed_share": [str(x) for x in sorted(shares)]}
        if len(shares) != 1:
            ok = False
        print(f"\n{workload}: failed share per run {rows['failed_share']}")
        print(f"  {'metric':<12} {'set':<4} {'q1':>10} {'median':>10} "
              f"{'q3':>10} {'spread':>8} {'shift':>8} {'bound':>6}")
        for metric, bound in bounds.items():
            stats = {}
            for name, runs in sets.items():
                q1, med, q3 = quartiles(
                    [r["metrics"][metric]["value"] for r in runs])
                stats[name] = {"q1": q1, "median": med, "q3": q3,
                               "spread": (q3 - q1) / med}
            shift = stats["B"]["median"] / stats["A"]["median"] - 1
            both = [r["metrics"][metric]["value"]
                    for runs in sets.values() for r in runs]
            q1, med, q3 = quartiles(both)
            rows[metric] = dict(stats, shift=shift, bound=bound,
                                spread_all=(q3 - q1) / med)
            for name in ("A", "B"):
                s = stats[name]
                print(f"  {metric:<12} {name:<4} {s['q1']:>10.4g} "
                      f"{s['median']:>10.4g} {s['q3']:>10.4g} "
                      f"{s['spread']:>8.3f} "
                      f"{(f'{shift:+.3f}' if name == 'B' else ''):>8} "
                      f"{bound:>6}")
            if abs(shift) > bound or (metric != "setup_s" and max(
                    stats["A"]["spread"], stats["B"]["spread"]) > bound):
                ok = False
        report[workload] = rows
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print("\nsteady" if ok else "\nNOT steady: see the rows above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
