"""Steadiness of the benchmark: run every workload repeatedly and print the
median and quartiles of each metric, to set and check the bounds in
BENCHMARK.json.

    python3 bench/steady.py --runs 10 --seconds 30
    python3 bench/steady.py --runs 5 --workloads classify --traced 1

Runs alternate between the workloads, reversing the order on every pass,
and each run gets its own seed (``--seed0`` + pass number).  The spread of
a metric is (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``.  Each run also reports the
reference loop of run.py at its start and end: when that loop slows down
together with a metric, the machine drifted, not the program.

With ``--traced 1`` every pass also makes one traced run per workload; the
tracing overhead is 1 - (traced ops/s) / (untraced ops/s), medians over
the passes.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("search", "classify", "session")


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit("run failed (%s %s): %s" % (workload, seed, proc.stderr[-2000:]))
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    return detail, result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    p.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.runs < 4:
        p.error("quartiles need at least four runs")

    runs = {w: [] for w in args.workloads}
    traced = {w: [] for w in args.workloads}
    for i in range(args.runs):
        order = args.workloads if i % 2 == 0 else args.workloads[::-1]
        for w in order:
            detail, result = one_run(w, args.seed0 + i, args.seconds, 0)
            runs[w].append((detail, result))
            m = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            ref = detail["reference_loop_ms"]
            print("%-12s seed %-4d correct=%s attempted=%d failed=%d ref=%.2f/%.2fms %s" % (
                w, args.seed0 + i, result["correct"], result["attempted"], result["failed"],
                ref["start"], ref["end"], m), flush=True)
            if args.traced:
                traced[w].append(one_run(w, args.seed0 + i, args.seconds, 1))

    print()
    print("%-12s %-16s %12s %12s %12s %8s" % ("workload", "metric", "median", "q1", "q3", "spread"))
    for w in args.workloads:
        names = runs[w][0][1]["metrics"]
        for name in names:
            values = [r["metrics"][name]["value"] for _, r in runs[w]]
            med, q1, q3, s = spread(values)
            print("%-12s %-16s %12.4f %12.4f %12.4f %7.1f%%" % (w, name, med, q1, q3, 100 * s))
        shares = {r["failed"] / r["attempted"] for _, r in runs[w]}
        refs = [d["reference_loop_ms"][k] for d, _ in runs[w] for k in ("start", "end")]
        print("%-12s failed share %s, all correct %s, reference loop %.2f ms (%.2f-%.2f)" % (
            w, sorted(shares), all(r["correct"] for _, r in runs[w]),
            statistics.median(refs), min(refs), max(refs)))
        if args.traced:
            plain = statistics.median(r["metrics"]["ops_per_s"]["value"] for _, r in runs[w])
            slow = statistics.median(
                r["metrics"]["trace.ops_per_s"]["value"] for _, r in traced[w])
            print("%-12s tracing overhead %.1f%% (ops/s %.3f untraced, %.3f traced)" % (
                w, 100 * (1 - slow / plain), plain, slow))
    return 0


if __name__ == "__main__":
    sys.exit(main())
