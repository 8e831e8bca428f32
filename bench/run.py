"""Benchmark of toricsing: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0

Run from anywhere: the program is imported from ``src/`` next to this
directory, never from an installed copy.  The run

1. runs one warm-up pass, then whole rounds of the workload as a closed loop
   until ``--seconds`` have passed.  Untraced runs also time 41 fresh
   interpreters importing ``toricsing`` and ``toricsing.cli`` (set-up),
   spread between the rounds and outside the measured time,
2. checks every output against the reference computations in oracles.py;
   every run of an operation whose output is wrong counts as failed,
3. prints a detail line and, last, one JSON object: ``correct``,
   ``attempted``, ``failed`` and the metrics -- the end-to-end ones with
   ``--trace 0``, the per-layer ones (spans recorded by tracer.py) with
   ``--trace 1``.  Traced runs also write their spans to ``bench/runs/``.

Exit status 0 when the run completed (``correct`` tells whether the outputs
were right), 2 when the program cannot be found or the arguments are bad.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

SETUP_SAMPLES = 41
IMPORT_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import toricsing, toricsing.cli\n"
    "t1 = time.perf_counter()\n"
    "assert toricsing.__file__.startswith(sys.argv[1]), toricsing.__file__\n"
    "print(repr(t1 - t0))\n"
)


def import_program():
    init = SRC / "toricsing" / "__init__.py"
    if not init.is_file():
        raise SystemExit("bench: no program at %s" % init.parent)
    sys.path.insert(0, str(SRC))
    import toricsing
    import toricsing.cli  # noqa: F401  (registers the submodules)

    if not Path(toricsing.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit("bench: imported toricsing from %s" % toricsing.__file__)
    return toricsing


class SetupSampler:
    """Import times of fresh interpreters, taken in step with the timed
    phase: by the end of a round that has used a share f of the measuring
    time, f * SETUP_SAMPLES samples are taken.  The machine's speed drifts
    over seconds, so a median over the whole run is steadier than one over
    a burst of samples."""

    def __init__(self):
        self.samples = []
        self._sample()  # unrecorded: it may compile bytecode

    def _sample(self):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        return float(proc.stdout.strip())

    def catch_up(self, share):
        while len(self.samples) < min(1.0, share) * SETUP_SAMPLES:
            self.samples.append(self._sample())


def reference_loop():
    """A fixed pure-Python loop (ms, median of 5): drift of the machine,
    not of the program.  A diagnostic only."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        s = 0
        for i in range(100000):
            s += i * i % 7
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def tail(latencies):
    """The highest percentile with ten samples beyond it, but no higher
    than p99: with thousands of samples, the slowest 0.1% are the
    operations a busy shared machine happened to preempt, and their
    latency is the scheduler's, not the program's."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(0, n - 1 - max(10, n // 100))
    return xs[k], 100.0 * (k + 1) / n, n - k - 1


def run(workload, ts, seconds, tracer=None, setup=None):
    """The timed phase: whole rounds until `seconds` have passed, not
    counting the set-up samples taken between rounds."""
    for op in workload.warmup():
        workload.call(ts, op)
    latencies, failed = array("d"), 0
    stdout_bytes = 0
    if tracer is not None:
        tracer.install(ts)
    paused = 0.0
    t_start = time.perf_counter()
    j = 0
    while True:
        for op in workload.round(j):
            sid = tracer.root(len(latencies)) if tracer is not None else None
            t0 = time.perf_counter()
            try:
                out = workload.call(ts, op)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            t1 = time.perf_counter()
            if sid is not None:
                tracer.close(sid)
            latencies.append(t1 - t0)
            if isinstance(out, Exception) or workload.failed(op, out):
                failed += 1
                print("bench: %s failed: %r" % (op, out), file=sys.stderr)
            else:
                if isinstance(out, tuple):
                    stdout_bytes += len(out[1].encode())
                workload.keep(op, out)
        j += 1
        if setup is not None:
            t_pause = time.perf_counter()
            setup.catch_up((t_pause - t_start - paused) / seconds)
            paused += time.perf_counter() - t_pause
        if time.perf_counter() - t_start - paused >= seconds:
            break
    elapsed = time.perf_counter() - t_start - paused
    if setup is not None:
        setup.catch_up(1.0)
    if tracer is not None:
        tracer.uninstall()
    return latencies, failed, elapsed, j, stdout_bytes


def main(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        ts = import_program()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    setup = None if args.trace else SetupSampler()
    ref_start = reference_loop()
    latencies, failed, elapsed, rounds, stdout_bytes = run(
        workload, ts, args.seconds, tracer, setup
    )
    ref_end = reference_loop()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = workload.check(ts) + workload.repeat_errors()
    for op, e in errors[:20]:
        print("bench: wrong output of %s: %s" % (op, e), file=sys.stderr)
    wrong = {op for op, _ in errors}
    failed += sum(workload.kept[op] for op in wrong)

    n = len(latencies)
    tail_value, tail_pct, beyond = tail(latencies)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "samples": n, "elapsed_s": elapsed,
        "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
        "wrong_outputs": len(wrong),
        "reference_loop_ms": {"start": ref_start, "end": ref_end},
    }
    if args.trace:
        from tracer import per_layer_metrics

        runs_dir = HERE / "runs"
        runs_dir.mkdir(exist_ok=True)
        spans_path = runs_dir / ("spans-%s.csv.gz" % args.workload)
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = per_layer_metrics(tracer, n, elapsed, stdout_bytes)
    else:
        samples = setup.samples
        detail["setup_samples_s"] = {"min": min(samples), "max": max(samples), "n": len(samples)}
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "ops_per_s": (n / elapsed, "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "latency_tail_ms": (1e3 * tail_value, "ms"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not errors,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
