"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload allsky_blockzipf --seed 1 --seconds 15 --trace 0

The workload's inputs are generated from ``--seed`` into
``perfbench/.work/``, set up ``SETUPS`` times in two bursts, before and
after the timed phase, run in whole rounds for ``--seconds`` of measured
time and at least ``MIN_ROUNDS`` rounds, and checked against the
independent oracles of ``perfbench/oracle.py``.  Human-readable
lines go to standard error; the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  The exit code is 1 when an answer fails its check.
"""

from __future__ import annotations

import os
import sys

# The measured process runs with BLAS/OpenMP pools of one thread (one
# process on a shared two-core host) and a fixed string-hash seed, so that
# set and dict iteration orders, and the work that follows them, repeat.
PINNED_ENVIRONMENT = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENVIRONMENT.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENVIRONMENT})

import argparse
import json
import resource
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: ``(name, unit)`` of the end-to-end metrics, as in BENCHMARK.json.
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
#: ``ops_per_s`` is the median of the per-round rates, and a run holds at
#: least ``MIN_ROUNDS`` rounds, so that ten rates lie on either side of it.
MIN_ROUNDS = 20
#: Set-ups per run, in two bursts of half as many, before the timed phase
#: and after the checks, so that one slow spell of the host does not set
#: ``setup_s``.  ``setup_s`` is their ``SETUP_QUANTILE`` quantile: ten
#: set-ups lie below it.
SETUPS = 40
SETUP_QUANTILE = 0.25


def quantile(values, share: float) -> float:
    """``share`` quantile of ``values``, interpolated inside their range."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def measure_setups(workload, times: list) -> None:
    """Append one burst of set-up times; the last set-up stays in place."""
    for _ in range(SETUPS // 2):
        if times:
            workload.discard()
        started = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - started)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        log(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import oracle
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
        return 2
    oracle.selftest()

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(workloads.WORKLOADS[args.workload](args.seed, workdir), args, spans)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()


def run(workload, args, spans) -> int:
    workload.generate()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        setup_times: list = []
        measure_setups(workload, setup_times)
        traced_setups = len(setup_times)
        setup = tracer.reset() if tracer else None

        attempted = failed = 0
        timed = 0.0
        rates = []
        while timed < args.seconds or len(rates) < MIN_ROUNDS:
            ops, fails, seconds = workload.round()
            attempted += ops
            failed += fails
            timed += seconds
            rates.append((ops - fails) / seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer:
            tracer.remove()

    try:
        workload.check()
        measure_setups(workload, setup_times)
    finally:
        workload.close()
    completed = attempted - failed
    correct = not workload.problems

    log(f"{workload.name} seed={args.seed}: {workload.rounds} rounds, {attempted} operations "
        f"({failed} failed) in {timed:.3f} s measured")
    log(f"  round rates (1/s): {' '.join(f'{rate:.4g}' for rate in rates)}")
    for name, value in sorted(workload.notes.items()):
        log(f"  {name}: {value}")
    for message in workload.problems:
        log(f"  CHECK FAILED: {message}")

    if tracer:
        counts = {"ops": completed, "ops_per_s": statistics.median(rates), "setups": traced_setups}
        counts.update(workload.trace_counts())
        values = spans.layer_metrics(tracer, setup, counts)
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit, _ in spans.LAYER_METRICS
        }
        tracer.write(workload.workdir.parent / f"trace-{workload.name}-{args.seed}.jsonl")
    else:
        values = {
            "ops_per_s": statistics.median(rates),
            "setup_s": quantile(setup_times, SETUP_QUANTILE),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, metric in metrics.items():
        log(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
