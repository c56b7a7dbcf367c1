"""Steadiness report: run each workload repeatedly and summarise the spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 [--first-seed 1] [--out report.json]

Every run is a fresh ``perfbench/run.py`` process with its own seed
(``first-seed``, ``first-seed + 1``, ...), on every workload of
``BENCHMARK.json`` and at its ``run_seconds``.  Workloads alternate their order
from one repetition to the next, so a slow spell of the host does not
fall on one workload only.  For each workload and metric the report gives
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, ``(q3 - q1) / median``; the bounds in ``BENCHMARK.json`` are set
from these spreads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    names = [workload["name"] for workload in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = {name: [] for name in names}
    for repetition in range(args.runs):
        order = names if repetition % 2 == 0 else names[::-1]
        for name in order:
            seed = args.first_seed + repetition
            command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {completed.returncode}\n{completed.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            results[name].append(result)
            values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: failed {result['failed']}/{result['attempted']} {values}",
                  file=sys.stderr, flush=True)

    report = {}
    print(f"{'workload':20} {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for name in names:
        report[name] = {}
        for metric in results[name][0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results[name]]
            summary = summarise(values)
            report[name][metric] = {**summary, "values": values}
            bound = bounds.get(metric)
            print(f"{name:20} {metric:32} {summary['median']:12.6g} {summary['q1']:12.6g} "
                  f"{summary['q3']:12.6g} {summary['spread']:7.3f} {'' if bound is None else bound:>6}")
        shares = {r["failed"] / r["attempted"] for r in results[name]}
        report[name]["failed_shares"] = sorted(shares)
    if args.out:
        args.out.write_text(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
