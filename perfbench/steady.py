"""Steadiness report: run one workload K times and compare spreads to bounds.

Usage, from the repository root::

    python3 perfbench/steady.py --workload coded-cold --runs 10 \\
        [--first-seed 1] [--seconds N] [--out FILE]

Each run uses the next seed.  For every end-to-end metric the report
prints the median over the runs, the quartile spread as a share of the
median (``statistics.quantiles(values, n=4)``) and max/min, next to the
metric's bound in ``BENCHMARK.json``; ``steady`` means the spread is
below a third of the bound.  ``--out`` writes every run's record: raw
and normalized values, ``host.probe_ms``, commit, seed, nproc, Python
and NumPy versions.  The exit code is non-zero when any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from statistics import median
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.run import WORK_DIR, WORKLOADS  # noqa: E402
from perfbench.stats import spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)
    with tempfile.NamedTemporaryFile(
            dir=os.path.join(ROOT, WORK_DIR), suffix=".json") as record:
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0",
             "--record", record.name],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if not completed.stdout.strip():
            raise RuntimeError(f"{workload} seed {seed} printed no result:"
                               f"\n{completed.stderr}")
        summary = json.loads(completed.stdout.strip().splitlines()[-1])
        with open(record.name, "r", encoding="utf-8") as stream:
            details = json.load(stream)
    details["exit_code"] = completed.returncode
    details["correct"] = summary["correct"]
    details["attempted"] = summary["attempted"]
    details["failed"] = summary["failed"]
    return details


def report(spec: Dict[str, Any], runs: List[Dict[str, Any]]) -> List[str]:
    lines = [f"{'metric':14s} {'median':>12s} {'raw median':>12s} "
             f"{'iqr/median':>10s} {'max/min':>8s} {'bound':>6s}  verdict"]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in runs]
        # Non-timings (peak_rss_mb) have no separate raw value.
        raw = [run["raw_metrics"].get(name, run["metrics"][name]["value"])
               for run in runs]
        result = spread(values)
        verdict = ("steady" if result["iqr_share"] < metric["bound"] / 3
                   else "within bound" if result["iqr_share"]
                   <= metric["bound"] else "TOO NOISY")
        lines.append(
            f"{name:14s} {result['median']:12.5g} "
            f"{median(raw):12.5g} {result['iqr_share']:10.3f} "
            f"{result['max_over_min']:8.3f} {metric['bound']:6.2f}  "
            f"{verdict}")
    probes = [run["host_probe_ms"] for run in runs]
    lines.append(f"{'host.probe_ms':14s} {spread(probes)['median']:12.5g} "
                 f"{'':12s} {spread(probes)['iqr_share']:10.3f} "
                 f"{spread(probes)['max_over_min']:8.3f}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--out", metavar="FILE")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        run = run_once(args.workload, seed, args.seconds)
        runs.append(run)
        print(f"seed {seed}: exit {run['exit_code']} "
              f"ops {run['attempted']} failed {run['failed']} "
              + " ".join(f"{name}={metric['value']:.5g}"
                         for name, metric in run["metrics"].items()),
              flush=True)
    for line in report(spec, runs):
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "runs": runs}, stream, indent=1)
    return 0 if all(run["exit_code"] == 0 and run["correct"]
                    for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
