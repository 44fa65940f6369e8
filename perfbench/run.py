"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload noc-cold --seed 1 --seconds 15 \\
        --trace 0 [--record FILE]

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``,
``--trace 1`` every per-layer metric (layers a workload does not reach
read 0).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every checked operation passed.  ``--record`` also
writes every raw and normalized sample, the host probe times and the
run's provenance to ``FILE``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("noc-cold", "coded-cold", "served-mixed")
WORK_DIR = ".perfbench_work"


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE",
                        help="write the run's samples and provenance here")
    return parser.parse_args(argv)


def provenance(seed: int) -> Dict[str, Any]:
    import numpy

    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, "r", encoding="utf-8") as stream:
            ref = stream.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path, "r", encoding="utf-8") as stream:
                    commit = stream.read().strip()
        else:
            commit = ref
    return {"commit": commit, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def select_metrics(spec: Dict[str, Any], values: Dict[str, float],
                   trace: bool) -> Dict[str, Dict[str, Any]]:
    """The metrics ``BENCHMARK.json`` lists for this mode, with units.

    A missing end-to-end metric raises ``KeyError``; a per-layer metric
    the workload does not reach reads 0.
    """
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for metric in listed:
        name = metric["name"]
        value = values.get(name, 0.0) if trace else values[name]
        out[name] = {"value": float(value), "unit": metric["unit"]}
    return out


def _terminate(signum: int, frame: object) -> None:
    """SIGTERM unwinds like an error, so every started process is
    stopped and waited for on the way out."""
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: src/repro is missing; run from a full checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    with open("BENCHMARK.json", "r", encoding="utf-8") as stream:
        spec = json.load(stream)

    from perfbench import cold, served
    from perfbench.checks import Ledger, load_digests

    ledger = Ledger()
    digests = load_digests()
    workdir = os.path.join(ROOT, WORK_DIR,
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.workload == "served-mixed":
            outcome = served.run(args.seed, args.seconds, bool(args.trace),
                                 workdir, ledger, digests)
        else:
            outcome = cold.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir, ledger, digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, WORK_DIR))
        except OSError:
            pass                  # another run still uses the directory

    try:
        metrics = select_metrics(spec, outcome["metrics"], bool(args.trace))
    except KeyError as error:
        print(f"perfbench: metric {error} was not measured",
              file=sys.stderr)
        return 1
    if args.record:
        with open(args.record, "w", encoding="utf-8") as stream:
            json.dump({"workload": args.workload, "trace": args.trace,
                       **provenance(args.seed),
                       "metrics": metrics,
                       "raw_metrics": outcome["raw_metrics"],
                       "host_probe_ms": outcome["metrics"]["host.probe_ms"],
                       "samples": outcome["record"]}, stream, indent=1)
    for name, metric in metrics.items():
        print(f"{args.workload:13s} {name:36s} {metric['value']:14.6g} "
              f"{metric['unit']}")
    print(f"{args.workload:13s} {'ops':36s} {ledger.attempted:14d}")
    print(f"{args.workload:13s} {'failed':36s} {ledger.failed:14d}")
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
