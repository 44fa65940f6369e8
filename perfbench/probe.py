"""The host probe: a small, fixed, single-threaded reference workload.

Wall time on a shared virtual machine drifts with the host by tens of
percent over tens of seconds, and CPU time drifts with it.  Timing this
probe right before each benchmark sample measures how fast the host is
*now*; every reported timing is ``raw * PROBE_REF_MS / probe_ms``.

The probe mixes the kinds of work the benchmarked stack spends its time
in — Python bytecode, small and cache-exceeding NumPy operations, and
``json``/``hashlib`` — and never imports ``repro``, so no change to the
program under test can move it.

The host changes speed about once a second, so a sample is normalized
by the mean of the probes taken right before and right after it
(:func:`normalize_between`); a sample of seconds is cut into shorter
intervals with a probe between each (see :mod:`perfbench.cold`).  Changing the probe invalidates every
recorded baseline: re-measure ``PROBE_REF_MS`` and the baseline table in
``README.md`` together.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from typing import List

import numpy as np

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Median probe time on the reference host (2-vCPU KVM guest, Python
#: 3.11, NumPy 2.4).  A constant, so normalized timings stay in s/ms.
PROBE_REF_MS = 5.0

_SMALL = np.linspace(-1.0, 1.0, 256)
# 1 MiB: larger than L2, like the BP message arrays and NoC queues.
_LARGE = np.random.default_rng(0).standard_normal((256, 512))
_RECORD = {"points": [{"params": {"ebn0_db": i * 0.25, "frontend": "bpsk"},
                       "value": [i, i * 0.5, str(i)]} for i in range(24)]}


def _probe_once() -> float:
    checksum = 0
    for i in range(3000):
        checksum = (checksum * 31 + i * i) % 1_000_003
    small = _SMALL
    for _ in range(60):
        small = np.clip(small * 0.97 + 0.01, -1.0, 1.0)
        checksum += int(np.count_nonzero(small > 0.5))
    large = _LARGE
    for _ in range(3):
        large = np.clip(large * 0.97 + 0.01, -1.0, 1.0)
        checksum += int(np.count_nonzero(large > 0.5))
    for _ in range(6):
        text = json.dumps(_RECORD, sort_keys=True)
        checksum += len(json.loads(text)["points"])
        checksum += hashlib.sha256(text.encode("utf-8")).digest()[0]
    return float(checksum)


#: Probe runs per measurement; the median is reported.
REPEATS = 3


def probe_ms() -> float:
    """Median wall time of the probe over ``REPEATS`` runs, in ms."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _probe_once()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def normalize(raw: float, probe: float) -> float:
    """``raw`` rescaled to the reference host speed."""
    return raw * PROBE_REF_MS / probe


def normalize_between(raw: float, before: float, after: float) -> float:
    """``raw`` rescaled by the mean of the probes that bracket it."""
    return normalize(raw, (before + after) / 2.0)


def _pinned_probe_loop(cpu: int) -> None:
    """Probe process body: pinned to ``cpu``, probe on every input line,
    exit when standard input closes."""
    os.sched_setaffinity(0, {cpu})
    for _ in sys.stdin:
        print(repr(probe_ms()), flush=True)


class AllCpuProbe:
    """The probe on every CPU at once, one pinned process per CPU.

    A workload spread over several processes slows down when *any* CPU
    it uses does; one probe in the benchmark's own thread sees only the
    CPU it happens to run on.  :meth:`measure` runs the probe on all
    CPUs concurrently and returns the mean time.  The processes idle in
    a blocking read between measurements.  They are plain subprocesses
    (``python -m perfbench.probe --cpu N``) rather than
    ``multiprocessing`` ones, whose spawn start method leaves a resource
    tracker process behind that outlives the benchmark.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self._processes: List[subprocess.Popen] = []
        try:
            for cpu in self.cpus:
                self._processes.append(subprocess.Popen(
                    [sys.executable, "-m", "perfbench.probe",
                     "--cpu", str(cpu)],
                    cwd=_ROOT, stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, text=True))
        except BaseException:
            self.close()
            raise

    def measure(self) -> List[float]:
        """Per-CPU probe times (ms), measured concurrently."""
        for process in self._processes:
            process.stdin.write("\n")
            process.stdin.flush()
        times = []
        for process in self._processes:
            line = process.stdout.readline()
            if not line:
                raise RuntimeError(f"probe process {process.pid} exited")
            times.append(float(line))
        return times

    def close(self) -> None:
        """Close every probe's input and wait until each has exited."""
        for process in self._processes:
            try:
                process.stdin.close()
            except OSError:
                pass                  # the process is already gone
        for process in self._processes:
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()

    def __enter__(self) -> "AllCpuProbe":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--cpu":
        sys.exit("usage: python -m perfbench.probe --cpu N")
    _pinned_probe_loop(int(sys.argv[2]))
