"""The cold-then-warm campaign workloads: ``noc-cold`` and ``coded-cold``.

One repetition computes the campaign serially (``n_workers=1``) into a
fresh :class:`~repro.core.store.DiskStore`, then replays it
``WARM_REPLAYS`` times from new store handles on the same directory.
The loop is closed: the next sample starts when the previous one
returned.

A host probe runs between consecutive warm samples, and each warm
sample is normalized by the mean of the probes before and after it.  A
cold campaign lasts seconds, longer than the host holds one speed, so
the cold store also runs the probe after each point it stores: that
cuts the cold sample into per-point intervals, each normalized by the
probes that bracket it.  The probe time itself is left out of the cold
time.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import statistics
import time
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.store import DiskStore
from repro.scenarios import Campaign, CampaignEntry

from perfbench import layers, startup
from perfbench.checks import Ledger
from perfbench.probe import normalize_between, probe_ms
from perfbench.stats import median_or_zero, min_samples_for, percentile
from perfbench.tracing import Target, Tracer

#: The campaigns.  Scenario seeds are always 0 (the default), so every
#: cold repetition is checked against the committed digests and every
#: run does the same amount of Monte-Carlo work; the workload seed only
#: permutes the campaign's entry order.
CAMPAIGNS: Dict[str, Sequence[str]] = {
    "noc-cold": ("fig8a", "mesh3d-scaling", "noc-sim-crosscheck"),
    "coded-cold": ("coded-ber-adaptive-sweep", "phy-detector-comparison",
                   "measured-channel-coded-ber-sweep"),
}

#: Warm replays after each cold campaign; fixed so that per-repetition
#: counts in the traced run repeat exactly.
WARM_REPLAYS = 40

#: At least this many repetitions, however short ``--seconds`` is.
MIN_REPETITIONS = 2

#: A run may extend to this multiple of ``--seconds`` to collect enough
#: warm samples for a p90.
EXTEND_FACTOR = 3.0


def campaign_order(workload: str, seed: int) -> List[str]:
    names = list(CAMPAIGNS[workload])
    random.Random(seed).shuffle(names)
    return names


class ProbedStore(DiskStore):
    """A DiskStore that probes the host after every put."""

    def __init__(self, root: str) -> None:
        super().__init__(root)
        #: (probe start, probe end, probe ms) after each put.
        self.marks: List[Tuple[float, float, float]] = []

    def put(self, key: str, value: object) -> None:
        super().put(key, value)
        self.marks.append(self.probe())

    def probe(self) -> Tuple[float, float, float]:
        start = time.perf_counter()
        probe = probe_ms()
        return start, time.perf_counter(), probe


def split_normalize(start: float, end: float, first_probe: float,
                    marks: Sequence[Tuple[float, float, float]],
                    last_probe: float) -> Tuple[float, float]:
    """Raw and normalized time of ``[start, end]`` without the probes.

    ``marks`` are the probes taken inside the interval; each piece
    between two probes is normalized by the mean of those two.
    """
    raw = normalized = 0.0
    opened, probe = start, first_probe
    for probe_start, probe_end, next_probe in marks:
        raw += probe_start - opened
        normalized += normalize_between(probe_start - opened, probe,
                                        next_probe)
        opened, probe = probe_end, next_probe
    raw += end - opened
    normalized += normalize_between(end - opened, probe, last_probe)
    return raw, normalized


def _replay(names: Sequence[str], store) -> List[str]:
    """One campaign run against ``store``, as JSON per entry."""
    result = Campaign([CampaignEntry(name, seed=0) for name in names]).run(
        store=store, n_workers=1)
    return [entry.to_json() for entry in result]


def _repetition(names: Sequence[str], root: str, ledger: Ledger,
                digests: Mapping[str, str]) -> Dict[str, object]:
    """One cold campaign and its warm replays; raw and normalized times."""
    store = ProbedStore(root)
    first_probe = probe_ms()
    start = time.perf_counter()
    cold = _replay(names, store)
    end = time.perf_counter()
    # Closes the last cold interval and opens the first warm sample.
    probes = [probe_ms()]
    cold_raw, cold_normalized = split_normalize(
        start, end, first_probe, store.marks, probes[0])
    for name, text in zip(names, cold):
        ledger.check_digest(name, text, digests)
    warm: List[float] = []
    for _ in range(WARM_REPLAYS):
        with ledger.operation("warm replay"):
            start = time.perf_counter()
            replay = _replay(names, DiskStore(root))
            warm.append(time.perf_counter() - start)
            probes.append(probe_ms())
            ledger.check(replay == cold, "warm replay bytes != cold bytes")
    return {"probe_ms": first_probe, "cold_raw": cold_raw,
            "cold": cold_normalized,
            "cold_probe_ms": [mark[2] for mark in store.marks],
            "warm_raw": warm,
            "warm": [normalize_between(raw, before, after) for raw, before,
                     after in zip(warm, probes, probes[1:])],
            "warm_probe_ms": probes}


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: str, ledger: Ledger,
        digests: Mapping[str, str]) -> Dict[str, object]:
    """Run the workload; returns metric values plus the raw record."""
    names = campaign_order(workload, seed)
    setup = startup.setup_samples(names)
    metrics: Dict[str, float] = {}
    if trace:
        metrics.update(startup.import_times())

    # The probes inside the cold campaign get spans of their own, so they
    # do not count as core.engine self time.
    tracer = (Tracer(layers.in_process_targets()
                     + [Target(ProbedStore, "probe", "host.probe")])
              if trace else None)
    plain: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    layer_rows: List[Dict[str, float]] = []
    started = time.perf_counter()
    # The untraced run goes on past ``seconds`` until the warm samples
    # support a p90 (a traced run does not report one), but not forever.
    needed = 0 if trace else min_samples_for(90)
    index = 0
    while (index < MIN_REPETITIONS
           or time.perf_counter() - started < seconds
           or (WARM_REPLAYS * len(plain) < needed
               and time.perf_counter() - started < EXTEND_FACTOR * seconds)):
        root = os.path.join(workdir, f"store-{index}")
        # The traced run alternates untraced and traced repetitions so
        # the difference between them is the tracing overhead.
        traced_rep = tracer is not None and index % 2 == 1
        with ledger.operation(f"repetition {index}"):
            if traced_rep:
                tracer.reset()
                with tracer:
                    record = _repetition(names, root, ledger, digests)
                scale = record["cold"] / record["cold_raw"]
                row = layers.in_process_metrics(tracer.summary())
                layer_rows.append({
                    name: value * scale if layers.is_time_metric(name)
                    else value for name, value in row.items()})
                traced.append(record)
            else:
                record = _repetition(names, root, ledger, digests)
                plain.append(record)
        shutil.rmtree(root, ignore_errors=True)
        index += 1

    metrics["setup_s"] = statistics.median(s["value"] for s in setup)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    metrics["cold_s"] = median_or_zero([r["cold"] for r in plain])
    warm = [1e3 * w for r in plain for w in r["warm"]]
    metrics["warm_ms"] = median_or_zero(warm)
    if percentile(warm, 90) is not None:
        metrics["warm_p90_ms"] = percentile(warm, 90)
    metrics["host.probe_ms"] = median_or_zero(
        [probe for r in plain + traced
         for probe in [r["probe_ms"], *r["cold_probe_ms"],
                       *r["warm_probe_ms"]]])
    if trace:
        for name in layer_rows[0] if layer_rows else ():
            metrics[name] = statistics.median(row[name]
                                              for row in layer_rows)
        metrics["trace.cold_s"] = median_or_zero([r["cold"] for r in traced])
        # Overhead from the warm replays: they cross the most wrapped
        # boundaries per second and give many samples per repetition.
        traced_warm = median_or_zero([w for r in traced for w in r["warm"]])
        metrics["trace.overhead_pct"] = (
            100.0 * (traced_warm / metrics["warm_ms"] * 1e3 - 1.0)
            if metrics["warm_ms"] else 0.0)
    warm_raw = [1e3 * w for r in plain for w in r["warm_raw"]]
    raw = {"setup_s": statistics.median(s["raw"] for s in setup),
           "cold_s": median_or_zero([r["cold_raw"] for r in plain]),
           "warm_ms": median_or_zero(warm_raw),
           "warm_p90_ms": percentile(warm_raw, 90)}
    return {"metrics": metrics, "raw_metrics": raw,
            "record": {"setup": setup, "repetitions": plain,
                       "traced_repetitions": traced,
                       "order": names}}
