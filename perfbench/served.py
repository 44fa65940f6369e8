"""The ``served-mixed`` workload: two closed-loop clients against a daemon.

``python -m repro serve --workers 2`` runs over a fresh DiskStore.  The
*interactive* client re-submits cheap scenarios whose results the store
already holds (warm hits); the *bulk* client submits ``fig4``/``table1``
under a fresh seed each time (cold misses computed on the daemon's
pool), every ``PAIR_EVERY``-th one twice back to back so the daemon can
coalesce the twin.  Compute is tiny, so service admission, the worker
pool and store reads and writes dominate.

Time is cut into blocks of ``BLOCK_S``.  Between blocks both clients
pause at a barrier, the daemon goes idle, and the host probe runs on
every CPU at once (the daemon, its pool and the clients spread over all
of them); the samples of a block are normalized by the mean of the
probes before and after it.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.scenarios import run_scenario
from repro.service.client import ServiceClient, ServiceError

from perfbench import layers, startup
from perfbench.checks import Ledger, sha256_text
from perfbench.probe import AllCpuProbe, normalize_between
from perfbench.stats import median_or_zero, min_samples_for, percentile
from perfbench.tracing import Tracer

#: Warm, pre-computed cheap scenarios of the interactive client.
INTERACTIVE = ("table1", "fig4", "fig9", "fig1", "fig2", "fig3",
               "beamforming-sweep", "window-sweep")
#: Cold scenarios of the bulk client (fresh seed per submission).
BULK = ("fig4", "table1")
#: Every PAIR_EVERY-th bulk submission is issued twice at once.
PAIR_EVERY = 4
BLOCK_S = 1.0
#: Status poll interval; ServiceClient.wait's 0.2 s default would
#: quantize every latency to 200 ms.
POLL_S = 0.001
DAEMON_LAUNCHES = 5
#: Samples each latency percentile needs beyond p90; the run is extended
#: (up to EXTEND_FACTOR x --seconds) until both clients have them.
MIN_SAMPLES = min_samples_for(90)
#: The daemon keeps every job it admitted, so its peak RSS grows with the
#: jobs served (~15 KB each) and hence with the host's speed.
#: ``peak_rss_mb`` is read at this many jobs; the run is extended until
#: it has served them.
RSS_JOBS = 1000
EXTEND_FACTOR = 3.0
#: A block cannot take this long unless a client is stuck.
BARRIER_TIMEOUT_S = 120.0
_SERVING = re.compile(r"serving on (http://\S+)")


class Daemon:
    """One ``python -m repro serve`` process on an ephemeral port."""

    def __init__(self, store_dir: str, log_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        self._log = open(log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", store_dir,
             "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE, stderr=self._log, text=True, env=env,
            process_group=0)
        try:
            line = self.process.stdout.readline()
            match = _SERVING.search(line)
            if match is None:
                raise RuntimeError(f"daemon did not start: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.url = match.group(1)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", "r",
                  encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM drains the daemon (and closes its pool); wait for it,
        then for every process of its group (pool workers included)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        _reap_group(self.process.pid)
        self.process.stdout.close()
        self._log.close()


def _group_members(pgid: int, live_only: bool = False) -> List[int]:
    """Pids whose process group is ``pgid``; zombies (ended but not yet
    reaped) only unless ``live_only``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="utf-8") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue                      # exited while listing
        if int(fields[2]) == pgid and not (live_only and fields[0] == "Z"):
            members.append(int(entry))
    return members


def _reap_group(pgid: int, timeout: float = 30.0) -> None:
    """Kill what is left of a process group and wait until it is gone.

    The daemon leads its own process group (not its own session: a new
    session would also get its own scheduler autogroup and change how
    the CPUs are shared with the clients), so its pool workers share
    its group; one that outlived it (the daemon was killed, or a retired
    pool generation was still winding down) is killed here.  Orphans
    are reaped by init, so wait until none is listed any more; a zombie
    that init has not reaped by the deadline has ended all the same.
    """
    deadline = time.monotonic() + timeout
    while _group_members(pgid):
        live = _group_members(pgid, live_only=True)
        if live:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass                      # ended while listing
        if time.monotonic() > deadline:
            if live:
                raise RuntimeError(f"processes {live} of group {pgid} "
                                   "did not exit")
            return
        time.sleep(0.01)


def launch(store_dir: str, log_path: str) -> Tuple[Daemon, Dict[str, float]]:
    """Start a daemon; time launch -> first healthy ``/v1/health``."""
    started: List[Daemon] = []

    def start_until_healthy() -> None:
        start = time.perf_counter()
        started.append(Daemon(store_dir, log_path))
        client = ServiceClient(started[0].url, timeout=30.0)
        while True:
            try:
                if client.health().get("status") == "ok":
                    return
            except (OSError, ServiceError):
                pass
            if time.perf_counter() - start > 60:
                raise RuntimeError("daemon never became healthy")
            time.sleep(POLL_S)

    try:
        sample = startup.bracketed(start_until_healthy)
    except BaseException:
        for daemon in started:
            daemon.stop()
        raise
    return started[0], sample


def wait_done(client, job: Dict[str, Any]) -> Dict[str, Any]:
    """Poll a job every ``POLL_S`` until it settles."""
    deadline = time.monotonic() + 60.0
    while job["status"] != "done":
        if job["status"] in ("failed", "cancelled"):
            raise ServiceError(f"job {job['job_id']} {job['status']}: "
                               f"{job.get('error')}", payload=job)
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {job['job_id']} did not settle")
        time.sleep(POLL_S)
        job = client.status(job["job_id"])
    return job


class _Blocks:
    """Barrier-separated measurement blocks shared by the two clients."""

    def __init__(self, n_clients: int) -> None:
        self.barrier = threading.Barrier(n_clients + 1)
        self.block_end = 0.0
        self.index = -1
        self.stop = False


def _client_loop(blocks: _Blocks, step) -> None:
    try:
        while True:
            blocks.barrier.wait()
            if blocks.stop:
                return
            while time.perf_counter() < blocks.block_end:
                step(blocks.index)
            blocks.barrier.wait()
    except threading.BrokenBarrierError:
        return


def run(seed: int, seconds: float, trace: bool, workdir: str,
        ledger: Ledger, digests: Mapping[str, str]) -> Dict[str, object]:
    """Run the workload; returns metric values plus the raw record."""
    setup: List[Dict[str, float]] = []
    daemon: Optional[Daemon] = None
    metrics: Dict[str, float] = {}
    try:
        for index in range(DAEMON_LAUNCHES):
            if daemon is not None:
                daemon.stop()
                daemon = None
            daemon, sample = launch(
                os.path.join(workdir, f"store-{index}"),
                os.path.join(workdir, f"daemon-{index}.log"))
            setup.append(sample)
        if trace:
            metrics.update(startup.import_times())
        client = ServiceClient(daemon.url, timeout=60.0)
        local: Dict[str, bytes] = {}
        for name in INTERACTIVE:
            text = run_scenario(name, rng=0).to_json()
            ledger.check_digest(name, text, digests)
            local[name] = text.encode("utf-8")
            with ledger.operation(f"warm-up {name}"):
                job = wait_done(client, client.submit(name, seed=0))
                ledger.check(client.result_bytes(job["job_id"])
                             == local[name], f"{name}: served != local")
        before = client.stats()
        record = _measure(client, seed, seconds, trace, ledger, local,
                          daemon.peak_rss_mb)
        after = client.stats()
        metrics["peak_rss_mb"] = rss_at_jobs(record["rss_marks"], RSS_JOBS)
    finally:
        if daemon is not None:
            daemon.stop()

    for name, bulk_seed, digest in record.pop("bulk_results"):
        with ledger.operation(f"verify {name} seed {bulk_seed}"):
            ledger.check(sha256_text(run_scenario(name, rng=bulk_seed)
                                     .to_json()) == digest,
                         f"{name} seed {bulk_seed}: served != local")

    metrics["setup_s"] = statistics.median(s["value"] for s in setup)
    metrics.update(_latency_metrics(record, normalized=True))
    raw = {"setup_s": statistics.median(s["raw"] for s in setup),
           **_latency_metrics(record, normalized=False)}
    metrics["host.probe_ms"] = median_or_zero(record["probes"])
    if trace:
        metrics.update(_service_metrics(before, after, record))
    record["setup"] = setup
    return {"metrics": metrics, "raw_metrics": raw, "record": record}


def rss_at_jobs(marks: Sequence[Tuple[int, float]], jobs: int) -> float:
    """Peak RSS at ``jobs`` served jobs, interpolated linearly between
    the ``(jobs served, peak RSS)`` marks that bracket it (extrapolated
    from the last two when the run served fewer)."""
    for (jobs_0, rss_0), (jobs_1, rss_1) in zip(marks, marks[1:]):
        if jobs_1 >= jobs:
            break
    if jobs_1 == jobs_0:
        return rss_1
    return rss_0 + (rss_1 - rss_0) * (jobs - jobs_0) / (jobs_1 - jobs_0)


def _measure(client, seed: int, seconds: float, trace: bool,
             ledger: Ledger, local: Mapping[str, bytes],
             peak_rss: Callable[[], float]) -> Dict[str, Any]:
    """Drive both clients in probe-separated blocks until ``seconds``
    have passed, both latency samples support a p90 and the daemon has
    served ``RSS_JOBS`` jobs.  Between blocks, with the daemon idle, its
    peak RSS is read against the jobs served so far."""
    order = random.Random(seed).sample(INTERACTIVE, len(INTERACTIVE))
    hits: List[Tuple[int, float]] = []
    misses: List[Tuple[int, float]] = []
    bulk_results: List[Tuple[str, int, str]] = []
    jobs_done = [0]
    jobs_lock = threading.Lock()
    counters = {"interactive": 0, "bulk": 0}

    def finished(block: int, samples: List[Tuple[int, float]],
                 start: float) -> None:
        samples.append((block, time.perf_counter() - start))
        with jobs_lock:
            jobs_done[0] += 1

    def interactive(block: int) -> None:
        name = order[counters["interactive"] % len(order)]
        counters["interactive"] += 1
        with ledger.operation(f"hit {name}"):
            start = time.perf_counter()
            job = wait_done(client, client.submit(name, seed=0))
            body = client.result_bytes(job["job_id"])
            finished(block, hits, start)
            ledger.check(body == local[name], f"{name}: served != local")

    def bulk(block: int) -> None:
        count = counters["bulk"]
        counters["bulk"] += 1
        name = BULK[count % len(BULK)]
        bulk_seed = 1_000_000 * (seed + 1) + count
        copies = 2 if count % PAIR_EVERY == 0 else 1
        with ledger.operation(f"miss {name} seed {bulk_seed}"):
            submitted = []
            for _ in range(copies):
                start = time.perf_counter()
                submitted.append((start, client.submit(
                    name, seed=bulk_seed, priority="bulk")))
            bodies = []
            for start, job in submitted:
                job = wait_done(client, job)
                bodies.append(client.result_bytes(job["job_id"]))
                finished(block, misses, start)
            ledger.check(all(body == bodies[0] for body in bodies),
                         f"{name} seed {bulk_seed}: coalesced twins differ")
            bulk_results.append((name, bulk_seed,
                                 hashlib.sha256(bodies[0]).hexdigest()))

    blocks = _Blocks(2)
    threads = [threading.Thread(target=_client_loop, args=(blocks, step),
                                name=f"perfbench-{step.__name__}")
               for step in (interactive, bulk)]
    tracer = Tracer(layers.client_targets()) if trace else None
    cpu_probe = AllCpuProbe()
    probes: List[float] = []
    cpu_probes: List[List[float]] = []

    def probe() -> None:
        per_cpu = cpu_probe.measure()
        cpu_probes.append(per_cpu)
        probes.append(statistics.mean(per_cpu))

    walls: List[float] = []
    block_jobs: List[int] = []
    traced_blocks: List[bool] = []
    rss_marks: List[Tuple[int, float]] = []
    try:
        rss_marks.append((0, peak_rss()))
        for thread in threads:
            thread.start()
        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started
            enough = (len(hits) >= MIN_SAMPLES
                      and len(misses) >= MIN_SAMPLES
                      and jobs_done[0] >= RSS_JOBS)
            if elapsed >= seconds and (enough or
                                       elapsed >= EXTEND_FACTOR * seconds):
                break
            # The traced run alternates untraced and traced blocks.
            traced = tracer is not None and len(probes) % 2 == 1
            with tracer if traced else contextlib.nullcontext():
                probe()
                done_before = jobs_done[0]
                blocks.index = len(probes) - 1
                blocks.block_end = time.perf_counter() + BLOCK_S
                block_start = time.perf_counter()
                blocks.barrier.wait(timeout=BARRIER_TIMEOUT_S)
                blocks.barrier.wait(timeout=BARRIER_TIMEOUT_S)
                walls.append(time.perf_counter() - block_start)
            block_jobs.append(jobs_done[0] - done_before)
            traced_blocks.append(traced)
            rss_marks.append((jobs_done[0], peak_rss()))
        probe()                          # closes the last block
    finally:
        # Breaking the barrier releases every client, wherever it waits.
        blocks.stop = True
        blocks.barrier.abort()
        for thread in threads:
            if thread.is_alive():
                thread.join()
        cpu_probe.close()
    return {"probes": probes, "cpu_probes": cpu_probes, "walls": walls,
            "block_jobs": block_jobs, "rss_marks": rss_marks,
            "traced_blocks": traced_blocks, "hits": hits, "misses": misses,
            "bulk_results": bulk_results,
            "client_ms": ({layer: [1e3 * d for d in tracer.durations(layer)]
                           for layer in ("service.submit", "service.status",
                                         "service.result")}
                          if tracer is not None else {})}


def _latency_metrics(record: Mapping[str, Any],
                     normalized: bool) -> Dict[str, float]:
    """Latency and throughput over the untraced blocks.

    A bulk miss is this workload's cold unit (``cold_s``), an
    interactive hit its warm unit (``warm_ms``, ``warm_p90_ms``).
    """
    probes = record["probes"]
    untraced = [not traced for traced in record["traced_blocks"]]

    def scale(raw: float, block: int) -> float:
        return (normalize_between(raw, probes[block], probes[block + 1])
                if normalized else raw)

    def in_ms(samples: List[Tuple[int, float]]) -> List[float]:
        return [1e3 * scale(raw, block)
                for block, raw in samples if untraced[block]]

    hit = in_ms(record["hits"])
    miss = in_ms(record["misses"])
    rates = [jobs / scale(wall, block)
             for block, (jobs, wall) in enumerate(
                 zip(record["block_jobs"], record["walls"]))
             if untraced[block]]
    metrics = {"cold_s": median_or_zero(miss) / 1e3,
               "warm_ms": median_or_zero(hit),
               "jobs_per_s": median_or_zero(rates)}
    for name, samples in (("warm_p90_ms", hit), ("miss_p90_ms", miss)):
        value = percentile(samples, 90)
        if value is not None:
            metrics[name] = value
    return metrics


def _service_metrics(before: Mapping[str, Any], after: Mapping[str, Any],
                     record: Mapping[str, Any]) -> Dict[str, float]:
    """Per-layer counts from the ``/v1/stats`` delta over the window."""
    def delta(block: str, key: str) -> float:
        return float(after[block].get(key, 0) - before[block].get(key, 0))

    computed = delta("points", "computed")
    store_hits = delta("points", "store_hits")
    coalesced = delta("points", "coalesced")
    # Every admitted point probes the store once; in-daemon store
    # timings need spans inside the program and read 0 here.
    gets = computed + store_hits + coalesced
    client_ms = record["client_ms"]
    metrics = {
        "core.pool.tasks": delta("dispatch", "tasks"),
        "core.pool.broadcasts": delta("dispatch", "broadcasts"),
        "core.pool.broadcast_hits": delta("dispatch", "broadcast_hits"),
        "core.store.gets": gets,
        "core.store.puts": computed,
        "core.store.hit_ratio": store_hits / gets if gets else 0.0,
        "service.computed": computed,
        "service.store_hits": store_hits,
        "service.coalesced": coalesced,
        "service.failed": delta("points", "failed"),
        "service.jobs_retained": float(sum(after["jobs"].values())),
    }
    for layer in ("service.submit", "service.status", "service.result"):
        metrics[f"{layer}_ms"] = median_or_zero(client_ms.get(layer, []))
    probes = record["probes"]
    traced = [normalize_between(raw, probes[block], probes[block + 1])
              for block, raw in record["hits"]
              if record["traced_blocks"][block]]
    plain = [normalize_between(raw, probes[block], probes[block + 1])
             for block, raw in record["hits"]
             if not record["traced_blocks"][block]]
    metrics["trace.overhead_pct"] = (
        100.0 * (median_or_zero(traced) / median_or_zero(plain) - 1.0)
        if plain and traced else 0.0)
    return metrics
