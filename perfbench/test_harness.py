"""Tests of the benchmark harness itself (not of ``repro``).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os

import pytest

from perfbench import probe, stats
from perfbench.checks import Ledger, load_digests, sha256_text
from perfbench.run import select_metrics
from perfbench.startup import parse_importtime
from perfbench.tracing import Target, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class _Base:
    def inherited(self, value):
        return value + 1


class _Layer(_Base):
    def outer(self, value):
        return self.inner(value) * 2

    def inner(self, value):
        return value + 10

    @staticmethod
    def static(value):
        return value * 3

    @classmethod
    def klass(cls, value):
        return (cls.__name__, value)


def _module_function(value):
    return -value


def _targets(module):
    return [Target(_Layer, "outer", "outer"),
            Target(_Layer, "inner", "inner"),
            Target(_Layer, "static", "static"),
            Target(_Layer, "klass", "klass"),
            Target(_Layer, "inherited", "inherited"),
            Target(module, "_module_function", "function")]


def _snapshot(module):
    return ({name: vars(_Layer).get(name) for name in
             ("outer", "inner", "static", "klass", "inherited")},
            vars(module)["_module_function"])


def test_tracer_restores_every_original():
    import perfbench.test_harness as module

    before = _snapshot(module)
    layer = _Layer()
    with Tracer(_targets(module)) as tracer:
        assert vars(_Layer)["outer"] is not before[0]["outer"]
        assert layer.outer(1) == 22
        assert _Layer.static(2) == 6
        assert layer.klass(3) == ("_Layer", 3)
        assert layer.inherited(4) == 5
        assert module._module_function(5) == -5
    after = _snapshot(module)
    assert after[1] is before[1]
    for name, original in before[0].items():
        assert after[0][name] is original, name
    assert "inherited" not in vars(_Layer)
    assert [span.layer for span in tracer.spans] == [
        "outer", "inner", "static", "klass", "inherited", "function"]


def test_tracer_restores_after_an_exception():
    import perfbench.test_harness as module

    before = _snapshot(module)
    with pytest.raises(ZeroDivisionError):
        with Tracer(_targets(module)):
            _Layer().outer(1) / 0
    assert _snapshot(module) == before


def test_tracer_restores_the_real_layer_targets():
    layers = pytest.importorskip("perfbench.layers")
    targets = layers.in_process_targets() + layers.client_targets()
    before = [(t.owner, t.attr, t.attr in vars(t.owner),
               vars(t.owner).get(t.attr)) for t in targets]
    with Tracer(targets):
        pass
    for owner, attr, own, original in before:
        assert (attr in vars(owner)) == own
        assert vars(owner).get(attr) is original, attr


def test_summary_busy_and_self_time():
    import perfbench.test_harness as module

    with Tracer(_targets(module)) as tracer:
        _Layer().outer(1)
    spans = {span.layer: span for span in tracer.spans}
    assert spans["inner"].parent == tracer.spans.index(spans["outer"])
    summary = tracer.summary()
    outer, inner = spans["outer"].duration, spans["inner"].duration
    assert summary["outer"]["busy_s"] == pytest.approx(outer)
    assert summary["outer"]["self_s"] == pytest.approx(outer - inner)
    assert summary["inner"]["self_s"] == pytest.approx(inner)
    assert summary["outer"]["calls"] == 1


def test_nested_same_layer_spans_count_once_in_busy_time():
    calls = []

    class Recursive:
        def step(self, depth):
            calls.append(depth)
            return self.step(depth - 1) if depth else 0

    with Tracer([Target(Recursive, "step", "step")]) as tracer:
        Recursive().step(3)
    summary = tracer.summary()["step"]
    assert summary["calls"] == 4
    assert summary["busy_s"] == pytest.approx(tracer.spans[0].duration)
    assert summary["self_s"] == pytest.approx(tracer.spans[0].duration)


def test_units_are_recorded_and_a_raising_call_counts_zero():
    def hit(fn, args, kwargs):
        return fn(*args, **kwargs), 1

    class Store:
        def get(self, key):
            if key == "missing":
                raise KeyError(key)
            return key

    with Tracer([Target(Store, "get", "get", hit)]) as tracer:
        Store().get("present")
        with pytest.raises(KeyError):
            Store().get("missing")
    assert tracer.summary()["get"]["calls"] == 2
    assert tracer.summary()["get"]["units"] == 1


# ----------------------------------------------------------------------
# statistics and normalization
# ----------------------------------------------------------------------
def test_p90_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(99)), 90) is None
    assert stats.percentile(list(range(100)), 90) == 89
    assert stats.percentile([1.0] * 500, 90) is None
    assert stats.percentile([], 90) is None
    assert stats.min_samples_for(90) == 100
    assert stats.percentile(list(range(stats.min_samples_for(90))),
                            90) is not None


def test_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    result = stats.spread(values)
    assert result["median"] == 5.5
    assert result["iqr_share"] == pytest.approx((8.25 - 2.75) / 5.5)
    assert result["max_over_min"] == 10.0


def test_normalization_arithmetic():
    ref = probe.PROBE_REF_MS
    assert probe.normalize(3.0, ref) == pytest.approx(3.0)
    assert probe.normalize(3.0, 2 * ref) == pytest.approx(1.5)
    assert probe.normalize(3.0, ref / 2) == pytest.approx(6.0)
    assert probe.normalize_between(3.0, ref, 3 * ref) == pytest.approx(1.5)
    assert probe.probe_ms() > 0


def test_split_normalization_leaves_out_probe_time():
    cold = pytest.importorskip("perfbench.cold")
    ref = probe.PROBE_REF_MS
    # [0, 10] with probes running over [2, 3] (read 3*ref) and [6, 8]
    # (read ref); the first probe read ref, the last 3*ref.
    marks = [(2.0, 3.0, 3 * ref), (6.0, 8.0, ref)]
    raw, normalized = cold.split_normalize(0.0, 10.0, ref, marks, 3 * ref)
    assert raw == pytest.approx(2.0 + 3.0 + 2.0)
    assert normalized == pytest.approx(2.0 / 2 + 3.0 / 2 + 2.0 / 2)


def test_all_cpu_probe_measures_every_cpu_and_stops():
    with probe.AllCpuProbe() as all_cpus:
        times = all_cpus.measure()
        processes = list(all_cpus._processes)
    assert len(times) == len(all_cpus.cpus) and min(times) > 0
    assert all(process.poll() is not None for process in processes)


def test_rss_at_jobs_interpolates_between_marks():
    served = pytest.importorskip("perfbench.served")
    marks = [(0, 100.0), (400, 104.0), (900, 109.0), (1300, 113.0)]
    assert served.rss_at_jobs(marks, 400) == pytest.approx(104.0)
    assert served.rss_at_jobs(marks, 1000) == pytest.approx(110.0)
    assert served.rss_at_jobs(marks, 2300) == pytest.approx(123.0)
    assert served.rss_at_jobs([(0, 100.0), (0, 101.0)], 50) == 101.0


@pytest.mark.parametrize("kill_first", [False, True])
def test_stopped_daemon_leaves_no_process_of_its_group(
        tmp_path, monkeypatch, kill_first):
    served = pytest.importorskip("perfbench.served")
    monkeypatch.chdir(ROOT)
    daemon, sample = served.launch(str(tmp_path / "store"),
                                   str(tmp_path / "daemon.log"))
    pgid = daemon.process.pid
    try:
        assert sample["raw"] > 0
        client = served.ServiceClient(daemon.url, timeout=60.0)
        served.wait_done(client, client.submit("table1", seed=7))
        assert len(served._group_members(pgid)) > 1   # pool workers up
        if kill_first:
            # A killed daemon cannot close its pool: the workers are
            # orphaned and only the group clean-up stops them.
            daemon.process.kill()
            daemon.process.wait()
    finally:
        daemon.stop()
    assert served._group_members(pgid, live_only=True) == []


# ----------------------------------------------------------------------
# correctness accounting
# ----------------------------------------------------------------------
def test_seeded_digest_mismatch_counts_as_failed():
    digests = {"table1": sha256_text("expected")}
    ledger = Ledger()
    assert ledger.check_digest("table1", "expected", digests)
    assert not ledger.check_digest("table1", "tampered", digests)
    assert not ledger.check_digest("unknown", "expected", digests)
    assert (ledger.attempted, ledger.failed) == (3, 2)


def test_an_exception_counts_as_one_failed_operation():
    ledger = Ledger()
    with ledger.operation("request"):
        raise ConnectionError("refused")
    with ledger.operation("request"):
        ledger.check(True, "fine")
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_committed_digests_cover_every_workload_scenario():
    from perfbench.served import BULK, INTERACTIVE

    digests = load_digests()
    cold = ("fig8a", "mesh3d-scaling", "noc-sim-crosscheck",
            "coded-ber-adaptive-sweep", "phy-detector-comparison",
            "measured-channel-coded-ber-sweep")
    for name in cold + INTERACTIVE + BULK:
        assert len(digests[name]) == 64, name


# ----------------------------------------------------------------------
# output contract
# ----------------------------------------------------------------------
def test_metrics_follow_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    end_to_end = {m["name"]: 1.0 for m in spec["end_to_end"]}
    selected = select_metrics(spec, end_to_end, trace=False)
    assert list(selected) == [m["name"] for m in spec["end_to_end"]]
    assert selected["setup_s"] == {"value": 1.0, "unit": "s"}
    with pytest.raises(KeyError):
        select_metrics(spec, {}, trace=False)
    layers = select_metrics(spec, {}, trace=True)
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert all(m["value"] == 0.0 for m in layers.values())


def test_parse_importtime():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       120 |        120 |   numpy.core\n"
              "import time:       500 |     640000 |     "
              "repro.coding.density_evolution\n"
              "import time:      2000 |    1300000 | repro\n")
    parsed = parse_importtime(stderr)
    assert parsed["repro"] == pytest.approx(1.3)
    assert parsed["repro.coding.density_evolution"] == pytest.approx(0.64)
    assert "imported package" not in parsed
