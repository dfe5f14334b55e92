"""Tests for the observability layer: metrics registry, run reports,
tracer ring buffer / queries / streaming export, and the JSONL
round-trip fidelity fix."""

import json

import pytest

from repro.core import DispatcherCosts, EUAttributes, Task
from repro.core.monitoring import ViolationKind
from repro.obs import (
    MetricsRegistry,
    NULL_METRICS,
    RunReport,
    aggregate_reports,
)
from repro.obs.metrics import DEFAULT_BUCKETS, HistogramSnapshot
from repro.sim.trace import Tracer, load_trace
from repro.system import HadesSystem
from tests.conftest import count_calls, select_oracle


class TestMetricsPrimitives:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        # get-or-create returns the same object
        assert registry.counter("x") is counter

    def test_gauge_tracks_max(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(3)
        gauge.set(10)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.max_value == 10
        assert gauge.samples == 3

    def test_histogram_buckets_and_stats(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(10, 100, 1000))
        for value in (5, 10, 11, 500, 5000):
            hist.observe(value)
        assert hist.counts == [2, 1, 1, 1]  # <=10, <=100, <=1000, overflow
        assert hist.count == 5
        assert hist.total == 5526
        assert hist.min_value == 5
        assert hist.max_value == 5000
        assert hist.mean() == pytest.approx(5526 / 5)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", buckets=(10, 5))

    def test_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        registry.gauge("g").set(7)
        registry.histogram("h", buckets=(10,)).observe(4)
        report = registry.snapshot(run="r1")
        assert report.counter("a") == 3
        assert report.gauges["g"] == {"value": 7, "max": 7}
        assert report.histograms["h"].count == 1
        assert report.meta["run"] == "r1"
        registry.reset()
        after = registry.snapshot()
        assert after.counter("a") == 0
        assert after.histograms["h"].count == 0
        # the cached metric objects stay live after reset
        registry.counter("a").inc()
        assert registry.snapshot().counter("a") == 1

    def test_null_registry_is_shared_noop(self):
        counter = NULL_METRICS.counter("anything")
        assert counter is NULL_METRICS.counter("else")
        counter.inc(100)
        assert counter.value == 0
        NULL_METRICS.gauge("g").set(5)
        NULL_METRICS.histogram("h").observe(5)
        report = NULL_METRICS.snapshot(tag=1)
        assert report.counters == {}
        assert report.meta == {"tag": 1}
        assert not NULL_METRICS.enabled


class TestRunReport:
    def make_report(self, c=1, g=2, n=1):
        registry = MetricsRegistry()
        registry.counter("hits").inc(c)
        registry.gauge("depth").set(g)
        hist = registry.histogram("lat", buckets=(10, 100))
        for _ in range(n):
            hist.observe(50)
        return registry.snapshot()

    def test_flat_shape(self):
        flat = self.make_report(c=3, g=4, n=2).flat()
        assert flat["hits"] == 3
        assert flat["depth.value"] == 4
        assert flat["depth.max"] == 4
        assert flat["lat.count"] == 2
        assert flat["lat.mean"] == pytest.approx(50.0)

    def test_dict_round_trip(self):
        report = self.make_report()
        clone = RunReport.from_dict(
            json.loads(json.dumps(report.to_dict())))
        assert clone == report

    def test_round_trip_preserves_order_and_types(self):
        # The parallel campaign executor ships reports across process
        # boundaries as dicts; merged results must be byte-identical to
        # serial, which needs key order and int/float to survive JSON.
        registry = MetricsRegistry()
        for name in ("z.last", "a.first", "m.middle"):
            registry.counter(name).inc(1)
        registry.gauge("g").set(3)
        registry.histogram("h", buckets=(10,)).observe(4)
        report = registry.snapshot(seed=7, scenario="E9")
        clone = RunReport.from_dict(
            json.loads(json.dumps(report.to_dict())))
        assert clone == report
        # snapshot() normalises counters to sorted name order (so the
        # wire format is registration-order independent) and the
        # round-trip must keep that order untouched.
        assert list(clone.counters) == ["a.first", "m.middle", "z.last"]
        assert list(clone.meta) == ["seed", "scenario"]
        assert isinstance(clone.counters["z.last"], int)
        assert isinstance(clone.meta["seed"], int)
        assert isinstance(clone.histograms["h"].buckets, tuple)
        assert json.dumps(clone.to_dict()) == json.dumps(report.to_dict())
        assert clone.flat() == report.flat()

    def test_aggregate_sums_counters_and_histograms(self):
        merged = aggregate_reports([self.make_report(c=1, g=2, n=1),
                                    self.make_report(c=4, g=6, n=3)])
        assert merged.counter("hits") == 5
        assert merged.gauges["depth"] == {"value": 4.0, "max": 6}
        assert merged.histograms["lat"].count == 4
        assert merged.meta["runs"] == 2

    def test_aggregate_rejects_mismatched_buckets(self):
        a = RunReport(histograms={"h": HistogramSnapshot(
            (10,), (1, 0), 1, 5, 5, 5)})
        b = RunReport(histograms={"h": HistogramSnapshot(
            (20,), (1, 0), 1, 5, 5, 5)})
        with pytest.raises(ValueError):
            aggregate_reports([a, b])

    def test_quantile(self):
        hist = MetricsRegistry().histogram("q", buckets=(10, 100, 1000))
        for value in (1, 2, 50, 60, 70, 800):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap.quantile(0.0) == 10
        assert snap.quantile(0.5) == 100
        assert snap.quantile(1.0) == 1000
        assert HistogramSnapshot((10,), (0, 0), 0, 0, None, None).quantile(0.5) is None

    def test_quantile_edge_cases(self):
        empty = HistogramSnapshot((10, 100), (0, 0, 0), 0, 0, None, None)
        for q in (0.0, 0.5, 1.0):
            assert empty.quantile(q) is None

        single = MetricsRegistry().histogram("s", buckets=(10,))
        single.observe(5)
        snap = single.snapshot()
        assert snap.quantile(0.0) == 10
        assert snap.quantile(1.0) == 10

        # Observations past the last bound live in the overflow bucket:
        # no finite upper bound exists for quantiles that land there.
        over = MetricsRegistry().histogram("o", buckets=(10,))
        over.observe(5)
        over.observe(999)
        snap = over.snapshot()
        assert snap.quantile(0.5) == 10
        assert snap.quantile(1.0) is None

        # Empty buckets below the minimum hold no rank: q = 0 is the
        # bucket of the smallest observation, not the first bound.
        high = MetricsRegistry().histogram("h")
        for _ in range(3):
            high.observe(3000)
        snap = high.snapshot()
        assert snap.min_value == 3000
        assert snap.quantile(0.0) == 5000
        assert snap.quantile(1.0) == 5000

        with pytest.raises(ValueError):
            snap.quantile(-0.1)
        with pytest.raises(ValueError):
            snap.quantile(1.1)

    def test_quantiles_survive_report_round_trip(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(10, 100, 1000))
        for value in (1, 2, 50, 60, 70, 800):
            hist.observe(value)
        report = registry.snapshot()
        clone = RunReport.from_dict(
            json.loads(json.dumps(report.to_dict())))
        original = report.histograms["lat"]
        restored = clone.histograms["lat"]
        for q in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
            assert restored.quantile(q) == original.quantile(q)


class TestInstrumentedSystem:
    def run_workload(self, metrics):
        system = HadesSystem(node_ids=["n0", "n1"],
                             costs=DispatcherCosts.zero(), metrics=metrics)
        task = Task("pipe", deadline=100, node_id="n0")
        a = task.code_eu("a", wcet=10, attrs=EUAttributes(prio=1))
        b = task.code_eu("b", wcet=10, node_id="n1")
        task.precede(a, b)
        hog = Task("hog", node_id="n0")
        hog.code_eu("h", wcet=500, attrs=EUAttributes(prio=2))
        system.activate(task)
        system.activate(hog)
        system.run()
        return system

    def test_counters_match_trace_and_monitor(self):
        system = self.run_workload(metrics=True)
        report = system.run_report()
        tracer = system.tracer
        assert report.counter("dispatcher.activations") == \
            tracer.count("dispatcher", "activate") == 2
        assert report.counter("dispatcher.thread_starts") == \
            tracer.count("dispatcher", "thread_start") == 3
        assert report.counter("dispatcher.eu_completions") == \
            tracer.count("dispatcher", "eu_done") == 3
        assert report.counter("cpu.preemptions") == \
            tracer.count("cpu", "preempt")
        assert report.counter("network.messages_delivered") == \
            tracer.count("network", "deliver")
        assert report.histograms["network.latency"].count == \
            tracer.count("network", "deliver")
        # The pipeline crosses the network: deadline 100 < latency, miss.
        misses = system.monitor.count(ViolationKind.DEADLINE_MISS)
        assert misses >= 1
        assert report.counter("violations.deadline_miss") == misses
        assert report.counter("violations.total") == system.monitor.count()
        assert report.counter("engine.events_fired") > 0
        assert report.gauges["engine.heap_depth"]["max"] > 0
        assert report.meta["sim_time"] == system.sim.now

    def test_disabled_metrics_report_is_empty(self):
        system = self.run_workload(metrics=None)
        report = system.run_report()
        assert report.counters == {}
        assert report.histograms == {}
        assert report.meta["trace_records"] == len(system.tracer)

    def test_registry_instance_can_be_shared(self):
        registry = MetricsRegistry()
        system = self.run_workload(metrics=registry)
        assert system.metrics is registry
        assert registry.snapshot().counter("dispatcher.activations") == 2

    def test_metrics_add_at_most_9_percent_of_calls(self):
        """The counted twin of E14b's timed 10% ceiling, on its shape:
        the avionics rate groups at the default constants for 400 ms.
        An enabled registry costs about 7.2% more calls here; resolving
        each cpu/dispatcher hot-site counter by name on every ``inc()``
        costs about 10%."""
        from benchmarks.bench_overhead import run_setting
        costs = DispatcherCosts()
        on = count_calls(run_setting, costs, metrics=True)
        off = count_calls(run_setting, costs, metrics=False)
        assert on / off <= 1.09, f"metrics on/off calls {on / off:.4f}"


class TestTracerRingBuffer:
    def fill(self, tracer, n=10):
        for i in range(n):
            tracer.record("cat", f"ev{i % 3}", time=i, k=i)

    def test_bounded_keeps_tail(self):
        tracer = Tracer(clock=lambda: 0, maxlen=4)
        self.fill(tracer, 10)
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert [r.time for r in tracer.records] == [6, 7, 8, 9]

    def test_bad_maxlen_rejected(self):
        with pytest.raises(ValueError):
            Tracer(clock=lambda: 0, maxlen=0)

    def test_index_consistent_after_eviction(self):
        bounded = Tracer(clock=lambda: 0, maxlen=5)
        assert bounded.count("cat") == 0
        self.fill(bounded, 12)
        for event in (None, "ev0", "ev1", "ev2"):
            expected = select_oracle(bounded, "cat", event)
            assert bounded.select("cat", event) == expected
            assert bounded.count("cat", event) == len(expected)
        assert bounded.select("cat", "ev0", k=9) == \
            select_oracle(bounded, "cat", "ev0", k=9)

    def test_index_built_lazily_matches_scan(self):
        tracer = Tracer(clock=lambda: 0)
        for i in range(50):
            tracer.record(f"c{i % 4}", f"e{i % 5}", time=i, v=i % 2)
        for category in ("c0", "c1", "c2", "c3", "missing"):
            for event in (None, "e0", "e3", "missing"):
                assert tracer.select(category, event) == \
                    select_oracle(tracer, category, event)
        assert tracer.select("c1", "e2", v=1) == \
            select_oracle(tracer, "c1", "e2", v=1)
        assert tracer.count("c2") == len(select_oracle(tracer, "c2"))
        # A record added after a query shows in the next one.
        tracer.record("c0", "e0", time=99, v=0)
        assert tracer.select("c0", "e0") == select_oracle(tracer, "c0", "e0")


class TestJsonlRoundTrip:
    def test_round_trip_is_type_faithful(self, tmp_path):
        tracer = Tracer(clock=lambda: 0)
        tracer.record("a", "mixed", time=5, i=3, f=2.5, b=True, s="x",
                      none=None, lst=[1, "two", 3.0, False],
                      dct={"k": 1, "nested": {"deep": [True]}})
        tracer.record("a", "other", time=6, neg=-7)
        path = tmp_path / "trace.jsonl"
        assert tracer.to_jsonl(str(path)) == 2
        loaded = load_trace(str(path))
        assert loaded.records == tracer.records  # typed equality, not str
        detail = loaded.records[0].details
        assert type(detail["i"]) is int
        assert type(detail["f"]) is float
        assert type(detail["b"]) is bool
        assert detail["none"] is None
        assert detail["lst"] == [1, "two", 3.0, False]
        assert detail["dct"]["nested"]["deep"] == [True]

    def test_non_native_values_stringified_at_write_time(self, tmp_path):
        tracer = Tracer(clock=lambda: 0)
        tracer.record("a", "enumish", time=1,
                      kind=ViolationKind.DEADLINE_MISS, tup=(1, 2))
        path = tmp_path / "trace.jsonl"
        tracer.to_jsonl(str(path))
        loaded = load_trace(str(path))
        detail = loaded.records[0].details
        assert detail["kind"] == str(ViolationKind.DEADLINE_MISS)
        assert detail["tup"] == [1, 2]  # JSON has no tuples
        # and a second round trip is now a fixed point
        path2 = tmp_path / "trace2.jsonl"
        loaded.to_jsonl(str(path2))
        assert load_trace(str(path2)).records == loaded.records

    def test_stream_jsonl_captures_evicted_records(self, tmp_path):
        tracer = Tracer(clock=lambda: 0, maxlen=3)
        path = tmp_path / "stream.jsonl"
        with tracer.stream_jsonl(str(path)) as stream:
            for i in range(10):
                tracer.record("c", "e", time=i, k=i)
        assert stream.written == 10
        assert len(tracer) == 3  # ring kept only the tail...
        loaded = load_trace(str(path))
        assert len(loaded) == 10  # ...but the stream kept everything
        assert [r.time for r in loaded.records] == list(range(10))
        # closing detached the listener: new records are not written
        tracer.record("c", "e", time=99)
        assert load_trace(str(path)).records == loaded.records
