"""Trace-layer tooling: detail snapshotting, stream footers, windows.

Covers the trace-layer groundwork the forensics stack sits on:

* ``record()`` snapshots plain-container detail values, so mutating
  the caller's object afterwards cannot rewrite recorded history;
* ``JsonlStream`` exposes filtered/dropped counters scoped to its own
  lifetime and can append them as a footer metadata line;
* ``select``/``count`` accept ``t_min``/``t_max`` time windows, found
  by binary search on monotone traces and by a scan on non-monotone
  ones;
* the per-key query buckets answer exactly what the linear scan of
  ``Tracer(index=False)`` answers, for any interleaving of records,
  queries and ring-buffer evictions;
* listeners may (un)subscribe while a record is being dispatched;
* ``emit()`` stores the given dict as the payload and otherwise
  behaves as ``record()``, which ends in it;
* ``load_trace`` reads back details whose keys are named like the
  record's own fields (``time``, ``category``, ``event``);
* the hot record sites that call ``emit()`` directly hand it a fresh
  dict of scalars, on the random harness, an E22 cell and an avionics
  mission.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.bench_service_scenarios import build_scenario
from repro import (DispatcherCosts, EDFScheduler, FaultPlan, HadesSystem,
                   Periodic, Task)
from repro.services import ActiveReplication, ClockSyncService
from repro.sim.trace import JsonlStream, Tracer, load_trace
from tests.test_trace_invariants_random import build_workload


class TestDetailSnapshotting:
    def test_list_detail_is_copied_on_record(self):
        tracer = Tracer(clock=lambda: 0)
        holders = ["a", "b"]
        entry = tracer.record("cat", "ev", holders=holders)
        holders.append("c")
        holders[0] = "mutated"
        assert entry.details["holders"] == ["a", "b"]

    def test_nested_containers_are_deep_copied(self):
        tracer = Tracer(clock=lambda: 0)
        payload = {"inner": [1, 2], "pair": (3, [4])}
        entry = tracer.record("cat", "ev", payload=payload)
        payload["inner"].append(99)
        payload["pair"][1].append(99)
        payload["new"] = True
        assert entry.details["payload"] == {"inner": [1, 2],
                                            "pair": (3, [4])}

    def test_set_detail_is_copied(self):
        tracer = Tracer(clock=lambda: 0)
        members = {"x"}
        entry = tracer.record("cat", "ev", members=members)
        members.add("y")
        assert entry.details["members"] == {"x"}

    def test_network_send_snapshots_a_container_edge(self):
        # The link emits its send record directly; a container edge
        # from an application payload must not stay shared with it.
        system = HadesSystem(node_ids=["a", "b"])
        edge = [1, 2]
        system.network.interfaces["a"].send(
            "b", {"task": "app", "seq": 1, "edge": edge})
        edge.append(99)
        sends = [r for r in system.tracer
                 if (r.category, r.event) == ("network", "send")]
        assert [r.details["edge"] for r in sends] == [[1, 2]]
        assert sends[0].details["activation_id"] == "app#1"

    def test_scalars_and_exotic_objects_pass_through(self):
        class Opaque:
            pass

        tracer = Tracer(clock=lambda: 0)
        obj = Opaque()
        entry = tracer.record("cat", "ev", n=7, s="txt", o=obj)
        assert entry.details["o"] is obj
        assert entry.details["n"] == 7


class TestStreamFooterAndCounters:
    def test_counters_scoped_to_stream_lifetime(self, tmp_path):
        tracer = Tracer(clock=lambda: 0, maxlen=2,
                        categories={"keep"})
        # Activity before the stream opens must not be charged to it.
        tracer.record("skip", "ev")
        tracer.record("keep", "ev", i=0)
        tracer.record("keep", "ev", i=1)
        tracer.record("keep", "ev", i=2)  # evicts i=0
        assert tracer.filtered == 1 and tracer.dropped == 1

        with tracer.stream_jsonl(str(tmp_path / "s.jsonl")) as stream:
            tracer.record("skip", "ev")
            tracer.record("skip", "ev")
            tracer.record("keep", "ev", i=3)
            tracer.record("keep", "ev", i=4)
            assert stream.written == 2
            assert stream.filtered == 2
            assert stream.dropped == 2

    def test_footer_line_written_and_skipped_on_load(self, tmp_path):
        path = tmp_path / "footer.jsonl"
        tracer = Tracer(clock=lambda: 0, categories={"keep"})
        with tracer.stream_jsonl(str(path), footer=True):
            tracer.record("keep", "ev", i=1)
            tracer.record("drop", "ev")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        footer = json.loads(lines[-1])["footer"]
        assert footer == {"written": 1, "filtered": 1, "dropped": 0,
                          "categories": ["keep"]}
        # load_trace must ignore the metadata line.
        reloaded = load_trace(str(path))
        assert len(reloaded) == 1
        assert reloaded.records[0].details == {"i": 1}

    def test_no_footer_by_default_keeps_stream_equal_to_batch(self,
                                                              tmp_path):
        tracer = Tracer(clock=lambda: 0)
        stream_path = tmp_path / "stream.jsonl"
        with tracer.stream_jsonl(str(stream_path)):
            for i in range(5):
                tracer.record("c", "e", i=i)
        batch_path = tmp_path / "batch.jsonl"
        tracer.to_jsonl(str(batch_path))
        assert stream_path.read_bytes() == batch_path.read_bytes()

    def test_footer_constructor_direct(self, tmp_path):
        tracer = Tracer(clock=lambda: 0)
        stream = JsonlStream(tracer, str(tmp_path / "direct.jsonl"),
                             footer=True)
        tracer.record("c", "e")
        stream.close()
        stream.close()  # idempotent
        lines = (tmp_path / "direct.jsonl").read_text().splitlines()
        footer = json.loads(lines[-1])["footer"]
        assert footer["written"] == 1
        assert footer["categories"] is None


class TestTimeWindowSelect:
    def _tracer(self, index=True):
        tracer = Tracer(clock=lambda: 0, index=index)
        for i in range(100):
            tracer.record("cat", f"ev{i % 2}", time=i * 10, i=i)
        return tracer

    def test_window_bounds_inclusive(self):
        tracer = self._tracer()
        rows = tracer.select("cat", "ev0", t_min=200, t_max=400)
        assert [r.time for r in rows] == [200, 220, 240, 260, 280, 300,
                                          320, 340, 360, 380, 400]

    def test_indexed_and_linear_paths_agree(self):
        indexed = self._tracer(index=True)
        linear = self._tracer(index=False)
        for t_min, t_max in ((None, None), (0, 0), (55, 555),
                             (None, 130), (970, None), (2000, 3000)):
            assert (indexed.select("cat", "ev1", t_min=t_min, t_max=t_max)
                    == linear.select("cat", "ev1", t_min=t_min,
                                     t_max=t_max))

    def test_detail_filter_composes_with_window(self):
        tracer = self._tracer()
        rows = tracer.select("cat", "ev0", t_min=100, t_max=900, i=40)
        assert len(rows) == 1 and rows[0].time == 400
        assert tracer.select("cat", "ev0", t_min=500, i=40) == []

    def test_non_monotonic_trace_still_correct(self):
        tracer = Tracer(clock=lambda: 0)
        tracer.record("cat", "ev", time=100, i=0)
        tracer.record("cat", "ev", time=50, i=1)   # goes back in time
        tracer.record("cat", "ev", time=200, i=2)
        assert tracer._monotonic is False
        rows = tracer.select("cat", "ev", t_min=40, t_max=60)
        assert [r.details["i"] for r in rows] == [1]
        # No early exit: the t=200 record after t=50 must not hide it.
        rows = tracer.select("cat", "ev", t_max=100)
        assert [r.details["i"] for r in rows] == [0, 1]

    def test_count_with_window(self):
        tracer = self._tracer()
        assert tracer.count("cat", "ev0", t_min=200, t_max=400) == 11
        assert tracer.count("cat", None, t_min=0, t_max=90) == 10
        # The no-window fast path still answers from bucket length.
        assert tracer.count("cat", "ev0") == 50

    def test_invalid_usage_unchanged(self):
        tracer = self._tracer()
        with pytest.raises(TypeError):
            tracer.select("cat", "ev0", t_min="soon")


_CATEGORIES = ("a", "b")
_EVENTS = ("x", "y")
_windows = st.none() | st.integers(0, 60)
_keys = st.tuples(st.sampled_from(_CATEGORIES + (None,)),
                  st.sampled_from(_EVENTS + (None,)))
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("record"), st.sampled_from(_CATEGORIES),
                  st.sampled_from(_EVENTS), st.integers(0, 20),
                  st.integers(0, 1)),
        st.tuples(st.sampled_from(["select", "count"]), _keys, _windows,
                  _windows, st.none() | st.integers(0, 1))),
    max_size=80)


class TestBucketIndexDifferential:
    """The per-key buckets against the linear scan of index=False."""

    @settings(max_examples=300, deadline=None)
    @given(operations=_operations,
           maxlen=st.sampled_from([None, 1, 2, 3, 5]),
           monotone=st.booleans())
    def test_matches_linear_scan(self, operations, maxlen, monotone):
        indexed = Tracer(clock=lambda: 0, maxlen=maxlen)
        linear = Tracer(clock=lambda: 0, maxlen=maxlen, index=False)
        now = 0
        for i, operation in enumerate(operations):
            if operation[0] == "record":
                _, category, event, time, v = operation
                # Monotone traces advance by the drawn step; the others
                # jump anywhere in [0, 20].
                now = now + time if monotone else time
                for tracer in (indexed, linear):
                    tracer.record(category, event, time=now, v=v, i=i)
                continue
            kind, (category, event), t_min, t_max, v = operation
            details = {} if v is None else {"v": v}
            args = (category, event)
            window = {"t_min": t_min, "t_max": t_max}
            if kind == "select":
                assert (indexed.select(*args, **window, **details)
                        == linear.select(*args, **window, **details))
            else:
                assert (indexed.count(*args, **window, **details)
                        == linear.count(*args, **window, **details))
        assert indexed.records == linear.records
        if monotone:  # the windows above went through the bisect path
            assert indexed._monotonic

    def test_buckets_scan_only_new_records(self):
        tracer = Tracer(clock=lambda: 0)
        for i in range(10):
            tracer.record("a", "x" if i % 2 else "y", time=i)
        assert tracer._by_cat_event is None
        assert tracer.count("a", "x") == 5
        bucket = tracer._by_cat_event[("a", "x")]
        assert bucket.watermark == 10
        tracer.record("a", "x", time=10)
        tracer.record("b", "x", time=11)
        assert [r.time for r in tracer.select("a", "x", t_min=7)] == [7, 9,
                                                                      10]
        assert bucket.watermark == 12
        assert list(tracer._by_cat_event) == [("a", "x")]


class TestListenerDispatch:
    def test_unsubscribe_during_dispatch_keeps_the_next_listener(self):
        tracer = Tracer(clock=lambda: 0)
        seen = []

        def first(entry):
            seen.append(("first", entry.event))
            tracer.unsubscribe(first)

        tracer.subscribe(first)
        tracer.subscribe(lambda entry: seen.append(("second", entry.event)))
        tracer.record("c", "one")
        tracer.record("c", "two")
        assert seen == [("first", "one"), ("second", "one"),
                        ("second", "two")]

    def test_subscribe_during_dispatch_starts_at_the_next_record(self):
        tracer = Tracer(clock=lambda: 0)
        late = []

        def add_late(entry):
            if entry.event == "one":
                tracer.subscribe(late.append)

        tracer.subscribe(add_late)
        tracer.record("c", "one")
        tracer.record("c", "two")
        assert [entry.event for entry in late] == ["two"]

    def test_unsubscribe_unknown_listener_is_a_no_op(self):
        tracer = Tracer(clock=lambda: 0)
        seen = []
        tracer.subscribe(seen.append)
        tracer.unsubscribe(print)
        tracer.record("c", "one")
        assert len(seen) == 1


_emit_ops = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["x", "y"]),
              st.none() | st.integers(0, 20), st.integers(0, 5)),
    max_size=40)


class TestEmit:
    def test_keeps_the_given_dict_as_payload(self):
        tracer = Tracer(clock=lambda: 5)
        details = {"n": 1, "holders": ["a"]}
        entry = tracer.emit("cat", "ev", details)
        assert entry.details is details
        assert (entry.time, entry.category, entry.event) == (5, "cat", "ev")
        assert tracer.records == (entry,)

    def test_explicit_time_and_unbound_clock(self):
        tracer = Tracer()
        assert tracer.emit("cat", "ev", {}, time=3).time == 3
        with pytest.raises(RuntimeError):
            tracer.emit("cat", "ev", {})

    @given(ops=_emit_ops, maxlen=st.none() | st.integers(1, 6),
           allowed=st.none() | st.sets(st.sampled_from(["a", "b", "c"])))
    @settings(max_examples=60, deadline=None)
    def test_behaves_as_record(self, ops, maxlen, allowed):
        """Same records, counters, monotone flag, listener calls and
        return values as record() for scalar details."""
        clock = [0]
        tracers = [Tracer(clock=lambda: clock[0], maxlen=maxlen,
                          categories=allowed) for _ in range(2)]
        seen = ([], [])
        for tracer, log in zip(tracers, seen):
            tracer.subscribe(log.append)
        returned = ([], [])
        for category, event, time, value in ops:
            clock[0] += 1
            returned[0].append(tracers[0].record(category, event,
                                                 time=time, v=value))
            returned[1].append(tracers[1].emit(category, event,
                                               {"v": value}, time))
        record_side, emit_side = tracers
        assert emit_side.records == record_side.records
        assert returned[1] == returned[0]
        assert seen[1] == seen[0]
        assert (emit_side.filtered, emit_side.dropped) == (
            record_side.filtered, record_side.dropped)
        assert emit_side._monotonic == record_side._monotonic
        assert emit_side.select("a", t_min=5) == record_side.select(
            "a", t_min=5)


class TestLoadTraceReservedKeys:
    """A record's details may hold keys named like its own fields."""

    RESERVED = {"time": 3, "category": "inner", "event": "nested", "n": 1}

    def test_reads_back_a_one_line_file(self, tmp_path):
        path = tmp_path / "reserved.jsonl"
        path.write_text(json.dumps({"time": 7, "category": "c",
                                    "event": "e",
                                    "details": self.RESERVED}) + "\n")
        (entry,) = load_trace(str(path)).records
        assert (entry.time, entry.category, entry.event) == (7, "c", "e")
        assert entry.details == self.RESERVED

    def test_round_trips_byte_for_byte(self, tmp_path):
        tracer = Tracer(clock=lambda: 0)
        tracer.emit("c", "e", dict(self.RESERVED), time=7)
        tracer.record("c", "plain", time=9, n=2)
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        tracer.to_jsonl(str(first))
        reloaded = load_trace(str(first))
        assert reloaded.records == tracer.records
        reloaded.to_jsonl(str(second))
        assert second.read_bytes() == first.read_bytes()


#: The record sites that hand ``emit()`` their details directly.
EMIT_SITES = frozenset([
    ("cpu", "dispatch"), ("cpu", "complete"), ("cpu", "preempt"),
    ("cpu", "withdraw"), ("thread", "block"), ("kernel", "interrupt"),
    ("dispatcher", "activate"), ("dispatcher", "set_params"),
    ("dispatcher", "thread_start"), ("dispatcher", "eu_done"),
    ("dispatcher", "edge_satisfied"), ("dispatcher", "remote_edge_sent"),
    ("dispatcher", "remote_edge_recv"), ("dispatcher", "instance_done"),
    ("network", "send"), ("network", "deliver"),
])
_SCALARS = (int, float, str, bool, type(None))


@pytest.fixture
def direct_emits(monkeypatch):
    """Checks every ``emit()`` call not made by ``record()``: each one
    passes a dict of scalars.  Returns a list of ((category, event),
    details, snapshot) for those calls, to compare once the run is
    over."""
    record, emit = Tracer.record, Tracer.emit
    inside_record = [0]
    payloads = []

    def checking_record(self, *args, **kwargs):
        inside_record[0] += 1
        try:
            return record(self, *args, **kwargs)
        finally:
            inside_record[0] -= 1

    def checking_emit(self, category, event, details, time=None):
        if not inside_record[0]:
            assert type(details) is dict, (category, event, details)
            bad = {key: value for key, value in details.items()
                   if type(value) not in _SCALARS}
            assert not bad, (category, event, bad)
            payloads.append(((category, event), details, dict(details)))
        return emit(self, category, event, details, time)

    monkeypatch.setattr(Tracer, "record", checking_record)
    monkeypatch.setattr(Tracer, "emit", checking_emit)
    return payloads


def avionics_mission(until=1_000_000):
    """Four drifting-clock nodes with background activities, clock sync,
    a replicated flight plan, periodic HEUGs with remote precedence and
    a lossy link, as in benchmarks/e2e's avionics workload."""
    nodes = ("sensor", "flight", "actuator", "fms")
    system = HadesSystem(node_ids=nodes, costs=DispatcherCosts(),
                         network_latency=150, network_jitter=30, seed=7,
                         background_activities=True,
                         clock_drifts={"sensor": 60e-6, "flight": -40e-6,
                                       "actuator": 25e-6, "fms": -70e-6})
    for node in nodes:
        system.attach_scheduler(EDFScheduler(scope=node, w_sched=2))
        ClockSyncService(system.network, system.nodes[node], nodes, f=1,
                         resync_period=250_000)
    plan = ActiveReplication(system.network, "fms", nodes[:3])
    cycle = Task("cycle", deadline=15_000, arrival=Periodic(period=20_000),
                 node_id="sensor")
    stages = [cycle.code_eu(name, wcet=wcet, node_id=node)
              for name, wcet, node in (("acquire", 800, "sensor"),
                                       ("law", 2_500, "flight"),
                                       ("actuate", 600, "actuator"))]
    cycle.precede(stages[0], stages[1])
    cycle.precede(stages[1], stages[2])
    system.register_periodic(cycle, count=until // 20_000)
    system.sim.call_at(until // 2,
                       lambda: plan.submit(("set", "waypoint", 1)))
    FaultPlan(seed=7).link_omission(until // 3, "sensor", "flight",
                                    probability=0.05).apply(system)
    system.run(until=until)
    return system


def running_abort():
    """A unit killed while it holds the CPU (the cpu/withdraw site)."""
    system = HadesSystem(node_ids=["n0"], costs=DispatcherCosts.zero(),
                         on_deadline_miss="abort")
    late = Task("late", deadline=100, node_id="n0")
    late.code_eu("a", wcet=500)
    system.activate(late)
    system.run()
    return system


class TestEmitSites:
    """The converted sites pass only scalars, in a dict of their own."""

    def check(self, direct_emits, tracers):
        """No payload shared or touched after its emit; only the listed
        sites emit directly, and every record of theirs came that way.
        Returns the sites seen."""
        assert len({id(details) for _key, details, _ in direct_emits}) == (
            len(direct_emits))
        for _key, details, snapshot in direct_emits:
            assert details == snapshot
        sites = {key for key, _details, _snapshot in direct_emits}
        assert sites <= EMIT_SITES
        assert len(direct_emits) == sum(
            1 for tracer in tracers for entry in tracer
            if (entry.category, entry.event) in EMIT_SITES)
        return sites

    def test_random_harness_and_running_abort(self, direct_emits):
        systems = [build_workload(seed)[0] for seed in range(24)]
        for system in systems:
            system.run()
        systems.append(running_abort())
        sites = self.check(direct_emits, [s.tracer for s in systems])
        assert ("cpu", "withdraw") in sites

    def test_edf_overload_cell(self, direct_emits):
        result = build_scenario("edf", 10, 60_000).run(until=60_000)
        assert self.check(direct_emits, [result.system.tracer]) == (
            EMIT_SITES - {("cpu", "withdraw")})

    def test_avionics_mission(self, direct_emits):
        system = avionics_mission()
        assert self.check(direct_emits, [system.tracer]) == (
            EMIT_SITES - {("cpu", "withdraw")})
