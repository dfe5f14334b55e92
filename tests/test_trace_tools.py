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
* ``emit()`` stores a declared layout's field values as given and
  otherwise behaves as ``record()``;
* ``load_trace`` reads back details whose keys are named like the
  record's own fields (``time``, ``category``, ``event``);
* the hot record sites call ``emit()`` with a declared layout and
  scalar fields, on the random harness, an E22 cell and an avionics
  mission, and they are the only source of those keys' records;
* a record of every declared layout answers the same whether a site
  emitted it, ``record()`` stored it or ``load_trace`` read it back,
  and the same as a ``TraceRecord`` holding its details dict;
* an avionics mission's held records own fewer than 180 bytes each;
* DESIGN.md renders the layout table that ``repro.sim.trace`` declares.
"""

import gc
import json
import pathlib
import pickle
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.bench_service_scenarios import build_scenario
from repro import (DispatcherCosts, EDFScheduler, FaultPlan, HadesSystem,
                   Periodic, Task)
from repro.obs.timeline import timeline_bytes
from repro.services import ActiveReplication, ClockSyncService
from repro.sim.trace import (LAYOUTS, FixedRecord, JsonlStream, TraceRecord,
                             Tracer, layout, load_trace)
from tests.test_hetero import _hetero_scenario
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


#: Every declared layout, as (category, event, fields).
ALL_LAYOUTS = [(category, event, fields)
               for (category, event), variants in LAYOUTS.items()
               for fields in variants]
_SEND_EDGE = layout("network", "send", "link", "msg", "kind", "size",
                    "activation_id", "edge")
_INTERRUPT = layout("kernel", "interrupt", "node", "source", "seq")

_emit_ops = st.lists(
    st.tuples(st.sampled_from(ALL_LAYOUTS), st.integers(0, 20),
              st.integers(0, 5)),
    max_size=40)


class TestEmit:
    def test_keeps_the_given_dict_as_payload(self):
        # Positional form: the values become the record's fields as
        # given, a container included, and nothing else is stored.
        tracer = Tracer(clock=lambda: 5)
        holders = ["a"]
        entry = tracer.emit(_SEND_EDGE, "a->b", 1, "heug-edge", 64, "t#1",
                            holders)
        assert entry.get("edge") is holders
        assert entry.details == {"link": "a->b", "msg": 1,
                                 "kind": "heug-edge", "size": 64,
                                 "activation_id": "t#1", "edge": ["a"]}
        assert (entry.time, entry.category, entry.event) == (5, "network",
                                                             "send")
        assert not hasattr(entry, "__dict__")
        assert tracer.records == (entry,)

    def test_explicit_time_and_unbound_clock(self):
        tracer = Tracer()
        entry = tracer.record("kernel", "interrupt", time=3, node="n0",
                              source="clock", seq=1)
        assert entry.layout is _INTERRUPT and entry.time == 3
        with pytest.raises(RuntimeError):
            tracer.emit(_INTERRUPT, "n0", "clock", 2)
        with pytest.raises(RuntimeError):
            tracer.record("kernel", "interrupt", node="n0", source="clock",
                          seq=2)

    @given(ops=_emit_ops, maxlen=st.none() | st.integers(1, 6),
           allowed=st.none() | st.sets(st.sampled_from(
               ["cpu", "thread", "kernel", "dispatcher", "network"])))
    @settings(max_examples=60, deadline=None)
    def test_behaves_as_record(self, ops, maxlen, allowed):
        """Same records, counters, monotone flag, listener calls and
        return values as record() with the same fields as keywords."""
        clock = [0]
        tracers = [Tracer(clock=lambda: clock[0], maxlen=maxlen,
                          categories=allowed) for _ in range(2)]
        seen = ([], [])
        for tracer, log in zip(tracers, seen):
            tracer.subscribe(log.append)
        returned = ([], [])
        for (category, event, fields), time, value in ops:
            clock[0] = time  # the clock may go back: non-monotone traces
            values = [value] * len(fields)
            returned[0].append(tracers[0].record(
                category, event, **dict(zip(fields, values))))
            returned[1].append(tracers[1].emit(
                layout(category, event, *fields), *values))
        record_side, emit_side = tracers
        assert emit_side.records == record_side.records
        assert [r.layout for r in emit_side] == [r.layout for r in record_side]
        assert returned[1] == returned[0]
        assert seen[1] == seen[0]
        assert (emit_side.filtered, emit_side.dropped) == (
            record_side.filtered, record_side.dropped)
        assert emit_side._monotonic == record_side._monotonic
        assert emit_side.select("cpu", t_min=5) == record_side.select(
            "cpu", t_min=5)


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
        # record() cannot take these keys as keywords, so the first
        # file is written out in the exporter's format.
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        first.write_text(
            json.dumps({"time": 7, "category": "c", "event": "e",
                        "details": self.RESERVED}) + "\n"
            + json.dumps({"time": 9, "category": "c", "event": "plain",
                          "details": {"n": 2}}) + "\n")
        loaded = load_trace(str(first))
        loaded.to_jsonl(str(second))
        assert second.read_bytes() == first.read_bytes()
        assert load_trace(str(second)).records == loaded.records


#: The record keys whose sites call ``emit()`` with a declared layout.
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
    """Checks every ``emit()`` call: each field is a scalar, except a
    ``network/send`` edge, which may be a (snapshotted) container, and
    every position past the layout's fields is None.  Returns a list of
    ((category, event), record, field values) for those calls, to
    compare once the run is over."""
    emit = Tracer.emit
    calls = []

    def checking_emit(self, record_layout, *args):
        key = (record_layout.category, record_layout.event)
        count = len(record_layout.fields)
        values, rest = args[:count], args[count:]
        assert len(values) == count, (key, args)
        assert all(value is None for value in rest), (key, args)
        for name, value in zip(record_layout.fields, values):
            assert (type(value) in _SCALARS
                    or (key, name) == (("network", "send"), "edge")), (
                key, name, value)
        entry = emit(self, record_layout, *args)
        calls.append((key, entry, values))
        return entry

    monkeypatch.setattr(Tracer, "emit", checking_emit)
    return calls


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
    """The converted sites pass scalar fields in a declared layout."""

    def check(self, direct_emits, tracers):
        """No record changed after its emit; only the listed sites emit,
        and every record of their keys came that way, in a fixed
        layout, while every other record keeps its dict.  Returns the
        sites seen."""
        assert set(LAYOUTS) == EMIT_SITES
        for _key, entry, values in direct_emits:
            assert isinstance(entry, FixedRecord)
            assert tuple(entry.details.values()) == values
        sites = {key for key, _entry, _values in direct_emits}
        assert sites <= EMIT_SITES
        held = [entry for tracer in tracers for entry in tracer
                if (entry.category, entry.event) in EMIT_SITES]
        assert len(direct_emits) == len(held)
        assert all(isinstance(entry, FixedRecord) for entry in held)
        assert all(type(entry) is TraceRecord
                   for tracer in tracers for entry in tracer
                   if (entry.category, entry.event) not in EMIT_SITES)
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


_field_values = (st.integers(-3, 10 ** 6) | st.text("ab#>-", max_size=4)
                 | st.booleans() | st.none())


@st.composite
def _layout_rows(draw):
    """One record of a declared layout: (category, event, fields,
    values, clock step).  A network/send edge may be a list."""
    category, event, fields = draw(st.sampled_from(ALL_LAYOUTS))
    values = tuple(
        draw(_field_values | st.lists(st.integers(0, 9), max_size=3)
             if (category, event, name) == ("network", "send", "edge")
             else _field_values)
        for name in fields)
    return category, event, fields, values, draw(st.integers(0, 3))


def _jsonl_line(entry):
    """The exporter's line for a record whose values are JSON-native."""
    return json.dumps({"time": entry.time, "category": entry.category,
                       "event": entry.event,
                       "details": entry.details}) + "\n"


class TestLayoutDifferential:
    """One record, two representations: what a hot site emits, the same
    fields through record(), and the record read back by load_trace all
    match each other and a TraceRecord holding the details dict."""

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(_layout_rows(), min_size=1, max_size=25),
           maxlen=st.none() | st.integers(1, 8),
           pick=st.integers(0, 24), window=st.tuples(st.integers(0, 40),
                                                     st.integers(0, 40)),
           probe=st.none() | _field_values)
    def test_site_record_and_load_agree(self, rows, maxlen, pick, window,
                                        probe, tmp_path_factory):
        clock = [0]
        emitted = Tracer(clock=lambda: clock[0], maxlen=maxlen)
        recorded = Tracer(clock=lambda: clock[0], maxlen=maxlen)
        heard = ([], [])
        emitted.subscribe(heard[0].append)
        recorded.subscribe(heard[1].append)
        generic = []
        # The stream holds every record, so loading it with the same
        # maxlen evicts as the live tracers did.
        path = tmp_path_factory.mktemp("layouts") / "trace.jsonl"
        with emitted.stream_jsonl(str(path)):
            for category, event, fields, values, step in rows:
                clock[0] += step
                emitted.emit(layout(category, event, *fields), *values)
                recorded.record(category, event, **dict(zip(fields, values)))
                generic.append(TraceRecord(clock[0], category, event,
                                           dict(zip(fields, values))))
        assert path.read_text() == "".join(map(_jsonl_line, generic))
        loaded = load_trace(str(path), maxlen=maxlen)
        held = generic[-maxlen:] if maxlen else generic
        sides = (emitted, recorded, loaded)

        assert heard[0] == heard[1] == generic
        for side in sides:
            assert side.dropped == len(generic) - len(held)
            assert list(side) == held and held == list(side)
            for entry, dict_entry in zip(side, held):
                assert entry.layout is layout(entry.category, entry.event,
                                              *dict_entry.details)
                assert repr(entry) == repr(dict_entry)
                assert str(entry) == str(dict_entry)
                assert list(entry.details.items()) == list(
                    dict_entry.details.items())
                copy = pickle.loads(pickle.dumps(entry))
                assert copy.layout is entry.layout and copy == entry
            out = tmp_path_factory.mktemp("export") / "side.jsonl"
            side.to_jsonl(str(out))
            assert out.read_text() == "".join(map(_jsonl_line, held))

        # Detail and window queries, on a key and field the rows hold.
        category, event, fields, values, _ = rows[pick % len(rows)]
        name = fields[pick % len(fields)]
        value = values[pick % len(values)] if probe is None else probe
        t_min, t_max = sorted(window)
        expected = [r for r in held
                    if (r.category, r.event) == (category, event)
                    and r.details.get(name) == value]
        in_window = [r for r in held if r.category == category
                     and t_min <= r.time <= t_max]
        for side in sides:
            assert side.select(category, event, **{name: value}) == expected
            assert side.count(category, event, **{name: value}) == len(
                expected)
            assert side.select(category, t_min=t_min,
                               t_max=t_max) == in_window
            assert side.select(None, event, **{name: value}) == [
                r for r in held
                if r.event == event and r.details.get(name) == value]

    def test_spans_read_both_representations(self):
        """reconstruct() builds the same spans from the fixed-layout
        records as from TraceRecords holding their details dicts; the
        hetero scenario's records carry the engine layouts."""
        hetero = _hetero_scenario().run(until=100_000).system.tracer
        assert any(entry.get("engine") for entry in hetero)
        for tracer in (avionics_mission(300_000).tracer, hetero):
            as_dicts = [TraceRecord(r.time, r.category, r.event, r.details)
                        for r in tracer]
            assert timeline_bytes(as_dicts) == timeline_bytes(tracer)


class TestRecordMemory:
    def test_avionics_records_own_under_180_bytes_each(self):
        """The held records of a 1 s avionics mission own fewer than
        180 B each: the memory freed when the tracer lets go of them,
        per record (a TraceRecord with its details dict owned ~290 B)."""
        tracing = tracemalloc.is_tracing()
        gc.collect()
        if not tracing:
            tracemalloc.start()
        try:
            system = avionics_mission()
            count = len(system.tracer)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            system.tracer._records.clear()
            gc.collect()
            owned = held - tracemalloc.get_traced_memory()[0]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert count > 5_000
        assert owned / count < 180, f"{owned / count:.0f} B per record"


class TestLayoutTable:
    def test_design_md_renders_the_declared_layouts(self):
        design = pathlib.Path(__file__).resolve().parent.parent / "DESIGN.md"
        rows = re.findall(r"^\| `(\w+)/(\w+)` \| `([\w ]+)` \|$",
                          design.read_text(encoding="utf-8"), re.M)
        assert [(category, event, tuple(fields.split()))
                for category, event, fields in rows] == ALL_LAYOUTS
