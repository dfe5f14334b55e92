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
* listeners may (un)subscribe while a record is being dispatched.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.trace import JsonlStream, Tracer, load_trace


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
