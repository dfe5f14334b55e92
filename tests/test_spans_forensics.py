"""Causal span reconstruction and deadline-miss forensics."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import DispatcherCosts, EUAttributes, HadesSystem, Task
from repro.core.resources import AccessMode, Resource
from repro.network.link import OmissionFault, PerformanceFault
from repro.obs.forensics import analyze_miss, forensics_report
from repro.obs.spans import (
    CpuSlice,
    SpanForest,
    critical_path,
    decompose,
    reconstruct,
)


def run_contended_system():
    """Victim task with a remote edge, preempted and blocked on n0."""
    system = HadesSystem(node_ids=["n0", "n1"])
    bus = Resource("bus", node_id="n0")

    victim = Task("victim", deadline=1_500)
    sense = victim.code_eu("sense", wcet=300, node_id="n0",
                           resources=[(bus, AccessMode.EXCLUSIVE)],
                           attrs=EUAttributes(prio=10))
    act = victim.code_eu("act", wcet=200, node_id="n1",
                         attrs=EUAttributes(prio=10))
    victim.precede(sense, act)

    holder = Task("holder")
    holder.code_eu("hold", wcet=400, node_id="n0",
                   resources=[(bus, AccessMode.EXCLUSIVE)],
                   attrs=EUAttributes(prio=20))

    hog = Task("hog")
    hog.code_eu("spin", wcet=500, node_id="n0",
                attrs=EUAttributes(prio=30))

    system.activate(holder.validate())
    system.activate(hog.validate())
    system.activate(victim.validate())
    system.run(until=10_000)
    return system


class TestReconstruction:
    def test_activation_and_eu_spans(self):
        system = run_contended_system()
        forest = reconstruct(system.tracer)
        assert set(forest.activations) == {"victim#1", "holder#1", "hog#1"}

        victim = forest.activations["victim#1"]
        assert victim.activation_time == 0
        assert victim.deadline == 1_500
        assert victim.finished
        assert victim.response_time == victim.finish_time
        assert set(victim.eus) == {"sense", "act"}

        sense = victim.eus["sense"]
        assert sense.node == "n0"
        states = {seg.state for seg in sense.segments}
        # sense must have been blocked on the bus and short of CPU.
        assert "blocked:resource" in states
        assert "running" in states
        blocked = [s for s in sense.segments
                   if s.state == "blocked:resource"]
        assert blocked[0].detail["resource"] == "bus"
        assert "holder#1/hold" in blocked[0].detail["holders"]

        # Segments are disjoint, ordered, and closed.
        for eu in victim.eus.values():
            last_end = None
            for seg in eu.segments:
                assert seg.end is not None and seg.end > seg.start
                if last_end is not None:
                    assert seg.start >= last_end
                last_end = seg.end

    def test_remote_edge_and_message_correlation(self):
        system = run_contended_system()
        forest = reconstruct(system.tracer)
        victim = forest.activations["victim#1"]
        assert list(victim.edges) == [0]
        edge = victim.edges[0]
        assert (edge.src, edge.dst) == ("sense", "act")
        assert edge.remote
        assert edge.message is not None
        assert edge.message.kind == "heug-edge"
        assert edge.message.activation_id == "victim#1"
        assert edge.message.outcome == "delivered"
        assert edge.message in victim.messages
        # Normalised ids are dense, 1-based, first-send ordered.
        assert [m.norm_id for m in forest.messages] == \
            list(range(1, len(forest.messages) + 1))

    def test_cpu_slices_cover_busy_time(self):
        system = run_contended_system()
        forest = reconstruct(system.tracer)
        for node in ("n0", "n1"):
            slices = forest.cpu_slices[node]
            assert slices == sorted(slices, key=lambda s: s.start)
            busy = sum(s.end - s.start for s in slices
                       if s.end is not None)
            assert busy == system.node(node).cpu.utilization_time

    def test_jsonl_round_trip_equals_tracer_reconstruction(self, tmp_path):
        from repro.sim.trace import load_trace

        system = run_contended_system()
        path = tmp_path / "trace.jsonl"
        system.tracer.to_jsonl(str(path))
        from_file = reconstruct(str(path))
        from_tracer = reconstruct(system.tracer)
        # Reloading the file into a Tracer gives the identical report,
        # busy-period lines included.
        assert (forensics_report(load_trace(str(path)), forest=from_file)
                == forensics_report(system.tracer, forest=from_tracer))
        assert set(from_file.activations) == set(from_tracer.activations)
        a = from_file.activations["victim#1"]
        b = from_tracer.activations["victim#1"]
        assert [(s.state, s.start, s.end) for s in a.eus["sense"].segments] \
            == [(s.state, s.start, s.end) for s in b.eus["sense"].segments]

    def test_report_from_a_jsonl_path_equals_the_live_one(self, tmp_path):
        # The busy-period lines come from the span forest, so a file,
        # a record list and the live tracer give the same report.
        system = run_contended_system()
        path = tmp_path / "trace.jsonl"
        system.tracer.to_jsonl(str(path))
        live = forensics_report(system.tracer)
        assert ("busy period: 3 activations, 1 preemptions in window"
                in live)
        assert forensics_report(str(path)) == live
        assert forensics_report(list(system.tracer)) == live


class TestDecomposition:
    def test_components_sum_exactly_to_response(self):
        system = run_contended_system()
        forest = reconstruct(system.tracer)
        for activation in forest.activations.values():
            dec = decompose(activation)
            assert dec is not None
            assert dec.total == dec.response == activation.response_time

    def test_interference_is_attributed(self):
        # Staged so the victim experiences *every* interference kind:
        # blocked on the bus first (holder owns it), then preempted
        # mid-run by a hog arriving at t=600, then the remote edge.
        system = HadesSystem(node_ids=["n0", "n1"])
        bus = Resource("bus", node_id="n0")
        victim = Task("victim", deadline=5_000)
        sense = victim.code_eu("sense", wcet=300, node_id="n0",
                               resources=[(bus, AccessMode.EXCLUSIVE)],
                               attrs=EUAttributes(prio=10))
        act = victim.code_eu("act", wcet=200, node_id="n1",
                             attrs=EUAttributes(prio=10))
        victim.precede(sense, act)
        holder = Task("holder")
        holder.code_eu("hold", wcet=400, node_id="n0",
                       resources=[(bus, AccessMode.EXCLUSIVE)],
                       attrs=EUAttributes(prio=20))
        hog = Task("hog")
        hog.code_eu("spin", wcet=500, node_id="n0",
                    attrs=EUAttributes(prio=30))
        system.activate(holder.validate())
        system.activate(victim.validate())
        hog.validate()
        system.sim.call_at(600, lambda: system.activate(hog))
        system.run(until=10_000)

        forest = reconstruct(system.tracer)
        dec = decompose(forest.activations["victim#1"])
        assert dec.preempted > 0
        assert dec.blocked > 0
        assert dec.network > 0
        assert dec.executing > 0
        assert dec.total == dec.response

    def test_critical_path_crosses_the_remote_edge(self):
        system = run_contended_system()
        forest = reconstruct(system.tracer)
        victim = forest.activations["victim#1"]
        path = critical_path(victim)
        assert [h.eu.eu for h in path] == ["sense", "act"]
        assert path[0].edge is None
        assert path[0].begin == victim.activation_time
        assert path[1].edge is victim.edges[0]
        assert path[1].begin >= path[0].end  # network gap
        assert path[-1].end == victim.finish_time

    def test_unfinished_activation_returns_none(self):
        system = HadesSystem(node_ids=["n0", "n1"])
        task = Task("t", deadline=500)
        a = task.code_eu("a", wcet=50, node_id="n0",
                         attrs=EUAttributes(prio=5))
        b = task.code_eu("b", wcet=50, node_id="n1",
                         attrs=EUAttributes(prio=5))
        task.precede(a, b)
        # The remote edge is dropped: b never runs, the instance stalls.
        system.network.link("n0", "n1").add_fault(
            OmissionFault(probability=1.0, rng=random.Random(0)))
        system.activate(task.validate())
        system.run(until=5_000)
        forest = reconstruct(system.tracer)
        activation = forest.activations["t#1"]
        assert not activation.finished
        assert activation.missed
        assert decompose(activation) is None


class TestForensics:
    def _missed_system(self):
        system = HadesSystem(node_ids=["n0", "n1"])
        victim = Task("victim", deadline=700)
        sense = victim.code_eu("sense", wcet=300, node_id="n0",
                               attrs=EUAttributes(prio=10))
        act = victim.code_eu("act", wcet=200, node_id="n1",
                             attrs=EUAttributes(prio=10))
        victim.precede(sense, act)
        hog = Task("hog")
        hog.code_eu("spin", wcet=400, node_id="n0",
                    attrs=EUAttributes(prio=30))
        system.network.link("n0", "n1").add_fault(PerformanceFault(500))
        system.activate(victim.validate())
        system.activate(hog.validate())
        system.run(until=10_000)
        return system

    def test_miss_report_names_concrete_contributors(self):
        system = self._missed_system()
        forest = reconstruct(system.tracer)
        misses = forest.misses()
        assert [m.activation_id for m in misses] == ["victim#1"]
        report = analyze_miss(forest, misses[0])
        assert report.overrun is not None and report.overrun > 0
        assert report.decomposition is not None
        kinds = {c.kind for c in report.contributors}
        assert "preemption" in kinds
        assert "network" in kinds
        preemptors = [c for c in report.contributors
                      if c.kind == "preemption"]
        assert preemptors[0].name == "hog#1/spin"
        assert preemptors[0].amount > 0
        # Busy-period scoping counts what competed in the miss window.
        assert report.busy_preemptions >= 1
        assert report.busy_activations >= 2
        # README's forensics example reads the parts through as_dict().
        parts = report.decomposition.as_dict()
        response = parts.pop("response")
        assert sorted(parts) == ["blocked", "executing", "network",
                                 "preempted", "slack"]
        assert sum(parts.values()) == response == misses[0].response_time

    def test_text_report_structure(self):
        system = self._missed_system()
        text = forensics_report(system.tracer)
        assert text.startswith("HADES deadline-miss forensics")
        assert "MISS victim#1" in text
        assert "overrun=+" in text
        assert "critical path:" in text
        assert "blame:" in text
        assert "1. " in text
        assert "LATE" in text
        assert "busy period:" in text
        # Deterministic: formatting twice gives identical bytes.
        assert text == forensics_report(system.tracer)

    def test_stalled_miss_names_the_stall(self):
        system = HadesSystem(node_ids=["n0", "n1"])
        task = Task("t", deadline=500)
        a = task.code_eu("a", wcet=50, node_id="n0",
                         attrs=EUAttributes(prio=5))
        b = task.code_eu("b", wcet=50, node_id="n1",
                         attrs=EUAttributes(prio=5))
        task.precede(a, b)
        system.network.link("n0", "n1").add_fault(
            OmissionFault(probability=1.0, rng=random.Random(0)))
        system.activate(task.validate())
        system.run(until=5_000)
        text = forensics_report(system.tracer)
        assert "MISS t#1" in text
        assert "(never finished)" in text
        assert "stalled" in text
        assert "dropped" in text

    def test_clean_run_reports_no_misses(self):
        system = HadesSystem(node_ids=["n0"])
        task = Task("easy", deadline=100_000)
        task.code_eu("go", wcet=10, node_id="n0",
                     attrs=EUAttributes(prio=5))
        system.activate(task.validate())
        system.run(until=1_000)
        assert "no deadline misses." in forensics_report(system.tracer)


def scan_slices_in(forest, node, t0, t1):
    """The linear scan ``cpu_slices_in`` must agree with: every slice of
    the node, in list order, that starts before t1 and ends after t0."""
    out = []
    for sl in forest.cpu_slices.get(node, ()):
        end = sl.end if sl.end is not None else forest.t_end
        if sl.start < t1 and end > t0:
            out.append(sl)
    return out


def assert_same_slices(forest, node, t0, t1):
    got = forest.cpu_slices_in(node, t0, t1)
    assert [id(sl) for sl in got] == [
        id(sl) for sl in scan_slices_in(forest, node, t0, t1)]


_UNITS = ("cpu", "gpu0", "dsp0")


class TestCpuSlicesIn:
    """The per-node chain index against the linear scan."""

    @settings(max_examples=300, deadline=None)
    @given(runs=st.lists(st.tuples(st.sampled_from(_UNITS),
                                   st.integers(0, 30), st.integers(1, 30)),
                         max_size=40),
           strays=st.lists(st.tuples(st.sampled_from(_UNITS),
                                     st.integers(0, 400),
                                     st.integers(1, 60)), max_size=6),
           open_units=st.sets(st.sampled_from(_UNITS)),
           shuffled=st.booleans(), split=st.integers(0, 50),
           t_end_pad=st.integers(-10, 10), rng=st.randoms(),
           windows=st.lists(st.tuples(st.integers(-10, 450),
                                      st.integers(-20, 120)),
                            min_size=1, max_size=8))
    def test_matches_linear_scan(self, runs, strays, open_units, shuffled,
                                 split, t_end_pad, rng, windows):
        # Each unit runs one slice at a time; the units overlap.
        cursor = dict.fromkeys(_UNITS, 0)
        closed = []
        for unit, gap, length in runs:
            start = cursor[unit] + gap
            cursor[unit] = start + length
            closed.append(CpuSlice("n0", f"{unit}-{len(closed)}", start,
                                   start + length, engine=unit))
        closed.sort(key=lambda sl: sl.end)       # the builder's close order
        if shuffled:                             # a non-monotone trace
            rng.shuffle(closed)
        for unit, start, length in strays:       # overlaps its own unit
            closed.insert(rng.randrange(len(closed) + 1),
                          CpuSlice("n0", "stray", start, start + length,
                                   engine=unit))
        opened = [CpuSlice("n0", f"open-{unit}", cursor[unit] + 1,
                           engine=unit) for unit in sorted(open_units)]
        slices = closed + opened
        forest = SpanForest()
        forest.t_end = max([cursor[unit] + 1 for unit in _UNITS]
                           + [sl.end for sl in closed]) + t_end_pad
        forest.cpu_slices["n0"] = slices[:split]
        for t0, width in windows:
            assert_same_slices(forest, "n0", t0, t0 + width)
        # The index notices a list that grew after a query.
        forest.cpu_slices["n0"].extend(slices[split:])
        for t0, width in windows:
            assert_same_slices(forest, "n0", t0, t0 + width)
        assert forest.cpu_slices_in("n1", 0, 1_000) == []

    def test_matches_linear_scan_on_engine_trace(self):
        system = HadesSystem(node_ids=["n0"], costs=DispatcherCosts.zero(),
                             engines={"n0": {"gpu": 2}})
        for k in range(4):
            task = Task(f"t{k}", deadline=20_000, node_id="n0")
            head = task.code_eu("head", wcet=300 + 100 * k)
            infer = task.code_eu("infer", wcet=6_000,
                                 variants={"gpu": 700 + 300 * k},
                                 engine="gpu")
            tail = task.code_eu("tail", wcet=200)
            task.precede(head, infer)
            task.precede(infer, tail)
            system.activate(task.validate())
        system.run()
        forest = reconstruct(system.tracer)
        slices = forest.cpu_slices["n0"]
        assert {sl.engine for sl in slices} == {"cpu", "gpu0", "gpu1"}
        # Close order is not start order once engine units overlap.
        assert [sl.start for sl in slices] != sorted(sl.start
                                                    for sl in slices)
        rng = random.Random(5)
        for _ in range(200):
            t0 = rng.randrange(-100, forest.t_end + 100)
            assert_same_slices(forest, "n0", t0,
                               t0 + rng.randrange(0, 3_000))
