"""Unit tests for the simulated RT kernel (CPU, threads, clocks, interrupts)."""

import cProfile
import functools
import gc
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.kernel import (
    ByzantineClock,
    Compute,
    Cpu,
    HardwareClock,
    KThread,
    Node,
    PRIO_MAX,
    Sleep,
    ThreadState,
    WaitEvent,
)
from repro.core.heug import Task
from repro.kernel.interrupts import InterruptSource
from repro.sim import Simulator
from repro.sim.trace import _ClockCall
from repro.system import HadesSystem


def entries(sim):
    """Engine entries scheduled so far on a metrics-enabled engine."""
    return sim.metrics.counter("engine.events_scheduled").value


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def node(sim):
    return Node(sim, "n0")


def unnamed_thread_trace():
    """The trace of a fresh one-node system running one unnamed thread."""
    sim = Simulator()
    node = Node(sim, "n0")

    def body():
        yield Compute(100)
        yield Sleep(50)
        yield Compute(20)

    node.spawn(body())
    sim.run()
    return [str(entry) for entry in node.tracer]


class TestThreadsBasic:
    def test_unnamed_threads_are_numbered_per_node(self):
        # Built one after the other in one process, as a serial
        # campaign or a forked worker would build them.
        first = unnamed_thread_trace()
        second = unnamed_thread_trace()
        assert first == second
        assert any("thread=thread-1" in line for line in first)

    def test_compute_consumes_time(self, sim, node):
        def body():
            yield Compute(100)
            return sim.now

        thread = node.spawn(body(), priority=5)
        sim.run()
        assert thread.finished.value == 100
        assert thread.cpu_time == 100
        assert thread.state is ThreadState.FINISHED

    def test_zero_compute_is_instant(self, sim, node):
        def body():
            yield Compute(0)
            return sim.now

        thread = node.spawn(body())
        sim.run()
        assert thread.finished.value == 0

    def test_sleep_blocks_without_cpu(self, sim, node):
        def body():
            yield Sleep(500)
            return sim.now

        thread = node.spawn(body())
        sim.run()
        assert thread.finished.value == 500
        assert thread.cpu_time == 0

    def test_wait_event_delivers_value(self, sim, node):
        gate = sim.event()

        def body():
            got = yield WaitEvent(gate)
            return got

        thread = node.spawn(body())
        sim.call_in(42, lambda: gate.succeed("opened"))
        sim.run()
        assert thread.finished.value == "opened"

    def test_bare_event_yield_shorthand(self, sim, node):
        gate = sim.event()

        def body():
            got = yield gate
            return got

        thread = node.spawn(body())
        sim.call_in(1, lambda: gate.succeed(9))
        sim.run()
        assert thread.finished.value == 9

    def test_body_exception_fails_finished_event(self, sim, node):
        def body():
            yield Compute(1)
            raise ValueError("bad")

        thread = node.spawn(body())
        sim.run()
        assert thread.finished.triggered
        assert not thread.finished.ok

    def test_kill_while_computing(self, sim, node):
        def body():
            yield Compute(1000)
            return "should not happen"

        thread = node.spawn(body())
        sim.call_in(100, thread.kill)
        sim.run()
        assert thread.state is ThreadState.KILLED
        assert thread.finished.value is None

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Compute(-5)

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            Sleep(-5)


class TestFinishedContract:
    """``KThread.finished`` is built on first access: read at any point
    it tells the same story, and a thread nobody waits on pushes no end
    entry."""

    @pytest.fixture
    def sim(self):
        return Simulator(metrics=True)

    def test_read_before_start_triggers_at_the_end(self, sim, node):
        def body():
            yield Compute(30)
            return "done"

        thread = KThread(node, body())
        finished = thread.finished
        seen = []
        finished.add_callback(lambda evt: seen.append((sim.now, evt.value)))
        thread.start()
        sim.run()
        assert thread.finished is finished
        assert seen == [(30, "done")]
        # Start, completion and the end entry.
        assert entries(sim) == 3

    def test_read_after_a_normal_end_returns_the_value(self, sim, node):
        def body():
            yield Compute(30)
            return 7

        thread = node.spawn(body())
        sim.run()
        finished = thread.finished
        assert finished.triggered and finished.ok and finished.value == 7
        seen = []
        finished.add_callback(lambda evt: seen.append(evt.value))
        assert seen == [7]  # already dispatched: runs at once
        assert sim.pending == 0

    def test_read_after_a_raising_body(self, sim, node):
        def body():
            yield Compute(30)
            raise ValueError("bad")

        thread = node.spawn(body())
        sim.run()  # the failure stays on ``finished``
        finished = thread.finished
        assert finished.triggered and not finished.ok
        with pytest.raises(ValueError, match="bad"):
            _ = finished.value
        seen = []
        finished.add_callback(seen.append)
        assert seen == [finished]

    def test_read_after_kill(self, sim, node):
        def body():
            yield Compute(1_000)
            return "unreached"

        thread = node.spawn(body())
        sim.call_in(100, thread.kill)
        sim.run()
        assert thread.state is ThreadState.KILLED
        assert thread.finished.triggered
        assert thread.finished.value is None

    def test_never_read_builds_no_event(self, sim, node):
        def body():
            yield Compute(30)
            return 1

        thread = node.spawn(body())
        sim.run()
        assert thread.state is ThreadState.FINISHED
        assert thread._finished is None
        # Start and completion only.
        assert entries(sim) == 2


class TestSuspendWhileNotQueued:
    """``resume()`` of a thread that was suspended outside the Run Queue
    must not advance its body: the wait (or the start kick) does that,
    exactly once."""

    @pytest.mark.parametrize("wait", ["sleep", "wait_event"])
    def test_resume_during_wait_keeps_waiting(self, sim, node, wait):
        if wait == "sleep":
            request = Sleep(100)
        else:
            gate = sim.event()
            sim.call_at(100, gate.succeed)
            request = WaitEvent(gate)
        marks = []

        def body():
            yield request
            marks.append(("woke", sim.now))
            yield Compute(200)
            marks.append(("computed", sim.now))
            yield Compute(10)
            marks.append(("done", sim.now))

        thread = node.spawn(body())
        sim.call_at(10, thread.suspend)
        sim.call_at(20, thread.resume)
        sim.run()
        assert marks == [("woke", 100), ("computed", 300), ("done", 310)]
        assert thread.state is ThreadState.FINISHED
        assert thread.cpu_time == 210

    def test_resume_before_start_kick(self, sim, node):
        def body():
            yield Compute(50)
            yield Compute(50)
            return sim.now

        thread = node.spawn(body())
        thread.suspend()
        thread.resume()
        sim.run()
        assert thread.finished.value == 100
        assert thread.cpu_time == 100


class TestPreemptiveScheduling:
    def test_higher_priority_preempts(self, sim, node):
        log = []

        def low():
            yield Compute(100)
            log.append(("low-done", sim.now))

        def high():
            yield Compute(20)
            log.append(("high-done", sim.now))

        node.spawn(low(), name="low", priority=1)
        sim.call_in(10, lambda: node.spawn(high(), name="high", priority=9))
        sim.run()
        # high arrives at 10, runs 20 -> done at 30; low resumes, had 90
        # left -> done at 120.
        assert log == [("high-done", 30), ("low-done", 120)]

    def test_equal_priority_fifo_no_preemption(self, sim, node):
        log = []

        def worker(name, amount):
            yield Compute(amount)
            log.append((name, sim.now))

        node.spawn(worker("a", 50), priority=5)
        sim.call_in(10, lambda: node.spawn(worker("b", 50), priority=5))
        sim.run()
        assert log == [("a", 50), ("b", 100)]

    def test_preemption_threshold_blocks_preemption(self, sim, node):
        log = []

        def shielded():
            yield Compute(100)
            log.append(("shielded", sim.now))

        def mid():
            yield Compute(10)
            log.append(("mid", sim.now))

        node.spawn(shielded(), priority=1, preemption_threshold=8)
        sim.call_in(5, lambda: node.spawn(mid(), priority=5))
        sim.run()
        # mid's priority (5) does not exceed the threshold (8): no preemption.
        assert log == [("shielded", 100), ("mid", 110)]

    def test_priority_above_threshold_still_preempts(self, sim, node):
        log = []

        def shielded():
            yield Compute(100)
            log.append(("shielded", sim.now))

        def urgent():
            yield Compute(10)
            log.append(("urgent", sim.now))

        node.spawn(shielded(), priority=1, preemption_threshold=8)
        sim.call_in(5, lambda: node.spawn(urgent(), priority=9))
        sim.run()
        assert log == [("urgent", 15), ("shielded", 110)]

    def test_threshold_changes_apply_to_the_running_thread(self, sim, node):
        log = []

        def worker(name, amount):
            yield Compute(amount)
            log.append((name, sim.now))

        runner = node.spawn(worker("runner", 100), priority=1)
        # Shield the running thread, then lower the shield below the
        # waiting challenger's priority: it preempts only then.
        sim.call_in(5, lambda: runner.set_priority(1, preemption_threshold=8))
        sim.call_in(10, lambda: node.spawn(worker("mid", 10), priority=5))
        sim.call_in(20, lambda: runner.set_priority(1, preemption_threshold=2))
        sim.run()
        assert log == [("mid", 30), ("runner", 110)]

    @given(changes=st.lists(st.tuples(st.integers(1, 9),
                                      st.none() | st.integers(1, 9)),
                            max_size=8),
           threshold=st.none() | st.integers(1, 9))
    def test_effective_threshold_is_max_of_priority_and_threshold(
            self, changes, threshold):
        node = Node(Simulator(), "n0")
        thread = KThread(node, iter(()), priority=4,
                         preemption_threshold=threshold)
        for priority, new_threshold in [(4, None)] + changes:
            thread.set_priority(priority, new_threshold)
            assert thread.effective_threshold == max(
                thread.priority, thread.preemption_threshold)

    def test_dynamic_priority_raise_triggers_preemption(self, sim, node):
        log = []

        def worker(name, amount):
            yield Compute(amount)
            log.append((name, sim.now))

        node.spawn(worker("runner", 100), priority=5)
        waiter = None

        def spawn_waiter():
            nonlocal waiter
            waiter = node.spawn(worker("waiter", 10), priority=1)

        sim.call_in(10, spawn_waiter)
        sim.call_in(20, lambda: waiter.set_priority(9))
        sim.run()
        assert log == [("waiter", 30), ("runner", 110)]

    def test_preempted_thread_resumes_with_exact_remaining(self, sim, node):
        def low():
            yield Compute(100)
            return sim.now

        def high():
            yield Compute(30)

        t_low = node.spawn(low(), priority=1)
        sim.call_in(50, lambda: node.spawn(high(), priority=9))
        sim.run()
        # low: 50 done before preemption + 30 high + 50 remaining = 130
        assert t_low.finished.value == 130
        assert t_low.cpu_time == 100

    def test_context_switch_cost_charged_to_kernel(self, sim):
        node = Node(sim, "cs", context_switch_cost=5)

        def worker(amount):
            yield Compute(amount)

        node.spawn(worker(50), priority=1)
        sim.run()
        assert node.cpu.busy_time.get("kernel", 0) == 5
        assert node.cpu.busy_time.get("application", 0) == 50

    def test_many_threads_complete_in_priority_order(self, sim, node):
        done = []

        def worker(name):
            yield Compute(10)
            done.append(name)

        # Spawned together; all READY before any runs.
        for prio, name in [(1, "p1"), (7, "p7"), (3, "p3"), (9, "p9")]:
            node.spawn(worker(name), name=name, priority=prio)
        sim.run()
        assert done == ["p9", "p7", "p3", "p1"]

    def test_threshold_elevation_survives_kernel_preemption(self, sim, node):
        """A started thread holds its preemption threshold as effective
        priority even across a preemption by a higher-than-threshold
        thread (classic PT semantics): after the interloper finishes,
        the shielded thread resumes ahead of an equal-priority rival."""
        log = []

        def worker(name, amount):
            yield Compute(amount)
            log.append(name)

        # shielded: prio 1, threshold 50; starts immediately.
        node.spawn(worker("shielded", 200), priority=1,
                   preemption_threshold=50)
        # rival arrives at prio 50 (== threshold): cannot preempt.
        sim.call_in(10, lambda: node.spawn(worker("rival", 50), priority=50))
        # kernel-ish thread at 100 (> threshold) briefly preempts.
        sim.call_in(20, lambda: node.spawn(worker("kernel", 10),
                                           priority=100))
        sim.run()
        # After "kernel" finishes, shielded (boosted to 50, older seq)
        # resumes before rival.
        assert log == ["kernel", "shielded", "rival"]

    def test_threshold_elevation_dropped_on_block(self, sim, node):
        """Voluntarily blocking ends the elevation: after the sleep the
        thread competes at its plain priority again."""
        log = []

        def sleeper():
            yield Compute(10)
            yield Sleep(100)
            yield Compute(10)
            log.append("sleeper")

        def rival():
            yield Compute(30)
            log.append("rival")

        node.spawn(sleeper(), priority=1, preemption_threshold=90)
        sim.call_in(50, lambda: node.spawn(rival(), priority=50))
        sim.run()
        # sleeper blocks at t=10; rival runs 50..80; sleeper wakes at
        # 110 with plain priority 1 — no elevation left, rival already
        # done anyway; order of completion shows rival first.
        assert log == ["rival", "sleeper"]

    def test_cpu_accounting_matches_elapsed_busy_time(self, sim, node):
        def worker(amount):
            yield Compute(amount)
            yield Sleep(37)
            yield Compute(amount)

        node.spawn(worker(100), priority=2)
        sim.run()
        assert node.cpu.utilization_time == 200
        assert sim.now == 237


class TestClocks:
    def test_perfect_clock_tracks_real_time(self, sim):
        clock = HardwareClock(sim)
        sim.call_in(1000, lambda: None)
        sim.run()
        assert clock.read() == 1000

    def test_drift_skews_reading(self, sim):
        clock = HardwareClock(sim, drift=100e-6)
        sim.call_in(1_000_000, lambda: None)
        sim.run()
        assert clock.read() == 1_000_000 + 100

    def test_offset_and_adjust(self, sim):
        clock = HardwareClock(sim, offset=500)
        clock.adjust(-200)
        assert clock.read() == 300

    def test_local_to_real_inverts_read(self, sim):
        clock = HardwareClock(sim, drift=50e-6, offset=123)
        target_local = 2_000_000
        real = clock.local_to_real(target_local)
        # Advancing to `real` must make the clock read >= target.
        sim.call_at(real, lambda: None)
        sim.run()
        assert clock.read() >= target_local
        assert clock.read() - target_local <= 2

    def test_unphysical_drift_rejected(self, sim):
        with pytest.raises(ValueError):
            HardwareClock(sim, drift=1.5)

    def test_byzantine_clock_is_wildly_wrong(self, sim):
        clock = ByzantineClock(sim)
        sim.call_in(500, lambda: None)
        sim.run()
        assert abs(clock.read() - sim.now) > 1_000_000

    def test_byzantine_clock_can_recover(self, sim):
        clock = ByzantineClock(sim)
        clock.byzantine = False
        assert clock.read() == 0


class TestInterrupts:
    def test_interrupt_preempts_application(self, sim, node):
        log = []

        def app():
            yield Compute(100)
            log.append(("app", sim.now))

        node.spawn(app(), priority=10, preemption_threshold=500)
        sim.call_in(20, lambda: node.net_irq.fire())
        sim.run()
        # IRQ wcet=40 runs at PRIO_MAX despite the app threshold.
        assert log == [("app", 140)]
        assert node.net_irq.fire_count == 1

    def test_interrupt_respects_pseudo_period(self, sim, node):
        times = []
        node.net_irq.handler = lambda _p: times.append(sim.now)
        node.net_irq.fire()
        node.net_irq.fire()  # immediate re-fire must be deferred
        sim.run()
        assert len(times) == 2
        assert times[1] - times[0] >= node.net_irq.pseudo_period

    def test_periodic_clock_tick_updates_software_clock(self, sim, node):
        node.start_background_activities()
        sim.run(until=35_000)
        # Ticks at 0, 10000, 20000, 30000 → 4 increments.
        assert node.software_clock == 4 * node.clock_tick.period
        assert node.clock_tick.fire_count == 4

    def test_wcet_longer_than_period_rejected(self, sim, node):
        with pytest.raises(ValueError):
            InterruptSource(node, "bad", wcet=100, pseudo_period=50)

    def test_a_reassigned_wcet_is_what_a_firing_computes(self, sim, node):
        first = node.net_irq.wcet
        node.net_irq.fire()
        sim.run()
        node.net_irq.wcet = 7
        sim.call_in(node.net_irq.pseudo_period, node.net_irq.fire)
        sim.run()
        assert node.cpu.busy_time["kernel"] == first + 7

    def test_firing_is_a_prio_max_kernel_thread(self, sim, node):
        seen = []

        def app():
            yield Compute(100)

        node.spawn(app(), priority=10)
        node.net_irq.handler = lambda payload: seen.append(
            (sim.now, payload))
        sim.call_in(20, lambda: node.net_irq.fire("frame"))
        sim.call_in(30, lambda: seen.append(node.cpu.running))
        sim.run()
        firing = seen[0]
        assert firing.name == "irq:net:1"
        assert firing.priority == PRIO_MAX
        assert firing.effective_threshold == PRIO_MAX
        assert seen[1] == (60, "frame")
        assert node.cpu.busy_time["kernel"] == node.net_irq.wcet
        dispatch = node.tracer.select("cpu", "dispatch",
                                      thread="irq:net:1")
        assert [(r.time, r.get("priority")) for r in dispatch] == \
            [(20, PRIO_MAX)]

    @pytest.mark.parametrize("wcet", [0, 40])
    def test_handler_error_stops_the_run(self, sim, node, wcet):
        def handler(_payload):
            raise RuntimeError("handler failed")

        def app():
            yield Compute(100)

        # With a WCET the firing preempts ``app``, which then waits in
        # the Run Queue while the handler fails.
        thread = node.spawn(app(), priority=10)
        source = InterruptSource(node, "dev", wcet=wcet, pseudo_period=100,
                                 handler=handler)
        sim.call_in(10, source.fire)
        with pytest.raises(RuntimeError, match="handler failed"):
            sim.run()
        assert sim.now == 10 + wcet
        # The CPU was left consistent: a second run completes ``app``.
        sim.run()
        assert thread.state is ThreadState.FINISHED
        assert sim.now == 100 + wcet

    def test_kernel_activity_parameters_reported(self, node):
        params = node.kernel_activity_parameters()
        assert set(params) == {"w_clock", "P_clock", "w_net", "P_net"}
        assert params["w_clock"] == node.clock_tick.wcet


class TestEngineEntries:
    """Counted pins of the kernel's engine work: one entry per kernel
    step, none for an end that nobody waits on.  Engine entries are
    exact and do not depend on the Python version."""

    def test_irq_firing_schedules_two_entries(self):
        sim = Simulator(metrics=True)
        node = Node(sim, "n0")
        for k in range(100):
            sim.run(until=k * 1_000)
            node.net_irq.fire()
        sim.run()
        assert node.net_irq.fire_count == 100
        # A start and a completion each; no end entry.
        assert entries(sim) == 200

    def test_avionics_entries_per_activation(self, monkeypatch):
        """A seed-7, 1 s run of the e2e avionics deployment: 7,180
        entries for 160 activations (44.9 each); 7,868 (49.2) while
        every thread pushed a start event and an end event."""
        from benchmarks.e2e import workloads

        monkeypatch.setattr(workloads, "HadesSystem",
                            functools.partial(HadesSystem, metrics=True))
        system, _names = workloads.avionics_system(7, 1_000_000)
        system.run(until=1_000_000)
        report = system.run_report()
        activations = report.counter("dispatcher.activations")
        scheduled = report.counter("engine.events_scheduled")
        assert activations == 160
        assert scheduled <= 44.9 * activations, scheduled / activations


class TestHostBudget:
    """Counted pins of the per-activation host budget (DESIGN.md §6):
    a seed-7, 1 s run of the e2e avionics deployment queries no task
    graph, because each activation reads its compiled plan, and calls
    no tracer clock, because every tracer reads ``now`` off the
    Simulator.  Zero counts do not depend on the Python version."""

    GRAPH_QUERIES = ("node_of", "is_remote", "edge_index", "in_edges",
                     "out_edges")

    def test_the_run_makes_no_graph_query_and_no_clock_call(self):
        from benchmarks.e2e import workloads

        system, _names = workloads.avionics_system(7, 1_000_000)
        profiler = cProfile.Profile()
        gc.collect()
        profiler.enable()
        try:
            system.run(until=1_000_000)
        finally:
            profiler.disable()
        calls = Counter()
        for entry in profiler.getstats():
            calls[entry.code] += entry.callcount
        queries = {name: calls[getattr(Task, name).__code__]
                   for name in self.GRAPH_QUERIES}
        assert queries == dict.fromkeys(self.GRAPH_QUERIES, 0)
        # A callable clock is read through _ClockCall.now, once per
        # record of the tracer it was given to.
        assert calls[_ClockCall.now.fget.__code__] == 0
        assert len(system.tracer) > 10_000


class TestPerActivationScaling:
    """Host work per activation stays flat as a run gets longer: from a
    horizon H to 4H, the records, engine entries and ``set_params``
    records per activation of two shapes grow by at most a bounded
    ratio.  Work that grew with the backlog per activation, as an
    O(live) re-rank or scan does, would fail it.  The counts are
    simulated facts, exact per seed on every Python version."""

    @staticmethod
    def per_activation(system):
        counts = Counter(record.layout.key for record in system.tracer)
        activations = counts["dispatcher", "activate"]
        return {"records": len(system.tracer) / activations,
                "entries": system.sim._sequence / activations,
                "set_params": counts["dispatcher", "set_params"]
                / activations}

    @staticmethod
    def avionics(horizon):
        from benchmarks.e2e import workloads

        system, _names = workloads.avionics_system(7, horizon)
        system.run(until=horizon)
        return system

    @staticmethod
    def admission(horizon):
        from benchmarks.e2e import workloads

        return workloads.service_scenario(7, 3.0, True).run(
            until=horizon).system

    # At H -> 4H the avionics shape grows 1.043 (records), 1.034
    # (entries) and 1.024 (set_params); the admission shape 1.039,
    # 1.021 and 1.130, as EDF's live set fills up to its admitted load.
    @pytest.mark.parametrize("shape, horizon, bounds", [
        pytest.param("avionics", 250_000,
                     {"records": 1.08, "entries": 1.08, "set_params": 1.08},
                     id="avionics"),
        pytest.param("admission", 100_000,
                     {"records": 1.08, "entries": 1.08, "set_params": 1.20},
                     id="admission"),
    ])
    def test_growth_from_h_to_4h_is_bounded(self, shape, horizon, bounds):
        run = getattr(self, shape)
        short = self.per_activation(run(horizon))
        long = self.per_activation(run(4 * horizon))
        growth = {key: long[key] / short[key] for key in bounds}
        assert all(growth[key] <= bounds[key] for key in bounds), growth


class TestNodeFaults:
    def test_crash_kills_threads(self, sim, node):
        def body():
            yield Compute(1000)
            return "finished"

        thread = node.spawn(body())
        sim.call_in(100, node.crash)
        sim.run()
        assert node.crashed
        assert thread.state is ThreadState.KILLED

    def test_crashed_node_rejects_spawn(self, sim, node):
        node.crash()
        with pytest.raises(RuntimeError):
            node.spawn((x for x in []))

    def test_crash_listeners_notified(self, sim, node):
        seen = []
        node.on_crash(lambda n: seen.append(n.node_id))
        node.crash()
        assert seen == ["n0"]

    def test_crash_suppresses_pending_timers(self, sim, node):
        fired = []
        node.after(100, lambda: fired.append("x"))
        sim.call_in(50, node.crash)
        sim.run()
        assert fired == []

    def test_recover_allows_spawn_again(self, sim, node):
        node.crash()
        node.recover()
        thread = node.spawn((yield_ for yield_ in iter([])), name="t")
        sim.run()
        assert thread.finished.triggered

    def test_crash_is_idempotent(self, sim, node):
        node.crash()
        node.crash()
        assert node.crashed

    def test_utilization_fraction(self, sim, node):
        def body():
            yield Compute(250)

        node.spawn(body())
        sim.call_in(1000, lambda: None)
        sim.run()
        assert node.utilization() == pytest.approx(0.25)


def live_entries(cpu):
    return [entry for entry in cpu._run_queue if entry[3] is not None]


class TestRunQueue:
    def test_second_submit_of_ready_or_running_thread_rejected(self, sim,
                                                                node):
        def worker():
            yield Compute(100)

        running = node.spawn(worker(), name="running", priority=5)
        ready = node.spawn(worker(), name="ready", priority=1)
        sim.run(until=10)
        assert running.state is ThreadState.RUNNING
        assert ready.state is ThreadState.READY
        for thread in (running, ready):
            with pytest.raises(RuntimeError, match="submitted twice"):
                node.cpu.submit(thread)
        sim.run()
        assert running.cpu_time == ready.cpu_time == 100

    @pytest.mark.parametrize("leave", ["suspend", "kill"])
    def test_withdrawn_ready_thread_leaves_no_live_entry(self, sim, node,
                                                         leave):
        def worker():
            yield Compute(100)

        node.spawn(worker(), name="running", priority=5)
        ready = node.spawn(worker(), name="ready", priority=1)
        sim.run(until=10)
        assert [entry[3] for entry in live_entries(node.cpu)] == [ready]
        getattr(ready, leave)()
        assert ready._ready_entry is None
        assert live_entries(node.cpu) == []

    def test_rerankings_of_a_long_backlog_keep_the_queue_bounded(self, sim,
                                                                  node):
        """EDF re-ranks every live unit on each activation; the stale
        entries this leaves behind are compacted away, so the heap never
        outgrows ``STALE_RATIO + 1`` entries per ready thread."""
        rng = random.Random(13)
        threads = []
        lengths = []

        def worker():
            yield Compute(50)

        def activation(k):
            threads.append(node.spawn(worker(), name=f"job{k}",
                                      priority=rng.randint(1, 900)))
            for thread in threads:
                thread.set_priority(rng.randint(1, 900))
            queue, live = node.cpu._run_queue, live_entries(node.cpu)
            assert len(live) == sum(
                t.state is ThreadState.READY for t in threads)
            assert len(queue) <= (node.cpu.STALE_RATIO + 1) * len(live)
            lengths.append(len(queue))

        for k in range(300):
            sim.call_at(20 * k, lambda k=k: activation(k))
        sim.run()
        assert all(t.cpu_time == 50 for t in threads)
        # Without compaction every re-key would leave an entry behind.
        assert max(lengths) <= (node.cpu.STALE_RATIO + 1) * 300
        assert len(node.cpu._run_queue) == 0


class ListRunQueueCpu(Cpu):
    """Reference Run Queue: a plain list scanned linearly for the thread
    with the highest selection priority, then the earliest ready seq."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ready = []
        self._ready_counter = 0

    def submit(self, thread):
        if thread in self._ready or thread is self._running:
            raise RuntimeError(f"{thread!r} submitted twice")
        self._ready_counter += 1
        thread._ready_seq = self._ready_counter
        self._ready.append(thread)
        self._schedule()

    def withdraw(self, thread):
        if thread in self._ready:
            thread._pt_boosted = False
            self._ready.remove(thread)
        else:
            super().withdraw(thread)

    def priorities_changed(self, thread):
        self._schedule()

    def _top_thread(self):
        best = None
        best_key = None
        for thread in self._ready:
            key = (self._selection_priority(thread), -thread._ready_seq)
            if best is None or key > best_key:
                best = thread
                best_key = key
        return best

    def _schedule(self):
        if self._running is not None:
            if not self.preemptive:
                return
            challenger = self._top_thread()
            if (challenger is None or self._selection_priority(challenger)
                    <= self._running.effective_threshold):
                return
            preempted = self._running
            self._checkpoint()
            self._running = None
            preempted.state = ThreadState.READY
            self._ready.append(preempted)
            engine = ({} if self.engine_label is None
                      else {"engine": self.engine_label})
            self.tracer.record("cpu", "preempt", node=self.node_id,
                               thread=preempted.name, by=challenger.name,
                               by_priority=challenger.priority, **engine)
            self._m_preemptions.inc()
        nxt = self._top_thread()
        if nxt is not None:
            self._ready.remove(nxt)
            self._dispatch(nxt)


# Narrow priority and time ranges, so that equal selection priorities
# (decided by ready seq) and same-instant events are common.
_steps = st.lists(st.tuples(st.sampled_from(["compute", "sleep"]),
                            st.integers(1, 40)), min_size=1, max_size=4)
_thread_specs = st.lists(
    st.tuples(st.integers(0, 60), st.integers(1, 6),
              st.none() | st.integers(1, 8), _steps),
    min_size=1, max_size=10)
_actions = st.lists(
    st.tuples(st.integers(0, 150), st.integers(0, 9),
              st.sampled_from(["priority", "threshold", "suspend",
                               "resume", "kill"]),
              st.integers(1, 8)),
    max_size=20)
_kernel_bursts = st.lists(st.tuples(st.integers(0, 150), st.integers(1, 10)),
                          max_size=4)


def run_program(cpu_class, engine_class, specs, actions, bursts,
                switch_cost):
    """Run one random thread program on a node whose threads use a
    ``cpu_class`` processor; returns the cpu and thread records, and
    whether any thread got its processor."""
    sim = Simulator()
    node = Node(sim, "n0")
    label = None if engine_class == "cpu" else f"{engine_class}0"
    unit = cpu_class(sim, node.tracer, "n0", switch_cost,
                     engine_class=engine_class, engine_label=label)
    node.cpu = unit
    threads = []

    def body(steps):
        for kind, amount in steps:
            yield Compute(amount) if kind == "compute" else Sleep(amount)

    def spawn(name, priority, threshold, steps):
        thread = KThread(node, body(steps), name=name, priority=priority,
                         preemption_threshold=threshold, processor=unit)
        threads.append(thread)
        thread.start()

    def act(index, kind, value):
        if index >= len(threads):
            return
        thread = threads[index]
        if kind == "priority":
            thread.set_priority(value)
        elif kind == "threshold":
            thread.set_priority(thread.priority, preemption_threshold=value)
        elif kind == "suspend":
            if thread.alive:
                thread.suspend()
        elif kind == "resume":
            thread.resume()
        else:
            thread.kill()

    for k, (start, priority, threshold, steps) in enumerate(specs):
        sim.call_at(start, lambda a=(f"t{k}", priority, threshold, steps):
                    spawn(*a))
    for at, index, kind, value in actions:
        sim.call_at(at, lambda a=(index, kind, value): act(*a))
    for k, (at, wcet) in enumerate(bursts):
        sim.call_at(at, lambda a=(f"kernel{k}", PRIO_MAX, PRIO_MAX,
                                  [("compute", wcet)]): spawn(*a))
    sim.run()
    ran = any(thread.first_run is not None for thread in threads)
    return [record for record in node.tracer
            if record.category in ("cpu", "thread")], ran


class TestRunQueueMatchesLinearScan:
    """The heap picks exactly the thread the linear scan picks, at every
    scheduling point: DESIGN.md §5's running-thread invariant, checked
    on arbitrary workloads against the pre-heap rule."""

    @pytest.mark.parametrize("engine_class", ["cpu", "gpu"])
    @settings(max_examples=150, deadline=None)
    @given(specs=_thread_specs, actions=_actions, bursts=_kernel_bursts,
           switch_cost=st.integers(0, 3))
    # The only thread is suspended before it starts and never resumed,
    # so neither Run Queue records anything.
    @example(specs=[(0, 1, None, [("compute", 1)])],
             actions=[(0, 0, "suspend", 1)], bursts=[], switch_cost=0)
    def test_same_records_as_the_list_oracle(self, engine_class, specs,
                                             actions, bursts, switch_cost):
        args = (engine_class, specs, actions, bursts, switch_cost)
        heap_records, ran = run_program(Cpu, *args)
        # Not vacuous: a program in which a thread got its processor
        # recorded that.
        assert heap_records or not ran
        assert (heap_records, ran) == run_program(ListRunQueueCpu, *args)
