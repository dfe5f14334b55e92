"""Edge-case coverage for the simulation engine and kernel corners."""

import pytest

from repro.kernel import Compute, KThread, Node, Sleep, ThreadState
from repro.sim import (
    Interrupt,
    Process,
    ProcessKilled,
    SimulationError,
    Simulator,
)

# The ``sim`` fixture comes from tests/conftest.py and parametrizes
# every test here over all event-set backends.


class TestEngineEdges:
    def test_any_of_fails_if_first_child_fails(self, sim):
        bad = sim.event()
        combo = sim.any_of([sim.timeout(100), bad])
        sim.call_in(5, lambda: bad.fail(RuntimeError("boom")))
        sim.run()
        assert combo.triggered and not combo.ok

    def test_all_of_duplicate_events(self, sim):
        shared = sim.timeout(10, value="v")
        combo = sim.all_of([shared, shared])
        sim.run()
        assert combo.value == ["v", "v"]

    def test_process_catches_kill_and_still_terminates(self, sim):
        observed = []

        def stubborn():
            try:
                yield sim.timeout(1_000)
            except ProcessKilled:
                observed.append("killed")
                raise  # propagating ends the process successfully

        proc = sim.process(stubborn())
        sim.call_in(10, proc.kill)
        sim.run()
        assert observed == ["killed"]
        assert proc.ok and proc.value is None

    def test_interrupt_carries_cause_object(self, sim):
        payload = {"reason": "mode switch"}

        def sleeper():
            try:
                yield sim.timeout(500)
            except Interrupt as intr:
                return intr.cause

        proc = sim.process(sleeper())
        sim.call_in(5, lambda: proc.interrupt(payload))
        sim.run()
        assert proc.value is payload

    def test_run_until_event(self, sim):
        target = sim.timeout(300, value="hit")
        sim.call_in(1_000, lambda: None)  # later noise
        result = sim.run(until_event=target)
        assert result == "hit"
        assert sim.now == 300

    def test_step_returns_false_when_idle(self, sim):
        assert sim.step() is False
        sim.call_in(1, lambda: None)
        assert sim.step() is True

    def test_pending_counts_scheduled_triggers(self, sim):
        sim.call_in(5, lambda: None)
        sim.call_in(10, lambda: None)
        assert sim.pending == 2

    def test_timeout_zero_fires_same_instant_in_order(self, sim):
        order = []
        sim.call_in(0, lambda: order.append("a"))
        sim.call_in(0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b"]
        assert sim.now == 0

    def test_rearm_at_busy_instant_settles_once(self, sim):
        # The SRP settle-tick shape (SRPProtocol._settle_tick): re-arm
        # at ``now`` while more work is due at this instant, settle
        # once it has run.  An engine whose drain reports dispatched
        # entries as still pending re-arms forever; the cap turns that
        # into a quick failure.
        settled = []
        rearms = []

        def settle():
            if sim.next_event_time() == sim.now:
                rearms.append(sim.now)
                if len(rearms) > 100:
                    raise RuntimeError("settle tick never settles")
                sim.call_at(sim.now, settle)
                return
            settled.append(sim.now)

        sim.call_at(10, settle)
        sim.call_at(10, lambda: None)
        sim.run()
        assert settled == [10]
        assert rearms == [10]

    def test_run_resumes_after_a_callback_raises(self, sim):
        # A raising callback is consumed like any dispatched entry: the
        # rest of its instant stays pending, and the next run() resumes
        # there without replaying anything.
        order = []

        def boom():
            order.append(("boom", sim.pending))
            raise RuntimeError("boom")

        sim.call_at(5, lambda: order.append(("a", sim.pending)))
        sim.call_at(5, boom)
        sim.call_at(5, lambda: order.append(("b", sim.pending)))
        sim.call_at(7, lambda: order.append(("c", sim.pending)))
        with pytest.raises(RuntimeError):
            sim.run()
        assert (sim.now, sim.pending, sim.next_event_time()) == (5, 2, 5)
        sim.run()
        assert order == [("a", 3), ("boom", 2), ("b", 1), ("c", 0)]


class TestKernelEdges:
    def test_thread_double_start_rejected(self, sim):
        node = Node(sim, "n0")

        def body():
            yield Compute(1)

        thread = node.spawn(body())
        with pytest.raises(SimulationError):
            thread.start()

    def test_suspend_dead_thread_rejected(self, sim):
        node = Node(sim, "n0")

        def body():
            yield Compute(1)

        thread = node.spawn(body())
        sim.run()
        with pytest.raises(SimulationError):
            thread.suspend()

    def test_resume_unsuspended_is_noop(self, sim):
        node = Node(sim, "n0")

        def body():
            yield Compute(10)

        thread = node.spawn(body())
        thread.resume()  # no-op, must not corrupt CPU state
        sim.run()
        assert thread.state is ThreadState.FINISHED

    def test_suspend_resume_midflight_preserves_progress(self, sim):
        node = Node(sim, "n0")

        def body():
            yield Compute(100)
            return sim.now

        thread = node.spawn(body())
        sim.call_in(30, thread.suspend)
        sim.call_in(200, thread.resume)
        sim.run()
        # 30 done + suspended 170 + 70 remaining = 270.
        assert thread.finished.value == 270
        assert thread.cpu_time == 100

    def test_sleep_zero(self, sim):
        node = Node(sim, "n0")

        def body():
            yield Sleep(0)
            return sim.now

        thread = node.spawn(body())
        sim.run()
        assert thread.finished.value == 0

    def test_thread_body_typeerror_propagates_to_finished(self, sim):
        node = Node(sim, "n0")

        def body():
            yield "not a request"

        thread = node.spawn(body())
        with pytest.raises(SimulationError):
            sim.run()


class TestScheduledEventTriggering:
    """A scheduled event (Timeout, call_at trigger) fires on its own;
    triggering it manually used to double-schedule it, making the
    second dispatch crash on the consumed callback list."""

    def test_succeed_on_pending_timeout_rejected(self, sim):
        timer = sim.timeout(100)
        with pytest.raises(SimulationError, match="scheduled"):
            timer.succeed("manual")

    def test_fail_on_pending_timeout_rejected(self, sim):
        timer = sim.timeout(100)
        with pytest.raises(SimulationError, match="scheduled"):
            timer.fail(RuntimeError("manual"))

    def test_succeed_after_timeout_fired_rejected(self, sim):
        timer = sim.timeout(10, value="v")
        sim.run()
        assert timer.triggered and timer.value == "v"
        with pytest.raises(SimulationError, match="already triggered"):
            timer.succeed("again")

    def test_call_at_trigger_rejected(self, sim):
        trigger = sim.call_at(50, lambda: None)
        with pytest.raises(SimulationError, match="scheduled"):
            trigger.succeed()

    def test_rejected_trigger_does_not_break_the_timeout(self, sim):
        # The original bug: succeed() on a pending Timeout enqueued a
        # second dispatch whose callback list was already consumed,
        # raising TypeError deep inside the engine.  The reject must
        # leave the timeout fully functional.
        timer = sim.timeout(100, value=7)
        with pytest.raises(SimulationError):
            timer.succeed(99)
        fired = []
        timer.add_callback(lambda evt: fired.append(evt.value))
        sim.run()
        assert fired == [7]
        assert sim.now == 100

    def test_process_waiting_on_timeout_unaffected(self, sim):
        log = []

        def proc():
            got = yield sim.timeout(30, value="tick")
            log.append((sim.now, got))

        sim.process(proc())
        timer = sim.timeout(5)
        with pytest.raises(SimulationError):
            timer.fail(RuntimeError("nope"))
        sim.run()
        assert log == [(30, "tick")]
