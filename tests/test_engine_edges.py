"""Edge-case coverage for the simulation engine and kernel corners."""

import itertools
import random

import pytest

from repro.kernel import Compute, KThread, Node, Sleep, ThreadState
from repro.sim import SimulationError

from tests.conftest import BACKENDS, ENGINES, spawn_with_end

# The ``sim`` fixture comes from tests/conftest.py and parametrizes
# every test here over the heap engine and its reference.


class TestEngineEdges:
    def test_any_of_fails_if_first_child_fails(self, sim):
        bad = sim.event()
        combo = sim.any_of([sim.timeout(100), bad])
        sim.call_in(5, lambda: bad.fail(RuntimeError("boom")))
        sim.run()
        assert combo.triggered and not combo.ok

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

        thread, ends = spawn_with_end(node, body())
        sim.call_in(30, thread.suspend)
        sim.call_in(200, thread.resume)
        sim.run()
        # 30 done + suspended 170 + 70 remaining = 270.
        assert ends == [(270, None)]
        assert thread.cpu_time == 100

    def test_sleep_zero(self, sim):
        node = Node(sim, "n0")

        def body():
            yield Sleep(0)
            return sim.now

        _thread, ends = spawn_with_end(node, body())
        sim.run()
        assert ends == [(0, None)]

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
        # A waiter on another timeout (a kernel thread blocked on it,
        # say) does not notice the rejected trigger.
        log = []
        sim.timeout(30, value="tick").add_callback(
            lambda evt: log.append((sim.now, evt.value)))
        timer = sim.timeout(5)
        with pytest.raises(SimulationError):
            timer.fail(RuntimeError("nope"))
        sim.run()
        assert log == [(30, "tick")]


#: Delays on both sides of 64 µs (the window edge of the calendar queue
#: the engine once had), plus same-instant and far-future ones.
DRAIN_DELAYS = (0, 0, 1, 3, 63, 64, 65, 200)


def _drain_program(sim, seed):
    """A random schedule/cancel program with cascades.

    Returns the dispatch log (filled as the program runs) and one
    ``done`` event per timer chain, which ``run(until_event=)`` drains
    towards.
    """
    rng = random.Random(seed)
    log = []
    budget = [250]

    def fire(tag):
        log.append(("fire", sim.now, tag))
        for _ in range(rng.randint(1, 3)):
            if budget[0] == 0:
                return
            budget[0] -= 1
            timer = sim.call_in(rng.choice(DRAIN_DELAYS),
                                lambda child=budget[0]: fire(child))
            if rng.random() < 0.25:
                timer.cancel()

    def wait(name, i, steps, done):
        if i == steps:
            done.succeed(name)
            return
        if rng.random() < 0.4:
            sim.timeout(rng.choice(DRAIN_DELAYS)).cancel()
        sim.timeout(rng.choice(DRAIN_DELAYS)).add_callback(
            lambda evt: wake(name, i, steps, done))

    def wake(name, i, steps, done):
        log.append(("wake", sim.now, name, i))
        wait(name, i + 1, steps, done)

    workers = []
    for k in range(rng.randint(2, 4)):
        done = sim.event(f"p{k} done")
        steps = rng.randint(3, 12)
        sim.call_in(0, lambda k=k, steps=steps, done=done:
                    wait(f"p{k}", 0, steps, done))
        workers.append(done)
    for k in range(rng.randint(3, 8)):
        sim.call_at(rng.randint(0, 300), lambda k=k: fire(f"root{k}"))
    return log, workers


def _drain_by_run(sim, workers):
    sim.run()


def _drain_in_slices(sim, workers):
    widths = itertools.cycle((1, 7, 64, 150))
    while sim.next_event_time() is not None:
        sim.run(until=sim.now + next(widths))


def _drain_until_events(sim, workers):
    for worker in workers:
        sim.run(until_event=worker)
    assert sim.run(until_event=sim.event("never")) is None


def _drain_by_step(sim, workers):
    while sim.step():
        pass


DRAINS = {
    "run": _drain_by_run,
    "slices": _drain_in_slices,
    "until_event": _drain_until_events,
    "step": _drain_by_step,
}


class TestDrainModes:
    """Every way of draining the schedule, on the heap engine and on
    its reference, dispatches the entries the reference's unbounded
    run dispatches, in its order, and counts them alike."""

    @pytest.mark.parametrize("seed", range(8))
    def test_drain_modes_agree(self, seed):
        outcomes = {}
        for backend in BACKENDS:
            for mode, drain in DRAINS.items():
                sim = ENGINES[backend](metrics=True)
                log, workers = _drain_program(sim, seed)
                drain(sim, workers)
                assert sim.pending == 0
                counter = sim.metrics.counter
                outcomes[backend, mode] = (
                    log, counter("engine.events_fired").value,
                    counter("engine.cancelled_skips").value)
        expected = outcomes["calendar", "run"]
        assert len(expected[0]) > 100 and expected[2] > 0
        for key, outcome in outcomes.items():
            assert outcome == expected, key

    @pytest.mark.parametrize("bounded", [False, True])
    def test_raising_callback_is_counted(self, backend, bounded):
        sim = ENGINES[backend](metrics=True)

        def boom():
            raise RuntimeError("boom")

        sim.call_at(5, lambda: None)
        sim.timeout(5).cancel()
        sim.call_at(5, boom)
        sim.call_at(7, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run(until=10) if bounded else sim.run()
        counter = sim.metrics.counter
        assert counter("engine.events_fired").value == 2
        assert counter("engine.cancelled_skips").value == 1
        assert (sim.now, sim.pending) == (5, 1)
        sim.run()
        assert counter("engine.events_fired").value == 3
