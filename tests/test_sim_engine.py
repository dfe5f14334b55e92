"""Unit tests for the discrete-event simulation engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import SimulationError, Simulator, Timeout, Tracer
from tests.conftest import BACKENDS, ENGINES

# The ``sim`` fixture comes from tests/conftest.py and parametrizes
# every test here over the heap engine and its reference.


class TestEvent:
    def test_starts_pending(self, sim):
        evt = sim.event("e")
        assert not evt.triggered
        with pytest.raises(SimulationError):
            _ = evt.value

    def test_succeed_delivers_value(self, sim):
        evt = sim.event()
        evt.succeed(42)
        assert evt.triggered
        assert evt.ok
        assert evt.value == 42

    def test_succeed_twice_is_error(self, sim):
        evt = sim.event()
        evt.succeed()
        with pytest.raises(SimulationError):
            evt.succeed()

    def test_fail_raises_on_value_access(self, sim):
        evt = sim.event()
        evt.fail(ValueError("boom"))
        assert evt.triggered
        assert not evt.ok
        with pytest.raises(ValueError):
            _ = evt.value

    def test_fail_requires_exception(self, sim):
        evt = sim.event()
        with pytest.raises(TypeError):
            evt.fail("not an exception")

    def test_callbacks_fire_in_order(self, sim):
        evt = sim.event()
        calls = []
        evt.add_callback(lambda e: calls.append(1))
        evt.add_callback(lambda e: calls.append(2))
        evt.succeed()
        sim.run()
        assert calls == [1, 2]

    def test_late_callback_runs_immediately(self, sim):
        evt = sim.event()
        evt.succeed(7)
        sim.run()
        seen = []
        evt.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]


class TestTimeoutAndTime:
    def test_time_advances_to_timeout(self, sim):
        fired = []
        t = sim.timeout(100, value="x")
        t.add_callback(lambda e: fired.append((sim.now, e.value)))
        sim.run()
        assert fired == [(100, "x")]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_negative_timer_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.call_in(-1, lambda: None)
        assert sim.pending == 0

    def test_same_instant_fifo_order(self, sim):
        order = []
        sim.call_in(50, lambda: order.append("a"))
        sim.call_in(50, lambda: order.append("b"))
        sim.call_in(10, lambda: order.append("first"))
        sim.run()
        assert order == ["first", "a", "b"]

    def test_run_until_stops_clock(self, sim):
        sim.call_in(1000, lambda: None)
        sim.run(until=300)
        assert sim.now == 300
        assert sim.pending == 1

    def test_run_until_in_past_rejected(self, sim):
        sim.call_in(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=5)

    def test_call_at_absolute(self, sim):
        seen = []
        sim.call_at(77, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [77]

    def test_call_at_past_rejected(self, sim):
        sim.call_in(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(50, lambda: None)

    def test_clock_is_integer_microseconds(self, sim):
        sim.call_in(3, lambda: None)
        sim.run()
        assert isinstance(sim.now, int)


def reference_call_in(sim, delay, callback):
    """``call_in`` as a timeout with a closure callback: the engine's
    shape before its direct-call timers, kept here as the oracle."""
    trigger = sim.timeout(delay)
    trigger.add_callback(lambda _evt: callback())
    return trigger


def reference_call_at(sim, time, callback):
    """``call_at`` over :func:`reference_call_in`."""
    if time < sim.now:
        raise SimulationError(f"call_at({time}) is in the past")
    return reference_call_in(sim, time - sim.now, callback)


#: One scheduled timer: the API (call_in or call_at), its delay (small,
#: so instants tie), when to cancel it (right away, or after the run),
#: when to add a callback to it (right away, or after the run), the
#: delay of a child timer its function schedules, and which timer its
#: function tries to cancel when it fires.
TIMER_OPS = st.lists(
    st.tuples(st.sampled_from(["in", "at"]), st.integers(0, 4),
              st.sampled_from([None, "now", "after"]),
              st.sampled_from([None, "now", "after"]),
              st.none() | st.integers(0, 3),
              st.none() | st.integers(0, 11)),
    min_size=1, max_size=12)


def run_timer_program(backend, ops, call_in, call_at):
    """Run ``ops`` through one pair of timer functions; returns the
    firing log and every timer's (triggered, cancelled, value)."""
    sim = ENGINES[backend]()
    log = []
    timers = []

    def schedule(api, delay, callback):
        if api == "in":
            return call_in(sim, delay, callback)
        return call_at(sim, sim.now + delay, callback)

    def try_cancel(who, index):
        try:
            timers[index].cancel()
            log.append(("cancel", who, index, sim.now))
        except SimulationError:
            log.append(("too late", who, index, sim.now))

    def function(index, api, child, cancels):
        def fire():
            log.append(("fire", index, sim.now))
            if cancels is not None and cancels < len(timers):
                try_cancel(index, cancels)
            if child is not None:
                timers.append(schedule(
                    api, child,
                    lambda: log.append(("child", index, sim.now))))
        return fire

    def callback(index):
        return lambda evt: log.append(("callback", index, sim.now,
                                       evt.value))

    for index, (api, delay, cancel, add, child, cancels) in enumerate(ops):
        timers.append(schedule(api, delay,
                               function(index, api, child, cancels)))
        if cancel == "now":
            try_cancel("setup", index)
        if add == "now":
            timers[index].add_callback(callback(index))
    sim.run()
    for index, (_api, _delay, cancel, add, _child, _cancels) in \
            enumerate(ops):
        if cancel == "after":
            try_cancel("after", index)
        if add == "after":
            timers[index].add_callback(callback(index))
    states = [(timer.triggered, timer.cancelled,
               timer.value if timer.triggered else None)
              for timer in timers]
    return log, states


class TestTimerDifferential:
    """``call_in``/``call_at`` timers against the timeout-plus-closure
    shape they replace: same firing order, same cancellation outcome,
    same callbacks, same observable state."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(ops=TIMER_OPS)
    def test_timers_match_the_reference(self, backend, ops):
        expected = run_timer_program(backend, ops, reference_call_in,
                                     reference_call_at)
        actual = run_timer_program(
            backend, ops, lambda sim, delay, fn: sim.call_in(delay, fn),
            lambda sim, time, fn: sim.call_at(time, fn))
        assert actual == expected

    def test_timer_is_a_timeout_that_calls_its_function(self, sim):
        seen = []
        timer = sim.call_in(5, lambda: seen.append(sim.now))
        assert isinstance(timer, Timeout)
        assert not timer.triggered and timer.name == "timeout(5)"
        sim.run()
        assert seen == [5] and timer.triggered and timer.value is None


class TestCombinators:
    def test_any_of_first_wins(self, sim):
        combo = sim.any_of([sim.timeout(10, "slow"), sim.timeout(2, "fast")])
        sim.run()
        assert combo.value == (1, "fast")
        assert sim.now >= 2

    def test_any_of_requires_events(self, sim):
        with pytest.raises(ValueError):
            sim.any_of([])


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            sim = Simulator()
            tracer = Tracer(lambda: sim.now)
            import random
            rng = random.Random(1234)

            def step(name, left):
                tracer.record("test", "step", who=name)
                if left > 1:
                    sim.call_in(rng.randrange(1, 100),
                                lambda: step(name, left - 1))

            for n in range(4):
                sim.call_in(rng.randrange(1, 100),
                            lambda n=n: step(f"w{n}", 5))
            sim.run()
            return [(r.time, r.details["who"]) for r in tracer]

        trace = build_and_run()
        assert len(trace) == 20
        assert trace == build_and_run()


class TestTracer:
    def test_records_and_filters(self, sim):
        tracer = Tracer(lambda: sim.now)
        tracer.record("a", "x", k=1)
        tracer.record("a", "y", k=2)
        tracer.record("b", "x", k=1)
        assert len(tracer) == 3
        assert len(tracer.select(category="a")) == 2
        assert len(tracer.select(event="x")) == 2
        assert len(tracer.select(category="a", event="x", k=1)) == 1
        assert tracer.count(category="b") == 1

    def test_requires_clock(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            tracer.record("a", "b")

    def test_reads_the_time_off_a_simulator(self, sim):
        tracer, late = Tracer(sim), Tracer()
        late.bind_clock(sim)
        sim.call_in(7, lambda: (tracer.record("a", "x", k=1),
                                late.record("a", "x", k=2)))
        sim.run()
        assert [(r.time, r.get("k")) for r in tracer] == [(7, 1)]
        assert [(r.time, r.get("k")) for r in late] == [(7, 2)]
        with pytest.raises(TypeError):
            Tracer(clock=42)

    def test_subscribe_sees_new_records(self, sim):
        tracer = Tracer(lambda: sim.now)
        seen = []
        tracer.subscribe(lambda rec: seen.append(rec.event))
        tracer.record("c", "evt")
        assert seen == ["evt"]

    def test_dump_renders(self, sim):
        tracer = Tracer(lambda: sim.now)
        tracer.record("cat", "ev", value=3)
        text = tracer.dump()
        assert "cat/ev" in text
        assert "value=3" in text
