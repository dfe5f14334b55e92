"""Engine hot-path semantics: lazy tombstoning and slotted classes.

The optimization contract: ``Event.cancel()`` marks the event as a
tombstone in the pending-event set that is *skipped at pop* (the set is
never compacted eagerly), with time still advancing to the tombstone's
scheduled instant — the exact observable behavior a stale-but-firing
timer used to have.  The ``sim`` fixture (tests/conftest.py) runs every
test here on the heap engine and on its reference.
"""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import (
    AnyOf,
    Event,
    SimulationError,
    Timeout,
    Timer,
)
from tests.conftest import ENGINES


class TestCancelSemantics:
    def test_cancelled_timeout_never_fires(self, sim):
        fired = []
        timer = sim.timeout(10)
        timer.add_callback(lambda evt: fired.append(evt))
        timer.cancel()
        sim.run()
        assert fired == []
        assert timer.cancelled
        assert not timer.triggered

    def test_cancel_is_idempotent(self, sim):
        timer = sim.timeout(5)
        timer.cancel()
        timer.cancel()  # no-op, no raise
        assert timer.cancelled

    def test_cancel_after_trigger_raises(self, sim):
        timer = sim.timeout(5)
        sim.run()
        assert timer.triggered
        with pytest.raises(SimulationError):
            timer.cancel()

    def test_succeed_after_cancel_raises(self, sim):
        event = sim.event("e")
        event.cancel()
        with pytest.raises(SimulationError):
            event.succeed()
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("x"))

    def test_tombstone_pop_still_advances_now(self, sim):
        # A cancelled timer must leave sim.now exactly where a stale
        # firing timer would have: at the tombstone's scheduled time.
        sim.timeout(100).cancel()
        sim.run()
        assert sim.now == 100

    def test_tombstones_do_not_disturb_live_event_order(self, sim):
        order = []
        for delay in (10, 20, 30):
            sim.timeout(delay).add_callback(
                lambda evt, d=delay: order.append(d))
        doomed = [sim.timeout(d) for d in (5, 15, 25, 35)]
        for timer in doomed:
            timer.cancel()
        sim.run()
        assert order == [10, 20, 30]
        assert sim.now == 35

    def test_cancelled_skips_counter(self, backend):
        sim = ENGINES[backend](metrics=MetricsRegistry())
        for _ in range(7):
            sim.timeout(3).cancel()
        sim.timeout(4)
        sim.run()
        assert sim.metrics.counter("engine.cancelled_skips").value == 7
        assert sim.metrics.counter("engine.events_fired").value == 1

    def test_run_until_respects_tombstones(self, sim):
        fired = []
        sim.timeout(10).cancel()
        sim.timeout(20).add_callback(lambda evt: fired.append(sim.now))
        sim.run(until=15)
        assert fired == []
        assert sim.now == 15
        sim.run()
        assert fired == [20]


class TestSlots:
    @pytest.mark.parametrize("make", [
        lambda sim: sim.event("e"),
        lambda sim: sim.timeout(1),
        lambda sim: sim.call_in(1, lambda: None),
        lambda sim: sim.any_of([sim.timeout(1)]),
    ])
    def test_no_instance_dict(self, sim, make):
        obj = make(sim)
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.arbitrary_new_attribute = 1

    def test_timeout_name_is_lazy_but_stable(self, sim):
        timer = sim.timeout(42)
        assert timer.name == "timeout(42)"
        timer.name = "custom"
        assert timer.name == "custom"

    def test_event_classes_are_slotted(self):
        for cls in (Event, Timeout, Timer, AnyOf):
            assert "__slots__" in cls.__dict__
