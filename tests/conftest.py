"""Shared engine fixtures, parametrized over the heap engine and its
test-local reference, a spawn that records a thread's end, the call
counter of the counted ceilings, and the reference that trace queries
are compared with.

Engine-level tests (``test_sim_engine.py``, ``test_engine_edges.py``,
``test_engine_cancellation.py``) run on both engines via the ``sim``
fixture: ``heapq``, the library's one :class:`Simulator`, and
``calendar``, the :class:`CalendarReference` written here, which the
differential tests (``test_backend_conformance.py``, the 24-seed
harness) compare the heap engine with.  The semantics they pin —
same-instant FIFO, tombstone time-advance, ``run(until=)`` bound
re-checks — thus hold for the engine and for its oracle alike.  Suites
that need a specific configuration (network, kernel, devices) keep
their own ``sim`` fixture, which shadows this one.
"""

import contextlib
import cProfile
import gc

import pytest

import repro.system
from repro.kernel.threads import KThread
from repro.sim.engine import SimulationError, Simulator


class CalendarReference(Simulator):
    """The engine's contract, written as plainly as it can be.

    Pending entries live in a calendar: a dict from each instant to its
    entries in push order.  A take scans the calendar for its earliest
    instant and takes that instant's first entry, so (time, push order)
    holds by construction, with no heap and no sequence number.
    ``run`` takes one entry at a time while the earliest instant is
    due: there is no drain loop and no bound re-check to get wrong.
    Events, timeouts and timers are the engine's own classes, which
    schedule through ``_schedule_event``, and the ``engine.*`` metrics
    move as the engine's do, so whole systems built on either engine
    trace and report alike.
    """

    def __init__(self, metrics=None):
        super().__init__(metrics=metrics)
        del self._heap  # every reader of the heap is overridden below
        self._calendar = {}  # instant -> [event, ...] in push order
        self._count = 0

    def _schedule_event(self, event, delay=0):
        event._scheduled = True
        self._calendar.setdefault(self.now + delay, []).append(event)
        self._count += 1
        if self._instrumented:
            self._m_scheduled.inc()
            self._m_heap_depth.set(self._count)

    @property
    def pending(self):
        return self._count

    def next_event_time(self):
        return min(self._calendar) if self._calendar else None

    def _take(self):
        if not self._calendar:
            raise IndexError("take from an empty calendar")
        time = min(self._calendar)
        entries = self._calendar[time]
        event = entries.pop(0)
        if not entries:
            del self._calendar[time]
        self._count -= 1
        self.now = time
        if event._cancelled:
            self._m_cancelled_skips.inc()
            return False
        self._m_fired.inc()
        event._dispatch()
        return True

    def step(self):
        while self._calendar:
            if self._take():
                return True
        return False

    def run(self, until=None, until_event=None):
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is in the past")
        while (self._calendar
               and (until_event is None or not until_event.triggered)
               and (until is None or min(self._calendar) <= until)):
            self._take()
        if until_event is not None and until_event.triggered:
            return until_event.value
        if until is not None:
            self.now = until
        return None


#: The engine under test and its reference, by id, engine first.
ENGINES = {"heapq": Simulator, "calendar": CalendarReference}
BACKENDS = tuple(ENGINES)


@pytest.fixture(params=BACKENDS)
def backend(request):
    """Engine id; parametrizes dependent fixtures and tests."""
    return request.param


@pytest.fixture
def sim(backend):
    """A fresh engine: the heap engine or its reference."""
    return ENGINES[backend]()


@contextlib.contextmanager
def on_engine(backend):
    """Build every :class:`~repro.system.HadesSystem` inside the block
    on ``backend``'s engine."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.system, "Simulator", ENGINES[backend])
        yield


def spawn_with_end(node, body, **params):
    """Build, register and start a thread as ``node.spawn(body,
    **params)`` does (without its crashed-node check), with an end
    hook: returns the thread and the list to which its hook appends
    the end's ``(value, error)``."""
    ends = []
    thread = KThread(node, body, **params,
                     on_end=lambda value, error: ends.append((value, error)))
    node.register_thread(thread)
    thread.start()
    return thread, ends


def count_calls(fn, *args, **kwargs):
    """Every call cProfile counts while ``fn(*args, **kwargs)`` runs.

    A collection first keeps the previous run's garbage out of the
    count, so the count is exact per seed.  Compare two counts taken in
    one interpreter: call counts differ between Python versions.
    """
    gc.collect()
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn(*args, **kwargs)
    finally:
        profile.disable()
    return sum(entry.callcount for entry in profile.getstats())


def select_oracle(tracer, category=None, event=None, t_min=None,
                  t_max=None, **details):
    """What ``tracer.select`` answers, stated as plainly as it can be:
    every held record, in order, of the category and event, inside the
    inclusive window ``[t_min, t_max]``, whose details hold every given
    value."""
    return [entry for entry in tracer.records
            if (category is None or entry.category == category)
            and (event is None or entry.event == event)
            and (t_min is None or t_min <= entry.time)
            and (t_max is None or entry.time <= t_max)
            and all(entry.details.get(name) == value
                    for name, value in details.items())]
