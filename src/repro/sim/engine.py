"""Core discrete-event simulation engine.

An :class:`Event` is a one-shot occurrence that callbacks can be
attached to.  Events carry a value (or an exception) once triggered.
Nothing in the simulated system waits on events from a generator of
its own: a kernel thread steps its generator body itself
(:meth:`repro.kernel.threads.KThread._advance`), and every other
component schedules plain callbacks with :meth:`Simulator.call_in`
and :meth:`Simulator.call_at`.

The :class:`Simulator` owns virtual time (integer microseconds) and the
pending-event set: one binary heap of ``(time, sequence, event)``
triples.  Two events scheduled for the same instant fire in scheduling
order (the sequence number breaks the tie), which keeps runs
deterministic.

Hot-path design (E17, ``benchmarks/bench_engine_hotpath.py``, and the
kernel steps of ``benchmarks/e2e``): a run is millions of tiny timed
events with frequent cancellation, so constant factors dominate
wall-clock.  Four mechanisms keep them down:

* **``__slots__`` everywhere** — :class:`Event`, :class:`Timeout`,
  :class:`Timer` and :class:`AnyOf` are slotted, halving per-event
  memory and speeding attribute access on the dispatch path.
* **Direct-call timers** — :meth:`Simulator.call_in` and
  :meth:`Simulator.call_at` return a :class:`Timer`, whose dispatch
  calls the scheduled function itself: one entry in the event set and
  one Python call per timer, with no closure and no callback list
  entry.  CPU completions, thread starts, arrivals and monitoring
  timers all take this path.
* **Lazy tombstoning** — :meth:`Event.cancel` marks a scheduled entry
  dead in place; the drain skips tombstones at pop instead of removing
  and re-heapifying.  Cancellation is O(1), the skip is one flag test.
* **Deferred naming** — the default ``timeout(delay)`` display name is
  formatted on first access, not at construction, so the million-event
  case never pays string interpolation.

Every event, timeout and timer enters the heap through one push
(``_schedule_event``), and ``run()`` and ``run(until=)`` share one
drain (``_drain``).  ``step()``, ``pending``, ``next_event_time()`` and
``run(until_event=)`` read the same heap.  DESIGN.md §6 records why
there is one event core.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (e.g. re-triggering an event)."""


# Sentinel distinguishing "not yet triggered" from "triggered with None".
_PENDING = object()

# The bound of an unbounded drain.
_FOREVER = float("inf")


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it is later *succeeded* with a value or
    *failed* with an exception.  Callbacks attached before the trigger
    run at trigger time; callbacks attached afterwards run immediately.
    A pending event can instead be *cancelled*, after which it never
    triggers (see :meth:`cancel`).
    """

    __slots__ = ("sim", "_name", "_value", "_exception", "_callbacks",
                 "_scheduled", "_cancelled")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self._name = name
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._scheduled = False
        self._cancelled = False

    @property
    def name(self) -> str:
        """Display name used in errors and ``repr`` (may be lazy)."""
        return self._name

    @name.setter
    def name(self, value: str) -> None:
        self._name = value

    @property
    def triggered(self) -> bool:
        """Whether the event has already occurred (succeeded or failed)."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only meaningful once triggered."""
        return self._value is not _PENDING and self._exception is None

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this event."""
        return self._cancelled

    @property
    def value(self) -> Any:
        """The delivered value (raises if failed or pending)."""
        if self._value is _PENDING:
            raise SimulationError(f"event {self.name!r} has not been triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._value is not _PENDING:
            raise SimulationError(f"event {self.name!r} already triggered")
        if self._scheduled:
            raise SimulationError(
                f"event {self.name!r} is already scheduled to fire; "
                f"it cannot be triggered manually")
        if self._cancelled:
            raise SimulationError(f"event {self.name!r} was cancelled")
        self._value = value
        self.sim._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to raise in waiters."""
        if self._value is not _PENDING:
            raise SimulationError(f"event {self.name!r} already triggered")
        if self._scheduled:
            raise SimulationError(
                f"event {self.name!r} is already scheduled to fire; "
                f"it cannot be triggered manually")
        if self._cancelled:
            raise SimulationError(f"event {self.name!r} was cancelled")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = None
        self._exception = exception
        self.sim._schedule_event(self)
        return self

    def cancel(self) -> "Event":
        """Cancel the event: it will never trigger and runs no callbacks.

        A scheduled entry (e.g. a pending :class:`Timeout`) becomes a
        *tombstone* in the event heap — skipped when popped, never
        re-heapified — so cancellation is O(1) regardless of heap depth.
        Cancelling an already-triggered event is an error; cancelling
        twice is a no-op.  After cancellation, :meth:`succeed` and
        :meth:`fail` raise :class:`SimulationError`.
        """
        if self._value is not _PENDING:
            raise SimulationError(
                f"cannot cancel already-triggered event {self.name!r}")
        self._cancelled = True
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event triggers.

        If the event already triggered *and was dispatched*, the callback
        runs immediately.  Callbacks added to a cancelled event never run.
        """
        if self._callbacks is None:  # already dispatched
            callback(self)
        else:
            self._callbacks.append(callback)

    def _dispatch(self) -> None:
        callbacks = self._callbacks
        if callbacks is None:  # already dispatched: idempotent
            return
        self._callbacks = None
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        if self._cancelled:
            state = "cancelled"
        else:
            state = "triggered" if self._value is not _PENDING else "pending"
        return f"<{type(self).__name__} {self.name!r} {state}>"


class Timeout(Event):
    """An event that triggers automatically ``delay`` microseconds from now."""

    __slots__ = ("_scheduled_value", "_delay")

    def __init__(self, sim: "Simulator", delay: int, value: Any = None,
                 name: str = ""):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ plus scheduling (Simulator.call_in
        # inlines this constructor in turn, for its timers).
        self.sim = sim
        self._name = name
        self._value = _PENDING
        self._exception = None
        self._callbacks = []
        self._scheduled = False
        self._cancelled = False
        self._scheduled_value = value
        self._delay = delay
        sim._schedule_event(self, delay)

    @property
    def name(self) -> str:
        """Display name; the ``timeout(delay)`` default is formatted lazily."""
        return self._name or f"timeout({self._delay})"

    @name.setter
    def name(self, value: str) -> None:
        self._name = value

    def _dispatch(self) -> None:
        # The value becomes observable (and `triggered` true) only when
        # the timeout actually fires, not at construction.
        if self._value is _PENDING:
            self._value = self._scheduled_value
        callbacks = self._callbacks
        if callbacks is None:
            return
        self._callbacks = None
        for callback in callbacks:
            callback(self)


class Timer(Timeout):
    """A timeout that calls ``function()`` itself when it fires.

    :meth:`Simulator.call_in` and :meth:`Simulator.call_at` return one.
    It behaves as a :class:`Timeout` of value None whose first callback
    calls ``function``: ``cancel`` tombstones it, ``triggered`` turns
    true when it fires, and callbacks added with ``add_callback`` run
    after ``function``, or at once once it has fired.  It just needs
    no closure and no callback list entry to do so.
    """

    __slots__ = ("_function",)

    def _dispatch(self) -> None:
        callbacks = self._callbacks
        if callbacks is None:  # already dispatched: idempotent
            return
        self._value = None
        self._callbacks = None
        self._function()
        for callback in callbacks:
            callback(self)


#: Allocates a :class:`Timer` without running an ``__init__``.
_new_timer = object.__new__


class AnyOf(Event):
    """Triggers when the first child event triggers.

    Its value is a ``(index, value)`` pair identifying which child fired
    first.  Fails if the first child to trigger fails.
    """

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, "any_of")
        self._children = list(events)
        if not self._children:
            raise ValueError("AnyOf requires at least one event")
        for index, child in enumerate(self._children):
            child.add_callback(lambda c, i=index: self._on_child(i, c))

    def _on_child(self, index: int, child: Event) -> None:
        if self.triggered:
            return
        if not child.ok:
            self.fail(child._exception)
        else:
            self.succeed((index, child._value))


class Simulator:
    """Owner of virtual time and the pending-event schedule.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`, ``True`` to
    create one, or ``None``/``False`` for the no-op default — see
    :func:`repro.obs.resolve_metrics`) enables engine instrumentation:
    events scheduled/fired/cancelled counters and a heap-depth gauge.
    Pushes update the first and last behind one cached boolean; the
    drain tallies fired and cancelled entries in locals and adds them
    to the counters when it returns or raises, so metrics never select
    a different loop.
    """

    def __init__(self, metrics=None):
        from repro.obs.metrics import resolve_metrics

        self.now: int = 0
        # The pending set: ``(time, sequence, event)`` triples, the
        # sequence number breaking same-instant ties in push order.
        self._heap: List[Tuple[int, int, Event]] = []
        self._sequence = 0
        self.metrics = resolve_metrics(metrics)
        self._m_scheduled = self.metrics.counter("engine.events_scheduled")
        self._m_fired = self.metrics.counter("engine.events_fired")
        self._m_cancelled_skips = self.metrics.counter(
            "engine.cancelled_skips")
        self._m_heap_depth = self.metrics.gauge("engine.heap_depth")
        # Cached flag keeping the per-push metric updates off the hot
        # path when metrics are disabled (the default).
        self._instrumented = self.metrics.enabled

    # -- event factories ------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` microseconds from now."""
        return Timeout(self, int(delay), value)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event that fires with the first given event."""
        return AnyOf(self, events)

    # -- scheduling -----------------------------------------------------

    def _schedule_event(self, event: Event, delay: int = 0) -> None:
        event._scheduled = True
        self._sequence += 1
        heapq.heappush(self._heap, (self.now + delay, self._sequence, event))
        if self._instrumented:
            # One call per instrumented push: the counter is a plain
            # slot, the gauge keeps its maximum and sample count.
            self._m_scheduled.value += 1
            self._m_heap_depth.set(len(self._heap))

    def call_at(self, time: int, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` at absolute simulated ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"call_at({time}) is in the past (now={self.now})")
        return self.call_in(time - self.now, callback)

    def call_in(self, delay: int, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` after ``delay`` microseconds.

        The returned :class:`Timer` takes the same place in the event
        set as ``timeout(delay)`` with ``callback`` as its callback.
        """
        delay = int(delay)
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Timeout.__init__, inlined: every kernel step and monitoring
        # timer comes through here.  The push stays _schedule_event's.
        timer = _new_timer(Timer)
        timer.sim = self
        timer._name = ""
        timer._value = _PENDING
        timer._exception = None
        timer._callbacks = []
        timer._cancelled = False
        timer._scheduled_value = None
        timer._delay = delay
        timer._function = callback
        self._schedule_event(timer, delay)
        return timer

    # -- execution ------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of scheduled (not yet dispatched) event triggers.

        Tombstones included (the set is never compacted eagerly), and
        exact inside callbacks: a drain takes each entry off the set
        before dispatching it.
        """
        return len(self._heap)

    def next_event_time(self) -> Optional[int]:
        """Absolute time of the earliest pending entry, or ``None``.

        Tombstones count: a cancelled entry still advances virtual time
        when popped, so its instant is a faithful (conservative) lower
        bound on when this simulator next does *anything*.
        """
        heap = self._heap
        return heap[0][0] if heap else None

    def _take(self) -> bool:
        """Pop one entry and dispatch it unless it is a tombstone (which
        still advances time to its instant).  Returns whether it fired."""
        time, _seq, event = heapq.heappop(self._heap)
        if time < self.now:
            raise SimulationError("event scheduled in the past")
        self.now = time
        if event._cancelled:
            self._m_cancelled_skips.inc()
            return False
        self._m_fired.inc()
        event._dispatch()
        return True

    def step(self) -> bool:
        """Dispatch the next scheduled event, skipping tombstones on the
        way.  Returns False when idle."""
        while self._heap:
            if self._take():
                return True
        return False

    def run(self, until: Optional[int] = None,
            until_event: Optional[Event] = None) -> Any:
        """Run until the schedule drains, ``until`` is reached, or
        ``until_event`` triggers.

        Returns ``until_event``'s value if given and triggered.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is in the past")
        if until_event is None:
            self._drain(until)
        else:
            # One entry per iteration: step() skips tombstones until it
            # dispatches something, so it could overshoot ``until``.
            heap = self._heap
            while (heap and not until_event.triggered
                   and (until is None or heap[0][0] <= until)):
                self._take()
            if until_event.triggered:
                return until_event.value
        if until is not None:
            # Every entry due by ``until`` has been dispatched.
            self.now = until
        return None

    def _drain(self, until: Optional[int]) -> None:
        """Dispatch every entry due by ``until`` (all of them if None).

        The one hot loop behind ``run()`` and ``run(until=)``.  Fired
        and skipped entries are counted in locals and added to the
        ``engine.*`` counters on the way out, a raising callback's
        entry included.
        """
        heap = self._heap
        heappop = heapq.heappop
        bound = _FOREVER if until is None else until
        fired = skipped = 0
        try:
            while heap:
                time, seq, event = heappop(heap)
                if time > bound:
                    # Put back the one entry past the bound.
                    heapq.heappush(heap, (time, seq, event))
                    break
                if time < self.now:
                    raise SimulationError("event scheduled in the past")
                self.now = time
                if event._cancelled:
                    skipped += 1
                else:
                    fired += 1
                    event._dispatch()
        finally:
            self._m_fired.inc(fired)
            self._m_cancelled_skips.inc(skipped)
