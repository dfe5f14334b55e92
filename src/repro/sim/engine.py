"""Core discrete-event simulation engine.

The engine follows the classic event/process duality:

* An :class:`Event` is a one-shot occurrence that callbacks can be
  attached to.  Events carry a value (or an exception) once triggered.
* A :class:`Process` wraps a Python generator.  The generator *yields*
  events; the process sleeps until the yielded event triggers, then
  resumes with the event's value (or with the event's exception raised
  inside the generator).  A process is itself an event that triggers
  when the generator returns, so processes can wait for each other.
  Nothing in the simulated system runs on processes: a kernel thread
  steps its generator body itself
  (:meth:`repro.kernel.threads.KThread._advance`), and every other
  component schedules plain callbacks with :meth:`Simulator.call_in`
  and :meth:`Simulator.call_at`.

The :class:`Simulator` owns virtual time (integer microseconds) and the
pending-event set.  Two events scheduled for the same instant fire in
scheduling order, which keeps runs deterministic.

Hot-path design (E17, ``benchmarks/bench_engine_hotpath.py``, and the
kernel steps of ``benchmarks/e2e``): a run is millions of tiny timed
events with frequent cancellation, so constant factors dominate
wall-clock.  Four mechanisms keep them down:

* **``__slots__`` everywhere** — :class:`Event`, :class:`Timeout`,
  :class:`Timer` and :class:`Process` are slotted, halving per-event
  memory and speeding attribute access on the dispatch path.
* **Direct-call timers** — :meth:`Simulator.call_in` and
  :meth:`Simulator.call_at` return a :class:`Timer`, whose dispatch
  calls the scheduled function itself: one entry in the event set and
  one Python call per timer, with no closure and no callback list
  entry.  CPU completions, thread starts, arrivals and monitoring
  timers all take this path.
* **Lazy tombstoning** — :meth:`Event.cancel` marks a scheduled entry
  dead in place; the set skips tombstones at pop instead of removing
  and re-heapifying.  Cancellation is O(1), the skip is one flag test.
* **Deferred naming** — the default ``timeout(delay)`` display name is
  formatted on first access, not at construction, so the million-event
  case never pays string interpolation.

The pending set itself is a swappable backend (:mod:`repro.sim.event_set`).
An engine flavour supplies four things: the storage
(``_bind_event_storage``), the push (``_schedule_event``, which every
event, timeout and timer goes through), the drain (``_drain(until)``,
the one hot loop behind both ``run()`` and ``run(until=)``) and
``_advance_to`` (``now`` jumping to a run bound).
``step()``, ``pending``, ``next_event_time()`` and
``run(until_event=)`` are written once, on :class:`Simulator`, over the
event set's own ``pop``, ``peek_time`` and ``len``.
``Simulator(backend="heapq")`` is the reference binary-heap flavour;
``backend="calendar"`` selects :class:`CalendarSimulator`, whose drain
walks exact-time buckets instead.  Both flavours are differential-tested
to be observably indistinguishable (``tests/test_backend_conformance.py``).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.sim.event_set import (
    WHEEL_SPAN as _WHEEL_SPAN,
    _WHEEL_MASK,
    CalendarEventSet,
    HeapEventSet,
    available_backends,
    resolve_backend,
)


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (e.g. re-triggering an event)."""


class Interrupt(Exception):
    """Thrown inside a process when another process interrupts it.

    The interrupting party supplies ``cause``, an arbitrary payload the
    interrupted process can inspect (e.g. a preemption reason).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class ProcessKilled(Exception):
    """Thrown inside a process that is being forcibly terminated."""


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
        # Fast-path the single-waiter case: most events have one
        # waiter, such as a kernel thread blocked on them.
        if len(callbacks) == 1:
            callbacks[0](self)
        else:
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
        # Inlined Event.__init__ plus scheduling: this constructor is
        # the hottest allocation site in the engine.
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
        if len(callbacks) == 1:
            callbacks[0](self)
        else:
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


class AllOf(Event):
    """Triggers when every child event has triggered successfully.

    Its value is the list of child values in construction order.  Fails
    as soon as any child fails.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, "all_of")
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if not child.ok:
            self.fail(child._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])


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


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A generator-driven simulated activity.

    The generator yields :class:`Event` instances and is resumed with
    each event's value.  The process itself triggers (as an event) when
    the generator returns; its value is the generator's return value.

    Processes can be interrupted (:meth:`interrupt`): an
    :class:`Interrupt` is raised at the current yield point.  They can
    also be killed (:meth:`kill`), which raises :class:`ProcessKilled`
    and, if the generator lets it escape, terminates the process with a
    *successful* ``None`` result so that killing is not an error.
    """

    __slots__ = ("_generator", "_waiting_on", "_alive")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: str = ""):
        super().__init__(sim, name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self._alive = True
        # Start the process at the current instant, but asynchronously:
        # the creator continues first.
        start = Event(sim, "start")
        start.add_callback(self._resume)
        start.succeed()

    @property
    def alive(self) -> bool:
        """Whether the generator has not yet finished."""
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its yield point."""
        if not self._alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        self._throw_soon(Interrupt(cause))

    def kill(self) -> None:
        """Forcibly terminate the process.  Killing a dead process is a no-op."""
        if not self._alive:
            return
        self._throw_soon(ProcessKilled())

    def _throw_soon(self, exc: BaseException) -> None:
        # Deliver via an immediate event so the thrower keeps running and
        # delivery order stays deterministic.
        bomb = Event(self.sim, "throw")
        self._detach_wait()
        bomb.add_callback(lambda _evt: self._resume_throw(exc))
        bomb.succeed()

    def _detach_wait(self) -> None:
        # The process stops caring about the event it was waiting on.
        target = self._waiting_on
        self._waiting_on = None
        if target is not None and target._callbacks is not None:
            try:
                target._callbacks.remove(self._resume)
            except ValueError:
                pass

    def _resume_throw(self, exc: BaseException) -> None:
        if not self._alive:
            return
        try:
            next_event = self._generator.throw(exc)
        except StopIteration as stop:
            self._finish_ok(stop.value)
        except ProcessKilled:
            self._finish_ok(None)
        except BaseException as error:
            self._finish_fail(error)
        else:
            self._wait_for(next_event)

    def _resume(self, event: Event) -> None:
        waiting_on = self._waiting_on
        if not self._alive or (waiting_on is not None
                               and event is not waiting_on):
            return
        self._waiting_on = None
        try:
            if event._exception is not None:
                next_event = self._generator.throw(event._exception)
            else:
                value = event._value
                next_event = self._generator.send(
                    None if value is _PENDING else value)
        except StopIteration as stop:
            self._finish_ok(stop.value)
        except ProcessKilled:
            self._finish_ok(None)
        except BaseException as error:
            self._finish_fail(error)
        else:
            # Fast path: the yielded object is a plain Event (isinstance
            # is checked on the slow path only for the error message).
            # ``add_callback`` is inlined: pending events append, an
            # already-dispatched event resumes immediately.
            if isinstance(next_event, Event):
                self._waiting_on = next_event
                callbacks = next_event._callbacks
                if callbacks is not None:
                    callbacks.append(self._resume)
                else:
                    self._resume(next_event)
            else:
                self._wait_for(next_event)

    def _wait_for(self, event: Event) -> None:
        if not isinstance(event, Event):
            self._finish_fail(
                SimulationError(
                    f"process {self.name!r} yielded {event!r}, not an Event"))
            return
        self._waiting_on = event
        event.add_callback(self._resume)

    def _finish_ok(self, value: Any) -> None:
        self._alive = False
        self._generator = None
        if not self.triggered:
            self.succeed(value)

    def _finish_fail(self, error: BaseException) -> None:
        self._alive = False
        self._generator = None
        if not self.triggered:
            self.fail(error)
        else:
            raise error


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

    ``backend`` names the pending-event set implementation: ``"heapq"``
    (this class, the reference) or ``"calendar"``
    (:class:`CalendarSimulator`).  An explicit argument wins over the
    ``REPRO_SIM_BACKEND`` environment variable, which wins over the
    heapq default; unknown names raise :class:`ValueError`.
    Constructing ``Simulator(backend="calendar")`` returns the
    subclass, so ``isinstance(sim, Simulator)`` holds for every
    backend.
    """

    #: Registry name of this flavour's event-set backend.
    backend_name = "heapq"

    def __new__(cls, metrics=None, backend=None):
        if (cls is Simulator and resolve_backend(backend)
                == CalendarSimulator.backend_name):
            cls = CalendarSimulator
        return object.__new__(cls)

    def __init__(self, metrics=None, backend=None):
        from repro.obs.metrics import resolve_metrics

        if backend is not None and resolve_backend(backend) != self.backend_name:
            raise ValueError(
                f"backend {backend!r} does not match "
                f"{type(self).__name__} (backend {self.backend_name!r}); "
                f"available backends: {', '.join(available_backends())}")
        self.backend = self.backend_name
        self.now: int = 0
        self._bind_event_storage()
        self.metrics = resolve_metrics(metrics)
        self._m_scheduled = self.metrics.counter("engine.events_scheduled")
        self._m_fired = self.metrics.counter("engine.events_fired")
        self._m_cancelled_skips = self.metrics.counter(
            "engine.cancelled_skips")
        self._m_heap_depth = self.metrics.gauge("engine.heap_depth")
        # Cached flag keeping the per-push metric updates off the hot
        # path when metrics are disabled (the default).
        self._instrumented = self.metrics.enabled

    def _bind_event_storage(self) -> None:
        # The engine's hot loops own the event set's storage directly
        # (``self._heap`` is the *same list* as ``self.events._heap``)
        # and keep their own tie-break counter, so pushing through
        # ``self.events`` must not be mixed with engine scheduling on a
        # live simulator.  ``self.events`` is the contract object the
        # conformance harness exercises standalone.
        self.events = HeapEventSet()
        self._heap: List[Tuple[int, int, Event]] = self.events._heap
        self._sequence = 0

    # -- event factories ------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` microseconds from now."""
        return Timeout(self, int(delay), value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Launch a generator as a simulated process."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event that fires when every given event has fired."""
        return AllOf(self, events)

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
        timer = Timer(self, int(delay))
        timer._function = callback
        return timer

    # -- execution ------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of scheduled (not yet dispatched) event triggers.

        Tombstones included (the set is never compacted eagerly), and
        exact inside callbacks: a drain takes each entry off the set
        before dispatching it.
        """
        return len(self.events)

    def next_event_time(self) -> Optional[int]:
        """Absolute time of the earliest pending entry, or ``None``.

        Tombstones count: a cancelled entry still advances virtual time
        when popped, so its instant is a faithful (conservative) lower
        bound on when this simulator next does *anything*.
        """
        return self.events.peek_time()

    def _take(self) -> bool:
        """Pop one entry and dispatch it unless it is a tombstone (which
        still advances time to its instant).  Returns whether it fired."""
        time, event = self.events.pop()
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
        while self.events:
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
            events = self.events
            while (events and not until_event.triggered
                   and (until is None or events.peek_time() <= until)):
                self._take()
            if until_event.triggered:
                return until_event.value
        if until is not None:
            self._advance_to(until)
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

    def _advance_to(self, until: int) -> None:
        # Every entry due by ``until`` has been dispatched.
        self.now = until


# Bound C constructor for the calendar flavour's inlined timeout()
# fast path (Timeout defines __slots__ only, so object.__new__ is the
# whole allocation).
_new_timeout = object.__new__


class CalendarSimulator(Simulator):
    """Simulator flavour backed by the calendar-queue event set.

    Same observable semantics as the heapq reference.  Only what E17
    gates is specialized for the ring layout: the push, the
    ``timeout()`` constructor and the drain, which walks one slot per
    *instant* instead of one heap operation per event, writes
    ``self.now`` once per instant, and allocates no per-event tuple or
    sequence number for in-window traffic.  See
    :class:`repro.sim.event_set.CalendarEventSet` for the bucket policy
    and ``tests/test_backend_conformance.py`` for the differential
    proof of equivalence.
    """

    backend_name = "calendar"

    def _bind_event_storage(self) -> None:
        # As in the base class, the hot loops below reach into the
        # event set's storage directly; ``self.events`` is the shared
        # contract object.
        self.events = CalendarEventSet()

    def _schedule_event(self, event: Event, delay: int = 0) -> None:
        # Inlined CalendarEventSet.push, with two engine liberties the
        # standalone set cannot take: no past-push guard (delays are
        # non-negative, so ``time >= now``), and the window anchored on
        # ``self.now``, which every drain path writes together with
        # ``_scan_time`` — so the in-window test is ``delay`` alone.
        # The layout invariants survive because pending times never
        # trail ``now``: a slot collision would need two pending
        # instants ``WHEEL_SPAN`` apart with the later one in-window,
        # putting the earlier behind ``now``; and ``now`` is monotone,
        # so per target instant "in-window" stays a latched property
        # (overflow entries predate ring entries).
        event._scheduled = True
        events = self.events
        time = self.now + delay
        if delay < _WHEEL_SPAN:
            events._ring[time & _WHEEL_MASK].append(event)
            events._wheel_count += 1
        else:
            events._sequence += 1
            heapq.heappush(events._overflow, (time, events._sequence, event))
        events._size += 1
        if self._instrumented:
            self._m_scheduled.value += 1
            self._m_heap_depth.set(events._size)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` microseconds from now.

        Calendar fast path: builds the :class:`Timeout` without the
        ``__init__`` -> ``_schedule_event`` call chain — the field
        assignments mirror ``Timeout.__init__`` and the scheduling
        mirrors :meth:`_schedule_event`; keep all three in sync.
        """
        if delay.__class__ is not int:
            delay = int(delay)
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        event = _new_timeout(Timeout)
        event.sim = self
        event._name = ""
        event._value = _PENDING
        event._exception = None
        event._callbacks = []
        event._scheduled = True
        event._cancelled = False
        event._scheduled_value = value
        event._delay = delay
        events = self.events
        if delay < _WHEEL_SPAN:
            events._ring[(self.now + delay) & _WHEEL_MASK].append(event)
            events._wheel_count += 1
        else:
            events._sequence += 1
            heapq.heappush(events._overflow,
                           (self.now + delay, events._sequence, event))
        events._size += 1
        if self._instrumented:
            self._m_scheduled.value += 1
            self._m_heap_depth.set(events._size)
        return event

    def _drain(self, until: Optional[int]) -> None:
        """Dispatch every entry due at or before ``until`` (all if None).

        One ring walk per instant, and ``until`` tested once per
        instant.  The cursor (``_scan_time``, ``_slot_idx``) and both
        counters are written through as each entry is taken, before it
        is dispatched, so a callback sees exactly the pending set
        ``step()`` would leave (``pending``/``next_event_time()`` exact
        mid-instant), and a dispatch that raises leaves the event set
        consistent with nothing to replay.  The indexed inner loop
        picks up appends *at* the instant being drained (immediate
        events, process starts) in push order, and starts mid-slot when
        ``step()`` left the instant half-drained.  ``t`` runs ahead of
        ``_scan_time`` only across empty instants.  Fired and skipped
        entries are counted as in the reference flavour.
        """
        events = self.events
        ring = events._ring
        overflow = events._overflow
        heappop = heapq.heappop
        pending_marker = _PENDING
        timeout_cls = Timeout
        bound = _FOREVER if until is None else until
        fired = skipped = 0
        t = events._scan_time
        idx = events._slot_idx
        try:
            while events._size:
                if events._wheel_count and not (overflow
                                                and overflow[0][0] <= t):
                    slot = ring[t & _WHEEL_MASK]
                    if idx < len(slot):
                        if t > bound:
                            break
                        if t < self.now:
                            raise SimulationError(
                                "event scheduled in the past")
                        self.now = events._scan_time = t
                        while idx < len(slot):
                            event = slot[idx]
                            idx += 1
                            events._slot_idx = idx
                            events._size -= 1
                            events._wheel_count -= 1
                            if event._cancelled:
                                skipped += 1
                                continue
                            fired += 1
                            if type(event) is timeout_cls:
                                # Monomorphic Timeout._dispatch, inlined
                                # (the dominant event type by far —
                                # keep in sync with the method).
                                if event._value is pending_marker:
                                    event._value = event._scheduled_value
                                callbacks = event._callbacks
                                if callbacks is None:
                                    continue
                                event._callbacks = None
                                if len(callbacks) == 1:
                                    callbacks[0](event)
                                else:
                                    for callback in callbacks:
                                        callback(event)
                            else:
                                event._dispatch()
                    if idx:
                        # Slot consumed: clear it for reuse before the
                        # walk moves past its instant.
                        slot.clear()
                        idx = events._slot_idx = 0
                    t += 1
                    continue
                # Overflow entries due at this instant predate every ring
                # entry for it, so they drain first; with the ring empty
                # the drain is reference-style.  A consumed slot is
                # cleared before the anchor jumps (slot reuse safety).
                # Keep the ring branch first: with the branches swapped
                # the E17 timeout-heavy shape ran about a third slower
                # on CPython 3.11.
                if idx:
                    ring[t & _WHEEL_MASK].clear()
                    idx = events._slot_idx = 0
                time = overflow[0][0]
                if time > bound:
                    break
                time, _seq, event = heappop(overflow)
                events._size -= 1
                if time < self.now:
                    raise SimulationError("event scheduled in the past")
                self.now = events._scan_time = t = time
                if event._cancelled:
                    skipped += 1
                else:
                    fired += 1
                    event._dispatch()
        finally:
            self._m_fired.inc(fired)
            self._m_cancelled_skips.inc(skipped)

    def _advance_to(self, until: int) -> None:
        # ``now`` jumps to the run bound without a pop, so the window
        # anchor must follow: later pushes anchor the in-window test on
        # ``now``, and with a lagging anchor an entry at ``T`` would
        # alias into the slot the pop walk reaches at ``T - WHEEL_SPAN``
        # and fire early.  Every instant <= ``until`` has been drained
        # here, so the slot at the old anchor holds only consumed
        # entries — clearing it before the jump is the same dirty-slot
        # discipline the pop walk follows.
        events = self.events
        if events._slot_idx:
            events._ring[events._scan_time & _WHEEL_MASK].clear()
            events._slot_idx = 0
        events._scan_time = until
        self.now = until
