"""Swappable pending-event set backends for the simulation engine.

The :class:`~repro.sim.engine.Simulator` owns virtual time; *where the
pending events live* is a backend decision.  Every backend implements
the same small contract, so a differential harness
(``tests/test_backend_conformance.py``) can replay one operation
sequence through two backends and assert identical behaviour.

The contract
------------

* ``push(time, event)`` — schedule ``event`` at absolute ``time``.
  Pushes arrive with monotonically non-decreasing *current* time: a
  push never targets an instant earlier than the last popped time.
  **Every backend enforces this** and raises :class:`ValueError` on a
  violation — the contract is universal, not a calendar-queue
  implementation detail, so a buggy caller fails identically under
  either backend instead of passing on the reference and exploding on
  the ring.
* ``pop()`` — remove and return ``(time, event)`` for the entry with
  the smallest ``(time, insertion order)``.  Raises :class:`IndexError`
  when empty.  Two entries at the same instant pop in push order —
  this is the engine's determinism guarantee.
* ``peek_time()`` — the ``time`` the next ``pop()`` would return, or
  ``None`` when empty.
* ``cancel-tombstone`` — cancellation is *not* an event-set operation.
  :meth:`repro.sim.engine.Event.cancel` flags the event; the entry
  stays in the set and still pops in order (the engine skips it at
  dispatch).  Backends must therefore never reorder or drop cancelled
  entries: a tombstone transits the set exactly like a live event.
* ``__len__`` — number of pushed-but-not-popped entries, tombstones
  included.

``Simulator.step()``, ``pending``, ``next_event_time()`` and
``run(until_event=)`` use ``pop``, ``peek_time`` and ``len`` as they
are.  An engine flavour supplies the rest: the storage, an inlined
push, the drain behind ``run()``/``run(until=)`` and ``_advance_to``
(see :mod:`repro.sim.engine`).

Backends
--------

:class:`HeapEventSet`
    The reference implementation: one binary heap of
    ``(time, sequence, event)`` triples (``heapq``).  Simple, O(log n)
    per operation, and the semantics yardstick every other backend is
    differential-tested against.

:class:`CalendarEventSet`
    A calendar queue tuned for the E17 timeout/cancel-heavy shapes,
    where delays are short and many events share an instant.

    **Bucket policy:** a fixed ring of ``WHEEL_SPAN`` (64) reusable
    list slots, one per microsecond of a sliding window anchored at
    the last popped instant.  A push within the window appends to
    ``ring[time % WHEEL_SPAN]`` — no allocation, no heap operation, no
    sequence counter, since a plain list preserves push order and the
    window guarantees each slot maps to at most one pending instant.
    Pushes at or beyond the window's far edge go to an *overflow*
    ``(time, sequence, event)`` heap, exactly the reference layout.
    Popping walks the ring one instant at a time (empty slots cost a
    single truthiness test), merging in overflow entries when their
    instant comes up; because the window only ever slides forward, all
    overflow entries for an instant predate all ring entries for it,
    so draining overflow first preserves global push order.  Slots are
    cleared (never freed) when the walk moves past them, keeping the
    steady state allocation-free.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from typing import Any, List, Optional, Tuple

#: Environment variable overriding the default backend (but not an
#: explicit ``backend=`` argument).
BACKEND_ENV = "REPRO_SIM_BACKEND"

DEFAULT_BACKEND = "heapq"

#: Width (in microseconds) of the calendar ring.  Power of two so the
#: slot index is a mask.  64 covers the short-delay traffic the wheel
#: is for (engine timeouts, kernel quanta, network hops) while keeping
#: the worst-case empty-slot walk between sparse instants bounded and
#: cheap; longer delays take the overflow heap, which is simply the
#: reference layout.
WHEEL_SPAN = 64
_WHEEL_MASK = WHEEL_SPAN - 1


class HeapEventSet:
    """Reference backend: a ``heapq`` of ``(time, sequence, event)``.

    The sequence number breaks same-instant ties in push order.  The
    engine's heapq-flavoured ``Simulator`` shares this storage: it
    inlines the push and its drain's pop (see :mod:`repro.sim.engine`),
    and this class is the plain-spoken contract they must match.
    """

    name = "heapq"

    __slots__ = ("_heap", "_sequence", "_last_popped")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Any]] = []
        self._sequence = 0
        self._last_popped = 0

    def push(self, time: int, event: Any) -> None:
        if time < self._last_popped:
            # The monotone-push contract, enforced here exactly as the
            # calendar backend enforces it at its window anchor — a
            # violating caller must fail on the reference too.
            raise ValueError(
                f"push at {time} is before the last popped instant "
                f"{self._last_popped}")
        self._sequence += 1
        heappush(self._heap, (time, self._sequence, event))

    def pop(self) -> Tuple[int, Any]:
        time, _seq, event = heappop(self._heap)
        self._last_popped = time
        return time, event

    def peek_time(self) -> Optional[int]:
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)


class CalendarEventSet:
    """Calendar-queue backend: a sliding ring of slots + overflow heap.

    See the module docstring for the bucket policy.  Internal state:

    * ``_scan_time`` — the window anchor: the instant the pop walk
      resumes from.  Equals the last popped time (pops are globally
      monotone), so every future push lands at or after it.
    * ``_slot_idx`` — consumption cursor into the slot at
      ``_scan_time``.  Non-zero means that slot is being drained; a
      same-instant push appends to the live slot and is picked up
      before the cursor retires, preserving FIFO across events
      scheduled *during* the instant (immediate events, process
      starts).  A consumed slot is cleared for reuse only when the
      walk moves past its instant.

    The window-slide argument for correctness: the anchor never moves
    backwards, so for a fixed target time "in the window" is a latched
    property — once one push at time *t* lands in the ring, every
    later push at *t* does too, and conversely every overflow entry at
    *t* predates every ring entry at *t*.  Draining overflow first at
    each instant therefore reproduces exact push order.  Two pending
    instants can never share a ring slot: a colliding time would have
    to be a full ``WHEEL_SPAN`` away from an instant that is still at
    or ahead of the anchor, which the window test sends to overflow.
    """

    name = "calendar"

    __slots__ = ("_ring", "_overflow", "_sequence", "_size",
                 "_wheel_count", "_scan_time", "_slot_idx")

    def __init__(self) -> None:
        self._ring: List[List[Any]] = [[] for _ in range(WHEEL_SPAN)]
        self._overflow: List[Tuple[int, int, Any]] = []
        self._sequence = 0
        self._size = 0
        self._wheel_count = 0
        self._scan_time = 0
        self._slot_idx = 0

    def push(self, time: int, event: Any) -> None:
        delta = time - self._scan_time
        if delta < WHEEL_SPAN:
            if delta < 0:
                raise ValueError(
                    f"push at {time} is before the last popped instant "
                    f"{self._scan_time}")
            self._ring[time & _WHEEL_MASK].append(event)
            self._wheel_count += 1
        else:
            self._sequence += 1
            heappush(self._overflow, (time, self._sequence, event))
        self._size += 1

    def pop(self) -> Tuple[int, Any]:
        if not self._size:
            raise IndexError("pop from an empty event set")
        overflow = self._overflow
        ring = self._ring
        if not self._wheel_count:
            # Pure-overflow stretch; the walk would find nothing.  The
            # consumed slot at the old anchor must be cleared before
            # the anchor jumps, or a later instant mapping to the same
            # slot would replay its entries.
            if self._slot_idx:
                ring[self._scan_time & _WHEEL_MASK].clear()
                self._slot_idx = 0
            time, _seq, event = heappop(overflow)
            self._scan_time = time
            self._size -= 1
            return time, event
        t = self._scan_time
        idx = self._slot_idx
        o_head = overflow[0][0] if overflow else None
        while True:
            if o_head is not None and o_head <= t:
                # Overflow entries for this instant predate every ring
                # entry for it (window-slide argument) — drain first.
                # This can only fire with idx == 0: a push at the
                # half-drained anchor instant is inside the window.
                time, _seq, event = heappop(overflow)
                self._scan_time = time
                self._slot_idx = 0
                self._size -= 1
                return time, event
            slot = ring[t & _WHEEL_MASK]
            if idx < len(slot):
                event = slot[idx]
                self._scan_time = t
                self._slot_idx = idx + 1
                self._size -= 1
                self._wheel_count -= 1
                return t, event
            if idx:
                slot.clear()
                idx = 0
            t += 1

    def peek_time(self) -> Optional[int]:
        if not self._size:
            return None
        overflow = self._overflow
        if not self._wheel_count:
            return overflow[0][0]
        ring = self._ring
        t = self._scan_time
        idx = self._slot_idx
        o_head = overflow[0][0] if overflow else None
        while True:
            if o_head is not None and o_head <= t:
                return o_head
            slot = ring[t & _WHEEL_MASK]
            if idx < len(slot):
                return t
            # Pure walk: empty/consumed slots are left for pop() to
            # clear — peeking must not disturb the pending state.
            idx = 0
            t += 1

    def __len__(self) -> int:
        return self._size


#: name -> event-set class: the one registry of backend names.
EVENT_SET_BACKENDS = {
    HeapEventSet.name: HeapEventSet,
    CalendarEventSet.name: CalendarEventSet,
}


def available_backends() -> Tuple[str, ...]:
    """Names of the registered event-set backends, sorted."""
    return tuple(sorted(EVENT_SET_BACKENDS))


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a backend name: explicit arg > ``REPRO_SIM_BACKEND`` > default.

    Raises :class:`ValueError` for unknown names, naming the valid set
    — a mistyped backend must fail loudly, not silently fall back.
    The environment value is stripped first: an *unset, empty or
    whitespace-only* variable means "no override" (fall back to the
    default), while any other value must name a real backend — so
    ``REPRO_SIM_BACKEND=" calendar "`` works and
    ``REPRO_SIM_BACKEND="calender"`` raises instead of silently
    running the default.
    """
    origin = "backend argument"
    if backend is None:
        env = os.environ.get(BACKEND_ENV)
        env = env.strip() if env is not None else ""
        if env:
            backend, origin = env, f"{BACKEND_ENV} environment variable"
        else:
            return DEFAULT_BACKEND
    if backend not in EVENT_SET_BACKENDS:
        raise ValueError(
            f"unknown simulation backend {backend!r} (from {origin}); "
            f"available backends: {', '.join(available_backends())}")
    return backend

