"""Scheduler/dispatcher cooperation protocol (paper §3.2.2).

Every scheduler is a task with a statically-defined (highest) priority.
The dispatcher and each scheduler share a FIFO queue: the dispatcher
pushes notifications about

* thread activations (``Atv``),
* thread terminations (``Trm``),
* requests to access shared resources (``Rac``), and
* resource releases (``Rre``);

the scheduler blocks until a notification arrives and reacts according
to its policy by calling the *dispatcher primitive* that changes a
thread's priority and/or earliest start time.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Deque, Dict, List, Optional, TYPE_CHECKING

from repro.sim.engine import Event, Simulator

if TYPE_CHECKING:
    from repro.core.dispatcher import EUInstance


class NotificationKind(enum.Enum):
    """The §3.2.2 notification kinds (Atv/Trm/Rac/Rre)."""
    ATV = "Atv"   # thread activation
    TRM = "Trm"   # thread termination
    RAC = "Rac"   # request to access shared resources
    RRE = "Rre"   # resource release


class Notification:
    """One entry of the shared FIFO queue: a kind, the unit it is
    about, the instant it was sent and the kind's details (the resource
    names of an Rac or an Rre)."""

    __slots__ = ("kind", "eu_instance", "time", "details")

    def __init__(self, kind: NotificationKind, eu_instance: "EUInstance",
                 time: int, details: Optional[Dict[str, Any]] = None):
        self.kind = kind
        self.eu_instance = eu_instance
        self.time = time
        self.details = {} if details is None else details

    def __repr__(self) -> str:
        return (f"<{self.kind.value} {self.eu_instance.qualified_name} "
                f"@{self.time}>")


class NotificationQueue:
    """The FIFO queue shared by the dispatcher and one scheduler.

    The dispatcher calls :meth:`put`; the scheduler's thread blocks on
    :meth:`wait_nonempty` and then drains with :meth:`pop`.
    """

    def __init__(self, sim: Simulator, name: str = "fifo"):
        self.sim = sim
        self.name = name
        # The name of every wait event, formatted once.
        self._wait_name = f"{name}:nonempty"
        self._items: Deque[Notification] = deque()
        self._waiter: Optional[Event] = None
        self.put_count = 0

    def put(self, notification: Notification) -> None:
        """Append a notification; wakes a blocked scheduler."""
        self._items.append(notification)
        self.put_count += 1
        if self._waiter is not None and not self._waiter.triggered:
            waiter, self._waiter = self._waiter, None
            waiter.succeed()

    def pop(self) -> Optional[Notification]:
        """Remove and return the oldest notification, or None if empty."""
        if not self._items:
            return None
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)

    def wait_nonempty(self) -> Event:
        """An event that triggers as soon as the queue is non-empty."""
        ready = Event(self.sim, self._wait_name)
        if self._items:
            ready.succeed()
            return ready
        if self._waiter is not None and not self._waiter.triggered:
            # Only one consumer (the scheduler) may block at a time.
            raise RuntimeError(f"queue {self.name} already has a waiter")
        self._waiter = ready
        return ready

    def snapshot(self) -> List[Notification]:
        """The queued notifications, oldest first, as a new list that
        shares the notification objects."""
        return list(self._items)
