"""Kernel-level synchronisation primitives for service threads.

The HEUG model deliberately forbids synchronisation *inside* actions
(§3.3), but HADES services themselves — written directly as kernel
threads — need interprocess synchronisation, which the paper requires
from the underlying COTS kernel (§2.2.1) and whose footnote 3 notes
that "other low-level synchronization mechanisms like semaphores could
have been introduced".

These primitives integrate with the :class:`~repro.kernel.threads`
request model: acquisition returns an engine event the thread yields
on; wakeups are priority-ordered (highest waiting priority first, FIFO
among equals) so the primitives do not silently reintroduce unbounded
priority inversion.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sim.engine import Event, Simulator


class KSemaphore:
    """A counting semaphore with priority-ordered wakeup."""

    def __init__(self, sim: Simulator, initial: int = 1, name: str = "sem"):
        if initial < 0:
            raise ValueError("initial count must be >= 0")
        self.sim = sim
        self.name = name
        self._count = initial
        #: (negated priority, fifo sequence, event)
        self._waiters: List[Tuple[int, int, Event]] = []
        self._sequence = 0
        self.acquisitions = 0
        self.contentions = 0

    @property
    def count(self) -> int:
        """Units available to :meth:`acquire` without waiting."""
        return self._count

    def acquire(self, priority: int = 0) -> Event:
        """P operation: the returned event triggers once the caller
        holds one unit.  Yield it from a thread body."""
        grant = self.sim.event(f"{self.name}:acquire")
        if self._count > 0:
            self._count -= 1
            self.acquisitions += 1
            grant.succeed()
        else:
            self.contentions += 1
            self._sequence += 1
            self._waiters.append((-priority, self._sequence, grant))
            self._waiters.sort()
        return grant

    def try_acquire(self) -> bool:
        """Non-blocking P: True iff a unit was taken."""
        if self._count > 0:
            self._count -= 1
            self.acquisitions += 1
            return True
        return False

    def release(self) -> None:
        """V operation: wakes the highest-priority waiter, if any."""
        if self._waiters:
            _prio, _seq, grant = self._waiters.pop(0)
            self.acquisitions += 1
            grant.succeed()
        else:
            self._count += 1

    def __repr__(self) -> str:
        return (f"<KSemaphore {self.name} count={self._count} "
                f"waiters={len(self._waiters)}>")


class KMutex(KSemaphore):
    """A binary semaphore (no ownership tracking: services are trusted)."""

    def __init__(self, sim: Simulator, name: str = "mutex"):
        super().__init__(sim, initial=1, name=name)

    def release(self) -> None:
        """V operation: wake a waiter or return a unit."""
        if not self._waiters and self._count >= 1:
            raise RuntimeError(f"mutex {self.name} released while free")
        super().release()


class KBarrier:
    """A reusable barrier for ``parties`` service threads."""

    def __init__(self, sim: Simulator, parties: int, name: str = "barrier"):
        if parties <= 0:
            raise ValueError("parties must be > 0")
        self.sim = sim
        self.parties = parties
        self.name = name
        self._waiting: List[Event] = []
        self.generations = 0

    def wait(self) -> Event:
        """Returns an event that fires when all parties have arrived."""
        arrival = self.sim.event(f"{self.name}:wait")
        self._waiting.append(arrival)
        if len(self._waiting) >= self.parties:
            batch, self._waiting = self._waiting, []
            self.generations += 1
            for event in batch:
                event.succeed(self.generations)
        return arrival
