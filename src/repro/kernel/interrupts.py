"""Background kernel activities: interrupt sources.

Paper §4.2 characterises kernel activities that are *not* tied to any
application task — in the minimal ChorusR3 configuration, the periodic
clock interrupt and the sporadic ATM-card receive interrupt — by a
worst-case execution time and a (pseudo-)period, and integrates them
into the scheduling test as extra sporadic tasks at the highest
priority.

:class:`InterruptSource` reproduces that behaviour: each firing runs a
handler for ``wcet`` microseconds at ``PRIO_MAX`` with threshold
``PRIO_MAX`` (not preemptible by applications).  Back-to-back firings
queue FIFO.  A minimum inter-arrival (``pseudo_period``) is enforced so
that the §4.2 sporadic model is an upper bound by construction.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.kernel.priorities import PRIO_MAX
from repro.kernel.threads import Compute, KThread
from repro.sim.trace import layout

if TYPE_CHECKING:
    from repro.kernel.node import Node

_INTERRUPT = layout("kernel", "interrupt", "node", "source", "seq")


class InterruptSource:
    """A sporadic interrupt line on one node.

    ``fire(payload)`` requests handler execution; if the minimum
    inter-arrival has not elapsed, the firing is deferred to respect the
    sporadic law (modelling hardware interrupt coalescing).  ``handler``
    is called *after* the handler's WCET has been consumed on the CPU,
    mirroring a real handler whose effect becomes visible at its end.
    """

    def __init__(self, node: "Node", name: str, wcet: int,
                 pseudo_period: int,
                 handler: Optional[Callable[[Any], None]] = None):
        if wcet < 0 or pseudo_period <= 0:
            raise ValueError("wcet must be >= 0 and pseudo_period > 0")
        if wcet > pseudo_period:
            raise ValueError("interrupt handler longer than its pseudo-period")
        self.node = node
        self.name = name
        self.wcet = int(wcet)
        self.pseudo_period = int(pseudo_period)
        self.handler = handler
        # The handler's WCET as one Compute request, which every firing
        # yields (rebuilt by a firing if ``wcet`` was reassigned).
        self._charge = Compute(self.wcet, "kernel")
        self.fire_count = 0
        self._next_allowed = 0
        self._deferred = 0

    def fire(self, payload: Any = None) -> None:
        """Raise the interrupt line.

        Firings closer together than the pseudo-period are serialised
        (hardware coalescing), so the sporadic arrival law assumed by
        the §4.2 cost model holds by construction.
        """
        sim = self.node.sim
        earliest = max(sim.now, self._next_allowed)
        self._next_allowed = earliest + self.pseudo_period
        if earliest <= sim.now:
            self._service(payload)
        else:
            self._deferred += 1
            sim.call_at(earliest, lambda: self._service(payload))

    def _service(self, payload: Any) -> None:
        self.fire_count += 1
        self.node.tracer.emit(_INTERRUPT, self.node.node_id, self.name,
                              self.fire_count)
        thread = KThread(self.node, _firing(self, payload),
                         name=f"irq:{self.name}:{self.fire_count}",
                         priority=PRIO_MAX, preemption_threshold=PRIO_MAX)
        thread.start()


def _firing(source: InterruptSource, payload: Any):
    """The body of one firing of ``source``: its WCET, then its
    handler.  One module-level body serves every source.  The firing
    has no end hook, so a handler's error stops the run (see
    :class:`~repro.kernel.threads.KThread`)."""
    if source.wcet:
        if source._charge.duration != source.wcet:
            source._charge = Compute(source.wcet, "kernel")
        yield source._charge
    if source.handler is not None:
        source.handler(payload)


class PeriodicInterrupt(InterruptSource):
    """A strictly periodic interrupt, e.g. the kernel clock tick.

    Starts firing at ``phase`` and then every ``period`` microseconds
    once :meth:`activate` is called.
    """

    def __init__(self, node: "Node", name: str, wcet: int, period: int,
                 handler: Optional[Callable[[Any], None]] = None,
                 phase: int = 0):
        super().__init__(node, name, wcet, period, handler)
        self.period = int(period)
        self.phase = int(phase)
        self._active = False

    def activate(self) -> None:
        """Begin the periodic firing pattern."""
        if self._active:
            return
        self._active = True
        self.node.sim.call_at(self.node.sim.now + self.phase, self._tick)

    def deactivate(self) -> None:
        """Stop the periodic firing pattern."""
        self._active = False

    def _tick(self) -> None:
        if not self._active:
            return
        self._service(None)
        self.node.sim.call_in(self.period, self._tick)
