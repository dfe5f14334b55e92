"""Kernel threads.

A :class:`KThread` executes a *body*: a Python generator yielding
kernel requests.  Three requests exist:

* :class:`Compute` — consume CPU time (preemptible, scheduled by the
  node's :class:`~repro.kernel.cpu.Cpu` according to priority and
  preemption threshold),
* :class:`Sleep` — block without consuming CPU for a fixed delay,
* :class:`WaitEvent` — block until a simulation event triggers.

The dispatcher maps each Code_EU of a HEUG onto exactly one kernel
thread (paper §3.2.1); HADES services use threads directly.  Bodies are
deliberately restricted to these requests so that every blocking point
is explicit — the property that lets the paper characterise worst-case
execution times.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.sim.engine import Event, SimulationError
from repro.sim.trace import layout

if TYPE_CHECKING:
    from repro.kernel.node import Node

#: The layouts of the ``thread/block`` record: a sleep, a wait.
_BLOCK_SLEEP = layout("thread", "block", "node", "thread", "reason", "delay")
_BLOCK_EVENT = layout("thread", "block", "node", "thread", "reason",
                      "target")


class ThreadState(enum.Enum):
    """Lifecycle states of a kernel thread."""
    NEW = "new"
    READY = "ready"         # wants CPU (may or may not be running)
    RUNNING = "running"     # currently holds the CPU
    BLOCKED = "blocked"     # waiting on a sleep or event
    FINISHED = "finished"   # body returned
    KILLED = "killed"       # forcibly terminated


class Compute:
    """Request to consume ``duration`` microseconds of CPU time.

    ``category`` labels whose account the time is billed to
    ("application", "dispatcher", "scheduler", "kernel", "service") —
    the bookkeeping behind the §4 cost-model validation.
    """

    __slots__ = ("duration", "category")

    def __init__(self, duration: int, category: str = "application"):
        if duration < 0:
            raise ValueError(f"negative compute duration {duration}")
        self.duration = int(duration)
        self.category = category


class Sleep:
    """Request to block for ``delay`` microseconds without using CPU."""

    __slots__ = ("delay",)

    def __init__(self, delay: int):
        if delay < 0:
            raise ValueError(f"negative sleep delay {delay}")
        self.delay = int(delay)


class WaitEvent:
    """Request to block until ``event`` triggers.

    The event's value is delivered as the yield's result.
    """

    __slots__ = ("event",)

    def __init__(self, event: Event):
        self.event = event


ThreadBody = Generator[Any, Any, Any]


class KThread:
    """A schedulable kernel thread on one node."""

    def __init__(self, node: "Node", body: ThreadBody, name: str = "",
                 priority: int = 1,
                 preemption_threshold: Optional[int] = None,
                 processor=None):
        #: Creation number on this node, from 1; names unnamed threads.
        self.tid = next(node._thread_ids)
        self.node = node
        #: The processing unit this thread's Compute blocks run on —
        #: the node's CPU by default, or a unit of the node's
        #: heterogeneous engine pool (repro.hetero).
        self.cpu = processor if processor is not None else node.cpu
        self.sim = node.sim
        self.name = name or f"thread-{self.tid}"
        self._priority = priority
        self._preemption_threshold = (
            priority if preemption_threshold is None else preemption_threshold)
        #: max(priority, threshold), kept by the two writers of either
        #: (here and set_priority); the Cpu reads it on every re-key.
        self._effective_threshold = max(priority, self._preemption_threshold)
        self.state = ThreadState.NEW
        self.body = body
        #: Triggers with the body's return value when the thread ends.
        self.finished: Event = node.sim.event(f"finished:{self.name}")
        #: CPU time consumed so far, per category.
        self.cpu_time = 0
        # Compute bookkeeping (owned by the Cpu while READY/RUNNING).
        self._remaining = 0
        self._category = "application"
        self._ready_seq = 0
        #: This thread's live Run Queue entry, None while not queued.
        self._ready_entry: Optional[list] = None
        #: Threshold elevation: set while the current compute block has
        #: started (see Cpu._selection_priority).
        self._pt_boosted = False
        # Wait bookkeeping.  ``_wait_private`` marks a wait target the
        # thread itself created (a Sleep timeout): safe to cancel into a
        # heap tombstone on kill, unlike a shared WaitEvent target.
        self._wait_target: Optional[Event] = None
        self._wait_private = False
        self._started = False
        self._suspended = False
        #: Instant the thread first got its processor (set by the Cpu).
        self.first_run: Optional[int] = None

    # -- priority management (dispatcher primitive hooks) ---------------

    @property
    def priority(self) -> int:
        """Current scheduling priority."""
        return self._priority

    @property
    def preemption_threshold(self) -> int:
        """Current preemption threshold."""
        return self._preemption_threshold

    @property
    def effective_threshold(self) -> int:
        """Threshold actually used for preemption decisions.

        A thread can never be preempted by priorities at or below its own
        priority, so the effective threshold is at least the priority.
        """
        return self._effective_threshold

    def set_priority(self, priority: int,
                     preemption_threshold: Optional[int] = None) -> None:
        """Change priority (and optionally threshold); re-evaluates dispatch."""
        self._priority = priority
        if preemption_threshold is not None:
            self._preemption_threshold = preemption_threshold
        self._effective_threshold = max(priority, self._preemption_threshold)
        if self.state in (ThreadState.READY, ThreadState.RUNNING):
            self.cpu.priorities_changed(self)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "KThread":
        """Begin executing the body (asynchronously, at the current time)."""
        if self._started:
            raise SimulationError(f"thread {self.name!r} already started")
        self._started = True
        kick = self.sim.event(f"kick:{self.name}")
        kick.add_callback(lambda _evt: self._advance(None))
        kick.succeed()
        return self

    def kill(self) -> None:
        """Forcibly terminate the thread.  Idempotent."""
        if self.state in (ThreadState.FINISHED, ThreadState.KILLED):
            return
        if self.state in (ThreadState.READY, ThreadState.RUNNING):
            self.cpu.withdraw(self)
        target = self._wait_target
        if (target is not None and self._wait_private
                and not target.triggered and not target.cancelled):
            target.cancel()
        self._wait_target = None
        self.state = ThreadState.KILLED
        self.body = None
        if not self.finished.triggered:
            self.finished.succeed(None)

    @property
    def alive(self) -> bool:
        """Whether the underlying work is still pending."""
        return self.state not in (ThreadState.FINISHED, ThreadState.KILLED)

    @property
    def suspended(self) -> bool:
        """Whether the thread is currently suspended."""
        return self._suspended

    def suspend(self) -> None:
        """Remove the thread from CPU contention, banking its progress.

        The dispatcher uses this on threads in the Run Queue (READY or
        RUNNING) when a scheduler moves a thread's earliest start time
        into the future (§3.2.2).  A thread that is not queued keeps
        waiting, and parks at its next Compute request.
        """
        if self._suspended:
            return
        if not self.alive:
            raise SimulationError(f"cannot suspend dead thread {self.name!r}")
        if self.state in (ThreadState.READY, ThreadState.RUNNING):
            self.cpu.withdraw(self)
            self.state = ThreadState.BLOCKED
        # NEW (not yet kicked) or mid-advance: the flag makes the next
        # Compute request park instead of entering the Run Queue.
        self._suspended = True

    def resume(self) -> None:
        """Put a suspended thread back in the Run Queue.

        A thread parked on a Sleep/WaitEvent, or not yet kicked off by
        :meth:`start`, only loses the flag: the wait's callback (or the
        start kick) advances the body, so it is advanced exactly once.
        """
        if not self._suspended:
            return
        self._suspended = False
        if (not self.alive or self._wait_target is not None
                or self.state is ThreadState.NEW):
            return
        if self._remaining > 0:
            self.state = ThreadState.READY
            self.cpu.submit(self)
        else:
            # Suspended exactly at a compute boundary: continue the body.
            self._compute_finished()

    # -- body driver ------------------------------------------------------

    def _advance(self, value: Any) -> None:
        if not self.alive:
            return
        try:
            request = self.body.send(value)
        except StopIteration as stop:
            self.state = ThreadState.FINISHED
            self.body = None
            self.finished.succeed(stop.value)
            return
        except BaseException as error:
            self.state = ThreadState.FINISHED
            self.body = None
            self.finished.fail(error)
            return
        self._handle_request(request)

    def _handle_request(self, request: Any) -> None:
        if isinstance(request, Compute):
            if self._suspended:
                # Park at this compute boundary until resume().
                self._remaining = request.duration
                self._category = request.category
                self.state = ThreadState.BLOCKED
                return
            if request.duration == 0:
                self._advance(None)
                return
            self._remaining = request.duration
            self._category = request.category
            self.state = ThreadState.READY
            self.cpu.submit(self)
        elif isinstance(request, Sleep):
            self.state = ThreadState.BLOCKED
            target = self.sim.timeout(request.delay)
            self._wait_target = target
            self._wait_private = True
            self.node.tracer.emit(_BLOCK_SLEEP, self.node.node_id,
                                  self.name, "sleep", request.delay)
            target.add_callback(self._on_wait_done)
        elif isinstance(request, WaitEvent):
            self.state = ThreadState.BLOCKED
            self._wait_target = request.event
            self._wait_private = False
            self.node.tracer.emit(_BLOCK_EVENT, self.node.node_id,
                                  self.name, "event", request.event.name)
            request.event.add_callback(self._on_wait_done)
        elif isinstance(request, Event):
            # Yielding a bare engine event is allowed as shorthand.
            self._handle_request(WaitEvent(request))
        else:
            self.kill()
            raise SimulationError(
                f"thread {self.name!r} yielded invalid request {request!r}")

    def _on_wait_done(self, event: Event) -> None:
        if self._wait_target is not event or not self.alive:
            return  # stale wakeup after kill or re-wait
        self._wait_target = None
        if event._exception is not None:
            self._advance_throw(event._exception)
        else:
            self._advance(event.value)

    def _advance_throw(self, error: BaseException) -> None:
        if not self.alive:
            return
        try:
            request = self.body.throw(error)
        except StopIteration as stop:
            self.state = ThreadState.FINISHED
            self.body = None
            self.finished.succeed(stop.value)
            return
        except BaseException as err:
            self.state = ThreadState.FINISHED
            self.body = None
            self.finished.fail(err)
            return
        self._handle_request(request)

    # -- Cpu interface ----------------------------------------------------

    def _compute_finished(self) -> None:
        """Called by the Cpu when the pending compute block completes."""
        self._remaining = 0
        self._advance(None)

    def __repr__(self) -> str:
        return (f"<KThread {self.name!r} prio={self._priority} "
                f"pt={self.effective_threshold} {self.state.value}>")
