"""Preemptive priority CPU dispatching with preemption thresholds.

This module implements the "running" rule of paper §3.2.1: among the
runnable threads the CPU runs the one with the highest priority, except
that a thread already running is only preempted by a priority strictly
above its *preemption threshold*.  Kernel activities use threshold
``PRIO_MAX`` and therefore never get preempted by applications.

The context-switch cost is explicit (it is part of the ``c_local`` /
``c_start_act`` dispatcher constants that §4.1 folds into application
WCETs) and billed to the "kernel" account.

The Run Queue is a binary heap with lazy deletion (the priority-queue
recipe of the :mod:`heapq` documentation).  A submit, a preemption, a
priority change or a dispatch costs O(log n).  A withdrawal only marks
the thread's entry stale; stale entries are popped once they reach the
head, or swept when they outnumber the live ones, at amortized
O(log n) each.  So the cost of a scheduling point does not grow with
the backlog, as a scan of the ready set would.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional

from repro.kernel.threads import KThread, ThreadState
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer, layout

#: The layouts of the ``cpu`` records: (on the CPU, on an engine unit,
#: whose label comes last).
_DISPATCH, _COMPLETE, _PREEMPT, _WITHDRAW = (
    (layout("cpu", event, *fields), layout("cpu", event, *fields, "engine"))
    for event, fields in (
        ("dispatch", ("node", "thread", "remaining", "priority")),
        ("complete", ("node", "thread")),
        ("preempt", ("node", "thread", "by", "by_priority")),
        ("withdraw", ("node", "thread"))))


class Cpu:
    """One processor: schedules submitted threads preemptively.

    ``engine_class`` generalizes the processor to heterogeneous
    platforms (C-DAG / YASMIN, ROADMAP item 4): the default ``"cpu"``
    class is preemptive; every other class (``"gpu"``, ``"dsp"``, …)
    is *non-preemptive* — a started compute block runs to completion
    and challengers wait, whatever their priority.  ``engine_label``
    names the individual unit (e.g. ``"gpu0"``) and is stamped on this
    unit's trace records so observability can attribute time to the
    engine that ran it; the plain CPU carries no label, keeping
    engine-free traces byte-identical to earlier releases.
    """

    #: The Run Queue is rebuilt once its stale entries outnumber the
    #: live ones by this ratio, which bounds its length at
    #: ``(STALE_RATIO + 1)`` times the number of ready threads.
    STALE_RATIO = 4

    def __init__(self, sim: Simulator, tracer: Tracer, node_id: str,
                 context_switch_cost: int = 0, metrics=None,
                 engine_class: str = "cpu",
                 engine_label: Optional[str] = None):
        from repro.obs.metrics import resolve_metrics

        self.sim = sim
        self.tracer = tracer
        self.node_id = node_id
        self.engine_class = engine_class
        self.engine_label = engine_label
        # Every record site passes ``engine_label`` after its fields: on
        # an engine unit it is the engine layout's last field, and on
        # the CPU it is None, in the position the plain layout leaves
        # unused.
        (self._dispatch_layout, self._complete_layout, self._preempt_layout,
         self._withdraw_layout) = (
            pair[engine_label is not None]
            for pair in (_DISPATCH, _COMPLETE, _PREEMPT, _WITHDRAW))
        #: Non-CPU engine classes run every compute block to completion.
        self.preemptive = engine_class == "cpu"
        self.context_switch_cost = int(context_switch_cost)
        self.metrics = resolve_metrics(metrics)
        self._m_dispatches = self.metrics.counter("cpu.dispatches")
        self._m_preemptions = self.metrics.counter("cpu.preemptions")
        self._m_context_switches = self.metrics.counter(
            "cpu.context_switches")
        #: The Run Queue: a heap of ``[-selection priority, ready seq,
        #: stamp, thread]`` entries.  Withdrawing or re-keying a thread
        #: clears the thread slot of its entry, which then stays behind
        #: as a stale entry; the unique stamp keeps heap comparisons
        #: from ever reaching the thread slot.  Stale entries never sit
        #: at the head, so ``_run_queue[0]`` is the next thread to run.
        self._run_queue: List[list] = []
        self._stale = 0
        self._running: Optional["KThread"] = None
        self._last_dispatched: Optional["KThread"] = None
        #: Real time at which the running thread starts making progress
        #: (dispatch time plus any context-switch overhead).
        self._progress_start = 0
        #: The completion timer of the current compute block.
        #: :meth:`_checkpoint` cancels it (a tombstone in the event heap)
        #: whenever the running thread loses the CPU, so a timer that
        #: fires always belongs to the thread still running.
        self._completion_timer = None
        #: Ready seqs and entry stamps; only their order matters.
        self._seq = itertools.count(1)
        #: Busy microseconds per accounting category.
        self.busy_time: Dict[str, int] = {}
        self._busy_total = 0

    # -- public interface -------------------------------------------------

    def submit(self, thread: "KThread") -> None:
        """Register ``thread`` (whose ``_remaining`` is set) as wanting CPU."""
        if thread._ready_entry is not None or thread is self._running:
            raise RuntimeError(f"{thread!r} submitted twice")
        thread._ready_seq = next(self._seq)
        self._enqueue(thread)
        self._schedule()

    def withdraw(self, thread: "KThread") -> None:
        """Remove ``thread`` from contention (blocked or killed)."""
        # Leaving the Run Queue voluntarily (block/suspend/kill) drops
        # the threshold elevation; preemption does not.
        thread._pt_boosted = False
        if thread is self._running:
            self._checkpoint()
            self._running = None
            self.tracer.emit(self._withdraw_layout, self.node_id,
                             thread.name, self.engine_label)
            self._schedule()
        elif thread._ready_entry is not None:
            self._discard(thread)

    def priorities_changed(self, thread: "KThread") -> None:
        """Re-evaluate dispatching after ``thread``'s priority/threshold
        changed, re-keying its Run Queue entry if it is ready."""
        entry = thread._ready_entry
        if entry is not None and -entry[0] != self._selection_priority(thread):
            self._discard(thread)
            self._enqueue(thread)
        self._schedule()

    @property
    def running(self) -> Optional["KThread"]:
        """The thread currently holding the CPU (None if idle)."""
        return self._running

    @property
    def utilization_time(self) -> int:
        """Total busy microseconds so far (all categories)."""
        return self._busy_total

    # -- scheduling core ----------------------------------------------------

    @staticmethod
    def _selection_priority(thread: "KThread") -> int:
        """Priority used to pick among ready threads.

        Preemption-threshold semantics (Wang & Saksena): once a job has
        started its current compute block, its effective priority is
        its threshold — and it keeps it while preempted by something
        above the threshold (e.g. the scheduler task), so it resumes
        ahead of equal-threshold newcomers instead of being overtaken.
        """
        if thread._pt_boosted:
            return thread._effective_threshold
        return thread._priority

    def _enqueue(self, thread: "KThread") -> None:
        entry = [-self._selection_priority(thread), thread._ready_seq,
                 next(self._seq), thread]
        thread._ready_entry = entry
        heapq.heappush(self._run_queue, entry)

    def _discard(self, thread: "KThread") -> None:
        thread._ready_entry[3] = None
        thread._ready_entry = None
        self._stale += 1
        self._drop_stale()

    def _drop_stale(self) -> None:
        """Pop stale entries off the head; rebuild the heap once they
        outnumber the live ones by STALE_RATIO."""
        queue = self._run_queue
        while queue and queue[0][3] is None:
            heapq.heappop(queue)
            self._stale -= 1
        if self._stale > self.STALE_RATIO * (len(queue) - self._stale):
            queue[:] = [entry for entry in queue if entry[3] is not None]
            heapq.heapify(queue)
            self._stale = 0

    def _schedule(self) -> None:
        queue = self._run_queue
        if self._running is not None:
            if not self.preemptive:
                # Non-preemptive engine: the started block runs to
                # completion; the dispatcher accounts for the blocking.
                return
            if (not queue or
                    -queue[0][0] <= self._running._effective_threshold):
                return
            challenger = queue[0][3]
            preempted = self._running
            self._checkpoint()
            self._running = None
            preempted.state = ThreadState.READY
            self._enqueue(preempted)
            self.tracer.emit(self._preempt_layout, self.node_id,
                             preempted.name, challenger.name,
                             challenger._priority, self.engine_label)
            self._m_preemptions.inc()
        if not queue:
            return
        thread = heapq.heappop(queue)[3]
        thread._ready_entry = None
        if self._stale:
            self._drop_stale()
        self._dispatch(thread)

    def _dispatch(self, thread: "KThread") -> None:
        self._running = thread
        thread._pt_boosted = True
        thread.state = ThreadState.RUNNING
        if thread.first_run is None:
            thread.first_run = self.sim.now
        overhead = 0
        if thread is not self._last_dispatched:
            self._m_context_switches.inc()
            if self.context_switch_cost:
                overhead = self.context_switch_cost
                self._account("kernel", overhead)
        self._last_dispatched = thread
        self._m_dispatches.inc()
        self._progress_start = self.sim.now + overhead
        finish_in = overhead + thread._remaining
        self.tracer.emit(self._dispatch_layout, self.node_id, thread.name,
                         thread._remaining, thread._priority,
                         self.engine_label)
        self._completion_timer = self.sim.call_in(finish_in,
                                                  self._on_completion)

    def _on_completion(self) -> None:
        thread = self._running
        assert thread is not None
        self._completion_timer = None
        progressed = self.sim.now - self._progress_start
        self._account(thread._category, progressed)
        thread.cpu_time += progressed
        thread._pt_boosted = False
        self._running = None
        self.tracer.emit(self._complete_layout, self.node_id, thread.name,
                         self.engine_label)
        thread._compute_finished()
        # The thread's _advance may have resubmitted work already; only
        # re-dispatch if the CPU is still idle.
        if self._running is None:
            self._schedule()

    def _checkpoint(self) -> None:
        """Bank the running thread's progress before it loses the CPU."""
        assert self._running is not None
        timer = self._completion_timer
        if timer is not None:
            self._completion_timer = None
            if not timer.triggered and not timer.cancelled:
                timer.cancel()
        progressed = max(0, self.sim.now - self._progress_start)
        progressed = min(progressed, self._running._remaining)
        self._running._remaining -= progressed
        self._running.cpu_time += progressed
        self._account(self._running._category, progressed)

    def _account(self, category: str, amount: int) -> None:
        if amount <= 0:
            return
        self.busy_time[category] = self.busy_time.get(category, 0) + amount
        self._busy_total += amount
