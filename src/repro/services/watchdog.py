"""Activation watchdog: detecting *missing* activations.

The dispatcher's arrival-law monitoring (§3.2.1 event ii) catches
activations that arrive **too early**; this service watches the other
side: a periodic/sporadic task whose activations *stop arriving*
(dead sensor, crashed producer node, broken timer).  The watchdog
checks each registered task's last activation time against its
expected cadence and reports an ``ARRIVAL_LAW`` violation with
``reason="overdue"`` when the silence exceeds

    period (or pseudo-period) + margin.

Reports repeat every overdue period until activations resume, so a
recovery policy (mode switch, replica promotion) has a persistent
signal to act on.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.dispatcher import Dispatcher
from repro.core.heug import Task
from repro.core.monitoring import ViolationKind


#: The trace keys the watchdog reads: it dates each task's last
#: activation from them.
WATCHDOG_KEYS = (("dispatcher", "activate"),)


class ActivationWatchdog:
    """Watches registered tasks for overdue activations."""

    def __init__(self, dispatcher: Dispatcher, margin: int = 1_000):
        self.dispatcher = dispatcher
        self.margin = margin
        self._expected: Dict[str, int] = {}       # task -> max gap
        self._last_seen: Dict[str, int] = {}
        self._reported_at: Dict[str, int] = {}
        self.overdue_reports = 0
        self._armed = False
        dispatcher.tracer.subscribe(self._on_trace, keys=WATCHDOG_KEYS)

    def watch(self, task: Task) -> None:
        """Monitor ``task``; it must have a periodic/sporadic law."""
        gap = task.arrival.min_separation()
        if gap is None:
            raise ValueError(
                f"task {task.name} has no activation cadence to watch")
        self._expected[task.name] = gap + self.margin
        self._last_seen[task.name] = self.dispatcher.sim.now
        if not self._armed:
            self._armed = True
            self._tick()

    def unwatch(self, task_name: str) -> None:
        """Stop monitoring the named task."""
        self._expected.pop(task_name, None)
        self._last_seen.pop(task_name, None)

    # -- internals ----------------------------------------------------------

    def _on_trace(self, record) -> None:
        name = record.get("task")
        if name in self._last_seen:
            self._last_seen[name] = record.time

    def _tick(self) -> None:
        sim = self.dispatcher.sim
        now = sim.now
        for name, max_gap in self._expected.items():
            silence = now - self._last_seen[name]
            if silence <= max_gap:
                continue
            last_report = self._reported_at.get(name, -max_gap)
            if now - last_report < max_gap:
                continue  # one report per overdue period
            self._reported_at[name] = now
            self.overdue_reports += 1
            self.dispatcher.monitor.report(
                ViolationKind.ARRIVAL_LAW, now, name,
                0, reason="overdue", silence=silence,
                expected_max_gap=max_gap)
        if self._expected:
            interval = max(1, min(self._expected.values()) // 2)
            sim.call_in(interval, self._tick)
        else:
            self._armed = False
