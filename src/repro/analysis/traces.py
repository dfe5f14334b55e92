"""Schedule views and response-time statistics from traces.

The tests use these views to verify the dispatcher's priority rules
*from the outside*, and the Figure 2 benchmark renders the
scheduler/dispatcher cooperation timeline with them.  Who ran when is
not rebuilt here: :func:`schedule_intervals` reads the CPU slices of
:func:`repro.obs.spans.reconstruct`, the one place that pairs
``cpu/dispatch`` records with the records that close them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import exact_quantile
from repro.obs.spans import reconstruct
from repro.sim.trace import Tracer


@dataclass(frozen=True)
class ScheduleInterval:
    """One stretch of a thread holding a CPU or an engine unit."""

    node: str
    thread: str
    start: int
    end: int
    #: "cpu", or the engine-unit label ("gpu0", ...) that ran it.
    engine: str = "cpu"

    @property
    def length(self) -> int:
        """Duration of the interval in microseconds."""
        return self.end - self.start


def schedule_intervals(tracer: Tracer,
                       node: Optional[str] = None) -> List[ScheduleInterval]:
    """Who ran when: the closed CPU and engine-unit slices of
    :func:`repro.obs.spans.reconstruct`, per node, in close order.

    ``node`` restricts the view to one node.  A slice still running at
    trace end has no end yet and is left out.
    """
    slices = reconstruct(tracer).cpu_slices
    nodes = slices if node is None else (node,)
    return [ScheduleInterval(s.node, s.thread, s.start, s.end, s.engine)
            for name in nodes for s in slices.get(name, ())
            if s.end is not None]


def busy_fraction(intervals: Sequence[ScheduleInterval],
                  horizon: int) -> float:
    """Fraction of [0, horizon] covered by the given intervals."""
    if horizon <= 0:
        return 0.0
    return sum(interval.length for interval in intervals) / horizon


def thread_time(intervals: Sequence[ScheduleInterval],
                thread: str) -> int:
    """Total CPU time a thread (by exact name) received."""
    return sum(i.length for i in intervals if i.thread == thread)


def response_time_stats(response_times: Sequence[int]) -> Dict[str, float]:
    """min / max / mean / nearest-rank p95 over a response-time sample."""
    if not response_times:
        return {"count": 0, "min": 0, "max": 0, "mean": 0.0, "p95": 0}
    ordered = sorted(response_times)
    return {
        "count": len(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "mean": sum(ordered) / len(ordered),
        "p95": exact_quantile(ordered, 0.95),
    }


def render_timeline(intervals: Sequence[ScheduleInterval],
                    width: int = 72,
                    until: Optional[int] = None) -> str:
    """ASCII Gantt chart of a schedule (one row per thread).

    Used by the Figure 2 benchmark to print the cooperation timeline
    in the same shape as the paper's figure.
    """
    if not intervals:
        return "(empty schedule)"
    horizon = until if until is not None else max(i.end for i in intervals)
    horizon = max(horizon, 1)
    threads = []
    for interval in intervals:
        if interval.thread not in threads:
            threads.append(interval.thread)
    label_width = max(len(t) for t in threads) + 1
    scale = width / horizon

    lines = []
    for thread in threads:
        row = [" "] * width
        for interval in intervals:
            if interval.thread != thread:
                continue
            start = int(interval.start * scale)
            end = max(start + 1, int(interval.end * scale))
            for position in range(start, min(end, width)):
                row[position] = "#"
        lines.append(f"{thread:<{label_width}}|{''.join(row)}|")
    axis = f"{'':<{label_width}}|{'0':<{width - len(str(horizon))}}{horizon}|"
    lines.append(axis)
    return "\n".join(lines)
