"""Schedule reconstruction and response-time statistics from traces.

The tests use these reconstructions to verify the dispatcher's
priority rules *from the outside*, and the Figure 2 benchmark renders
the scheduler/dispatcher cooperation timeline with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import exact_quantile
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
    """Reconstruct who ran when from cpu dispatch/preempt/withdraw/
    complete records.

    A node's CPU and each of its engine units run concurrently, so
    intervals are tracked per (node, engine), as ``obs.spans`` does.
    """
    intervals: List[ScheduleInterval] = []
    running: Dict[Tuple[str, str], tuple] = {}  # -> (thread, start)

    for record in tracer:
        if record.category != "cpu":
            continue
        rec_node = record.details.get("node")
        if node is not None and rec_node != node:
            continue
        thread = record.details.get("thread")
        engine = record.details.get("engine", "cpu")
        if record.event == "dispatch":
            running[(rec_node, engine)] = (thread, record.time)
        elif record.event in ("preempt", "complete", "withdraw"):
            current = running.pop((rec_node, engine), None)
            if current is not None:
                name, start = current
                if record.time > start:
                    intervals.append(ScheduleInterval(
                        rec_node, name, start, record.time, engine))
    return intervals


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
