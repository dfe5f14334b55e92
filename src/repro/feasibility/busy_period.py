"""Synchronous busy-period computation.

The §5.1 test quantifies over "each deadline d in the first busy
period of the worst-case task arrival pattern" — the synchronous busy
period: the interval starting when every task releases simultaneously
and ending at the first idle instant.  Its length L is the least
fixed point of

    L = sum_i ceil(L / T_i) * C_i   (+ optional interference I(L))

which exists iff total utilisation (including interference) < 1.
The interference is taken over the window L itself, as the task
demand is: higher-priority work released in [0, L) delays the first
idle instant whatever the tasks' own demand.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

from repro.feasibility.taskset import AnalysisTask


def synchronous_busy_period(
        tasks: Sequence[AnalysisTask],
        interference: Optional[Callable[[int], int]] = None,
        max_iterations: int = 100_000) -> Optional[int]:
    """Length of the synchronous busy period, or None if it diverges."""
    if not tasks:
        return 0
    length = sum(task.wcet for task in tasks)
    if interference is not None:
        length += interference(length)
    for _ in range(max_iterations):
        demand = 0
        for task in tasks:
            demand += -(-length // task.period) * task.wcet
        if interference is not None:
            demand += interference(length)
        if demand == length:
            return length
        # Divergence guard: utilisation >= 1 makes demand grow forever.
        horizon = 1000 * max(task.period + task.deadline for task in tasks)
        if demand > horizon:
            return None
        length = demand
    return None


def deadlines_within(tasks: Sequence[AnalysisTask],
                     horizon: int) -> List[int]:
    """All absolute deadlines d = k*T_i + D_i <= horizon, sorted, for the
    synchronous arrival pattern (k >= 0)."""
    points = set()
    for task in tasks:
        deadline = task.deadline
        while deadline <= horizon:
            points.add(deadline)
            deadline += task.period
    return sorted(points)
