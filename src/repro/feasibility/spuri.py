"""Spuri's feasibility test for EDF with SRP (paper §5.1).

The worked example of the paper uses the sufficient condition of
Spuri's report RR-2772 (theorem 7.1): a set of sporadic tasks with
arbitrary deadlines, scheduled by preemptive EDF with SRP resource
access, is feasible if every deadline d in the first (synchronous)
busy period satisfies

    sum_i  max(0, 1 + floor((d - D_i) / T_i)) * C_i  +  B(d)  <=  d

where the sum is the *processor demand* of jobs with both release and
deadline inside [0, d], and B(d) is the worst blocking that jobs with
deadline <= d can suffer from jobs with deadline > d.

:func:`hades_spuri_test` lives in :mod:`repro.feasibility.hades_test`;
it applies the §5.3 substitutions to this test.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.feasibility.busy_period import (
    deadlines_within,
    synchronous_busy_period,
)
from repro.feasibility.taskset import AnalysisTask, utilization


def processor_demand(tasks: Sequence[AnalysisTask], window: int) -> int:
    """EDF processor demand h(t): work that must complete within
    ``window`` under the synchronous worst case."""
    demand = 0
    for task in tasks:
        jobs = (window - task.deadline) // task.period + 1
        if jobs > 0:
            demand += jobs * task.wcet
    return demand


def blocking_at(tasks: Sequence[AnalysisTask], window: int) -> int:
    """B(t): the longest critical section of a task whose deadline
    exceeds ``window`` (it can block the jobs due inside the window)."""
    worst = 0
    for task in tasks:
        if task.deadline > window and task.cs > 0:
            worst = max(worst, task.cs)
    return worst


def spuri_edf_test(
        tasks: Sequence[AnalysisTask],
        interference: Optional[Callable[[int], int]] = None,
        demand_inflation: Optional[Callable[[AnalysisTask], int]] = None,
        blocking_inflation: Optional[Callable[[int], int]] = None,
) -> Dict[str, object]:
    """Run the §5.1 sufficient test; returns a detailed report.

    Hooks (all optional) support the §5.3 modified test:
    ``demand_inflation`` maps a task to its inflated C_i',
    ``blocking_inflation`` maps B(d) to B'(d), and ``interference(d)``
    is the scheduler+kernel demand subtracted from each deadline.
    When the tasks' utilisation plus the interference's long-run rate
    exceeds 1, no busy period ends (the interference is a sum of
    ceilings, so it is at least that rate times the window), and the
    set is rejected with ``busy_period`` None.

    Report keys: ``feasible`` (bool), ``utilization`` (the tasks' own,
    without the interference), ``busy_period``,
    ``checked_deadlines``, ``first_failure`` (the offending deadline or
    None), ``margin`` (min over deadlines of d - demand, i.e. the
    worst slack; negative iff infeasible).
    """
    if not tasks:
        return {"feasible": True, "utilization": 0.0, "busy_period": 0,
                "checked_deadlines": 0, "first_failure": None,
                "margin": None}

    if demand_inflation is not None:
        effective = [task.scaled(wcet=demand_inflation(task))
                     for task in tasks]
    else:
        effective = list(tasks)

    total_u = utilization(effective)
    report: Dict[str, object] = {
        "utilization": total_u,
        "checked_deadlines": 0,
        "first_failure": None,
        "margin": None,
    }
    if total_u > 1.0:
        report["feasible"] = False
        report["busy_period"] = None
        return report

    busy = synchronous_busy_period(effective, interference)
    report["busy_period"] = busy
    if busy is None:
        report["feasible"] = False
        return report

    feasible = True
    margin: Optional[int] = None
    for deadline in deadlines_within(effective, busy):
        demand = processor_demand(effective, deadline)
        block = blocking_at(effective, deadline)
        if blocking_inflation is not None and block > 0:
            block = blocking_inflation(block)
        budget = deadline
        if interference is not None:
            budget -= interference(deadline)
        slack = budget - demand - block
        report["checked_deadlines"] += 1
        if margin is None or slack < margin:
            margin = slack
        if slack < 0 and feasible:
            feasible = False
            report["first_failure"] = deadline
    report["feasible"] = feasible
    report["margin"] = margin
    return report
