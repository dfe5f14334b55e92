"""The HADES modified scheduling test (paper §5.3).

The paper folds the middleware's own costs into Spuri's test by three
substitutions:

1. **WCET inflation** — each task's C_i becomes::

       C_i' = C_i + n_act * (c_start_act + c_end_act) + n_loc * c_local

   where n_act is the number of Code_EUs of the task's HEUG translation
   and n_loc its number of local precedence constraints (the worked
   example has n_act = 3, n_loc = 2 when the task uses a resource and
   n_act = 1, n_loc = 0 otherwise — Figure 3).

2. **Blocking inflation** — B_i' = B_i + c_start_act + c_end_act.

3. **Interference withdrawal** — the scheduler task (cost w_sched per
   notification it treats: Atv and Trm for each Code_EU, and Rac and
   Rre around a critical section, so n_i = 8 per activation when the
   task uses a resource and 2 otherwise) and the background kernel
   activities (clock and network interrupts, §4.2) always run at
   higher priority, so their worst-case demand over a window d is
   *withdrawn from the deadline*::

       S(d) = sum_i ceil(d / P_i) * n_i * w_sched          (scheduler)
       K(d) = sum_a ceil(d / P_a) * w_a                    (kernel)

   and the test becomes  h(d) + B'(d) <= d - S(d) - K(d).

The same machinery produces the deliberately *pessimistic* test
(uniform over-estimation of OS costs) that §2.2.2 warns about, used by
the E4/E11 benchmarks to quantify how much schedulability precise cost
information buys back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core.costs import DispatcherCosts, KernelActivity
from repro.feasibility.spuri import spuri_edf_test
from repro.feasibility.taskset import AnalysisTask, SpuriTask


def scheduler_interference(tasks: Sequence[AnalysisTask], window: int,
                           w_sched: int) -> int:
    """S(t): scheduler demand over a window.

    Each activation of task i makes the scheduler treat n_i
    notifications (:func:`spuri_task_notifications`) at ``w_sched``
    each.
    """
    if window <= 0 or w_sched == 0:
        return 0
    notifications = sum(-(-window // task.period)
                        * spuri_task_notifications(task) for task in tasks)
    return notifications * w_sched


def kernel_interference(activities: Sequence[KernelActivity],
                        window: int) -> int:
    """K(t): background kernel demand over a window (§4.2)."""
    return sum(activity.demand(window) for activity in activities)


def spuri_task_inflation(task: SpuriTask, costs: DispatcherCosts) -> int:
    """C_i' for a Spuri task under the Figure 3 HEUG translation.

    With a resource: three Code_EUs and two local precedences; without:
    a single Code_EU.
    """
    if task.resource is not None:
        return (task.wcet + 3 * costs.per_action() + 2 * costs.c_local)
    return task.wcet + costs.per_action()


def spuri_task_notifications(task: Union[SpuriTask, AnalysisTask]) -> int:
    """n_i: the notifications one activation of a Spuri task makes its
    scheduler treat under the Figure 3 translation.

    Atv and Trm for each Code_EU, and Rac and Rre around the critical
    section: 3 * 2 + 2 with a resource, 2 without.  The scheduler pays
    ``w_sched`` for each, whatever its policy does with it.
    """
    if task.resource is not None:
        return 3 * 2 + 2
    return 2


@dataclass
class HadesTestReport:
    """Outcome of the §5.3 modified test."""

    feasible: bool
    utilization: float
    busy_period: Optional[int]
    checked_deadlines: int
    first_failure: Optional[int]
    margin: Optional[int]
    inflated_wcets: Dict[str, int] = field(default_factory=dict)


def hades_edf_test(tasks: Sequence[SpuriTask],
                   costs: Optional[DispatcherCosts] = None,
                   kernel_activities: Sequence[KernelActivity] = (),
                   w_sched: int = 0,
                   blocking_cs: bool = True) -> HadesTestReport:
    """The paper's modified EDF+SRP feasibility test.

    ``blocking_cs``: compute B(d) from critical sections (True, the
    §5.1 definition).  Pass ``costs=DispatcherCosts.zero()`` and no
    kernel activities for the *naive* test that ignores the middleware
    (the unsafe baseline of experiment E4).
    """
    costs = costs if costs is not None else DispatcherCosts()
    analysis = [task.to_analysis() for task in tasks]
    inflated = {task.name: spuri_task_inflation(task, costs)
                for task in tasks}

    def demand_inflation(atask: AnalysisTask) -> int:
        return inflated[atask.name]

    def blocking_inflation(blocking: int) -> int:
        return blocking + costs.per_action()

    def interference(window: int) -> int:
        return (scheduler_interference(analysis, window, w_sched)
                + kernel_interference(kernel_activities, window))

    raw = spuri_edf_test(
        analysis,
        interference=interference if (w_sched or kernel_activities) else None,
        demand_inflation=demand_inflation,
        blocking_inflation=blocking_inflation if blocking_cs else None,
    )
    return HadesTestReport(
        feasible=raw["feasible"],
        utilization=raw["utilization"],
        busy_period=raw["busy_period"],
        checked_deadlines=raw["checked_deadlines"],
        first_failure=raw["first_failure"],
        margin=raw["margin"],
        inflated_wcets=inflated,
    )


def pessimistic_edf_test(tasks: Sequence[SpuriTask],
                         overhead_factor: float = 1.3,
                         kernel_activities: Sequence[KernelActivity] = (),
                         w_sched: int = 0) -> HadesTestReport:
    """The over-estimated test §2.2.2 warns about: instead of precise
    per-activity constants, every WCET is inflated by a uniform safety
    factor.  Safe but needlessly rejective — experiment E11 measures
    exactly how much."""
    if overhead_factor < 1.0:
        raise ValueError("a pessimistic factor below 1 is not pessimistic")
    analysis = [task.to_analysis() for task in tasks]
    inflated = {task.name: int(task.wcet * overhead_factor) + 1
                for task in tasks}

    def demand_inflation(atask: AnalysisTask) -> int:
        return inflated[atask.name]

    def interference(window: int) -> int:
        return (scheduler_interference(analysis, window, w_sched)
                + kernel_interference(kernel_activities, window))

    raw = spuri_edf_test(
        analysis,
        interference=interference if (w_sched or kernel_activities) else None,
        demand_inflation=demand_inflation,
        blocking_inflation=lambda b: int(b * overhead_factor) + 1,
    )
    return HadesTestReport(
        feasible=raw["feasible"],
        utilization=raw["utilization"],
        busy_period=raw["busy_period"],
        checked_deadlines=raw["checked_deadlines"],
        first_failure=raw["first_failure"],
        margin=raw["margin"],
        inflated_wcets=inflated,
    )
