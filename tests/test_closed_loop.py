"""The full §4→§5 closed loop, with *measured* constants.

The paper's methodology is: measure the middleware's costs on the
deployed system (worst-case scenario benchmarks), feed those measured
numbers into the feasibility test, then trust the test's answers.
These tests run that loop without ever looking at the configured
constants — analysis inputs come from calibration output only.
"""

import functools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import calibrate_dispatcher_costs
from repro.core import DispatcherCosts
from repro.core.monitoring import ViolationKind
from repro.feasibility import SpuriTask, hades_edf_test
from repro.feasibility.hades_test import spuri_task_notifications
from repro.scheduling import EDFScheduler, SRPProtocol
from repro.system import HadesSystem
from repro.workloads import random_spuri_taskset, spuri_to_heug

#: The "true" deployment constants — the calibration step is the only
#: place allowed to observe their effect.
DEPLOYED = DispatcherCosts(c_local=11, c_remote=17, c_start_act=6,
                           c_end_act=4, c_start_inv=8, c_end_inv=5)

#: Near the feasibility boundary costs decide the verdict: a 10 µs
#: scheduler, and both §4.2 background activities (clock tick and
#: network interrupt) at 30 µs per millisecond each.
BOUNDARY_W_SCHED = 10
BOUNDARY_NODE = {"clock_tick_wcet": 30, "clock_tick_period": 1_000,
                 "net_irq_wcet": 30, "net_irq_pseudo_period": 1_000}


@functools.lru_cache(maxsize=None)
def measured_costs() -> DispatcherCosts:
    measured = calibrate_dispatcher_costs(DEPLOYED)
    return DispatcherCosts(
        c_local=measured["c_local"],
        c_remote=measured["c_remote"],
        c_start_act=measured["c_start_act"],
        c_end_act=measured["c_end_act"],
        c_start_inv=measured["c_start_inv"],
        c_end_inv=measured["c_end_inv"],
    )


class TestClosedLoop:
    def test_measured_constants_equal_deployed(self):
        assert measured_costs() == DEPLOYED

    def test_analysis_with_measured_costs_is_safe(self):
        """At utilisation 0.5 the default network interrupt (40 µs per
        100 µs) and the measured costs bring each set to 0.91 of the
        processor; the analysis accepts all three, and none misses."""
        costs = measured_costs()
        checked = 0
        for seed in (5, 17, 29):
            tasks = random_spuri_taskset(4, 0.5, seed=seed,
                                         period_range=(5_000, 40_000))
            system = HadesSystem(node_ids=["cpu"], costs=DEPLOYED,
                                 background_activities=True)
            report = hades_edf_test(
                tasks, costs=costs,
                kernel_activities=system.node_kernel_activities("cpu"),
                w_sched=2)
            assert report.feasible, seed
            checked += 1
            system.attach_scheduler(EDFScheduler(scope="cpu", w_sched=2))
            resources = {}
            heugs = [spuri_to_heug(task, "cpu", resources)
                     for task in tasks]
            system.attach_scheduler(SRPProtocol(heugs, scope="cpu",
                                                w_sched=0))
            for heug in heugs:
                system.dispatcher.register_max_rate(heug, count=3)
            system.run(until=4 * max(t.pseudo_period for t in tasks))
            assert system.monitor.count(
                ViolationKind.DEADLINE_MISS) == 0, seed
        assert checked == 3

    def test_analysis_rejects_a_set_that_misses(self):
        """A set that needs more than the processor once the network
        interrupt (300 µs per 1,000 µs) is counted: the analysis must
        reject it, and run at maximum rate it misses a deadline at the
        instant the analysis names.  Taking the busy period's
        interference over the task demand instead of the window, it
        was accepted on a busy period of 37,307 µs."""
        node = {"net_irq_wcet": 300, "net_irq_pseudo_period": 1_000}
        tasks = random_spuri_taskset(4, 0.65, seed=182,
                                     period_range=(5_000, 40_000))
        system = HadesSystem(node_ids=["cpu"], costs=DEPLOYED,
                             background_activities=True, node_kwargs=node)
        report = hades_edf_test(
            tasks, costs=measured_costs(),
            kernel_activities=system.node_kernel_activities("cpu"),
            w_sched=2)
        assert not report.feasible
        assert report.busy_period == 40_961
        assert report.first_failure == 40_784
        system.attach_scheduler(EDFScheduler(scope="cpu", w_sched=2))
        resources = {}
        heugs = [spuri_to_heug(task, "cpu", resources) for task in tasks]
        system.attach_scheduler(SRPProtocol(heugs, scope="cpu", w_sched=0))
        horizon = 2 * max(task.pseudo_period for task in tasks)
        for heug, task in zip(heugs, tasks):
            system.dispatcher.register_max_rate(
                heug, count=horizon // task.pseudo_period + 1)
        irq = system.nodes["cpu"].net_irq
        for k in range(horizon // irq.pseudo_period + 1):
            system.sim.call_at(k * irq.pseudo_period, irq.fire)
        system.run(until=horizon + 2 * max(task.deadline for task in tasks))
        misses = system.monitor.of_kind(ViolationKind.DEADLINE_MISS)
        assert [miss.time for miss in misses] == [40_784]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(min_value=2, max_value=6),
           utilization=st.floats(min_value=0.75, max_value=0.95),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_analysis_is_safe_near_the_boundary(self, n, utilization,
                                                seed):
        """§5's safety claim as a property: whenever the HADES-modified
        test accepts a random Spuri set under the measured constants,
        the deployed system misses no deadline running the set, the
        clock tick and the network interrupt at their maximum rates.

        The sets sit near the boundary, where an analysis that leaves
        out the dispatcher costs, the kernel activities or any of the
        scheduler's notifications accepts sets that then miss."""
        tasks = random_spuri_taskset(n, utilization, seed=seed,
                                     period_range=(1_000, 10_000))
        system = HadesSystem(node_ids=["cpu"], costs=DEPLOYED,
                             background_activities=True,
                             node_kwargs=BOUNDARY_NODE)
        report = hades_edf_test(
            tasks, costs=measured_costs(),
            kernel_activities=system.node_kernel_activities("cpu"),
            w_sched=BOUNDARY_W_SCHED)
        assume(report.feasible)
        system.attach_scheduler(EDFScheduler(scope="cpu",
                                             w_sched=BOUNDARY_W_SCHED))
        resources = {}
        heugs = [spuri_to_heug(task, "cpu", resources) for task in tasks]
        system.attach_scheduler(SRPProtocol(heugs, scope="cpu", w_sched=0))
        # Every task and the network interrupt at maximum rate from a
        # synchronous start, for two longest periods.
        horizon = 2 * max(task.pseudo_period for task in tasks)
        for heug, task in zip(heugs, tasks):
            system.dispatcher.register_max_rate(
                heug, count=horizon // task.pseudo_period + 1)
        irq = system.nodes["cpu"].net_irq
        for k in range(horizon // irq.pseudo_period + 1):
            system.sim.call_at(k * irq.pseudo_period, irq.fire)
        system.run(until=horizon + 2 * max(task.deadline for task in tasks))
        assert system.monitor.count(ViolationKind.DEADLINE_MISS) == 0

    @pytest.mark.parametrize("resource", [None, "R"])
    def test_scheduler_treats_the_analysed_notifications(self, resource):
        """S(t) charges w_sched for n_i notifications per activation;
        the deployed EDF scheduler treats exactly that many (Atv and
        Trm per Code_EU, Rac and Rre around the critical section)."""
        task = SpuriTask("t", c_before=100, cs=100 if resource else 0,
                         c_after=100 if resource else 0, deadline=1_000,
                         pseudo_period=1_000, resource=resource)
        system = HadesSystem(node_ids=["cpu"], costs=DEPLOYED)
        edf = system.attach_scheduler(EDFScheduler(scope="cpu",
                                                   w_sched=2))
        heug = spuri_to_heug(task, "cpu", {})
        system.attach_scheduler(SRPProtocol([heug], scope="cpu",
                                            w_sched=0))
        system.dispatcher.register_max_rate(heug, count=5)
        system.run(until=10_000)
        assert edf.handled_count == 5 * spuri_task_notifications(task)

    def test_under_measured_costs_reject_overload_honestly(self):
        """A set infeasible under the measured constants really does
        miss when executed — the analysis is not just conservative
        noise; near the boundary its verdicts track reality."""
        costs = measured_costs()
        # Hand-built boundary set: fits without overheads, breaks with.
        tasks = [
            SpuriTask("a", c_before=0, cs=190, c_after=0, deadline=400,
                      pseudo_period=400, resource="R"),
            SpuriTask("b", c_before=195, cs=0, c_after=0, deadline=400,
                      pseudo_period=400),
        ]
        naive = hades_edf_test(tasks, costs=DispatcherCosts.zero())
        precise = hades_edf_test(tasks, costs=costs)
        assert naive.feasible
        assert not precise.feasible
        # Execute with the deployed constants at worst case: misses.
        system = HadesSystem(node_ids=["cpu"], costs=DEPLOYED)
        system.attach_scheduler(EDFScheduler(scope="cpu", w_sched=0))
        resources = {}
        heugs = [spuri_to_heug(task, "cpu", resources) for task in tasks]
        system.attach_scheduler(SRPProtocol(heugs, scope="cpu", w_sched=0))
        for heug in heugs:
            system.dispatcher.register_max_rate(heug, count=5)
        system.run(until=3_000)
        assert system.monitor.count(ViolationKind.DEADLINE_MISS) >= 1
