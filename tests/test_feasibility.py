"""Tests for the off-line feasibility analyses (paper §5)."""

import pytest

from repro.core.costs import DispatcherCosts, KernelActivity
from repro.feasibility import (
    AnalysisTask,
    SpuriTask,
    hades_edf_test,
    kernel_interference,
    liu_layland_bound,
    pcp_blocking_times,
    pessimistic_edf_test,
    processor_demand,
    response_time_analysis,
    rm_utilization_test,
    rta_schedulable,
    scheduler_interference,
    spuri_edf_test,
    spuri_task_inflation,
    srp_blocking_times,
    synchronous_busy_period,
    utilization,
)
from repro.feasibility.busy_period import deadlines_within
from repro.feasibility.response_time import (
    sort_deadline_monotonic,
    sort_rate_monotonic,
)


def at(name, c, d, t, **kwargs):
    return AnalysisTask(name=name, wcet=c, deadline=d, period=t, **kwargs)


class TestLiuLayland:
    def test_bound_values(self):
        assert liu_layland_bound(1) == pytest.approx(1.0)
        assert liu_layland_bound(2) == pytest.approx(0.8284, abs=1e-3)
        assert liu_layland_bound(100) == pytest.approx(0.6964, abs=1e-3)

    def test_bound_decreases_to_ln2(self):
        import math
        assert liu_layland_bound(10_000) == pytest.approx(math.log(2),
                                                          abs=1e-4)

    def test_accepts_below_bound(self):
        tasks = [at("a", 20, 100, 100), at("b", 30, 150, 150)]
        assert utilization(tasks) == pytest.approx(0.4)
        assert rm_utilization_test(tasks)

    def test_rejects_above_bound(self):
        tasks = [at("a", 50, 100, 100), at("b", 60, 150, 150)]
        assert not rm_utilization_test(tasks)

    def test_requires_implicit_deadlines(self):
        with pytest.raises(ValueError):
            rm_utilization_test([at("a", 10, 50, 100)])

    def test_empty_set_feasible(self):
        assert rm_utilization_test([])


class TestResponseTimeAnalysis:
    def test_single_task(self):
        results = response_time_analysis([at("a", 30, 100, 100)])
        assert results["a"] == 30

    def test_classic_two_task_example(self):
        # C1=200,T1=500 / C2=400,T2=700 (RM order): R2 = 400+2*200 = 800.
        tasks = sort_rate_monotonic([at("t2", 400, 700, 700),
                                     at("t1", 200, 500, 500)])
        results = response_time_analysis(tasks)
        assert results["t1"] == 200
        assert results["t2"] == 800
        assert not rta_schedulable(tasks)

    def test_blocking_added(self):
        tasks = [at("hi", 10, 100, 100, blocking=25), at("lo", 20, 200, 200)]
        results = response_time_analysis(tasks)
        assert results["hi"] == 35

    def test_interference_hook(self):
        tasks = [at("a", 50, 200, 200)]
        results = response_time_analysis(
            tasks, interference=lambda window: 10)
        assert results["a"] == 60

    def test_overload_is_unschedulable(self):
        tasks = [at("a", 80, 100, 100), at("b", 80, 100, 100)]
        results = response_time_analysis(tasks)
        # The recurrence converges to 400, far past the deadline.
        assert results["b"] == 400
        assert not rta_schedulable(tasks)

    def test_divergent_case_returns_none(self):
        # Higher-priority utilisation of 1.0: the recurrence grows
        # without bound and the analysis gives up.
        tasks = [at("a", 100, 10_000, 100), at("b", 10, 10_000, 150)]
        results = response_time_analysis(tasks)
        assert results["b"] is None

    def test_sort_orders(self):
        tasks = [at("slow", 1, 500, 900), at("fast", 1, 400, 300)]
        assert [t.name for t in sort_rate_monotonic(tasks)] == \
            ["fast", "slow"]
        assert [t.name for t in sort_deadline_monotonic(tasks)] == \
            ["fast", "slow"]


class TestBusyPeriod:
    def test_simple_fixpoint(self):
        # C=30,T=100 and C=20,T=70: L solves L = ceil(L/100)30+ceil(L/70)20.
        tasks = [at("a", 30, 100, 100), at("b", 20, 70, 70)]
        length = synchronous_busy_period(tasks)
        # L = 50: ceil(50/100)*30 + ceil(50/70)*20 = 30 + 20 = 50.
        assert length == 50
        demand = -(-length // 100) * 30 + -(-length // 70) * 20
        assert demand == length

    def test_divergence_at_full_load(self):
        tasks = [at("a", 100, 100, 100), at("b", 10, 100, 100)]
        assert synchronous_busy_period(tasks) is None

    def test_empty(self):
        assert synchronous_busy_period([]) == 0

    def test_deadlines_enumeration(self):
        tasks = [at("a", 1, 50, 100)]
        assert deadlines_within(tasks, 260) == [50, 150, 250]

    def test_interference_lengthens_busy_period(self):
        tasks = [at("a", 50, 100, 100)]
        plain = synchronous_busy_period(tasks)
        loaded = synchronous_busy_period(
            tasks, interference=lambda w: 10)
        assert loaded > plain

    def test_interference_is_taken_over_the_window(self):
        # An interrupt of 40 per 100 beside C=100: in [0, 140) it fires
        # at 0 and 100, so 140 is not idle; L = 100 + I(180) = 180.
        # Over the task demand alone (I(100) = 40) it stopped at 140.
        tasks = [at("a", 100, 1000, 1000)]
        length = synchronous_busy_period(
            tasks, interference=lambda w: -(-w // 100) * 40)
        assert length == 180


class TestSpuriTest:
    def test_processor_demand_counts_whole_jobs(self):
        tasks = [at("a", 10, 50, 100)]
        assert processor_demand(tasks, 49) == 0
        assert processor_demand(tasks, 50) == 10
        assert processor_demand(tasks, 149) == 10
        assert processor_demand(tasks, 150) == 20

    def test_feasible_light_set_vacuous(self):
        # Busy period (30) ends before the first deadline (100): the
        # test is vacuously satisfied, margin stays None.
        tasks = [at("a", 10, 100, 100), at("b", 20, 200, 200)]
        report = spuri_edf_test(tasks)
        assert report["feasible"]
        assert report["busy_period"] == 30
        assert report["checked_deadlines"] == 0
        assert report["margin"] is None

    def test_feasible_set_with_checked_deadlines(self):
        # Constrained deadlines inside the busy period get checked.
        tasks = [at("a", 30, 40, 100), at("b", 20, 60, 200)]
        report = spuri_edf_test(tasks)
        assert report["feasible"]
        assert report["checked_deadlines"] > 0
        assert report["margin"] >= 0

    def test_infeasible_overloaded_set(self):
        tasks = [at("a", 60, 100, 100), at("b", 60, 100, 100)]
        report = spuri_edf_test(tasks)
        assert not report["feasible"]

    def test_interference_rate_counts_toward_overload(self):
        # U = 0.5 beside an interference of 40 per 100 fits (the busy
        # period ends at 90); beside 60 per 100 it needs 1.1.
        tasks = [at("a", 50, 100, 100)]

        def per_100(amount):
            return lambda window: -(-window // 100) * amount

        fits = spuri_edf_test(tasks, interference=per_100(40))
        assert fits["feasible"] and fits["busy_period"] == 90
        report = spuri_edf_test(tasks, interference=per_100(60))
        assert not report["feasible"]
        assert report["busy_period"] is None

    def test_infeasible_tight_deadline(self):
        # U < 1 but a deadline shorter than the WCET of the pile-up.
        tasks = [at("a", 50, 60, 1000), at("b", 30, 55, 1000)]
        report = spuri_edf_test(tasks)
        assert not report["feasible"]
        # d=55 only carries b's 30; d=60 carries 30+50=80 > 60.
        assert report["first_failure"] == 60

    def test_blocking_term_can_break_feasibility(self):
        base = [
            at("hi", 30, 60, 200),
            at("lo", 50, 500, 500, cs=0),
        ]
        assert spuri_edf_test(base)["feasible"]
        with_cs = [
            at("hi", 30, 60, 200),
            at("lo", 50, 500, 500, cs=40, resource="R"),
        ]
        report = spuri_edf_test(with_cs)
        # At d=60: demand 30 + blocking 40 = 70 > 60.
        assert not report["feasible"]

    def test_test_is_safe_against_simulation(self):
        """Sets accepted by the test never miss deadlines when executed
        (with zero middleware costs, matching the naive model)."""
        from repro.core import Task
        from repro.core.attributes import Sporadic
        from repro.core.monitoring import ViolationKind
        from repro.scheduling import EDFScheduler
        from repro.system import HadesSystem
        from repro.workloads import random_spuri_taskset, spuri_to_heug

        accepted = 0
        for seed in range(8):
            tasks = random_spuri_taskset(4, 0.6, seed=seed,
                                         period_range=(5_000, 50_000))
            analysis = [t.to_analysis() for t in tasks]
            if not spuri_edf_test(analysis)["feasible"]:
                continue
            accepted += 1
            system = HadesSystem(node_ids=["n0"],
                                 costs=DispatcherCosts.zero())
            system.attach_scheduler(EDFScheduler(scope="n0", w_sched=0))
            from repro.scheduling import SRPProtocol
            resources = {}
            heugs = [spuri_to_heug(t, "n0", resources) for t in tasks]
            system.attach_scheduler(SRPProtocol(heugs, scope="n0",
                                                w_sched=0))
            # Worst case: synchronous arrivals at pseudo-period rate.
            for heug, spuri in zip(heugs, tasks):
                state = {"n": 0}

                def fire(h=heug, s=spuri, st=state):
                    if st["n"] >= 3:
                        return
                    st["n"] += 1
                    system.activate(h)
                    system.sim.call_in(s.pseudo_period,
                                       lambda: fire(h, s, st))

                fire()
            system.run()
            assert system.monitor.count(ViolationKind.DEADLINE_MISS) == 0, \
                f"seed {seed}: accepted set missed deadlines"
        assert accepted >= 2  # the property was actually exercised


class TestBlockingTimes:
    def test_srp_blocking_from_lower_level_cs(self):
        tasks = [
            at("hi", 10, 100, 100, resource="R", cs=5),
            at("lo", 50, 1000, 1000, resource="R", cs=40),
        ]
        blocking = srp_blocking_times(tasks)
        assert blocking["hi"] == 40   # lo's critical section
        assert blocking["lo"] == 0    # nobody below lo

    def test_no_blocking_without_shared_resource(self):
        tasks = [
            at("hi", 10, 100, 100, resource="R1", cs=5),
            at("lo", 50, 1000, 1000, resource="R2", cs=40),
        ]
        blocking = srp_blocking_times(tasks)
        # R2's ceiling is lo's level only: cannot block hi.
        assert blocking["hi"] == 0

    def test_mid_task_blocked_by_low_cs_when_ceiling_high(self):
        tasks = [
            at("hi", 5, 50, 100, resource="R", cs=2),
            at("mid", 10, 200, 300),
            at("lo", 20, 1000, 1000, resource="R", cs=15),
        ]
        blocking = srp_blocking_times(tasks)
        # lo's R has ceiling = hi's level > mid's level: mid is blocked.
        assert blocking["mid"] == 15
        assert blocking["hi"] == 15

    def test_pcp_matches_srp_for_deadline_priorities(self):
        tasks = [
            at("hi", 10, 100, 100, resource="R", cs=5),
            at("lo", 50, 1000, 1000, resource="R", cs=40),
        ]
        assert pcp_blocking_times(tasks) == srp_blocking_times(tasks)


class TestHadesModifiedTest:
    def spuri_set(self, scale=1):
        # Busy enough (U ~ 0.71) that the busy period covers deadlines,
        # so margins are well-defined.
        return [
            SpuriTask("a", c_before=50 * scale, cs=60 * scale,
                      c_after=40 * scale, deadline=400 * scale,
                      pseudo_period=400 * scale, resource="R"),
            SpuriTask("b", c_before=300 * scale, cs=0, c_after=0,
                      deadline=900 * scale, pseudo_period=900 * scale),
        ]

    def test_inflation_matches_figure3_structure(self):
        costs = DispatcherCosts(c_start_act=5, c_end_act=5, c_local=8)
        with_res, without_res = self.spuri_set()
        assert spuri_task_inflation(with_res, costs) == 150 + 3 * 10 + 2 * 8
        assert spuri_task_inflation(without_res, costs) == 300 + 10

    def test_zero_costs_reduce_to_plain_spuri(self):
        tasks = self.spuri_set()
        plain = spuri_edf_test([t.to_analysis() for t in tasks])
        hades = hades_edf_test(tasks, costs=DispatcherCosts.zero())
        assert hades.feasible == plain["feasible"]
        assert hades.margin == plain["margin"]

    def test_costs_shrink_margin(self):
        tasks = self.spuri_set()
        free = hades_edf_test(tasks, costs=DispatcherCosts.zero())
        costed = hades_edf_test(tasks, costs=DispatcherCosts())
        assert costed.margin < free.margin

    #: The node's default kernel activities: the clock tick and a
    #: network interrupt taking 40% of the processor.
    DEFAULT_ACTIVITIES = [KernelActivity("clock", 15, 10_000),
                          KernelActivity("net", 40, 100)]

    def test_kernel_activities_shrink_margin(self):
        # U = 0.16 beside the activities' 0.4015: accepted with and
        # without them, with a deadline inside either busy period.
        tasks = [
            SpuriTask("a", c_before=200, cs=300, c_after=100,
                      deadline=2_000, pseudo_period=8_000, resource="R"),
            SpuriTask("b", c_before=1_500, cs=0, c_after=0,
                      deadline=6_000, pseudo_period=18_000),
        ]
        without = hades_edf_test(tasks, costs=DispatcherCosts.zero())
        with_kernel = hades_edf_test(tasks, costs=DispatcherCosts.zero(),
                                     kernel_activities=self.DEFAULT_ACTIVITIES)
        assert without.feasible and with_kernel.feasible
        assert with_kernel.margin < without.margin

    def test_kernel_activities_can_overload(self):
        # U = 0.71 plus the activities' 0.4015 needs 1.11 of the
        # processor: no busy period ends, so the set is rejected.
        tasks = self.spuri_set(scale=10)
        report = hades_edf_test(tasks, costs=DispatcherCosts.zero(),
                                kernel_activities=self.DEFAULT_ACTIVITIES)
        assert not report.feasible
        assert report.busy_period is None

    def test_scheduler_interference_monotone(self):
        analysis = [t.to_analysis() for t in self.spuri_set()]
        s1 = scheduler_interference(analysis, 1000, w_sched=2)
        s2 = scheduler_interference(analysis, 2000, w_sched=2)
        assert 0 < s1 <= s2
        assert scheduler_interference(analysis, 1000, w_sched=0) == 0

    def test_kernel_interference_sums_activities(self):
        activities = [KernelActivity("clock", 15, 10_000),
                      KernelActivity("net", 40, 100)]
        assert kernel_interference(activities, 10_000) == 15 + 100 * 40

    def test_heavily_loaded_set_infeasible_only_with_costs(self):
        # Calibrated so the naive test accepts but the precise
        # cost-integrated test refuses.
        tasks = [
            SpuriTask("a", c_before=0, cs=190, c_after=0, deadline=400,
                      pseudo_period=400, resource="R"),
            SpuriTask("b", c_before=195, cs=0, c_after=0, deadline=400,
                      pseudo_period=400),
        ]
        naive = hades_edf_test(tasks, costs=DispatcherCosts.zero())
        costed = hades_edf_test(
            tasks, costs=DispatcherCosts(c_start_act=5, c_end_act=5,
                                         c_local=8))
        assert naive.feasible
        assert not costed.feasible

    def test_pessimistic_test_rejects_more_than_precise(self):
        # A set feasible under precise costs but rejected by a uniform
        # 30% over-estimation (§2.2.2's pessimism problem).
        tasks = [
            SpuriTask("a", c_before=0, cs=150, c_after=0, deadline=390,
                      pseudo_period=400, resource="R"),
            SpuriTask("b", c_before=160, cs=0, c_after=0, deadline=400,
                      pseudo_period=400),
        ]
        precise = hades_edf_test(tasks, costs=DispatcherCosts(
            c_start_act=2, c_end_act=2, c_local=3))
        pessimistic = pessimistic_edf_test(tasks, overhead_factor=1.3)
        assert precise.feasible
        assert not pessimistic.feasible

    def test_pessimistic_factor_validation(self):
        with pytest.raises(ValueError):
            pessimistic_edf_test(self.spuri_set(), overhead_factor=0.9)

    def test_report_carries_inflated_wcets(self):
        tasks = self.spuri_set()
        costs = DispatcherCosts()
        report = hades_edf_test(tasks, costs=costs)
        for task in tasks:
            assert report.inflated_wcets[task.name] == \
                spuri_task_inflation(task, costs)


class TestTaskDescriptors:
    def test_spuri_wcet_is_sum_of_segments(self):
        task = SpuriTask("t", c_before=10, cs=20, c_after=5, deadline=100,
                         pseudo_period=100, resource="R")
        assert task.wcet == 35
        assert task.utilization == pytest.approx(0.35)

    def test_spuri_validation(self):
        with pytest.raises(ValueError):
            SpuriTask("bad", c_before=10, cs=5, c_after=0, deadline=100,
                      pseudo_period=100)  # cs without resource
        with pytest.raises(ValueError):
            SpuriTask("bad", c_before=10, cs=0, c_after=0, deadline=100,
                      pseudo_period=100, resource="R")

    def test_analysis_task_validation(self):
        with pytest.raises(ValueError):
            at("bad", 0, 10, 10)
        with pytest.raises(ValueError):
            at("bad", 10, 0, 10)
        with pytest.raises(ValueError):
            AnalysisTask("bad", wcet=10, deadline=10, period=10, cs=20)

    def test_scaled_substitution(self):
        task = at("t", 100, 200, 300, blocking=10)
        inflated = task.scaled(wcet=120, blocking=15)
        assert inflated.wcet == 120
        assert inflated.blocking == 15
        assert task.wcet == 100  # original untouched
