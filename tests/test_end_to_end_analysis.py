"""Tests for invocation priority inheritance, end-to-end analysis and
the system monitor service."""

import pytest

from repro.core import DispatcherCosts, EUAttributes, Periodic, Task
from repro.core.dispatcher import InstanceState
from repro.core.monitoring import ViolationKind
from repro.feasibility import AnalysisTask
from repro.feasibility.end_to_end import (
    StageLoad,
    end_to_end_bound,
    end_to_end_feasible,
    separate_tests,
    stage_response_bound,
)
from repro.scheduling import EDFScheduler
from repro.services.monitor import SystemMonitor
from repro.system import HadesSystem


def make_system(**kwargs):
    kwargs.setdefault("node_ids", ["n0"])
    kwargs.setdefault("costs", DispatcherCosts.zero())
    return HadesSystem(**kwargs)


class TestInvocationPriorityInheritance:
    def build(self, inherit):
        """A high-priority caller invokes a (default low-priority)
        service while a medium task competes for the CPU."""
        system = make_system()
        service = Task("logger_service", node_id="n0")
        service.code_eu("write", wcet=200)  # default prio 1
        caller = Task("caller", node_id="n0")
        pre = caller.code_eu("pre", wcet=50, attrs=EUAttributes(prio=80))
        call = caller.inv_eu("call", service, synchronous=True,
                             inherit_priority=inherit)
        caller.precede(pre, call)
        medium = Task("medium", node_id="n0")
        medium.code_eu("spin", wcet=1_000, attrs=EUAttributes(prio=40))
        inst = system.activate(caller)
        system.sim.call_in(10, lambda: system.activate(medium))
        system.run()
        return system, inst

    def test_without_inheritance_service_starves(self):
        system, inst = self.build(inherit=False)
        # Service at prio 1 waits out the whole medium task.
        assert inst.response_time >= 1_000 + 200

    def test_with_inheritance_service_runs_at_caller_priority(self):
        system, inst = self.build(inherit=True)
        # Service inherits 80 > 40: finishes ahead of medium.
        assert inst.response_time < 1_000
        service_inst = system.dispatcher.instances_of("logger_service")[0]
        eui = list(service_inst.eu_instances.values())[0]
        assert eui.priority == 80

    def test_inheritance_avoids_inversion_end_to_end(self):
        fast = self.build(inherit=True)[1].response_time
        slow = self.build(inherit=False)[1].response_time
        assert fast < slow


class TestStageResponseBound:
    def test_no_load_equals_wcet(self):
        assert stage_response_bound(100, None, deadline_cap=10_000) == 100

    def test_load_inflates_fixed_point(self):
        load = StageLoad("n0", [AnalysisTask("hp", 30, 100, 100)])
        # R = 50 + ceil(R/100)*30 -> 80.
        assert stage_response_bound(50, load, deadline_cap=10_000) == 80

    def test_divergence_returns_none(self):
        load = StageLoad("n0", [AnalysisTask("hp", 100, 1_000, 100)])
        assert stage_response_bound(50, load, deadline_cap=10_000) is None


class TestEndToEndAnalysis:
    def chain(self, deadline=20_000):
        chain = Task("pipeline", deadline=deadline, node_id="n0")
        a = chain.code_eu("a", wcet=500)
        b = chain.code_eu("b", wcet=800, node_id="n1")
        c = chain.code_eu("c", wcet=300, node_id="n1")
        chain.precede(a, b)
        chain.precede(b, c)
        return chain

    def test_integrated_bound_composition(self):
        chain = self.chain()
        costs = DispatcherCosts.zero()
        bound = end_to_end_bound(chain, loads={}, network_bound=400,
                                 costs=costs)
        # 500 + 800 + 300 compute, one remote hop (400), one local hop.
        assert bound == 1_600 + 400

    def test_costs_enter_the_bound(self):
        chain = self.chain()
        costs = DispatcherCosts(c_start_act=5, c_end_act=5, c_local=8,
                                c_remote=12)
        bound = end_to_end_bound(chain, loads={}, network_bound=400,
                                 costs=costs)
        assert bound == 1_600 + 3 * 10 + 400 + 12 + 8

    def test_load_on_a_stage_node_inflates_bound(self):
        chain = self.chain()
        light = end_to_end_bound(chain, loads={}, network_bound=400,
                                 costs=DispatcherCosts.zero())
        loads = {"n1": StageLoad("n1",
                                 [AnalysisTask("hp", 200, 1_000, 1_000)])}
        heavy = end_to_end_bound(chain, loads=loads, network_bound=400,
                                 costs=DispatcherCosts.zero())
        assert heavy > light

    def test_feasibility_verdict(self):
        assert end_to_end_feasible(self.chain(deadline=5_000), {}, 400,
                                   DispatcherCosts.zero())
        assert not end_to_end_feasible(self.chain(deadline=1_500), {}, 400,
                                       DispatcherCosts.zero())

    def test_bound_is_safe_against_simulation(self):
        """The analysis bound dominates the observed response, with the
        analysed interference actually running."""
        chain = self.chain()
        loads = {"n1": StageLoad("n1",
                                 [AnalysisTask("hp", 100, 2_000, 2_000)])}
        bound = end_to_end_bound(chain, loads=loads, network_bound=500,
                                 costs=DispatcherCosts.zero())
        system = make_system(node_ids=["n0", "n1"], network_latency=200)
        hp = Task("hp", deadline=2_000, arrival=Periodic(period=2_000),
                  node_id="n1")
        hp.code_eu("eu", wcet=100, attrs=EUAttributes(prio=500))
        system.register_periodic(hp, count=10)
        inst = system.activate(chain)
        system.run(until=50_000)
        assert inst.state is InstanceState.DONE
        assert inst.response_time <= bound

    def test_separate_tests_split_budgets(self):
        chain = self.chain(deadline=10_000)
        verdict = separate_tests(chain, loads={}, network_bound=400,
                                 costs=DispatcherCosts.zero())
        assert verdict["feasible"]
        stages = verdict["stages"]
        assert set(stages) == {"a", "b", "c"}
        # Budgets are proportional to WCETs and sum within the compute
        # budget.
        assert stages["b"]["budget"] > stages["c"]["budget"]
        total_budget = sum(s["budget"] for s in stages.values())
        assert total_budget <= 10_000 - verdict["network_share"]

    def test_separate_tests_reject_network_dominated_deadline(self):
        chain = self.chain(deadline=500)
        verdict = separate_tests(chain, loads={}, network_bound=600,
                                 costs=DispatcherCosts.zero())
        assert not verdict["feasible"]

    def test_separate_is_more_pessimistic_than_integrated(self):
        """Option 2's fixed split can reject what option 1 accepts —
        the paper's 'the way communications are integrated is free'
        trade-off made visible."""
        # With interference on n1, stage b needs 900 but its
        # proportional share of the split deadline is only 825: the
        # separate test refuses while the integrated bound
        # (500 + 900 + 400 + 400 = 2200 <= 2400) accepts.
        chain = self.chain(deadline=2_400)
        loads = {"n1": StageLoad("n1",
                                 [AnalysisTask("hp", 100, 2_000, 2_000)])}
        assert end_to_end_feasible(chain, loads, 400,
                                   DispatcherCosts.zero())
        verdict = separate_tests(chain, loads=loads, network_bound=400,
                                 costs=DispatcherCosts.zero())
        assert not verdict["feasible"]
        # The proportional split starves at least one loaded stage
        # (here c: bound 400 vs budget 375).
        assert any(not stage["feasible"]
                   for stage in verdict["stages"].values())

    def test_chain_without_deadline_rejected(self):
        chain = Task("no_deadline", node_id="n0")
        chain.code_eu("a", wcet=10)
        with pytest.raises(ValueError):
            end_to_end_feasible(chain, {}, 100)
        with pytest.raises(ValueError):
            separate_tests(chain, {}, 100)


class TestSystemMonitor:
    def test_healthy_system_report(self):
        system = make_system()
        task = Task("t", deadline=1_000, node_id="n0")
        task.code_eu("eu", wcet=100)
        system.activate(task)
        system.run()
        monitor = SystemMonitor(system)
        assert monitor.healthy()
        report = monitor.report()
        assert "HEALTHY" in report
        assert "n0: up" in report
        assert monitor.application_status()["completed_instances"] == 1

    def test_degraded_on_violation(self):
        system = make_system()
        task = Task("late", deadline=50, node_id="n0")
        task.code_eu("eu", wcet=200)
        system.activate(task)
        system.run()
        monitor = SystemMonitor(system)
        assert not monitor.healthy()
        assert monitor.violation_counts() == {"deadline_miss": 1}
        assert "DEGRADED" in monitor.report()

    def test_degraded_on_crash_and_link_down(self):
        system = make_system(node_ids=["a", "b"])
        monitor = SystemMonitor(system)
        assert monitor.healthy()
        system.network.link("a", "b").up = False
        assert not monitor.healthy()
        system.network.heal()
        system.nodes["b"].crash()
        assert not monitor.healthy()
        assert "CRASHED" in monitor.report()

    def test_network_counters(self):
        system = make_system(node_ids=["a", "b"])
        system.network.interfaces["a"].send("b", "x")
        system.run()
        monitor = SystemMonitor(system)
        assert monitor.network_status()["delivered"] == 1

    def test_thread_count_excludes_finished_threads(self):
        system = make_system()
        task = Task("t", deadline=1_000, arrival=Periodic(period=1_000),
                    node_id="n0")
        task.code_eu("eu", wcet=100)
        system.register_periodic(task, count=50)
        system.run()
        node = system.nodes["n0"]
        assert not any(thread.alive for thread in node._threads)
        assert SystemMonitor(system).node_status()["n0"]["threads"] == 0
        assert node.threads == []
        assert "threads=0" in repr(node)
