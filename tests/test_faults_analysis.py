"""Tests for fault plans, campaigns, calibration and trace analysis."""

import pytest

from repro.analysis import (
    calibrate_dispatcher_costs,
    characterize_kernel_activities,
    render_timeline,
    response_time_stats,
    schedule_intervals,
)
from repro.analysis.traces import busy_fraction, thread_time
from repro.core import DispatcherCosts, Task
from repro.core.monitoring import ViolationKind
from repro.faults import Campaign, FaultEvent, FaultKind, FaultPlan, random_plan
from repro.obs import MetricsRegistry
from repro.system import HadesSystem


class TestFaultPlan:
    def test_crash_event_applied_at_time(self):
        system = HadesSystem(node_ids=["n0", "n1"])
        plan = FaultPlan().crash(500, "n1")
        plan.apply(system)
        system.run(until=1_000)
        assert system.nodes["n1"].crashed
        assert len(plan.applied) == 1

    def test_crash_then_recover(self):
        system = HadesSystem(node_ids=["n0"])
        plan = FaultPlan().crash(100, "n0").recover(200, "n0")
        plan.apply(system)
        system.run(until=300)
        assert not system.nodes["n0"].crashed

    def test_link_down_blocks_traffic(self):
        system = HadesSystem(node_ids=["n0", "n1"])
        plan = FaultPlan().link_down(0, "n0", "n1")
        plan.apply(system)
        got = []
        system.network.interfaces["n1"].on_receive(lambda m: got.append(m))
        system.sim.call_in(100,
                           lambda: system.network.interfaces["n0"].send(
                               "n1", "x"))
        system.run(until=10_000)
        assert got == []

    def test_omission_fault_added(self):
        system = HadesSystem(node_ids=["n0", "n1"])
        plan = FaultPlan(seed=3).link_omission(0, "n0", "n1",
                                               probability=1.0)
        plan.apply(system)
        system.run(until=10)
        assert len(system.network.link("n0", "n1").faults) == 1

    def test_link_up_restores_traffic(self):
        from repro.faults.plan import FaultKind
        system = HadesSystem(node_ids=["n0", "n1"])
        plan = (FaultPlan().link_down(0, "n0", "n1")
                .add(FaultEvent(500, FaultKind.LINK_UP, ("n0", "n1"))))
        plan.apply(system)
        got = []
        system.network.interfaces["n1"].on_receive(
            lambda m: got.append(m.payload))
        system.sim.call_in(100, lambda: system.network.interfaces["n0"]
                           .send("n1", "early"))
        system.sim.call_in(600, lambda: system.network.interfaces["n0"]
                           .send("n1", "late"))
        system.run(until=10_000)
        assert got == ["late"]

    def test_link_performance_fault_delays(self):
        from repro.faults.plan import FaultKind
        system = HadesSystem(node_ids=["n0", "n1"], network_latency=50)
        plan = FaultPlan().add(FaultEvent(
            0, FaultKind.LINK_PERFORMANCE, ("n0", "n1"),
            {"extra_delay": 5_000}))
        plan.apply(system)
        arrival = []
        system.network.interfaces["n1"].on_receive(
            lambda m: arrival.append(system.sim.now))
        system.sim.call_in(10, lambda: system.network.interfaces["n0"]
                           .send("n1", "slow"))
        system.run(until=20_000)
        assert arrival and arrival[0] > 5_000

    def test_byzantine_clock_recovers(self):
        from repro.faults.plan import FaultKind
        from repro.kernel import ByzantineClock, Node
        from repro.network import Network
        from repro.sim import Simulator, Tracer

        # Build a system whose node has a Byzantine-capable clock.
        system = HadesSystem(node_ids=["n0"])
        system.nodes["n0"].clock = ByzantineClock(system.sim)
        system.nodes["n0"].clock.byzantine = False
        plan = (FaultPlan()
                .byzantine_clock(100, "n0")
                .add(FaultEvent(500, FaultKind.CLOCK_RECOVER, "n0")))
        plan.apply(system)
        system.run(until=200)
        assert abs(system.nodes["n0"].now() - system.sim.now) > 1_000_000
        system.run(until=1_000)
        assert system.nodes["n0"].now() == system.sim.now

    def test_byzantine_clock_requires_capable_clock(self):
        system = HadesSystem(node_ids=["n0"])
        plan = FaultPlan().byzantine_clock(0, "n0")
        plan.apply(system)
        with pytest.raises(ValueError):
            system.run(until=10)

    def test_events_sorted_by_time(self):
        plan = FaultPlan()
        plan.crash(500, "b")
        plan.crash(100, "a")
        assert [e.time for e in plan.events] == [100, 500]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-1, FaultKind.NODE_CRASH, "n0")

    def test_random_plan_is_deterministic(self):
        plan_a = random_plan(["n0", "n1", "n2"], horizon=100_000, seed=5)
        plan_b = random_plan(["n0", "n1", "n2"], horizon=100_000, seed=5)
        assert [(e.time, e.kind, e.target) for e in plan_a.events] == \
            [(e.time, e.kind, e.target) for e in plan_b.events]

    def test_random_plan_spares_nodes(self):
        for seed in range(10):
            plan = random_plan(["n0", "n1"], horizon=10_000, seed=seed,
                               crash_count=1, spare_nodes=["n0"])
            crashes = [e for e in plan.events
                       if e.kind is FaultKind.NODE_CRASH]
            assert all(e.target == "n1" for e in crashes)


class TestCampaign:
    def test_aggregates_metrics(self):
        def scenario(seed):
            return {"value": seed * 2, "hit": seed % 2 == 0}

        result = Campaign(scenario, seeds=range(4)).run()
        assert result.runs == 4
        assert result.mean("value") == 3.0
        assert result.total("value") == 12
        assert result.maximum("value") == 6
        assert result.fraction("hit") == 0.5

    def test_runs_whole_system_scenarios(self):
        def scenario(seed):
            system = HadesSystem(node_ids=["n0"], on_deadline_miss="record")
            task = Task("t", deadline=50, node_id="n0")
            task.code_eu("a", wcet=100)
            system.activate(task)
            system.run()
            return {"misses": system.monitor.count(
                ViolationKind.DEADLINE_MISS)}

        result = Campaign(scenario, seeds=[1, 2]).run()
        assert result.total("misses") == 2


class TestCampaignEdgeCases:
    def test_empty_campaign(self):
        result = Campaign(lambda seed: {"x": 1}, seeds=[]).run()
        assert result.runs == 0
        assert result.per_run == []
        assert result.mean("x") == 0.0
        assert result.total("x") == 0
        assert result.maximum("x") == 0.0
        assert result.fraction("x") == 0.0
        assert result.aggregate() is None
        assert result.counter_total("x") == 0
        assert result.counter_mean("x") == 0.0

    def test_metric_present_in_only_some_runs(self):
        def scenario(seed):
            return {"rare": seed} if seed % 2 else {"other": 1}

        result = Campaign(scenario, seeds=range(4)).run()
        # mean/maximum/total all skip runs lacking the key, so
        # total == mean * present; fraction treats absence as falsy.
        assert result.mean("rare") == 2.0  # (1 + 3) / 2
        assert result.maximum("rare") == 3
        assert result.total("rare") == 4
        assert result.present("rare") == 2
        assert result.total("rare") == result.mean("rare") * result.present("rare")
        assert result.fraction("rare") == 0.5

    def test_mean_with_zero_matching_runs(self):
        result = Campaign(lambda seed: {"x": 1}, seeds=range(3)).run()
        assert result.mean("missing") == 0.0
        assert result.maximum("missing") == 0.0
        assert result.fraction("missing") == 0.0

    def test_seed_recorded_but_not_clobbered(self):
        result = Campaign(lambda seed: {"x": seed}, seeds=[5, 9]).run()
        assert [run["seed"] for run in result.per_run] == [5, 9]
        custom = Campaign(lambda seed: {"seed": 1234},
                          seeds=[5]).run()
        assert custom.per_run[0]["seed"] == 1234

    def test_scenario_returning_bare_run_report(self):
        def scenario(seed):
            registry = MetricsRegistry()
            registry.counter("drops").inc(seed)
            return registry.snapshot(seed=seed)

        result = Campaign(scenario, seeds=[1, 2, 3]).run()
        assert len(result.reports) == 3
        assert result.counter_total("drops") == 6
        assert result.counter_mean("drops") == 2.0
        assert result.total("drops") == 6  # flattened into per-run dicts
        merged = result.aggregate()
        assert merged.counter("drops") == 6
        assert merged.meta["runs"] == 3

    def test_dict_with_embedded_report_backfills_metrics(self):
        def scenario(seed):
            registry = MetricsRegistry()
            registry.counter("a").inc(10)
            registry.counter("b").inc(1)
            # Explicit keys win over the report's flattened metrics.
            return {"a": 99, "report": registry.snapshot()}

        result = Campaign(scenario, seeds=[0, 1]).run()
        assert all(run["a"] == 99 for run in result.per_run)
        assert all(run["b"] == 1 for run in result.per_run)
        assert result.counter_total("a") == 20  # reports keep raw values
        assert result.aggregate().counter("b") == 2

    def test_runs_without_reports_do_not_break_aggregation(self):
        def scenario(seed):
            if seed == 0:
                return {"plain": 1}
            registry = MetricsRegistry()
            registry.counter("c").inc(5)
            return {"report": registry.snapshot()}

        result = Campaign(scenario, seeds=[0, 1]).run()
        assert result.runs == 2
        assert len(result.reports) == 1
        assert result.aggregate().counter("c") == 5
        assert result.counter_mean("c") == 5.0


class TestCalibration:
    def test_measured_constants_match_configuration(self):
        configured = DispatcherCosts(c_local=8, c_remote=12, c_start_act=5,
                                     c_end_act=5, c_start_inv=6, c_end_inv=6)
        measured = calibrate_dispatcher_costs(configured)
        assert measured["per_action"] == configured.per_action()
        assert measured["c_local"] == configured.c_local
        assert measured["c_remote"] == configured.c_remote
        assert measured["per_invocation"] == configured.per_invocation()
        assert measured["c_start_act"] == configured.c_start_act
        assert measured["c_end_act"] == configured.c_end_act

    def test_zero_cost_configuration_measures_zero(self):
        measured = calibrate_dispatcher_costs(DispatcherCosts.zero())
        assert measured["per_action"] == 0
        assert measured["c_local"] == 0
        assert measured["c_remote"] == 0

    def test_kernel_characterisation_finds_both_activities(self):
        activities = characterize_kernel_activities(duration=300_000)
        names = {activity.name for activity in activities}
        assert names == {"clock", "net"}
        clock = next(a for a in activities if a.name == "clock")
        assert clock.pseudo_period == 10_000  # the configured tick

    def test_kernel_characterisation_net_respects_pseudo_period(self):
        activities = characterize_kernel_activities(duration=300_000)
        net = next(a for a in activities if a.name == "net")
        assert net.pseudo_period >= 1


class TestTraceAnalysis:
    def run_two_tasks(self):
        system = HadesSystem(node_ids=["n0"], costs=DispatcherCosts.zero())
        from repro.core.attributes import EUAttributes
        low = Task("low", node_id="n0")
        low.code_eu("a", wcet=100, attrs=EUAttributes(prio=1))
        high = Task("high", node_id="n0")
        high.code_eu("a", wcet=20, attrs=EUAttributes(prio=9))
        system.activate(low)
        system.sim.call_in(50, lambda: system.activate(high))
        system.run()
        return system

    def test_intervals_reconstruct_preemption(self):
        system = self.run_two_tasks()
        intervals = schedule_intervals(system.tracer, node="n0")
        assert thread_time(intervals, "low#1/a") == 100
        assert thread_time(intervals, "high#1/a") == 20
        # low runs in two pieces around high's preemption.
        low_pieces = [i for i in intervals if i.thread == "low#1/a"]
        assert len(low_pieces) == 2
        assert low_pieces[0].end == 50
        assert low_pieces[1].start == 70

    def test_busy_fraction(self):
        system = self.run_two_tasks()
        intervals = schedule_intervals(system.tracer, node="n0")
        assert busy_fraction(intervals, 120) == pytest.approx(1.0)

    def test_engine_unit_intervals_are_kept(self):
        # The CPU and a GPU unit of one node run at once: the GPU
        # block's interval must not be overwritten by the CPU's.
        from repro.core.attributes import EUAttributes
        system = HadesSystem(node_ids=["n0"], costs=DispatcherCosts.zero(),
                             engines={"n0": {"gpu": 1}})
        low = Task("low", node_id="n0")
        low.code_eu("block", wcet=1_000, variants={"gpu": 1_000},
                    engine="gpu", attrs=EUAttributes(prio=10))
        cpuwork = Task("cpuwork", node_id="n0")
        cpuwork.code_eu("c", wcet=500, attrs=EUAttributes(prio=40))
        system.activate(low)
        system.activate(cpuwork)
        system.run()
        intervals = schedule_intervals(system.tracer)
        assert sorted((i.thread, i.start, i.end, i.engine)
                      for i in intervals) == [
            ("cpuwork#1/c", 0, 500, "cpu"),
            ("low#1/block", 0, 1000, "gpu0"),
        ]

    def test_response_time_stats(self):
        stats = response_time_stats([10, 20, 30, 40])
        assert stats["count"] == 4
        assert stats["min"] == 10
        assert stats["max"] == 40
        assert stats["mean"] == 25.0
        # Nearest-rank p95, as obs.metrics.exact_quantile defines it.
        assert response_time_stats(range(1, 21))["p95"] == 19
        assert response_time_stats(range(1, 101))["p95"] == 95

    def test_response_time_stats_empty(self):
        assert response_time_stats([])["count"] == 0

    def test_render_timeline_shape(self):
        system = self.run_two_tasks()
        intervals = schedule_intervals(system.tracer, node="n0")
        art = render_timeline(intervals, width=40)
        lines = art.splitlines()
        assert any("low#1/a" in line for line in lines)
        assert any("high#1/a" in line for line in lines)
        assert "#" in art

    def test_render_empty(self):
        assert render_timeline([]) == "(empty schedule)"
