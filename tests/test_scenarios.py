"""The fluent ``Scenario`` facade: declarations, derived structure,
traffic generation, and the ``HadesSystem`` keywords it rides on."""

import pytest

from repro import Scenario
from repro.core.attributes import Aperiodic, Periodic, Sporadic
from repro.core.heug import Task
from repro.scenarios.traffic import (DeterministicService, LogNormalService,
                                     ParetoService, derive_seed)
from repro.system import HadesSystem
from repro.workloads.arrivals import (diurnal_profile, nhpp_arrivals,
                                      validate_arrivals)


def make_periodic(name="t", period=1_000, wcet=100, node_id="n0",
                  deadline=None):
    task = Task(name, deadline=deadline or period,
                arrival=Periodic(period=period), node_id=node_id)
    task.code_eu("eu", wcet=wcet)
    return task.validate()


class TestDeclarations:
    def test_duplicate_tier_rejected(self):
        with pytest.raises(ValueError, match="duplicate tier"):
            Scenario().tier("edge").tier("edge")

    def test_tier_name_charset(self):
        for bad in ("", "a:b", "a/b", "a#b", "a.b"):
            with pytest.raises(ValueError):
                Scenario().tier(bad)

    def test_tier_parameter_validation(self):
        with pytest.raises(ValueError):
            Scenario().tier("t", replicas=0)
        with pytest.raises(ValueError):
            Scenario().tier("t", fan_out=0)
        with pytest.raises(ValueError):
            Scenario().tier("t", wcet=0)
        with pytest.raises(ValueError):
            Scenario().tier("t", budget=0)

    def test_duplicate_tenant_rejected(self):
        with pytest.raises(ValueError, match="duplicate tenant"):
            Scenario().tenant("gold").tenant("gold")

    def test_tenant_validation(self):
        with pytest.raises(ValueError):
            Scenario().tenant("a:b")
        with pytest.raises(ValueError):
            Scenario().tenant("t", rate=-1)
        with pytest.raises(ValueError):
            Scenario().tenant("t", value=0)
        with pytest.raises(ValueError):
            Scenario().tenant("t", mk=(0, 4))
        with pytest.raises(ValueError):
            Scenario().tenant("t", mk=(5, 4))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            Scenario().policy("lifo")

    def test_admission_policy_subset(self):
        with pytest.raises(ValueError):
            Scenario().admission("degrade")

    def test_static_policy_incompatible_with_tenants(self):
        builder = (Scenario().tier("edge").tenant("gold", rate=10)
                   .policy("rm"))
        with pytest.raises(ValueError, match="aperiodic"):
            builder.run(until=1_000)

    def test_tenants_require_tiers(self):
        with pytest.raises(ValueError, match="without tiers"):
            Scenario().node("n0").tenant("gold", rate=10).run(until=1_000)

    def test_tenants_require_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            Scenario().tier("edge").tenant("gold", rate=10).build()

    def test_options_forbids_managed_kwargs(self):
        for key in ("node_ids", "costs"):
            with pytest.raises(ValueError, match="managed"):
                Scenario().options(**{key: None})

    def test_load_and_cells_validation(self):
        with pytest.raises(ValueError):
            Scenario().load(0)
        with pytest.raises(ValueError):
            Scenario().cells(0)

    def test_empty_scenario_has_no_nodes(self):
        with pytest.raises(ValueError, match="no tiers and no nodes"):
            Scenario().node_ids()


class TestDerivedStructure:
    def build(self):
        return (Scenario()
                .tier("edge", replicas=2)
                .tier("svc", replicas=1)
                .cells(3)
                .node("aux0"))

    def test_node_ids_cell_major(self):
        assert self.build().node_ids() == [
            "c0.edge0", "c0.edge1", "c0.svc0",
            "c1.edge0", "c1.edge1", "c1.svc0",
            "c2.edge0", "c2.edge1", "c2.svc0",
            "aux0"]


class TestTrafficGeneration:
    def test_nhpp_deterministic_and_monotone(self):
        first = nhpp_arrivals(0.01, 100_000, seed=5)
        second = nhpp_arrivals(0.01, 100_000, seed=5)
        assert first == second
        assert first == sorted(first)
        assert all(0 <= t < 100_000 for t in first)
        assert first != nhpp_arrivals(0.01, 100_000, seed=6)
        assert validate_arrivals(first, Aperiodic())

    def test_nhpp_zero_rate_empty(self):
        assert nhpp_arrivals(0.0, 50_000) == []

    def test_diurnal_profile_shape(self):
        rate = diurnal_profile(10.0, 30.0, period=1_000_000)
        assert rate.peak == 30.0
        assert rate(0) == pytest.approx(10.0)
        assert rate(500_000) == pytest.approx(30.0)

    def test_callable_rate_without_peak_needs_cap(self):
        with pytest.raises(ValueError, match="rate_cap"):
            nhpp_arrivals(lambda t: 0.01, 10_000)
        times = nhpp_arrivals(lambda t: 0.01, 10_000, rate_cap=0.01)
        assert times == sorted(times)

    def test_tenant_callable_rate_requires_peak(self):
        builder = (Scenario().tier("edge")
                   .tenant("gold", rate=lambda t: 5.0))
        with pytest.raises(ValueError, match="peak"):
            builder.run(until=10_000)

    def test_tenant_arrivals_are_the_traffic_model_draws(self):
        # Each tenant's requests arrive exactly when its NHPP draws
        # them, whichever cell the tenant is pinned to.
        builder = (Scenario()
                   .tier("edge", wcet=100)
                   .cells(2)
                   .tenant("a", rate=300, deadline=10_000)
                   .tenant("b", rate=300, deadline=10_000)
                   .load(2.0)
                   .seed(7))
        builder._horizon = 100_000
        for spec in builder._tenants:
            drawn = nhpp_arrivals(
                300 * (2.0 / 1_000_000), 100_000,
                seed=derive_seed(7, spec.name, "arrivals"))
            assert drawn
            assert builder._tenant_arrivals(spec) == drawn

    def test_validate_arrivals_rejects_non_monotone(self):
        # Backwards timestamps are malformed input even under an
        # unconstrained law (they used to slip through as valid).
        with pytest.raises(ValueError, match="not monotone"):
            validate_arrivals([10, 5], Aperiodic())
        with pytest.raises(ValueError, match="not monotone"):
            validate_arrivals([0, 30, 20], Sporadic(pseudo_period=10))

    def test_validate_arrivals_accepts_equal_timestamps(self):
        assert validate_arrivals([5, 5, 7], Aperiodic())
        # Equal timestamps are judged against the law like any gap.
        assert not validate_arrivals([5, 5], Sporadic(pseudo_period=1))


class TestServiceTimeModels:
    def test_sampler_clamped_to_wcet(self):
        sampler = ParetoService(scale=500, alpha=1.1).sampler(
            wcet=600, seed=3)
        draws = [sampler({}) for _ in range(200)]
        assert all(1 <= d <= 600 for d in draws)
        assert max(draws) == 600  # the heavy tail actually hits the cap

    def test_sampler_deterministic_per_seed(self):
        model = LogNormalService(median=200, sigma=0.8)
        a = model.sampler(wcet=1_000, seed=9)
        b = model.sampler(wcet=1_000, seed=9)
        assert [a({}) for _ in range(50)] == [b({}) for _ in range(50)]

    def test_deterministic_service(self):
        sampler = DeterministicService(250).sampler(wcet=300, seed=0)
        assert {sampler({}) for _ in range(10)} == {250}

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LogNormalService(0)
        with pytest.raises(ValueError):
            LogNormalService(10, sigma=0)
        with pytest.raises(ValueError):
            ParetoService(0)
        with pytest.raises(ValueError):
            DeterministicService(0)
        with pytest.raises(ValueError):
            DeterministicService(5).sampler(wcet=0, seed=0)

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(7, "gold", "svc:0") == derive_seed(7, "gold",
                                                              "svc:0")
        assert derive_seed(7, "gold", "svc:0") != derive_seed(7, "gold",
                                                              "svc:1")


class TestRunOptions:
    """The observability and engine keywords of ``HadesSystem``."""

    def test_removed_categories_spelling_is_rejected(self):
        with pytest.raises(TypeError, match="categories"):
            HadesSystem(node_ids=["n0"], categories=["dispatcher"])


class TestGenericWorkloads:
    def test_scenario_matches_handwired_system(self):
        """The facade is sugar: same workload, same trajectory."""
        from repro import EDFScheduler

        result = (Scenario()
                  .node("n0")
                  .policy("edf", w_sched=0)
                  .costs(None)
                  .task(make_periodic(), periodic=5)
                  .run(until=10_000))

        manual = HadesSystem(node_ids=["n0"])
        manual.attach_scheduler(EDFScheduler(scope="n0", w_sched=0))
        manual.register_periodic(make_periodic(), count=5)
        manual.run(until=10_000)

        assert result.completed == manual.dispatcher.completed_instances
        assert result.misses == 0

    def test_static_policy_builds_per_node_task_sets(self):
        result = (Scenario()
                  .node("n0", "n1")
                  .policy("rm", w_sched=0)
                  .task(make_periodic("a", node_id="n0"), periodic=3)
                  .task(make_periodic("b", node_id="n1"), periodic=3)
                  .run(until=5_000))
        assert result.completed == 6
        assert len(result.schedulers) == 2

    def test_unregistered_task_is_made_known(self):
        task = make_periodic("lazy")
        result = Scenario().node("n0").task(task).run(until=1_000)
        assert "lazy" in result.system.dispatcher.known_tasks
        assert result.completed == 0


class TestServiceScenarios:
    def build(self):
        return (Scenario()
                .tier("edge", replicas=2, wcet=300)
                .tier("svc", fan_out=2, wcet=500,
                      service=LogNormalService(200, 0.6))
                .cells(2)
                .tenant("gold", rate=50, mk=(9, 10), value=5,
                        deadline=30_000)
                .tenant("bronze", rate=100, mk=(1, 4), deadline=50_000)
                .admission("mk_firm"))

    def test_run_produces_scoreboard(self):
        result = self.build().run(until=120_000, seed=3)
        board = result.scoreboard.to_dict()
        assert set(board) == {"bronze", "gold"}
        gold = board["gold"]
        assert gold["submitted"] > 0
        assert gold["admitted"] + gold["rejected"] + gold["skipped"] \
            == gold["submitted"]
        assert set(gold["tiers"]) == {"edge", "svc"}
        assert result.accrued_value() >= gold["value"]

    def test_run_builds_once_then_runs_the_built_system(self):
        # benchmarks/e2e/workloads.py wraps an instance's build() and
        # the built system's run() to time setup and run apart, so
        # Scenario.run must call exactly these, once each, in order.
        builder = self.build()
        calls, built = [], []
        build = builder.build

        def tracked_build():
            calls.append("build")
            system = build()
            run = system.run

            def tracked_run(*args, **kwargs):
                calls.append(("run", args, kwargs))
                return run(*args, **kwargs)

            system.run = tracked_run
            built.append(system)
            return system

        builder.build = tracked_build
        result = builder.run(until=60_000, seed=3)
        assert calls == ["build", ("run", (), {"until": 60_000})]
        assert result.system is built[0]

    def test_admission_controllers_respect_tenant_mk(self):
        result = self.build().run(until=60_000, seed=3)
        controllers = result.controllers
        assert controllers, "no admission controllers attached"
        overrides = {}
        for controller in controllers:
            overrides.update(controller.mk_overrides)
        assert overrides == {"gold": (9, 10), "bronze": (1, 4)}
        # No default mk declared -> mk_firm falls back to the strictest
        # window for undeclared tenants.
        assert all(c.mk == (1, 1) for c in controllers)

    def test_metrics_published(self):
        result = (self.build().options(metrics=True)
                  .run(until=60_000, seed=3))
        report = result.system.metrics.snapshot()
        assert report.gauges["scenario.gold.submitted"]["value"] \
            == result.tenant("gold")["submitted"]
        assert "scenario.bronze.p99" in report.gauges

    def test_requests_never_cross_cells(self):
        builder = self.build()
        for index, spec in enumerate(builder._tenants):
            task = builder._tenant_task(spec, index)
            cells = {task.node_of(eu).split(".")[0] for eu in task.eus}
            assert len(cells) == 1

    def test_tier_budgets_become_cumulative_deadlines(self):
        builder = (Scenario()
                   .tier("edge", wcet=100, budget=1_000)
                   .tier("svc", wcet=100, budget=2_000)
                   .tenant("t", rate=10, deadline=10_000))
        task = builder._tenant_task(builder._tenants[0], 0)
        deadlines = {eu.name: eu.attrs.deadline for eu in task.eus
                     if eu.attrs is not None}
        assert deadlines["edge:0"] == 1_000
        assert deadlines["svc:0"] == 3_000
        assert deadlines["reply:0"] == 10_000

    def test_inflated_wcet_counts_remote_edges(self):
        builder = self.build().options(network_latency=75)
        spec = builder._tenants[0]
        task = builder._tenant_task(spec, 0)
        remote = sum(1 for e in task.edges if task.is_remote(e))
        assert remote > 0
        assert builder._inflated_wcet(task) \
            == task.total_wcet() + remote * 75
