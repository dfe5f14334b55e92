"""repro.hetero: heterogeneous engines, multi-version EUs, mapping,
the non-preemptive dispatch path, and engine-tagged observability."""

import json

import pytest

from repro import (
    DispatcherCosts,
    EUAttributes,
    HadesSystem,
    Scenario,
    Task,
    apply_assignment,
    auto_map,
    build_timeline,
    cpu_only,
    enumerate_assignments,
    forensics_report,
    map_task,
)
from repro.core.heug import CodeEU
from repro.hetero.engines import (
    CPU_CLASS,
    EngineClass,
    HeterogeneousPool,
    engine_labels,
)
from repro.obs.spans import decompose, reconstruct


def _system(engines=None, **kwargs):
    spec = {"n0": engines} if engines else None
    return HadesSystem(node_ids=["n0"], costs=DispatcherCosts.zero(),
                       engines=spec, **kwargs)


class TestEngineClassAndPool:
    def test_cpu_class_constant(self):
        assert CPU_CLASS == "cpu"
        assert EngineClass("cpu", preemptive=True).preemptive
        assert not EngineClass("gpu").preemptive

    def test_engine_class_rejects_bad_name(self):
        with pytest.raises(ValueError):
            EngineClass("")
        with pytest.raises(ValueError):
            EngineClass(None)

    def test_pool_builds_labeled_nonpreemptive_units(self):
        system = _system(engines={"gpu": 2, "dsp": 1})
        pool = system.nodes["n0"].engines
        assert pool.classes() == ["dsp", "gpu"]
        assert pool.spec() == {"gpu": 2, "dsp": 1}
        assert pool.count("gpu") == 2 and pool.count("dsp") == 1
        assert pool.has("gpu") and not pool.has("npu")
        labels = [unit.engine_label for unit in pool.units()]
        assert labels == ["dsp0", "gpu0", "gpu1"]
        assert all(not unit.preemptive for unit in pool.units())
        assert all(unit.engine_class != "cpu" for unit in pool.units())
        # The node's own CPU stays preemptive and unlabeled.
        assert system.nodes["n0"].cpu.preemptive
        assert system.nodes["n0"].cpu.engine_label is None

    def test_node_without_engines_has_no_pool(self):
        assert _system().nodes["n0"].engines is None

    @pytest.mark.parametrize("bad", [
        {}, {"cpu": 1}, {"gpu": 0}, {"gpu": -2}, {"gpu": True},
        {"gpu": 1.5}, {"": 1}, {3: 1}, "gpu",
    ])
    def test_pool_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            HadesSystem(node_ids=["n0"], engines={"n0": bad})

    def test_acquire_balances_by_outstanding_claims(self):
        pool = _system(engines={"gpu": 2}).nodes["n0"].engines
        first = pool.acquire("gpu")
        second = pool.acquire("gpu")
        assert [first.engine_label, second.engine_label] == ["gpu0", "gpu1"]
        pool.release(first)
        assert pool.acquire("gpu").engine_label == "gpu0"

    def test_unit_for_unknown_class_names_node(self):
        pool = _system(engines={"gpu": 1}).nodes["n0"].engines
        with pytest.raises(RuntimeError) as excinfo:
            pool.unit_for("dsp")
        assert "'n0'" in str(excinfo.value)
        assert "dsp" in str(excinfo.value)

    def test_engine_labels_helper(self):
        assert engine_labels({"gpu": 2, "dsp": 1}) == \
            ["dsp0", "gpu0", "gpu1"]

    def test_system_rejects_engines_for_unknown_nodes(self):
        with pytest.raises(ValueError) as excinfo:
            HadesSystem(node_ids=["n0"], engines={"n9": {"gpu": 1}})
        message = str(excinfo.value)
        assert "n9" in message and "n0" in message


class TestMultiVersionEU:
    def test_single_wcet_constructor_unchanged(self):
        eu = CodeEU("a", wcet=100)
        assert eu.engine == "cpu"
        assert eu.variants == {}
        assert eu.engine_candidates() == ["cpu"]
        assert eu.wcet_on("cpu") == 100
        assert eu.wcet_on("gpu") == 100  # no variant: cpu bound applies

    def test_variants_surface(self):
        eu = CodeEU("a", wcet=900, variants={"gpu": 120, "dsp": 300})
        assert eu.engine_candidates() == ["cpu", "dsp", "gpu"]
        assert eu.wcet_on("cpu") == 900
        assert eu.wcet_on("gpu") == 120
        assert eu.wcet_on("dsp") == 300

    def test_cpu_variant_must_match_wcet(self):
        assert CodeEU("a", wcet=900, variants={"cpu": 900}).wcet == 900
        with pytest.raises(ValueError):
            CodeEU("a", wcet=900, variants={"cpu": 800})

    @pytest.mark.parametrize("bad", [
        {}, {"gpu": -1}, {"gpu": True}, {"gpu": 1.5}, {"": 10}, {3: 10},
    ])
    def test_bad_variants_rejected(self, bad):
        with pytest.raises(ValueError):
            CodeEU("a", wcet=100, variants=bad)

    def test_wcet_error_names_task_and_eu(self):
        task = Task("ctl", deadline=1_000, node_id="n0")
        with pytest.raises(ValueError) as excinfo:
            task.code_eu("sense", wcet=-5)
        message = str(excinfo.value)
        assert "'ctl'" in message and "'sense'" in message

    def test_variant_error_names_task_and_eu(self):
        task = Task("ctl", deadline=1_000, node_id="n0")
        with pytest.raises(ValueError) as excinfo:
            task.code_eu("sense", wcet=100, variants={"gpu": -1})
        message = str(excinfo.value)
        assert "'ctl'" in message and "'sense'" in message

    def test_resolve_actual_per_engine(self):
        eu = CodeEU("a", wcet=900, variants={"gpu": 120},
                    actual_variants={"gpu": 100})
        assert eu.resolve_actual({}) == 900  # cpu: no actual_time -> bound
        assert eu.resolve_actual({}, engine="gpu") == 100

    def test_resolve_actual_defaults_to_variant_bound(self):
        eu = CodeEU("a", wcet=900, variants={"gpu": 120})
        assert eu.resolve_actual({}, engine="gpu") == 120

    def test_resolve_actual_enforces_variant_bound(self):
        eu = CodeEU("a", wcet=900, variants={"gpu": 120},
                    actual_variants={"gpu": 500})
        with pytest.raises(ValueError) as excinfo:
            eu.resolve_actual({}, engine="gpu")
        assert "gpu" in str(excinfo.value)

    def test_actual_variant_requires_matching_variant(self):
        with pytest.raises(ValueError):
            CodeEU("a", wcet=900, actual_variants={"gpu": 100})

    def test_engine_must_be_declared_class_string(self):
        with pytest.raises(ValueError):
            CodeEU("a", wcet=100, engine="")
        assert CodeEU("a", wcet=100, engine="gpu").engine == "gpu"

    def test_total_wcet_uses_selected_engine(self):
        task = Task("t", deadline=100_000, node_id="n0")
        task.code_eu("a", wcet=8_000, variants={"gpu": 900}, engine="gpu")
        task.code_eu("b", wcet=200)
        assert task.validate().total_wcet() == 1_100


class TestNonPreemptiveDispatch:
    def _two_tasks(self, engine):
        """Low-prio long block vs a high-prio challenger arriving late.

        Task A grabs the processor at t=0 for 1000us.  Task B runs a
        200us CPU prep stage, then contends for the same processor at
        t=200 with strictly higher priority.
        """
        variants = {"gpu": 1_000} if engine == "gpu" else None
        a = Task("low", deadline=10_000, node_id="n0")
        a.code_eu("block", wcet=1_000, variants=variants, engine=engine,
                  attrs=EUAttributes(prio=10))
        b = Task("high", deadline=10_000, node_id="n0")
        prep = b.code_eu("prep", wcet=200, attrs=EUAttributes(prio=40))
        work = b.code_eu("work", wcet=300,
                         variants={"gpu": 300} if engine == "gpu" else None,
                         engine=engine, attrs=EUAttributes(prio=40))
        b.precede(prep, work)
        return a.validate(), b.validate()

    def test_gpu_block_runs_to_completion(self):
        system = _system(engines={"gpu": 1})
        low, high = self._two_tasks("gpu")
        inst_low = system.activate(low)
        inst_high = system.activate(high)
        system.run()
        # The high-prio challenger waited for the full block: 1000
        # (A's kernel) + 300 (B's own gpu work).
        assert inst_low.response_time == 1_000
        assert inst_high.response_time == 1_300
        records = system.tracer.records
        preempts = [r for r in records
                    if r.category == "cpu" and r.event == "preempt"
                    and "engine" in r.details]
        assert preempts == []
        dispatches = [r for r in records
                      if r.category == "cpu" and r.event == "dispatch"
                      and r.details.get("engine") == "gpu0"]
        assert [r.time for r in dispatches] == [0, 1_000]

    def test_cpu_control_still_preempts(self):
        system = _system()
        low, high = self._two_tasks("cpu")
        inst_low = system.activate(low)
        inst_high = system.activate(high)
        system.run()
        # Preemptive CPU: prep and work (prio 40) both run before the
        # prio-10 block gets the processor back, so the block finishes
        # at 1500 instead of blocking the challenger.
        assert inst_high.response_time == 500
        assert inst_low.response_time == 1_500
        preempts = [r for r in system.tracer.records
                    if r.category == "cpu" and r.event == "preempt"]
        assert preempts, "preemptive control must preempt"
        assert all("engine" not in r.details for r in preempts)

    def test_missing_engine_units_raise_actionable_error(self):
        system = _system()  # no engines declared
        task = Task("t", deadline=10_000, node_id="n0")
        task.code_eu("a", wcet=100, variants={"gpu": 50}, engine="gpu")
        with pytest.raises(RuntimeError) as excinfo:
            system.activate(task.validate())
            system.run()
        message = str(excinfo.value)
        assert "gpu" in message and "n0" in message
        assert "HadesSystem(engines=" in message


def _fan_out_task(n=4, wcet=8_000, gpu=900):
    task = Task("serve", deadline=200_000, node_id="n0")
    ingress = task.code_eu("ingress", wcet=200)
    reply = task.code_eu("reply", wcet=200)
    for i in range(n):
        infer = task.code_eu(f"infer{i}", wcet=wcet,
                             variants={"gpu": gpu})
        task.precede(ingress, infer)
        task.precede(infer, reply)
    return task.validate()


class TestMapping:
    PLATFORM = {"n0": {"gpu": 2}}

    def test_map_task_offloads_variant_units(self):
        task = _fan_out_task()
        assignment = map_task(task, self.PLATFORM)
        assert assignment.task_name == "serve"
        assert sorted(assignment.offloaded()) == \
            ["infer0", "infer1", "infer2", "infer3"]
        assert assignment.engine_of("ingress") == "cpu"
        assert assignment.engine_of("infer0") == "gpu"

    def test_map_task_is_deterministic(self):
        first = map_task(_fan_out_task(), self.PLATFORM)
        second = map_task(_fan_out_task(), self.PLATFORM)
        assert first.mapping == second.mapping

    def test_map_task_balances_load_against_unit_count(self):
        # One gpu unit, gpu barely faster than cpu: the load-balance
        # estimate must keep some units on the cpu instead of queueing
        # everything behind the single accelerator.
        task = _fan_out_task(n=4, wcet=1_000, gpu=900)
        assignment = map_task(task, {"n0": {"gpu": 1}})
        engines = {assignment.engine_of(f"infer{i}") for i in range(4)}
        assert engines == {"cpu", "gpu"}

    def test_map_task_ignores_classes_absent_from_node(self):
        task = _fan_out_task()
        assignment = map_task(task, {"n0": {"dsp": 1}})
        assert assignment.offloaded() == []

    def test_apply_assignment_sets_engines_and_invalidates(self):
        task = _fan_out_task()
        assignment = map_task(task, self.PLATFORM)
        apply_assignment(task, assignment)
        by_name = {eu.name: eu for eu in task.code_eus()}
        assert by_name["infer0"].engine == "gpu"
        assert by_name["ingress"].engine == "cpu"
        apply_assignment(task, cpu_only(task))
        assert all(eu.engine == "cpu" for eu in task.code_eus())

    def test_apply_assignment_rejects_unknown_eu(self):
        task = _fan_out_task()
        from repro.hetero.mapping import Assignment
        with pytest.raises(ValueError):
            apply_assignment(task, Assignment("serve", {"nope": "gpu"}))

    def test_auto_map_returns_applied_assignment(self):
        task = _fan_out_task()
        assignment = auto_map(task, self.PLATFORM)
        assert {eu.name: eu.engine for eu in task.code_eus()} == {
            name: assignment.engine_of(name)
            for name in (eu.name for eu in task.code_eus())}

    def test_enumerate_assignments_covers_variant_space(self):
        task = _fan_out_task(n=2)
        combos = list(enumerate_assignments(task, self.PLATFORM))
        # Only the two infer units have a gpu variant: 2^2 combos.
        assert len(combos) == 4
        assert len({tuple(sorted(a.mapping.items()))
                    for a in combos}) == 4

    def test_mapped_run_beats_cpu_only(self):
        def response(platform):
            system = _system(engines={"gpu": 2})
            task = _fan_out_task()
            if platform:
                auto_map(task, platform)
            inst = system.activate(task)
            system.run()
            return inst.response_time

        cpu = response(None)
        mapped = response(self.PLATFORM)
        assert cpu == 200 + 4 * 8_000 + 200
        assert mapped == 200 + 2 * 900 + 200
        assert cpu / mapped >= 2


class TestEngineObservability:
    def _run_hetero(self, deadline=200_000):
        system = _system(engines={"gpu": 1})
        task = Task("serve", deadline=deadline, node_id="n0")
        a = task.code_eu("ingress", wcet=200)
        b = task.code_eu("infer", wcet=8_000, variants={"gpu": 900},
                         engine="gpu")
        c = task.code_eu("reply", wcet=200)
        task.precede(a, b)
        task.precede(b, c)
        system.activate(task.validate())
        system.run()
        return system

    def test_trace_records_carry_engine_tags(self):
        tracer = self._run_hetero().tracer
        starts = [r for r in tracer.records
                  if r.category == "dispatcher"
                  and r.event == "thread_start"]
        by_eu = {r.details["eu"].split("/")[-1]: r.details
                 for r in starts}
        assert by_eu["infer"].get("engine") == "gpu"
        assert "engine" not in by_eu["ingress"]
        assert "engine" not in by_eu["reply"]
        gpu_cpu_records = [r for r in tracer.records
                           if r.category == "cpu"
                           and r.details.get("engine") == "gpu0"]
        assert {r.event for r in gpu_cpu_records} >= \
            {"dispatch", "complete"}

    def test_decompose_attributes_time_per_engine_class(self):
        forest = reconstruct(self._run_hetero().tracer)
        activation = next(iter(forest.activations.values()))
        breakdown = decompose(activation)
        assert breakdown.executing_by_engine == {"cpu": 400, "gpu": 900}
        assert sum(breakdown.executing_by_engine.values()) == \
            breakdown.executing

    def test_cpu_only_runs_have_no_engine_keys(self):
        system = _system()
        task = Task("t", deadline=10_000, node_id="n0")
        task.code_eu("a", wcet=100)
        system.activate(task.validate())
        system.run()
        assert all("engine" not in r.details
                   for r in system.tracer.records)
        forest = reconstruct(system.tracer)
        breakdown = decompose(next(iter(forest.activations.values())))
        assert breakdown.executing_by_engine == {"cpu": 100}

    def test_forensics_report_names_engine(self):
        system = self._run_hetero(deadline=1_000)  # forces a miss
        report = forensics_report(system.tracer)
        assert "[gpu]" in report
        assert "/infer" in report

    def test_timeline_renders_engine_units_as_threads(self):
        doc = build_timeline(reconstruct(self._run_hetero().tracer))
        events = doc["traceEvents"]
        names = [e for e in events if e["ph"] == "M"
                 and e["name"] == "thread_name"]
        by_tid = {e["tid"]: e["args"]["name"] for e in names}
        assert by_tid == {0: "cpu", 1: "gpu0"}
        slices = [e for e in events if e["ph"] == "X"]
        gpu_slices = [e for e in slices if e["tid"] == 1]
        assert gpu_slices and all("infer" in e["name"]
                                  for e in gpu_slices)
        assert any(e["tid"] == 0 for e in slices)
        # Round-trips through JSON untouched.
        assert json.loads(json.dumps(doc)) == doc


def _hetero_scenario():
    return (Scenario()
            .tier("edge", replicas=1, wcet=200)
            .tier("infer", fan_out=2, wcet=8_000,
                  engines={"gpu": 2}, variants={"gpu": 900})
            .cells(2)
            .tenant("gold", rate=20, deadline=50_000)
            .policy("edf", w_sched=0)
            .load(0.5)
            .options(network_latency=50, network_jitter=0,
                     node_kwargs={"net_irq_wcet": 0})
            .seed(3))


class TestScenarioEngines:
    def test_tier_engines_axis_builds_pools_and_offloads(self):
        result = _hetero_scenario().run(until=200_000)
        pool = result.system.nodes["c0.infer0"].engines
        assert pool is not None and pool.spec() == {"gpu": 2}
        assert result.system.nodes["c0.edge0"].engines is None
        gold = result.tenant("gold")
        assert gold["completed"] > 0
        # Offloaded: edge 200 + gpu 900 in parallel x2 + network, far
        # below the 8000us cpu version of a single infer stage.
        assert gold["p99"] < 8_000

    def test_engines_override_wins_over_tier_spec(self):
        builder = _hetero_scenario().engines({"c0.infer0": {"gpu": 4}})
        result = builder.run(until=100_000)
        assert result.system.nodes["c0.infer0"].engines.spec() == \
            {"gpu": 4}

    def test_tier_rejects_bad_engine_and_variant_specs(self):
        with pytest.raises(ValueError):
            Scenario().tier("t", wcet=100, engines={"cpu": 1})
        with pytest.raises(ValueError):
            Scenario().tier("t", wcet=100, engines={"gpu": 0})
        with pytest.raises(ValueError):
            Scenario().tier("t", wcet=100, variants={})
        with pytest.raises(ValueError):
            Scenario().tier("t", wcet=100, variants={"gpu": -1})
        with pytest.raises(ValueError):
            Scenario().engines({"n0": {}})
        with pytest.raises(ValueError):
            Scenario().options(engines={"n0": {"gpu": 1}})
