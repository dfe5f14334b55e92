"""The stable public facade, the metrics= contract, trace filtering,
and what is left of the event-core backend selection: one engine."""

import importlib.metadata
import io
import json
import pathlib

import pytest

import repro
from repro.obs.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetricsRegistry,
    resolve_metrics,
)
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecord, Tracer, layout
from repro.system import HadesSystem
from tests.conftest import BACKENDS, on_engine


class TestFacade:
    def test_all_names_resolve(self):
        missing = [name for name in repro.__all__
                   if not hasattr(repro, name)]
        assert missing == []

    def test_core_surface_is_exported(self):
        for name in ("HadesSystem", "Task", "CodeEU", "InvEU",
                     "EUAttributes", "Periodic", "DispatcherCosts",
                     "EDFScheduler", "RMScheduler", "Campaign",
                     "MetricsRegistry", "resolve_metrics", "Tracer"):
            assert name in repro.__all__, name

    def test_facade_classes_are_canonical(self):
        # The facade re-exports, it does not wrap: identity must hold
        # so isinstance checks work across import paths.
        from repro.core.heug import Task as deep_task
        from repro.faults import Campaign as deep_campaign
        assert repro.Task is deep_task
        assert repro.Campaign is deep_campaign

    def test_hetero_surface_is_exported(self):
        for name in ("EngineClass", "HeterogeneousPool", "Assignment",
                     "map_task", "apply_assignment", "auto_map",
                     "cpu_only", "enumerate_assignments"):
            assert name in repro.__all__, name

    def test_hetero_facade_names_are_canonical(self):
        from repro.hetero.engines import EngineClass as deep_class
        from repro.hetero.engines import HeterogeneousPool as deep_pool
        from repro.hetero.mapping import auto_map as deep_auto
        assert repro.EngineClass is deep_class
        assert repro.HeterogeneousPool is deep_pool
        assert repro.auto_map is deep_auto

    def test_minimal_deployment_through_facade_only(self):
        system = repro.HadesSystem(node_ids=["n0"],
                                   costs=repro.DispatcherCosts.zero())
        task = repro.Task("t", deadline=1_000, node_id="n0")
        task.code_eu("a", wcet=10)
        inst = system.activate(task.validate())
        system.run()
        assert inst.response_time == 10

    def test_package_metadata_agrees_with_version(self):
        # pyproject.toml reads the version from repro.__version__, so
        # whatever metadata an install generates carries the same one.
        root = pathlib.Path(__file__).resolve().parent.parent
        pyproject = (root / "pyproject.toml").read_text()
        assert 'dynamic = ["version"]' in pyproject
        assert 'version = { attr = "repro.__version__" }' in pyproject
        try:
            installed = importlib.metadata.version("repro")
        except importlib.metadata.PackageNotFoundError:
            return
        assert installed == repro.__version__


class TestBackendSelection:
    """Since 5.0.0 there is no event-core backend to select: every
    system runs on the heap engine, ``backend=`` and the facade's
    backend helpers are gone, and ``REPRO_SIM_BACKEND`` is not read."""

    def test_default_is_heapq(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "calendar")
        system = HadesSystem(node_ids=["n0"])
        assert type(system.sim) is Simulator
        assert not hasattr(system, "backend")

    def test_backends_behave_identically_through_facade(self):
        # The heap engine and its test-local reference, driven through
        # the facade alone.
        responses = {}
        for backend in BACKENDS:
            with on_engine(backend):
                system = repro.HadesSystem(
                    node_ids=["n0"], costs=repro.DispatcherCosts.zero())
            task = repro.Task("t", deadline=1_000, node_id="n0")
            task.code_eu("a", wcet=10)
            inst = system.activate(task.validate())
            system.run()
            responses[backend] = inst.response_time
        assert set(responses.values()) == {10}

    def test_version_bumped_for_backend_surface(self):
        # 5.0.0: the backend selection (backend=, REPRO_SIM_BACKEND,
        # available_backends, resolve_backend) and the generator
        # processes left; 67 names remain.  6.0.0 changed the
        # TraceRecord constructor and 7.0.0 removed Tracer(index=); both
        # kept the names.
        assert repro.__version__ == "7.0.0"
        assert len(repro.__all__) == 67
        with pytest.raises(TypeError):
            repro.Tracer(index=False)
        for name in ("available_backends", "resolve_backend",
                     "RunOptions", "scenario"):
            assert not hasattr(repro, name), name
        with pytest.raises(TypeError):
            HadesSystem(node_ids=["n0"], backend="heapq")
        with pytest.raises(TypeError):
            Simulator(backend="heapq")
        assert not hasattr(Simulator(), "process")


class TestResolveMetrics:
    def test_none_and_false_resolve_to_shared_null(self):
        assert resolve_metrics(None) is NULL_METRICS
        assert resolve_metrics(False) is NULL_METRICS

    def test_true_creates_fresh_registry(self):
        first = resolve_metrics(True)
        second = resolve_metrics(True)
        assert isinstance(first, MetricsRegistry)
        assert first is not second

    def test_registries_pass_through(self):
        registry = MetricsRegistry()
        assert resolve_metrics(registry) is registry
        null = NullMetricsRegistry()
        assert resolve_metrics(null) is null

    def test_duck_typed_object_is_rejected(self):
        class Homemade:
            enabled = True

            def counter(self, name):
                raise NotImplementedError

        with pytest.raises(TypeError, match="MetricsRegistry"):
            resolve_metrics(Homemade())

    def test_every_subsystem_accepts_bool_metrics(self):
        system = HadesSystem(node_ids=["n0"], metrics=True)
        assert isinstance(system.metrics, MetricsRegistry)
        assert system.sim.metrics is system.metrics
        assert system.nodes["n0"].cpu.metrics is system.metrics
        assert system.network.metrics is system.metrics
        assert system.dispatcher.metrics is system.metrics

        disabled = HadesSystem(node_ids=["n0"], metrics=False)
        assert disabled.metrics is NULL_METRICS
        assert disabled.sim.metrics is NULL_METRICS


class TestTraceFiltering:
    def test_filtered_category_returns_none_and_counts(self):
        tracer = Tracer(clock=lambda: 0, categories={"keep"})
        kept = tracer.record("keep", "ev", x=1)
        dropped = tracer.record("drop", "ev", x=2)
        assert kept is not None and dropped is None
        assert len(tracer) == 1
        assert tracer.filtered == 1
        assert tracer.records[0].category == "keep"

    def test_filtered_records_skip_listeners_and_index(self):
        tracer = Tracer(clock=lambda: 0, categories={"keep"})
        seen = []
        tracer.subscribe(seen.append)
        tracer.record("drop", "ev")
        tracer.record("keep", "ev")
        assert [entry.category for entry in seen] == ["keep"]
        assert tracer.count("drop") == 0
        assert tracer.count("keep") == 1

    def test_set_categories_chains_and_reopens(self):
        tracer = Tracer(clock=lambda: 0).set_categories({"a"})
        assert tracer.categories == frozenset({"a"})
        tracer.record("b", "ev")
        assert len(tracer) == 0
        tracer.set_categories(None)
        tracer.record("b", "ev")
        assert len(tracer) == 1

    def test_system_trace_categories_passthrough(self):
        system = HadesSystem(node_ids=["n0"],
                             trace_categories={"dispatcher"})
        task = repro.Task("t", deadline=1_000, node_id="n0")
        task.code_eu("a", wcet=10)
        system.activate(task)
        system.run()
        categories = {entry.category for entry in system.tracer}
        assert categories == {"dispatcher"}
        assert system.tracer.filtered > 0

    def test_filtered_export_matches_select_of_unfiltered(self, tmp_path):
        # Same scenario traced fully and with a filter: the filtered
        # JSONL must be byte-identical to the full trace restricted to
        # the allowed category.
        def run(categories):
            system = HadesSystem(node_ids=["n0"],
                                 trace_categories=categories)
            task = repro.Task("t", deadline=1_000, node_id="n0")
            task.code_eu("a", wcet=10)
            system.activate(task)
            system.run()
            return system

        full = run(None)
        filtered = run({"cpu"})
        full_path = tmp_path / "full.jsonl"
        filtered_path = tmp_path / "filtered.jsonl"
        full.tracer.to_jsonl(full_path)
        filtered.tracer.to_jsonl(filtered_path)
        full_cpu_lines = [line for line in
                          full_path.read_text().splitlines()
                          if json.loads(line)["category"] == "cpu"]
        assert filtered_path.read_text().splitlines() == full_cpu_lines


class TestTraceRecordCompat:
    """Since 6.0.0 a record is built as ``TraceRecord(time, layout,
    *fields)``, or through ``Tracer.record`` and ``read_jsonl``; its
    equality, repr and str keep the old dataclass shape."""

    def test_equality_and_repr_match_old_dataclass_shape(self):
        tracer = Tracer(clock=lambda: 5)
        one = tracer.record("cpu", "complete", node="n0", thread="x")
        two = TraceRecord(5, layout("cpu", "complete", "node", "thread"),
                          "n0", "x")
        other = tracer.record("cpu", "complete", time=6, node="n0",
                              thread="x")
        assert one == two
        assert one != other
        assert repr(one) == ("TraceRecord(time=5, category='cpu', "
                             "event='complete', details={'node': 'n0', "
                             "'thread': 'x'})")
        assert str(one) == "[         5] cpu/complete node=n0 thread=x"

    def test_slots_and_default_details(self):
        entry = Tracer(clock=lambda: 1).record("c", "e")
        assert entry.details == {}
        assert not hasattr(entry, "__dict__")
