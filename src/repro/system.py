"""Convenience facade wiring a complete HADES system.

A :class:`HadesSystem` owns one simulator, one shared tracer, a set of
nodes, the network connecting them, the generic dispatcher and the
execution monitor — the whole gray layer of the paper's Figure 1 plus
the simulated COTS substrate underneath it.  Most examples and
benchmarks start with::

    system = HadesSystem(node_ids=["n0", "n1"])
    system.attach_scheduler(EDFScheduler(scope="n0"))
    ...
    system.run(until=1_000_000)
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.core.costs import DispatcherCosts, KernelActivity
from repro.core.dispatcher import Dispatcher
from repro.core.monitoring import ExecutionMonitor
from repro.core.tnetwork import install_tnetwork
from repro.kernel.clocks import HardwareClock
from repro.kernel.node import Node
from repro.network.network import Network
from repro.obs.metrics import RunReport, resolve_metrics
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


class HadesSystem:
    """One simulated deployment of the middleware."""

    def __init__(self, node_ids: Iterable[str] = ("n0",),
                 costs: Optional[DispatcherCosts] = None,
                 network_latency: int = 50,
                 network_jitter: int = 0,
                 seed: int = 0,
                 context_switch_cost: int = 0,
                 clock_drifts: Optional[Dict[str, float]] = None,
                 with_tnetwork: bool = False,
                 background_activities: bool = False,
                 on_deadline_miss: str = "record",
                 abort_mode: str = "kill",
                 node_kwargs: Optional[Dict[str, Any]] = None,
                 metrics: Any = None,
                 trace_maxlen: Optional[int] = None,
                 trace_categories: Optional[Iterable[str]] = None,
                 engines: Optional[Dict[str, Dict[str, int]]] = None):
        # ``metrics`` accepts a MetricsRegistry, True (create one), or
        # None/False (disabled — the near-zero-cost default); see
        # :func:`repro.obs.resolve_metrics` for the full contract.
        self.metrics = resolve_metrics(metrics)
        self.sim = Simulator(metrics=self.metrics)
        self.tracer = Tracer(self.sim, maxlen=trace_maxlen,
                             categories=trace_categories)
        self.monitor = ExecutionMonitor()
        node_ids = list(node_ids)
        self.network = Network(self.sim, self.tracer,
                               base_latency=network_latency,
                               jitter_bound=network_jitter, seed=seed,
                               metrics=self.metrics)
        self.nodes: Dict[str, Node] = {}
        drifts = clock_drifts or {}
        extra = node_kwargs or {}
        # ``engines`` declares heterogeneous accelerator pools per node:
        # {"n0": {"gpu": 2}} (repro.hetero).
        engine_specs = engines or {}
        unknown_engine_nodes = set(engine_specs) - set(node_ids)
        if unknown_engine_nodes:
            raise ValueError(
                f"engines= names unknown node(s) "
                f"{sorted(unknown_engine_nodes)}; node_ids are "
                f"{sorted(node_ids)}")
        for node_id in node_ids:
            clock = HardwareClock(self.sim, drift=drifts.get(node_id, 0.0))
            node = Node(self.sim, node_id, tracer=self.tracer, clock=clock,
                        context_switch_cost=context_switch_cost,
                        metrics=self.metrics,
                        engines=engine_specs.get(node_id), **extra)
            self.nodes[node_id] = node
            self.network.add_node(node)
            if background_activities:
                node.start_background_activities()
        self.network.connect_all()
        self.dispatcher = Dispatcher(self.sim, network=self.network,
                                     costs=costs, tracer=self.tracer,
                                     monitor=self.monitor,
                                     on_deadline_miss=on_deadline_miss,
                                     abort_mode=abort_mode,
                                     metrics=self.metrics)
        for node in self.nodes.values():
            self.dispatcher.register_node(node)
        if with_tnetwork:
            for node_id, node in self.nodes.items():
                install_tnetwork(node, self.network.interfaces[node_id])

    # -- delegation helpers ------------------------------------------------

    def attach_scheduler(self, scheduler) -> Any:
        """Plug a scheduling policy into the dispatcher; returns it."""
        self.dispatcher.attach_scheduler(scheduler)
        return scheduler

    def node(self, node_id: str) -> Node:
        """The :class:`~repro.kernel.node.Node` with the given id."""
        return self.nodes[node_id]

    def activate(self, task, **kwargs):
        """Issue an activation request for ``task`` (dispatcher shortcut)."""
        return self.dispatcher.activate(task, **kwargs)

    def register_periodic(self, task, **kwargs) -> Any:
        """Drive ``task`` from its periodic arrival law (shortcut);
        returns the :class:`~repro.core.dispatcher.PeriodicDriver`."""
        return self.dispatcher.register_periodic(task, **kwargs)

    def run(self, until: Optional[int] = None) -> None:
        """Advance simulated time (to ``until``, or until idle)."""
        self.sim.run(until=until)

    def run_report(self, **meta: Any) -> RunReport:
        """Snapshot this deployment's metrics as a structured report.

        Includes ``sim_time`` and ``trace_records`` in the report meta.
        With metrics disabled (the default) the report is empty except
        for the meta — campaigns can aggregate it either way.
        """
        meta.setdefault("sim_time", self.sim.now)
        meta.setdefault("trace_records", len(self.tracer))
        return self.metrics.snapshot(**meta)

    # -- §4.2 characterisation of the deployed substrate ---------------------

    def kernel_activities(self) -> List[KernelActivity]:
        """The background kernel activities of this deployment, in the
        form the feasibility tests consume."""
        activities: List[KernelActivity] = []
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            activities.append(KernelActivity(
                f"{node_id}:clock", node.clock_tick.wcet,
                node.clock_tick.period))
            activities.append(KernelActivity(
                f"{node_id}:net", node.net_irq.wcet,
                node.net_irq.pseudo_period))
        return activities

    def node_kernel_activities(self, node_id: str) -> List[KernelActivity]:
        """One node's §4.2 background activities, for per-CPU tests."""
        node = self.nodes[node_id]
        return [
            KernelActivity("clock", node.clock_tick.wcet,
                           node.clock_tick.period),
            KernelActivity("net", node.net_irq.wcet,
                           node.net_irq.pseudo_period),
        ]
