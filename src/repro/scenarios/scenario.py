"""The fluent ``Scenario`` facade — one declarative construction path.

Before this module, standing up a workload meant touching four layers
by hand: ``HadesSystem`` for the deployment, raw arrival-law
generators for traffic, per-node scheduler construction, and ad-hoc
``AdmissionController`` wiring.  ``Scenario`` folds them into one
chainable builder::

    result = (Scenario()
              .tier("edge", replicas=2, wcet=300)
              .tier("svc", fan_out=3, wcet=800,
                    service=LogNormalService(median=250, sigma=0.7))
              .tier("store", fan_out=2, wcet=600)
              .cells(4)
              .tenant("gold", rate=120, mk=(9, 10), value=5,
                      deadline=40_000)
              .tenant("bronze", rate=400, mk=(1, 4), deadline=60_000)
              .admission("mk_firm")
              .load(multiplier=3.0)
              .run(until=1_000_000, seed=7))

    print(result.scoreboard.to_dict()["gold"]["p99"])

The same facade also expresses classic paper-shaped workloads (see
``examples/quickstart.py``) through :meth:`Scenario.task` (a hand-built
HEUG, driven from its periodic law with ``task(t, periodic=count)``),
so one API covers both regimes.

Everything composes with the existing execution machinery unchanged:
the scenario builds a plain :class:`~repro.system.HadesSystem`, and
:meth:`Scenario.options` passes its other constructor options through.

**Service request model.**  A request is one activation of a
per-tenant HEUG: one ingress EU on the tenant's edge node, then for
each subsequent tier ``fan_out`` parallel EUs per upstream EU (a tree
fan-out — tier *i* has ``prod(fan_out)`` units), and a final ``reply``
EU back on the ingress node that fans in every leaf — the classic
edge → service → storage diamond.  EUs are named ``{tier}:{j}`` so the
scoreboard can date each tier's fan-in from ``eu_done`` records, and
per-tier latency budgets become cumulative EU-deadline attributes
(Kermia-style multiple latency constraints rather than one end-to-end
deadline).

**Admission.**  With :meth:`admission` declared, every request is
*submitted* to a per-ingress-node :class:`~repro.admission.controller.
AdmissionController` instead of being released directly.  The
submission WCET is suspension-obliviously inflated — total WCET plus a
network bound per remote precedence edge — so the single-CPU pooled
guarantee test stays conservative for a DAG that spans the cell.
Tenant ``(m, k)`` declarations become per-task ``mk_overrides`` on the
shared controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, \
    Union

from repro.admission.controller import AdmissionController
from repro.admission.guarantee import GuaranteeTest, ResponseTimeTest
from repro.core.attributes import Aperiodic, EUAttributes
from repro.core.costs import DispatcherCosts
from repro.core.heug import Task
from repro.core.monitoring import ViolationKind
from repro.scenarios.scoreboard import SCOREBOARD_KEYS, Scoreboard, TenantSLO
from repro.scenarios.traffic import ServiceTimeModel, derive_seed
from repro.system import HadesSystem
from repro.workloads.arrivals import nhpp_arrivals

__all__ = ["Scenario", "ScenarioResult"]

#: Scheduler policies constructible per node without a task list.
_DYNAMIC_POLICIES = ("edf", "spring", "fifo")
#: Policies that need the (periodic) task set up front.
_STATIC_POLICIES = ("rm", "dm")

RateLike = Union[float, int, Callable[[float], float]]


@dataclass(frozen=True)
class _TierSpec:
    name: str
    replicas: int
    fan_out: int
    wcet: int
    service: Optional[ServiceTimeModel]
    budget: Optional[int]
    #: Accelerator pool per replica node of this tier ({"gpu": 2}),
    #: or None for plain CPU nodes (repro.hetero).
    engines: Optional[Dict[str, int]] = None
    #: Per-engine-class WCETs of this tier's units ({"gpu": 120}).
    variants: Optional[Dict[str, int]] = None


@dataclass(frozen=True)
class _MonitorSpec:
    tenant: str
    objective_ppm: int
    interval: int
    fast_window: int
    slow_window: int
    threshold_milli: int
    clear_milli: Optional[int]
    hold: int
    react: Optional[Union[str, Callable[..., None]]]
    on_clear: Optional[Union[str, Callable[..., None]]]
    samples: bool


@dataclass(frozen=True)
class _TenantSpec:
    name: str
    rate: Optional[RateLike]
    mk: Optional[Tuple[int, int]]
    value: int
    deadline: Optional[int]

    def slo(self) -> TenantSLO:
        return TenantSLO(self.name, value=self.value, mk=self.mk)


class ScenarioResult:
    """Outcome of one :meth:`Scenario.run`."""

    def __init__(self, scenario: "Scenario", system: HadesSystem,
                 scoreboard: Scoreboard):
        #: The scenario that produced this run.
        self.scenario = scenario
        #: The underlying :class:`~repro.system.HadesSystem` (tracer,
        #: metrics, dispatcher, monitor — everything is reachable).
        self.system = system
        #: Per-tenant / per-tier SLO accounting, scored live from the
        #: run's trace records.
        self.scoreboard = scoreboard

    @property
    def schedulers(self) -> List[Any]:
        """The scheduler instances the builder attached."""
        return list(getattr(self.system, "_scenario_schedulers", ()))

    @property
    def controllers(self) -> List[AdmissionController]:
        """The admission controllers the builder attached."""
        return list(getattr(self.system, "_scenario_controllers", ()))

    @property
    def monitors(self) -> List[Any]:
        """The live monitors the builder attached."""
        return list(getattr(self.system, "_scenario_monitors", ()))

    @property
    def completed(self) -> int:
        """Completed task instances (dispatcher counter)."""
        return self.system.dispatcher.completed_instances

    @property
    def misses(self) -> int:
        """Deadline-miss violations recorded by the execution monitor."""
        return self.system.monitor.count(ViolationKind.DEADLINE_MISS)

    @property
    def scheduler_rejections(self) -> int:
        """Jobs turned away by planning-based schedulers (Spring)."""
        return sum(getattr(s, "rejected_count", 0)
                   for s in self.schedulers)

    def tenant(self, name: str) -> Dict[str, Any]:
        """One tenant's scoreboard row."""
        return self.scoreboard.tenant_stats(name)

    def accrued_value(self) -> int:
        """Total value accrued across tenants (in-time completions)."""
        return sum(row["value"]
                   for row in self.scoreboard.to_dict().values())

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic summary: scoreboard plus run meta."""
        return {
            "sim_time": self.system.sim.now,
            "completed": self.completed,
            "tenants": self.scoreboard.to_dict(),
        }

    def __repr__(self) -> str:
        return (f"<ScenarioResult completed={self.completed} "
                f"tenants={len(self.scoreboard.tenants)}>")


class Scenario:
    """Fluent builder for a complete workload-on-deployment (see the
    module docstring for the request model).  Every declaration method
    returns ``self``; :meth:`run` builds and executes."""

    def __init__(self) -> None:
        self._tiers: List[_TierSpec] = []
        self._tenants: List[_TenantSpec] = []
        self._cells = 1
        self._load = 1.0
        self._policy: Tuple[str, Dict[str, Any]] = ("edf", {})
        self._admission: Optional[Dict[str, Any]] = None
        self._tasks: List[Tuple[Task, Optional[int]]] = []
        self._extra_nodes: List[str] = []
        self._costs: Optional[DispatcherCosts] = DispatcherCosts.zero()
        self._options: Dict[str, Any] = {}
        self._seed = 0
        self._horizon: Optional[int] = None
        self._monitors: List[_MonitorSpec] = []
        #: Raw node_id -> {engine class: count} overrides merged over
        #: the per-tier ``engines=`` declarations (repro.hetero).
        self._engine_overrides: Dict[str, Dict[str, int]] = {}

    # -- declarations ------------------------------------------------------

    def tier(self, name: str, replicas: int = 1, fan_out: int = 1,
             wcet: int = 1_000,
             service: Optional[ServiceTimeModel] = None,
             budget: Optional[int] = None,
             engines: Optional[Dict[str, int]] = None,
             variants: Optional[Dict[str, int]] = None) -> "Scenario":
        """Declare the next service tier (declaration order = depth).

        ``replicas`` — nodes of this tier per cell (tenants and fan-out
        units are spread across them round-robin); ``fan_out`` — units
        each upstream unit spawns at the *next* tier; ``wcet`` — the
        designer-guaranteed per-unit budget (µs); ``service`` — a
        heavy-tailed :class:`~repro.scenarios.traffic.ServiceTimeModel`
        for actual times (default: every unit burns its WCET);
        ``budget`` — this tier's latency budget (µs), accumulated into
        a per-unit deadline attribute when every tier declares one.

        ``engines`` gives every replica node of this tier a
        heterogeneous accelerator pool (``{"gpu": 2}``); ``variants``
        declares per-engine-class WCETs for this tier's units
        (``{"gpu": 120}``).  When any tier declares engines, every
        tenant DAG is auto-mapped by the deterministic
        :func:`repro.hetero.mapping.map_task` heuristic at build time.
        """
        if any(t.name == name for t in self._tiers):
            raise ValueError(f"duplicate tier {name!r}")
        if not name or any(c in name for c in ":/#."):
            raise ValueError(f"tier name {name!r} must be non-empty and "
                             "contain none of ':', '/', '#', '.'")
        if replicas < 1 or fan_out < 1:
            raise ValueError("replicas and fan_out must be >= 1")
        if wcet <= 0:
            raise ValueError("wcet must be > 0")
        if budget is not None and budget <= 0:
            raise ValueError("budget must be > 0")
        if engines is not None:
            if not isinstance(engines, dict) or not engines:
                raise ValueError("engines must be a non-empty mapping of "
                                 "engine class to unit count")
            for cls_name, count in engines.items():
                if cls_name == "cpu":
                    raise ValueError("engine class 'cpu' is implicit; "
                                     "declare only accelerator classes")
                if not isinstance(count, int) or count < 1:
                    raise ValueError(
                        f"engine class {cls_name!r} needs a positive "
                        f"unit count, got {count!r}")
        if variants is not None:
            if not isinstance(variants, dict) or not variants:
                raise ValueError("variants must be a non-empty mapping of "
                                 "engine class to wcet")
            for cls_name, bound in variants.items():
                if not isinstance(bound, int) or bound < 0 \
                        or isinstance(bound, bool):
                    raise ValueError(
                        f"variant wcet for engine {cls_name!r} must be "
                        f">= 0, got {bound!r}")
        self._tiers.append(_TierSpec(name, replicas, fan_out, wcet,
                                     service, budget,
                                     engines=dict(engines) if engines
                                     else None,
                                     variants=dict(variants) if variants
                                     else None))
        return self

    def tenant(self, name: str, rate: Optional[RateLike] = None,
               mk: Optional[Tuple[int, int]] = None, value: int = 1,
               deadline: Optional[int] = None) -> "Scenario":
        """Declare a tenant traffic class.

        ``rate`` is in requests **per second** — a number, or a
        callable of simulated time (µs) for diurnal shapes (build one
        with :func:`~repro.workloads.arrivals.diurnal_profile` using
        per-second rates; its ``.peak`` attribute supplies the thinning
        cap).  ``mk`` is the (m, k)-firm SLO, ``value`` the accrued
        value per satisfied request, ``deadline`` the end-to-end
        relative deadline (µs; None = unconstrained).
        """
        if any(t.name == name for t in self._tenants):
            raise ValueError(f"duplicate tenant {name!r}")
        if not name or any(c in name for c in ":/#"):
            raise ValueError(f"tenant name {name!r} must be non-empty and "
                             "contain none of ':', '/', '#'")
        if rate is not None and not callable(rate) and rate < 0:
            raise ValueError("rate must be >= 0")
        if value < 1:
            raise ValueError("value must be >= 1")
        TenantSLO(name, value=value, mk=mk)  # validates mk
        self._tenants.append(_TenantSpec(name, rate, mk, value, deadline))
        return self

    def cells(self, count: int) -> "Scenario":
        """Replicate the tier topology into ``count`` independent
        cells; tenants are pinned round-robin (tenant *i* → cell
        ``i % count``).  A request DAG never leaves its cell."""
        if count < 1:
            raise ValueError("cells must be >= 1")
        self._cells = count
        return self

    def load(self, multiplier: float) -> "Scenario":
        """Scale every tenant's arrival rate (the 1×–10× axis of the
        overload experiments)."""
        if multiplier <= 0:
            raise ValueError("multiplier must be > 0")
        self._load = float(multiplier)
        return self

    def policy(self, name: str, **kwargs: Any) -> "Scenario":
        """Select the per-node scheduling policy: ``"edf"`` (default),
        ``"spring"``, ``"fifo"``, ``"rm"`` or ``"dm"`` (the static two
        require an all-periodic :meth:`task` workload).  ``kwargs`` are
        forwarded to the scheduler constructor (e.g. ``w_sched=0``)."""
        if name not in _DYNAMIC_POLICIES + _STATIC_POLICIES:
            raise ValueError(
                f"unknown policy {name!r} (expected one of "
                f"{_DYNAMIC_POLICIES + _STATIC_POLICIES})")
        self._policy = (name, dict(kwargs))
        return self

    def admission(self, policy: str = "reject",
                  test: Optional[GuaranteeTest] = None,
                  mk: Optional[Tuple[int, int]] = None,
                  queue_capacity: int = 256,
                  w_adm: int = 0) -> "Scenario":
        """Route every request through per-ingress-node admission
        control (:mod:`repro.admission`) under the given overload
        ``policy`` (``"reject"`` | ``"shed"`` | ``"mk_firm"``).

        ``test`` defaults to the pooled
        :class:`~repro.admission.guarantee.ResponseTimeTest`; ``mk`` is
        the default (m, k) window for ``mk_firm`` (tenant declarations
        override it per task); ``w_adm`` defaults to 0 so the guarantee
        test does not need an interference hook for its own cost.
        """
        if policy not in ("reject", "shed", "mk_firm"):
            raise ValueError(
                "scenario admission supports reject/shed/mk_firm")
        self._admission = {
            "policy": policy,
            "test": test,
            "mk": mk,
            "queue_capacity": queue_capacity,
            "w_adm": w_adm,
        }
        return self

    def monitor(self, tenant: str, *, interval: int,
                objective_ppm: int = 990_000,
                fast_window: Optional[int] = None,
                slow_window: Optional[int] = None,
                threshold_milli: int = 1000,
                clear_milli: Optional[int] = None,
                hold: int = 2,
                react: Optional[Union[str, Callable[..., None]]] = None,
                on_clear: Optional[Union[str,
                                         Callable[..., None]]] = None,
                samples: bool = True) -> "Scenario":
        """Attach a live burn-rate monitor to one (declared) tenant.

        A :class:`~repro.obs.live.LiveMonitor` is created on the
        tenant's ingress node with an in-sim probe at every multiple
        of ``interval`` µs.  One burn-rate rule named ``"burn"``
        watches the ``objective_ppm`` SLO over ``fast_window``
        (default: ``interval``) and ``slow_window`` (default: ``5 *
        interval``), raising at ``threshold_milli`` (1000 = burning the
        error budget exactly at the sustainable rate) and clearing with
        ``hold``-probe hysteresis below ``clear_milli``.

        ``react`` runs when the rule raises (once): ``"conservative"``
        swaps the ingress controller's guarantee test to the
        conservative :class:`~repro.admission.guarantee.
        ResponseTimeTest`; ``"policy:<name>"`` switches its overload
        policy; or pass any ``f(system, alert)`` callable (e.g.
        :func:`~repro.obs.live.react_degrade`).  ``on_clear`` runs on
        every clear: ``"restore"`` puts back the policy/test the
        controller had when the monitor was wired, or a callable.
        String reactions require :meth:`admission`.
        """
        if not any(t.name == tenant for t in self._tenants):
            raise ValueError(f"monitor for undeclared tenant {tenant!r} "
                             "(declare the tenant first)")
        if any(m.tenant == tenant for m in self._monitors):
            raise ValueError(f"duplicate monitor for tenant {tenant!r}")
        if interval < 1:
            raise ValueError("interval must be >= 1")
        for spec, label in ((react, "react"), (on_clear, "on_clear")):
            if spec is None or callable(spec):
                continue
            if self._admission is None:
                raise ValueError(f"string {label}= needs .admission()")
            if label == "react":
                if not (spec == "conservative"
                        or spec.startswith("policy:")):
                    raise ValueError(
                        f"unknown react {spec!r} (expected "
                        "'conservative', 'policy:<name>', or a "
                        "callable)")
            elif spec != "restore":
                raise ValueError(f"unknown on_clear {spec!r} (expected "
                                 "'restore' or a callable)")
        self._monitors.append(_MonitorSpec(
            tenant, objective_ppm, interval,
            fast_window if fast_window is not None else interval,
            slow_window if slow_window is not None else 5 * interval,
            threshold_milli, clear_milli, hold, react, on_clear,
            samples))
        return self

    # -- generic (paper-shaped) declarations --------------------------------

    def node(self, *node_ids: str) -> "Scenario":
        """Add plain nodes (generic workloads without tiers)."""
        for node_id in node_ids:
            if node_id in self._extra_nodes:
                raise ValueError(f"duplicate node {node_id!r}")
            self._extra_nodes.append(node_id)
        return self

    def task(self, task: Task, periodic: Optional[int] = None) -> "Scenario":
        """Register a hand-built HEUG.  With ``periodic=count`` the
        task is driven from its periodic arrival law for ``count``
        activations; otherwise it is only made known (activate it
        through ``result.system``)."""
        self._tasks.append((task, periodic))
        return self

    def costs(self, costs: Optional[DispatcherCosts]) -> "Scenario":
        """Dispatcher cost constants (default: zero — scenario
        guarantee tests then need no interference hook; pass
        ``DispatcherCosts()`` for the §4.2 realistic constants)."""
        self._costs = costs
        return self

    def options(self, **kwargs: Any) -> "Scenario":
        """Pass-through :class:`~repro.system.HadesSystem` constructor
        options (``metrics=``, ``network_latency=``, ``trace_maxlen=``
        ...), merged over previous calls."""
        for forbidden in ("node_ids", "costs", "engines"):
            if forbidden in kwargs:
                raise ValueError(f"{forbidden}= is managed by the "
                                 "scenario; use its fluent methods")
        self._options.update(kwargs)
        return self

    def engines(self, mapping: Dict[str, Dict[str, int]]) -> "Scenario":
        """Attach accelerator pools to raw node ids (repro.hetero).

        ``mapping`` is ``{node_id: {engine class: count}}`` — the same
        shape ``HadesSystem(engines=...)`` takes.  Use it for extra
        nodes (:meth:`nodes`) or to override a tier node's pool; the
        per-tier ``tier(engines=...)`` axis is the fluent spelling for
        whole tiers.  Merged over previous calls.
        """
        if not isinstance(mapping, dict):
            raise ValueError("engines() takes {node_id: {class: count}}")
        for node_id, spec in mapping.items():
            if not isinstance(spec, dict) or not spec:
                raise ValueError(
                    f"node {node_id!r}: engine spec must be a non-empty "
                    f"mapping of engine class to unit count")
            self._engine_overrides[node_id] = dict(spec)
        return self

    def seed(self, seed: int) -> "Scenario":
        """Master seed for traffic and service-time generation (also
        settable per run: ``run(seed=...)``)."""
        self._seed = int(seed)
        return self

    # -- derived structure -------------------------------------------------

    def _node_id(self, cell: int, tier: str, replica: int) -> str:
        return f"c{cell}.{tier}{replica}"

    def node_ids(self) -> List[str]:
        """Every node of the deployment, cells first, then extras."""
        nodes = [self._node_id(cell, tier.name, replica)
                 for cell in range(self._cells)
                 for tier in self._tiers
                 for replica in range(tier.replicas)]
        nodes.extend(self._extra_nodes)
        if not nodes:
            raise ValueError("scenario declares no tiers and no nodes")
        return nodes

    def _ingress_node(self, tenant_index: int) -> str:
        tier0 = self._tiers[0]
        cell = tenant_index % self._cells
        return self._node_id(cell, tier0.name, tenant_index % tier0.replicas)

    def _engine_map(self) -> Dict[str, Dict[str, int]]:
        """The deployment's platform spec: node id -> {class: count},
        from per-tier ``engines=`` declarations merged with raw
        :meth:`engines` overrides (overrides win per node)."""
        engine_map: Dict[str, Dict[str, int]] = {}
        for cell in range(self._cells):
            for tier in self._tiers:
                if tier.engines is None:
                    continue
                for replica in range(tier.replicas):
                    node_id = self._node_id(cell, tier.name, replica)
                    engine_map[node_id] = dict(tier.engines)
        engine_map.update({node_id: dict(spec) for node_id, spec
                           in self._engine_overrides.items()})
        return engine_map

    def _cumulative_budgets(self) -> Optional[List[int]]:
        if any(t.budget is None for t in self._tiers):
            return None
        totals, running = [], 0
        for tier in self._tiers:
            running += tier.budget
            totals.append(running)
        return totals

    def _tenant_task(self, spec: _TenantSpec, tenant_index: int) -> Task:
        """Build one tenant's request DAG (tree fan-out + reply fan-in)."""
        cell = tenant_index % self._cells
        budgets = self._cumulative_budgets()
        task = Task(spec.name, deadline=spec.deadline, arrival=Aperiodic())
        previous: List[Any] = []
        width = 1
        for depth, tier in enumerate(self._tiers):
            layer = []
            for j in range(width):
                eu_name = f"{tier.name}:{j}"
                actual = None
                if tier.service is not None:
                    actual = tier.service.sampler(
                        tier.wcet,
                        derive_seed(self._seed, spec.name, eu_name))
                attrs = (EUAttributes(deadline=budgets[depth])
                         if budgets else None)
                layer.append(task.code_eu(
                    eu_name, wcet=tier.wcet,
                    node_id=self._node_id(
                        cell, tier.name,
                        (tenant_index + j) % tier.replicas),
                    actual_time=actual, attrs=attrs,
                    variants=tier.variants))
            if previous:
                fan = self._tiers[depth - 1].fan_out
                for j, unit in enumerate(layer):
                    task.precede(previous[j // fan], unit)
            previous = layer
            width *= tier.fan_out
        reply = task.code_eu(
            "reply:0", wcet=self._tiers[0].wcet,
            node_id=self._ingress_node(tenant_index),
            actual_time=(self._tiers[0].service.sampler(
                self._tiers[0].wcet,
                derive_seed(self._seed, spec.name, "reply:0"))
                if self._tiers[0].service is not None else None),
            attrs=(EUAttributes(deadline=spec.deadline)
                   if budgets and spec.deadline else None))
        for unit in previous:
            task.precede(unit, reply)
        engine_map = self._engine_map()
        if engine_map:
            # Deterministic mapping of multi-version units onto the
            # declared pools.
            from repro.hetero.mapping import auto_map
            auto_map(task, engine_map)
        return task.validate()

    def _tenant_arrivals(self, spec: _TenantSpec) -> List[int]:
        """Absolute request times over the horizon (NHPP, per-second
        rates scaled by the load multiplier)."""
        if spec.rate is None:
            return []
        seed = derive_seed(self._seed, spec.name, "arrivals")
        scale = self._load / 1_000_000.0  # req/s -> req/µs, under load
        if callable(spec.rate):
            base = spec.rate
            peak = getattr(base, "peak", None)
            if peak is None:
                raise ValueError(
                    f"tenant {spec.name!r}: a callable rate needs a "
                    ".peak attribute (see diurnal_profile)")

            def scaled(t: float, _base=base, _scale=scale) -> float:
                return _base(t) * _scale

            return nhpp_arrivals(scaled, self._horizon, seed=seed,
                                 rate_cap=peak * scale)
        return nhpp_arrivals(spec.rate * scale, self._horizon, seed=seed)

    def _inflated_wcet(self, task: Task) -> int:
        """Suspension-oblivious submission WCET: total CPU demand plus
        a delivery bound per remote precedence edge, so the pooled
        single-CPU guarantee test upper-bounds the distributed DAG."""
        latency = self._options.get("network_latency", 50)
        jitter = self._options.get("network_jitter", 0)
        remote = sum(1 for edge in task.edges if task.is_remote(edge))
        return task.total_wcet() + remote * (latency + jitter)

    # -- construction ------------------------------------------------------

    def _cell_nodes(self, cell: int) -> List[str]:
        return [self._node_id(cell, tier.name, replica)
                for tier in self._tiers
                for replica in range(tier.replicas)]

    def _attach_schedulers(self, system: HadesSystem,
                           node_ids: Sequence[str]) -> None:
        from repro.scheduling import (DMScheduler, EDFScheduler,
                                      FIFOScheduler, RMScheduler,
                                      SpringScheduler)
        name, kwargs = self._policy
        if name in _STATIC_POLICIES and self._tenants:
            raise ValueError(
                f"policy {name!r} needs periodic tasks; tenant request "
                "streams are aperiodic — use edf/spring/fifo")
        for node_id in node_ids:
            if name == "edf":
                sched = EDFScheduler(scope=node_id, **kwargs)
            elif name == "spring":
                sched = SpringScheduler(scope=node_id, **kwargs)
            elif name == "fifo":
                sched = FIFOScheduler(scope=node_id, **kwargs)
            else:
                here = [t for t, _ in self._tasks
                        if any(t.node_of(eu) == node_id for eu in t.eus)]
                cls = RMScheduler if name == "rm" else DMScheduler
                sched = cls(here, scope=node_id, **kwargs)
            system.attach_scheduler(sched)
            system._scenario_schedulers.append(sched)

    def _build_service_cell(self, system: HadesSystem,
                            plans: List[Tuple[_TenantSpec, str, Task,
                                              List[int]]]) -> None:
        """Wire one cell's controllers and request traffic."""
        controllers: Dict[str, AdmissionController] = {}
        if self._admission is not None:
            by_node: Dict[str, List[_TenantSpec]] = {}
            for spec, node, _task, _times in plans:
                by_node.setdefault(node, []).append(spec)
            adm = self._admission
            for node in sorted(by_node):
                overrides = {spec.name: spec.mk
                             for spec in by_node[node]
                             if spec.mk is not None}
                default_mk = adm["mk"]
                if adm["policy"] == "mk_firm" and default_mk is None:
                    # Tenants without an (m, k) declaration get the
                    # strictest window: a failed guarantee is always a
                    # violation, never a permitted skip.
                    default_mk = (1, 1)
                controllers[node] = AdmissionController(
                    system.dispatcher, node,
                    test=adm["test"] or ResponseTimeTest(),
                    policy=adm["policy"],
                    queue_capacity=adm["queue_capacity"],
                    w_adm=adm["w_adm"],
                    mk=default_mk,
                    mk_overrides=overrides or None)
        system._scenario_controllers.extend(controllers.values())
        for spec, node, task, times in plans:
            if self._admission is None:
                system.dispatcher.register_arrivals(task, times)
                continue
            controller = controllers[node]
            wcet = self._inflated_wcet(task)
            for when in times:
                system.sim.call_at(
                    when,
                    lambda c=controller, t=task, v=spec.value, w=wcet:
                    c.submit(t, v, wcet=w))
        self._attach_monitors(system, plans, controllers)

    def _attach_monitors(self, system: HadesSystem,
                         plans: List[Tuple[_TenantSpec, str, Task,
                                           List[int]]],
                         controllers: Dict[str, AdmissionController],
                         ) -> None:
        """Wire one cell's live monitors."""
        if not self._monitors:
            return
        from repro.obs.live import (BurnRateRule, LiveMonitor, SloSpec,
                                    react_reconfigure)
        from repro.admission.guarantee import ResponseTimeTest
        by_tenant = {spec.name: node for spec, node, _t, _times in plans}
        for mon in self._monitors:
            node = by_tenant.get(mon.tenant)
            if node is None:
                continue  # another cell
            rule = BurnRateRule(
                "burn", fast_window=mon.fast_window,
                slow_window=mon.slow_window,
                threshold_milli=mon.threshold_milli,
                clear_milli=mon.clear_milli, hold=mon.hold)
            live = LiveMonitor(
                system, mon.tenant,
                SloSpec(mon.objective_ppm, window=mon.slow_window),
                [rule], interval=mon.interval, horizon=self._horizon,
                node=node, samples=mon.samples)
            controller = controllers.get(node)
            for spec, register in ((mon.react, live.on_alert),
                                   (mon.on_clear, live.on_clear)):
                if spec is None:
                    continue
                if callable(spec):
                    register(rule.name, spec)
                    continue
                if controller is None:
                    raise ValueError(
                        f"monitor {mon.tenant!r}: string reaction "
                        f"{spec!r} needs an admission controller on "
                        f"the ingress node")
                if spec == "conservative":
                    register(rule.name, react_reconfigure(
                        [controller], test_factory=ResponseTimeTest))
                elif spec == "restore":
                    register(rule.name, self._restore_reaction(
                        controller))
                else:  # "policy:<name>", validated in monitor()
                    register(rule.name, react_reconfigure(
                        [controller], policy=spec.split(":", 1)[1]))
            system._scenario_monitors.append(live)

    @staticmethod
    def _restore_reaction(controller: AdmissionController
                          ) -> Callable[..., None]:
        """Reaction putting back the policy/test the controller had
        when the monitor was wired (the recover half)."""
        policy, test = controller.policy, controller.test

        def restore(_system, alert, c=controller, p=policy, t=test):
            c.reconfigure(policy=p, test=t,
                          trigger=f"alert_clear:{alert.rule}")

        return restore

    def _build_into(self, system: HadesSystem) -> None:
        """Register the whole workload on a freshly built ``system``.

        Construction is **cell-major**: each cell's schedulers,
        controllers and traffic are wired together before the next
        cell's, so time-0 records (thread spawns) appear in cell order.
        """
        system._scenario_schedulers = []
        system._scenario_controllers = []
        system._scenario_monitors = []
        if self._tenants and not self._tiers:
            raise ValueError("tenants declared without tiers")
        if self._tiers:
            by_cell: Dict[int, List[Tuple[_TenantSpec, str, Task,
                                          List[int]]]] = {}
            for index, spec in enumerate(self._tenants):
                by_cell.setdefault(index % self._cells, []).append(
                    (spec, self._ingress_node(index),
                     self._tenant_task(spec, index),
                     self._tenant_arrivals(spec)))
            for cell in range(self._cells):
                self._attach_schedulers(system, self._cell_nodes(cell))
                self._build_service_cell(system, by_cell.get(cell, []))
            self._attach_schedulers(system, self._extra_nodes)
        else:
            self._attach_schedulers(system, list(system.nodes))
        for task, periodic in self._tasks:
            if periodic is not None:
                system.register_periodic(task, count=periodic)
            else:
                system.dispatcher.known_tasks.setdefault(task.name, task)

    def build(self) -> HadesSystem:
        """Construct the (un-run) system."""
        if self._tenants and self._horizon is None:
            raise ValueError(
                "tenant traffic needs a horizon: run(until=...)")
        kwargs = dict(self._options)
        kwargs["costs"] = self._costs
        engine_map = self._engine_map()
        if engine_map:
            kwargs["engines"] = engine_map
        system = HadesSystem(node_ids=self.node_ids(), **kwargs)
        self._build_into(system)
        return system

    def run(self, until: Optional[int] = None,
            seed: Optional[int] = None) -> ScenarioResult:
        """Build and execute; returns a :class:`ScenarioResult`.

        ``until`` doubles as the traffic horizon (required when tenants
        are declared).  The scoreboard is fed live: it first ingests any
        record the built system already holds, then subscribes to the
        tracer by :data:`~repro.scenarios.scoreboard.SCOREBOARD_KEYS`
        for the run, so it scores every record even when
        ``trace_maxlen=`` bounds the tracer.  Raises ``ValueError`` when
        the tracer's category filter (``trace_categories=``) drops
        ``dispatcher``, or ``admission`` under :meth:`admission`, which
        would zero the scoreboard.
        """
        if seed is not None:
            self._seed = int(seed)
        if until is not None:
            self._horizon = until
        system = self.build()
        tracer = system.tracer
        allowed = tracer.categories
        if allowed is not None:
            needed = ["dispatcher"]
            if self._admission is not None:
                needed.append("admission")
            for category in needed:
                if category not in allowed:
                    raise ValueError(
                        f"trace_categories drops {category!r}, whose "
                        f"records the scoreboard scores")
        scoreboard = Scoreboard([spec.slo() for spec in self._tenants],
                                tiers=[tier.name for tier in self._tiers])
        for record in tracer:
            scoreboard.ingest(record)
        tracer.subscribe(scoreboard.ingest, keys=SCOREBOARD_KEYS)
        system.run(until=self._horizon)
        tracer.unsubscribe(scoreboard.ingest)
        scoreboard.publish(system.metrics)
        return ScenarioResult(self, system, scoreboard)
