"""HADES reproduction: middleware for distributed safety-critical
real-time applications.

This library reproduces, in simulation, the system described in

    E. Anceaume, G. Cabillic, P. Chevochot, I. Puaut,
    "Hades: A Middleware Support for Distributed Safety-Critical
    Real-Time Applications", INRIA RR-3280 / ICDCS 1998.

Stable facade
-------------

The names exported here (see ``__all__``) form the supported public
API; everything else is an implementation detail that may move between
minor versions.  A typical deployment needs nothing beyond::

    from repro import (HadesSystem, Task, EUAttributes, EDFScheduler,
                       DispatcherCosts)

    system = HadesSystem(node_ids=["n0", "n1"])
    system.attach_scheduler(EDFScheduler(scope="n0"))
    task = Task("control", deadline=10_000)
    sense = task.code_eu("sense", wcet=200, node_id="n0",
                         attrs=EUAttributes(prio=20))
    act = task.code_eu("act", wcet=100, node_id="n1",
                       attrs=EUAttributes(prio=20))
    task.precede(sense, act)
    system.activate(task.validate())
    system.run()

For service-shaped workloads — tiered request DAGs under diurnal,
heavy-tailed multi-tenant traffic with (m, k)-firm SLOs — the blessed
construction path is the fluent :class:`~repro.scenarios.Scenario`
builder (see :mod:`repro.scenarios`)::

    from repro import Scenario

    result = (Scenario()
              .tier("edge", replicas=2, wcet=300)
              .tier("svc", fan_out=3, wcet=800)
              .tenant("gold", rate=120, mk=(9, 10), deadline=40_000)
              .admission("mk_firm")
              .load(3.0)
              .run(until=1_000_000, seed=7))
    print(result.tenant("gold")["p99"])

Every deployment runs on one event core, the binary-heap
:class:`~repro.sim.engine.Simulator`; since 5.0.0 there is no engine
to select.  Simulated activities are kernel threads
(:meth:`~repro.kernel.node.Node.spawn`) or ``Simulator.call_in``
callbacks.  Since 6.0.0 every trace record is one
:class:`~repro.sim.trace.TraceRecord` in a layout of
``repro.sim.trace.LAYOUTS``, built by the tracer or ``read_jsonl``.

Deeper layers remain importable for research use:

* :mod:`repro.core` — the HEUG task model, dispatcher, cost model,
* :mod:`repro.admission` — online admission control & overload
  management (guarantee tests, overload policies, distributed
  guarantee forwarding),
* :mod:`repro.scheduling` — EDF, RM, DM, Spring, PCP, SRP, FIFO,
* :mod:`repro.feasibility` — off-line scheduling tests incl. the §5.3
  cost-integrated test,
* :mod:`repro.services` — clock sync, reliable broadcast, replication,
  consensus, fault detection, storage, dependency tracking,
* :mod:`repro.scenarios` — production traffic scenarios (tiered
  request DAGs, heavy-tailed service times, SLO scoreboard),
* :mod:`repro.hetero` — heterogeneous processing engines (GPU/DSP
  pools, multi-version EUs, EU-to-engine mapping heuristics),
* :mod:`repro.workloads` — synthetic task-set generators,
* :mod:`repro.faults` — fault-injection campaigns,
* :mod:`repro.analysis` — cost calibration and trace analysis,
* :mod:`repro.obs` — metrics registry, trace tooling, and the live
  monitoring plane (:mod:`repro.obs.live`: in-sim time-series, SLO
  burn-rate alerts, closed-loop reactions).
"""

from repro.admission import (
    AdmissionController,
    AdmissionRequest,
    ResponseTimeTest,
    SpringProbeTest,
    UtilizationTest,
)
from repro.core.costs import DispatcherCosts
from repro.core.heug import (
    CodeEU,
    ConditionVariable,
    EUAttributes,
    InvEU,
    Precedence,
    Resource,
    Task,
)
from repro.core.attributes import Aperiodic, Periodic, Sporadic
from repro.faults import Campaign, CampaignResult, FaultPlan, random_plan
from repro.hetero import (
    Assignment,
    EngineClass,
    HeterogeneousPool,
    apply_assignment,
    auto_map,
    cpu_only,
    enumerate_assignments,
    map_task,
)
from repro.obs.forensics import forensics_report
from repro.obs.live import (
    Alert,
    BurnRateRule,
    LiveMonitor,
    SloSpec,
    react_degrade,
    react_reconfigure,
    react_revert,
)
from repro.obs.metrics import MetricsRegistry, RunReport, resolve_metrics
from repro.obs.spans import SpanForest, critical_path, decompose, reconstruct
from repro.obs.timeline import build_timeline, write_timeline
from repro.scenarios import (
    DeterministicService,
    LogNormalService,
    ParetoService,
    Scenario,
    ScenarioResult,
    Scoreboard,
    ServiceTimeModel,
    TenantSLO,
)
from repro.scheduling import (
    DMScheduler,
    EDFScheduler,
    FIFOScheduler,
    FixedPriorityScheduler,
    RMScheduler,
    SpringScheduler,
)
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer, TraceRecord, load_trace
from repro.system import HadesSystem
from repro.workloads.arrivals import diurnal_profile, nhpp_arrivals

__version__ = "7.0.0"

__all__ = [
    # deployment facade
    "HadesSystem",
    "Simulator",
    # production traffic scenarios (fluent builder)
    "Scenario",
    "ScenarioResult",
    "Scoreboard",
    "TenantSLO",
    "ServiceTimeModel",
    "DeterministicService",
    "LogNormalService",
    "ParetoService",
    "diurnal_profile",
    "nhpp_arrivals",
    # HEUG task model
    "Task",
    "CodeEU",
    "InvEU",
    "EUAttributes",
    "Precedence",
    "Resource",
    "ConditionVariable",
    # arrival laws
    "Periodic",
    "Sporadic",
    "Aperiodic",
    # dispatcher cost model
    "DispatcherCosts",
    # scheduling policies
    "EDFScheduler",
    "RMScheduler",
    "DMScheduler",
    "SpringScheduler",
    "FixedPriorityScheduler",
    "FIFOScheduler",
    # admission control & overload management
    "AdmissionController",
    "AdmissionRequest",
    "UtilizationTest",
    "ResponseTimeTest",
    "SpringProbeTest",
    # heterogeneous engines & EU-to-engine mapping (repro.hetero)
    "EngineClass",
    "HeterogeneousPool",
    "Assignment",
    "map_task",
    "apply_assignment",
    "auto_map",
    "cpu_only",
    "enumerate_assignments",
    # fault-injection campaigns
    "Campaign",
    "CampaignResult",
    "FaultPlan",
    "random_plan",
    # observability
    "MetricsRegistry",
    "RunReport",
    "resolve_metrics",
    "Tracer",
    "TraceRecord",
    "load_trace",
    # live monitoring plane (burn-rate SLO alerts, closed-loop reactions)
    "LiveMonitor",
    "SloSpec",
    "BurnRateRule",
    "Alert",
    "react_reconfigure",
    "react_degrade",
    "react_revert",
    # causal spans, forensics, timeline export
    "SpanForest",
    "reconstruct",
    "critical_path",
    "decompose",
    "forensics_report",
    "build_timeline",
    "write_timeline",
    "__version__",
]
