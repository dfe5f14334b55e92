"""Production traffic scenarios behind one fluent facade.

This package turns the reproduction's paper-shaped workloads into
production-service ones — tiered request fan-out/fan-in HEUG DAGs
(edge → service → storage) under diurnal, heavy-tailed, nonhomogeneous-
Poisson traffic with per-tenant (m, k)-firm SLOs — and wraps the whole
construction surface (deployment, schedulers, admission control,
traffic, SLO accounting) in the chainable :class:`Scenario` builder::

    from repro import Scenario, LogNormalService

    result = (Scenario()
              .tier("edge", replicas=2, wcet=300)
              .tier("svc", fan_out=3, wcet=800,
                    service=LogNormalService(median=250, sigma=0.7))
              .cells(4)
              .tenant("gold", rate=120, mk=(9, 10), value=5,
                      deadline=40_000)
              .admission("mk_firm")
              .load(3.0)
              .run(until=1_000_000, seed=7))

Modules: :mod:`~repro.scenarios.scenario` (the facade),
:mod:`~repro.scenarios.traffic` (heavy-tailed service-time models),
:mod:`~repro.scenarios.scoreboard` (trace-reconstructed per-tenant /
per-tier SLO accounting).  Experiment E22
(``benchmarks/bench_service_scenarios.py``) compares EDF, Spring and
admission policies on these scenarios under 1×–10× load.
"""

from repro.obs.metrics import exact_quantile
from repro.scenarios.scenario import Scenario, ScenarioResult
from repro.scenarios.scoreboard import Scoreboard, TenantSLO
from repro.scenarios.traffic import (
    DeterministicService,
    LogNormalService,
    ParetoService,
    ServiceTimeModel,
    derive_seed,
)

__all__ = [
    "DeterministicService",
    "LogNormalService",
    "ParetoService",
    "Scenario",
    "ScenarioResult",
    "Scoreboard",
    "ServiceTimeModel",
    "TenantSLO",
    "derive_seed",
    "exact_quantile",
]
