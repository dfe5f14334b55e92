"""Fault injection campaigns.

The paper's availability objective (§2.1) spans crash, omission and
coherent-value failures for processors, Byzantine failures for clocks,
and performance and omission failures for the communication network.
This package turns those into injectable, reproducible *fault plans*:

* :class:`~repro.faults.plan.FaultEvent` — one fault at one time,
* :class:`~repro.faults.plan.FaultPlan` — a deterministic schedule of
  fault events applied to a :class:`~repro.system.HadesSystem`,
* :func:`~repro.faults.plan.random_plan` — seeded random campaigns,
* :class:`~repro.faults.campaign.Campaign` — run a scenario function
  across many seeds/plans and aggregate detection & survival metrics,
* :func:`~repro.faults.parallel.run_parallel` — the same campaign
  fanned out to forked worker processes, one per chunk of seeds
  (``Campaign.run(jobs=N)``), merged deterministically in seed order.
"""

from repro.faults.campaign import Campaign, CampaignResult
from repro.faults.parallel import CampaignTimeoutError, run_parallel
from repro.faults.plan import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    random_plan,
)

__all__ = [
    "Campaign",
    "CampaignResult",
    "CampaignTimeoutError",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "random_plan",
    "run_parallel",
]
