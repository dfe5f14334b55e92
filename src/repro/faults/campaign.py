"""Fault-injection campaigns: many seeded runs, aggregated metrics.

A campaign runs a user-supplied *scenario* once per seed.  The scenario
builds a system, applies a fault plan, runs it, and returns either a
metric dict, a :class:`~repro.obs.RunReport`, or a dict containing a
``RunReport`` among its values.  The campaign aggregates across seeds —
the shape used by the monitoring-coverage benchmark (experiment E9).

Structured reports beat ad-hoc dicts for two reasons: every run exposes
the same counter namespace (no missing-key guessing), and histograms
merge bucket-wise instead of collapsing to a single mean-of-means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import RunReport, aggregate_reports

Scenario = Callable[[int], Union[Dict[str, Any], RunReport]]


def normalise_outcome(outcome: Union[Dict[str, Any], RunReport],
                      seed: int) -> Tuple[Dict[str, Any],
                                          Optional[RunReport]]:
    """Turn one scenario outcome into ``(metrics, report)``.

    A bare :class:`RunReport` contributes its flattened metrics as the
    run dict; a dict may embed a ``RunReport`` under any key — the
    first one found (in insertion order) becomes the run's report and
    its flattened metrics back-fill keys the dict does not set.  Shared
    by the serial and parallel executors so both produce identical
    per-run dicts.
    """
    if isinstance(outcome, RunReport):
        report: Optional[RunReport] = outcome
        metrics: Dict[str, Any] = dict(outcome.flat())
    else:
        metrics = outcome
        report = next((value for value in metrics.values()
                       if isinstance(value, RunReport)), None)
        if report is not None:
            for key, value in report.flat().items():
                metrics.setdefault(key, value)
    metrics.setdefault("seed", seed)
    return metrics, report


@dataclass
class CampaignResult:
    """Aggregated campaign outcome."""

    runs: int
    per_run: List[Dict[str, Any]] = field(default_factory=list)
    #: Structured per-run metric snapshots, in seed order (one entry per
    #: run whose scenario produced a :class:`RunReport`).
    reports: List[RunReport] = field(default_factory=list)

    def mean(self, key: str) -> float:
        """Mean of a metric across runs (0.0 with no matching runs).

        Like every per-key statistic here, runs that do not record
        ``key`` are *skipped*, not treated as zero — so ``mean(k) ==
        total(k) / present(k)`` always holds, while ``total(k) / runs``
        does not when some run lacks ``k``.
        """
        values = [run[key] for run in self.per_run if key in run]
        return sum(values) / len(values) if values else 0.0

    def total(self, key: str) -> float:
        """Sum of a metric across the runs that record it.

        Runs lacking ``key`` are skipped (same rule as :meth:`mean` and
        :meth:`maximum`), keeping ``total(k) == mean(k) * present(k)``.
        """
        return sum(run[key] for run in self.per_run if key in run)

    def maximum(self, key: str) -> float:
        """Maximum of a metric across runs (skips runs lacking the key)."""
        values = [run[key] for run in self.per_run if key in run]
        return max(values) if values else 0.0

    def present(self, key: str) -> int:
        """Number of runs that record ``key`` — the denominator of
        :meth:`mean`."""
        return sum(1 for run in self.per_run if key in run)

    def fraction(self, key: str) -> float:
        """Fraction of runs where ``key`` is truthy."""
        if not self.per_run:
            return 0.0
        return sum(1 for run in self.per_run if run.get(key)) / len(self.per_run)

    def aggregate(self) -> Optional[RunReport]:
        """One campaign-level :class:`RunReport` merging every run's
        report: counters summed, histograms merged bucket-wise, gauges
        averaged (mean of values, max of maxima).  None when no run
        produced a report."""
        if not self.reports:
            return None
        return aggregate_reports(self.reports)

    def counter_total(self, name: str) -> int:
        """Sum of one report counter across runs (0 with no reports)."""
        return sum(report.counter(name) for report in self.reports)

    def counter_mean(self, name: str) -> float:
        """Mean of one report counter across runs (0.0 with no reports)."""
        if not self.reports:
            return 0.0
        return self.counter_total(name) / len(self.reports)


class Campaign:
    """Run a scenario across seeds."""

    def __init__(self, scenario: Scenario, seeds: Sequence[int]):
        self.scenario = scenario
        self.seeds = list(seeds)

    def run(self, jobs: Optional[int] = None, *,
            timeout: Optional[float] = None,
            retries: int = 1,
            chunk_size: Optional[int] = None,
            on_timeout: str = "record") -> CampaignResult:
        """Execute the scenario once per seed; returns the aggregate.

        A scenario returning a bare :class:`RunReport` contributes its
        flattened metrics as that run's dict; a scenario returning a
        dict may embed a ``RunReport`` under any key — it is collected
        into :attr:`CampaignResult.reports` and its flattened metrics
        back-fill keys the dict does not set explicitly.

        With ``jobs`` > 1 the seeds fan out to forked worker processes,
        one per chunk (see :mod:`repro.faults.parallel`); results merge
        back in seed order so the :class:`CampaignResult` is identical
        to the serial path.  ``timeout`` (seconds, wall-clock, per
        seed), ``retries``, ``chunk_size`` and ``on_timeout`` tune the
        parallel executor and are ignored when running serially.
        """
        if jobs is not None and jobs > 1:
            from repro.faults.parallel import run_parallel
            return run_parallel(self.scenario, self.seeds, jobs=jobs,
                                timeout=timeout, retries=retries,
                                chunk_size=chunk_size,
                                on_timeout=on_timeout)
        result = CampaignResult(runs=len(self.seeds))
        for seed in self.seeds:
            metrics, report = normalise_outcome(self.scenario(seed), seed)
            result.per_run.append(metrics)
            if report is not None:
                result.reports.append(report)
        return result
