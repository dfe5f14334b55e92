"""Seed-deterministic wire format for the parallel fault campaigns.

The fault-campaign pool (:mod:`repro.faults.parallel`) moves per-run
results between processes as plain picklable data: metric dicts with
every :class:`~repro.obs.metrics.RunReport` flattened to its
``to_dict()`` form, insertion order preserved.  This module is the
single definition of that format, so a payload encoded by a worker
always decodes in the parent and merge order stays deterministic.  A
bare report needs no format of its own: the sharded coordinator
(:mod:`repro.sim.sharded`) ships ``RunReport.to_dict()`` and rebuilds
it with ``RunReport.from_dict()``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import RunReport

__all__ = ["REPORT_TAG", "encode_run", "decode_run"]

#: Wire tag marking a metric value that was a RunReport before pickling.
REPORT_TAG = "__runreport__"


def encode_run(metrics: Dict[str, Any],
               report: Optional[RunReport]) -> Dict[str, Any]:
    """Flatten one normalised run into a picklable payload.

    Metric-dict insertion order is preserved (a list of triples), and
    every ``RunReport`` value is replaced by its ``to_dict()`` form so
    the payload is plain data.  A *bare* report (one not embedded in
    the metrics dict) travels separately under ``"report"``.
    """
    encoded: List[List[Any]] = []
    embedded = False
    for key, value in metrics.items():
        if isinstance(value, RunReport):
            encoded.append([key, REPORT_TAG, value.to_dict()])
            embedded = True
        else:
            encoded.append([key, None, value])
    return {
        "metrics": encoded,
        "report": (None if report is None or embedded
                   else report.to_dict()),
    }


def decode_run(seed: int, payload: Dict[str, Any],
               ) -> Tuple[Dict[str, Any], Optional[RunReport]]:
    """Inverse of :func:`encode_run`; also decodes worker error runs."""
    if payload.get("error"):
        return {"seed": seed, "campaign_error": payload["error"]}, None
    metrics: Dict[str, Any] = {}
    for key, tag, value in payload["metrics"]:
        metrics[key] = (RunReport.from_dict(value) if tag == REPORT_TAG
                        else value)
    # Same first-embedded-report rule as the serial normaliser, so the
    # object collected into CampaignResult.reports is the one sitting
    # in the per-run dict.
    report = next((value for value in metrics.values()
                   if isinstance(value, RunReport)), None)
    if report is None and payload.get("report") is not None:
        report = RunReport.from_dict(payload["report"])
    return metrics, report

