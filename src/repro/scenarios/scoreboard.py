"""Per-tenant / per-tier SLO scoreboard, scored from trace records.

The scoreboard is deliberately **trace-based**: it consumes the
dispatcher/admission event stream instead of live controller or
dispatcher state, so any recorded trace — live or reloaded from JSONL
— scores the same.

It is fed live: :meth:`Scenario.run
<repro.scenarios.scenario.Scenario.run>` subscribes :meth:`Scoreboard.
ingest` to the tracer by :data:`SCOREBOARD_KEYS` before the run, so
only the records it scores reach it, each as it is stored, and a
bounded tracer (``trace_maxlen=``) scores the whole run, not the tail
its ring still holds.  :meth:`Scoreboard.from_records` replays a
loaded trace through the same :meth:`~Scoreboard.ingest`, and scores
it the same.

Events consumed (all emitted by existing instrumentation):

* ``admission submit/admit/reject/skip/shed`` — the per-tenant request
  stream and its decisions (``admit`` carries the ``activation_id``
  that ties a decision to its instance);
* ``dispatcher activate`` — activation time and task of each instance
  (the whole stream for admit-all scenarios with no controller);
* ``dispatcher instance_done / instance_abort / deadline_miss`` — the
  end state of each instance (response time, late completion, abort,
  miss-while-running);
* ``dispatcher eu_done`` — per-tier completion: scenario EUs are named
  ``{tier}:{j}``, so the last ``eu_done`` of a tier inside one
  activation dates that tier's fan-in.

Quantiles are exact (nearest-rank on the sorted sample), not
histogram-bucketed: p999 on a few thousand requests is precisely the
regime where bucket edges lie.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

# One exact-quantile implementation tree-wide: the scoreboard, the live
# monitoring windows and campaign report aggregation must agree on what
# "p99" means.
from repro.obs.metrics import exact_quantile

__all__ = ["TenantSLO", "Scoreboard"]

#: The trace keys the scoreboard scores (see the module docstring); a
#: live scoreboard subscribes by them.
SCOREBOARD_KEYS = (
    ("admission", "submit"), ("admission", "admit"),
    ("admission", "reject"), ("admission", "skip"),
    ("admission", "shed"),
    ("dispatcher", "activate"), ("dispatcher", "eu_done"),
    ("dispatcher", "instance_done"), ("dispatcher", "instance_abort"),
    ("dispatcher", "deadline_miss"),
)


@dataclass(frozen=True)
class TenantSLO:
    """One tenant's service-level declaration.

    ``mk`` is the (m, k)-firm window: among any k consecutive requests
    at least m must be *satisfied* (admitted and completed by the
    deadline); ``value`` is the value accrued per satisfied request.
    """

    name: str
    value: int = 1
    mk: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.mk is not None:
            m, k = self.mk
            if not 0 < m <= k:
                raise ValueError("mk must satisfy 0 < m <= k")


@dataclass
class _Activation:
    tenant: str
    start: int
    response: Optional[int] = None
    missed: bool = False
    aborted: bool = False
    done: bool = False
    tier_done: Dict[str, int] = field(default_factory=dict)

    @property
    def in_time(self) -> bool:
        return self.done and not self.missed


class Scoreboard:
    """Aggregated per-tenant / per-tier SLO accounting."""

    def __init__(self, tenants: Sequence[TenantSLO],
                 tiers: Sequence[str] = ()):
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError("duplicate tenant names")
        self.tenants: Dict[str, TenantSLO] = {t.name: t for t in tenants}
        self.tiers: List[str] = list(tiers)
        self._activations: Dict[str, _Activation] = {}
        #: Per tenant, the decision stream in trace order:
        #: ("admit", activation_id) | ("reject"|"skip"|"shed", None).
        self._decisions: Dict[str, List[Tuple[str, Optional[str]]]] = {
            name: [] for name in self.tenants}
        self._submits: Dict[str, int] = {name: 0 for name in self.tenants}
        self._had_admission: Dict[str, bool] = {
            name: False for name in self.tenants}

    # -- ingestion ---------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable, tenants: Sequence[TenantSLO],
                     tiers: Sequence[str] = ()) -> "Scoreboard":
        """Build a scoreboard by replaying a trace-record stream, such
        as a trace loaded with :func:`~repro.sim.trace.load_trace`."""
        board = cls(tenants, tiers)
        for record in records:
            board.ingest(record)
        return board

    def ingest(self, record) -> None:
        """Feed one trace record (:class:`~repro.sim.trace.TraceRecord`),
        in order; a record of a key outside :data:`SCOREBOARD_KEYS` is
        ignored.  No details dict is built: a dispatcher record is read
        by slot, in its key's declared layout, an admission record by
        ``record.get``."""
        category = record.category
        if category == "admission":
            self._ingest_admission(record)
            return
        if category != "dispatcher":
            return
        event = record.event
        if event == "instance_abort" or event == "deadline_miss":
            # task seq activation_id ...
            activation = self._activations.get(record.f2)
            if activation is not None:
                if event == "instance_abort":
                    activation.aborted = True
                else:
                    activation.missed = True
            return
        if event == "activate":
            # task seq activation_id deadline
            if record.f0 in self.tenants:
                self._activations[record.f2] = _Activation(
                    tenant=record.f0, start=record.time)
        elif event == "eu_done":
            # eu
            aid, _, eu_name = (record.f0 or "").partition("/")
            activation = self._activations.get(aid)
            if activation is not None and ":" in eu_name:
                tier = eu_name.split(":", 1)[0]
                done = activation.tier_done
                if tier not in done or done[tier] < record.time:
                    done[tier] = record.time
        elif event == "instance_done":
            # task seq activation_id response missed
            activation = self._activations.get(record.f2)
            if activation is not None:
                activation.done = True
                activation.response = record.f3
                activation.missed = bool(record.f4)

    def _ingest_admission(self, record) -> None:
        tenant = record.get("task")
        if tenant not in self.tenants:
            return
        event = record.event
        if event == "submit":
            self._submits[tenant] += 1
            self._had_admission[tenant] = True
        elif event == "admit":
            self._decisions[tenant].append(
                ("admit", record.get("activation_id")))
        elif event in ("reject", "skip"):
            self._decisions[tenant].append((event, None))
        elif event == "shed":
            # The victim's earlier "admit" stays in the stream; its
            # aborted instance makes the slot unsatisfied.  Count the
            # shed itself for the tally.
            self._decisions[tenant].append(("shed", None))

    # -- aggregation -------------------------------------------------------

    def _request_outcomes(self, tenant: str) -> List[bool]:
        """The tenant's request stream as satisfied/unsatisfied bits.

        With admission events the stream is the decision sequence
        (decision order == submission order: the controller queue is
        FIFO and each decision names its tenant); without a controller
        it is the activation sequence.  An admitted request is
        satisfied iff its instance completed by the deadline.
        """
        if self._had_admission[tenant]:
            outcomes: List[bool] = []
            for decision, aid in self._decisions[tenant]:
                if decision == "shed":
                    continue  # tallied; the victim's admit slot flips
                if decision != "admit":
                    outcomes.append(False)
                    continue
                activation = self._activations.get(aid)
                outcomes.append(activation is not None
                                and activation.in_time)
            return outcomes
        return [a.in_time for a in self._activations.values()
                if a.tenant == tenant]

    @staticmethod
    def mk_violations(outcomes: Sequence[bool],
                      mk: Tuple[int, int]) -> int:
        """Number of length-k windows with fewer than m satisfied."""
        m, k = mk
        if not 0 < m <= k:
            raise ValueError("mk must satisfy 0 < m <= k")
        violations = 0
        window_sum = 0
        for index, ok in enumerate(outcomes):
            window_sum += ok
            if index >= k:
                window_sum -= outcomes[index - k]
            if index >= k - 1 and window_sum < m:
                violations += 1
        return violations

    def tenant_stats(self, name: str) -> Dict[str, Any]:
        """One tenant's scoreboard row (see :meth:`to_dict`)."""
        slo = self.tenants[name]
        acts = [a for a in self._activations.values() if a.tenant == name]
        decisions = self._decisions[name]
        counts = {kind: sum(1 for d, _ in decisions if d == kind)
                  for kind in ("admit", "reject", "skip", "shed")}
        submitted = (self._submits[name] if self._had_admission[name]
                     else len(acts))
        completed = [a for a in acts if a.done]
        in_time = [a for a in completed if not a.missed]
        missed = (sum(1 for a in completed if a.missed)
                  + sum(1 for a in acts
                        if not a.done and not a.aborted and a.missed))
        admitted_work = len(acts)
        responses = sorted(a.response for a in completed
                           if a.response is not None)
        outcomes = self._request_outcomes(name)
        row: Dict[str, Any] = {
            "submitted": submitted,
            "admitted": (counts["admit"] if self._had_admission[name]
                         else len(acts)),
            "rejected": counts["reject"],
            "skipped": counts["skip"],
            "shed": counts["shed"],
            "completed": len(completed),
            "missed": missed,
            "miss_ratio": (round(missed / admitted_work, 6)
                           if admitted_work else 0.0),
            "p50": exact_quantile(responses, 0.5),
            "p99": exact_quantile(responses, 0.99),
            "p999": exact_quantile(responses, 0.999),
            "value": slo.value * len(in_time),
            "mk": list(slo.mk) if slo.mk else None,
            "mk_violations": (self.mk_violations(outcomes, slo.mk)
                              if slo.mk else None),
        }
        tier_rows: Dict[str, Any] = {}
        for tier in self.tiers:
            latencies = sorted(a.tier_done[tier] - a.start for a in acts
                               if tier in a.tier_done)
            tier_rows[tier] = {
                "completed": len(latencies),
                "p50": exact_quantile(latencies, 0.5),
                "p99": exact_quantile(latencies, 0.99),
                "p999": exact_quantile(latencies, 0.999),
            }
        if tier_rows:
            row["tiers"] = tier_rows
        return row

    def to_dict(self) -> Dict[str, Any]:
        """The whole scoreboard as a deterministic plain dict.

        Tenants are keyed in sorted order; every leaf is an int, a
        rounded float, a string, or None — safe to compare or JSON-dump
        byte-for-byte across runs.
        """
        return {name: self.tenant_stats(name)
                for name in sorted(self.tenants)}

    def publish(self, metrics) -> None:
        """Export headline figures as gauges on a metrics registry."""
        for name in sorted(self.tenants):
            row = self.tenant_stats(name)
            prefix = f"scenario.{name}."
            for key in ("submitted", "admitted", "completed", "missed",
                        "value"):
                metrics.gauge(prefix + key).set(row[key])
            for key in ("p50", "p99", "p999"):
                if row[key] is not None:
                    metrics.gauge(prefix + key).set(row[key])
            if row["mk_violations"] is not None:
                metrics.gauge(prefix + "mk_violations").set(
                    row["mk_violations"])

    def __repr__(self) -> str:
        return (f"<Scoreboard tenants={len(self.tenants)} "
                f"activations={len(self._activations)}>")
