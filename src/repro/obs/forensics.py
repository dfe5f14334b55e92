"""Deadline-miss forensics: blame reports from reconstructed spans.

For every activation that missed its deadline this module answers the
operator's question — *where did the time go, and who took it?* — from
the trace alone:

* the exact response-time decomposition (:func:`repro.obs.spans.decompose`),
* the cross-node critical path,
* a ranked list of concrete contributors: the task instances that
  preempted critical-path EUs, the resource holders that blocked them,
  and the links whose messages arrived late (or not at all).

The report also scopes each miss to its busy period: it counts the
competing activations and preemptions inside the miss window by
bisecting the sorted times the span forest keeps of them, so a live
tracer, a record iterable and a JSONL file give the same report.

Everything is deterministic: identical traces produce byte-identical
reports.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.spans import (
    ActivationSpan,
    CriticalHop,
    Decomposition,
    SpanForest,
    TraceSource,
    critical_path,
    decompose,
    reconstruct,
)

__all__ = ["Contributor", "MissReport", "analyze_miss", "forensics_report"]

_PREEMPT_STATES = ("preempted", "ready")
_BLOCK_PREFIX = ("blocked:", "waiting:")


@dataclass
class Contributor:
    """One ranked cause of lost time in a missed activation."""
    kind: str          # preemption | resource | network | blocked | stalled
    name: str          # who/what: thread, resource, link
    amount: int        # microseconds attributed
    detail: str = ""

    def format(self) -> str:
        text = f"{self.kind} {self.name}: {self.amount}us"
        return f"{text} ({self.detail})" if self.detail else text


@dataclass
class MissReport:
    """Forensic record for one missed deadline."""
    activation_id: str
    deadline: Optional[int]
    finish_time: Optional[int]
    decomposition: Optional[Decomposition]
    path: List[CriticalHop] = field(default_factory=list)
    contributors: List[Contributor] = field(default_factory=list)
    busy_preemptions: Optional[int] = None
    busy_activations: Optional[int] = None

    @property
    def overrun(self) -> Optional[int]:
        if self.deadline is None or self.finish_time is None:
            return None
        return self.finish_time - self.deadline


def _preemptor_blame(forest: SpanForest, path: List[CriticalHop]
                     ) -> Dict[str, int]:
    """Microseconds each foreign thread ran while a path EU waited."""
    blame: Dict[str, int] = {}
    for hop in path:
        node = hop.eu.node
        if node is None:
            continue
        for seg in hop.eu.segments:
            if seg.state not in _PREEMPT_STATES:
                continue
            seg_end = seg.end if seg.end is not None else hop.end
            lo, hi = max(seg.start, hop.begin), min(seg_end, hop.end)
            if hi <= lo:
                continue
            for sl in forest.cpu_slices_in(node, lo, hi):
                if sl.thread == hop.eu.qualified_name:
                    continue
                sl_end = sl.end if sl.end is not None else hi
                overlap = min(sl_end, hi) - max(sl.start, lo)
                if overlap > 0:
                    blame[sl.thread] = blame.get(sl.thread, 0) + overlap
    return blame


def _blocking_blame(path: List[CriticalHop]) -> List[Contributor]:
    out: List[Contributor] = []
    merged: Dict[str, int] = {}
    details: Dict[str, str] = {}
    for hop in path:
        for seg in hop.eu.segments:
            if not seg.state.startswith(_BLOCK_PREFIX):
                continue
            seg_end = seg.end if seg.end is not None else hop.end
            lo, hi = max(seg.start, hop.begin), min(seg_end, hop.end)
            if hi <= lo:
                continue
            if seg.state == "blocked:resource":
                holders = ",".join(seg.detail.get("holders", [])) or "?"
                key = f"resource {seg.detail.get('resource', '?')}"
                details[key] = f"held by {holders}"
            elif seg.state == "blocked:condvar":
                key = "condvar " + ",".join(seg.detail.get("condvars", []))
            else:
                key = seg.state
            merged[key] = merged.get(key, 0) + (hi - lo)
    for key in sorted(merged):
        out.append(Contributor("blocked", key, merged[key],
                               details.get(key, "")))
    return out


def _network_blame(activation: ActivationSpan, path: List[CriticalHop]
                   ) -> List[Contributor]:
    out: List[Contributor] = []
    for hop in path:
        edge = hop.edge
        if edge is None or not edge.remote:
            continue
        msg = edge.message
        pred = activation.eus.get(edge.src)
        pred_finish = pred.finish_time if pred is not None else None
        gap = (hop.begin - pred_finish) if pred_finish is not None else 0
        if msg is not None and msg.late:
            out.append(Contributor(
                "network", f"link {msg.link}", gap,
                f"msg {msg.norm_id} LATE +{msg.excess}us past bound "
                f"{msg.bound}us"))
        elif gap > 0:
            link = msg.link if msg is not None else f"->{hop.eu.node}"
            out.append(Contributor("network", f"link {link}", gap,
                                   f"edge {edge.index} transfer"))
    # Omissions never become path edges (the edge is never satisfied):
    # look at the activation's own dropped messages.
    for msg in activation.messages:
        if msg.outcome in ("dropped", "dst_crashed"):
            out.append(Contributor(
                "network", f"link {msg.link}", 0,
                f"msg {msg.norm_id} {msg.outcome}"
                + (f" ({msg.drop_reason})" if msg.drop_reason else "")))
    return out


def _stall_blame(activation: ActivationSpan) -> List[Contributor]:
    """Contributors for activations that never finished."""
    out: List[Contributor] = []
    for eu in sorted(activation.eus.values(), key=lambda e: e.qualified_name):
        if eu.finish_time is not None:
            continue
        if eu.segments:
            last = eu.segments[-1]
            name = eu.qualified_name
            detail = " ".join(f"{k}={v}" for k, v in sorted(
                last.detail.items()))
            out.append(Contributor("stalled", name, 0,
                                   f"last state {last.state}"
                                   + (f" {detail}" if detail else "")))
        else:
            out.append(Contributor("stalled", eu.qualified_name, 0,
                                   "never became runnable"))
    observed = len(activation.eus)
    remaining = activation.remaining_at_miss
    # EUs that never emitted a single record (e.g. the far side of a
    # dropped remote edge) are invisible above; the deadline-miss
    # record's remaining count still names how many never started.
    if remaining is not None and remaining > len(out):
        out.append(Contributor(
            "stalled", activation.activation_id, 0,
            f"{remaining} EU(s) unfinished at the miss, "
            f"{observed} ever observed"))
    return out


def _count_in(times: List[int], t0: int, t1: int) -> int:
    """How many of the sorted ``times`` lie in ``[t0, t1]``."""
    return bisect_right(times, t1) - bisect_left(times, t0)


def analyze_miss(forest: SpanForest,
                 activation: ActivationSpan) -> MissReport:
    """Full forensic work-up of one missed activation."""
    path = critical_path(activation)
    dec = decompose(activation, path)
    report = MissReport(activation.activation_id, activation.deadline,
                        activation.finish_time, dec, path)

    contributors: List[Contributor] = []
    preemptors = _preemptor_blame(forest, path)
    for thread in sorted(preemptors):
        contributors.append(Contributor("preemption", thread,
                                        preemptors[thread],
                                        "ran while a critical-path EU "
                                        "waited for the CPU"))
    contributors.extend(_blocking_blame(path))
    contributors.extend(_network_blame(activation, path))
    if not activation.finished:
        contributors.extend(_stall_blame(activation))
    contributors.sort(key=lambda c: (-c.amount, c.kind, c.name))
    report.contributors = contributors

    if activation.activation_time is not None:
        # Busy-period scoping: everything that competed inside the miss
        # window, both ends included.
        t0 = activation.activation_time
        t1 = (activation.finish_time if activation.finish_time is not None
              else forest.t_end)
        report.busy_preemptions = _count_in(forest.preempt_times, t0, t1)
        report.busy_activations = _count_in(forest.activate_times, t0, t1)
    return report


def _format_path(activation: ActivationSpan, path: List[CriticalHop]
                 ) -> List[str]:
    lines = []
    for hop in path:
        if hop.edge is not None:
            arrow = f"    --edge {hop.edge.index}"
            msg = hop.edge.message
            if msg is not None:
                arrow += f" (msg {msg.norm_id} {msg.link} {msg.outcome}"
                if msg.late:
                    arrow += f" +{msg.excess}us"
                arrow += ")"
            lines.append(arrow + "-->")
        where = f" on {hop.eu.node}" if hop.eu.node else ""
        if hop.eu.engine != "cpu":
            where += f" [{hop.eu.engine}]"
        running = sum(seg.duration(hop.end) for seg in hop.eu.segments
                      if seg.state == "running")
        lines.append(f"    {hop.eu.qualified_name}"
                     f" [{hop.begin}..{hop.end}]{where}"
                     f" ran {running}us")
    return lines


def forensics_report(source: TraceSource,
                     forest: Optional[SpanForest] = None) -> str:
    """Deterministic plain-text deadline-miss report.

    ``source`` may be a Tracer, a record iterable, or a JSONL path;
    pass ``forest`` to reuse an already-reconstructed forest.  Every
    source of the same records gives the same report.
    """
    if forest is None:
        forest = reconstruct(source)
    activations = list(forest.activations.values())
    misses = forest.misses()
    aborted = sum(1 for a in activations if a.aborted)

    lines = [
        "HADES deadline-miss forensics",
        "=============================",
        f"trace window: 0 .. {forest.t_end}us",
        f"activations: {len(activations)} ({len(misses)} missed, "
        f"{aborted} aborted)",
    ]
    if forest.has_admission:
        # Never-admitted arrivals never become activations — surface
        # how many were turned away so the miss list reads correctly.
        by_event = {}
        for event in forest.admission_events:
            by_event[event.event] = by_event.get(event.event, 0) + 1
        lines.append(
            f"admission: {forest.admission_submits} submitted, "
            f"{forest.admission_admits} admitted, "
            f"{by_event.get('reject', 0)} rejected, "
            f"{by_event.get('shed', 0)} shed, "
            f"{by_event.get('skip', 0)} skipped, "
            f"{by_event.get('forward', 0)} forwarded "
            f"({by_event.get('forward_timeout', 0)} timed out)")
    if forest.alerts:
        # Alert transitions bracket the misses below in time — a miss
        # inside a raise..clear window was a *detected* failure.
        raises = sum(1 for a in forest.alerts if a.event == "raise")
        clears = sum(1 for a in forest.alerts if a.event == "clear")
        lines.append(f"alerts: {raises} raised, {clears} cleared")
        for alert in forest.alerts:
            burn = alert.detail.get("burn_fast_milli")
            lines.append(
                f"  {alert.time:>10}us {alert.event:<11} "
                f"{alert.tenant}/{alert.rule}"
                + (f" burn={burn / 1000:.2f}x" if burn is not None
                   else ""))
    lines.append("")
    if not misses:
        lines.append("no deadline misses.")
        return "\n".join(lines) + "\n"

    for activation in misses:
        report = analyze_miss(forest, activation)
        head = f"MISS {activation.activation_id}"
        if forest.has_admission:
            # A guaranteed-then-missed activation is an admission-test
            # failure; an unadmitted one bypassed the controller.
            head += (" [admitted]" if activation.admitted
                     else " [not admitted]")
        if activation.deadline is not None:
            head += f"  deadline={activation.deadline}"
        if activation.finish_time is not None:
            head += f" finish={activation.finish_time}"
            if report.overrun is not None:
                head += f" overrun=+{report.overrun}us"
        else:
            head += " (never finished)"
        lines.append(head)
        dec = report.decomposition
        if dec is not None:
            lines.append(
                f"  response {dec.response}us = executing {dec.executing}"
                f" + preempted {dec.preempted} + blocked {dec.blocked}"
                f" + network {dec.network} + slack {dec.slack}")
        if report.path:
            lines.append("  critical path:")
            lines.extend(_format_path(activation, report.path))
        if report.contributors:
            lines.append("  blame:")
            for rank, contributor in enumerate(report.contributors, 1):
                lines.append(f"    {rank}. {contributor.format()}")
        if report.busy_preemptions is not None:
            lines.append(
                f"  busy period: {report.busy_activations} activations, "
                f"{report.busy_preemptions} preemptions in window")
        lines.append("")
    return "\n".join(lines) + "\n"
