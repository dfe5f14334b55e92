"""Causal span reconstruction from HADES traces.

This module turns a flat :class:`~repro.sim.trace.Tracer` stream (or a
JSONL trace file) back into the *causal structure* the dispatcher
executed: per-activation span trees linking

* the activation window (``dispatcher/activate`` → ``instance_done``),
* per-EU thread segments — running / preempted / ready / blocked on a
  resource, condition variable, gate or earliest-start hold / waiting
  on a sleep or event,
* network message spans (``network/send`` → ``deliver`` / ``drop`` /
  ``dst_crashed``), annotated LATE when delivery exceeded the link's
  guaranteed bound,

joined by the stable correlation ids the runtime emits:
``activation_id`` (``task#seq``), EU qualified names (``task#seq/eu``,
doubling as kernel-thread names) and per-run message ids.

Reconstruction is a single O(n) pass over the records — each record is
touched once and handled with O(1) dict work — and is deterministic:
two byte-identical traces reconstruct byte-identical forests, and
message ids are *normalised* by first-send order so traces produced by
different campaign processes (whose raw message counters may be
offset) still compare equal structurally.

On top of the forest sit the forensic primitives used by
:mod:`repro.obs.forensics` and :mod:`repro.obs.timeline`:

* :func:`critical_path` — the cross-node chain of EU windows and
  remote edges that determined an activation's finish time, extracted
  by walking ``edge_satisfied`` records backwards from the
  last-finishing EU;
* :func:`decompose` — an *exact* response-time decomposition into
  executing / preempted / blocked / network / slack whose components
  sum to the measured response time by construction (the critical
  path's windows partition the activation interval; every microsecond
  is classified exactly once).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from heapq import merge
from itertools import islice
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.sim.trace import (LAYOUTS, TraceRecord, Tracer, layout,
                             read_jsonl)

__all__ = [
    "Segment",
    "MessageSpan",
    "EdgeInfo",
    "EUSpan",
    "ActivationSpan",
    "AdmissionEvent",
    "AlertEvent",
    "SpanForest",
    "CpuSlice",
    "CriticalHop",
    "Decomposition",
    "SpanError",
    "reconstruct",
    "critical_path",
    "decompose",
]

# Segment states an EU span can be in, and the response-time component
# each one is charged to by :func:`decompose`.
_STATE_COMPONENT = {
    "running": "executing",
    "ready": "preempted",
    "preempted": "preempted",
    "blocked:resource": "blocked",
    "blocked:condvar": "blocked",
    "blocked:gate": "blocked",
    "blocked:earliest": "slack",   # deliberate hold, not interference
    "waiting:sleep": "blocked",
    "waiting:event": "blocked",
    "waiting:withdrawn": "blocked",
}


class SpanError(RuntimeError):
    """A reconstructed span violated a structural invariant."""


@dataclass
class Segment:
    """One contiguous state interval of an EU's execution."""
    state: str                      # key of _STATE_COMPONENT
    start: int
    end: Optional[int] = None       # None: still open at trace end
    detail: Dict[str, Any] = field(default_factory=dict)

    def duration(self, default_end: Optional[int] = None) -> int:
        """Length in microseconds (``default_end`` closes open segments)."""
        end = self.end if self.end is not None else default_end
        if end is None:
            return 0
        return max(0, end - self.start)


@dataclass
class MessageSpan:
    """One message's life on a link, send to fate."""
    norm_id: int                    # first-send order, 1-based
    raw_id: int                     # per-run Network counter value
    link: str                       # "src->dst"
    kind: str
    size: int
    send_time: int
    deliver_time: Optional[int] = None
    outcome: str = "in_flight"      # delivered|late|dropped|dst_crashed
    latency: Optional[int] = None
    bound: Optional[int] = None
    drop_reason: Optional[str] = None
    activation_id: Optional[str] = None
    edge: Optional[int] = None      # HEUG edge index (heug-edge msgs)

    @property
    def late(self) -> bool:
        """Whether delivery exceeded the link's guaranteed bound."""
        return self.outcome == "late"

    @property
    def excess(self) -> int:
        """Microseconds past the guaranteed bound (0 if on time)."""
        if self.latency is None or self.bound is None:
            return 0
        return max(0, self.latency - self.bound)

    @property
    def src(self) -> str:
        return self.link.split("->", 1)[0]

    @property
    def dst(self) -> str:
        return self.link.split("->", 1)[1]


@dataclass
class EdgeInfo:
    """One satisfied HEUG precedence edge within an activation."""
    index: int
    src: str                        # EU short names
    dst: str
    satisfied_time: int
    message: Optional[MessageSpan] = None   # set for remote edges
    send_requested: Optional[int] = None    # remote_edge_sent time

    @property
    def remote(self) -> bool:
        return self.message is not None or self.send_requested is not None


@dataclass
class EUSpan:
    """One EU instance's execution, as a sequence of state segments."""
    qualified_name: str             # "task#seq/eu"
    eu: str                         # short EU name
    activation_id: str
    kind: str = "code"              # "code" | "inv"
    node: Optional[str] = None
    #: Engine class the unit ran on ("cpu", or "gpu"/"dsp"/… for units
    #: mapped to an accelerator — repro.hetero).
    engine: str = "cpu"
    priority: Optional[int] = None
    ready_time: Optional[int] = None
    first_run: Optional[int] = None
    finish_time: Optional[int] = None
    error: bool = False
    segments: List[Segment] = field(default_factory=list)

    def open_segment(self, state: str, time: int, **detail: Any) -> None:
        """Close the current segment at ``time`` and open a new one."""
        self.close_segment(time)
        self.segments.append(Segment(state, time, None, detail))

    def close_segment(self, time: int) -> None:
        """Close the open segment (dropping it if zero-length)."""
        if self.segments and self.segments[-1].end is None:
            last = self.segments[-1]
            if time <= last.start:
                self.segments.pop()
            else:
                last.end = time


@dataclass
class ActivationSpan:
    """One task activation: the root of a span tree."""
    activation_id: str              # "task#seq"
    task: str
    seq: int
    activation_time: Optional[int] = None
    deadline: Optional[int] = None
    finish_time: Optional[int] = None
    response_time: Optional[int] = None
    missed: bool = False
    miss_detected_at: Optional[int] = None
    remaining_at_miss: Optional[int] = None
    aborted: bool = False
    abort_reason: Optional[str] = None
    #: True when an AdmissionController released this activation
    #: (``admission/admit``); stays False for activations released
    #: outside admission control.
    admitted: bool = False
    eus: Dict[str, EUSpan] = field(default_factory=dict)       # by short name
    edges: Dict[int, EdgeInfo] = field(default_factory=dict)   # by edge index
    messages: List[MessageSpan] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return self.finish_time is not None


@dataclass
class AdmissionEvent:
    """One admission-control decision that did *not* release work:
    reject / shed / skip / forward / forward_result / forward_timeout /
    degrade (admits are recorded on the activation span instead)."""
    time: int
    event: str
    task: str
    node: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)


@dataclass
class AlertEvent:
    """One live-monitor alert transition (``alert raise`` / ``clear``)
    or admission reconfiguration it triggered — a first-class causal
    event in the forest."""
    time: int
    event: str                    # "raise" | "clear" | "reconfigure"
    tenant: str
    rule: str
    node: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)


@dataclass
class CpuSlice:
    """One contiguous interval a thread held a processing unit."""
    node: str
    thread: str
    start: int
    end: Optional[int] = None
    priority: Optional[int] = None
    #: Label of the unit that ran the slice: "cpu" for the node's CPU,
    #: or the engine-unit label ("gpu0", "dsp1", …) for accelerators.
    engine: str = "cpu"


@dataclass
class CriticalHop:
    """One chain link of an activation's critical path."""
    eu: EUSpan
    begin: int                      # causally runnable (edges satisfied)
    end: int                        # EU finish
    edge: Optional[EdgeInfo] = None  # incoming edge that set ``begin``


@dataclass
class Decomposition:
    """Exact response-time decomposition along the critical path.

    ``executing + preempted + blocked + network + slack ==
    response`` always holds: the critical path's hop windows partition
    ``[activation_time, finish_time]`` and every microsecond inside a
    window is classified by exactly one segment (uncovered remainder is
    slack).
    """
    activation_id: str
    response: int
    executing: int = 0
    preempted: int = 0
    blocked: int = 0
    network: int = 0
    slack: int = 0
    path: List[CriticalHop] = field(default_factory=list)
    #: ``executing`` split by the engine class that ran each hop
    #: (values sum exactly to ``executing``; {"cpu": executing} for
    #: engine-free activations).
    executing_by_engine: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return (self.executing + self.preempted + self.blocked
                + self.network + self.slack)

    def as_dict(self) -> Dict[str, int]:
        return {"executing": self.executing, "preempted": self.preempted,
                "blocked": self.blocked, "network": self.network,
                "slack": self.slack, "response": self.response}


class SpanForest:
    """Every activation span reconstructed from one trace."""

    def __init__(self) -> None:
        #: activation_id -> ActivationSpan, in activation order.
        self.activations: Dict[str, ActivationSpan] = {}
        #: every message span, in send order (index+1 == norm_id).
        self.messages: List[MessageSpan] = []
        #: node -> CPU slices of every thread and engine unit, in the
        #: order the builder closed them.  That is not start order on a
        #: node with engine units, whose slices overlap the CPU's.
        #: Slices still open at trace end come last, with ``end=None``.
        self.cpu_slices: Dict[str, List[CpuSlice]] = {}
        # node -> ((slice count, t_end) it was built for, its chains);
        # see _slice_chains.
        self._chains: Dict[str, Tuple[Tuple[int, int], List[list]]] = {}
        #: node ids in first-appearance order.
        self.nodes: List[str] = []
        #: largest record time seen.
        self.t_end: int = 0
        #: admission decisions that did not release work, in trace order.
        self.admission_events: List[AdmissionEvent] = []
        #: arrivals offered to / released by admission control.
        self.admission_submits: int = 0
        self.admission_admits: int = 0
        #: live-monitor alert transitions (and the reconfigurations
        #: they triggered), in trace order.
        self.alerts: List[AlertEvent] = []
        #: the times of every ``dispatcher/activate`` and ``cpu/preempt``
        #: record, sorted, so a time window is found by bisection.
        self.activate_times: List[int] = []
        self.preempt_times: List[int] = []

    @property
    def has_admission(self) -> bool:
        """Whether this trace went through an AdmissionController."""
        return bool(self.admission_submits or self.admission_events
                    or self.admission_admits)

    def misses(self) -> List[ActivationSpan]:
        """Activations that missed their deadline, in activation order."""
        return [a for a in self.activations.values() if a.missed]

    def cpu_slices_in(self, node: str, t0: int, t1: int) -> List[CpuSlice]:
        """Slices on ``node`` overlapping ``[t0, t1]``, in close order.

        A slice overlaps when it starts before ``t1`` and ends after
        ``t0``; a slice still open at trace end ends at :attr:`t_end`.
        O(log n + k) for k slices found, once the node's chains exist.
        """
        slices = self.cpu_slices.get(node, ())
        chains = self._slice_chains(node, slices)
        runs = []
        for starts, ends, positions, _reach in chains:
            lo = bisect_right(ends, t0)
            hi = bisect_left(starts, t1, lo)
            if lo < hi:
                runs.append(positions[lo:hi])
        return [slices[pos] for pos in merge(*runs)]

    def _slice_chains(self, node: str,
                      slices: List[CpuSlice]) -> List[list]:
        """Split ``node``'s slices into chains sorted by start and end.

        A chain is ``[starts, ends, positions, reach]``: parallel lists
        of slices that follow one another in time, their positions in
        ``slices``, and the time the last one reaches (its end, or its
        start if it ends before it).  Within a chain both starts and
        ends are sorted, so the slices overlapping a window are one
        contiguous run.  Each engine unit runs one slice at a time, so
        a monotone trace gives one chain per unit; a slice that does
        not follow its unit's chain starts a new one.  Rebuilt when the
        list has grown or :attr:`t_end` has changed.
        """
        key = (len(slices), self.t_end)
        cached = self._chains.get(node)
        if cached is not None and cached[0] == key:
            return cached[1]
        t_end = self.t_end
        chains: List[list] = []
        current: Dict[str, list] = {}
        for pos, sl in enumerate(slices):
            start = sl.start
            end = sl.end if sl.end is not None else t_end
            chain = current.get(sl.engine)
            if chain is None or not chain[3] <= start <= end:
                chain = current[sl.engine] = [[], [], [], start]
                chains.append(chain)
            chain[0].append(start)
            chain[1].append(end)
            chain[2].append(pos)
            chain[3] = end if end > start else start
        self._chains[node] = (key, chains)
        return chains


# ---------------------------------------------------------------------------
# Reconstruction (single pass)
# ---------------------------------------------------------------------------

TraceSource = Union[Tracer, str, Iterable[TraceRecord]]


def _fields_after(record: TraceRecord, count: int) -> Dict[str, Any]:
    """The record's fields after its first ``count``, as a dict."""
    return dict(islice(record.details.items(), count, None))


class _Builder:
    """Single-pass state machine folding records into a SpanForest.

    Each handler reads its record's field slots in the key's declared
    layout (:data:`repro.sim.trace.LAYOUTS`); the comment under each
    names its fields, optional trailing ones in brackets (their slots
    hold ``None`` when absent).  Only a rare record whose optional
    fields become a segment's or an event's detail builds a dict.
    """

    def __init__(self) -> None:
        self.forest = SpanForest()
        self._nodes_seen = set()
        #: thread name -> EUSpan for live EU threads.
        self._threads: Dict[str, EUSpan] = {}
        #: (link, raw msg id) -> MessageSpan for in-flight messages.
        self._in_flight: Dict[Tuple[str, int], MessageSpan] = {}
        #: (activation_id, edge index) of sends awaiting their msg span.
        self._pending_remote: Dict[Tuple[str, int], int] = {}
        #: (node, engine unit label) -> open CpuSlice.  The CPU and the
        #: node's accelerator units run concurrently, so each unit has
        #: its own open slice.
        self._open_slice: Dict[Tuple[str, str], CpuSlice] = {}

    # -- helpers ---------------------------------------------------------

    def _activation(self, activation_id: str) -> ActivationSpan:
        span = self.forest.activations.get(activation_id)
        if span is None:
            task, _, seq = activation_id.rpartition("#")
            span = ActivationSpan(activation_id, task,
                                  int(seq) if seq.isdigit() else -1)
            self.forest.activations[activation_id] = span
        return span

    def _eu_span(self, qualified_name: str, kind: str = "code") -> EUSpan:
        activation_id, _, eu = qualified_name.rpartition("/")
        activation = self._activation(activation_id)
        span = activation.eus.get(eu)
        if span is None:
            span = EUSpan(qualified_name, eu, activation_id, kind=kind)
            activation.eus[eu] = span
        return span

    def _note_node(self, node: str) -> None:
        if node not in self._nodes_seen:
            self._nodes_seen.add(node)
            self.forest.nodes.append(node)

    def _eu_for_thread(self, thread: str) -> Optional[EUSpan]:
        span = self._threads.get(thread)
        if span is not None:
            return span
        # Inv_EU invocation threads are named "inv:task#seq/eu".
        name = thread[4:] if thread.startswith("inv:") else thread
        if "#" in name and "/" in name:
            activation_id, _, eu = name.rpartition("/")
            activation = self.forest.activations.get(activation_id)
            if activation is not None and eu in activation.eus:
                span = activation.eus[eu]
            elif activation is not None:
                kind = "inv" if thread.startswith("inv:") else "code"
                span = self._eu_span(name, kind=kind)
            if span is not None:
                self._threads[thread] = span
                return span
        return None

    # -- record handlers -------------------------------------------------

    def feed(self, rec: TraceRecord) -> None:
        time = rec.time
        if time > self.forest.t_end:
            self.forest.t_end = time
        handler = self._BY_LAYOUT.get(rec.layout)
        if handler is not None:
            handler(self, time, rec)

    def _on_activate(self, time: int, r: TraceRecord) -> None:
        # task seq activation_id deadline
        span = self._activation(r.f2)
        span.activation_time = time
        span.deadline = r.f3
        self.forest.activate_times.append(time)

    def _on_eu_blocked(self, time: int, r: TraceRecord) -> None:
        # eu cause [condvars | until | resource holders]
        span = self._eu_span(r.f0)
        span.open_segment(f"blocked:{r.f1}", time, **_fields_after(r, 2))

    def _on_thread_start(self, time: int, r: TraceRecord) -> None:
        # eu node priority [engine]
        span = self._eu_span(r.f0)
        node = span.node = r.f1
        span.engine = "cpu" if r.f3 is None else r.f3
        span.priority = r.f2
        span.ready_time = time
        if node:
            self._note_node(node)
        span.open_segment("ready", time)
        self._threads[span.qualified_name] = span

    def _on_eu_done(self, time: int, r: TraceRecord) -> None:
        # eu
        span = self._eu_span(r.f0)
        span.close_segment(time)
        span.finish_time = time
        self._threads.pop(span.qualified_name, None)
        self._threads.pop("inv:" + span.qualified_name, None)

    def _on_inv_done(self, time: int, r: TraceRecord) -> None:
        # eu
        span = self._eu_span(r.f0, kind="inv")
        span.kind = "inv"
        span.close_segment(time)
        span.finish_time = time
        self._threads.pop("inv:" + span.qualified_name, None)

    def _on_eu_error(self, time: int, r: TraceRecord) -> None:
        # eu
        span = self._eu_span(r.f0)
        span.close_segment(time)
        span.error = True
        span.finish_time = time

    def _on_edge_satisfied(self, time: int, r: TraceRecord) -> None:
        # activation_id edge src dst remaining
        activation_id, index = r.f0, r.f1
        activation = self._activation(activation_id)
        info = activation.edges.get(index)
        if info is None:
            info = EdgeInfo(index, r.f2, r.f3, time)
            activation.edges[index] = info
        else:
            info.satisfied_time = time
        key = (activation_id, index)
        if key in self._pending_remote:
            info.send_requested = self._pending_remote.pop(key)

    def _on_remote_edge_sent(self, time: int, r: TraceRecord) -> None:
        # eu dst activation_id edge
        activation_id, index = r.f2, r.f3
        self._pending_remote[(activation_id, index)] = time
        activation = self._activation(activation_id)
        if index in activation.edges:
            activation.edges[index].send_requested = time

    def _on_instance_done(self, time: int, r: TraceRecord) -> None:
        # task seq activation_id response missed
        span = self._activation(r.f2)
        span.finish_time = time
        span.response_time = r.f3
        span.missed = bool(r.f4)
        for eu in span.eus.values():
            eu.close_segment(time)

    def _on_instance_abort(self, time: int, r: TraceRecord) -> None:
        # task seq activation_id reason
        span = self._activation(r.f2)
        span.aborted = True
        span.abort_reason = r.f3
        for eu in span.eus.values():
            eu.close_segment(time)
            self._threads.pop(eu.qualified_name, None)
            self._threads.pop("inv:" + eu.qualified_name, None)

    def _on_deadline_miss(self, time: int, r: TraceRecord) -> None:
        # task seq activation_id deadline remaining_eus
        span = self._activation(r.f2)
        span.missed = True
        span.miss_detected_at = time
        span.remaining_at_miss = r.f4

    def _on_dispatch(self, time: int, r: TraceRecord) -> None:
        # node thread remaining priority [engine]
        node, thread = r.f0, r.f1
        engine = "cpu" if r.f4 is None else r.f4
        self._note_node(node)
        self._close_slice(node, engine, time)
        self._open_slice[(node, engine)] = CpuSlice(
            node, thread, time, None, r.f3, engine)
        span = self._eu_for_thread(thread)
        if span is not None:
            if span.first_run is None:
                span.first_run = time
            span.open_segment("running", time)

    def _on_preempt(self, time: int, r: TraceRecord) -> None:
        # node thread by by_priority [engine]
        self.forest.preempt_times.append(time)
        self._close_slice(r.f0, "cpu" if r.f4 is None else r.f4, time)
        span = self._eu_for_thread(r.f1)
        if span is not None:
            span.open_segment("preempted", time, by=r.f2,
                              by_priority=r.f3)

    def _on_complete(self, time: int, r: TraceRecord) -> None:
        # node thread [engine]
        self._close_slice(r.f0, "cpu" if r.f2 is None else r.f2, time)
        span = self._eu_for_thread(r.f1)
        if span is not None:
            # The body continues at this instant: either more compute
            # (re-dispatch), a block, or eu_done — all close this.
            span.open_segment("ready", time)

    def _on_withdraw(self, time: int, r: TraceRecord) -> None:
        # node thread [engine]
        self._close_slice(r.f0, "cpu" if r.f2 is None else r.f2, time)
        span = self._eu_for_thread(r.f1)
        if span is not None:
            span.open_segment("waiting:withdrawn", time)

    def _on_thread_block(self, time: int, r: TraceRecord) -> None:
        # node thread reason (delay | target)
        span = self._eu_for_thread(r.f1)
        if span is not None:
            span.open_segment(f"waiting:{r.f2}", time, **_fields_after(r, 3))

    def _on_send(self, time: int, r: TraceRecord) -> None:
        # link msg kind size [activation_id [edge]]
        msg = MessageSpan(norm_id=len(self.forest.messages) + 1,
                          raw_id=r.f1, link=r.f0, kind=r.f2, size=r.f3,
                          send_time=time, activation_id=r.f4, edge=r.f5)
        self.forest.messages.append(msg)
        self._in_flight[(msg.link, msg.raw_id)] = msg
        if msg.activation_id is not None:
            activation = self._activation(msg.activation_id)
            activation.messages.append(msg)
            if msg.edge is not None and msg.edge in activation.edges:
                activation.edges[msg.edge].message = msg

    def _attach_edge_message(self, msg: MessageSpan) -> None:
        if msg.activation_id is None or msg.edge is None:
            return
        activation = self.forest.activations.get(msg.activation_id)
        if activation is not None and msg.edge in activation.edges:
            edge = activation.edges[msg.edge]
            if edge.message is None:
                edge.message = msg

    def _on_deliver(self, time: int, r: TraceRecord) -> None:
        # link msg kind latency outcome bound
        msg = self._in_flight.pop((r.f0, r.f1), None)
        if msg is None:
            return
        msg.deliver_time = time
        msg.outcome = r.f4
        msg.latency = r.f3
        msg.bound = r.f5
        self._attach_edge_message(msg)

    def _on_drop(self, time: int, r: TraceRecord) -> None:
        # link msg reason
        msg = self._in_flight.pop((r.f0, r.f1), None)
        if msg is None:
            return
        msg.outcome = "dropped"
        msg.drop_reason = r.f2

    def _on_dst_crashed(self, time: int, r: TraceRecord) -> None:
        # link msg kind
        msg = self._in_flight.pop((r.f0, r.f1), None)
        if msg is None:
            return
        msg.deliver_time = time
        msg.outcome = "dst_crashed"

    def _on_admission_event(self, time: int, r: TraceRecord) -> None:
        # node task ...: a decision that released no work, or degrade
        self.forest.admission_events.append(AdmissionEvent(
            time, r.event, r.f1, r.f0, _fields_after(r, 2)))
        if r.f0:
            self._note_node(r.f0)

    def _on_admission_submit(self, time: int, r: TraceRecord) -> None:
        # node task value [origin]
        self.forest.admission_submits += 1
        if r.f0:
            self._note_node(r.f0)

    def _on_admission_admit(self, time: int, r: TraceRecord) -> None:
        # node task value activation_id
        self.forest.admission_admits += 1
        if r.f0:
            self._note_node(r.f0)
        if r.f3:
            self._activation(r.f3).admitted = True

    def _alert_event(self, time: int, event: str, node: Optional[str],
                     tenant: str, rule: str, detail: Dict[str, Any]) -> None:
        self.forest.alerts.append(AlertEvent(time, event, tenant, rule,
                                             node, detail))
        if node:
            self._note_node(node)

    def _on_alert(self, time: int, r: TraceRecord) -> None:
        # node tenant rule burn_fast_milli burn_slow_milli ...
        self._alert_event(time, r.event, r.f0, r.f1, r.f2,
                          _fields_after(r, 3))

    def _on_admission_reconfigure(self, time: int, r: TraceRecord) -> None:
        # node trigger (from_policy to_policy | from_test to_test)+
        self._alert_event(time, "reconfigure", r.f0, "", r.f1,
                          _fields_after(r, 1))

    def _close_slice(self, node: str, engine: str, time: int) -> None:
        open_slice = self._open_slice.pop((node, engine), None)
        if open_slice is None:
            return
        if time > open_slice.start:
            open_slice.end = time
            self.forest.cpu_slices.setdefault(node, []).append(open_slice)

    def finish(self) -> SpanForest:
        """Close dangling state at trace end and return the forest."""
        for key in list(self._open_slice):
            open_slice = self._open_slice.pop(key)
            open_slice.end = None  # still running at trace end
            self.forest.cpu_slices.setdefault(open_slice.node,
                                              []).append(open_slice)
        # Edge messages whose edge_satisfied arrived after the send.
        for msg in self.forest.messages:
            self._attach_edge_message(msg)
        # Already sorted unless the trace's times go back somewhere.
        self.forest.activate_times.sort()
        self.forest.preempt_times.sort()
        return self.forest

    #: The handler of each key the forest is built from.
    _HANDLERS = {
        ("dispatcher", "activate"): _on_activate,
        ("dispatcher", "thread_start"): _on_thread_start,
        ("dispatcher", "eu_done"): _on_eu_done,
        ("dispatcher", "edge_satisfied"): _on_edge_satisfied,
        ("dispatcher", "remote_edge_sent"): _on_remote_edge_sent,
        ("dispatcher", "instance_done"): _on_instance_done,
        ("dispatcher", "eu_blocked"): _on_eu_blocked,
        ("dispatcher", "inv_done"): _on_inv_done,
        ("dispatcher", "eu_error"): _on_eu_error,
        ("dispatcher", "instance_abort"): _on_instance_abort,
        ("dispatcher", "deadline_miss"): _on_deadline_miss,
        ("cpu", "dispatch"): _on_dispatch,
        ("cpu", "preempt"): _on_preempt,
        ("cpu", "complete"): _on_complete,
        ("cpu", "withdraw"): _on_withdraw,
        ("thread", "block"): _on_thread_block,
        ("network", "send"): _on_send,
        ("network", "deliver"): _on_deliver,
        ("network", "drop"): _on_drop,
        ("network", "dst_crashed"): _on_dst_crashed,
        ("admission", "submit"): _on_admission_submit,
        ("admission", "admit"): _on_admission_admit,
        ("admission", "reject"): _on_admission_event,
        ("admission", "shed"): _on_admission_event,
        ("admission", "skip"): _on_admission_event,
        ("admission", "forward"): _on_admission_event,
        ("admission", "forward_result"): _on_admission_event,
        ("admission", "forward_timeout"): _on_admission_event,
        ("admission", "degrade"): _on_admission_event,
        ("admission", "reconfigure"): _on_admission_reconfigure,
        ("alert", "raise"): _on_alert,
        ("alert", "clear"): _on_alert,
    }
    #: The same handlers, by declared layout.
    _BY_LAYOUT = {layout(*key, *fields): handler
                  for key, handler in _HANDLERS.items()
                  for fields in LAYOUTS[key]}


def reconstruct(source: TraceSource) -> SpanForest:
    """Rebuild the span forest from a Tracer, record iterable, or JSONL path.

    Single pass, O(n) in the record count.
    """
    if isinstance(source, str):
        source = read_jsonl(source)
    builder = _Builder()
    for rec in source:
        builder.feed(rec)
    return builder.finish()


# ---------------------------------------------------------------------------
# Critical path & exact decomposition
# ---------------------------------------------------------------------------

def critical_path(activation: ActivationSpan) -> List[CriticalHop]:
    """The chain of EU windows that determined the activation's finish.

    Walks backwards from the last-finishing EU, at each step following
    the incoming edge satisfied *last* (the one that actually gated the
    EU's start).  Returns hops in execution order; empty if the
    activation never ran or nothing finished.
    """
    finished = [eu for eu in activation.eus.values()
                if eu.finish_time is not None]
    if not finished or activation.activation_time is None:
        return []
    incoming: Dict[str, List[EdgeInfo]] = {}
    for edge in activation.edges.values():
        incoming.setdefault(edge.dst, []).append(edge)

    current = max(finished, key=lambda eu: (eu.finish_time, eu.qualified_name))
    hops: List[CriticalHop] = []
    visited = set()
    while current is not None and current.eu not in visited:
        visited.add(current.eu)
        edges = incoming.get(current.eu, [])
        if edges:
            gate = max(edges, key=lambda e: (e.satisfied_time, e.index))
            begin = gate.satisfied_time
        else:
            gate = None
            begin = activation.activation_time
        end = (current.finish_time if current.finish_time is not None
               else begin)
        hops.append(CriticalHop(current, begin, max(begin, end), gate))
        current = (activation.eus.get(gate.src)
                   if gate is not None else None)
        if current is not None and current.finish_time is None:
            current = None  # predecessor never finished: chain breaks
    hops.reverse()
    return hops


def decompose(activation: ActivationSpan,
              path: Optional[List[CriticalHop]] = None
              ) -> Optional[Decomposition]:
    """Exact response-time decomposition along the critical path.

    Returns None for activations that never finished (no measured
    response time to decompose).  Raises :class:`SpanError` if the
    components fail to sum to the response time — which cannot happen
    for a well-formed trace, so a raise means the trace (or this
    reconstruction) is broken and should not be trusted silently.
    """
    if (activation.activation_time is None
            or activation.finish_time is None):
        return None
    t0 = activation.activation_time
    t1 = activation.finish_time
    response = t1 - t0
    if path is None:
        path = critical_path(activation)
    out = Decomposition(activation.activation_id, response, path=path)
    totals = {"executing": 0, "preempted": 0, "blocked": 0,
              "network": 0, "slack": 0}

    cursor = t0
    for hop in path:
        if hop.begin > cursor:
            gap = hop.begin - cursor
            if hop.edge is not None and hop.edge.remote:
                totals["network"] += gap
            else:
                totals["slack"] += gap
            cursor = hop.begin
        window_end = min(hop.end, t1)
        covered = cursor
        for seg in hop.eu.segments:
            seg_end = seg.end if seg.end is not None else window_end
            s = max(seg.start, covered)
            e = min(seg_end, window_end)
            if e <= s:
                continue
            if s > covered:
                totals["slack"] += s - covered
            component = _STATE_COMPONENT.get(seg.state, "slack")
            totals[component] += e - s
            if component == "executing":
                engine = hop.eu.engine
                out.executing_by_engine[engine] = (
                    out.executing_by_engine.get(engine, 0) + (e - s))
            covered = e
        if covered < window_end:
            totals["slack"] += window_end - covered
        cursor = max(cursor, window_end)
    if cursor < t1:
        totals["slack"] += t1 - cursor

    out.executing = totals["executing"]
    out.preempted = totals["preempted"]
    out.blocked = totals["blocked"]
    out.network = totals["network"]
    out.slack = totals["slack"]
    if out.total != response:
        raise SpanError(
            f"{activation.activation_id}: decomposition {out.total} != "
            f"response {response} (components {totals})")
    return out
