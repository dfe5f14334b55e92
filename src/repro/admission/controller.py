"""Online admission control and overload management.

The :class:`AdmissionController` is the front door for aperiodic and
sporadic load: arrivals are *submitted* to it instead of being released
through :meth:`~repro.core.dispatcher.Dispatcher.activate` directly.
Like the schedulers of §3.2.2 it is itself a HEUG service task — a
kernel thread at ``PRIO_SCHEDULER`` on its home node that drains a
bounded backpressure queue, charges ``w_adm`` microseconds of CPU per
decision, runs the pluggable guarantee test
(:mod:`repro.admission.guarantee`) and only then activates the task.

On a failed guarantee an **overload policy** runs:

* ``"reject"`` — turn the newcomer away (the Spring default),
* ``"shed"`` — abort already-admitted instances of strictly lower
  value, cheapest first, if that makes the newcomer guaranteeable,
* ``"mk_firm"`` — per-task (m,k)-firm windows: the newcomer may be
  skipped without violation while at least m of the last k instances
  were admitted,
* ``"degrade"`` — switch the system to a degraded mode through
  :class:`~repro.services.modes.ModeManager` (once), then re-test.

**Distributed admission** reproduces Spring's distributed guarantee:
when the local test fails (and the policy did not salvage the
newcomer), the controller forwards a guarantee request to a peer node
over the network and arms a *deadline-aware* timeout — the remaining
slack ``abs_deadline - now - wcet`` capped by ``forward_timeout``.  A
grant activates the job on the peer; a denial, or a timeout (lost
request, lost reply, dead peer), resolves to a conservative local
reject, so a fault can never leave a request undecided.  Forwards are
one hop: a peer never re-forwards a remote request.  Note the
asymmetric failure case: if the *grant reply* is lost the peer runs
the job while the origin conservatively rejects — safe (never an
unguaranteed accept) but value is accounted where the work runs.

Everything is observable: an ``admission`` trace category
(submit/admit/reject/shed/skip/forward/forward_result/forward_timeout/
degrade) feeds the span/forensics/timeline tooling, per-node counters
and a guarantee-latency histogram feed :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.admission.guarantee import GuaranteeTest, Verdict
from repro.core.dispatcher import Dispatcher, InstanceState, TaskInstance
from repro.core.heug import Task
from repro.kernel.priorities import PRIO_SCHEDULER
from repro.kernel.threads import Compute, WaitEvent
from repro.obs.metrics import Counter

__all__ = ["AdmissionRequest", "AdmissionController"]

_POLICIES = ("reject", "shed", "mk_firm", "degrade")


class AdmissionRequest:
    """One arrival travelling through (or past) the admission decision."""

    __slots__ = ("task", "value", "submit_time", "wcet", "rel_deadline",
                 "abs_deadline", "source", "origin", "req_id", "decision",
                 "reason", "decided_at", "instance", "_reply_to", "_timer")

    def __init__(self, task: Task, value: int, submit_time: int,
                 wcet: Optional[int] = None,
                 rel_deadline: Optional[int] = None,
                 source: str = "local", origin: Optional[str] = None,
                 req_id: Optional[str] = None):
        self.task = task
        self.value = value
        self.submit_time = submit_time
        self.wcet = wcet if wcet is not None else task.total_wcet()
        self.rel_deadline = (rel_deadline if rel_deadline is not None
                             else task.deadline)
        self.abs_deadline = (submit_time + self.rel_deadline
                             if self.rel_deadline is not None else None)
        self.source = source            # "local" | "remote"
        self.origin = origin            # forwarding node (remote requests)
        self.req_id = req_id
        self.decision = "pending"       # pending|forwarded|admitted|
        #                                 forward_admitted|rejected|
        #                                 skipped|shed
        self.reason = ""
        self.decided_at: Optional[int] = None
        self.instance: Optional[TaskInstance] = None
        self._reply_to: Optional[str] = None
        self._timer = None

    @property
    def task_name(self) -> str:
        return self.task.name

    @property
    def admitted(self) -> bool:
        """Whether the request was guaranteed (locally or by a peer)."""
        return self.decision in ("admitted", "forward_admitted")

    @property
    def completed_in_time(self) -> bool:
        """Whether the locally admitted instance finished by its deadline."""
        instance = self.instance
        return (instance is not None
                and instance.state is InstanceState.DONE
                and not instance.missed_deadline)

    def __repr__(self) -> str:
        return (f"<AdmissionRequest {self.task_name} value={self.value} "
                f"{self.decision}"
                + (f" ({self.reason})" if self.reason else "") + ">")


def default_remote_task(payload: dict, node_id: str,
                        deadline: Optional[int]) -> Task:
    """Build the local surrogate for a forwarded guarantee request:
    a single-code-EU aperiodic task of the advertised WCET, bound to
    the peer node, under the remaining (relative) deadline."""
    task = Task(f"{payload['task']}@{payload['origin']}", deadline=deadline)
    task.code_eu("run", wcet=payload["wcet"], node_id=node_id)
    return task.validate()


class AdmissionController:
    """Per-node admission control service task (see module docstring).

    Parameters
    ----------
    dispatcher:
        The attached :class:`~repro.core.dispatcher.Dispatcher` (nodes
        must already be registered — construct after ``HadesSystem``).
    node_id:
        Home node; the controller thread runs there and remote
        surrogate tasks are bound there.
    test:
        A :class:`~repro.admission.guarantee.GuaranteeTest`.
    policy:
        ``"reject"`` | ``"shed"`` | ``"mk_firm"`` | ``"degrade"``.
    queue_capacity:
        Bounded backpressure queue length; submissions beyond it are
        rejected immediately (reason ``backpressure``).
    w_adm:
        Worst-case CPU microseconds one guarantee decision costs.
    peers:
        Nodes to forward locally rejected requests to (round-robin).
    forward_timeout:
        Cap on the deadline-aware forward timeout (µs).
    mk:
        Default ``(m, k)`` window for the ``mk_firm`` policy.
    mk_overrides:
        Optional per-task-name ``(m, k)`` windows overriding the
        default — e.g. one window per tenant class (gold ``(9, 10)``,
        bronze ``(1, 4)``) when several share one controller.
    mode_manager / degraded_mode:
        Target of the ``degrade`` policy.
    remote_task_builder:
        ``f(payload, node_id, rel_deadline) -> Task`` building the
        local surrogate for forwarded requests.
    """

    GUARANTEE_KIND = "admission-guarantee"
    REPLY_KIND = "admission-reply"
    DEFAULT_FORWARD_TIMEOUT = 10_000

    def __init__(self, dispatcher: Dispatcher, node_id: str,
                 test: GuaranteeTest,
                 policy: str = "reject",
                 queue_capacity: int = 64,
                 w_adm: int = 2,
                 peers: Sequence[str] = (),
                 forward_timeout: Optional[int] = None,
                 mk: Optional[Tuple[int, int]] = None,
                 mk_overrides: Optional[Dict[str, Tuple[int, int]]] = None,
                 mode_manager=None,
                 degraded_mode: Optional[str] = None,
                 remote_task_builder: Callable[..., Task]
                 = default_remote_task):
        if policy not in _POLICIES:
            raise ValueError(f"unknown policy {policy!r} "
                             f"(expected one of {_POLICIES})")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if w_adm < 0:
            raise ValueError("w_adm must be >= 0")
        if policy == "mk_firm":
            if mk is None:
                raise ValueError("mk_firm policy requires mk=(m, k)")
            for m, k in [mk, *(mk_overrides or {}).values()]:
                if not 0 < m <= k:
                    raise ValueError("mk must satisfy 0 < m <= k")
        if policy == "degrade" and (mode_manager is None
                                    or degraded_mode is None):
            raise ValueError("degrade policy requires mode_manager "
                             "and degraded_mode")
        if forward_timeout is not None and forward_timeout <= 0:
            raise ValueError("forward_timeout must be > 0")
        self.dispatcher = dispatcher
        self.sim = dispatcher.sim
        self.tracer = dispatcher.tracer
        self.node_id = node_id
        self.node = dispatcher.nodes[node_id]
        self.test = test
        self.policy = policy
        self.queue_capacity = queue_capacity
        self.w_adm = w_adm
        self.peers = list(peers)
        self.forward_timeout = forward_timeout
        self.mk = mk
        self.mk_overrides = dict(mk_overrides or {})
        self.mode_manager = mode_manager
        self.degraded_mode = degraded_mode
        self.remote_task_builder = remote_task_builder

        #: Bounded backpressure queue of undecided requests.
        self.pending: Deque[AdmissionRequest] = deque()
        #: Every decided request, in decision order.
        self.decisions: List[AdmissionRequest] = []
        self.mk_violations = 0
        self._admitted: List[AdmissionRequest] = []
        self._mk_window: Dict[str, Deque[bool]] = {}
        self._forwards: Dict[str, AdmissionRequest] = {}
        self._next_req = 0
        self._peer_rr = 0
        self._degraded = False
        self._wakeup = None

        metrics = dispatcher.metrics
        prefix = f"admission.{node_id}."

        def counter(name: str) -> Counter:
            # The registry's counter, or with metrics off a private one,
            # so counts() and repr() tally either way.
            if metrics.enabled:
                return metrics.counter(prefix + name)
            return Counter(prefix + name)

        self.c_submitted = counter("submitted")
        self.c_admitted = counter("admitted")
        self.c_rejected = counter("rejected")
        self.c_shed = counter("shed")
        self.c_skipped = counter("skipped")
        self.c_forwarded = counter("forwarded")
        self.c_forward_admitted = counter("forward_admitted")
        self.c_forward_timeouts = counter("forward_timeouts")
        self.c_backpressure = counter("backpressure_rejected")
        self.h_latency = metrics.histogram(prefix + "guarantee_latency_us")

        self.interface = None
        network = dispatcher.network
        if network is not None and node_id in network.interfaces:
            self.interface = network.interfaces[node_id]
            self.interface.on_receive(self._on_guarantee_request,
                                      kind=self.GUARANTEE_KIND)
            self.interface.on_receive(self._on_reply, kind=self.REPLY_KIND)

        self.thread = self.node.spawn(self._body(), name=f"adm:{node_id}",
                                      priority=PRIO_SCHEDULER,
                                      preemption_threshold=PRIO_SCHEDULER)

    # -- intake ------------------------------------------------------------

    def submit(self, task: Task, value: int = 1,
               wcet: Optional[int] = None,
               deadline: Optional[int] = None) -> AdmissionRequest:
        """Offer one arrival to admission control.

        Returns the request; its ``decision`` resolves when the
        controller thread (or a forwarded peer / timeout) rules on it.
        A full backpressure queue rejects immediately.
        """
        now = self.sim.now
        request = AdmissionRequest(task, value, now, wcet=wcet,
                                   rel_deadline=deadline)
        self.c_submitted.inc()
        self.tracer.record("admission", "submit", node=self.node_id,
                           task=task.name, value=value)
        if len(self.pending) >= self.queue_capacity:
            self.c_backpressure.inc()
            self._reject(request, "backpressure")
            return request
        self.pending.append(request)
        self._wake()
        return request

    def drive_arrivals(self, task: Task, times: Sequence[int],
                       value: int = 1) -> None:
        """Submit ``task`` at each absolute time in ``times``."""
        for time in times:
            self.sim.call_at(time,
                             lambda t=task, v=value: self.submit(t, v))

    def reconfigure(self, policy: Optional[str] = None,
                    test: Optional[GuaranteeTest] = None,
                    trigger: str = "explicit") -> None:
        """Swap the overload policy and/or the guarantee test online.

        The change applies to every decision made after the current
        instant — queued requests included — and records an
        ``admission reconfigure`` trace event so the reconfiguration
        itself is an attributable causal step (e.g. a live-monitor
        burn-rate reaction).  A no-op call records nothing.
        """
        if policy is None and test is None:
            return
        if policy is not None and policy not in _POLICIES:
            raise ValueError(f"unknown policy {policy!r} "
                             f"(expected one of {_POLICIES})")
        if policy == "mk_firm" and self.mk is None:
            raise ValueError("mk_firm policy requires mk=(m, k)")
        if policy == "degrade" and (self.mode_manager is None
                                    or self.degraded_mode is None):
            raise ValueError("degrade policy requires mode_manager "
                             "and degraded_mode")
        details: Dict[str, str] = {}
        if policy is not None and policy != self.policy:
            details["from_policy"] = self.policy
            details["to_policy"] = policy
            self.policy = policy
        if test is not None and test is not self.test:
            details["from_test"] = self.test.name
            details["to_test"] = test.name
            self.test = test
        if details:
            self.tracer.record("admission", "reconfigure",
                               node=self.node_id, trigger=trigger,
                               **details)

    # -- the service task --------------------------------------------------

    def _wake(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _body(self):
        while True:
            while not self.pending:
                self._wakeup = self.sim.event(f"adm-wake:{self.node_id}")
                yield WaitEvent(self._wakeup)
            request = self.pending.popleft()
            if self.w_adm:
                yield Compute(self.w_adm, "admission")
            self._process(request)

    # -- decisions ---------------------------------------------------------

    def active_admitted(self) -> List[AdmissionRequest]:
        """Locally admitted requests whose instances are still in flight
        (the set guarantee tests must re-guarantee)."""
        self._admitted = [r for r in self._admitted
                          if r.instance is not None
                          and r.instance.state is InstanceState.ACTIVE]
        return list(self._admitted)

    def _process(self, request: AdmissionRequest) -> None:
        now = self.sim.now
        if (request.abs_deadline is not None
                and now + request.wcet > request.abs_deadline):
            self._reject(request, "expired")
            return
        verdict = self.test.admit(self.active_admitted(), request, now)
        if verdict.ok:
            self._note_mk(request.task_name, True)
            self._admit(request)
            return
        if self.policy == "shed" and self._try_shed(request):
            self._note_mk(request.task_name, True)
            self._admit(request)
            return
        if self.policy == "mk_firm":
            if self._mk_skip_allowed(request.task_name):
                self._note_mk(request.task_name, False)
                self.c_skipped.inc()
                self.tracer.record("admission", "skip", node=self.node_id,
                                   task=request.task_name,
                                   value=request.value, reason="mk_firm")
                self._decide(request, "skipped", "mk_firm")
                return
            self.mk_violations += 1
            self._note_mk(request.task_name, False)
        if self.policy == "degrade" and not self._degraded:
            self._degraded = True
            self.tracer.record("admission", "degrade", node=self.node_id,
                               task=request.task_name,
                               mode=self.degraded_mode)
            self.mode_manager.switch_to(self.degraded_mode,
                                        trigger="admission_overload")
            verdict = self.test.admit(self.active_admitted(), request, now)
            if verdict.ok:
                self._admit(request)
                return
        if request.source == "local" and self._try_forward(request):
            return  # resolves via reply or timeout
        self._reject(request, verdict.reason or "not_guaranteed")

    def _decide(self, request: AdmissionRequest, decision: str,
                reason: str = "") -> None:
        request.decision = decision
        request.reason = reason
        request.decided_at = self.sim.now
        self.h_latency.observe(request.decided_at - request.submit_time)
        self.decisions.append(request)
        if request._reply_to is not None:
            self._send_reply(request._reply_to, request.req_id,
                             decision == "admitted")

    def _admit(self, request: AdmissionRequest) -> None:
        instance = self.dispatcher.activate(request.task)
        request.instance = instance
        self._admitted.append(request)
        self.c_admitted.inc()
        self.tracer.record("admission", "admit", node=self.node_id,
                           task=request.task_name, value=request.value,
                           activation_id=instance.qualified_name)
        self._decide(request, "admitted")

    def _reject(self, request: AdmissionRequest, reason: str) -> None:
        self.c_rejected.inc()
        self.tracer.record("admission", "reject", node=self.node_id,
                           task=request.task_name, value=request.value,
                           reason=reason)
        self._decide(request, "rejected", reason)

    # -- overload policies -------------------------------------------------

    def _try_shed(self, request: AdmissionRequest) -> bool:
        """Abort strictly-cheaper admitted instances, cheapest first,
        until the newcomer passes; all-or-nothing."""
        active = self.active_admitted()
        victims = sorted((r for r in active if r.value < request.value),
                         key=lambda r: (r.value, r.instance.seq,
                                        r.task_name))
        pool = list(active)
        shed: List[AdmissionRequest] = []
        for victim in victims:
            pool.remove(victim)
            shed.append(victim)
            if self.test.admit(pool, request, self.sim.now).ok:
                for loser in shed:
                    self.c_shed.inc()
                    self.tracer.record("admission", "shed",
                                       node=self.node_id,
                                       task=loser.task_name,
                                       value=loser.value,
                                       for_task=request.task_name)
                    loser.decision = "shed"
                    loser.reason = f"for {request.task_name}"
                    self.dispatcher.abort_instance(loser.instance,
                                                   reason="shed")
                return True
        return False

    def _mk_for(self, name: str) -> Tuple[int, int]:
        """The ``(m, k)`` window governing one task name."""
        return self.mk_overrides.get(name, self.mk)

    def _mk_skip_allowed(self, name: str) -> bool:
        m, k = self._mk_for(name)
        window = self._mk_window.get(name, ())
        recent = list(window)[-(k - 1):] if k > 1 else []
        return sum(recent) >= m

    def _note_mk(self, name: str, admitted: bool) -> None:
        if self.policy != "mk_firm":
            return
        _, k = self._mk_for(name)
        self._mk_window.setdefault(name, deque(maxlen=k)).append(admitted)

    # -- distributed admission --------------------------------------------

    def _try_forward(self, request: AdmissionRequest) -> bool:
        if not self.peers or self.interface is None:
            return False
        now = self.sim.now
        timeout = (self.forward_timeout if self.forward_timeout is not None
                   else self.DEFAULT_FORWARD_TIMEOUT)
        if request.abs_deadline is not None:
            # Deadline-aware: waiting longer than the remaining slack
            # makes even a grant useless.
            timeout = min(timeout,
                          request.abs_deadline - now - request.wcet)
        if timeout <= 0:
            return False
        peer = self.peers[self._peer_rr % len(self.peers)]
        self._peer_rr += 1
        self._next_req += 1
        req_id = f"{self.node_id}:{self._next_req}"
        payload = {"req_id": req_id, "origin": self.node_id,
                   "task": request.task_name, "wcet": request.wcet,
                   "abs_deadline": request.abs_deadline,
                   "value": request.value}
        if self.interface.send(peer, payload,
                               kind=self.GUARANTEE_KIND) is None:
            return False  # local node down: cannot forward
        request.req_id = req_id
        request.decision = "forwarded"
        self._forwards[req_id] = request
        self.c_forwarded.inc()
        self.tracer.record("admission", "forward", node=self.node_id,
                           task=request.task_name, value=request.value,
                           peer=peer, timeout=timeout)
        request._timer = self.sim.call_in(
            timeout, lambda: self._on_forward_timeout(req_id))
        return True

    def _on_forward_timeout(self, req_id: str) -> None:
        request = self._forwards.pop(req_id, None)
        if request is None:
            return  # reply won the race
        self.c_forward_timeouts.inc()
        self.tracer.record("admission", "forward_timeout",
                           node=self.node_id, task=request.task_name)
        self._reject(request, "forward_timeout")

    def _on_reply(self, message) -> None:
        payload = message.payload
        request = self._forwards.pop(payload.get("req_id"), None)
        if request is None:
            return  # late reply: already conservatively rejected
        if request._timer is not None:
            request._timer.cancel()
        granted = bool(payload.get("granted"))
        self.tracer.record("admission", "forward_result",
                           node=self.node_id, task=request.task_name,
                           peer=message.src, granted=granted)
        if granted:
            self.c_forward_admitted.inc()
            self._decide(request, "forward_admitted",
                         f"peer={message.src}")
        else:
            self._reject(request, "peer_rejected")

    def _on_guarantee_request(self, message) -> None:
        payload = message.payload
        now = self.sim.now
        abs_deadline = payload.get("abs_deadline")
        rel = abs_deadline - now if abs_deadline is not None else None
        if rel is not None and rel <= payload["wcet"]:
            self._send_reply(message.src, payload["req_id"], False)
            return
        if len(self.pending) >= self.queue_capacity:
            self.c_backpressure.inc()
            self._send_reply(message.src, payload["req_id"], False)
            return
        task = self.remote_task_builder(payload, self.node_id, rel)
        request = AdmissionRequest(task, payload.get("value", 1), now,
                                   wcet=payload["wcet"], rel_deadline=rel,
                                   source="remote", origin=message.src,
                                   req_id=payload["req_id"])
        request._reply_to = message.src
        self.c_submitted.inc()
        self.tracer.record("admission", "submit", node=self.node_id,
                           task=request.task_name, value=request.value,
                           origin=message.src)
        self.pending.append(request)
        self._wake()

    def _send_reply(self, dst: str, req_id: str, granted: bool) -> None:
        if self.interface is not None:
            self.interface.send(dst, {"req_id": req_id, "granted": granted},
                                kind=self.REPLY_KIND)

    # -- accounting --------------------------------------------------------

    def accumulated_value(self) -> int:
        """Total value of locally admitted activations that completed by
        their deadline (the Spring value metric)."""
        return sum(r.value for r in self.decisions
                   if r.decision == "admitted" and r.completed_in_time)

    def guarantee_ratio(self) -> float:
        """Fraction of decided local submissions that were guaranteed
        (here or at a peer); 1.0 when nothing was submitted."""
        local = [r for r in self.decisions if r.source == "local"]
        if not local:
            return 1.0
        return sum(1 for r in local if r.admitted) / len(local)

    def counts(self) -> Dict[str, int]:
        """Counter snapshot, keyed by short name."""
        return {
            "submitted": self.c_submitted.value,
            "admitted": self.c_admitted.value,
            "rejected": self.c_rejected.value,
            "shed": self.c_shed.value,
            "skipped": self.c_skipped.value,
            "forwarded": self.c_forwarded.value,
            "forward_admitted": self.c_forward_admitted.value,
            "forward_timeouts": self.c_forward_timeouts.value,
            "backpressure_rejected": self.c_backpressure.value,
        }

    def __repr__(self) -> str:
        return (f"<AdmissionController {self.node_id} "
                f"test={self.test.name} policy={self.policy} "
                f"admitted={self.c_admitted.value}"
                f"/{self.c_submitted.value}>")
