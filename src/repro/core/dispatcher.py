"""The generic HADES dispatcher (paper §3.2.1).

The dispatcher allocates resources — including the CPU — to tasks,
handles priority conflicts, and monitors execution.  It is *generic*:
nothing in it depends on an application domain or scheduling policy.
Scheduling policies plug in through the notification protocol
(:mod:`repro.core.notifications`) and the dispatcher primitive
(:meth:`Dispatcher.set_thread_params`).

Execution rules implemented here (quoted from the paper):

A thread is **runnable**, and inserted in the Run Queue, iff

1. the threads it must wait for, due to precedence constraints, have
   finished their execution,
2. all the resources it needs can be granted to it,
3. all the condition variables it must wait for are set, and
4. the current time is higher than its earliest start time.

A runnable thread is **running** iff it has the highest priority among
runnable threads, or every higher-priority runnable thread is kept out
by the running thread's preemption threshold.  (That second rule is the
kernel CPU's job — :mod:`repro.kernel.cpu`.)

Each Code_EU instance executes on a dedicated kernel thread ("a given
thread being dedicated to the execution of one and only one Code_EU").
Dispatcher activities are charged to the threads that cause them, per
the §4.1 cost model, using the constants in
:class:`~repro.core.costs.DispatcherCosts`.
"""

from __future__ import annotations

import enum
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.attributes import EUAttributes
from repro.core.condvars import ConditionVariable
from repro.core.costs import CostLedger, DispatcherCosts
from repro.core.heug import (ActionContext, CodeEU, EU, EUPlan, InvEU,
                              Precedence, Task)
from repro.core.monitoring import ExecutionMonitor, ViolationKind
from repro.core.notifications import Notification, NotificationKind
from repro.core.resources import Resource
from repro.kernel.node import Node
from repro.kernel.priorities import PRIO_MAX
from repro.kernel.threads import Compute, KThread, WaitEvent
from repro.network.network import Network
from repro.sim.engine import Event, Simulator
from repro.sim.trace import Tracer, layout

#: The layouts of the dispatcher's hot records.
_ACTIVATE = layout("dispatcher", "activate", "task", "seq", "activation_id",
                   "deadline")
_SET_PARAMS = layout("dispatcher", "set_params", "eu", "priority",
                     "earliest")
_THREAD_START = layout("dispatcher", "thread_start", "eu", "node",
                       "priority")
_THREAD_START_ENGINE = layout("dispatcher", "thread_start", "eu", "node",
                              "priority", "engine")
_EU_DONE = layout("dispatcher", "eu_done", "eu")
_EDGE_SATISFIED = layout("dispatcher", "edge_satisfied", "activation_id",
                         "edge", "src", "dst", "remaining")
_REMOTE_EDGE_SENT = layout("dispatcher", "remote_edge_sent", "eu", "dst",
                           "activation_id", "edge")
_REMOTE_EDGE_RECV = layout("dispatcher", "remote_edge_recv", "task", "seq",
                           "edge")
_INSTANCE_DONE = layout("dispatcher", "instance_done", "task", "seq",
                        "activation_id", "response", "missed")

#: Sentinel "never" earliest-start value used by schedulers to hold a
#: thread (e.g. SRP keeping a job from starting while the system
#: ceiling is too high).
NEVER = 2 ** 62


class EUState(enum.Enum):
    """Lifecycle states of an elementary-unit instance."""
    WAITING = "waiting"              # precedence/condvar/earliest unsatisfied
    ELIGIBLE = "eligible"            # waiting only for resources or a gate
    READY = "ready"                  # thread submitted to the CPU
    SUSPENDED = "suspended"          # withdrawn from the Run Queue (earliest
    #                                  moved to the future by a scheduler)
    DONE = "done"
    ABORTED = "aborted"


class InstanceState(enum.Enum):
    """Lifecycle states of a task instance."""
    ACTIVE = "active"
    DONE = "done"
    ABORTED = "aborted"


# The states and notification kinds as module constants: reading a
# member off its enum class goes through the metaclass (about 100 ns on
# CPython 3.11), and the dispatcher reads them on every activation and
# unit step.
_WAITING = EUState.WAITING
_ELIGIBLE = EUState.ELIGIBLE
_READY = EUState.READY
_SUSPENDED = EUState.SUSPENDED
_DONE = EUState.DONE
_ABORTED = EUState.ABORTED
_INST_ACTIVE = InstanceState.ACTIVE
_INST_DONE = InstanceState.DONE
_INST_ABORTED = InstanceState.ABORTED
_ATV = NotificationKind.ATV
_TRM = NotificationKind.TRM
_RAC = NotificationKind.RAC
_RRE = NotificationKind.RRE

#: The timing attributes of an Inv_EU, which declares none.
_NO_ATTRS = EUAttributes()


class EUInstance:
    """One execution of one elementary unit within a task instance.

    Built from the unit's :class:`~repro.core.heug.EUPlan`: ``node_id``
    and ``out_edges`` come from the compiled graph, and the timing
    attributes and engine are read off the unit, per instance.
    """

    __slots__ = ("eu", "instance", "dispatcher", "node_id", "out_edges",
                 "state", "preds_remaining", "qualified_name", "inputs",
                 "engine", "priority", "preemption_threshold", "earliest",
                 "latest", "deadline", "thread", "release_time",
                 "finish_time", "actual_used", "granted", "_rac_emitted",
                 "_watching_condvars", "_earliest_timer_target",
                 "_deadline_timer", "_latest_timer", "invoked_instance")

    def __init__(self, plan: EUPlan, instance: "TaskInstance",
                 dispatcher: "Dispatcher"):
        #: The processor this unit is assigned to, and its outgoing
        #: constraints as (edge, edge index, remote flag) triples.
        eu, self.node_id, self.preds_remaining, self.out_edges = plan
        self.eu = eu
        self.instance = instance
        self.dispatcher = dispatcher
        self.state = _WAITING
        #: task#seq/eu identifier used in traces (precomputed once —
        #: the hot trace calls would otherwise re-interpolate it).
        self.qualified_name = f"{instance.qualified_name}/{eu.name}"
        self.inputs: Dict[str, Any] = {}
        #: Engine class this execution runs on ("cpu" unless the unit
        #: was mapped to an accelerator variant — repro.hetero).
        self.engine: str = getattr(eu, "engine", "cpu")
        attrs: EUAttributes = getattr(eu, "attrs", _NO_ATTRS)
        self.priority = attrs.prio
        self.preemption_threshold = (attrs.pt if attrs.pt is not None
                                     else attrs.prio)
        base = instance.activation_time
        self.earliest: Optional[int] = (
            base + attrs.earliest if attrs.earliest is not None else None)
        self.latest: Optional[int] = (
            base + attrs.latest if attrs.latest is not None else None)
        self.deadline: Optional[int] = (
            base + attrs.deadline if attrs.deadline is not None else None)
        self.thread: Optional[KThread] = None
        self.release_time: Optional[int] = None   # became runnable
        self.finish_time: Optional[int] = None
        self.actual_used: Optional[int] = None
        self.granted = False
        self._rac_emitted = False
        self._watching_condvars = False
        self._earliest_timer_target: Optional[int] = None
        # Pending monitoring timers (cancelled — tombstoned in the
        # event heap — once they can no longer report anything).
        self._deadline_timer: Optional[Event] = None
        self._latest_timer: Optional[Event] = None
        # For sync invocations: the invoked instance.
        self.invoked_instance: Optional["TaskInstance"] = None

    def is_code(self) -> bool:
        """Whether this instance wraps a Code_EU."""
        return isinstance(self.eu, CodeEU)

    @property
    def start_time(self) -> Optional[int]:
        """When a Code_EU's thread first got the CPU; ``None`` before
        that, and always for an Inv_EU."""
        if self.thread is None or not self.is_code():
            return None
        return self.thread.first_run

    def waiting_on(self) -> List[Tuple[str, Any]]:
        """What currently prevents this unit from running (for deadlock
        analysis and debugging)."""
        waits: List[Tuple[str, Any]] = []
        if self.state is _DONE or self.state is _ABORTED:
            return waits
        if isinstance(self.eu, CodeEU):
            for condvar in self.eu.wait_for:
                if not condvar.is_set:
                    waits.append(("condvar", condvar))
            if self.state is _ELIGIBLE and not self.granted:
                for resource, mode in self.eu.resources:
                    if not resource.can_grant(mode):
                        waits.append(("resource", resource))
        if isinstance(self.eu, InvEU) and self.invoked_instance is not None:
            if self.invoked_instance.state is _INST_ACTIVE:
                waits.append(("invocation", self.invoked_instance))
        return waits

    def __repr__(self) -> str:
        return f"<EUInstance {self.qualified_name} {self.state.value}>"


class TaskInstance:
    """One activation of a task, built from its :meth:`Task.plan`."""

    __slots__ = ("task", "seq", "activation_time", "abs_deadline",
                 "invoked_by", "state", "qualified_name", "eu_instances",
                 "remaining", "done_event", "finish_time",
                 "missed_deadline", "_deadline_timer")

    def __init__(self, task: Task, plan: Tuple[EUPlan, ...], seq: int,
                 activation_time: int, dispatcher: "Dispatcher",
                 invoked_by: Optional[EUInstance] = None):
        self.task = task
        self.seq = seq
        self.activation_time = activation_time
        self.abs_deadline: Optional[int] = (
            activation_time + task.deadline
            if task.deadline is not None else None)
        self.invoked_by = invoked_by
        self.state = _INST_ACTIVE
        #: Stable correlation id used across trace records: ``task#seq``
        #: (the prefix of every EU instance's ``qualified_name``).
        self.qualified_name = f"{task.name}#{seq}"
        self.eu_instances: Dict[EU, EUInstance] = {
            step.eu: EUInstance(step, self, dispatcher) for step in plan}
        self.remaining = len(plan)
        self.done_event = Event(dispatcher.sim,
                                f"done:{self.qualified_name}")
        self.finish_time: Optional[int] = None
        self.missed_deadline = False
        self._deadline_timer: Optional[Event] = None

    @property
    def key(self) -> Tuple[str, int]:
        """Ranking key for this policy (smaller = higher priority)."""
        return (self.task.name, self.seq)

    @property
    def response_time(self) -> Optional[int]:
        """Finish minus activation time (None while active)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.activation_time

    def __repr__(self) -> str:
        return (f"<TaskInstance {self.task.name}#{self.seq} "
                f"{self.state.value} remaining={self.remaining}>")


class PeriodicDriver:
    """Generates activations for one periodic task; stoppable.

    Mode management (services.modes) stops drivers of the outgoing mode
    and starts those of the incoming one.
    """

    def __init__(self, dispatcher: "Dispatcher", task: Task,
                 count: Optional[int]):
        self.dispatcher = dispatcher
        self.task = task
        self.count = count
        self.generated = 0
        self.stopped = False

    def stop(self) -> None:
        """No further activations are generated (idempotent)."""
        self.stopped = True

    def _fire(self) -> None:
        if self.stopped:
            return
        if self.count is not None and self.generated >= self.count:
            return
        self.generated += 1
        self.dispatcher.activate(self.task)
        if self.count is None or self.generated < self.count:
            self.dispatcher.sim.call_in(self.task.arrival.period, self._fire)


#: A start gate vetoes the start of an EU instance (used by SRP/PCP).
StartGate = Callable[[EUInstance], bool]


class Dispatcher:
    """System-wide generic dispatcher over a set of nodes.

    The paper's dispatcher is realised by a distributed set of threads;
    here one coordinator object manages per-node state, but every
    remote interaction (remote precedence constraints) physically
    crosses the simulated network and can therefore be lost or delayed
    by injected faults.

    ``on_deadline_miss`` selects the §3.2.1 low-level fault-tolerance
    reaction: ``"record"`` only monitors, ``"abort"`` additionally
    aborts the late instance (killing its threads unless
    ``abort_mode="lazy"``, in which case they run on and their
    completions are detected as orphans).
    """

    def __init__(self, sim: Simulator,
                 network: Optional[Network] = None,
                 costs: Optional[DispatcherCosts] = None,
                 tracer: Optional[Tracer] = None,
                 monitor: Optional[ExecutionMonitor] = None,
                 on_deadline_miss: str = "record",
                 abort_mode: str = "kill",
                 omission_margin: int = 10,
                 metrics=None):
        from repro.obs.metrics import resolve_metrics

        if on_deadline_miss not in ("record", "abort"):
            raise ValueError(f"bad on_deadline_miss {on_deadline_miss!r}")
        if abort_mode not in ("kill", "lazy"):
            raise ValueError(f"bad abort_mode {abort_mode!r}")
        self.sim = sim
        self.metrics = resolve_metrics(metrics)
        self.network = network
        self.costs = costs if costs is not None else DispatcherCosts()
        self.tracer = tracer if tracer is not None else Tracer(sim)
        if self.tracer._clock is None:
            self.tracer.bind_clock(sim)
        self.monitor = monitor if monitor is not None else ExecutionMonitor()
        self.on_deadline_miss = on_deadline_miss
        self.abort_mode = abort_mode
        self.omission_margin = omission_margin
        self.ledger = CostLedger()
        self.nodes: Dict[str, Node] = {}
        self._schedulers: List[Any] = []  # SchedulerBase, avoid import cycle
        # node id -> the attached schedulers whose scope is None or that
        # node, in attach order; filled lazily by _notify, cleared by
        # attach_scheduler.
        self._schedulers_of: Dict[str, Tuple[Any, ...]] = {}
        self._start_gates: List[StartGate] = []
        self._instances: Dict[Tuple[str, int], TaskInstance] = {}
        self._seq: Dict[str, int] = {}
        self._last_activation: Dict[str, int] = {}
        #: Every task ever registered/activated through this
        #: dispatcher, by name.
        self.known_tasks: Dict[str, Task] = {}
        self._resource_waiters: Dict[Resource, List[EUInstance]] = {}
        self._gated: List[EUInstance] = []
        self.completed_instances = 0
        self._m_activations = self.metrics.counter("dispatcher.activations")
        self._m_thread_starts = self.metrics.counter(
            "dispatcher.thread_starts")
        self._m_priority_changes = self.metrics.counter(
            "dispatcher.priority_changes")
        self._m_eu_completions = self.metrics.counter(
            "dispatcher.eu_completions")
        self._m_instances_done = self.metrics.counter(
            "dispatcher.instances_completed")
        self._m_instances_aborted = self.metrics.counter(
            "dispatcher.instances_aborted")
        self._m_violations = self.metrics.counter("violations.total")
        if self.metrics.enabled:
            # Violations are rare; a per-kind registry lookup is fine.
            self.monitor.subscribe(self._count_violation)
        if network is not None:
            for interface in network.interfaces.values():
                interface.on_receive(self._on_remote_edge_message,
                                     kind="heug-edge")

    @property
    def costs(self) -> DispatcherCosts:
        """The §4.1 dispatcher cost constants (frozen)."""
        return self._costs

    @costs.setter
    def costs(self, costs: DispatcherCosts) -> None:
        self._costs = costs
        # The charges as shared Compute requests, one per non-zero
        # constant (None for a zero one): every unit and invocation body
        # yields the one request of a constant.
        (self._start_act, self._end_act, self._local, self._remote,
         self._start_inv, self._end_inv) = (
            Compute(amount, "dispatcher") if amount else None
            for amount in (costs.c_start_act, costs.c_end_act,
                           costs.c_local, costs.c_remote,
                           costs.c_start_inv, costs.c_end_inv))

    def _count_violation(self, violation) -> None:
        self._m_violations.inc()
        self.metrics.counter(f"violations.{violation.kind.value}").inc()

    # -- topology ----------------------------------------------------------

    def register_node(self, node: Node) -> None:
        """Make ``node`` available to run elementary units."""
        if node.node_id in self.nodes:
            raise ValueError(f"node {node.node_id} registered twice")
        self.nodes[node.node_id] = node

    def attach_scheduler(self, scheduler) -> None:
        """Plug in a scheduling policy (a :class:`SchedulerBase`)."""
        self._schedulers.append(scheduler)
        self._schedulers_of.clear()
        scheduler.attach(self)

    def add_start_gate(self, gate: StartGate) -> None:
        """Install a synchronous veto consulted before any EU start.

        This is the hook PCP/SRP-style policies use to prevent a grant
        (the paper's footnote on ``Rac``): the gate sees the unit about
        to start — with its resource claims — and may refuse.  Call
        :meth:`reevaluate_gated` when conditions change.
        """
        self._start_gates.append(gate)

    # -- activation ------------------------------------------------------------

    def activate(self, task: Task, invoked_by: Optional[EUInstance] = None
                 ) -> TaskInstance:
        """Process an activation request for ``task`` (§3.1.2: triggered
        by an Inv_EU, a timer, or an interrupt)."""
        self.known_tasks.setdefault(task.name, task)
        now = self.sim.now
        plan = task.plan()
        previous = self._last_activation.get(task.name)
        if task.arrival.violates(previous, now):
            self.monitor.report(ViolationKind.ARRIVAL_LAW, now, task.name,
                                self._seq.get(task.name, 0) + 1,
                                previous=previous,
                                min_separation=task.arrival.min_separation())
        self._last_activation[task.name] = now

        seq = self._seq.get(task.name, 0) + 1
        self._seq[task.name] = seq
        instance = TaskInstance(task, plan, seq, now, self, invoked_by)
        self._instances[instance.key] = instance
        self.tracer.emit(_ACTIVATE, task.name, seq, instance.qualified_name,
                         instance.abs_deadline)
        self._m_activations.inc()

        if instance.abs_deadline is not None:
            # Check one microsecond past the deadline so that completing
            # *exactly at* the deadline counts as meeting it (late
            # completions are also caught at completion time).
            instance._deadline_timer = self.sim.call_at(
                instance.abs_deadline + 1,
                lambda: self._check_deadline(instance))

        for eui in instance.eu_instances.values():
            if eui.is_code():
                self._notify(_ATV, eui)
                if eui.latest is not None:
                    eui._latest_timer = self.sim.call_at(
                        eui.latest, lambda e=eui: self._check_latest(e))
                if eui.deadline is not None:
                    # §3.1.2: the unit-level deadline attribute feeds
                    # the monitoring activity (checked one tick past,
                    # like the task-level deadline).
                    eui._deadline_timer = self.sim.call_at(
                        eui.deadline + 1,
                        lambda e=eui: self._check_eu_deadline(e))
        # Evaluate source units after Atv notifications are queued, so a
        # same-node scheduler (highest priority) reacts before the unit
        # gets the CPU — the Figure 2 interleaving.
        for eui in instance.eu_instances.values():
            if eui.preds_remaining == 0:
                self._evaluate(eui)
        return instance

    def register_periodic(self, task: Task, count: Optional[int] = None,
                          jitter: int = 0) -> "PeriodicDriver":
        """Drive activations from the task's periodic arrival law.

        ``count`` limits how many activations are generated (None =
        until the simulation stops being run, or the returned driver's
        :meth:`~PeriodicDriver.stop` is called — mode switches use
        that).
        """
        from repro.core.attributes import Periodic

        if not isinstance(task.arrival, Periodic):
            raise ValueError(
                f"task {task.name} arrival law is not periodic")
        self.known_tasks.setdefault(task.name, task)
        driver = PeriodicDriver(self, task, count)
        self.sim.call_at(self.sim.now + task.arrival.phase + jitter,
                         driver._fire)
        return driver

    def register_arrivals(self, task: Task,
                          times: Sequence[int]) -> None:
        """Activate ``task`` at each absolute time in ``times``."""
        self.known_tasks.setdefault(task.name, task)
        for when in times:
            self.sim.call_at(when, lambda t=task: self.activate(t))

    def register_max_rate(self, task: Task, count: int,
                          start: Optional[int] = None) -> None:
        """Drive a sporadic task at its worst-case rate: ``count``
        activations separated by exactly the pseudo-period, starting at
        ``start`` (default: now).  This is the synchronous worst-case
        arrival pattern the §5.1 analysis quantifies over, so the
        benchmarks use it to exercise analyses at their bound.
        """
        gap = task.arrival.min_separation()
        if gap is None:
            raise ValueError(
                f"task {task.name} has no pseudo-period to drive at")
        base = self.sim.now if start is None else start
        self.register_arrivals(task,
                               [base + k * gap for k in range(count)])

    def activate_on_interrupt(self, source, task: Task) -> None:
        """Trigger an activation request whenever an interrupt fires.

        §3.1.2 lists three activation triggers: an Inv_EU, a timer, or
        an interrupt — this wires the third.  The activation happens
        after the interrupt handler's WCET has been served (the sample
        or event data is then available).
        """
        previous = source.handler

        def chained(payload) -> None:
            if previous is not None:
                previous(payload)
            self.activate(task)

        source.handler = chained

    # -- the dispatcher primitive (§3.2.2) ---------------------------------------

    def set_thread_params(self, eui: EUInstance,
                          priority: Optional[int] = None,
                          preemption_threshold: Optional[int] = None,
                          earliest: Optional[int] = None) -> None:
        """Modify the priority and/or earliest start time of a thread.

        This is the single primitive the paper gives schedulers.  A
        priority change on a live thread re-evaluates CPU dispatching
        immediately; an earliest change can hold back (``NEVER``) or
        release a not-yet-started unit.
        """
        if priority is not None:
            if priority != eui.priority:
                self._m_priority_changes.inc()
            eui.priority = priority
        if preemption_threshold is not None:
            eui.preemption_threshold = preemption_threshold
        if eui.thread is not None and (priority is not None or
                                       preemption_threshold is not None):
            eui.thread.set_priority(eui.priority, eui.preemption_threshold)
        if earliest is not None:
            eui.earliest = earliest
            now = self.sim.now
            if (eui.state is _READY and eui.thread is not None
                    and eui.thread.alive and earliest > now):
                # Withdraw from the Run Queue: the runnable rule's
                # condition 4 no longer holds.
                eui.thread.suspend()
                eui.state = _SUSPENDED
                if earliest < NEVER:
                    self.sim.call_at(earliest,
                                     lambda e=eui: self._maybe_resume(e))
            elif eui.state is _SUSPENDED and earliest <= now:
                self._maybe_resume(eui)
            elif (eui.state is _SUSPENDED and earliest < NEVER):
                self.sim.call_at(earliest,
                                 lambda e=eui: self._maybe_resume(e))
            elif eui.state is _WAITING and eui.preds_remaining == 0:
                self._evaluate(eui)
        self.tracer.emit(_SET_PARAMS, eui.qualified_name, eui.priority,
                         eui.earliest)

    def _maybe_resume(self, eui: EUInstance) -> None:
        if eui.state is not _SUSPENDED:
            return
        if eui.earliest is not None and self.sim.now < eui.earliest:
            return  # the hold was extended meanwhile
        eui.state = _READY
        eui.thread.resume()

    def reevaluate_gated(self) -> None:
        """Re-try units a start gate previously refused."""
        pending, self._gated = self._gated, []
        # Highest priority first, FIFO within equal priority.
        pending.sort(key=lambda e: -e.priority)
        for eui in pending:
            if eui.state is _ELIGIBLE:
                self._evaluate(eui, from_gate_retry=True)

    # -- queries ----------------------------------------------------------------

    def active_instances(self) -> List[TaskInstance]:
        """Task instances still executing."""
        return [inst for inst in self._instances.values()
                if inst.state is _INST_ACTIVE]

    def instance(self, task_name: str, seq: int) -> Optional[TaskInstance]:
        """One task instance by (name, seq), or None."""
        return self._instances.get((task_name, seq))

    def instances_of(self, task_name: str) -> List[TaskInstance]:
        """Every instance of the named task, in order."""
        return [inst for (name, _seq), inst in sorted(self._instances.items())
                if name == task_name]

    def response_times(self, task_name: str) -> List[int]:
        """Completed response times of the named task."""
        return [inst.response_time for inst in self.instances_of(task_name)
                if inst.response_time is not None]

    # -- notifications -------------------------------------------------------------

    def _notify(self, kind: NotificationKind, eui: EUInstance,
                **details: Any) -> None:
        """Queue a notification for every scheduler that manages
        ``eui``: the node's candidates, cached by scope, then each one's
        ``manage_only`` test, inline (:meth:`SchedulerBase.manages`)."""
        node_id = eui.node_id
        candidates = self._schedulers_of.get(node_id)
        if candidates is None:
            candidates = self._schedulers_of[node_id] = tuple(
                scheduler for scheduler in self._schedulers
                if scheduler.scope is None or scheduler.scope == node_id)
        notification = Notification(kind, eui, self.sim.now, details)
        for scheduler in candidates:
            manage_only = scheduler.manage_only
            if manage_only is None or \
                    eui.instance.task.name in manage_only:
                scheduler.queue.put(notification)

    # -- runnable-rule evaluation (§3.2.1) -----------------------------------------

    def _evaluate(self, eui: EUInstance, from_gate_retry: bool = False) -> None:
        """Re-check the four runnable conditions for ``eui``."""
        state = eui.state
        if state is not _WAITING and state is not _ELIGIBLE:
            return
        if eui.instance.state is not _INST_ACTIVE and \
                self.abort_mode == "kill":
            return
        if eui.preds_remaining > 0:
            return

        if isinstance(eui.eu, InvEU):
            self._start_invocation(eui)
            return

        eu: CodeEU = eui.eu  # type: ignore[assignment]

        # Condition 3: condition variables.
        unset = [cv for cv in eu.wait_for if not cv.is_set]
        if unset:
            if not eui._watching_condvars:
                eui._watching_condvars = True
                self.tracer.record("dispatcher", "eu_blocked",
                                   eu=eui.qualified_name, cause="condvar",
                                   condvars=[cv.name for cv in unset])
                for condvar in eu.wait_for:
                    condvar.watch(lambda _cv, e=eui: self._evaluate(e))
            return

        # Condition 4: earliest start time.
        if eui.earliest is not None and self.sim.now < eui.earliest:
            if eui.earliest < NEVER and \
                    eui._earliest_timer_target != eui.earliest:
                eui._earliest_timer_target = eui.earliest
                self.tracer.record("dispatcher", "eu_blocked",
                                   eu=eui.qualified_name, cause="earliest",
                                   until=eui.earliest)
                self.sim.call_at(eui.earliest,
                                 lambda e=eui: self._evaluate(e))
            return

        # Condition 2: resources.  Emit Rac once, when the unit first
        # asks for its resources.
        if eu.resources and not eui._rac_emitted:
            eui._rac_emitted = True
            self._notify(_RAC, eui,
                         resources=[r.name for r, _m in eu.resources])
        eui.state = _ELIGIBLE

        # Start gates (PCP/SRP hook) veto grant + start atomically.
        for gate in self._start_gates:
            if not gate(eui):
                if eui not in self._gated:
                    self._gated.append(eui)
                    self.tracer.record("dispatcher", "eu_blocked",
                                       eu=eui.qualified_name, cause="gate")
                return

        for resource, mode in eu.resources:
            if not resource.can_grant(mode):
                resource.contention_count += 1
                waiters = self._resource_waiters.setdefault(resource, [])
                if eui not in waiters:
                    waiters.append(eui)
                    self.tracer.record(
                        "dispatcher", "eu_blocked",
                        eu=eui.qualified_name, cause="resource",
                        resource=resource.name,
                        holders=[getattr(h, "qualified_name", str(h))
                                 for h in resource.holders])
                return

        # All-or-nothing grant.
        for resource, mode in eu.resources:
            resource.grant(eui, mode)
        eui.granted = True
        self._start_thread(eui)

    # -- Code_EU execution ------------------------------------------------------------

    def _start_thread(self, eui: EUInstance) -> None:
        node = self.nodes.get(eui.node_id)
        if node is None:
            raise RuntimeError(
                f"{eui.qualified_name}: node {eui.node_id!r} not registered")
        if node.crashed:
            return  # the instance will stall; deadline monitoring reports it
        eui.state = _READY
        eui.release_time = self.sim.now
        processor = None
        pool = None
        if eui.engine != "cpu":
            pool = getattr(node, "engines", None)
            if pool is None or not pool.has(eui.engine):
                raise RuntimeError(
                    f"{eui.qualified_name}: mapped to engine "
                    f"{eui.engine!r} but node {eui.node_id!r} has no "
                    f"such engine units (declare them with "
                    f"HadesSystem(engines=...) or Scenario.engines)")
            processor = pool.acquire(eui.engine)
        thread = KThread(node, self._eu_body(eui),
                         name=eui.qualified_name,
                         priority=eui.priority,
                         preemption_threshold=eui.preemption_threshold,
                         processor=processor)
        if pool is not None:
            claimed_pool, claimed_unit = pool, processor
            thread.finished.add_callback(
                lambda _evt: claimed_pool.release(claimed_unit))
        eui.thread = thread
        node._threads.append(thread)
        thread.finished.add_callback(
            lambda evt: self._on_eu_thread_done(eui, evt))
        thread.start()
        if eui.engine == "cpu":
            self.tracer.emit(_THREAD_START, eui.qualified_name, node.node_id,
                             eui.priority)
        else:
            self.tracer.emit(_THREAD_START_ENGINE, eui.qualified_name,
                             node.node_id, eui.priority, eui.engine)
        self._m_thread_starts.inc()

    def _eu_body(self, eui: EUInstance):
        """The kernel-thread body executing one Code_EU instance."""
        eu: CodeEU = eui.eu  # type: ignore[assignment]
        charge = self.ledger.charge
        start = self._start_act
        if start is not None:
            charge("c_start_act", start.duration)
            yield start
        actual = eu.resolve_actual(eui.inputs, engine=eui.engine)
        eui.actual_used = actual
        if actual:
            yield Compute(actual, "application")
        context = ActionContext(dict(eui.inputs),
                                eui.instance.activation_time, self.sim.now)
        if eu.action is not None:
            eu.action(context)
        end = self._end_act
        if end is not None:
            charge("c_end_act", end.duration)
            yield end
        for _edge, _index, remote in eui.out_edges:
            if remote:
                if self._remote is not None:
                    charge("c_remote", self._remote.duration)
                    yield self._remote
            elif self._local is not None:
                charge("c_local", self._local.duration)
                yield self._local
        return context

    def _on_eu_thread_done(self, eui: EUInstance, finished: Event) -> None:
        if not finished.ok:
            # Action raised: abort the instance; if the task declares a
            # recovery task (§3.1's exception-handling constructions),
            # activate it, otherwise surface the error.
            self.tracer.record("dispatcher", "eu_error",
                               eu=eui.qualified_name)
            self._release_resources(eui)
            self.abort_instance(eui.instance, reason="action_error")
            recovery = eui.instance.task.recovery
            if recovery is not None:
                self.tracer.record("dispatcher", "recovery_activated",
                                   failed=eui.instance.task.name,
                                   recovery=recovery.name)
                self.activate(recovery)
                return
            raise finished._exception
        if eui.state is _ABORTED:
            return  # killed; bookkeeping already done by abort
        context: Optional[ActionContext] = finished.value
        if context is None:
            return  # thread was killed mid-flight
        if eui.instance.state is not _INST_ACTIVE:
            # Lazy abort mode: the thread ran to completion although its
            # instance was aborted — that is an orphan execution.
            self.monitor.report(ViolationKind.ORPHAN, self.sim.now,
                                eui.instance.task.name, eui.instance.seq,
                                eu=eui.eu.name, cause="aborted_instance")
            self._release_resources(eui)
            return
        self._complete_eu(eui, context)

    @staticmethod
    def _cancel_timer(timer: Optional[Event]) -> None:
        """Tombstone a monitoring timer that can no longer report."""
        if timer is not None and not timer.triggered and not timer.cancelled:
            timer.cancel()

    def _complete_eu(self, eui: EUInstance, context: ActionContext) -> None:
        eu: CodeEU = eui.eu  # type: ignore[assignment]
        eui.state = _DONE
        eui.finish_time = self.sim.now

        # Early termination monitoring (§3.2.1 event iii), against the
        # WCET of the engine variant that actually ran.
        wcet_bound = eu.wcet_on(eui.engine)
        if eui.actual_used is not None and eui.actual_used < wcet_bound:
            self.monitor.report(ViolationKind.EARLY_TERMINATION, self.sim.now,
                                eui.instance.task.name, eui.instance.seq,
                                eu=eu.name, actual=eui.actual_used,
                                wcet=wcet_bound)

        # Monitoring timers that can no longer report anything become
        # heap tombstones instead of firing into early returns.
        self._cancel_timer(eui._latest_timer)
        if eui.deadline is not None and eui.finish_time <= eui.deadline:
            self._cancel_timer(eui._deadline_timer)

        # End-of-unit effects: condvar signals declared by the action,
        # deduplicated last-write-wins per condvar (ActionContext.signal).
        for condvar, value in context._signals.items():
            if value:
                condvar.set()
            else:
                condvar.clear()

        self._release_resources(eui)
        self._notify(_TRM, eui)
        self.tracer.emit(_EU_DONE, eui.qualified_name)
        self._m_eu_completions.inc()
        self._propagate(eui, context)
        self._count_down(eui.instance)

    def _release_resources(self, eui: EUInstance) -> None:
        if not eui.granted or not isinstance(eui.eu, CodeEU):
            return
        eui.granted = False
        released = []
        for resource, _mode in eui.eu.resources:
            resource.release(eui)
            released.append(resource)
        if released:
            self._notify(_RRE, eui,
                         resources=[r.name for r in released])
            self.reevaluate_gated()
            for resource in released:
                self._wake_resource_waiters(resource)

    def _wake_resource_waiters(self, resource: Resource) -> None:
        waiters = self._resource_waiters.get(resource)
        if not waiters:
            return
        # Highest priority first; FIFO among equals (stable sort).
        waiters.sort(key=lambda e: -e.priority)
        still_waiting: List[EUInstance] = []
        for eui in list(waiters):
            if eui.state is not _ELIGIBLE:
                continue
            self._evaluate(eui)
            if eui.state is _ELIGIBLE and not eui.granted:
                still_waiting.append(eui)
        self._resource_waiters[resource] = still_waiting

    # -- precedence propagation -------------------------------------------------------

    def _propagate(self, eui: EUInstance, context: ActionContext) -> None:
        for edge, index, remote in eui.out_edges:
            value = (context.outputs.get(edge.param)
                     if edge.param is not None else None)
            if remote:
                self._send_remote_edge(eui, edge, index, value)
            else:
                self._satisfy_edge(eui.instance, edge, index, value)

    def _satisfy_edge(self, instance: TaskInstance, edge: Precedence,
                      index: int, value: Any) -> None:
        dst = instance.eu_instances[edge.dst]
        if edge.param is not None:
            dst.inputs[edge.param] = value
        dst.preds_remaining -= 1
        # The causal record of the HEUG DAG: span reconstruction reads
        # the per-activation precedence structure out of these.
        self.tracer.emit(_EDGE_SATISFIED, instance.qualified_name, index,
                         edge.src.name, edge.dst.name, dst.preds_remaining)
        if dst.preds_remaining == 0:
            self._evaluate(dst)

    def _send_remote_edge(self, eui: EUInstance, edge: Precedence,
                          edge_index: int, value: Any) -> None:
        """Execute a remote precedence constraint through T_network."""
        if self.network is None:
            raise RuntimeError(
                f"{eui.qualified_name}: remote precedence without a network")
        instance = eui.instance
        task = instance.task
        dst_eui = instance.eu_instances[edge.dst]
        src_node = eui.node_id
        dst_node = dst_eui.node_id
        payload = {
            "task": task.name,
            "seq": instance.seq,
            "edge": edge_index,
            "value": value,
        }
        interface = self.network.interfaces[src_node]
        tnet = getattr(self.nodes[src_node], "tnetwork", None)
        if tnet is not None:
            tnet.send(dst_node, payload, kind="heug-edge")
        else:
            interface.send(dst_node, payload, kind="heug-edge")
        self.tracer.emit(_REMOTE_EDGE_SENT, eui.qualified_name, dst_node,
                         instance.qualified_name, edge_index)
        # §3.2.1 event (v): watch for network omission failures by
        # observing the remote precedence constraint.
        bound = (self.network.max_message_delay(64)
                 + self.nodes[dst_node].net_irq.wcet
                 + self.nodes[dst_node].net_irq.pseudo_period
                 + self.omission_margin)
        if tnet is not None:
            bound += tnet.worst_case_queueing()
        expected_preds = dst_eui.preds_remaining

        def check_arrival() -> None:
            if (instance.state is _INST_ACTIVE
                    and dst_eui.preds_remaining >= expected_preds):
                self.monitor.report(ViolationKind.NETWORK_OMISSION,
                                    self.sim.now, task.name, instance.seq,
                                    edge=edge_index, src=src_node,
                                    dst=dst_node)

        self.sim.call_in(bound, check_arrival)

    def _on_remote_edge_message(self, message) -> None:
        payload = message.payload
        instance = self._instances.get((payload["task"], payload["seq"]))
        if instance is None or instance.state is not _INST_ACTIVE:
            # A message for a finished/aborted instance: orphan data.
            self.monitor.report(ViolationKind.ORPHAN, self.sim.now,
                                payload["task"], payload["seq"],
                                cause="remote_edge_to_dead_instance")
            return
        index = payload["edge"]
        self.tracer.emit(_REMOTE_EDGE_RECV, payload["task"], payload["seq"],
                         index)
        self._satisfy_edge(instance, instance.task.edges[index], index,
                           payload["value"])

    # -- Inv_EU execution ----------------------------------------------------------------

    def _start_invocation(self, eui: EUInstance) -> None:
        inv: InvEU = eui.eu  # type: ignore[assignment]
        eui.state = _READY
        node = self.nodes[eui.node_id]
        if node.crashed:
            return

        def invocation_body():
            start = self._start_inv
            if start is not None:
                self.ledger.charge("c_start_inv", start.duration)
                yield start
            target_instance = self.activate(inv.target, invoked_by=eui)
            eui.invoked_instance = target_instance
            if inv.inherit_priority:
                # §3.1.2: the invoked service runs at the priority of
                # the action(s) that invoked it.
                inherited = self._invoker_priority(eui)
                for target_eui in target_instance.eu_instances.values():
                    if target_eui.is_code():
                        self.set_thread_params(target_eui,
                                               priority=inherited)
            if inv.synchronous:
                yield WaitEvent(target_instance.done_event)
            end = self._end_inv
            if end is not None:
                self.ledger.charge("c_end_inv", end.duration)
                yield end

        # Invocation overhead is kernel work: not preemptible by
        # application threads (§3.1.2: kernel calls run at prio_max).
        thread = KThread(node, invocation_body(),
                         name=f"inv:{eui.qualified_name}",
                         priority=PRIO_MAX, preemption_threshold=PRIO_MAX)
        eui.thread = thread
        node._threads.append(thread)
        thread.finished.add_callback(
            lambda evt: self._on_invocation_done(eui, evt))
        thread.start()

    def _invoker_priority(self, eui: EUInstance) -> int:
        """The priority of the action(s) that led to this invocation:
        max over the Inv_EU's predecessors, falling back to the
        invoking instance's highest Code_EU priority."""
        task = eui.instance.task
        pred_priorities = [eui.instance.eu_instances[pred].priority
                           for pred in task.predecessors(eui.eu)
                           if isinstance(pred, CodeEU)]
        if pred_priorities:
            return max(pred_priorities)
        code_priorities = [other.priority
                           for other in eui.instance.eu_instances.values()
                           if other.is_code()]
        return max(code_priorities, default=eui.priority)

    def _on_invocation_done(self, eui: EUInstance, finished: Event) -> None:
        if not finished.ok:
            raise finished._exception
        if eui.state is _ABORTED or eui.instance.state is not _INST_ACTIVE:
            return
        eui.state = _DONE
        eui.finish_time = self.sim.now
        self.tracer.record("dispatcher", "inv_done", eu=eui.qualified_name)
        context = ActionContext({}, eui.instance.activation_time, self.sim.now)
        self._propagate(eui, context)
        self._count_down(eui.instance)

    # -- instance completion & abort --------------------------------------------------------

    def _count_down(self, instance: TaskInstance) -> None:
        instance.remaining -= 1
        if instance.remaining > 0:
            return
        instance.state = _INST_DONE
        instance.finish_time = self.sim.now
        self.completed_instances += 1
        if (instance.abs_deadline is not None
                and instance.finish_time <= instance.abs_deadline):
            self._cancel_timer(instance._deadline_timer)
        if (instance.abs_deadline is not None
                and instance.finish_time > instance.abs_deadline
                and not instance.missed_deadline):
            instance.missed_deadline = True
            self.monitor.report(ViolationKind.DEADLINE_MISS, self.sim.now,
                                instance.task.name, instance.seq,
                                deadline=instance.abs_deadline,
                                remaining_eus=0)
        self.tracer.emit(_INSTANCE_DONE, instance.task.name, instance.seq,
                         instance.qualified_name, instance.response_time,
                         instance.missed_deadline)
        self._m_instances_done.inc()
        if not instance.done_event.triggered:
            instance.done_event.succeed("done")

    def abort_instance(self, instance: TaskInstance, reason: str) -> None:
        """Abort an instance (deadline-miss reaction or explicit)."""
        if instance.state is not _INST_ACTIVE:
            return
        instance.state = _INST_ABORTED
        self._cancel_timer(instance._deadline_timer)
        self.tracer.record("dispatcher", "instance_abort",
                           task=instance.task.name, seq=instance.seq,
                           activation_id=instance.qualified_name,
                           reason=reason)
        self._m_instances_aborted.inc()
        for eui in instance.eu_instances.values():
            if eui.state is _DONE or eui.state is _ABORTED:
                continue
            if self.abort_mode == "kill":
                if eui.thread is not None and eui.thread.alive:
                    eui.thread.kill()
                self._release_resources(eui)
                eui.state = _ABORTED
            # lazy mode: leave threads running; completions become orphans.
        if not instance.done_event.triggered:
            instance.done_event.succeed("aborted")

    # -- monitoring callbacks ----------------------------------------------------------------

    def _check_deadline(self, instance: TaskInstance) -> None:
        if instance.state is not _INST_ACTIVE:
            return
        instance.missed_deadline = True
        self.monitor.report(ViolationKind.DEADLINE_MISS,
                            instance.abs_deadline,
                            instance.task.name, instance.seq,
                            deadline=instance.abs_deadline,
                            remaining_eus=instance.remaining)
        self.tracer.record("dispatcher", "deadline_miss",
                           task=instance.task.name, seq=instance.seq,
                           activation_id=instance.qualified_name,
                           deadline=instance.abs_deadline,
                           remaining_eus=instance.remaining)
        if self.on_deadline_miss == "abort":
            self.abort_instance(instance, reason="deadline_miss")

    def _check_eu_deadline(self, eui: EUInstance) -> None:
        if eui.instance.state is not _INST_ACTIVE:
            return
        if eui.state is _DONE and eui.finish_time <= eui.deadline:
            return
        if eui.state is _ABORTED:
            return
        self.monitor.report(ViolationKind.DEADLINE_MISS, eui.deadline,
                            eui.instance.task.name, eui.instance.seq,
                            eu=eui.eu.name, deadline=eui.deadline,
                            level="eu")

    def _check_latest(self, eui: EUInstance) -> None:
        if eui.instance.state is not _INST_ACTIVE:
            return
        if eui.start_time is None and eui.state is not _DONE and \
                eui.state is not _ABORTED:
            self.monitor.report(ViolationKind.LATEST_START, self.sim.now,
                                eui.instance.task.name, eui.instance.seq,
                                eu=eui.eu.name, latest=eui.latest)
