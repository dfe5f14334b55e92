"""Base class for schedulers (paper §3.2.2).

"Every scheduler is modeled by a task with a statically-defined
priority": a :class:`SchedulerBase` runs as a kernel thread at
``PRIO_SCHEDULER`` on its home node, blocks on the FIFO queue it shares
with the dispatcher, and treats notifications according to its policy
by calling the dispatcher primitive.

``scope`` selects which threads the scheduler manages: a node id for a
per-processor policy (EDF, RM — the usual case), or ``None`` for a
global policy (planning-based scheduling à la Spring).

``w_sched`` is the worst-case time the scheduler needs to treat one
notification — the quantity the §5.3 modified feasibility test charges
as scheduler interference.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.core.notifications import Notification, NotificationQueue
from repro.kernel.priorities import PRIO_SCHEDULER
from repro.kernel.threads import Compute, WaitEvent

if TYPE_CHECKING:
    from repro.core.dispatcher import Dispatcher, EUInstance


class SchedulerBase:
    """A scheduling policy cooperating with the dispatcher."""

    #: Human-readable policy name (override in subclasses).
    policy_name = "base"

    def __init__(self, scope: Optional[str] = None,
                 home_node: Optional[str] = None,
                 w_sched: int = 2,
                 manage_only: Optional[set] = None):
        if w_sched < 0:
            raise ValueError("w_sched must be >= 0")
        self.scope = scope
        self.home_node = home_node if home_node is not None else scope
        self.w_sched = w_sched
        #: When several schedulers cohabit on one node (§2.2.1), each
        #: manages only its own application: a set of task names (None
        #: = every task in scope).
        self.manage_only = set(manage_only) if manage_only is not None \
            else None
        self.dispatcher: Optional["Dispatcher"] = None
        self.queue: Optional[NotificationQueue] = None
        self.thread = None
        self.handled_count = 0

    def manages(self, eui: "EUInstance") -> bool:
        """Whether this scheduler receives notifications about ``eui``.

        The dispatcher applies this same test inline when it routes a
        notification (``scope``, then ``manage_only``), so a policy
        selects its threads through those two attributes.
        """
        if self.scope is not None and self.scope != eui.node_id:
            return False
        if self.manage_only is not None and \
                eui.instance.task.name not in self.manage_only:
            return False
        return True

    # -- lifecycle ---------------------------------------------------------

    def attach(self, dispatcher: "Dispatcher") -> None:
        """Called by :meth:`Dispatcher.attach_scheduler`."""
        self.dispatcher = dispatcher
        self.queue = NotificationQueue(
            dispatcher.sim, name=f"fifo:{self.policy_name}:{self.scope}")
        if self.home_node is None:
            # A global scheduler with no home runs "outside" any CPU:
            # it reacts instantly (zero cost) through queue callbacks.
            self._attach_instant()
        else:
            node = dispatcher.nodes[self.home_node]
            self.thread = node.spawn(self._body(),
                                     name=f"sched:{self.policy_name}",
                                     priority=PRIO_SCHEDULER,
                                     preemption_threshold=PRIO_SCHEDULER)
        self.on_attach()

    def on_attach(self) -> None:
        """Policy initialisation hook (override as needed)."""

    def _attach_instant(self) -> None:
        original_put = self.queue.put

        def put_and_handle(notification: Notification) -> None:
            original_put(notification)
            while True:
                pending = self.queue.pop()
                if pending is None:
                    break
                self.handled_count += 1
                self.handle(pending)

        self.queue.put = put_and_handle  # type: ignore[method-assign]

    def _body(self):
        """Scheduler task: block on the FIFO, treat notifications."""
        # One Compute request serves every notification; it is rebuilt
        # only if w_sched changes under it.
        charge = None
        while True:
            yield WaitEvent(self.queue.wait_nonempty())
            while True:
                notification = self.queue.pop()
                if notification is None:
                    break
                if self.w_sched:
                    if charge is None or charge.duration != self.w_sched:
                        charge = Compute(self.w_sched, "scheduler")
                    yield charge
                self.handled_count += 1
                self.handle(notification)

    # -- policy interface ---------------------------------------------------

    def handle(self, notification: Notification) -> None:
        """Treat one notification according to the scheduling policy."""
        raise NotImplementedError

    # -- primitive helpers ---------------------------------------------------

    def set_priority(self, eui: "EUInstance", priority: int,
                     preemption_threshold: Optional[int] = None) -> None:
        """Dispatcher primitive: change a thread's priority."""
        self.dispatcher.set_thread_params(
            eui, priority=priority,
            preemption_threshold=preemption_threshold)

    def set_earliest(self, eui: "EUInstance", earliest: int) -> None:
        """Dispatcher primitive: change a thread's earliest start."""
        self.dispatcher.set_thread_params(eui, earliest=earliest)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} scope={self.scope} "
                f"handled={self.handled_count}>")
