"""Dispatcher monitoring activities (paper §3.2.1).

The dispatcher monitors thread execution to detect:

(i)   deadline violations,
(ii)  violations of the arrival law of task activation requests,
(iii) early thread termination (effective execution time lower than the
      WCET) and orphan thread execution,
(iv)  deadlocks, and
(v)   network omission failures, observed through remote precedence
      constraints.

The paper notes that "at our knowledge no existing real-time
environment has implemented all these monitoring activities" — this
module implements all five.  Violations are recorded in an
:class:`ExecutionMonitor`; callers can subscribe handlers (e.g. a
mode-switch fault-tolerance mechanism, §3.2.1's "switching of modes of
operation in case of failure").

Deadlock detection works on a wait-for graph built from live dispatcher
state: elementary units waiting for resources point at current holders;
synchronous invocations point at the unfinished units of the invoked
instance; units waiting on a condition variable point at every live
unit that *declares* it may signal it (``CodeEU.may_signal``) — if no
such unit exists the wait can never be satisfied and is reported as a
stall.  (Resource deadlock proper is structurally impossible in the
HEUG model because grants are all-or-nothing per unit — §3.3's argument
— but invocation/condition cycles remain detectable.)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple


class ViolationKind(enum.Enum):
    """The monitored event classes of paper §3.2.1."""
    DEADLINE_MISS = "deadline_miss"
    ARRIVAL_LAW = "arrival_law_violation"
    EARLY_TERMINATION = "early_termination"
    ORPHAN = "orphan"
    DEADLOCK = "deadlock"
    NETWORK_OMISSION = "network_omission"
    LATEST_START = "latest_start_violation"


@dataclass(frozen=True)
class Violation:
    """One detected anomaly."""

    kind: ViolationKind
    time: int
    task: str
    instance: int
    details: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        return (f"[{self.time}] {self.kind.value} "
                f"{self.task}#{self.instance} {extra}")


Handler = Callable[[Violation], None]


class ExecutionMonitor:
    """Collects violations and dispatches them to subscribed handlers."""

    def __init__(self):
        self._violations: List[Violation] = []
        self._handlers: Dict[Optional[ViolationKind], List[Handler]] = {}

    def subscribe(self, handler: Handler,
                  kind: Optional[ViolationKind] = None) -> None:
        """Call ``handler`` on every violation (of ``kind``, if given)."""
        self._handlers.setdefault(kind, []).append(handler)

    def report(self, kind: ViolationKind, time: int, task: str,
               instance: int, **details: Any) -> Violation:
        """Record one violation and call its handlers: those subscribed
        to every kind first, then those of ``kind``.  Returns it."""
        violation = Violation(kind, time, task, instance, details)
        self._violations.append(violation)
        for handler in self._handlers.get(None, ()):
            handler(violation)
        for handler in self._handlers.get(kind, ()):
            handler(violation)
        return violation

    # -- queries ------------------------------------------------------------

    @property
    def violations(self) -> Tuple[Violation, ...]:
        """Every recorded violation, in order."""
        return tuple(self._violations)

    def of_kind(self, kind: ViolationKind) -> List[Violation]:
        """Violations of one kind, in order."""
        return [v for v in self._violations if v.kind is kind]

    def count(self, kind: Optional[ViolationKind] = None) -> int:
        """Number of recorded violations, of ``kind`` if given."""
        if kind is None:
            return len(self._violations)
        return len(self.of_kind(kind))

    def clear(self) -> None:
        """Forget all recorded entries."""
        self._violations.clear()


class DeadlockDetector:
    """Wait-for-graph analysis over live dispatcher state.

    ``scan(dispatcher)`` returns a list of findings; each finding is a
    dict with a ``kind`` of ``"cycle"`` (a genuine circular wait) or
    ``"unsatisfiable_wait"`` (a condition-variable wait with no live
    potential setter).
    """

    def scan(self, dispatcher) -> List[Dict[str, Any]]:
        """Analyse live dispatcher state; returns findings."""
        from repro.core.dispatcher import EUState

        live = [eui for inst in dispatcher.active_instances()
                for eui in inst.eu_instances.values()
                if eui.state not in (EUState.DONE, EUState.ABORTED)]
        findings: List[Dict[str, Any]] = []
        edges: Dict[object, Set[object]] = {eui: set() for eui in live}

        for eui in live:
            waits = eui.waiting_on()
            for kind, target in waits:
                if kind == "resource":
                    for holder in target.holders:
                        if holder in edges:
                            edges[eui].add(holder)
                elif kind == "invocation":
                    for other in target.eu_instances.values():
                        if other in edges and other.state not in (
                                EUState.DONE, EUState.ABORTED):
                            edges[eui].add(other)
                elif kind == "condvar":
                    setters = [other for other in live
                               if other is not eui
                               and target in getattr(other.eu, "may_signal", ())]
                    if not setters:
                        findings.append({
                            "kind": "unsatisfiable_wait",
                            "eu": eui.qualified_name,
                            "condvar": target.name,
                        })
                    for setter in setters:
                        edges[eui].add(setter)

        cycle = self._find_cycle(edges)
        if cycle:
            findings.append({
                "kind": "cycle",
                "members": [eui.qualified_name for eui in cycle],
            })
        return findings

    @staticmethod
    def _find_cycle(edges: Dict[object, Set[object]]) -> Optional[List[object]]:
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {node: WHITE for node in edges}
        parent: Dict[object, object] = {}

        for root in edges:
            if colour[root] != WHITE:
                continue
            stack = [(root, iter(edges[root]))]
            colour[root] = GREY
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if colour.get(child, BLACK) == WHITE:
                        colour[child] = GREY
                        parent[child] = node
                        stack.append((child, iter(edges[child])))
                        advanced = True
                        break
                    if colour.get(child) == GREY:
                        # Reconstruct the cycle child -> ... -> node -> child.
                        cycle = [child]
                        walk = node
                        while walk is not child:
                            cycle.append(walk)
                            walk = parent[walk]
                        cycle.reverse()
                        return cycle
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return None
