"""Dependency tracking (§2.2.1 (v), after Nett, Mock & Theisohn 1997).

"Managing dependencies — a key problem in fault-tolerant distributed
algorithms": when a computation turns out to be faulty (value failure,
abort), every computation that consumed its results is suspect and may
need to be invalidated or compensated.

:class:`DependencyTracker` records read/write dependencies between
activities (any hashable identifiers — in HADES, task-instance keys)
and answers the transitive-closure queries fault handling needs:
``dependents_of`` (who must be invalidated if X is bad) and
``depends_on`` (whose failure would invalidate X).  The dispatcher's
parameter-carrying precedence constraints can feed the tracker
automatically via :func:`track_dispatcher`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple


class DependencyTracker:
    """A growing DAG of "consumer depends on producer" edges."""

    def __init__(self):
        #: producer -> set of consumers
        self._out: Dict[Any, Set[Any]] = {}
        #: consumer -> set of producers
        self._in: Dict[Any, Set[Any]] = {}
        #: data item -> last writer (for read-tracking)
        self._last_writer: Dict[Any, Any] = {}
        self.invalidated: Set[Any] = set()
        self.edge_count = 0

    # -- recording ------------------------------------------------------------------

    def record(self, producer: Any, consumer: Any) -> None:
        """Record that ``consumer`` used a result of ``producer``."""
        if producer == consumer:
            return
        self._out.setdefault(producer, set()).add(consumer)
        self._in.setdefault(consumer, set()).add(producer)
        self.edge_count += 1

    def record_write(self, writer: Any, item: Any) -> None:
        """Note that ``writer`` produced data item ``item``."""
        self._last_writer[item] = writer

    def record_read(self, reader: Any, item: Any) -> None:
        """Note that ``reader`` consumed ``item``: creates a dependency
        on its last writer, if any."""
        writer = self._last_writer.get(item)
        if writer is not None:
            self.record(writer, reader)

    # -- queries --------------------------------------------------------------------

    def dependents_of(self, activity: Any) -> Set[Any]:
        """Every activity transitively depending on ``activity``."""
        return self._closure(activity, self._out)

    def depends_on(self, activity: Any) -> Set[Any]:
        """Every activity ``activity`` transitively depends on."""
        return self._closure(activity, self._in)

    @staticmethod
    def _closure(start: Any, edges: Dict[Any, Set[Any]]) -> Set[Any]:
        seen: Set[Any] = set()
        frontier = list(edges.get(start, ()))
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(edges.get(node, ()))
        return seen

    # -- invalidation ------------------------------------------------------------------

    def invalidate(self, activity: Any) -> Set[Any]:
        """Mark ``activity`` faulty; returns the full set of casualties
        (itself plus all transitive dependents)."""
        casualties = {activity} | self.dependents_of(activity)
        self.invalidated |= casualties
        return casualties

    def is_valid(self, activity: Any) -> bool:
        """Whether the activity has not been invalidated."""
        return activity not in self.invalidated


#: The trace keys :func:`track_dispatcher` reads.
TRACKED_KEYS = (("dispatcher", "instance_abort"),)


def track_dispatcher(tracker: DependencyTracker, dispatcher) -> None:
    """Feed the tracker from a dispatcher's trace: every satisfied
    parameter-carrying precedence constraint between task instances
    becomes a dependency edge, and aborted instances are invalidated."""
    def on_record(record) -> None:
        # task seq activation_id reason
        tracker.invalidate((record.f0, record.f1))

    dispatcher.tracer.subscribe(on_record, keys=TRACKED_KEYS)
