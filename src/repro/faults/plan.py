"""Deterministic fault plans over a running system."""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.network.link import OmissionFault, PerformanceFault


class FaultKind(enum.Enum):
    """Injectable fault categories (paper §2.1 fault model)."""
    NODE_CRASH = "node_crash"
    NODE_RECOVER = "node_recover"
    LINK_DOWN = "link_down"
    LINK_UP = "link_up"
    LINK_OMISSION = "link_omission"          # probabilistic drops
    LINK_PERFORMANCE = "link_performance"    # late deliveries
    CLOCK_BYZANTINE = "clock_byzantine"      # clock goes arbitrary
    CLOCK_RECOVER = "clock_recover"


@dataclass(frozen=True)
class FaultEvent:
    """One fault (or repair) at one instant.

    ``target`` is a node id for node/clock faults and an ``(src, dst)``
    pair for link faults.  ``params`` carries kind-specific settings
    (e.g. drop probability).
    """

    time: int
    kind: FaultKind
    target: Any
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("fault time must be >= 0")


class FaultPlan:
    """An ordered schedule of fault events, applied to a HadesSystem."""

    def __init__(self, events: Sequence[FaultEvent] = (), seed: int = 0):
        self.events = sorted(events, key=lambda e: (e.time, e.kind.value))
        self.seed = seed
        self.applied: List[FaultEvent] = []

    def add(self, event: FaultEvent) -> "FaultPlan":
        """Append and return self for chaining."""
        self.events.append(event)
        self.events.sort(key=lambda e: (e.time, e.kind.value))
        return self

    def crash(self, time: int, node_id: str) -> "FaultPlan":
        """Schedule a node crash at the given time."""
        return self.add(FaultEvent(time, FaultKind.NODE_CRASH, node_id))

    def recover(self, time: int, node_id: str) -> "FaultPlan":
        """Schedule a node recovery at the given time."""
        return self.add(FaultEvent(time, FaultKind.NODE_RECOVER, node_id))

    def link_down(self, time: int, src: str, dst: str) -> "FaultPlan":
        """Schedule a link outage at the given time."""
        return self.add(FaultEvent(time, FaultKind.LINK_DOWN, (src, dst)))

    def link_omission(self, time: int, src: str, dst: str,
                      probability: float) -> "FaultPlan":
        """Schedule probabilistic loss on a link."""
        return self.add(FaultEvent(time, FaultKind.LINK_OMISSION,
                                   (src, dst),
                                   {"probability": probability}))

    def byzantine_clock(self, time: int, node_id: str) -> "FaultPlan":
        """Schedule a clock's Byzantine failure."""
        return self.add(FaultEvent(time, FaultKind.CLOCK_BYZANTINE, node_id))

    # -- application ---------------------------------------------------------------

    #: Kinds whose firing consumes one draw from the plan RNG (to seed
    #: the injected fault's own RNG).
    _DRAWING_KINDS = frozenset({FaultKind.LINK_OMISSION,
                                FaultKind.LINK_PERFORMANCE})

    def apply(self, system) -> None:
        """Schedule every event on the system's simulator.

        Fault-RNG sub-seeds are drawn *here*, in event order, not at
        fire time.  The drawn values match fire-time draws exactly:
        events fire in the same sorted order they are scheduled in.
        """
        rng = random.Random(self.seed)
        for event in self.events:
            sub_seed = (rng.randrange(2 ** 31)
                        if event.kind in self._DRAWING_KINDS else None)
            system.sim.call_at(
                event.time,
                lambda e=event, s=sub_seed: self._fire(system, e, s))

    def _fire(self, system, event: FaultEvent,
              sub_seed: Optional[int]) -> None:
        kind = event.kind
        if kind is FaultKind.NODE_CRASH:
            system.nodes[event.target].crash()
        elif kind is FaultKind.NODE_RECOVER:
            system.nodes[event.target].recover()
        elif kind is FaultKind.LINK_DOWN:
            system.network.link(*event.target).up = False
        elif kind is FaultKind.LINK_UP:
            system.network.link(*event.target).up = True
        elif kind is FaultKind.LINK_OMISSION:
            link = system.network.link(*event.target)
            link.add_fault(OmissionFault(
                probability=event.params.get("probability", 0.1),
                rng=random.Random(sub_seed),
                max_consecutive=event.params.get("max_consecutive")))
        elif kind is FaultKind.LINK_PERFORMANCE:
            link = system.network.link(*event.target)
            link.add_fault(PerformanceFault(
                extra_delay=event.params.get("extra_delay", 10_000),
                probability=event.params.get("probability", 1.0),
                rng=random.Random(sub_seed)))
        elif kind is FaultKind.CLOCK_BYZANTINE:
            clock = system.nodes[event.target].clock
            if not hasattr(clock, "byzantine"):
                raise ValueError(
                    f"node {event.target} has no Byzantine-capable clock")
            clock.byzantine = True
        elif kind is FaultKind.CLOCK_RECOVER:
            clock = system.nodes[event.target].clock
            clock.byzantine = False
        self.applied.append(event)
        system.tracer.record("faults", "inject", kind=kind.value,
                             target=str(event.target))


def random_plan(node_ids: Sequence[str], horizon: int, seed: int,
                crash_count: int = 1, omission_links: int = 1,
                spare_nodes: Sequence[str] = ()) -> FaultPlan:
    """A seeded random campaign: some crashes, some lossy links.

    ``spare_nodes`` are never crashed (e.g. the observer/client node).
    """
    rng = random.Random(seed)
    plan = FaultPlan(seed=seed)
    crashable = [n for n in node_ids if n not in spare_nodes]
    rng.shuffle(crashable)
    for node_id in crashable[:crash_count]:
        plan.crash(rng.randrange(horizon // 4, 3 * horizon // 4), node_id)
    pairs = [(a, b) for a in node_ids for b in node_ids if a != b]
    rng.shuffle(pairs)
    for src, dst in pairs[:omission_links]:
        plan.link_omission(rng.randrange(0, horizon // 2), src, dst,
                           probability=rng.uniform(0.05, 0.4))
    return plan
