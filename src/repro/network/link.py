"""Point-to-point links with bounded latency and injectable faults.

A link delivers each message after ``base_latency + size_cost * size +
jitter`` microseconds, where jitter is drawn deterministically from a
seeded RNG in ``[0, jitter_bound]``.  The *guaranteed* bound used by
feasibility analyses is :attr:`Link.max_latency`; a correct link never
exceeds it.

Faults (paper §2.1: omission and performance failures for the
communication network) are injected through :class:`LinkFault` hooks:

* :class:`OmissionFault` drops messages (probabilistically or by plan),
* :class:`PerformanceFault` delays messages beyond the bound — the
  failure mode that timing-failure detection must catch.
"""

from __future__ import annotations

import enum
import random
from typing import Callable, List, Optional, Tuple, TYPE_CHECKING

from repro.network.messages import Message
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer, layout, snapshot

if TYPE_CHECKING:
    from repro.network.interface import NetworkInterface


#: The layouts of the ``network/send`` record: a plain message, a message
#: of an activation, and one carrying a precedence edge; and of
#: ``network/deliver``.
_SEND = layout("network", "send", "link", "msg", "kind", "size")
_SEND_ACTIVATION = layout("network", "send", "link", "msg", "kind", "size",
                          "activation_id")
_SEND_EDGE = layout("network", "send", "link", "msg", "kind", "size",
                    "activation_id", "edge")
_DELIVER = layout("network", "deliver", "link", "msg", "kind", "latency",
                  "outcome", "bound")


class DeliveryOutcome(enum.Enum):
    """Possible fates of a transmitted message."""
    DELIVERED = "delivered"      # arrived within the guaranteed bound
    DROPPED = "dropped"          # omission fault
    LATE = "late"                # delivered past the guaranteed bound
    DST_CRASHED = "dst_crashed"  # receiver was down at delivery time


class LinkFault:
    """Base fault hook: inspects a message, returns (drop?, extra_delay)."""

    def apply(self, message: Message) -> Tuple[bool, int]:
        """Apply this operation; returns its result."""
        raise NotImplementedError


class OmissionFault(LinkFault):
    """Drops messages, probabilistically and/or by explicit sequence plan.

    ``probability`` applies an i.i.d. coin per message using the given
    deterministic RNG; ``drop_ids`` drops specific message ids (useful
    for adversarial worst-case tests).  ``max_consecutive`` optionally
    caps runs of drops, matching the bounded-omission assumption that
    time-bounded reliable broadcast protocols rely on.
    """

    def __init__(self, probability: float = 0.0,
                 rng: Optional[random.Random] = None,
                 drop_ids: Optional[set] = None,
                 max_consecutive: Optional[int] = None):
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability {probability} outside [0, 1]")
        if probability > 0 and rng is None:
            raise ValueError("probabilistic omission needs an explicit rng")
        self.probability = probability
        self.rng = rng
        self.drop_ids = drop_ids or set()
        self.max_consecutive = max_consecutive
        self._run = 0
        self.dropped = 0

    def apply(self, message: Message) -> Tuple[bool, int]:
        """Apply this operation; returns its result."""
        drop = message.msg_id in self.drop_ids
        if not drop and self.probability > 0:
            drop = self.rng.random() < self.probability
        if drop and self.max_consecutive is not None:
            if self._run >= self.max_consecutive:
                drop = False
        self._run = self._run + 1 if drop else 0
        if drop:
            self.dropped += 1
        return drop, 0


class PerformanceFault(LinkFault):
    """Delays messages past the link's guaranteed bound."""

    def __init__(self, extra_delay: int, probability: float = 1.0,
                 rng: Optional[random.Random] = None):
        if extra_delay < 0:
            raise ValueError("extra_delay must be >= 0")
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability {probability} outside [0, 1]")
        if probability < 1.0 and rng is None:
            raise ValueError("probabilistic delay needs an explicit rng")
        self.extra_delay = int(extra_delay)
        self.probability = probability
        self.rng = rng
        self.delayed = 0

    def apply(self, message: Message) -> Tuple[bool, int]:
        """Apply this operation; returns its result."""
        hit = self.probability >= 1.0 or self.rng.random() < self.probability
        if hit:
            self.delayed += 1
            return False, self.extra_delay
        return False, 0


class Link:
    """A unidirectional channel from ``src`` to ``dst``.

    The latency parameters (``base_latency``, ``size_cost_per_byte``,
    ``jitter_bound``) are fixed at construction.  Inside a
    :class:`~repro.network.network.Network` only ``Network._make_link``
    builds links, always with the network-wide parameters, so every
    link of a network shares one bound: ``Network.max_message_delay``
    derives it from those parameters without scanning links.  Faults
    and partitions do not change the bound; :meth:`guaranteed_bound` is
    what classifies each delivery as on time or late.
    """

    def __init__(self, sim: Simulator, tracer: Tracer, src: str, dst: str,
                 base_latency: int = 50, size_cost_per_byte: int = 0,
                 jitter_bound: int = 0,
                 rng: Optional[random.Random] = None, fifo: bool = True,
                 metrics=None):
        from repro.obs.metrics import resolve_metrics

        if base_latency < 0 or jitter_bound < 0 or size_cost_per_byte < 0:
            raise ValueError("latency parameters must be >= 0")
        if jitter_bound > 0 and rng is None:
            raise ValueError("jitter needs an explicit rng")
        self.sim = sim
        self.tracer = tracer
        self.src = src
        self.dst = dst
        #: ``src->dst``: the ``link`` field of this link's records.
        self.label = f"{src}->{dst}"
        self.base_latency = int(base_latency)
        self.size_cost_per_byte = int(size_cost_per_byte)
        self.jitter_bound = int(jitter_bound)
        self.rng = rng
        self.fifo = fifo
        self.up = True
        self.faults: List[LinkFault] = []
        self._last_delivery = 0
        self.stats = {outcome: 0 for outcome in DeliveryOutcome}
        self._on_deliver: Optional[Callable[[Message], None]] = None
        self._accepts: Optional[Callable[[], bool]] = None
        self.metrics = resolve_metrics(metrics)
        self._m_sent = self.metrics.counter("network.messages_sent")
        self._m_delivered = self.metrics.counter("network.messages_delivered")
        self._m_dropped = self.metrics.counter("network.messages_dropped")
        self._h_latency = self.metrics.histogram("network.latency")

    def guaranteed_bound(self, size: int) -> int:
        """Worst-case correct transfer delay for a ``size``-byte message."""
        return (self.base_latency + self.size_cost_per_byte * size
                + self.jitter_bound)

    def add_fault(self, fault: LinkFault) -> None:
        """Attach a fault hook to this link."""
        self.faults.append(fault)

    def clear_faults(self) -> None:
        """Remove every fault hook from this link."""
        self.faults.clear()

    def connect(self, deliver: Callable[[Message], None],
                accepts: Optional[Callable[[], bool]] = None) -> None:
        """Set the delivery callback (normally the dst NetworkInterface).

        ``accepts`` is an optional liveness probe consulted at delivery
        time; returning False classifies the message as
        :attr:`DeliveryOutcome.DST_CRASHED` instead of delivered.
        """
        self._on_deliver = deliver
        self._accepts = accepts

    def transmit(self, message: Message) -> DeliveryOutcome:
        """Send ``message``; returns the *planned* outcome.

        The outcome is computed at send time (deterministically, from
        the injected faults and the already-known delivery instant) but
        only observable to the receiver at delivery time, as on a real
        network.  A message is LATE iff it reaches the receiver past
        the guaranteed bound — ``deliver_time - send_time >
        guaranteed_bound(size)`` — regardless of *why*: a fault delay
        fully absorbed by jitter headroom stays DELIVERED, while FIFO
        push-back behind a delayed predecessor counts as LATE.
        Delivery exactly at the bound is on time.
        """
        message.send_time = self.sim.now
        self._m_sent.inc()
        # The message span's opening edge (recorded for every transmit,
        # before the link decides the message's fate).  For remote
        # precedence constraints the payload carries the HEUG
        # correlation ids (activation + edge index); forwarding them
        # here lets a span reconstructor tie this msg_id to its
        # activation without guessing from FIFO order.
        payload = message.payload
        if type(payload) is dict and "task" in payload and "seq" in payload:
            activation_id = f"{payload['task']}#{payload['seq']}"
            if "edge" in payload:
                # The dispatcher's edges are ints; an application's
                # container edge stays the caller's to mutate.
                self.tracer.emit(_SEND_EDGE, self.label, message.msg_id,
                                 message.kind, message.size, activation_id,
                                 snapshot(payload["edge"]))
            else:
                self.tracer.emit(_SEND_ACTIVATION, self.label,
                                 message.msg_id, message.kind, message.size,
                                 activation_id)
        else:
            self.tracer.emit(_SEND, self.label, message.msg_id, message.kind,
                             message.size)
        if not self.up:
            self.stats[DeliveryOutcome.DROPPED] += 1
            self._m_dropped.inc()
            self.tracer.record("network", "drop", link=self.label,
                               msg=message.msg_id, reason="link_down")
            return DeliveryOutcome.DROPPED

        extra = 0
        for fault in self.faults:
            drop, delay = fault.apply(message)
            if drop:
                self.stats[DeliveryOutcome.DROPPED] += 1
                self._m_dropped.inc()
                self.tracer.record("network", "drop", link=self.label,
                                   msg=message.msg_id, reason="omission")
                return DeliveryOutcome.DROPPED
            extra += delay

        jitter = self.rng.randrange(0, self.jitter_bound + 1) if self.jitter_bound else 0
        delay = (self.base_latency + self.size_cost_per_byte * message.size
                 + jitter + extra)
        deliver_at = self.sim.now + delay
        if self.fifo and deliver_at < self._last_delivery:
            deliver_at = self._last_delivery
        self._last_delivery = deliver_at

        late = (deliver_at - message.send_time
                > self.guaranteed_bound(message.size))
        outcome = DeliveryOutcome.LATE if late else DeliveryOutcome.DELIVERED
        self.sim.call_at(deliver_at, lambda: self._deliver(message, outcome))
        return outcome

    def _deliver(self, message: Message, outcome: DeliveryOutcome) -> None:
        message.deliver_time = self.sim.now
        if self._on_deliver is None or (self._accepts is not None
                                        and not self._accepts()):
            # No receiver wired, or the receiver is down at delivery
            # time (crash semantics of §2.1): the message is lost.
            self.stats[DeliveryOutcome.DST_CRASHED] += 1
            self.tracer.record("network", "dst_crashed", link=self.label,
                               msg=message.msg_id, kind=message.kind)
            return
        self.stats[outcome] += 1
        self._m_delivered.inc()
        self._h_latency.observe(message.latency)
        self.tracer.emit(_DELIVER, self.label, message.msg_id, message.kind,
                         message.latency, outcome.value,
                         self.guaranteed_bound(message.size))
        self._on_deliver(message)

    def __repr__(self) -> str:
        return (f"<Link {self.label} "
                f"bound={self.guaranteed_bound(0)}+{self.size_cost_per_byte}/B>")
