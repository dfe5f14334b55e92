"""The network: nodes, links, routing.

By default the network is a full mesh of identical links — the shape of
the paper's ATM switch fabric: every node pair communicates directly
with the same bounded latency.  Individual links can be replaced,
degraded or partitioned for fault-injection campaigns.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.kernel.node import Node
from repro.network.interface import NetworkInterface
from repro.network.link import DeliveryOutcome, Link
from repro.network.messages import Message
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

#: Message-id lane width per source node.  Ids are namespaced per
#: sender (``node_order * stride + per-src count``) so allocation is
#: independent of cross-node interleaving — the property that lets a
#: sharded run (repro.sim.sharded) hand out the same ids as the serial
#: engine without coordination.  10M messages per node per run is far
#: beyond any campaign here; the global fallback lane stays below the
#: first node lane.
MSG_ID_STRIDE = 10_000_000

#: One queued cross-shard delivery: the message plus the send-side
#: decision (absolute delivery instant and planned outcome value).
RemoteDelivery = Tuple[Message, int, str]


class Network:
    """A set of nodes connected by unidirectional links.

    ``lazy_links`` defers link construction to first use (``link()`` /
    ``route()``): a 256-node full mesh is 65k links, almost all of
    which a partitionable scenario never touches.  Semantics are
    unchanged — each link's jitter RNG is seeded from the (seed, src,
    dst) triple, not from creation order — so eager and lazy
    construction drive identical simulations.
    """

    def __init__(self, sim: Simulator, tracer: Optional[Tracer] = None,
                 base_latency: int = 50, size_cost_per_byte: int = 0,
                 jitter_bound: int = 0, seed: int = 0, metrics=None,
                 lazy_links: bool = False):
        from repro.obs.metrics import resolve_metrics

        self.sim = sim
        self.tracer = tracer if tracer is not None else Tracer(lambda: sim.now)
        if self.tracer._clock is None:
            self.tracer.bind_clock(lambda: sim.now)
        self.metrics = resolve_metrics(metrics)
        self._m_no_route = self.metrics.counter("network.no_route")
        self.base_latency = base_latency
        self.size_cost_per_byte = size_cost_per_byte
        self.jitter_bound = jitter_bound
        self._seed = seed
        self.lazy_links = lazy_links
        self.nodes: Dict[str, Node] = {}
        self.interfaces: Dict[str, NetworkInterface] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        self.lost_no_route = 0
        # Attachment order of nodes, 1-based: the per-src message-id
        # lane index.  Identical in a serial run and in every shard
        # replica, which build the same node list in the same order.
        self._node_order: Dict[str, int] = {}
        self._msg_counters: Dict[Optional[str], int] = {}
        # Sharded execution (repro.sim.sharded): the shard's owned node
        # set, and the outbox of deliveries bound for other shards.
        self.owned: Optional[frozenset] = None
        self.shard_outbox: List[RemoteDelivery] = []

    def next_msg_id(self, src: Optional[str] = None) -> int:
        """Allocate the next message id.

        Ids are unique network-wide and *consecutive per source node*:
        each attached node allocates from its own lane
        (``attachment_order * MSG_ID_STRIDE + count``), so the id of a
        message depends only on how many messages its sender sent
        before it — never on what other nodes did in between.  Callers
        that pass no ``src`` (or an unattached one) share a fallback
        lane below every node lane.
        """
        lane = src if src in self._node_order else None
        count = self._msg_counters.get(lane, 0) + 1
        self._msg_counters[lane] = count
        if lane is None:
            return count
        return self._node_order[lane] * MSG_ID_STRIDE + count

    # -- topology construction ------------------------------------------------

    def add_node(self, node: Node) -> NetworkInterface:
        """Attach ``node``, creating links to and from every existing node
        (deferred to first use under ``lazy_links``)."""
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        interface = NetworkInterface(self, node)
        self._node_order[node.node_id] = len(self._node_order) + 1
        if not self.lazy_links:
            for other_id in self.nodes:
                self._make_link(node.node_id, other_id)
                self._make_link(other_id, node.node_id)
        self.nodes[node.node_id] = node
        self.interfaces[node.node_id] = interface
        return interface

    def _make_link(self, src: str, dst: str) -> Link:
        rng = None
        if self.jitter_bound > 0:
            # One RNG per link, derived deterministically from the seed.
            rng = random.Random(f"{self._seed}:{src}->{dst}")
        link = Link(self.sim, self.tracer, src, dst,
                    base_latency=self.base_latency,
                    size_cost_per_byte=self.size_cost_per_byte,
                    jitter_bound=self.jitter_bound, rng=rng,
                    metrics=self.metrics)
        if (self.owned is not None and src in self.owned
                and dst not in self.owned):
            link.redirect = self._queue_remote_delivery
        self.links[(src, dst)] = link
        return link

    def link(self, src: str, dst: str) -> Link:
        """The link object for the (src, dst) pair.

        Under ``lazy_links`` the link (and its delivery wiring) is
        materialized on first access; unknown endpoints still raise
        :class:`KeyError` as in the eager mode.
        """
        existing = self.links.get((src, dst))
        if existing is not None:
            return existing
        if (not self.lazy_links or src == dst
                or src not in self.nodes or dst not in self.nodes):
            raise KeyError((src, dst))
        link = self._make_link(src, dst)
        interface = self.interfaces.get(dst)
        if interface is not None:
            link.connect(interface._deliver_from_link,
                         accepts=interface.accepts_delivery)
        return link

    def connect_all(self) -> None:
        """Wire every link to its destination interface.

        Called automatically by :meth:`route`; exposed for explicitness
        in set-up code.
        """
        for (src, dst), link in self.links.items():
            interface = self.interfaces.get(dst)
            if interface is not None:
                link.connect(interface._deliver_from_link,
                             accepts=interface.accepts_delivery)

    # -- sharded execution (repro.sim.sharded) --------------------------------

    def set_shard_owner(self, owned: Iterable[str]) -> None:
        """Mark this replica as owning ``owned`` nodes (sharded mode).

        Links from an owned source to a foreign destination stop
        scheduling local deliveries: the send-side decision (delivery
        instant + planned outcome) is queued on :attr:`shard_outbox`
        for the coordinator to ship to the destination's shard.
        """
        self.owned = frozenset(owned)
        for (src, dst), link in self.links.items():
            if src in self.owned and dst not in self.owned:
                link.redirect = self._queue_remote_delivery

    def _queue_remote_delivery(self, message: Message, deliver_at: int,
                               outcome: DeliveryOutcome) -> None:
        self.shard_outbox.append((message, deliver_at, outcome.value))

    def drain_shard_outbox(self) -> List[RemoteDelivery]:
        """Remove and return the queued cross-shard deliveries."""
        drained, self.shard_outbox = self.shard_outbox, []
        return drained

    def inject_delivery(self, message: Message, deliver_at: int,
                        outcome: DeliveryOutcome) -> None:
        """Schedule a delivery decided on another shard.

        The receiving side of the cross-shard wire: the local replica
        of the (src, dst) link runs its normal ``_deliver`` — crash
        probe, stats, trace record — at the instant the sender already
        fixed.  Conservative windows guarantee ``deliver_at`` is still
        in this shard's future.
        """
        link = self.link(message.src, message.dst)
        self.sim.call_at(deliver_at,
                         lambda: link._deliver(message, outcome))

    def min_cross_base_latency(self,
                               owner: Dict[str, Any]) -> Optional[int]:
        """Smallest base latency over links crossing shard boundaries.

        ``owner`` maps node id -> shard key; a node pair whose ids map
        to different keys crosses.  This is the conservative lookahead
        of the sharded engine: every delivery takes at least the base
        latency, so a shard at local time *t* cannot affect a peer
        before ``t + lookahead``.  Every link, built or still lazy,
        has the network-wide ``base_latency`` (see
        :class:`~repro.network.link.Link`), so that is the answer
        whenever the nodes map to two or more keys; ``None`` otherwise.
        """
        if len({owner.get(node_id) for node_id in self.nodes}) > 1:
            return self.base_latency
        return None

    # -- routing ------------------------------------------------------------

    def route(self, message: Message) -> None:
        """Carry ``message`` over the (src, dst) link."""
        key = (message.src, message.dst)
        link = self.links.get(key)
        if link is None and self.lazy_links:
            try:
                link = self.link(*key)
            except KeyError:
                link = None
        if link is None:
            self.lost_no_route += 1
            self._m_no_route.inc()
            self.tracer.record("network", "no_route", src=message.src,
                               dst=message.dst, msg=message.msg_id)
            return
        if link._on_deliver is None:
            interface = self.interfaces.get(message.dst)
            if interface is not None:
                link.connect(interface._deliver_from_link,
                             accepts=interface.accepts_delivery)
        link.transmit(message)

    # -- fault helpers --------------------------------------------------------

    def partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> None:
        """Take down every link crossing the two groups."""
        group_a, group_b = set(group_a), set(group_b)
        if self.lazy_links:
            # Materialize the crossing links so the outage is a real
            # per-link state, visible to later sends either way.
            for a in group_a & self.nodes.keys():
                for b in group_b & self.nodes.keys():
                    if a != b:
                        self.link(a, b).up = False
                        self.link(b, a).up = False
            return
        for (src, dst), link in self.links.items():
            if ((src in group_a and dst in group_b)
                    or (src in group_b and dst in group_a)):
                link.up = False

    def heal(self) -> None:
        """Bring every link back up."""
        for link in self.links.values():
            link.up = True

    # -- properties used by timing analyses --------------------------------------

    def max_message_delay(self, size: int = 64) -> int:
        """Network-wide worst-case correct transfer delay for ``size`` bytes.

        Derived from the network-wide parameters, which every link,
        built or still lazy, shares (see
        :class:`~repro.network.link.Link`): the same bound as each
        link's :meth:`~repro.network.link.Link.guaranteed_bound`, or 0
        while fewer than two nodes are attached.
        """
        if len(self.nodes) < 2:
            return 0
        return (self.base_latency + self.size_cost_per_byte * size
                + self.jitter_bound)

    def node_ids(self) -> List[str]:
        """Sorted ids of the attached nodes."""
        return sorted(self.nodes)

    def __repr__(self) -> str:
        return f"<Network nodes={len(self.nodes)} links={len(self.links)}>"
