"""The network: nodes, links, routing.

By default the network is a full mesh of identical links — the shape of
the paper's ATM switch fabric: every node pair communicates directly
with the same bounded latency.  Individual links can be replaced,
degraded or partitioned for fault-injection campaigns.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple

from repro.kernel.node import Node
from repro.network.interface import NetworkInterface
from repro.network.link import Link
from repro.network.messages import Message
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

#: Message-id lane width per source node.  Ids are namespaced per
#: sender (``node_order * stride + per-src count``) so a message's id
#: depends only on its sender's history, never on how other nodes'
#: sends interleave with it.  10M messages per node per run is far
#: beyond any campaign here; the global fallback lane stays below the
#: first node lane.
MSG_ID_STRIDE = 10_000_000


class Network:
    """A full mesh of unidirectional links between the attached nodes.

    Each link's jitter RNG is seeded from the (seed, src, dst) triple,
    not from creation order.
    """

    def __init__(self, sim: Simulator, tracer: Optional[Tracer] = None,
                 base_latency: int = 50, size_cost_per_byte: int = 0,
                 jitter_bound: int = 0, seed: int = 0, metrics=None):
        from repro.obs.metrics import resolve_metrics

        self.sim = sim
        self.tracer = tracer if tracer is not None else Tracer(sim)
        if self.tracer._clock is None:
            self.tracer.bind_clock(sim)
        self.metrics = resolve_metrics(metrics)
        self._m_no_route = self.metrics.counter("network.no_route")
        self.base_latency = base_latency
        self.size_cost_per_byte = size_cost_per_byte
        self.jitter_bound = jitter_bound
        self._seed = seed
        self.nodes: Dict[str, Node] = {}
        self.interfaces: Dict[str, NetworkInterface] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        self.lost_no_route = 0
        # Attachment order of nodes, 1-based: the per-src message-id
        # lane index.
        self._node_order: Dict[str, int] = {}
        self._msg_counters: Dict[Optional[str], int] = {}

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
        """Attach ``node``, creating links to and from every existing
        node."""
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        interface = NetworkInterface(self, node)
        self._node_order[node.node_id] = len(self._node_order) + 1
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
        self.links[(src, dst)] = link
        return link

    def link(self, src: str, dst: str) -> Link:
        """The link object for the (src, dst) pair; :class:`KeyError`
        if there is none."""
        return self.links[(src, dst)]

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

    # -- routing ------------------------------------------------------------

    def route(self, message: Message) -> None:
        """Carry ``message`` over the (src, dst) link."""
        link = self.links.get((message.src, message.dst))
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

        Derived from the network-wide parameters, which every link
        shares (see :class:`~repro.network.link.Link`): the same bound
        as each link's :meth:`~repro.network.link.Link.guaranteed_bound`,
        or 0 while fewer than two nodes are attached.  It ends when the
        message reaches the receiving node, so a per-hop end-to-end
        bound adds that node's ``net_irq`` WCET, as
        :func:`~repro.feasibility.end_to_end.end_to_end_bound` says.
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
