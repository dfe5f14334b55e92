"""Per-node network endpoint.

Delivery path: link → destination node's network-card interrupt (whose
WCET and pseudo-period are the §4.2 ``w_atm`` / ``P_atm`` background
kernel activity) → receive callbacks, or the inbox when no callback
takes the message.  A crashed node receives nothing; messages addressed
to it while down are lost (crash semantics of §2.1).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, TYPE_CHECKING

from repro.kernel.node import Node
from repro.network.messages import Message

if TYPE_CHECKING:
    from repro.network.network import Network

Receiver = Callable[[Message], None]


class NetworkInterface:
    """Send/receive endpoint bound to one node."""

    def __init__(self, network: "Network", node: Node):
        self.network = network
        self.node = node
        #: Received messages that no receive callback took, for a
        #: polling endpoint (see :meth:`drain_inbox`).
        self.inbox: Deque[Message] = deque()
        self._receivers: List[Receiver] = []
        self._kind_receivers: Dict[str, List[Receiver]] = {}
        self.sent_count = 0
        self.received_count = 0
        node.net_irq.handler = self._irq_handler

    # -- sending ------------------------------------------------------------

    def send(self, dst: str, payload, kind: str = "app",
             size: int = 64) -> Optional[Message]:
        """Send a message to node ``dst``.

        Returns the message, or None if the local node is down (a
        crashed node cannot send).
        """
        if self.node.crashed:
            return None
        message = Message(src=self.node.node_id, dst=dst, payload=payload,
                          kind=kind, size=size,
                          msg_id=self.network.next_msg_id(self.node.node_id))
        self.sent_count += 1
        self.network.route(message)
        return message

    # -- receiving -----------------------------------------------------------

    def on_receive(self, receiver: Receiver,
                   kind: Optional[str] = None) -> None:
        """Register a callback for incoming messages.

        With ``kind`` the callback only sees messages of that protocol
        tag; otherwise it sees everything.
        """
        if kind is None:
            self._receivers.append(receiver)
        else:
            self._kind_receivers.setdefault(kind, []).append(receiver)

    def accepts_delivery(self) -> bool:
        """Liveness probe consulted by the incoming link at delivery
        time: a crashed node receives nothing (§2.1 crash semantics)."""
        return not self.node.crashed

    def _deliver_from_link(self, message: Message) -> None:
        """Entry point called by the incoming link."""
        if self.node.crashed:
            return
        # Model the network-card receive interrupt: the message becomes
        # visible only after the handler's WCET has executed on the CPU.
        self.node.net_irq.fire(message)

    def _irq_handler(self, message: Message) -> None:
        if self.node.crashed or message is None:
            return
        self.received_count += 1
        taken = False
        for receiver in self._receivers:
            receiver(message)
            taken = True
        for receiver in self._kind_receivers.get(message.kind, ()):
            receiver(message)
            taken = True
        if not taken:
            self.inbox.append(message)

    def drain_inbox(self) -> List[Message]:
        """Remove and return every queued message: each one received
        that no receive callback took."""
        drained = list(self.inbox)
        self.inbox.clear()
        return drained

    def __repr__(self) -> str:
        return (f"<NetworkInterface {self.node.node_id} "
                f"sent={self.sent_count} recv={self.received_count}>")
