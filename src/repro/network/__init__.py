"""Simulated network substrate (substitute for the ATM testbed).

The paper's prototype used "an ATM network of Pentium workstations"
(§2.2.1) and models network management as an independent HADES task
``T_network`` (§3.1).  The fault model covers "performance and omission
failures for the communication network" (§2.1).

This package provides the corresponding simulated substrate:

* :class:`~repro.network.link.Link` — a unidirectional channel with
  *bounded* latency (a base, a per-byte cost and a bounded jitter) and
  injectable omission / performance faults,
* :class:`~repro.network.network.Network` — the set of nodes and links
  (full mesh by default), message routing and delivery through the
  destination node's network-card interrupt,
* :class:`~repro.network.interface.NetworkInterface` — per-node send /
  receive endpoint with inbox and receive callbacks.

Timing guarantees offered to upper layers: if neither endpoint crashes
and no omission or performance fault hits it, a ``size``-byte message
sent at ``t`` reaches the receiver's network interrupt by ``t +
Network.max_message_delay(size)``; the time-bounded communication
services add the receiver's ``net_irq`` WCET and pseudo-period.
"""

from repro.network.interface import NetworkInterface
from repro.network.link import (
    DeliveryOutcome,
    Link,
    LinkFault,
    OmissionFault,
    PerformanceFault,
)
from repro.network.messages import Message
from repro.network.network import Network

__all__ = [
    "DeliveryOutcome",
    "Link",
    "LinkFault",
    "Message",
    "Network",
    "NetworkInterface",
    "OmissionFault",
    "PerformanceFault",
]
