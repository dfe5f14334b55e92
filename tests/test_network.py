"""Unit tests for the simulated network substrate."""

import cProfile
import pstats
import random

import pytest

from repro.kernel import Node
from repro.network import (
    DeliveryOutcome,
    Message,
    Network,
    OmissionFault,
    PerformanceFault,
)
from repro.sim import Simulator, Tracer


@pytest.fixture
def sim():
    return Simulator()


def make_net(sim, n=2, **kwargs):
    tracer = Tracer(lambda: sim.now)
    net = Network(sim, tracer, **kwargs)
    for i in range(n):
        net.add_node(Node(sim, f"n{i}", tracer=tracer))
    net.connect_all()
    return net


class TestBasicDelivery:
    def test_message_arrives_with_payload(self, sim):
        net = make_net(sim)
        received = []
        net.interfaces["n1"].on_receive(lambda m: received.append(m.payload))
        net.interfaces["n0"].send("n1", {"x": 1})
        sim.run()
        assert received == [{"x": 1}]

    def test_delivery_within_guaranteed_bound(self, sim):
        net = make_net(sim, base_latency=100, jitter_bound=30, seed=7)
        inbox = []
        net.interfaces["n1"].on_receive(lambda m: inbox.append(m))
        net.interfaces["n0"].send("n1", "hi", size=10)
        sim.run()
        irq_wcet = net.nodes["n1"].net_irq.wcet
        bound = net.link("n0", "n1").guaranteed_bound(10) + irq_wcet
        assert len(inbox) == 1
        # Receive completes only after the IRQ handler WCET.
        assert sim.now <= bound

    def test_size_cost_scales_latency(self, sim):
        net = make_net(sim, base_latency=10, size_cost_per_byte=2)
        times = {}

        def on_recv(m):
            times[m.payload] = sim.now

        net.interfaces["n1"].on_receive(on_recv)
        net.interfaces["n0"].send("n1", "small", size=1)
        sim.run()
        t_small = times["small"]
        net.interfaces["n0"].send("n1", "big", size=100)
        sim.run()
        t_big = times["big"] - t_small
        assert t_big > t_small

    def test_fifo_links_preserve_order(self, sim):
        net = make_net(sim)
        order = []
        net.interfaces["n1"].on_receive(lambda m: order.append(m.payload))
        for i in range(5):
            net.interfaces["n0"].send("n1", i)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_kind_filtered_receivers(self, sim):
        net = make_net(sim)
        app, sync = [], []
        net.interfaces["n1"].on_receive(lambda m: app.append(m.payload),
                                        kind="app")
        net.interfaces["n1"].on_receive(lambda m: sync.append(m.payload),
                                        kind="clocksync")
        net.interfaces["n0"].send("n1", 1, kind="app")
        net.interfaces["n0"].send("n1", 2, kind="clocksync")
        sim.run()
        assert app == [1]
        assert sync == [2]

    def test_inbox_accumulates_and_drains(self, sim):
        net = make_net(sim)
        net.interfaces["n0"].send("n1", "a")
        net.interfaces["n0"].send("n1", "b")
        sim.run()
        drained = net.interfaces["n1"].drain_inbox()
        assert [m.payload for m in drained] == ["a", "b"]
        assert net.interfaces["n1"].drain_inbox() == []
        # A message a receiver takes is not queued; one of a kind that
        # nobody receives still is.
        taken = []
        net.interfaces["n1"].on_receive(taken.append, kind="ping")
        net.interfaces["n0"].send("n1", "c", kind="ping")
        net.interfaces["n0"].send("n1", "d", kind="pong")
        sim.run()
        assert [m.payload for m in taken] == ["c"]
        drained = net.interfaces["n1"].drain_inbox()
        assert [m.payload for m in drained] == ["d"]
        assert net.interfaces["n1"].received_count == 4

    def test_no_route_counted(self, sim):
        net = make_net(sim)
        net.interfaces["n0"].send("ghost", "x")
        sim.run()
        assert net.lost_no_route == 1
        assert [r.event for r in net.tracer.records] == ["no_route"]
        with pytest.raises(KeyError):
            net.link("n0", "ghost")

    def test_full_mesh_topology(self, sim):
        net = make_net(sim, n=4)
        assert len(net.links) == 4 * 3
        assert net.node_ids() == ["n0", "n1", "n2", "n3"]

    def test_duplicate_node_rejected(self, sim):
        net = make_net(sim)
        with pytest.raises(ValueError):
            net.add_node(Node(sim, "n0"))


class TestCrashSemantics:
    def test_crashed_receiver_gets_nothing(self, sim):
        net = make_net(sim)
        received = []
        net.interfaces["n1"].on_receive(lambda m: received.append(m))
        net.nodes["n1"].crash()
        net.interfaces["n0"].send("n1", "lost")
        sim.run()
        assert received == []

    def test_crashed_sender_cannot_send(self, sim):
        net = make_net(sim)
        net.nodes["n0"].crash()
        assert net.interfaces["n0"].send("n1", "x") is None

    def test_message_in_flight_to_crashing_node_lost(self, sim):
        net = make_net(sim, base_latency=100)
        received = []
        net.interfaces["n1"].on_receive(lambda m: received.append(m))
        net.interfaces["n0"].send("n1", "x")
        sim.call_in(50, net.nodes["n1"].crash)  # crash mid-flight
        sim.run()
        assert received == []


class TestFaults:
    def test_omission_fault_drops_planned_ids(self, sim):
        net = make_net(sim)
        received = []
        net.interfaces["n1"].on_receive(lambda m: received.append(m.payload))
        m1 = net.interfaces["n0"].send("n1", "keep")
        fault = OmissionFault(drop_ids=set())
        net.link("n0", "n1").add_fault(fault)
        m2 = net.interfaces["n0"].send("n1", "keep2")
        sim.run()
        fault.drop_ids.add(m2.msg_id + 1)
        m3 = net.interfaces["n0"].send("n1", "dropme")
        assert m3.msg_id == m2.msg_id + 1
        sim.run()
        assert "dropme" not in received
        assert fault.dropped == 1

    def test_probabilistic_omission_is_deterministic_per_seed(self, sim):
        def run(seed):
            s = Simulator()
            net = make_net(s)
            fault = OmissionFault(probability=0.5, rng=random.Random(seed))
            net.link("n0", "n1").add_fault(fault)
            got = []
            net.interfaces["n1"].on_receive(lambda m: got.append(m.payload))
            for i in range(20):
                net.interfaces["n0"].send("n1", i)
            s.run()
            return got

        assert run(5) == run(5)
        assert run(5) != run(6) or len(run(5)) < 20

    def test_max_consecutive_omissions_bounded(self, sim):
        net = make_net(sim)
        fault = OmissionFault(probability=1.0, rng=random.Random(0),
                              max_consecutive=2)
        net.link("n0", "n1").add_fault(fault)
        got = []
        net.interfaces["n1"].on_receive(lambda m: got.append(m.payload))
        for i in range(9):
            net.interfaces["n0"].send("n1", i)
        sim.run()
        # Pattern: drop, drop, deliver, drop, drop, deliver, ...
        assert got == [2, 5, 8]

    def test_performance_fault_delivers_late(self, sim):
        net = make_net(sim, base_latency=10)
        link = net.link("n0", "n1")
        link.add_fault(PerformanceFault(extra_delay=10_000))
        arrival = []
        net.interfaces["n1"].on_receive(lambda m: arrival.append(sim.now))
        net.interfaces["n0"].send("n1", "slow", size=0)
        sim.run()
        assert arrival[0] > link.guaranteed_bound(0)
        assert link.stats[DeliveryOutcome.LATE] == 1

    def test_partition_and_heal(self, sim):
        net = make_net(sim, n=4)
        got = []
        net.interfaces["n3"].on_receive(lambda m: got.append(m.payload))
        net.partition(["n0", "n1"], ["n2", "n3"])
        net.interfaces["n0"].send("n3", "blocked")
        sim.run()
        assert got == []
        net.heal()
        net.interfaces["n0"].send("n3", "through")
        sim.run()
        assert got == ["through"]

    def test_omission_probability_validation(self):
        with pytest.raises(ValueError):
            OmissionFault(probability=1.5)
        with pytest.raises(ValueError):
            OmissionFault(probability=0.5)  # no rng

    def test_burst_serialised_by_net_irq_pseudo_period(self, sim):
        net = make_net(sim, base_latency=10)
        arrivals = []
        net.interfaces["n1"].on_receive(lambda m: arrivals.append(sim.now))
        for i in range(3):
            net.interfaces["n0"].send("n1", i)
        sim.run()
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        pseudo = net.nodes["n1"].net_irq.pseudo_period
        assert all(g >= pseudo for g in gaps)


class TestMessage:
    def test_latency_observable_after_delivery(self, sim):
        net = make_net(sim, base_latency=75)
        msg = net.interfaces["n0"].send("n1", "x", size=0)
        assert msg.latency == -1
        sim.run()
        assert msg.latency == 75

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message(src="a", dst="b", payload=None, size=-1)

    def test_unique_ids(self):
        a = Message(src="a", dst="b", payload=None)
        b = Message(src="a", dst="b", payload=None)
        assert a.msg_id != b.msg_id

    def test_max_message_delay_over_topology(self, sim):
        net = make_net(sim, n=3, base_latency=40, jitter_bound=0)
        assert net.max_message_delay(0) == 40

    def test_cached_max_message_delay_equals_a_fresh_scan(self, sim):
        def check():
            for size in (0, 64, 64, 1500):
                assert net.max_message_delay(size) == max(
                    (link.guaranteed_bound(size)
                     for link in net.links.values()), default=0)

        tracer = Tracer(lambda: sim.now)
        net = Network(sim, tracer, base_latency=40, size_cost_per_byte=2,
                      jitter_bound=5)
        net.add_node(Node(sim, "n0", tracer=tracer))
        check()
        assert net.max_message_delay(64) == 0
        for i in (1, 2, 3):
            net.add_node(Node(sim, f"n{i}", tracer=tracer))
            check()
        assert net.max_message_delay(64) == 40 + 2 * 64 + 5
        net.partition(["n0", "n1"], ["n2", "n3"])
        check()
        net.heal()
        check()
        assert len(net.links) == 12


class TestMessageIdLanes:
    def test_per_src_lane_independent_of_interleaving(self):
        def ids(order):
            net = make_net(Simulator())
            out = {}
            for src in order:
                dst = "n1" if src == "n0" else "n0"
                out[src] = net.interfaces[src].send(dst, "x").msg_id
            return out

        assert ids(["n0", "n1"]) == ids(["n1", "n0"])

    def test_global_lane_below_node_lanes(self, sim):
        net = make_net(sim)
        assert net.next_msg_id() < net.next_msg_id("n0")


class _FixedRng:
    """Deterministic jitter source: always draws the same value."""

    def __init__(self, value):
        self.value = value

    def randrange(self, _lo, hi):
        assert self.value < hi
        return self.value


def make_link(sim, inbox, base_latency=100, jitter_bound=0, jitter=None,
              **kwargs):
    from repro.network.link import Link

    tracer = Tracer(lambda: sim.now)
    rng = _FixedRng(jitter) if jitter is not None else None
    link = Link(sim, tracer, "a", "b", base_latency=base_latency,
                jitter_bound=jitter_bound, rng=rng, **kwargs)
    link.connect(lambda m: inbox.append((m.payload, sim.now)))
    return link


class TestLateBoundary:
    """LATE means delivered past the guaranteed bound — decided at
    delivery time, whatever combination of fault delay, jitter and FIFO
    push-back produced the delivery instant."""

    def test_exactly_at_bound_is_not_late(self, sim):
        inbox = []
        link = make_link(sim, inbox, base_latency=100, jitter_bound=50,
                         jitter=50)
        link.transmit(Message(src="a", dst="b", payload="x", size=0))
        sim.run()
        assert inbox == [("x", 150)]  # == guaranteed_bound(0)
        assert link.stats[DeliveryOutcome.DELIVERED] == 1
        assert link.stats[DeliveryOutcome.LATE] == 0

    def test_one_past_bound_is_late(self, sim):
        inbox = []
        link = make_link(sim, inbox, base_latency=100, jitter_bound=50,
                         jitter=50)
        link.add_fault(PerformanceFault(extra_delay=1))
        outcome = link.transmit(Message(src="a", dst="b", payload="x",
                                        size=0))
        sim.run()
        assert outcome is DeliveryOutcome.LATE
        assert inbox == [("x", 151)]
        assert link.stats[DeliveryOutcome.LATE] == 1

    def test_fault_delay_absorbed_by_jitter_headroom_is_on_time(self, sim):
        # A lucky draw leaves headroom below the bound: a fault delay
        # smaller than that headroom is invisible to the receiver.
        inbox = []
        link = make_link(sim, inbox, base_latency=100, jitter_bound=50,
                         jitter=0)
        fault = PerformanceFault(extra_delay=30)
        link.add_fault(fault)
        outcome = link.transmit(Message(src="a", dst="b", payload="x",
                                        size=0))
        sim.run()
        assert fault.delayed == 1
        assert outcome is DeliveryOutcome.DELIVERED
        assert inbox == [("x", 130)]  # bound is 150
        assert link.stats[DeliveryOutcome.LATE] == 0
        assert link.stats[DeliveryOutcome.DELIVERED] == 1

    def test_size_dependent_bound_exactly_at_bound_is_not_late(self, sim):
        # The bound grows with the message size; a max-jitter delivery
        # of a sized message lands exactly ON guaranteed_bound(size)
        # and must stay DELIVERED.  Regression: comparing against
        # guaranteed_bound(0) would flag every sized message LATE.
        inbox = []
        link = make_link(sim, inbox, base_latency=100, jitter_bound=50,
                         jitter=50, size_cost_per_byte=2)
        message = Message(src="a", dst="b", payload="x", size=64)
        outcome = link.transmit(message)
        sim.run()
        bound = link.guaranteed_bound(64)
        assert bound == 100 + 2 * 64 + 50
        assert inbox == [("x", bound)]
        assert message.deliver_time - message.send_time == bound
        assert outcome is DeliveryOutcome.DELIVERED
        assert link.stats[DeliveryOutcome.LATE] == 0
        assert link.stats[DeliveryOutcome.DELIVERED] == 1

    def test_size_dependent_bound_one_past_is_late(self, sim):
        inbox = []
        link = make_link(sim, inbox, base_latency=100, jitter_bound=50,
                         jitter=50, size_cost_per_byte=2)
        link.add_fault(PerformanceFault(extra_delay=1))
        outcome = link.transmit(Message(src="a", dst="b", payload="x",
                                        size=64))
        sim.run()
        assert inbox == [("x", link.guaranteed_bound(64) + 1)]
        assert outcome is DeliveryOutcome.LATE
        assert link.stats[DeliveryOutcome.LATE] == 1

    def test_fifo_pushback_past_bound_is_late(self, sim):
        # msg1 is delayed way past the bound; msg2 is healthy but FIFO
        # push-back parks it behind msg1 — also past ITS bound: LATE.
        inbox = []
        link = make_link(sim, inbox, base_latency=100)
        link.add_fault(PerformanceFault(extra_delay=500))
        link.transmit(Message(src="a", dst="b", payload=1, size=0))
        link.clear_faults()
        outcome = link.transmit(Message(src="a", dst="b", payload=2,
                                        size=0))
        sim.run()
        assert outcome is DeliveryOutcome.LATE
        assert inbox == [(1, 600), (2, 600)]  # order preserved
        assert link.stats[DeliveryOutcome.LATE] == 2
        assert link.stats[DeliveryOutcome.DELIVERED] == 0


class TestDeliveryHostWork:
    """``transmit`` computes a message's bound once and hands it to the
    delivery, which counts the outcome without hashing a
    ``DeliveryOutcome`` (``Enum.__hash__`` is a Python call).  The
    outcome's value comes with the outcome, not from the Python-level
    enum ``value`` property, and the delivery computes the latency once
    instead of calling the ``Message.latency`` property."""

    def test_one_bound_per_message_and_no_enum_hash(self, sim):
        inbox = []
        link = make_link(sim, inbox, base_latency=100, jitter_bound=50,
                         jitter=50)
        link.add_fault(PerformanceFault(extra_delay=1, probability=0.5,
                                        rng=random.Random(3)))
        profile = cProfile.Profile()
        profile.enable()
        for i in range(20):
            # Well apart, so a late message pushes back no later one.
            sim.call_at(i * 1_000, lambda i=i: link.transmit(
                Message(src="a", dst="b", payload=i, size=i)))
        sim.run()
        profile.disable()
        bounds = enum_hashes = enum_values = latencies = 0
        for (path, _line, name), row in pstats.Stats(profile).stats.items():
            from_link = sum(calls[1] for (caller, _l, _n), calls
                            in row[4].items() if caller.endswith("link.py"))
            if path.endswith("link.py") and name == "guaranteed_bound":
                bounds += row[1]
            if path.endswith("enum.py") and name == "__hash__":
                enum_hashes += from_link
            # The getter of an enum member's ``value``: enum.property on
            # Python 3.11+, types.DynamicClassAttribute before.
            if path.endswith(("enum.py", "types.py")) and name == "__get__":
                enum_values += from_link
            if path.endswith("messages.py") and name == "latency":
                latencies += from_link
        assert (bounds, enum_hashes, enum_values, latencies) == (20, 0, 0, 0)
        stats = link.stats
        assert len(inbox) == 20
        assert stats[DeliveryOutcome.LATE] > 0
        assert stats[DeliveryOutcome.DELIVERED] > 0
        assert (stats[DeliveryOutcome.LATE]
                + stats[DeliveryOutcome.DELIVERED]) == 20


class TestLinkFaultEdges:
    def test_fifo_order_preserved_under_jitter(self, sim):
        net = make_net(sim, base_latency=100, jitter_bound=80, seed=42)
        order, times = [], []

        def on_recv(m):
            order.append(m.payload)
            times.append(sim.now)

        net.interfaces["n1"].on_receive(on_recv)
        for i in range(10):
            net.interfaces["n0"].send("n1", i)
        sim.run()
        assert order == list(range(10))
        assert times == sorted(times)

    def test_max_consecutive_zero_never_drops(self, sim):
        net = make_net(sim)
        fault = OmissionFault(probability=1.0, rng=random.Random(0),
                              max_consecutive=0)
        net.link("n0", "n1").add_fault(fault)
        got = []
        net.interfaces["n1"].on_receive(lambda m: got.append(m.payload))
        for i in range(5):
            net.interfaces["n0"].send("n1", i)
        sim.run()
        assert got == [0, 1, 2, 3, 4]
        assert fault.dropped == 0

    def test_max_consecutive_resets_after_forced_delivery(self, sim):
        # drop_ids ask for 1,2,3,4 to be dropped; the cap of 2 forces 3
        # through, then the run restarts and 4 drops again.
        net = make_net(sim)
        ids = {}

        def capture(m):
            ids.setdefault(m.payload, m.msg_id)

        sent = []
        for i in range(6):
            msg = Message(src="n0", dst="n1", payload=i,
                          msg_id=1000 + i)
            sent.append(msg)
        fault = OmissionFault(drop_ids={1001, 1002, 1003, 1004},
                              max_consecutive=2)
        link = net.link("n0", "n1")
        link.add_fault(fault)
        got = []
        net.interfaces["n1"].on_receive(lambda m: got.append(m.payload))
        for msg in sent:
            link.transmit(msg)
        sim.run()
        assert got == [0, 3, 5]
        assert fault.dropped == 3

    def test_crashed_destination_counts_dst_crashed(self, sim):
        net = make_net(sim, base_latency=50)
        link = net.link("n0", "n1")
        net.nodes["n1"].crash()
        net.interfaces["n0"].send("n1", "lost")
        sim.run()
        assert link.stats[DeliveryOutcome.DST_CRASHED] == 1
        assert link.stats[DeliveryOutcome.DELIVERED] == 0
        assert net.interfaces["n1"].received_count == 0

    def test_recovered_destination_delivers_again(self, sim):
        net = make_net(sim, base_latency=50)
        link = net.link("n0", "n1")
        net.nodes["n1"].crash()
        net.interfaces["n0"].send("n1", "lost")
        sim.run()
        net.nodes["n1"].recover()
        got = []
        net.interfaces["n1"].on_receive(lambda m: got.append(m.payload))
        net.interfaces["n0"].send("n1", "through")
        sim.run()
        assert got == ["through"]
        assert link.stats[DeliveryOutcome.DST_CRASHED] == 1
        assert link.stats[DeliveryOutcome.DELIVERED] == 1
