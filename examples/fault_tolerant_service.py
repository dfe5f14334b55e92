#!/usr/bin/env python3
"""Fault-tolerance services: replication styles under a crash fault.

Replicates the same deterministic state machine three ways — active,
passive and semi-active (§2.2.1 / Poledna's classification) — crashes
the serving replica mid-run, and reports per-style behaviour: request
latency before the fault, failover time, and state preserved across
the failover.  Persistent storage and dependency tracking make a
cameo: the service state is checkpointed to stable store, and the
dependency tracker shows which downstream computations a corrupted
update would invalidate.

Run:  python examples/fault_tolerant_service.py
"""

from repro.kernel import Node
from repro.network import Network
from repro.services import (
    ActiveReplication,
    DependencyTracker,
    PassiveReplication,
    PersistentStore,
    SemiActiveReplication,
)
from repro.sim import Simulator, Tracer


def build(style):
    sim = Simulator()
    tracer = Tracer(sim)
    net = Network(sim, tracer, base_latency=200)
    for node_id in ("client", "r1", "r2", "r3"):
        net.add_node(Node(sim, node_id, tracer=tracer))
    net.connect_all()
    replicas = ["r1", "r2", "r3"]
    if style == "active":
        svc = ActiveReplication(net, "client", replicas)
    elif style == "passive":
        svc = PassiveReplication(net, "client", replicas,
                                 checkpoint_every=1)
    else:
        svc = SemiActiveReplication(net, "client", replicas)
    return sim, net, svc


def run_style(style):
    sim, net, svc = build(style)
    latencies = []

    def timed_submit(request, **kwargs):
        start = sim.now
        event = svc.submit(request, **kwargs)
        event.add_callback(
            lambda evt: latencies.append(sim.now - start) if evt.ok else None)
        return event

    # Warm-up traffic.
    sim.call_at(1_000, lambda: timed_submit(("set", "altitude", 30_000)))
    sim.call_at(10_000, lambda: timed_submit(("add", "altitude", 500)))
    sim.run(until=40_000)

    # Crash the node currently serving.
    serving = getattr(svc, "primary", None) or getattr(svc, "leader", "r1")
    if style == "active":
        serving = "r1"
        net.nodes[serving].crash()
    else:
        svc.mark_crash()
        net.nodes[serving].crash()

    # Post-fault request must still succeed.
    kwargs = {"retries": 30, "timeout": 20_000} if style == "passive" else {}
    post = None

    def late():
        nonlocal post
        post = timed_submit(("add", "altitude", 250), **kwargs)

    sim.call_in(1_000, late)
    sim.run(until=800_000)
    assert post is not None and post.triggered and post.ok, \
        f"{style}: post-fault request failed"

    failover = None
    if getattr(svc, "failover_times", None):
        failover = svc.failover_times[0]
    machines = getattr(svc, "machines", None)
    if machines is None:
        state = svc.replicas[1].machine.data
    else:
        key = svc.primary if style == "passive" else svc.leader
        state = machines[key].data
    return {
        "style": style,
        "pre_fault_latency": latencies[0],
        "failover_us": failover,
        "altitude": state.get("altitude"),
    }


def main() -> None:
    print("Replication styles under a crash fault")
    print("======================================")
    print(f"{'style':>12} {'pre-fault lat':>14} {'failover':>10} "
          f"{'state after':>12}")
    outcomes = [run_style(style)
                for style in ("active", "passive", "semi-active")]
    for outcome in outcomes:
        failover = (f"{outcome['failover_us']}"
                    if outcome["failover_us"] is not None else "masked")
        print(f"{outcome['style']:>12} {outcome['pre_fault_latency']:>14} "
              f"{failover:>10} {outcome['altitude']:>12}")
    assert all(o["altitude"] == 30_750 for o in outcomes), \
        "every style must preserve 30000 + 500 + 250"
    print()
    print("active replication masks the crash entirely; semi-active pays")
    print("only failure detection; passive adds checkpoint restore and")
    print("request retries.")

    # -- stable storage + dependency tracking cameo -------------------------
    sim = Simulator()
    node = Node(sim, "fms")
    store = PersistentStore(node, write_latency=150)
    store.put("flightplan", ["WP1", "WP2", "WP3"])
    sim.run()
    capture = store.capture({"altitude": 30_750, "leg": 2})
    node.crash()
    node.recover()
    restored = store.restore_capture(capture)
    print(f"state capture survived a crash: {restored}")

    tracker = DependencyTracker()
    tracker.record_write("nav_update#12", "position")
    tracker.record_read("autopilot#40", "position")
    tracker.record_read("display#41", "position")
    casualties = tracker.invalidate("nav_update#12")
    print(f"a corrupted nav update would invalidate: "
          f"{sorted(casualties - {'nav_update#12'})}")


if __name__ == "__main__":
    main()
